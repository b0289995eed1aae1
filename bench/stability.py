"""Run-to-run spread of the end-to-end metrics over several seeds.

    python3 bench/stability.py --seeds 1-10 [--workloads campaign_gg,analytics]
                               [--baseline bench/baseline.json]

Runs the benchmark command of BENCHMARK.json once per workload and seed, one
run at a time, and prints for each metric the median and the interquartile
range as a share of the median (statistics.quantiles with n=4), beside a
third of the metric's bound. --baseline writes the medians and quartiles,
with the run record of the first run, to a JSON file.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def host():
    import platform

    import numpy
    import scipy

    sha = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                         capture_output=True, text=True)
    return {"git_sha": sha.stdout.strip() if sha.returncode == 0 else None,
            "nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__}


def seeds(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--seeds", type=seeds, default=seeds("1-10"))
    parser.add_argument("--workloads")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--baseline")
    args = parser.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = args.workloads.split(",") if args.workloads else [w["name"] for w in spec["workloads"]]
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}
    report = {"host": host(), "run_seconds": spec["run_seconds"], "trace": args.trace,
              "seeds": args.seeds, "workloads": {}}
    ok = True
    for name in names:
        values = {}
        for seed in args.seeds:
            cmd = [*spec["command"], "--workload", name, "--seed", str(seed),
                   "--seconds", str(spec["run_seconds"]), "--trace", str(args.trace)]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
            lines = proc.stdout.strip().splitlines()
            if not lines:
                print(f"{name} seed={seed} exit={proc.returncode}: no result", flush=True)
                ok = False
                continue
            result = json.loads(lines[-1])
            ok &= proc.returncode == 0 and result["correct"] and result["failed"] == 0
            print(f"{name} seed={seed} exit={proc.returncode} correct={result['correct']} "
                  f"failed={result['failed']}/{result['attempted']} " + " ".join(
                      f"{k}={v['value']:.5g}" for k, v in result["metrics"].items()), flush=True)
            for k, v in result["metrics"].items():
                values.setdefault(k, []).append(v["value"])
        summary = {}
        for k, vals in values.items():
            q1, med, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / abs(med) if med else None
            summary[k] = {"median": med, "q1": q1, "q3": q3, "iqr_share": spread,
                          "values": vals}
            bound = bounds.get(k)
            mark = "" if bound is None or spread is None else (
                f" (bound/3 {bound / 3:.4f}{'' if spread < bound / 3 else ' EXCEEDED'})")
            shown = "n/a" if spread is None else f"{spread:.4f}"
            print(f"  {name:15s} {k:28s} median {med:.6g} iqr/median {shown}{mark}")
        report["workloads"][name] = summary
    if args.baseline:
        Path(args.baseline).write_text(json.dumps(report, indent=1) + "\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
