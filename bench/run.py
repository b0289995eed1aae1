"""onoffgraph benchmark: one workload run, printed as one JSON line.

    python3 bench/run.py --workload campaign_gg --seed 1 --seconds 15 --trace 0

Run from the root of a checkout. The package is imported from the checkout's
src/ (nothing is installed). Each run:

1. times `import onoffgraph` plus building the workload's configs in several
   fresh interpreters and reports the median as setup_s;
2. runs the workload in another fresh interpreter (work.py) with BLAS and
   OpenMP pinned to one thread, under a wall-clock deadline;
3. prints the run record and a readable summary on stderr, and as the last
   line of stdout {"correct", "attempted", "failed", "metrics"}: the
   end-to-end metrics with --trace 0, the per-layer metrics with --trace 1.

Exit status is 0 only when every operation and output check succeeded.
Files go under .bench_out/ in the checkout.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
sys.path.insert(0, str(BENCH))

import workloads as W  # noqa: E402 - stdlib only

SETUP_PROBES = 5
HARD_LIMIT_S = 170        # the whole command, set-up probes included
SETUP_PROBE_LIMIT_S = 60
PINNED = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
          "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(SRC), str(BENCH)])
    env.update({k: "1" for k in PINNED})
    env.pop("RG_WORKERS", None)  # the campaigns pass --workers explicitly
    return env


def run_bounded(cmd, timeout, **kwargs):
    """Run cmd in its own process group; kill the whole group at the timeout.

    Returns (returncode or None on timeout, stdout).
    """
    proc = subprocess.Popen(cmd, start_new_session=True, cwd=ROOT, env=child_env(),
                            stdout=subprocess.PIPE, text=True, **kwargs)
    try:
        out, _ = proc.communicate(timeout=max(1.0, timeout))
        return proc.returncode, out
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        return None, ""
    finally:
        try:  # pool workers left behind by a failed child
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass


def measure_setup(name, deadline):
    """Median of SETUP_PROBES fresh-interpreter set-ups, calibrated; and the raw times."""
    from calibration import calibrated, calibration_loop

    raw, refs = [], []
    for _ in range(SETUP_PROBES):
        refs.append(calibration_loop())
        code, out = run_bounded([sys.executable, str(BENCH / "workloads.py"), name],
                                min(SETUP_PROBE_LIMIT_S, deadline - time.monotonic()))
        if code != 0:
            raise RuntimeError(f"set-up probe exited with {code}")
        raw.append(float(out.strip().splitlines()[-1]))
    return calibrated(statistics.median(raw), statistics.median(refs)), raw


def src_digest():
    h = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        h.update(str(path.relative_to(SRC)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def git_sha():
    try:
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def run_record(args):
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "git_sha": git_sha(), "src_sha256": src_digest(),
        "nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "pinned_threads": {k: "1" for k in PINNED}, "started": time.time(),
    }


def read_records(path):
    if not path.exists():
        return []
    records = []
    for line in path.read_text().splitlines():
        try:
            records.append(json.loads(line))
        except json.JSONDecodeError:  # a line cut off by the kill
            break
    return records


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=W.NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    start = time.monotonic()
    deadline = start + HARD_LIMIT_S

    if not (SRC / "onoffgraph" / "__init__.py").is_file():
        print(f"bench: no onoffgraph package under {SRC}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]

    out = ROOT / ".bench_out" / (f"{args.workload}-seed{args.seed}-trace{args.trace}-"
                                 f"{time.strftime('%Y%m%dT%H%M%S')}-{os.getpid()}")
    out.mkdir(parents=True)
    record = run_record(args)
    setup_s, setup_all = measure_setup(args.workload, deadline)

    code, _ = run_bounded(
        [sys.executable, str(BENCH / "work.py"), "--workload", args.workload,
         "--seed", str(args.seed), "--seconds", str(args.seconds),
         "--trace", str(args.trace), "--out", str(out)],
        deadline - time.monotonic(), stderr=sys.stderr)
    records = read_records(out / "records.jsonl")
    final = records[-1] if records and records[-1].get("final") else None

    if final is None:
        ops = [r for r in records if "op" in r]
        attempted = sum(r["attempted"] for r in ops) + 1
        failed = sum(r["failed"] for r in ops) + 1
        reason = "timeout" if code is None else f"workload process exited with {code}"
        record.update(error=reason, attempted=attempted, failed=failed)
        (out / "run.json").write_text(json.dumps(record, indent=2))
        print(f"bench: {args.workload}: {reason}", file=sys.stderr)
        print(json.dumps({"correct": False, "attempted": attempted, "failed": failed,
                          "metrics": {}}))
        return 1

    if Path(final["package"]) != SRC / "onoffgraph":
        print(f"bench: imported onoffgraph from {final['package']}, not {SRC}", file=sys.stderr)
        return 2
    values = {**final["end_to_end"], "setup_s": setup_s, **final.get("per_layer", {})}
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}
    correct = all(c["ok"] for c in final["checks"]) and final["failed"] == 0
    record.update(numpy=final["numpy"], scipy=final["scipy"], setup_raw_s=setup_all,
                  operations=final["operations"], rounds=final["rounds"], checks=final["checks"],
                  attempted=final["attempted"], failed=final["failed"],
                  fail_frac=final["failed"] / max(1, final["attempted"]),
                  reasons=final["reasons"], metrics=metrics, notes=final.get("notes"),
                  elapsed_s=time.monotonic() - start)
    (out / "run.json").write_text(json.dumps(record, indent=2))

    print(f"bench: {args.workload} seed={args.seed} trace={args.trace} "
          f"attempted={final['attempted']} "
          f"failed={final['failed']} fail_frac={record['fail_frac']:.4g}", file=sys.stderr)
    for name, m in metrics.items():
        print(f"  {name:28s} {m['value']:.6g} {m['unit']}", file=sys.stderr)
    for c in final["checks"]:
        if not c["ok"]:
            print(f"  FAILED check {c['name']}: {c['detail']}", file=sys.stderr)
    print(json.dumps({"correct": correct, "attempted": final["attempted"],
                      "failed": final["failed"], "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
