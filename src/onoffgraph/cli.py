"""Command-line entry point.

Subcommands: simulate, estimate, campaign, mgf, cov, check. Exit codes:
0 success, 1 usage error, 2 computational error or lack of memory (reported
as a JSON body).
A reader that closes stdout early (`... | head`) ends the command with exit 0.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

import numpy as np

from .asymp import finiteness_check, general_moment_cov, param_cov
from .errors import COMPUTE_ERRORS, ConvergenceError, InfiniteMeanError
from .harness import ExperimentConfig, emit_outputs, run_campaign
from .moments import fit, infer_family
from .renewal import joint_distribution, joint_mgf
from .simulate import ModelSpec, load_trace, save_trace, simulate_trace, whole_number

class _Parser(argparse.ArgumentParser):
    """argparse with usage errors mapped to exit status 1."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _build_parser() -> _Parser:
    parser = _Parser(prog="onoffgraph",
                     description="dynamic on/off random graph simulation and estimation")
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    def add(name, help_text):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", required=True, help="JSON model/experiment config")
        return p

    def comma_list(kind):
        def parse(text):  # a bad entry is a usage error
            return [kind(x) for x in text.split(",")]
        parse.__name__ = f"comma-separated {kind.__name__}"
        return parse

    p = add("simulate", "simulate a count trace and write it as CSV")
    p.add_argument("--k", type=int, help="trace length")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default="trace.csv", help="output CSV path")
    p.add_argument("--kind", choices=["edges", "triangles", "wedges"])

    p = add("estimate", "estimate parameters from a saved trace")
    p.add_argument("--trace", required=True, help="trace CSV path")

    p = add("campaign", "run a replication campaign and emit summary files")
    p.add_argument("--k", type=int)
    p.add_argument("--reps", type=int)
    p.add_argument("--seed", type=int)
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--workers", type=int)

    p = add("mgf", "evaluate the joint MGF or a joint on-pattern law")
    p.add_argument("--theta", type=comma_list(float),
                   help="comma-separated tilt vector (entries may be -inf)")
    p.add_argument("--epochs", type=comma_list(int), help="the joint law's comma-separated epochs")

    add("cov", "limiting covariances of the moment statistics and of the parameters")

    add("check", "report whether the limiting covariances are finite")
    return parser


def _fail(exc) -> int:
    print(json.dumps({"error": type(exc).__name__, "message": str(exc)}))
    return 2


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        cfg = json.loads(Path(args.config).read_text())
        model = ModelSpec.from_config(cfg)
    except (KeyError, TypeError, json.JSONDecodeError) as exc:
        print(f"onoffgraph: bad config: {exc}", file=sys.stderr)
        return 1
    except COMPUTE_ERRORS as exc:
        return _fail(exc)
    try:
        code = _dispatch(args, cfg, model)
        sys.stdout.flush()  # so a closed pipe raises here, not at interpreter exit
        return code
    except BrokenPipeError:
        # the reader went away (e.g. `| head`): send what is left to devnull
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 0
    except COMPUTE_ERRORS as exc:
        return _fail(exc)
    except MemoryError as exc:  # a length or size past this machine's memory
        return _fail(MemoryError(str(exc) or "out of memory"))


def _dispatch(args, cfg, model) -> int:
    if args.command == "simulate":
        K = whole_number("K", args.k if args.k is not None else cfg.get("K", 10_000))
        kind = args.kind or cfg.get("kind", "edges")
        rng = np.random.default_rng(args.seed)
        trace = simulate_trace(model, K, rng, kind=kind)
        trace.seed = args.seed
        save_trace(trace, args.out)
        print(json.dumps({"out": str(args.out), "kind": kind, "K": K}))
        return 0

    if args.command == "estimate":
        trace = load_trace(args.trace, n=model.n, N=model.N, kind=cfg.get("kind", "edges"))
        report = fit(trace, cfg.get("family") or infer_family(model))
        print(json.dumps(report.to_json(), indent=2, sort_keys=True))
        return 0

    if args.command == "campaign":
        exp = ExperimentConfig.from_json(
            cfg, K=args.k, R=args.reps, base_seed=args.seed, workers=args.workers)
        summary = run_campaign(exp)
        emit_outputs(summary, args.out)
        print(json.dumps(summary.to_json(), indent=2, sort_keys=True))
        return 0

    if args.command == "mgf":
        if args.theta is None and args.epochs is None:
            print("onoffgraph mgf: need --theta or --epochs", file=sys.stderr)
            return 1
        out = {}
        if args.theta is not None:
            with np.errstate(over="ignore", invalid="ignore"):
                out["mgf"] = joint_mgf(model, args.theta)
            if not np.isfinite(out["mgf"]):  # JSON has no token for it
                raise ValueError(f"the joint MGF overflows float64 at theta={args.theta}")
        if args.epochs is not None:
            out["epochs"] = args.epochs
            out["joint"] = {format(s, f"0{len(args.epochs)}b")[::-1]: float(p)
                            for s, p in enumerate(joint_distribution(model, args.epochs))}
        print(json.dumps(out, indent=2, sort_keys=True))
        return 0

    if args.command == "cov":
        ok, why = finiteness_check(model)
        if not ok:
            raise InfiniteMeanError(f"limiting covariances are infinite: {why}")
        mc = general_moment_cov(model, model.n)
        if not mc.converged:
            raise ConvergenceError(
                f"covariance series did not converge: tail_error={mc.tail_error:.3g}"
                f" at k={mc.k_used}")
        out = {"moment_cov": mc.to_json()}
        pc = param_cov(model, mc)  # None unless a two-lag family fits the model
        if pc is not None:
            out["param_cov"] = pc.to_json()
        print(json.dumps(out, indent=2, sort_keys=True))
        return 0

    if args.command == "check":
        ok, why = finiteness_check(model)
        print(json.dumps({"finite": ok, "explanation": why}))
        return 0

    raise AssertionError(f"unhandled command {args.command!r}")


if __name__ == "__main__":
    sys.exit(main())
