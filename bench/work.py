"""One workload run in a fresh interpreter: timed rounds, output checks, traced replay.

Started by run.py, which puts the checkout's src/ on PYTHONPATH, pins BLAS
and OpenMP to one thread, and kills the process group when the run overruns
its deadline. Every finished operation is appended to records.jsonl at once,
so a killed run still shows what it attempted; the last record holds the
metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import io
import json
import math
import resource
import shutil
import sys
import time
import warnings
from pathlib import Path

import numpy as np
import scipy
from scipy import stats

import onoffgraph
from onoffgraph import asymp, cli, harness, laws, moments, renewal, simulate

import oracle
import workloads as W
from calibration import calibrated, calibration_loop
from tracing import Tracer

# The mean check pools the first POOL fits of each campaign kind, so it is
# equally strict however fast the program runs. The Pareto/Pareto fit has a
# finite-K bias of about 0.14 sd, which a pool of hundreds would flag.
POOL = 32
# "Within 4 SE" as a two-sided tail probability, taken from Student's t with
# pool - 1 degrees of freedom because the SE is estimated from the pool.
MEAN_CHECK_TAIL = 2 * stats.norm.sf(4.0)
# The K=10 GG saddlepoint at n=100 sits about 0.034 above the exact
# count-chain log-probability on the seed code (about 0.07 at K=20).
SADDLE_TOL = 0.1
# Probes for layers a workload does not run: a small graph on the workload's
# laws, and a short GG campaign for the analytics workload.
REF_GRAPH_N = 16
REF_CAMPAIGN = {"config": {**W.GG, "n": 100, "kind": "edges"}, "K": 2000, "reps": 4}
MGF_PROBE_CALLS = 20


class Run:
    """One workload run: operation counts, records, checks, round timings and the tracer."""

    def __init__(self, args):
        self.name = args.workload
        self.seed = args.seed
        self.out = Path(args.out)
        self.tracer = Tracer() if args.trace else None
        self.records = (self.out / "records.jsonl").open("a")
        self.attempted = 0
        self.failed = 0
        self.reasons = {}
        self.checks = []
        self.round = None        # {operation label: (seconds, calibration seconds)}
        self.rounds = []         # untraced timed rounds
        self.traced_rounds = []  # the same work under spans, for the tracing overhead
        self.reps = {}           # replications per campaign label, for reps_per_s

    def record(self, op, attempted, failed=0, reason=None, **extra):
        self.attempted += attempted
        self.failed += failed
        if failed:
            self.reasons[reason] = self.reasons.get(reason, 0) + failed
        rec = {"op": op, "attempted": attempted, "failed": failed, "reason": reason, **extra}
        self.records.write(json.dumps(rec) + "\n")
        self.records.flush()

    def check(self, name, ok, detail):
        self.checks.append({"name": name, "ok": bool(ok), "detail": detail})
        self.record("check:" + name, 1, 0 if ok else 1, None if ok else "check:" + name,
                    detail=detail)

    def span(self, name, **attrs):
        return self.tracer.span(name, **attrs) if self.tracer else contextlib.nullcontext()

    def instrument(self, module, attr, name):
        return (self.tracer.instrument(module, attr, name) if self.tracer
                else contextlib.nullcontext())

    @contextlib.contextmanager
    def timed(self, label):
        """Time the block into the current round, with calibration loops just before and after."""
        if self.round is None:
            yield
            return
        before = calibration_loop()
        t0 = time.perf_counter()
        yield
        elapsed = time.perf_counter() - t0
        self.round[label] = (elapsed, 0.5 * (before + calibration_loop()))

    @contextlib.contextmanager
    def traced(self, on):
        """Run the block with the tracer on (if the run has one) or off."""
        saved = self.tracer
        self.tracer = saved if on else None
        try:
            yield
        finally:
            self.tracer = saved

    def call(self, op, fn, *args, label=None, span=None, **kwargs):
        """One timed analytic call; an exception counts as a failed operation and gives None."""
        try:
            with self.timed(label or op), self.span(op, **(span or {})):
                result = fn(*args, **kwargs)
        except Exception as exc:  # noqa: BLE001 - recorded as a failed operation
            self.record(op, 1, 1, f"error:{type(exc).__name__}:{exc}")
            return None
        self.record(op, 1)
        return result


def _med(xs):
    return oracle.median(xs) if xs else math.nan


def per_operation(rounds):
    """Each operation's median time over the rounds, calibrated by the rounds' median loop."""
    reference = _med([ref for r in rounds for _, ref in r.values()])
    labels = sorted({label for r in rounds for label in r})
    return {label: calibrated(_med([r[label][0] for r in rounds if label in r]), reference)
            for label in labels}


# ---------------------------------------------------------------------------
# Campaign workloads
# ---------------------------------------------------------------------------


def campaign_seed(seed, rnd):
    """Round 0 passes the workload seed itself as the campaign --seed."""
    return seed + 7919 * rnd


def run_cli_campaign(run, camp, seed, out_dir, label):
    """`onoffgraph campaign` in process, timed as label; returns (exit code, cli span or None)."""
    cfg_path = run.out / f"config-{camp['config']['kind']}.json"
    cfg_path.write_text(json.dumps(camp["config"]))
    argv = ["campaign", "--config", str(cfg_path), "--k", str(camp["K"]),
            "--reps", str(camp["reps"]), "--seed", str(seed), "--out", str(out_dir),
            "--workers", str(camp["workers"])]
    with contextlib.redirect_stdout(io.StringIO()), run.timed(label), \
            run.span("cli.main", workers=camp["workers"]) as cli_span, \
            run.instrument(cli, "run_campaign", "harness.run_campaign"), \
            run.instrument(cli, "emit_outputs", "harness.emit_outputs"):
        code = cli.main(argv)
    return code, cli_span


def read_estimates(out_dir, names):
    with (out_dir / "estimates.csv").open() as fh:
        rows = list(csv.DictReader(fh))
    return {int(r["rep"]): {"flags": r["flags"],
                            "params": {k: float(r[k]) for k in names if r[k] != ""}}
            for r in rows}


def dirs_identical(a, b):
    files = sorted(p.name for p in a.iterdir())
    return files == sorted(p.name for p in b.iterdir()) and all(
        (a / f).read_bytes() == (b / f).read_bytes() for f in files)


def campaign_round(run, spec, rnd, pools, replay):
    """Every campaign of the workload once, with the round's seed."""
    seed = campaign_seed(run.seed, rnd)
    names = tuple(spec["truth"])
    outs = {}
    for i, camp in enumerate(spec["campaigns"]):
        kind, workers, R = camp["config"]["kind"], camp["workers"], camp["reps"]
        op = f"campaign:{kind}:w{workers}"
        if workers == 1:
            run.reps[op] = R
        out_dir = run.out / f"round{rnd}-{i}"
        code, cli_span = run_cli_campaign(run, camp, seed, out_dir, op)
        if code != 0:
            run.record(op, R, R, f"cli exit {code}")
            continue
        rows = read_estimates(out_dir, names)
        bad = {rep for rep in range(1, R + 1) if rep not in rows
               or rows[rep]["flags"] or len(rows[rep]["params"]) != len(names)}
        run.record(op, R, len(bad), "flagged or missing fits" if bad else None,
                   flags=sorted({rows[rep]["flags"] for rep in bad if rep in rows}))
        outs[workers] = out_dir
        if workers == 1:
            pools.setdefault(kind, []).extend(
                r["params"] for rep, r in sorted(rows.items()) if rep not in bad)
            if replay:
                (campaign_span,) = run.tracer.children(cli_span, "harness.run_campaign")
                replay_campaign(run, camp, seed, rows, campaign_span["id"])
    if 1 in outs and 2 in outs:
        run.check("workers_identical", dirs_identical(outs[1], outs[2]),
                  f"round {rnd}: workers=1 and workers=2 outputs byte-identical")
    for i in range(len(spec["campaigns"])):
        shutil.rmtree(run.out / f"round{rnd}-{i}", ignore_errors=True)


def replay_campaign(run, camp, seed, rows, campaign_id):
    """Re-run the campaign's replications step by step under child spans."""
    tr = run.tracer
    exp = harness.ExperimentConfig.from_json(camp["config"], K=camp["K"], R=camp["reps"])
    kind, family = exp.kind, exp.family
    mismatched = 0
    with tr.span("replay", campaign=campaign_id):
        for rep in range(1, camp["reps"] + 1):
            with tr.span("replay.rep"):
                with tr.span("harness.mix_seed"):
                    rng = np.random.default_rng(harness.mix_seed(seed, rep))
                with tr.span("simulate.simulate_trace", edge_steps=exp.model.n * exp.K):
                    trace = simulate.simulate_trace(exp.model, exp.K, rng, kind=kind)
                try:
                    with tr.span("moments.empirical_moments"):
                        moms = moments.empirical_moments(trace, moments.moments_needed(family))
                    with tr.span("moments.estimate"):
                        if kind == "edges":
                            report = moments.estimator_for(family)(moms)
                        else:
                            report = moments.estimate_from_subgraph(moms)
                    flags, params = list(report.flags), dict(report.params)
                except Exception as exc:  # noqa: BLE001 - the harness flags it the same way
                    flags, params = [f"error:{type(exc).__name__}:{exc}"], {}
            tr.count("moments.fits")
            for flag in flags:
                tr.count("moments.flag:" + ":".join(flag.split(":")[:2]))
            logged = rows.get(rep, {"flags": None, "params": {}})
            same = (logged["flags"] == ";".join(flags)
                    and logged["params"] == {k: float(v) for k, v in params.items()})
            mismatched += not same
    run.check("replay_matches_campaign", mismatched == 0,
              f"{kind}: {mismatched} of {camp['reps']} replayed fits differ from estimates.csv")


def mean_checks(run, spec, pools):
    """Pooled campaign means within 4 SE of the true parameters."""
    for kind, pool in sorted(pools.items()):
        sample = pool[:POOL]
        for name, truth in spec["truth"].items():
            vals = np.array([p[name] for p in sample])
            if len(vals) < 2:
                run.check(f"mean:{kind}:{name}", False, f"only {len(vals)} fits to pool")
                continue
            se = vals.std(ddof=1) / math.sqrt(len(vals))
            crit = stats.t.isf(MEAN_CHECK_TAIL / 2, len(vals) - 1)
            z = abs(vals.mean() - truth) / se if se > 0 else math.inf
            run.check(f"mean:{kind}:{name}", z <= crit,
                      f"mean {vals.mean():.5f} vs {truth} over {len(vals)} fits: "
                      f"|z|={z:.2f} (<= {crit:.2f}: 4 SE as a t tail)")


def campaign_workload(run, deadline):
    """Rounds until the deadline; round 0 warms caches and lazy imports and is not timed.

    A traced run alternates untraced and traced rounds, so both walls come
    from the same process and their difference is the tracing overhead.
    """
    spec = W.CAMPAIGNS[run.name]
    pools = {}
    rnd = 0
    while True:
        traced = run.tracer is not None and rnd % 2 == 1
        run.round = {}
        with run.traced(traced):
            campaign_round(run, spec, rnd, pools, replay=traced)
        if rnd > 0:
            (run.traced_rounds if traced else run.rounds).append(run.round)
        run.round = None
        rnd += 1
        if time.perf_counter() >= deadline and run.rounds and (
                run.tracer is None or run.traced_rounds):
            break
    mean_checks(run, spec, pools)


# ---------------------------------------------------------------------------
# Analytics workload
# ---------------------------------------------------------------------------


def analytics_inputs(seed, rnd):
    """Count vectors for the two saddlepoint calls, drawn without the package simulator.

    Each pass draws its own: the saddlepoint's cost varies by about 15% between
    count vectors, and the median over a run's passes averages that out.
    """
    rng = np.random.default_rng([seed, rnd])
    gg, pg = W.ANALYTICS["gg"], W.ANALYTICS["pareto_geo"]
    c_gg = oracle.gg_counts(gg["n"], gg["on"]["p"], gg["off"]["p"], W.SADDLE_EPOCHS, rng)
    c_pg = oracle.renewal_counts(pg["on"], pg["off"], pg["n"], W.SADDLE_EPOCHS, rng)
    return c_gg, c_pg


def analytic_pass(run, models, rnd, gg_only=False):
    """The analytic calls of one pass, each timed, and their output checks.

    gg_only keeps the geometric calls: the probe that campaign workloads run
    for the renewal and asymp layers.
    """
    gg_cfg = W.ANALYTICS["gg"]
    n, p, q = gg_cfg["n"], gg_cfg["on"]["p"], gg_cfg["off"]["p"]
    gg, heavy_model, pg = models["gg"], models["heavy_cov"], models["pareto_geo"]
    c_gg, c_pg = analytics_inputs(run.seed, rnd)
    heavy = sp_pg = None
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", asymp.DivergenceWarning)
        if not gg_only:
            heavy = run.call("asymp.general_moment_cov", asymp.general_moment_cov, heavy_model,
                             heavy_model.n, k_cap=W.ANALYTICS_K_CAP, label="cov:heavy",
                             span={"model": "heavy_cov"})
        general = run.call("asymp.general_moment_cov", asymp.general_moment_cov, gg, n,
                           label="cov:gg", span={"model": "gg"})
    closed = run.call("asymp.geometric_moment_cov", asymp.geometric_moment_cov, n, p, q)
    with run.instrument(renewal, "legendre_transform", "renewal.legendre_transform"):
        sp_gg = run.call("renewal.saddlepoint_logprob", renewal.saddlepoint_logprob, gg, c_gg, n,
                         label="saddle:gg")
        if not gg_only:
            sp_pg = run.call("renewal.saddlepoint_logprob", renewal.saddlepoint_logprob,
                             pg, c_pg, pg.n, label="saddle:pareto_geo")
    joint = run.call("renewal.joint_distribution", renewal.joint_distribution,
                     gg, list(range(1, W.JOINT_EPOCHS + 1)))

    tr = run.tracer
    if tr:
        for mc in (heavy, general):
            if mc is not None:
                tr.count("asymp.converged" if mc.converged else "asymp.unconverged")
                tr.counts["asymp.k_used"] = max(tr.counts["asymp.k_used"], mc.k_used)
        # renewal tables at the final size general_moment_cov reached
        table = (heavy_model, heavy) if heavy is not None else (gg, general)
        if table[1] is not None:
            with tr.span("renewal.autocovariance"):
                renewal.autocovariance(table[0], table[1].k_used + 1)
    if heavy is not None:
        finite = all(math.isfinite(v) for v in (heavy.v0, heavy.v1, heavy.c01))
        run.check("heavy_cov_finite", finite and heavy.v0 > 0,
                  f"v0={heavy.v0:.6g} v1={heavy.v1:.6g} c01={heavy.c01:.6g} "
                  f"k_used={heavy.k_used} converged={heavy.converged}")
    if general is not None and closed is not None:
        # criterion 5's tolerances
        ok = (abs(general.v0 - closed.v0) <= 1e-10
              and abs(general.v1 - closed.v1) <= 1e-6 * abs(closed.v1)
              and abs(general.c01 - closed.c01) <= 1e-6 * abs(closed.c01))
        run.check("gg_cov_cross", ok,
                  f"general - closed form: v0 {general.v0 - closed.v0:.3g}, "
                  f"v1 rel {(general.v1 - closed.v1) / closed.v1:.3g}, "
                  f"c01 rel {(general.c01 - closed.c01) / closed.c01:.3g}")
    if sp_gg is not None:
        exact = oracle.gg_count_logprob(n, p, q, c_gg)
        run.check("gg_saddle_exact", abs(sp_gg - exact) <= SADDLE_TOL,
                  f"saddlepoint {sp_gg:.5f} vs exact {exact:.5f} (tol {SADDLE_TOL})")
    if sp_pg is not None:
        run.check("pg_saddle_finite", math.isfinite(sp_pg) and sp_pg < 0,
                  f"saddlepoint log-probability {sp_pg:.5f}")
    if joint is not None:
        err = float(np.max(np.abs(joint - oracle.gg_pattern_law(p, q, W.JOINT_EPOCHS))))
        total = float(joint.sum())
        run.check("gg_joint_markov",
                  abs(total - 1.0) <= 1e-10 and err <= 1e-10 and joint.min() >= 0.0,
                  f"sum - 1 = {total - 1.0:.3g}, max |joint - Markov| = {err:.3g}")


def analytics_workload(run, deadline):
    """Analytic passes until the deadline, alternating untraced and traced ones in a traced run."""
    models = W.set_up("analytics")
    rnd = 0
    while True:
        traced = run.tracer is not None and rnd % 2 == 1
        run.round = {}
        with run.traced(traced), run.span("analytics.pass"):
            analytic_pass(run, models, rnd)
        (run.traced_rounds if traced else run.rounds).append(run.round)
        run.round = None
        rnd += 1
        if time.perf_counter() >= deadline and (run.tracer is None or run.traced_rounds):
            break


# ---------------------------------------------------------------------------
# Layer probes for the traced run
# ---------------------------------------------------------------------------


def _per_call_us(fn, repeats=5, batch_s=0.01):
    """Median µs per call over batches sized to take about batch_s each."""
    batch = 1
    while True:
        t0 = time.perf_counter()
        for _ in range(batch):
            fn()
        if time.perf_counter() - t0 >= batch_s or batch >= 1 << 16:
            break
        batch *= 2
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        for _ in range(batch):
            fn()
        times.append((time.perf_counter() - t0) / batch)
    return 1e6 * oracle.median(times)


def layer_laws(run):
    """The workload's duration laws and trace length, for the laws and graph probes."""
    if run.name == "analytics":
        cfg, K = W.ANALYTICS["heavy_cov"], REF_CAMPAIGN["K"]
    else:
        camp = W.CAMPAIGNS[run.name]["campaigns"][0]
        cfg, K = camp["config"], camp["K"]
    return laws.law_from_config(cfg["on"]), laws.law_from_config(cfg["off"]), K


def laws_probe(run):
    on, off, K = layer_laws(run)
    rng = np.random.default_rng([run.seed, 1])
    m = max(8, int(1.4 * K / (on.mean() + off.mean())) + 2)  # the simulator's batch size
    u = 1.0 - rng.random(m)
    u1 = 1.0 - rng.random()
    return {
        "laws.sample_us": _med([_per_call_us(lambda: law.sample(u)) for law in (on, off)]),
        "laws.residual_sample_us": _med(
            [_per_call_us(lambda: law.residual().sample(u1)) for law in (on, off)]),
        "laws.mean_us": _med([_per_call_us(law.mean) for law in (on, off)]),
        # the pareto_pareto fit inverts zeta at the on-law mean
        "laws.invert_us": _per_call_us(lambda: laws.invert_zeta_like(on.mean())),
    }


def graph_probe(run, repeats=2):
    """edge_indicator_matrix, then both count functions on that one matrix."""
    tr = run.tracer
    if run.name == "graph_wide":
        camp = W.CAMPAIGNS["graph_wide"]["campaigns"][0]
        model, K = simulate.ModelSpec.from_config(camp["config"]), camp["K"]
    else:
        on, off, K = layer_laws(run)
        model = simulate.ModelSpec(on_law=on, off_law=off, N=REF_GRAPH_N)
    for i in range(repeats):
        rng = np.random.default_rng([run.seed, 2, i])
        with tr.span("simulate.edge_indicator_matrix"):
            mat = simulate.edge_indicator_matrix(model, K, rng)
        with tr.span("simulate.triangle_counts"):
            simulate.triangle_counts(mat, model.N)
        with tr.span("simulate.wedge_counts"):
            simulate.wedge_counts(mat, model.N)


def probes(run):
    """Cover the layers the workload's own rounds do not reach; returns the laws metrics."""
    metrics = laws_probe(run)
    graph_probe(run)
    if run.name == "analytics":
        ref = {"campaigns": [{**REF_CAMPAIGN, "workers": 1}, {**REF_CAMPAIGN, "workers": 2}],
               "truth": {"p": 0.3, "q": 0.8}}
        campaign_round(run, ref, 0, {}, replay=True)
    else:
        analytic_pass(run, W.set_up("analytics"), 0, gg_only=True)
        camps = W.CAMPAIGNS[run.name]["campaigns"]
        if all(c["workers"] == 1 for c in camps):
            spec = {"campaigns": [{**camps[0], "workers": 2}], "truth": {}}
            campaign_round(run, spec, 0, {}, replay=False)
    rng = np.random.default_rng([run.seed, 3])
    gg = simulate.ModelSpec.from_config(W.ANALYTICS["gg"])
    for _ in range(MGF_PROBE_CALLS):
        theta = 0.1 * rng.standard_normal(W.SADDLE_EPOCHS)
        with run.tracer.span("renewal.joint_mgf"):
            renewal.joint_mgf(gg, theta)
    return metrics


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------


def end_to_end(run):
    """wall_s is one round at each operation's calibrated median; reps_per_s counts the
    workers=1 replications per second of their campaigns (analytics: passes per second)."""
    ops = per_operation(run.rounds)
    wall = sum(ops.values())
    rep_ops = [op for op in ops if op in run.reps]
    rate = (sum(run.reps[op] for op in rep_ops) / sum(ops[op] for op in rep_ops)
            if rep_ops else 1.0 / wall)
    return {
        "wall_s": wall,
        "reps_per_s": rate,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def per_layer(run, law_metrics):
    tr = run.tracer
    spans = tr.spans
    by_id = {s["id"]: s for s in spans}

    def named(name, **attrs):
        return [s for s in spans if s["name"] == name
                and all(s.get(k) == v for k, v in attrs.items())]

    def under_cli(workers):
        return [tr.duration(s) for s in named("harness.run_campaign")
                if by_id[s["parent"]].get("workers") == workers]

    sims = named("simulate.simulate_trace")
    sim_s = [tr.duration(s) for s in sims]
    p90 = oracle.tail_percentile(sim_s, 90)
    overhead = [tr.duration(by_id[s["campaign"]])
                - sum(tr.duration(c) for c in tr.children(s, "replay.rep"))
                for s in named("replay")]
    saddles = named("renewal.saddlepoint_logprob")
    saddle_s = sum(tr.duration(s) for s in saddles)
    legendre_s = sum(tr.duration(c) for s in saddles
                     for c in tr.children(s, "renewal.legendre_transform"))
    passes = max(1, len(named("analytics.pass")))
    general = named("asymp.general_moment_cov",
                    model="heavy_cov" if run.name == "analytics" else "gg")
    metrics = {
        **law_metrics,
        "simulate.trace_p50_s": _med(sim_s),
        # with fewer than 10 samples beyond the p90, the sample maximum bounds it
        "simulate.trace_p90_s": p90 if p90 is not None else max(sim_s),
        "simulate.edge_steps_per_s": sum(s["edge_steps"] for s in sims) / sum(sim_s),
        "simulate.matrix_s": _med(tr.durations("simulate.edge_indicator_matrix")),
        "simulate.triangles_s": _med(tr.durations("simulate.triangle_counts")),
        "simulate.wedges_s": _med(tr.durations("simulate.wedge_counts")),
        "moments.empirical_s": _med(tr.durations("moments.empirical_moments")),
        "moments.estimate_s": _med(tr.durations("moments.estimate")),
        "moments.flagged": sum(v for k, v in tr.counts.items() if k.startswith("moments.flag:")),
        "harness.campaign_s": _med(under_cli(1)),
        "harness.campaign_2w_s": _med(under_cli(2)),
        "harness.emit_s": _med(tr.durations("harness.emit_outputs")),
        "harness.overhead_s": _med(overhead),
        "cli.overhead_s": _med([tr.self_time(s, {"harness.run_campaign", "harness.emit_outputs"})
                                for s in named("cli.main")]),
        "renewal.mgf_s": _med(tr.durations("renewal.joint_mgf")),
        "renewal.saddle_s": saddle_s / passes,
        "renewal.legendre_s": legendre_s / passes,
        "renewal.hessian_s": (saddle_s - legendre_s) / passes,
        "renewal.joint_s": _med(tr.durations("renewal.joint_distribution")),
        "renewal.autocov_s": _med(tr.durations("renewal.autocovariance")),
        "asymp.general_cov_s": _med([tr.duration(s) for s in general]),
        "asymp.closed_form_s": _med(tr.durations("asymp.geometric_moment_cov")),
        "asymp.k_used": tr.counts["asymp.k_used"],
        "asymp.converged": tr.counts["asymp.converged"],
        "asymp.unconverged": tr.counts["asymp.unconverged"],
        "trace.overhead_s": (sum(per_operation(run.traced_rounds).values())
                             - sum(per_operation(run.rounds).values())),
    }
    notes = {"simulate.trace_p90_s": {"samples": len(sim_s),
                                      "basis": "p90" if p90 is not None else "max"},
             "counts": dict(tr.counts)}
    return metrics, notes


def main(argv=None):
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=W.NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)
    run = Run(args)
    deadline = time.perf_counter() + args.seconds
    if run.name == "analytics":
        analytics_workload(run, deadline)
    else:
        campaign_workload(run, deadline)
    final = {"final": True, "package": str(Path(onoffgraph.__file__).resolve().parent),
             "numpy": np.__version__, "scipy": scipy.__version__,
             "end_to_end": end_to_end(run), "operations": per_operation(run.rounds),
             "rounds": run.rounds}
    if run.tracer:
        law_metrics = probes(run)
        final["per_layer"], final["notes"] = per_layer(run, law_metrics)
        (run.out / "trace.json").write_text(json.dumps(
            {"spans": run.tracer.spans, "counts": dict(run.tracer.counts)}))
    final.update(attempted=run.attempted, failed=run.failed, reasons=run.reasons,
                 checks=run.checks)
    run.records.write(json.dumps(final) + "\n")
    run.records.close()
    return 0


if __name__ == "__main__":
    sys.exit(main())
