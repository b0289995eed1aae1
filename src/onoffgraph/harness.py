"""Monte Carlo replication campaigns and their file outputs.

A campaign simulates R independent traces, runs the configured estimator on
each, and writes per-replication estimates plus histogram/QQ summary data.
Replication r uses a seed derived from the base seed by a fixed SplitMix64
finalizer, and results are gathered in replication order, so every output
byte is determined by (config, base seed) alone — independent of worker
count or scheduling.
"""

from __future__ import annotations

import json
import multiprocessing
import os
import traceback
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import scipy

from .asymp import param_cov
from .errors import COMPUTE_ERRORS, ParameterError
from .moments import family_entry, fit, infer_family
from .simulate import ModelSpec, simulate_trace, whole_number, write_csv

_MASK64 = (1 << 64) - 1
_MIN_BINS = 10  # fewest histogram bins
# config key -> ExperimentConfig field; an absent key keeps the field's default
_CONFIG_FIELDS = {"kind": "kind", "K": "K", "reps": "R", "seed": "base_seed",
                  "family": "family", "workers": "workers"}


def mix_seed(base_seed: int, rep: int) -> int:
    """Derive the replication seed: SplitMix64 finalizer over a spread index.

    The replication index is spread by the golden-ratio constant before the
    xor so that nearby indices land in distant states.
    """
    z = (base_seed ^ (rep * 0x9E3779B97F4A7C15)) & _MASK64
    z = (z + 0x9E3779B97F4A7C15) & _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31)


@dataclass
class ExperimentConfig:
    """Everything needed to reproduce one campaign."""

    model: ModelSpec
    kind: str = "edges"  # edges | triangles | wedges
    K: int = 10_000
    R: int = 100
    base_seed: int = 0
    family: str | None = None
    workers: int = 1

    def __post_init__(self):
        self.K = whole_number("K", self.K)
        self.R = whole_number("reps", self.R)
        self.base_seed = whole_number("seed", self.base_seed)
        if self.base_seed > _MASK64:  # mix_seed keeps 64 bits: 2^64 would replay seed 0
            raise ParameterError(f"seed must be below 2^64, got {self.base_seed}")
        self.workers = whole_number("workers", self.workers) or 1
        if self.R < 1:
            raise ValueError("need R >= 1")
        if self.K < 2:
            raise ValueError("need K >= 2")
        if self.family is None:
            self.family = infer_family(self.model)
        family_entry(self.family, self.kind)  # refuses an observable it cannot fit

    @property
    def param_names(self) -> tuple:
        return family_entry(self.family).params

    def to_json(self) -> dict:
        cfg = self.model.to_config()
        cfg.update({"kind": self.kind, "K": self.K, "reps": self.R,
                    "seed": self.base_seed, "family": self.family})
        return cfg

    @classmethod
    def from_json(cls, cfg: dict, **overrides) -> "ExperimentConfig":
        model = ModelSpec.from_config(cfg)
        kwargs = {field: cfg[key] for key, field in _CONFIG_FIELDS.items() if key in cfg}
        kwargs.update({k: v for k, v in overrides.items() if v is not None})
        return cls(model=model, **kwargs)


@dataclass
class CampaignSummary:
    config: ExperimentConfig
    rows: list  # one dict per replication: rep, seed, params or None, flags
    means: dict
    sds: dict
    predicted_sds: dict
    histograms: dict  # param -> (edges, counts)
    qq: dict  # param -> (theoretical, sample) standardized quantiles
    n_flagged: int

    def to_json(self) -> dict:
        return {
            "config": self.config.to_json(),
            "R": self.config.R,
            "n_flagged": self.n_flagged,
            "params": {
                name: {
                    "mean": self.means[name],
                    "sd": self.sds[name],
                    "predicted_sd": self.predicted_sds.get(name),
                }
                for name in self.config.param_names
            },
        }


def _run_replication(args):
    """One simulate-and-estimate unit."""
    cfg, rep = args
    seed = mix_seed(cfg.base_seed, rep)
    rng = np.random.default_rng(seed)
    trace = simulate_trace(cfg.model, cfg.K, rng, kind=cfg.kind)
    row = {"rep": rep, "seed": seed, "params": None, "flags": []}
    try:
        report = fit(trace, cfg.family)
        row["params"] = {k: float(v) for k, v in report.params.items()}
        row["flags"] = list(report.flags)
    except COMPUTE_ERRORS as exc:  # flagged, never aborts the campaign
        row["flags"] = [f"error:{type(exc).__name__}:{exc}"]
    return rep, row


def _child(tasks, conn):
    """A child's entry point, module-level so that spawn can pickle it: send its
    batch's rows, or the error that stopped it."""
    try:
        conn.send(([_run_replication(task) for task in tasks], None))
    except Exception as exc:  # re-raised by the caller, this traceback as its cause
        conn.send((exc, traceback.format_exc()))


def _receive(proc, conn):
    """The rows a child sends; its error, or its exit without an answer, raises here."""
    try:
        result, child_tb = conn.recv()
    except EOFError:
        proc.join()
        raise RuntimeError(f"campaign worker {proc.pid} exited with code {proc.exitcode} "
                           "before sending its rows") from None
    if child_tb is not None:
        raise result from RuntimeError(f"in campaign worker {proc.pid}:\n{child_tb}")
    return result


def run_campaign(cfg: ExperimentConfig) -> CampaignSummary:
    """Run all replications and aggregate; output is scheduling-independent.

    Work is split over min(`workers`, R, CPUs this process may run on)
    processes: this one runs replications 1, 1 + w, 1 + 2w, ..., and each of
    the w - 1 children the next stride, returning its rows over a pipe. A
    child's error, or its exit before it answers, raises here; no child
    outlives the call.
    """
    tasks = [(cfg, rep) for rep in range(1, cfg.R + 1)]
    cpus = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
            else os.cpu_count() or 1)
    workers = min(cfg.workers, cfg.R, cpus)
    children = []
    try:
        for w in range(1, workers):
            recv, send = multiprocessing.Pipe(duplex=False)
            with send:  # the child holds the one write end, so its exit reads as EOF
                proc = multiprocessing.Process(target=_child, args=(tasks[w::workers], send))
                proc.start()
            children.append((proc, recv))
        results = [_run_replication(task) for task in tasks[::workers]]
        for proc, recv in children:
            results += _receive(proc, recv)
    except BaseException:
        for proc, _ in children:
            proc.terminate()
        raise
    finally:
        for proc, recv in children:
            recv.close()
            proc.join()
    results.sort(key=lambda item: item[0])
    rows = [row for _, row in results]

    names = cfg.param_names
    good = [r["params"] for r in rows if r["params"] is not None and not r["flags"]]
    n_flagged = cfg.R - len(good)
    means, sds, hists, qq = {}, {}, {}, {}
    for name in names:
        vals = np.array([g[name] for g in good])
        means[name] = float(vals.mean()) if len(vals) else None
        sds[name] = float(vals.std(ddof=1)) if len(vals) > 1 else None
        hists[name] = _histogram(vals)
        qq[name] = _qq_pairs(vals)
    predicted = _predicted_sds(cfg, means)
    return CampaignSummary(config=cfg, rows=rows, means=means, sds=sds,
                           predicted_sds=predicted, histograms=hists, qq=qq,
                           n_flagged=n_flagged)


def _predicted_sds(cfg, means):
    """Delta-method sds at the mean estimates, for edge campaigns that param_cov covers."""
    entry = family_entry(cfg.family)
    vals = [means.get(name) for name in entry.params]
    if cfg.kind != "edges" or None in vals:
        return {}
    try:
        pc = param_cov(entry.model_of(vals, cfg.model.n))
    except ParameterError:  # the mean estimates lie outside the family's domain
        pc = None
    return {} if pc is None else pc.sd(cfg.K)


def _histogram(vals):
    """Freedman-Diaconis bins widened to at least _MIN_BINS."""
    if len(vals) == 0:
        return np.array([]), np.array([])
    if len(vals) == 1 or np.ptp(vals) == 0.0:
        edges = np.linspace(vals[0] - 0.5, vals[0] + 0.5, _MIN_BINS + 1)
    else:
        edges = np.histogram_bin_edges(vals, bins="fd")
        if len(edges) - 1 < _MIN_BINS:
            edges = np.linspace(edges[0], edges[-1], _MIN_BINS + 1)
    counts, _ = np.histogram(vals, bins=edges)
    return edges, counts


def _qq_pairs(vals):
    """Standardized order statistics against normal quantiles."""
    R = len(vals)
    if R < 2:
        return np.array([]), np.array([])
    sd = vals.std(ddof=1)
    if sd == 0.0:
        return np.array([]), np.array([])
    sample = np.sort((vals - vals.mean()) / sd)
    theo = scipy.special.ndtri((np.arange(1, R + 1) - 0.5) / R)
    return theo, sample


# ---------------------------------------------------------------------------
# File emission
# ---------------------------------------------------------------------------


def emit_outputs(summary: CampaignSummary, out_dir) -> list:
    """Write estimates.csv, summary.json, and per-parameter hist/QQ CSVs."""
    out = Path(out_dir)
    try:
        out.mkdir(parents=True, exist_ok=True)
        written = []
        names = summary.config.param_names

        path = out / "estimates.csv"
        write_csv(path, ["rep", "seed", *names, "flags"], (
            [row["rep"], row["seed"], *(repr(row["params"][n]) if row["params"] else ""
                                        for n in names), ";".join(row["flags"])]
            for row in summary.rows))
        written.append(path)

        path = out / "summary.json"
        path.write_text(json.dumps(summary.to_json(), indent=2, sort_keys=True) + "\n")
        written.append(path)

        for name in names:
            edges, counts = summary.histograms[name]
            path = out / f"hist_{name}.csv"
            write_csv(path, ["bin_left", "bin_right", "count"],
                      ([repr(float(left)), repr(float(right)), int(count)]
                       for left, right, count in zip(edges[:-1], edges[1:], counts)))
            written.append(path)

            theo, sample = summary.qq[name]
            path = out / f"qq_{name}.csv"
            write_csv(path, ["theoretical_quantile", "sample_quantile"],
                      ([repr(float(t)), repr(float(s))] for t, s in zip(theo, sample)))
            written.append(path)
        return written
    except OSError as exc:
        raise OSError(f"writing campaign outputs under {out}: {exc}") from exc
