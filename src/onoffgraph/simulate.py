"""Stationary simulation of the dynamic graph and aggregate count traces.

Each edge alternates between on-periods (iid copies of the on-time law) and
off-periods (iid copies of the off-time law). The process starts in its
stationary version: at time 1 an edge is on with probability rho and the
elapsed phase carries the residual duration law.

Durations count inclusive time steps: a duration d drawn at time k keeps the
phase for observations k, ..., k+d-1, so consecutive on-observations at lag 1
occur with probability 1 - fbar_1.
"""

from __future__ import annotations

import csv
import itertools
import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import InfiniteMeanError, TraceMismatchError
from .laws import DurationLaw, ResidualLaw, law_from_config


@dataclass(frozen=True)
class ModelSpec:
    """On/off laws plus the edge count n (or vertex count N with n = N(N-1)/2)."""

    on_law: DurationLaw
    off_law: DurationLaw
    n: int | None = None
    N: int | None = None

    def __post_init__(self):
        if self.N is not None:
            n = self.N * (self.N - 1) // 2
            if self.n is not None and self.n != n:
                raise ValueError(f"n={self.n} inconsistent with N={self.N}")
            object.__setattr__(self, "n", n)
        if self.n is None or self.n < 1:
            raise ValueError("need a positive edge count n or a vertex count N")

    @property
    def rho(self) -> float:
        """Stationary on-probability E[X] / (E[X] + E[Y])."""
        try:
            ex = self.on_law.mean()
            ey = self.off_law.mean()
        except InfiniteMeanError as exc:
            raise InfiniteMeanError(f"stationary law undefined: {exc}") from exc
        return ex / (ex + ey)

    def residuals(self) -> tuple[ResidualLaw, ResidualLaw]:
        return self.on_law.residual(), self.off_law.residual()

    def to_config(self) -> dict:
        cfg = {"on": self.on_law.to_config(), "off": self.off_law.to_config()}
        if self.N is not None:
            cfg["N"] = self.N
        else:
            cfg["n"] = self.n
        return cfg

    @classmethod
    def from_config(cls, cfg: dict) -> "ModelSpec":
        return cls(
            on_law=law_from_config(cfg["on"]),
            off_law=law_from_config(cfg["off"]),
            n=cfg.get("n"),
            N=cfg.get("N"),
        )


@dataclass
class CountTrace:
    kind: str  # edges | triangles | wedges
    values: np.ndarray
    n: int
    N: int | None = None
    seed: int | None = None
    model_config: dict | None = None

    @property
    def K(self) -> int:
        return len(self.values)


def stationary_init(model: ModelSpec, rng, residuals=None):
    """Draw the stationary state of all edges: (on, remaining) arrays.

    Each edge is on with probability rho independently; the remaining time in
    the current phase comes from the matching residual law.
    """
    res_on, res_off = residuals if residuals is not None else model.residuals()
    rho = model.rho
    n = model.n
    on = rng.random(n) < rho
    remaining = np.empty(n, dtype=np.int64)
    u = 1.0 - rng.random(n)
    if on.any():
        remaining[on] = res_on.sample(u[on])
    if (~on).any():
        remaining[~on] = res_off.sample(u[~on])
    return on, remaining


def _edge_indicator(model, K, rng, res_on, res_off, init=None):
    """Boolean on/off path of a single edge over times 1..K."""
    if init is None:
        on0 = bool(rng.random() < model.rho)
        d0 = int((res_on if on0 else res_off).sample(1.0 - rng.random()))
    else:
        on0, d0 = init
    durations = [np.array([d0], dtype=np.int64)]
    total = d0
    cycle = model.on_law.mean() + model.off_law.mean()
    next_on = not on0  # phase of the first fresh duration after the residual
    while total < K:
        m = max(8, int(1.4 * (K - total) / cycle) + 2)
        dx = model.on_law.sample(1.0 - rng.random(m))
        dy = model.off_law.sample(1.0 - rng.random(m))
        pair = np.empty(2 * m, dtype=np.int64)
        if next_on:
            pair[0::2], pair[1::2] = dx, dy
        else:
            pair[0::2], pair[1::2] = dy, dx
        durations.append(pair)
        total += int(pair.sum())
    durs = np.concatenate(durations)
    phases = np.empty(len(durs), dtype=bool)
    phases[0::2] = on0
    phases[1::2] = not on0
    return np.repeat(phases, durs)[:K]


def simulate_edge_trace(model: ModelSpec, K: int, rng, init=None) -> CountTrace:
    """Aggregate edge count A_n(k) for k = 1..K.

    `init` optionally fixes the initial per-edge states as a list of
    (on, remaining) pairs, mainly for deterministic tests.
    """
    if K < 1:
        raise ValueError("K must be >= 1")
    res_on, res_off = model.residuals()
    values = np.zeros(K, dtype=np.int64)
    for j in range(model.n):
        ind = _edge_indicator(
            model, K, rng, res_on, res_off, init=None if init is None else init[j]
        )
        values += ind
    return CountTrace(kind="edges", values=values, n=model.n, N=model.N,
                      model_config=model.to_config())


def edge_indicator_matrix(model: ModelSpec, K: int, rng) -> np.ndarray:
    """n x K boolean matrix of per-edge indicators (edges in combination order)."""
    res_on, res_off = model.residuals()
    mat = np.empty((model.n, K), dtype=bool)
    for j in range(model.n):
        mat[j] = _edge_indicator(model, K, rng, res_on, res_off)
    return mat


def triangle_counts(edge_mat: np.ndarray, N: int) -> np.ndarray:
    """Triangle count per time step from an n x K edge indicator matrix."""
    index = {pair: i for i, pair in enumerate(itertools.combinations(range(N), 2))}
    K = edge_mat.shape[1]
    out = np.zeros(K, dtype=np.int64)
    for a, b, c in itertools.combinations(range(N), 3):
        out += edge_mat[index[(a, b)]] & edge_mat[index[(a, c)]] & edge_mat[index[(b, c)]]
    return out


def wedge_counts(edge_mat: np.ndarray, N: int) -> np.ndarray:
    """Wedge count per time step: sum over vertices of C(degree, 2)."""
    inc = np.zeros((N, edge_mat.shape[0]), dtype=np.int64)
    for i, (a, b) in enumerate(itertools.combinations(range(N), 2)):
        inc[a, i] = 1
        inc[b, i] = 1
    deg = inc @ edge_mat.astype(np.int64)
    return (deg * (deg - 1) // 2).sum(axis=0)


def simulate_graph_trace(model: ModelSpec, K: int, rng, kind: str) -> CountTrace:
    """Triangle or wedge count trace for a model specified by vertex count N."""
    if model.N is None or model.N < 3:
        raise ValueError("graph traces need a vertex count N >= 3")
    if kind not in ("triangles", "wedges"):
        raise ValueError(f"unknown graph observable {kind!r}")
    mat = edge_indicator_matrix(model, K, rng)
    counter = triangle_counts if kind == "triangles" else wedge_counts
    values = counter(mat, model.N)
    return CountTrace(kind=kind, values=values, n=model.n, N=model.N,
                      model_config=model.to_config())


def simulate_trace(model: ModelSpec, K: int, rng, kind: str = "edges") -> CountTrace:
    if kind == "edges":
        return simulate_edge_trace(model, K, rng)
    return simulate_graph_trace(model, K, rng, kind)


# ---------------------------------------------------------------------------
# Trace persistence: CSV (`k,value`) plus a JSON metadata sidecar
# ---------------------------------------------------------------------------


def sidecar_path(csv_path) -> Path:
    return Path(str(csv_path) + ".meta.json")


def save_trace(trace: CountTrace, csv_path) -> None:
    csv_path = Path(csv_path)
    with csv_path.open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["k", "value"])
        for k, v in enumerate(trace.values, start=1):
            writer.writerow([k, int(v)])
    meta = {
        "kind": trace.kind,
        "n": trace.n,
        "N": trace.N,
        "K": trace.K,
        "seed": trace.seed,
        "model": trace.model_config,
    }
    sidecar_path(csv_path).write_text(json.dumps(meta, indent=2, sort_keys=True) + "\n")


def load_trace(csv_path, n: int | None = None, N: int | None = None) -> CountTrace:
    """Read a trace; the caller's n must match the sidecar, or stand in for it."""
    csv_path = Path(csv_path)
    with csv_path.open() as fh:
        reader = csv.reader(fh)
        header = next(reader)
        if header[:2] != ["k", "value"]:
            raise ValueError(f"{csv_path}: expected header 'k,value'")
        values = np.array([int(row[1]) for row in reader], dtype=np.int64)
    meta_file = sidecar_path(csv_path)
    meta = json.loads(meta_file.read_text()) if meta_file.exists() else {}
    if n is not None and meta.get("n") not in (None, n):
        raise TraceMismatchError(f"{meta_file} records n={meta['n']}, but the model has n={n}")
    n = meta.get("n") or n
    if n is None:
        raise ValueError(f"{csv_path}: no sidecar {meta_file.name}; the edge count n is needed")
    return CountTrace(
        kind=meta.get("kind", "edges"),
        values=values,
        n=n,
        N=meta.get("N") or N,
        seed=meta.get("seed"),
        model_config=meta.get("model"),
    )
