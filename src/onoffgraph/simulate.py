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
import json
import math
import numbers
import warnings
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import InfiniteMeanError, ParameterError, TraceMismatchError
from .laws import DurationLaw, law_from_config


def whole_number(name, v) -> int:
    """v as an int; bools, fractions, negatives and non-numbers are refused."""
    if isinstance(v, bool) or not isinstance(v, numbers.Real) or v % 1 or v < 0:
        raise ParameterError(f"{name} must be a whole number >= 0, got {v!r}")
    return int(v)


@dataclass(frozen=True)
class ModelSpec:
    """On/off laws plus the edge count n (or vertex count N with n = N(N-1)/2)."""

    on_law: DurationLaw
    off_law: DurationLaw
    n: int | None = None
    N: int | None = None

    def __post_init__(self):
        for name in ("n", "N"):
            v = getattr(self, name)
            if v is not None:
                object.__setattr__(self, name, whole_number(name, v))
        if self.N is not None:
            n = self.N * (self.N - 1) // 2
            if self.n is not None and self.n != n:
                raise ValueError(f"n={self.n} inconsistent with N={self.N}")
            object.__setattr__(self, "n", n)
        if self.n is None or self.n < 1:
            raise ValueError("need a positive edge count n or a vertex count N")
        if self.n >= 2**63:  # counts are int64
            raise ParameterError(f"edge count n={self.n} is past int64 range")

    @property
    def rho(self) -> float:
        """Stationary on-probability E[X] / (E[X] + E[Y])."""
        try:
            ex = self.on_law.mean()
            ey = self.off_law.mean()
        except InfiniteMeanError as exc:
            raise InfiniteMeanError(f"stationary law undefined: {exc}") from exc
        return ex / (ex + ey)

    def to_config(self) -> dict:
        cfg = {"on": self.on_law.to_config(), "off": self.off_law.to_config()}
        if self.N is not None:
            cfg["N"] = self.N
        else:
            cfg["n"] = self.n
        return cfg

    @classmethod
    def from_config(cls, cfg: dict) -> "ModelSpec":
        if not isinstance(cfg, dict):
            raise TypeError(f"a model config must be an object, got {type(cfg).__name__}")
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


def stationary_init(model: ModelSpec, rng):
    """Draw the stationary state of all edges: (on, remaining) arrays.

    Each edge is on with probability rho independently; the remaining time in
    the current phase comes from the matching residual law.
    """
    res_on, res_off = model.on_law.residual(), model.off_law.residual()
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


# Cap on the durations drawn in one block of _phase_switches: it bounds the
# block's memory (a few int64 arrays of this size) whatever n and K are.
_BLOCK_DRAWS = 1 << 15
# Bytes per block of epochs in triangle_counts: the per-vertex neighbour
# bitsets plus the scratch rows they are counted in (about 4 MB in all).
_TRIPLE_BLOCK = 1 << 22
# Bytes a graph trace may take for its n x (K + 1) bool indicator buffer;
# larger graphs or traces are refused before anything is drawn.
_GRAPH_BYTES = 1 << 28
# Blocks of at least this many edges are summed by one np.add per row, not by
# np.cumsum down axis 0, which numpy runs column by column. Measured on int64
# blocks of 3 to 257 rows: the two take about the same time at 256 edges, the
# rows half the time at 512 edges and up to 3 times as long at 128.
_ROW_SUM_EDGES = 256


def _running_sum(cum):
    """Sum cum down its rows in place: row r becomes the sum of rows 0..r."""
    if cum.shape[1] >= _ROW_SUM_EDGES:
        for r in range(1, len(cum)):
            np.add(cum[r], cum[r - 1], out=cum[r])
    else:
        np.cumsum(cum, axis=0, out=cum)


def _phase_switches(model: ModelSpec, K: int, rng, init=None):
    """Initial on-states of all edges and a generator of their phase switches from time 2.

    The generator yields one (edges, ons, offs) triple per block: column c of
    the pairs x edges.size matrices `ons` and `offs` holds the times at which
    edge edges[c] switches on and off, in increasing order, one of each per
    on/off cycle. Times past K read K + 1; consumers drop them, and may
    overwrite both matrices. A phase drawn at time t with duration d holds
    for t, ..., t+d-1, so the next switch is at t+d.
    """
    if K < 1:
        raise ValueError("K must be >= 1")
    if init is None:
        on, remaining = stationary_init(model, rng)
    else:
        on = np.array([bool(o) for o, _ in init])
        remaining = np.array([int(d) for _, d in init], dtype=np.int64)
    cycle = model.on_law.mean() + model.off_law.mean()
    # a block's column sums K and at most _BLOCK_DRAWS durations, each at most
    # the draw at u = 2^-53, the least 1 - rng.random() gives; where that could
    # pass int64, durations are cut to K, which moves no switch at or before K
    longest = max(model.on_law.sample(2.0**-53), model.off_law.sample(2.0**-53))
    cut = longest > (2**63 - 1 - K) // _BLOCK_DRAWS

    def draws(law, shape):
        # drawn edges x pairs, written epoch-major (pairs x edges) by the 1 - u pass
        d = law.sample(np.subtract(1.0, rng.random(shape).T, order="C"))
        return np.minimum(d, K, out=d) if cut else d

    def switches():
        # per edge: time of its next switch and the phase that switch enters;
        # every block draws whole on/off cycles, so `enters` is fixed
        nxt = remaining + 1
        enters = ~on
        edges = np.flatnonzero(nxt <= K)
        while edges.size:
            t, ph = nxt[edges], enters[edges]
            pairs = int(1.2 * (K - t).mean() / cycle) + 1
            pairs = max(1, min(pairs, _BLOCK_DRAWS // (2 * edges.size)))
            dx = draws(model.on_law, (edges.size, pairs))
            dy = draws(model.off_law, (edges.size, pairs))
            # row 0 is t, then one on/off cycle a row; the cumulative sums down
            # each column are the times of the cycles' first switches, the last
            # row the next block's t
            cum = np.empty((pairs + 1, edges.size), dtype=np.int64)
            cum[0] = t
            np.add(dx, dy, out=cum[1:])
            _running_sum(cum)
            nxt[edges] = cum[-1]
            starts = cum[:-1]
            # an edge entering on switches off a duration dx later; one
            # entering off switches on a duration dy later
            dx *= ph
            dy *= ~ph
            dx += starts
            dy += starts
            if cum[-1].max() > K:  # every time in a column precedes its next block's t
                np.minimum(dx, K + 1, out=dx)
                np.minimum(dy, K + 1, out=dy)
            yield edges, dy, dx
            edges = edges[nxt[edges] <= K]

    return on, switches()


def simulate_edge_trace(model: ModelSpec, K: int, rng, init=None) -> CountTrace:
    """Aggregate edge count A_n(k) for k = 1..K.

    `init` optionally fixes the initial per-edge states as a list of
    (on, remaining) pairs, mainly for deterministic tests.
    """
    on, switches = _phase_switches(model, K, rng, init)
    # switches into on (row 0) and into off (row 1) at 2..K count at those bins;
    # times past K collect in bin K + 1, which is never read. Each block is
    # counted over its own window of times only (columns of times increase).
    hits = np.zeros((2, K + 2), dtype=np.int64)
    for _, ons, offs in switches:
        for row, times in zip(hits, (ons, offs)):
            lo = int(times[0].min())
            times -= lo
            counts = np.bincount(times.ravel())
            row[lo:lo + counts.size] += counts
    values = np.cumsum(hits[0, 1:K + 1] - hits[1, 1:K + 1])
    values += np.count_nonzero(on)
    return CountTrace(kind="edges", values=values, n=model.n, N=model.N,
                      model_config=model.to_config())


def edge_indicator_matrix(model: ModelSpec, K: int, rng) -> np.ndarray:
    """n x K boolean matrix of per-edge indicators (edges in combination order).

    Each switch is set through its flat index in an n x (K + 1) buffer, whose
    last column takes the switches past K, and a running XOR over the first K
    columns turns switches into states. The result is a view of those columns.
    """
    on, switches = _phase_switches(model, K, rng)
    buf = np.zeros((model.n, K + 1), dtype=bool)
    flat = buf.reshape(-1)
    for edges, ons, offs in switches:
        for times in (ons, offs):
            times += edges * (K + 1) - 1
            flat[times] = True
    mat = buf[:, :K]
    mat[:, 0] = on
    np.logical_xor.accumulate(mat, axis=1, out=mat)
    return mat


def _check_edge_mat(edge_mat, N) -> int:
    """N as an int, once edge_mat is a 2-D bool array with a row per vertex pair."""
    N = whole_number("N", N)
    n = N * (N - 1) // 2
    if not (isinstance(edge_mat, np.ndarray) and edge_mat.dtype == bool
            and edge_mat.ndim == 2 and len(edge_mat) == n):
        raise ValueError(f"edge_mat must be a 2-D bool array with N(N-1)/2 = {n} rows, "
                         f"got shape {np.shape(edge_mat)} of {getattr(edge_mat, 'dtype', None)}")
    return N


def triangle_counts(edge_mat: np.ndarray, N: int) -> np.ndarray:
    """Triangle count per time step from an n x K edge indicator matrix.

    Each triangle v < w < x is counted once, at its lowest edge (v, w): with
    hi[v] the bitset of v's neighbours above v at an epoch, the count is the
    sum over the edges (v, w) that are on of popcount(hi[v] & hi[w]).
    """
    N = _check_edge_mat(edge_mat, N)
    K = edge_mat.shape[1]
    out = np.zeros(K, dtype=np.int64)
    if N < 3:
        return out
    # W words of 8, 16, 32 or 64 bits hold one bit per vertex; bit x % bits of word x // bits
    W = -(-N // 64)
    word = np.min_scalar_type((1 << min(N, 64)) - 1)
    bits = 8 * word.itemsize
    shift = (np.arange(N) % bits).astype(word)[:, None]
    first = np.concatenate([[0], np.cumsum(np.arange(N - 1, 0, -1))])  # row of (v, v+1)
    common = np.min_scalar_type(N)  # neighbours shared by the two ends of an edge
    at_v = np.min_scalar_type(math.comb(N - 1, 2))  # triangles with lowest vertex v
    rows = edge_mat.view(np.uint8)
    step = max(1, _TRIPLE_BLOCK // (N * ((W + 1) * word.itemsize + common.itemsize)))
    for lo in range(0, K, step):
        block = rows[:, lo:lo + step]
        kb = block.shape[1]
        hi = np.zeros((W, N, kb), dtype=word)
        scratch = np.empty((N, kb), dtype=word)
        cnt = np.empty((N, kb), dtype=common)
        for v in range(N - 1):
            for j in range(v // bits, W):
                a, b = max(v + 1, j * bits), min(N, (j + 1) * bits)  # word j's vertices above v
                s = scratch[:b - a]
                np.copyto(s, block[first[v] + a - v - 1:first[v] + b - v - 1])
                s <<= shift[a:b]
                np.bitwise_or.reduce(s, axis=0, out=hi[j, v])
        for v in range(N - 2):
            m, j0 = N - 1 - v, v // bits  # words below j0 hold no vertex above v
            c = np.bitwise_count(np.bitwise_and(hi[j0, v + 1:], hi[j0, v], out=scratch[:m]), out=cnt[:m])
            for j in range(j0 + 1, W):
                c += np.bitwise_count(np.bitwise_and(hi[j, v + 1:], hi[j, v], out=scratch[:m]))
            c *= block[first[v]:first[v + 1]]
            out[lo:lo + kb] += c.sum(axis=0, dtype=at_v)
    return out


def wedge_counts(edge_mat: np.ndarray, N: int) -> np.ndarray:
    """Wedge count per time step: sum over vertices of C(degree, 2).

    The degree table is built from each vertex v's contiguous rows, the edges
    (v, w) with w > v, which add to the degree of v and of each such w; it is
    widened to int64 one vertex at a time.
    """
    N = _check_edge_mat(edge_mat, N)
    deg = np.zeros((N, edge_mat.shape[1]), dtype=np.min_scalar_type(N - 1))
    first = 0
    for v in range(N - 1):
        rows = edge_mat[first:first + N - 1 - v]
        deg[v] += rows.sum(axis=0, dtype=deg.dtype)
        deg[v + 1:] += rows
        first += N - 1 - v
    out = np.zeros(edge_mat.shape[1], dtype=np.int64)
    for row in deg:
        d = row.astype(np.int64)
        d *= d - 1
        out += d
    return out // 2


def simulate_graph_trace(model: ModelSpec, K: int, rng, kind: str) -> CountTrace:
    """Triangle or wedge count trace for a model specified by vertex count N."""
    if model.N is None or model.N < 3:
        raise ValueError("graph traces need a vertex count N >= 3")
    if kind not in ("triangles", "wedges"):
        raise ValueError(f"unknown graph observable {kind!r}")
    if model.n * (K + 1) > _GRAPH_BYTES:
        raise ParameterError(f"a graph trace of n={model.n} edges over K={K} epochs needs "
                             f"{model.n * (K + 1)} bytes of indicators, over {_GRAPH_BYTES}")
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


def write_csv(path, header, rows) -> None:
    """A header row, then the rows, by csv.writer (CRLF line ends)."""
    with Path(path).open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


_SAVE_ROWS = 1 << 16  # rows formatted at once, so a long trace needs no copy of itself as text


def save_trace(trace: CountTrace, csv_path) -> None:
    """The rows 'k,value' as csv.writer writes them (CRLF line ends), one format pass a block."""
    values = np.asarray(trace.values, dtype=np.int64)
    with Path(csv_path).open("w", newline="") as fh:
        fh.write("k,value\r\n")
        for start in range(0, len(values), _SAVE_ROWS):
            block = values[start:start + _SAVE_ROWS]
            rows = np.column_stack((np.arange(start + 1, start + len(block) + 1), block))
            fh.write(("%d,%d\r\n" * len(block)) % tuple(rows.ravel().tolist()))
    meta = {
        "kind": trace.kind,
        "n": trace.n,
        "N": trace.N,
        "K": trace.K,
        "seed": trace.seed,
        "model": trace.model_config,
    }
    sidecar_path(csv_path).write_text(json.dumps(meta, indent=2, sort_keys=True) + "\n")


def load_trace(csv_path, n: int | None = None, N: int | None = None,
               kind: str | None = None) -> CountTrace:
    """Read a trace; the caller's n and kind must match the sidecar, or stand in for it.

    Row j must read k = j, and a count outside 0..n (0..2^63 - 1 for a kind,
    edges by default, not edges) is refused: each with a ValueError naming its
    line. A row count other than the sidecar's K is a TraceMismatchError.
    """
    csv_path = Path(csv_path)
    meta_file = sidecar_path(csv_path)
    meta = json.loads(meta_file.read_text()) if meta_file.exists() else {}
    if n is not None and meta.get("n") not in (None, n):
        raise TraceMismatchError(f"{meta_file} records n={meta['n']}, but the model has n={n}")
    if kind is not None and meta.get("kind") not in (None, kind):
        raise TraceMismatchError(
            f"{meta_file} records kind={meta['kind']!r}, but the config has kind={kind!r}")
    n = meta.get("n") or n
    if n is None:
        raise ValueError(f"{csv_path}: no sidecar {meta_file.name}; the edge count n is needed")
    kind = meta.get("kind") or kind or "edges"
    top = n if kind == "edges" else 2**63 - 1
    values = _parse_whole(csv_path, top)
    if values is None:  # the line loop names the bad line, or reads what only csv takes
        values = _parse_lines(csv_path, top)
    if meta.get("K") not in (None, len(values)):
        raise TraceMismatchError(
            f"{meta_file} records K={meta['K']}, but {csv_path} has {len(values)} rows")
    return CountTrace(
        kind=kind,
        values=np.array(values, dtype=np.int64),
        n=n,
        N=meta.get("N") or N,
        seed=meta.get("seed"),
        model_config=meta.get("model"),
    )


def _parse_whole(csv_path: Path, top: int):
    """The counts of a plain 'k,value' file in one np.loadtxt pass, or None.

    None where any row would need a look: a header other than 'k,value', a
    field that loadtxt cannot read as int64, a blank row (loadtxt skips it,
    so its row count falls short of the file's lines), a row whose k is not
    its epoch, or a count outside 0..top.
    """
    data = csv_path.read_bytes()
    if not data.startswith((b"k,value\r\n", b"k,value\n")):
        return None
    # the rows after the header, with line ends counted as universal newlines
    rows = data.count(b"\n") + data.count(b"\r") - data.count(b"\r\n") - 1
    rows += not data.endswith((b"\n", b"\r"))
    if not rows:
        return np.empty(0, dtype=np.int64)
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error", UserWarning)  # loadtxt warns where only blank rows follow
            table = np.loadtxt(csv_path, dtype=np.int64, delimiter=",", skiprows=1,
                               comments=None, ndmin=2)
    except (ValueError, UserWarning):
        return None
    if table.shape != (rows, 2) or np.any(table[:, 0] != np.arange(1, rows + 1)):
        return None
    values = table[:, 1]
    return values if 0 <= values.min() and values.max() <= top else None


def _parse_lines(csv_path: Path, top: int) -> list:
    """The counts read row by row; the first bad row raises a ValueError naming its line."""
    values = []
    with csv_path.open() as fh:
        reader = csv.reader(fh)
        if next(reader, [])[:2] != ["k", "value"]:
            raise ValueError(f"{csv_path}, line 1: expected header 'k,value'")
        for epoch, row in enumerate(reader, start=1):
            try:
                k, value = int(row[0]), int(row[1])
            except (IndexError, ValueError):
                raise ValueError(f"{csv_path}, line {reader.line_num}: expected a row 'k,value'") from None
            if not 0 <= value <= top:
                raise ValueError(
                    f"{csv_path}, line {reader.line_num}: count {row[1]} outside 0..{top}")
            if k != epoch:
                raise ValueError(
                    f"{csv_path}, line {reader.line_num}: k={row[0]}, but this row is epoch {epoch}")
            values.append(value)
    return values
