import hashlib
import itertools
import math
import re
import tracemalloc

import numpy as np
import pytest
from scipy.special import zeta as scipy_zeta
from scipy.stats import binom, chisquare

from onoffgraph import simulate
from onoffgraph.errors import InfiniteMeanError, ParameterError, TraceMismatchError
from onoffgraph.laws import Geometric, Pareto, Weibull
from onoffgraph.simulate import (
    CountTrace,
    ModelSpec,
    edge_indicator_matrix,
    load_trace,
    save_trace,
    sidecar_path,
    simulate_edge_trace,
    simulate_graph_trace,
    simulate_trace,
    stationary_init,
    triangle_counts,
    wedge_counts,
)

GG = ModelSpec(on_law=Geometric(0.3), off_law=Geometric(0.8), n=100)
# lambda large enough that the Weibull law is numerically the point mass at 1
DET = Weibull(50.0, 1.0)
# models run through both consumers of the switch generator
CONSUMER_MODELS = [GG, ModelSpec(on_law=Pareto(1.0, 3.0), off_law=Pareto(1.0, 2.5), n=40),
                   ModelSpec(on_law=Weibull(1.0, 0.5), off_law=Geometric(0.7), N=12)]


def start_at(monkeypatch, model, states):
    """Start `model`'s edges in the given (on, remaining) states, drawing nothing.

    stationary_init is replaced for `model` alone; every other model still
    draws its stationary start.
    """
    draw = simulate.stationary_init
    on = np.array([o for o, _ in states])
    remaining = np.array([d for _, d in states], dtype=np.int64)
    monkeypatch.setattr(simulate, "stationary_init", lambda m, rng: (
        (on.copy(), remaining.copy()) if m is model else draw(m, rng)))


class TestModelSpec:
    def test_rho_examples(self):
        assert GG.rho == pytest.approx(0.8 / 1.1, rel=1e-14)
        m = ModelSpec(on_law=Pareto(1.0, 3.0), off_law=Pareto(1.0, 2.5), n=10)
        z3, z25 = float(scipy_zeta(3.0)), float(scipy_zeta(2.5))
        assert m.rho == pytest.approx(z3 / (z3 + z25), rel=1e-10)

    def test_vertex_count(self):
        m = ModelSpec(on_law=Geometric(0.3), off_law=Geometric(0.8), N=20)
        assert m.n == 190
        with pytest.raises(ValueError):
            ModelSpec(on_law=Geometric(0.3), off_law=Geometric(0.8), n=5, N=20)

    def test_whole_counts(self):
        # integral floats and numpy integers are stored as int; the rest is refused
        g = Geometric(0.5)
        for kw, n, N in [({"n": 100.0}, 100, None), ({"n": np.int64(7)}, 7, None),
                         ({"N": 10.0}, 45, 10), ({"N": np.float64(4.0)}, 6, 4)]:
            m = ModelSpec(on_law=g, off_law=g, **kw)
            assert (m.n, m.N) == (n, N) and type(m.n) is int
            assert m.N is None or type(m.N) is int
        for kw in [{"n": 100.5}, {"n": True}, {"n": "100"}, {"n": math.inf},
                   {"N": 10.5}, {"N": np.True_}, {"N": -3}]:  # N = -3 gives N(N-1)/2 = 6
            with pytest.raises(ParameterError):
                ModelSpec(on_law=g, off_law=g, **kw)

    def test_law_of_no_kind_is_refused(self):
        # a residual law has no config kind, so no table or covariance reads it
        res = Pareto(1.0, 4.0).residual()
        for on, off in ((res, Geometric(0.5)), (Geometric(0.5), res)):
            with pytest.raises(ParameterError, match="ResidualLaw"):
                ModelSpec(on, off, n=3)
        assert ModelSpec(Geometric(0.5).residual(), Geometric(0.5), n=3).on_law == Geometric(0.5)

    def test_infinite_mean(self):
        m = ModelSpec(on_law=Pareto(1.0, 0.9), off_law=Geometric(0.5), n=3)
        with pytest.raises(InfiniteMeanError):
            m.rho

    def test_config_round_trip(self):
        for m in [GG, ModelSpec(on_law=Weibull(1.0, 0.5), off_law=Geometric(0.7), N=6)]:
            clone = ModelSpec.from_config(m.to_config())
            assert clone.on_law == m.on_law
            assert clone.off_law == m.off_law
            assert clone.n == m.n and clone.N == m.N


class TestStationaryInit:
    def test_mean_on_count(self):
        rng = np.random.default_rng(0)
        total = sum(stationary_init(GG, rng)[0].sum() for _ in range(500))
        expect = 500 * GG.n * GG.rho  # nrho = 72.73 per draw
        assert abs(total - expect) <= 4 * math.sqrt(500 * GG.n * GG.rho * (1 - GG.rho))

    def test_degenerate_alternator(self):
        m = ModelSpec(on_law=DET, off_law=DET, n=50)
        assert m.rho == pytest.approx(0.5, abs=1e-12)
        rng = np.random.default_rng(3)
        on, remaining = stationary_init(m, rng)
        assert np.all(remaining == 1)

    def test_binomial_first_epoch(self):
        # chi-square on A_n(1) over many replications, 1% level
        m = ModelSpec(on_law=Geometric(0.3), off_law=Geometric(0.8), n=50)
        rng = np.random.default_rng(42)
        R = 10_000
        counts = np.array([stationary_init(m, rng)[0].sum() for _ in range(R)])
        k = np.arange(m.n + 1)
        probs = binom.pmf(k, m.n, m.rho)
        # pool bins until every expected count is >= 5
        observed, expected = [], []
        obs_acc = exp_acc = 0.0
        for ki in k:
            obs_acc += np.sum(counts == ki)
            exp_acc += R * probs[ki]
            if exp_acc >= 5.0 and (R - sum(expected)) - exp_acc >= 5.0:
                observed.append(obs_acc)
                expected.append(exp_acc)
                obs_acc = exp_acc = 0.0
        observed.append(obs_acc)
        expected.append(exp_acc)
        stat, pval = chisquare(observed, np.array(expected) * R / sum(expected))
        assert pval > 0.01


class TestEdgeTrace:
    def test_deterministic_alternation(self, monkeypatch):
        m = ModelSpec(on_law=DET, off_law=DET, n=2)
        start_at(monkeypatch, m, [(True, 1), (True, 1)])
        trace = simulate_edge_trace(m, 8, np.random.default_rng(0))
        assert trace.values.tolist() == [2, 0, 2, 0, 2, 0, 2, 0]

    def test_k1(self):
        rng = np.random.default_rng(1)
        trace = simulate_edge_trace(GG, 1, rng)
        assert trace.K == 1
        assert 0 <= trace.values[0] <= GG.n

    def test_durations_past_2_53(self, monkeypatch):
        # Pareto(1e19, 3) durations lie past 2^53, where survival steps only
        # every thousand or so durations; each draw still brackets and the trace runs
        m = ModelSpec(on_law=Geometric(0.5), off_law=Pareto(1e19, 3.0), n=5)
        start_at(monkeypatch, m, [(True, 1)] * 5)
        trace = simulate_edge_trace(m, 50, np.random.default_rng(0))
        assert trace.values.tolist() == [5] + [0] * 49
        # two such durations in one column would carry its sum past int64
        m = ModelSpec(on_law=Pareto(1e19, 3.0), off_law=Pareto(1e19, 3.0), n=45)
        start_at(monkeypatch, m, [(True, 1)] * 45)
        trace = simulate_edge_trace(m, 50, np.random.default_rng(0))
        assert trace.values.tolist() == [45] + [0] * 49

    def test_stationary_mean(self):
        rng = np.random.default_rng(7)
        trace = simulate_edge_trace(GG, 50_000, rng)
        assert trace.values.mean() == pytest.approx(100 * 0.8 / 1.1, rel=0.01)

    def test_lag1_product_moment(self):
        # sample mean of A(k)A(k+1) vs n rho (1 - fbar_1) + (n^2 - n) rho^2
        rng = np.random.default_rng(8)
        for m in [GG,
                  ModelSpec(on_law=Pareto(1.0, 3.0), off_law=Pareto(1.0, 2.5), n=30),
                  ModelSpec(on_law=Weibull(1.0, 0.5), off_law=Geometric(0.7), n=30)]:
            K = 50_000
            trace = simulate_edge_trace(m, K, rng)
            v = trace.values.astype(np.float64)
            prods = v[:-1] * v[1:]
            n, rho = m.n, m.rho
            fbar1 = 1.0 / m.on_law.mean()
            s1 = n * rho * (1 - fbar1) + (n * n - n) * rho * rho
            se = prods.std() / math.sqrt(K - 1)  # understated under dependence
            assert abs(prods.mean() - s1) <= 8 * se

    def test_bounds(self):
        rng = np.random.default_rng(2)
        trace = simulate_edge_trace(GG, 500, rng)
        assert trace.values.min() >= 0 and trace.values.max() <= GG.n

    def test_counts_equal_indicator_column_sums(self):
        # both consumers of one switch generator: same seed, same paths
        for m in CONSUMER_MODELS:
            for K in (1, 2, 3, 700):
                trace = simulate_edge_trace(m, K, np.random.default_rng(31))
                mat = edge_indicator_matrix(m, K, np.random.default_rng(31))
                assert np.array_equal(trace.values, mat.sum(axis=0))

    def test_thin_blocks(self, monkeypatch):
        # one pair of durations per edge and block: blocks one switch-pair deep
        monkeypatch.setattr(simulate, "_BLOCK_DRAWS", 1)
        for m in CONSUMER_MODELS:
            for K in (2, 300):
                trace = simulate_edge_trace(m, K, np.random.default_rng(32))
                mat = edge_indicator_matrix(m, K, np.random.default_rng(32))
                assert np.array_equal(trace.values, mat.sum(axis=0))

    def test_running_sum_routes(self, monkeypatch):
        # one seed through each route of _running_sum, forced on every block
        # by the crossover: np.add row by row and np.cumsum give the same
        # traces and matrices, also where Pareto(1e19, 3) durations are cut to K
        cut = ModelSpec(on_law=Pareto(1e19, 3.0), off_law=Pareto(1e19, 3.0), n=45)
        start_at(monkeypatch, cut, [(k % 2 == 0, k) for k in range(1, 46)])
        models = CONSUMER_MODELS + [ModelSpec(on_law=Geometric(0.3), off_law=Geometric(0.8), N=64)]
        runs = []
        for edges in (1, math.inf):
            monkeypatch.setattr(simulate, "_ROW_SUM_EDGES", edges)
            run = [simulate_edge_trace(cut, 60, np.random.default_rng(33)).values]
            for m in models:
                run.append(simulate_edge_trace(m, 700, np.random.default_rng(33)).values)
                run.append(edge_indicator_matrix(m, 700, np.random.default_rng(33)))
            runs.append(run)
        assert all(np.array_equal(a, b) for a, b in zip(*runs))
        assert runs[0][0].min() < runs[0][0].max()  # the cut trace switches

    def test_pair_cycles_match_interleaved_switches(self, monkeypatch):
        # every edge switches at the same times, in the same directions, as in
        # the interleaved layout below (times past K read K + 1): on the
        # consumer models, on blocks one cycle deep, on the cut path and on
        # N = 64 (the row-wise running sum)
        cut = ModelSpec(on_law=Pareto(1e19, 3.0), off_law=Pareto(1e19, 3.0), n=45)
        start_at(monkeypatch, cut, [(k % 2 == 0, k) for k in range(1, 46)])
        cases = [(m, 300) for m in CONSUMER_MODELS] + [
            (cut, 60), (ModelSpec(on_law=Geometric(0.3), off_law=Geometric(0.8), N=64), 300)]
        for draws in (simulate._BLOCK_DRAWS, 1):
            monkeypatch.setattr(simulate, "_BLOCK_DRAWS", draws)
            for m, K in cases:
                on, blocks = simulate._phase_switches(m, K, np.random.default_rng(34))
                old_on, old_blocks = interleaved_switches(m, K, np.random.default_rng(34))
                assert np.array_equal(on, old_on)
                new = [(np.broadcast_to(edges, ons.shape), times, np.full(ons.shape, into_on))
                       for edges, ons, offs in blocks
                       for times, into_on in ((ons, True), (offs, False))]
                old = [(np.broadcast_to(edges, times.shape), np.minimum(times, K + 1),
                        (np.arange(len(times)) % 2 == 0)[:, None] == enters_on)
                       for edges, times, enters_on in old_blocks]
                assert switch_table(new) == switch_table(old)

    def test_k_is_checked(self):
        m = ModelSpec(on_law=Geometric(0.3), off_law=Geometric(0.8), N=5)
        for K in (0, -3):
            with pytest.raises(ValueError, match="K must be >= 1"):
                edge_indicator_matrix(m, K, np.random.default_rng(1))
            for kind in ("triangles", "wedges"):
                with pytest.raises(ValueError, match="K must be >= 1"):
                    simulate_graph_trace(m, K, np.random.default_rng(1), kind)

    def test_geometric_transition_frequencies(self):
        # GG is the two-state chain: stay on w.p. 1-p, stay off w.p. 1-q
        p, q = 0.3, 0.8
        m = ModelSpec(on_law=Geometric(p), off_law=Geometric(q), n=2000)
        mat = edge_indicator_matrix(m, 50, np.random.default_rng(12))
        now, nxt = mat[:, :-1], mat[:, 1:]
        for state, leave_prob in ((True, p), (False, q)):
            visits = np.count_nonzero(now == state)
            leaves = np.count_nonzero((now == state) & (nxt != state))
            se = math.sqrt(leave_prob * (1 - leave_prob) / visits)
            assert abs(leaves / visits - leave_prob) <= 4 * se

    def test_stream_is_pinned(self):
        # literal outputs from fixed seeds: a change to the random stream shows here
        traces = {
            "gg": ([16, 9, 12, 13, 16, 13, 14, 13, 15, 17, 15, 15, 12, 13, 12, 13, 15, 15, 12, 12,
                    14, 12, 17, 13, 13, 17, 16, 14, 11, 14, 14, 17, 14, 13, 19, 15, 16, 12, 14, 11,
                    14, 14, 15, 14, 16, 13, 15, 15, 13, 14, 18, 15, 17, 12, 12, 14, 13, 11, 15, 14],
                   Geometric(0.3), Geometric(0.8)),
            "pp": ([11, 7, 8, 10, 10, 9, 10, 10, 9, 9, 8, 7, 11, 9, 10, 7, 12, 7, 10, 7,
                    10, 9, 5, 8, 8, 8, 10, 10, 10, 8, 10, 9, 11, 6, 13, 5, 11, 6, 15, 7,
                    16, 5, 15, 4, 14, 5, 10, 8, 10, 9, 8, 10, 9, 7, 11, 5, 13, 7, 10, 7],
                   Pareto(1.0, 3.0), Pareto(1.0, 2.5)),
            "wg": ([15, 10, 12, 16, 9, 18, 12, 16, 10, 14, 13, 12, 14, 9, 13, 10, 11, 10, 16, 13,
                    13, 15, 13, 14, 13, 16, 11, 11, 14, 10, 15, 9, 13, 13, 12, 11, 13, 11, 13, 11,
                    15, 12, 11, 13, 8, 12, 10, 9, 14, 12, 12, 12, 14, 10, 15, 13, 10, 16, 11, 15],
                   Weibull(1.0, 0.5), Geometric(0.7)),
        }
        for name, (values, on, off) in traces.items():
            m = ModelSpec(on_law=on, off_law=off, n=20)
            trace = simulate_edge_trace(m, 60, np.random.default_rng(2024))
            assert trace.values.tolist() == values, name
        # at campaign scale, n = 100 and K = 10,000, where the switch blocks are wide
        digests = {
            "gg": ("e70e102d7139557ed3d8b4fe7d2062a0e9cfaef415f99d36a66ddb14bb623211",
                   Geometric(0.3), Geometric(0.8)),
            "pp": ("f0cf5fd7628cb864c9efa21518f56c11494517c037c35d7a0026344470617d28",
                   Pareto(1.0, 3.0), Pareto(1.0, 2.5)),
        }
        for name, (digest, on, off) in digests.items():
            m = ModelSpec(on_law=on, off_law=off, n=100)
            trace = simulate_edge_trace(m, 10_000, np.random.default_rng(3))
            assert hashlib.sha256(trace.values.tobytes()).hexdigest() == digest, name
        m = ModelSpec(on_law=Pareto(1.0, 3.0), off_law=Geometric(0.5), N=12)
        mat = edge_indicator_matrix(m, 200, np.random.default_rng(2024))
        assert mat.shape == (66, 200) and int(mat.sum()) == 4957
        assert hashlib.sha256(mat.tobytes()).hexdigest() == (
            "d10181b0572a1c827dbd7c7d0edc83d4db1d31bfce37043628edb367c501782b")

    def test_reproducible(self):
        a = simulate_edge_trace(GG, 300, np.random.default_rng(99))
        b = simulate_edge_trace(GG, 300, np.random.default_rng(99))
        assert np.array_equal(a.values, b.values)


def interleaved_switches(model, K, rng):
    """The switch generator with on and off durations interleaved down each column (an oracle).

    It yields (edges, times, enters_on): column c of the (2 pairs) x edges.size
    matrix `times` holds edge edges[c]'s switch times, row r entering the on
    phase for even r where enters_on[c] and for odd r where not.
    """
    on, remaining = simulate.stationary_init(model, rng)
    cycle = model.on_law.mean() + model.off_law.mean()
    longest = max(model.on_law.sample(2.0**-53), model.off_law.sample(2.0**-53))
    cut = longest > (2**63 - 1 - K) // simulate._BLOCK_DRAWS

    def draws(law, shape):
        u = rng.random(shape)
        return law.sample(np.subtract(1.0, u, out=u))

    def switches():
        nxt = remaining + 1
        enters = ~on
        edges = np.flatnonzero(nxt <= K)
        while edges.size:
            t, ph = nxt[edges], enters[edges]
            pairs = int(1.2 * (K - t).mean() / cycle) + 1
            pairs = max(1, min(pairs, simulate._BLOCK_DRAWS // (2 * edges.size)))
            dx = draws(model.on_law, (edges.size, pairs)).T
            dy = draws(model.off_law, (edges.size, pairs)).T
            cum = np.empty((2 * pairs + 1, edges.size), dtype=np.int64)
            cum[0] = t
            np.copyto(cum[1::2], dy)
            np.copyto(cum[1::2], dx, where=ph)
            np.copyto(cum[2::2], dx)
            np.copyto(cum[2::2], dy, where=ph)
            if cut:
                np.minimum(cum[1:], K, out=cum[1:])
            np.cumsum(cum, axis=0, out=cum)
            nxt[edges] = cum[-1]
            yield edges, cum[:-1], ph
            edges = edges[nxt[edges] <= K]

    return on, switches()


def switch_table(blocks):
    """(edge, time, enters on) of every switch in (edges, times, into_on) arrays, sorted."""
    edge, time, into_on = (np.concatenate([b[i].ravel() for b in blocks]) for i in range(3))
    order = np.lexsort((into_on, time, edge))
    return [edge[order].tolist(), time[order].tolist(), into_on[order].tolist()]


def _brute_triangles(adj, N):
    return sum(1 for a, b, c in itertools.combinations(range(N), 3)
               if adj[a][b] and adj[a][c] and adj[b][c])


def _brute_wedges(adj, N):
    total = 0
    for center in range(N):
        for a, b in itertools.combinations(range(N), 2):
            if a != center and b != center and adj[center][a] and adj[center][b]:
                total += 1
    return total


def _pair_gather_triangles(edge_mat, N):
    """Triangles counted at their lowest vertex v: every pair (b, c) of v's edges
    to higher vertices is matched with the row of the edge (b, c)."""
    first = np.concatenate([[0], np.cumsum(np.arange(N - 1, 0, -1))])  # row of (v, v+1)
    out = np.zeros(edge_mat.shape[1], dtype=np.int64)
    for v in range(N - 2):
        up = edge_mat[first[v]:first[v + 1]]  # edges (v, c) for c > v
        # pairs of those edges, in the combination order of the rows after them
        b, c = np.triu_indices(N - 1 - v, k=1)
        out += (up[b] & up[c] & edge_mat[first[v + 1]:]).sum(axis=0)
    return out


def _mask_wedges(edge_mat, N):
    """Wedges as the sum over vertices v of C(deg v, 2), each degree counted
    over the rows that a mask over all vertex pairs picks for v."""
    a, b = np.triu_indices(N, k=1)
    out = np.zeros(edge_mat.shape[1], dtype=np.int64)
    for v in range(N):
        deg = np.count_nonzero(edge_mat[(a == v) | (b == v)], axis=0)
        out += deg * (deg - 1) // 2
    return out


class TestGraphCounts:
    def _adj_from_column(self, col, N):
        adj = [[False] * N for _ in range(N)]
        for idx, (a, b) in enumerate(itertools.combinations(range(N), 2)):
            adj[a][b] = adj[b][a] = bool(col[idx])
        return adj

    def test_complete_and_empty(self):
        N = 4
        full = np.ones((6, 1), dtype=bool)
        empty = np.zeros((6, 1), dtype=bool)
        assert triangle_counts(full, N)[0] == 4
        assert wedge_counts(full, N)[0] == 12
        assert triangle_counts(empty, N)[0] == 0
        assert wedge_counts(empty, N)[0] == 0

    def test_two_vertices_count_zero(self):
        # one vertex pair closes no triangle and makes no wedge, on or off
        one_edge = np.array([[True, False, True]])
        for counts in (triangle_counts(one_edge, 2), wedge_counts(one_edge, 2)):
            assert counts.tolist() == [0, 0, 0] and counts.dtype == np.int64

    def test_complete_graph_is_exact(self):
        # exact where float32 adjacency products would round: N(N-1)(N-2) > 2^24
        N = 300
        full = np.ones((N * (N - 1) // 2, 1), dtype=bool)
        assert triangle_counts(full, N)[0] == math.comb(N, 3)
        assert wedge_counts(full, N)[0] == N * math.comb(N - 1, 2)

    def test_against_brute_force(self):
        rng = np.random.default_rng(10)
        for N in [4, 5, 7, 9]:
            n = N * (N - 1) // 2
            mat = rng.random((n, 20)) < 0.4
            tri = triangle_counts(mat, N)
            wed = wedge_counts(mat, N)
            for k in range(20):
                adj = self._adj_from_column(mat[:, k], N)
                assert tri[k] == _brute_triangles(adj, N)
                assert wed[k] == _brute_wedges(adj, N)
                assert 3 * tri[k] <= wed[k]

    def test_epoch_blocks(self, monkeypatch):
        # blocks of a few epochs give the counts of one block
        N = 8
        mat = np.random.default_rng(4).random((N * (N - 1) // 2, 50)) < 0.5
        whole = triangle_counts(mat, N)
        monkeypatch.setattr(simulate, "_TRIPLE_BLOCK", 100)  # 4 epochs per block
        assert np.array_equal(triangle_counts(mat, N), whole)

    @pytest.mark.parametrize("N", [3, 4, 8, 9, 16, 17, 32, 33, 64, 65, 130])
    def test_bitsets_match_pair_gather(self, N, monkeypatch):
        # word sizes 8, 16, 32 and 64 bits, each full and one vertex past it,
        # and 2 and 3 words of 64 bits
        mat = np.random.default_rng(N).random((N * (N - 1) // 2, 37)) < 0.5
        expect = _pair_gather_triangles(mat, N)
        assert np.array_equal(triangle_counts(mat, N), expect)
        monkeypatch.setattr(simulate, "_TRIPLE_BLOCK", 40 * N)  # 1 to 13 epochs per block
        assert np.array_equal(triangle_counts(mat, N), expect)

    @pytest.mark.parametrize("N", [3, 4, 9, 64, 130, 257])
    def test_degree_table_matches_mask(self, N):
        # degrees held in uint8 up to N = 256, then in uint16
        mat = np.random.default_rng(N).random((N * (N - 1) // 2, 37)) < 0.5
        assert np.array_equal(wedge_counts(mat, N), _mask_wedges(mat, N))
        full = np.ones((N * (N - 1) // 2, 2), dtype=bool)
        assert wedge_counts(full, N).tolist() == [N * math.comb(N - 1, 2)] * 2

    @pytest.mark.parametrize("counter", [triangle_counts, wedge_counts])
    def test_matrix_is_checked(self, counter):
        # a 0/2 matrix read as bytes would count K4's 4 triangles as 8
        with pytest.raises(ValueError, match="bool"):
            counter(np.full((6, 3), 2), 4)
        for rows in (5, 7, 10):
            with pytest.raises(ValueError, match="6 rows"):
                counter(np.ones((rows, 3), dtype=bool), 4)
        with pytest.raises(ValueError):
            counter(np.ones(6, dtype=bool), 4)
        with pytest.raises(ValueError):
            counter(np.ones((6, 3, 1), dtype=bool), 4)

    def test_memory_is_bounded(self):
        # N = 64, K = 20,000: the indicator matrix takes 40 MB
        m = ModelSpec(on_law=Geometric(0.3), off_law=Geometric(0.8), N=64)
        K = 20_000
        tracemalloc.start()
        try:
            mat = edge_indicator_matrix(m, K, np.random.default_rng(5))
            matrix_peak = tracemalloc.get_traced_memory()[1]
            tracemalloc.reset_peak()
            held = tracemalloc.get_traced_memory()[0]
            triangle_counts(mat, m.N)
            triangle_peak = tracemalloc.get_traced_memory()[1] - held
            tracemalloc.reset_peak()
            wedge_counts(mat, m.N)
            wedge_peak = tracemalloc.get_traced_memory()[1] - held
        finally:
            tracemalloc.stop()
        assert matrix_peak < m.n * (K + 1) + 8 * 2**20  # the buffer, not a copy of it
        assert triangle_peak < 16 * 2**20  # blocks of epochs, not all K at once
        assert wedge_peak < m.N * K + 2 * 2**20  # a uint8 degree table, widened a row at a time

    def test_oversized_graph_is_refused_before_drawing(self, monkeypatch):
        # N = 1,000 at K = 10^5 would take 50 GB of indicators
        def no_draws(*args):
            raise AssertionError("the stationary state was drawn")

        monkeypatch.setattr(simulate, "stationary_init", no_draws)
        m = ModelSpec(on_law=Geometric(0.3), off_law=Geometric(0.8), N=1000)
        for kind in ("triangles", "wedges"):
            tracemalloc.start()
            try:
                with pytest.raises(ParameterError, match="bytes"):
                    simulate_graph_trace(m, 10**5, np.random.default_rng(5), kind=kind)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < 2**20
        # the widest graph trace of the benchmark, N = 64 at K = 2,000, is admitted
        assert ModelSpec(on_law=Geometric(0.3), off_law=Geometric(0.8), N=64).n * 2001 \
            <= simulate._GRAPH_BYTES

    def test_triangle_mean(self):
        m = ModelSpec(on_law=Geometric(0.3), off_law=Geometric(0.8), N=20)
        rng = np.random.default_rng(21)
        trace = simulate_graph_trace(m, 3000, rng, kind="triangles")
        expect = math.comb(20, 3) * m.rho**3  # about 438.6
        se = trace.values.std() / math.sqrt(len(trace.values))
        assert abs(trace.values.mean() - expect) <= 8 * se

    def test_dispatch_and_validation(self):
        rng = np.random.default_rng(1)
        assert simulate_trace(GG, 10, rng, kind="edges").kind == "edges"
        with pytest.raises(ValueError):
            simulate_graph_trace(GG, 10, rng, kind="triangles")  # no N
        m = ModelSpec(on_law=Geometric(0.3), off_law=Geometric(0.8), N=5)
        with pytest.raises(ValueError):
            simulate_graph_trace(m, 10, rng, kind="squares")


def test_counts_on_installed_numpy():
    assert triangle_counts(np.ones((3, 1), dtype=bool), 3).tolist() == [1]  # np.bitwise_count: numpy >= 2.0


class TestPersistence:
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(5)
        trace = simulate_edge_trace(GG, 50, rng)
        trace.seed = 5
        path = tmp_path / "trace.csv"
        save_trace(trace, path)
        loaded = load_trace(path)
        assert np.array_equal(loaded.values, trace.values)
        assert loaded.kind == "edges" and loaded.n == 100 and loaded.seed == 5
        assert loaded.model_config == trace.model_config

    def test_sizes_from_caller(self, tmp_path):
        trace = simulate_edge_trace(GG, 50, np.random.default_rng(5))
        path = tmp_path / "trace.csv"
        save_trace(trace, path)
        with pytest.raises(TraceMismatchError):
            load_trace(path, n=99)
        assert load_trace(path, n=100).n == 100
        sidecar_path(path).unlink()
        with pytest.raises(ValueError):
            load_trace(path)  # no sidecar and no n: n is not guessed
        loaded = load_trace(path, n=100)
        assert loaded.n == 100 and np.array_equal(loaded.values, trace.values)

    def test_kind_from_caller(self, tmp_path):
        m = ModelSpec(on_law=Geometric(0.3), off_law=Geometric(0.8), N=6)
        trace = simulate_graph_trace(m, 40, np.random.default_rng(5), kind="wedges")
        path = tmp_path / "trace.csv"
        save_trace(trace, path)
        with pytest.raises(TraceMismatchError):
            load_trace(path, n=15, kind="triangles")
        assert load_trace(path, n=15, kind="wedges").kind == "wedges"
        sidecar_path(path).unlink()
        assert load_trace(path, n=15, kind="triangles").kind == "triangles"
        # with no kind named it is an edge trace, whose counts must lie in 0..n
        assert trace.values.max() > 15
        with pytest.raises(ValueError, match="outside 0..15"):
            load_trace(path, n=15)

    def test_rows_must_match_the_sidecar(self, tmp_path):
        trace = simulate_edge_trace(GG, 1000, np.random.default_rng(5))
        path = tmp_path / "trace.csv"
        save_trace(trace, path)
        header, *rows = path.read_text().splitlines(keepends=True)
        # a cut trace no longer has the sidecar's K rows
        path.write_text(header + "".join(rows[:300]))
        with pytest.raises(TraceMismatchError, match="K=1000"):
            load_trace(path)
        # the same rows in reverse order: k = 300 sits on the first row
        path.write_text(header + "".join(reversed(rows[:300])))
        with pytest.raises(ValueError, match="trace.csv, line 2: k=300"):
            load_trace(path, n=100)
        path.write_text(header + "".join(rows[:1] + rows[2:3]))  # k = 1, 3
        with pytest.raises(ValueError, match="trace.csv, line 3: k=3"):
            load_trace(path)

    def test_saved_bytes_are_csv_writer_rows(self, tmp_path):
        # the one-pass format writes what csv.writer writes, CRLF line ends included
        values = np.array([0, 7, 100, 3, 2**40])
        for K in (0, 1, 5):
            trace = CountTrace(kind="wedges", values=values[:K], n=100)
            save_trace(trace, tmp_path / "fast.csv")
            simulate.write_csv(tmp_path / "rows.csv", ["k", "value"],
                               zip(range(1, K + 1), values[:K].tolist()))
            assert (tmp_path / "fast.csv").read_bytes() == (tmp_path / "rows.csv").read_bytes()
            # and a saved file is read in one pass
            whole = simulate._parse_whole(tmp_path / "fast.csv", 2**63 - 1)
            assert whole.tolist() == values[:K].tolist()

    @pytest.mark.parametrize("text", [
        "k,value\r\n", "k,value\n1,2", "k,value\r\n1,2\r\n2,3\r\n", "k,value\r1,2\r2,3\r",
        "k,value\n1,2\r2,3\n", "k,value\n1,2\r\r\n", "k,value\r\n1,2\r\n\r\n",
        "k,value\n1,2\n\n", "k,value\n1,\"2\"\n", "k,value\n1,2,9\n2,3\n",
        "k,value,x\n1,2\n", " k,value\n1,2\n", "k,value\n 1 , 2\n", "k,value\n1,+2\n",
        "k,value\n1,2\n2,3_0\n", "k,value\n1,2\n#2,3\n", "k,value\n1,5\n",
        "k,value\n2,1\n"],
        ids=range(18))
    def test_whole_file_parse_reads_what_the_line_loop_reads(self, tmp_path, text):
        # the one-pass reader either returns the line loop's counts or defers to it
        path = tmp_path / "t.csv"
        path.write_bytes(text.encode())
        try:
            expect = simulate._parse_lines(path, 4)
        except ValueError as exc:
            with pytest.raises(ValueError, match=re.escape(str(exc))):
                load_trace(path, n=4, kind="edges")
        else:
            assert load_trace(path, n=4, kind="edges").values.tolist() == expect
            whole = simulate._parse_whole(path, 4)
            assert whole is None or whole.tolist() == expect

    def test_header_validation(self, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("time,count\n1,2\n")
        with pytest.raises(ValueError):
            load_trace(bad)

    @pytest.mark.parametrize("text, line", [("", 1), ("k,value\n1,2\n2\n", 3),
                                            ("k,value\n1,2\n\n3,4\n", 3),
                                            ("k,value\n1,2\n2,x\n", 3)])
    def test_malformed_rows_name_their_line(self, tmp_path, text, line):
        bad = tmp_path / "bad.csv"
        bad.write_text(text)
        with pytest.raises(ValueError, match=f"bad.csv, line {line}:"):
            load_trace(bad, n=4)

    def test_counts_out_of_range_name_their_line(self, tmp_path):
        # an edge count lies in 0..n; any count fits in int64
        bad = tmp_path / "bad.csv"
        for kind, text, line in [("edges", "k,value\n1,4\n2,5\n", 3),
                                 ("edges", "k,value\n1,-1\n", 2),
                                 ("wedges", "k,value\n1,5\n2,-3\n", 3),
                                 ("wedges", f"k,value\n1,{2**63}\n", 2)]:
            bad.write_text(text)
            with pytest.raises(ValueError, match=f"bad.csv, line {line}: count"):
                load_trace(bad, n=4, kind=kind)
        bad.write_text(f"k,value\n1,4\n2,{2**63 - 1}\n")
        assert load_trace(bad, n=4, kind="wedges").values[-1] == 2**63 - 1

    def test_trace_of_no_named_kind_is_an_edge_trace_in_range(self, tmp_path):
        # without a sidecar or a kind the trace loads as edges, so its counts lie in 0..n
        bad = tmp_path / "bad.csv"
        bad.write_text("k,value\n1,5\n")
        with pytest.raises(ValueError, match="bad.csv, line 2: count"):
            load_trace(bad, n=4)
        bad.write_text("k,value\n1,4\n")
        assert load_trace(bad, n=4).kind == "edges"
