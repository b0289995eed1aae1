import itertools
import math
import time

import numpy as np
import pytest

from onoffgraph import asymp
from onoffgraph.asymp import (
    K0,
    K_CAP,
    DivergenceWarning,
    delta_method_cov,
    finiteness_check,
    general_moment_cov,
    geometric_moment_cov,
    mixed_moment,
    _GeneralTables,
)
from onoffgraph.errors import ParameterError
from onoffgraph.laws import Geometric, Pareto, Weibull
from onoffgraph.renewal import _law_arrays, _residual_arrays, autocovariance, joint_distribution
from onoffgraph.simulate import ModelSpec

from test_renewal import ALL_MODELS, loop_autocovariance

HEAVY = ModelSpec(on_law=Pareto(1.0, 4.0), off_law=Geometric(0.5), n=100)
PARPAR = ModelSpec(on_law=Pareto(1.0, 3.0), off_law=Pareto(1.0, 2.5), n=100)


def geometric_pattern_probs(p, q, rho, K):
    """Exact per-edge on-pattern law over K epochs from the two-state chain."""
    out = np.empty(1 << K)
    for s in range(1 << K):
        bits = [(s >> j) & 1 for j in range(K)]
        prob = rho if bits[0] else 1 - rho
        for prev, cur in zip(bits, bits[1:]):
            prob *= (1 - p if cur else p) if prev else (q if cur else 1 - q)
        out[s] = prob
    return out


def count_vector_distribution(pattern_probs, n, K):
    """Exact law of (A(1), ..., A(K)) for n iid edges, by edge-wise convolution."""
    patterns = [tuple((s >> j) & 1 for j in range(K)) for s in range(1 << K)]
    dist = {tuple([0] * K): 1.0}
    for _ in range(n):
        new = {}
        for counts, pr in dist.items():
            for pat, ppr in zip(patterns, pattern_probs):
                key = tuple(c + b for c, b in zip(counts, pat))
                new[key] = new.get(key, 0.0) + pr * ppr
        dist = new
    return dist


def exact_mixed(dist, epochs):
    return math.fsum(pr * math.prod(v[t - 1] for t in epochs) for v, pr in dist.items())


def loop_general_tables(model, k_hi):
    """S2, ta, tb, qq by per-k dot-product loops over the loop r/s tables: the oracle.

    S2_d = P(on at d+1, d+2 | fresh off-period starts at 1) comes from the
    interleaved pair recursion; ta[k], tb[k], qq[k] are P(on at 1, 2, k),
    P(on at 1, k, k+1) and P(on at 1, 2, k, k+1), each a first-renewal sum
    over the residual on-time.
    """
    rho = model.rho
    _, s, _ = loop_autocovariance(model, k_hi + 1)
    f, surv_f = _law_arrays(model.on_law, k_hi + 2)
    g, _ = _law_arrays(model.off_law, k_hi + 2)
    fbar, res_surv_f = _residual_arrays(surv_f, model.on_law.mean())
    R2 = np.empty(k_hi + 1)
    S2 = np.empty(k_hi + 1)
    R2[0], S2[0] = surv_f[1], 0.0
    for d in range(1, k_hi + 1):
        S2[d] = g[:d] @ R2[d - 1::-1]
        R2[d] = f[:d] @ S2[d - 1::-1] + surv_f[d + 1]
    ta = np.zeros(k_hi + 2)
    tb = np.zeros(k_hi + 1)
    qq = np.zeros(k_hi + 1)
    for k in range(3, k_hi + 2):
        ta[k] = rho * (fbar[1:k - 1] @ s[k - 3::-1] + res_surv_f[k - 1])
    for k in range(2, k_hi + 1):
        tb[k] = rho * (fbar[:k - 1] @ S2[k - 2::-1] + res_surv_f[k])
    for k in range(3, k_hi + 1):
        qq[k] = rho * (fbar[1:k - 1] @ S2[k - 3::-1] + res_surv_f[k])
    return S2, ta, tb, qq


def _fit_two_term(f, vals, ks):
    """Solve c1 f^k + c2 f^(2k) through two (k, value) points."""
    A = np.array([[f ** ks[0], f ** (2 * ks[0])], [f ** ks[1], f ** (2 * ks[1])]])
    return np.linalg.solve(A, np.array(vals))


class TestClosedFormGeometric:
    def test_v0_example(self):
        mc = geometric_moment_cov(100, 0.3, 0.8)
        assert mc.v0 == pytest.approx(100 * 0.24 * 0.9 / 1.331, rel=1e-12)
        assert mc.v0 == pytest.approx(16.228, abs=1e-3)

    def test_v0_identity_grid(self):
        # n rho(1-rho)(1+f)/(1-f) == n pq(2-p-q)/(p+q)^3
        for p in [0.1, 0.3, 0.5, 0.7, 0.9]:
            for q in [0.15, 0.35, 0.55, 0.75, 0.95]:
                v0 = geometric_moment_cov(50, p, q).v0
                alt = 50 * p * q * (2 - p - q) / (p + q) ** 3
                assert abs(v0 - alt) <= 1e-12 * max(1.0, abs(alt))

    def test_cauchy_schwarz(self):
        for (n, p, q) in [(10, 0.4, 0.4), (100, 0.3, 0.8), (5, 0.9, 0.2)]:
            mc = geometric_moment_cov(n, p, q)
            assert mc.v0 >= 0 and mc.v1 >= 0
            assert abs(mc.c01) <= math.sqrt(mc.v0 * mc.v1) * (1 + 1e-12)

    def test_domain(self):
        with pytest.raises(ParameterError):
            geometric_moment_cov(10, 0.0, 0.5)
        with pytest.raises(ParameterError):
            geometric_moment_cov(10, 1.2, 0.5)

    @pytest.mark.parametrize("n,p,q", [(3, 0.5, 0.4), (4, 0.3, 0.8),
                                       (2, 0.7, 0.6), (4, 0.45, 0.55)])
    def test_against_exhaustive_enumeration(self, n, p, q):
        """v0, v1, c01 reproduced from exact K=5 joint laws of small systems.

        The K <= 5 count-vector law gives every needed mixed moment exactly;
        geometric mixing means each lag covariance is c1 f^k + c2 f^(2k), so
        two lags pin the constants, a third verifies them, and the infinite
        sums follow in closed form.
        """
        rho = q / (p + q)
        f = 1 - p - q
        dist = count_vector_distribution(
            geometric_pattern_probs(p, q, rho, 5), n, 5)
        m1 = exact_mixed(dist, (1,))
        e12 = exact_mixed(dist, (1, 2))

        # v0
        var_a = exact_mixed(dist, (1, 1)) - m1 * m1
        cov12 = exact_mixed(dist, (1, 2)) - m1 * m1
        cov13 = exact_mixed(dist, (1, 3)) - m1 * m1
        assert cov12 == pytest.approx(n * rho * (1 - rho) * f, abs=1e-12)
        assert cov13 == pytest.approx(n * rho * (1 - rho) * f * f, abs=1e-12)
        v0 = var_a + 2 * n * rho * (1 - rho) * f / (1 - f) if f != 0 else var_a
        mc = geometric_moment_cov(n, p, q)
        assert mc.v0 == pytest.approx(v0, rel=1e-10)

        # v1: t_k = Cov(A1 A2, Ak Ak+1)
        t1 = exact_mixed(dist, (1, 1, 2, 2)) - e12 * e12
        t = {k: exact_mixed(dist, (1, 2, k, k + 1)) - e12 * e12 for k in (2, 3, 4)}
        if f != 0:
            c1, c2 = _fit_two_term(f, [t[2], t[3]], (2, 3))
            assert t[4] == pytest.approx(c1 * f**4 + c2 * f**8, abs=1e-11)
            v1 = t1 + 2 * (c1 * f**2 / (1 - f) + c2 * f**4 / (1 - f * f))
        else:
            v1 = t1 + 2 * t[2]
        assert mc.v1 == pytest.approx(v1, rel=1e-9)

        # c01: leading and trailing cross-covariances
        a = {k: exact_mixed(dist, tuple(sorted((1, k, k + 1)))) - m1 * e12
             for k in (1, 2, 3, 4)}
        b = {k: exact_mixed(dist, tuple(sorted((1, 2, k)))) - m1 * e12
             for k in (2, 3, 4, 5)}
        if f != 0:
            x1, x2 = _fit_two_term(f, [a[2], a[3]], (2, 3))
            assert a[4] == pytest.approx(x1 * f**4 + x2 * f**8, abs=1e-11)
            y1, y2 = _fit_two_term(f, [b[3], b[4]], (3, 4))
            assert b[5] == pytest.approx(y1 * f**5 + y2 * f**10, abs=1e-11)
            c01 = (a[1] + x1 * f**2 / (1 - f) + x2 * f**4 / (1 - f * f)
                   + b[2] + y1 * f**3 / (1 - f) + y2 * f**6 / (1 - f * f))
        else:
            c01 = a[1] + a[2] + b[2]
        assert mc.c01 == pytest.approx(c01, rel=1e-9)


class TestDeltaMethod:
    def test_gamma_example(self):
        pc = delta_method_cov(100, 0.3, 0.8, geometric_moment_cov(100, 0.3, 0.8))
        assert pc.gamma[0] == pytest.approx(1.989625, abs=1e-12)
        assert pc.gamma[1] == pytest.approx(-1.1 / 80, abs=1e-12)

    def test_scaling_identities(self):
        for (n, p, q) in [(100, 0.3, 0.8), (20, 0.6, 0.2)]:
            pc = delta_method_cov(n, p, q, geometric_moment_cov(n, p, q))
            assert pc.tau2 / pc.sigma2 == pytest.approx((q / p) ** 2, rel=1e-12)
            # rank-1 structure: rho_cov^2 = sigma^2 tau^2
            assert pc.rho_cov**2 == pytest.approx(pc.sigma2 * pc.tau2, rel=1e-12)

    def test_predicted_sd_matches_reported_value(self):
        pc = delta_method_cov(100, 0.3, 0.8, geometric_moment_cov(100, 0.3, 0.8))
        sd_p, sd_q = pc.sd(10_000)
        assert sd_p == pytest.approx(0.0028, abs=2e-4)
        assert sd_q == pytest.approx(0.0074, abs=4e-4)


class TestGeneralTables:
    @pytest.mark.parametrize("k_hi", [5, 2048])
    def test_matches_loops(self, k_hi):
        for model in ALL_MODELS:
            tables = _GeneralTables(model, k_hi)
            S2, ta, tb, qq = loop_general_tables(model, k_hi)
            assert np.max(np.abs(tables.rres[:k_hi + 1]
                                 - loop_autocovariance(model, k_hi + 1)[2])) <= 1e-12
            assert np.max(np.abs(autocovariance(model, k_hi + 2).S2[:k_hi + 1]
                                 - S2)) <= 1e-12
            assert np.max(np.abs(tables.ta[3:k_hi + 2] - ta[3:])) <= 1e-12
            assert np.max(np.abs(tables.tb[2:k_hi + 1] - tb[2:])) <= 1e-12
            assert np.max(np.abs(tables.qq[3:k_hi + 1] - qq[3:])) <= 1e-12


class TestGeneralSeries:
    @pytest.mark.parametrize("n,p,q", [(4, 0.3, 0.8), (100, 0.3, 0.8),
                                       (4, 0.45, 0.55), (10, 0.05, 0.1),
                                       (10, 0.002, 0.003), (4, 0.99, 0.99)])
    def test_matches_closed_form(self, n, p, q):
        model = ModelSpec(on_law=Geometric(p), off_law=Geometric(q), n=n)
        g = general_moment_cov(model, n)
        mc = geometric_moment_cov(n, p, q)
        assert g.converged
        assert abs(g.v0 - mc.v0) <= 1e-10
        assert abs(g.v1 - mc.v1) <= 1e-6 * abs(mc.v1)
        assert abs(g.c01 - mc.c01) <= 1e-6 * abs(mc.c01)
        # geometric increments reach the rounding floor within the table, so
        # no tail is added
        assert g.tail_correction == (0.0, 0.0, 0.0)

    def test_slow_mixing_light_tails_extend_the_table(self):
        # |1 - p - q| = 0.995: the increments still stand at 1e-5 of the
        # series scale at K0, and one longer table takes them to the floor
        model = ModelSpec(on_law=Geometric(0.002), off_law=Geometric(0.003), n=10)
        g = general_moment_cov(model, 10)
        assert g.converged and K0 < g.k_used <= K_CAP
        assert g.tail_error <= 1e-12 * max(g.v0, g.v1, abs(g.c01))
        capped = general_moment_cov(model, 10, k_cap=2 * K0)
        assert capped.k_used == 2 * K0 and not capped.converged
        # Weibull laws add no tail exponent either, and the table grows the same way
        model = ModelSpec(on_law=Weibull(0.3, 0.7), off_law=Geometric(0.5), n=10)
        g = general_moment_cov(model, 10)
        assert g.converged and g.k_used > K0 and g.tail_correction == (0.0, 0.0, 0.0)

    def test_power_law_tail_converges(self):
        start = time.perf_counter()
        g = general_moment_cov(HEAVY, 100)
        assert time.perf_counter() - start < 1.0
        assert g.converged and g.k_used == K0
        assert all(t > 0 for t in g.tail_correction)
        half = general_moment_cov(HEAVY, 100, k_cap=K0 // 2)
        assert half.converged and half.k_used == K0 // 2
        for a, b in [(g.v0, half.v0), (g.v1, half.v1), (g.c01, half.c01)]:
            assert abs(a - b) <= 1e-8 * abs(a)

    @pytest.mark.parametrize("model", [HEAVY, PARPAR], ids=["pareto_geo", "pareto_pareto"])
    def test_tail_matches_longer_table(self, model, monkeypatch):
        # the closed-form tail stands in for the terms a 4x longer table sums
        g = general_moment_cov(model, model.n)
        monkeypatch.setattr(asymp, "K0", 4 * K0)
        long = general_moment_cov(model, model.n, k_cap=4 * K0)
        assert long.k_used == 4 * K0
        scale = max(abs(g.v0), abs(g.v1), abs(g.c01))
        assert g.tail_error <= 1e-6 * scale
        for a, b in [(g.v0, long.v0), (g.v1, long.v1), (g.c01, long.c01)]:
            assert abs(a - b) <= 1e-6 * scale

    def test_large_index_tail_stays_in_range(self):
        # at n = 10^6 the rounding noise of v1 and c01 stands above the floor
        # at K0, so a tail is fitted; k^-198 would overflow K0^198 there
        model = ModelSpec(on_law=Pareto(300.0, 100.0), off_law=Geometric(0.7), n=10**6)
        g = general_moment_cov(model, model.n)
        assert np.isfinite([g.v0, g.v1, g.c01, g.tail_error, *g.tail_correction]).all()

    def test_k_cap_too_small(self):
        with pytest.raises(ValueError):
            general_moment_cov(HEAVY, 100, k_cap=32)

    def test_mixed_moment_vs_enumeration_geometric(self):
        n, p, q = 3, 0.5, 0.4
        model = ModelSpec(on_law=Geometric(p), off_law=Geometric(q), n=n)
        dist = count_vector_distribution(
            geometric_pattern_probs(p, q, model.rho, 4), n, 4)
        for epochs in [(1, 2), (1, 1, 2), (1, 2, 3, 4), (1, 1, 2, 2), (1, 3, 3, 4),
                       (2, 2, 3)]:
            assert mixed_moment(model, n, epochs) == pytest.approx(
                exact_mixed(dist, epochs), abs=1e-11)

    def test_mixed_moment_vs_enumeration_pareto(self):
        n = 3
        model = ModelSpec(on_law=Pareto(2.0, 4.0), off_law=Geometric(0.7), n=n)
        probs = joint_distribution(model, [1, 2, 3, 4])
        dist = count_vector_distribution(probs, n, 4)
        for epochs in [(1, 2), (1, 2, 3, 4), (1, 2, 2, 3), (1, 1, 2), (2, 2, 3)]:
            assert mixed_moment(model, n, epochs) == pytest.approx(
                exact_mixed(dist, epochs), abs=1e-10)

    def test_heavy_tail_divergence_warning(self):
        model = ModelSpec(on_law=Pareto(1.0, 1.5), off_law=Geometric(0.5), n=5)
        with pytest.warns(DivergenceWarning):
            general_moment_cov(model, 5, k_cap=2000)

    def test_slow_but_finite_tail(self):
        # Par(1,3)/Par(1,2.5) is summable; its increments decay like k^-1.5
        model = ModelSpec(on_law=Pareto(1.0, 3.0), off_law=Pareto(1.0, 2.5), n=5)
        g = general_moment_cov(model, 5, k_cap=4000)
        assert g.v0 > 0 and g.v1 > 0
        assert np.isfinite([g.v0, g.v1, g.c01]).all()
        assert g.converged
        assert 0.0 < g.tail_error <= 1e-6 * max(1.0, g.v0, g.v1, abs(g.c01))


class TestFiniteness:
    def test_examples(self):
        ok, why = finiteness_check(
            ModelSpec(on_law=Pareto(1.0, 3.0), off_law=Pareto(1.0, 2.5), n=2))
        assert ok
        ok, why = finiteness_check(
            ModelSpec(on_law=Pareto(2.0, 4.0), off_law=Geometric(0.7), n=2))
        assert ok
        ok, why = finiteness_check(
            ModelSpec(on_law=Pareto(1.0, 1.9), off_law=Geometric(0.5), n=2))
        assert not ok
        assert "1.9" in why

    def test_light_tails(self):
        ok, _ = finiteness_check(
            ModelSpec(on_law=Weibull(1.0, 0.5), off_law=Geometric(0.7), n=2))
        assert ok
