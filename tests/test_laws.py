import ast
import functools
import math
import sys
import time
from pathlib import Path

import numpy as np
import pytest
from scipy.special import gammaincc, gammaln
from scipy.special import zeta as scipy_zeta

from onoffgraph import laws
from onoffgraph.errors import (COMPUTE_ERRORS, ConvergenceError, IncompatibleMomentsError,
                               InfiniteMeanError, OutOfRangeError, ParameterError)
from onoffgraph.laws import (
    RESIDUAL_CAP,
    DurationLaw,
    Geometric,
    Pareto,
    ResidualLaw,
    Weibull,
    LAW_KINDS,
    law_from_config,
    _bracket,
    _climb,
    _weibull_mean_slope,
    _weibull_split,
)
from onoffgraph.simulate import ModelSpec, _phase_switches

ALL_LAWS = [Geometric(0.3), Geometric(0.8), Weibull(1.0, 0.5), Weibull(1.0, 1.0),
            Pareto(1.0, 3.0), Pareto(2.0, 4.0), Pareto(1.0, 2.5)]
# families and extremes for the sampler's oracle test
EXTREME_LAWS = (
    [Geometric(p) for p in (1e-12, 1e-6, 0.01, 0.3, 0.8, 0.999, 1.0 - 1e-15)]
    + [Pareto(C, a) for C, a in ((1e-9, 0.5), (1e-9, 300.0), (1.0, 3.0), (1.0, 2.5), (2.0, 4.0),
                                 (1e6, 1.0001), (1e12, 0.5), (1e12, 25.0), (0.5, 8.0))]
    + [Weibull(lam, a) for lam, a in ((1.0, 0.5), (1.0, 1.0), (0.1, 8.0), (50.0, 1.0), (2.0, 3.0),
                                      (1000.0, 0.001), (1e-300, 100.0), (1.0, 0.1), (1.0, 0.2),
                                      (1.0, 0.02))])


def loop_sample(law, u):
    """Bisection for the bracket over [1, RESIDUAL_CAP] on every entry, whatever its candidate.

    This is the reference that DurationLaw.sample must match draw by draw.
    survival(RESIDUAL_CAP + 1) is taken as 0, and an entry whose candidate
    floor(x) + 1 is at or past RESIDUAL_CAP comes back as RESIDUAL_CAP, as
    sample() returns it.
    """
    u = np.atleast_1d(np.asarray(u, dtype=np.float64))
    lo = np.ones(u.shape, dtype=np.int64)
    hi = np.full(u.shape, RESIDUAL_CAP + 1, dtype=np.int64)
    for _ in range(62):  # hi - lo halves from 2^62 to 1
        mid = lo + (hi - lo) // 2
        above = law.survival(mid) >= u
        lo, hi = np.where(above, mid, lo), np.where(above, hi, mid)
    with np.errstate(over="ignore", divide="ignore"):
        lo[np.floor(law._quantile(u)) + 1.0 >= RESIDUAL_CAP] = RESIDUAL_CAP
    return lo


def weibull_integral(lam, alpha, a, power=0):
    """integral_a^inf y^power exp(-lam y^alpha) dy = Gamma(s) Q(s, lam a^alpha) / (alpha lam^s)."""
    s = (power + 1) / alpha
    return math.exp(gammaln(s) - s * math.log(lam)) / alpha * gammaincc(s, lam * a**alpha)


@functools.lru_cache(maxsize=None)
def weibull_series(lam, alpha, power=0, start=0):
    """sum_{y>=start} y^power exp(-lam y^alpha) by direct summation: the Weibull oracle.

    Blocks of terms, from 256 up to 2^20 long, are added by math.fsum until
    the integral bound on the rest falls below 1e-18 of the sum, or 2^24
    terms are in; the integral from the midpoint before the next term then
    stands in for the rest.
    """
    blocks, m, block = [], start, 256
    while True:
        y = np.arange(m, m + block, dtype=np.float64)
        with np.errstate(over="ignore", under="ignore"):
            blocks.append(float(np.sum(y**power * np.exp(-lam * y**alpha))))
        m += block
        total = math.fsum(blocks)
        if weibull_integral(lam, alpha, m - 1.0, power) <= 1e-18 * total or m - start >= 1 << 24:
            return total + weibull_integral(lam, alpha, m - 0.5, power)
        block = min(2 * block, 1 << 20)


# laws whose series the oracle sums: from a tail of 10^7 terms to one of 2
ORACLE_LAWS = [(0.3, 0.7), (1.0, 0.25), (5.0, 0.3), (1.0, 0.2431), (1.0, 0.5), (2.0, 3.0),
               (0.1, 8.0)]


class TestSurvival:
    def test_geometric(self):
        assert Geometric(0.5).survival(3) == pytest.approx(0.25, abs=0)

    def test_weibull_matches_geometric(self):
        # W(-log(1-p), 1) is the same law as G(p)
        w = Weibull(-math.log(0.5), 1.0)
        assert w.survival(3) == pytest.approx(0.25, rel=1e-14)
        g = Geometric(0.5)
        for i in range(1, 30):
            assert w.survival(i) == pytest.approx(g.survival(i), rel=1e-12)

    def test_pareto(self):
        # Par(1, alpha) has survival i^-alpha
        assert Pareto(1.0, 2.0).survival(4) == pytest.approx(1 / 16, rel=1e-15)
        assert Pareto(1.0, 2.0).survival(3) == pytest.approx(1 / 9, rel=1e-15)

    def test_survival_at_one_is_one(self):
        for law in ALL_LAWS:
            assert law.survival(1) == 1.0

    def test_index_below_one_refused(self):
        for i in (0, np.array([1, 0]), -3):
            with pytest.raises(ValueError, match=">= 1"):
                Geometric(0.3).survival(i)

    def test_monotone(self):
        i = np.arange(1, 200)
        for law in ALL_LAWS:
            s = law.survival(i)
            assert np.all(np.diff(s) <= 0)

    @pytest.mark.parametrize("bad", [
        lambda: Geometric(0.0), lambda: Geometric(1.0), lambda: Geometric(-0.2),
        lambda: Weibull(0.0, 1.0), lambda: Weibull(1.0, 0.0),
        lambda: Pareto(0.0, 2.0), lambda: Pareto(1.0, 0.0),
        lambda: Geometric(1e-17),  # 1 - p rounds to 1, so survival would be 1 everywhere
    ])
    def test_parameter_domain(self, bad):
        with pytest.raises(ParameterError):
            bad()


class TestPmf:
    def test_examples(self):
        assert Geometric(0.5).pmf(1) == pytest.approx(0.5, abs=0)
        assert Pareto(1.0, 2.0).pmf(2) == pytest.approx(5 / 36, rel=1e-14)
        assert Weibull(1.0, 1.0).pmf(1) == pytest.approx(1 - math.exp(-1), rel=1e-14)

    def test_normalization(self):
        # partial pmf sum plus survival tail telescopes back to 1
        m = 10_000
        k = np.arange(1, m + 1)
        for law in ALL_LAWS:
            total = law.pmf(k).sum() + law.survival(m + 1)
            assert abs(total - 1.0) <= 1e-12


class TestMean:
    def test_examples(self):
        assert Geometric(0.3).mean() == pytest.approx(10 / 3, rel=1e-14)
        assert Pareto(1.0, 2.0).mean() == pytest.approx(math.pi**2 / 6, rel=1e-12)
        assert Weibull(1.0, 1.0).mean() == pytest.approx(1 / (1 - math.exp(-1)), rel=1e-12)

    def test_pareto_infinite_mean(self):
        with pytest.raises(InfiniteMeanError):
            Pareto(1.0, 1.0).mean()
        with pytest.raises(InfiniteMeanError):
            Pareto(2.0, 0.8).mean()

    def test_pareto_tiny_scale(self):
        # C^alpha underflows to 0 while zeta(alpha, C) overflows: the mean is 1, not 0 * inf
        assert Pareto(1e-9, 300.0).mean() == 1.0
        # the tail sum T(1) is the same sum: scalar, in an array, and behind the residual law
        law = Pareto(1e-9, 300.0)
        assert law.tail_sum(1) == 1.0
        assert list(law.tail_sum(np.array([1, 2, 3]))) == [1.0, 0.0, 0.0]
        assert law.residual().survival(1) == 1.0

    def test_pareto_tail_scalar_has_the_array_bits(self):
        # a scalar x against the same x in a 1-element array, bit for bit, on a
        # (C, alpha, x) grid with the tiny-C fallback of Pareto(1e-9, 300)
        checked = 0
        for C in (1e-9, 1e-3, 0.5, 1.0, 2.0, 300.0, 1e19):
            for a in (1.0001, 1.5, 3.0, 50.0, 300.0):
                try:
                    Pareto(C, a)
                except ParameterError:  # C^alpha past float range
                    continue
                for x in (C, C + 1.0, C + 4.0, C + 1e6):
                    array = laws._pareto_tail(C, a, np.array([x]))
                    for scalar in (x, np.float64(x), np.array(x)):
                        value = laws._pareto_tail(C, a, scalar)
                        assert type(value) is np.float64
                        assert np.array([value]).tobytes() == array.tobytes(), (C, a, x)
                    checked += 1
        assert checked > 100
        assert laws._pareto_tail(1e-9, 300.0, 1e-9) == 1.0

    def test_weibull_mean_is_summed_once(self, monkeypatch):
        from onoffgraph.simulate import simulate_edge_trace

        # the head of the series is built once, and the mean and variance read it
        calls = []
        real = laws._weibull_head
        monkeypatch.setattr(laws, "_weibull_head", lambda *a: calls.append(a) or real(*a))
        law = Weibull(1.0, 0.25)
        model = ModelSpec(on_law=law, off_law=Geometric(0.5), n=20)
        simulate_edge_trace(model, 200, np.random.default_rng(3))
        assert calls == [(1.0, 0.25)]
        assert law.variance() > 0.0 and len(calls) == 1
        monkeypatch.undo()
        assert law.mean() == _weibull_mean_slope(1.0, 0.25)[0]  # the inversion's bits

    def test_mean_equals_survival_sum(self):
        i = np.arange(1, 200_000)
        for law in ALL_LAWS:
            direct = law.survival(i).sum()
            tol = 1e-6 if isinstance(law, Pareto) else 1e-10  # heavy power tail
            assert law.mean() == pytest.approx(direct, rel=tol)


class TestVariance:
    def test_matches_moment_sums(self):
        # E[Z^2] - E[Z]^2 from the pmf of the light-tailed laws
        i = np.arange(1, 2_000_001, dtype=np.float64)
        for law in [Geometric(0.3), Geometric(0.8), Weibull(1.0, 0.5), Weibull(1.0, 1.0),
                    Weibull(0.3, 0.7), Weibull(2.0, 3.0)]:
            pmf = law.pmf(i)
            direct = float(np.sum(i * i * pmf) - np.sum(i * pmf) ** 2)
            assert law.variance() == pytest.approx(direct, rel=1e-10)
        assert Geometric(0.3).variance() == pytest.approx(0.7 / 0.09, rel=1e-15)

    def test_pareto_closed_form(self):
        # C^alpha [2 zeta(a - 1, C + 1) - (2C + 1) zeta(a, C + 1)] - T(2)^2 against the
        # same sums over j = C + i - 1 taken to 10^6 terms plus their integral tails
        for C, a in ((1.0, 3.0), (2.0, 4.0), (0.5, 8.0)):
            j = C + np.arange(1, 1_000_001, dtype=np.float64)
            end = j[-1] + 0.5
            tails = 2 * end ** (2 - a) / (a - 2) - (2 * C + 1) * end ** (1 - a) / (a - 1)
            second = C**a * (np.sum((2 * j - 2 * C - 1) * j**-a) + tails)
            t2 = C**a * (np.sum(j**-a) + end ** (1 - a) / (a - 1))
            assert Pareto(C, a).variance() == pytest.approx(second - t2 * t2, rel=1e-9)

    def test_infinite_and_degenerate(self):
        assert Pareto(1.0, 2.0).variance() == math.inf
        assert Pareto(1.0, 1.5).variance() == math.inf
        # all mass at 1: nothing cancels, so the variance is 0, not rounding noise
        assert Pareto(1e-9, 300.0).variance() == 0.0
        assert Weibull(50.0, 1.0).variance() == pytest.approx(math.exp(-50.0), rel=1e-12)

    def test_weibull_error_bounds_the_dropped_terms(self):
        # the first Euler-Maclaurin term left out, h^(5)(M)/30240 at the split M,
        # stays below 1e-15 of the mean (h = f) and of the variance (h = (2y - 1) f)
        # over the accepted domain: lam and alpha across float range, and laws
        # whose mass sits at the split, where it is largest
        grid = [(lam, a) for lam in np.geomspace(1e-300, 1e300, 41)
                for a in np.geomspace(0.0118, 100.0, 50)]
        grid += [(math.exp(math.log(g) - a * math.log(_weibull_split(a))), a)
                 for a in np.linspace(1.0, 100.0, 34) for g in np.geomspace(1e-3, 700.0, 12)]
        accepted = 0
        for lam, a in grid:
            try:
                law = Weibull(float(lam), float(a))
            except ParameterError:
                continue
            accepted += 1
            f5, h5 = dropped_em_terms(law.lam, law.alpha)
            assert abs(f5) <= 1e-15 * law.mean()
            assert abs(2.0 * h5 - f5) <= 1e-15 * law.variance()
        assert accepted > 1500


def dropped_em_terms(lam, alpha):
    """f^(5)(M)/30240 and h^(5)(M)/30240 for f = exp(-g), g = lam y^alpha, h = y f, M the split.

    f^(n) = f B_n(-g', ..., -g^(n)) with the complete Bell polynomials B_n,
    and h^(5) = 5 f^(4) + y f^(5).
    """
    x = float(_weibull_split(alpha))
    log_g = math.log(lam) + alpha * math.log(x)
    if log_g > math.log(746.0):  # f(M) underflows, and the tail is 0
        return 0.0, 0.0
    g = [math.exp(log_g)]
    for j in range(1, 6):
        g.append(g[-1] * (alpha - j + 1) / x)
    y1, y2, y3, y4, y5 = (-gj for gj in g[1:])
    b4 = y1**4 + 6 * y1**2 * y2 + 4 * y1 * y3 + 3 * y2**2 + y4
    b5 = (y1**5 + 10 * y1**3 * y2 + 15 * y1 * y2**2 + 10 * y1**2 * y3 + 10 * y2 * y3
          + 5 * y1 * y4 + y5)
    f = math.exp(-g[0])
    return f * b5 / 30240, (5 * f * b4 + x * f * b5) / 30240


class TestWeibullSeries:
    @pytest.mark.parametrize("lam,alpha", ORACLE_LAWS, ids=str)
    def test_matches_direct_sums(self, lam, alpha):
        # mean, variance and tail sums against the summed series, within 1e-13
        law = Weibull(lam, alpha)
        assert law.mean() == pytest.approx(weibull_series(lam, alpha), rel=1e-13, abs=0)
        t2 = weibull_series(lam, alpha, 0, 1)
        variance = 2.0 * weibull_series(lam, alpha, 1, 1) - t2 - t2 * t2
        assert law.variance() == pytest.approx(variance, rel=1e-13, abs=0)
        for k in (1, 2, 100, 2048, 2049, 5000, 2**40):
            want = weibull_series(lam, alpha, 0, k - 1)
            assert law.tail_sum(k) == pytest.approx(want, rel=1e-13, abs=0), k
        k = np.array([1, 2, 100, 2048, 2049, 5000, 2**40])
        assert np.array_equal(law.tail_sum(k), [law.tail_sum(int(j)) for j in k])

    def test_mean_keeps_its_bits(self):
        # the value the blocked 2^22-term sum gave; traces of this law depend on it
        assert Weibull(1.0, 0.5).mean() == 2.6704068179663394

    def test_fast(self):
        # each call is O(1): the blocked sum took 71 ms, 145 ms and 356 ms here
        def best(call):
            times = []
            for _ in range(3):
                start = time.perf_counter()
                call()
                times.append(time.perf_counter() - start)
            return min(times)
        assert best(lambda: Weibull(1.0, 0.25).variance()) < 0.02
        assert best(lambda: Weibull.shape_for_mean(20.0)) < 0.02
        a = Weibull.shape_for_mean(20.0)
        assert weibull_series(1.0, a) == pytest.approx(20.0, rel=1e-13)

    @pytest.mark.parametrize("lam,alpha,mean", [
        (1000.0, 0.001, 1.0), (1e-300, 100.0, 994.8258511915), (1.0, 0.1, 3628800.78258),
        (1.0, 0.2, 120.750724652), (1.0, 0.01, None)], ids=str)
    def test_extremes_are_finite_or_typed(self, lam, alpha, mean):
        # each gives a finite mean, variance, K = 200 trace and covariance, or a
        # typed error; Weibull(1000, 0.001) once raised OverflowError from lam^s,
        # and (1e-300, 100) an overflow warning
        from onoffgraph.asymp import general_moment_cov
        from onoffgraph.simulate import ModelSpec, simulate_edge_trace

        if mean is None:  # Gamma(1 + 2/alpha) overflows: the variance leaves float range
            with pytest.raises(ParameterError):
                Weibull(lam, alpha)
            return
        law = Weibull(lam, alpha)
        assert law.mean() == pytest.approx(mean, rel=1e-11)
        assert math.isfinite(law.variance()) and law.variance() >= 0.0
        model = ModelSpec(on_law=law, off_law=Geometric(0.5), n=10)
        try:
            trace = simulate_edge_trace(model, 200, np.random.default_rng(7))
            assert trace.values.min() >= 0 and trace.values.max() <= 10
            cov = general_moment_cov(model, 10)
            assert np.isfinite([cov.v0, cov.v1, cov.c01, cov.tail_error]).all()
        except COMPUTE_ERRORS:
            pass


class TestResidual:
    def test_examples(self):
        res = Geometric(0.3).residual()
        assert res.pmf(2) == pytest.approx(0.21, rel=1e-14)
        for law in ALL_LAWS:
            assert law.residual().pmf(1) == pytest.approx(1 / law.mean(), rel=1e-14)
        res = Pareto(1.0, 2.0).residual()
        assert res.pmf(2) == pytest.approx(0.25 / (math.pi**2 / 6), rel=1e-12)

    def test_geometric_residual_is_geometric(self):
        # S(k) / E[Z] = (1 - p)^(k-1) p: the equilibrium law is the law, which residual() returns
        p = 0.3
        law = Geometric(p)
        assert law.residual() is law
        k = np.arange(1, 60)
        assert np.max(np.abs(ResidualLaw(law).pmf(k) - law.pmf(k))) <= 1e-14
        # so are its draws, the search from 1 on T(k) / mean and the law's own sampler,
        # which differ only where u falls between two roundings of one survival value
        rng = np.random.default_rng(14)
        for p in (1e-6, 1e-3, 0.05, 0.3, 0.5, 0.9, 1.0 - 1e-6):
            u = 1.0 - rng.random(10_000)
            assert np.array_equal(ResidualLaw(Geometric(p)).sample(u), Geometric(p).sample(u))

    def test_residual_draws_search_from_1(self):
        # DurationLaw.sample draws a residual law by the one _bracket call from 1
        # that its own sampler made, on the same u: the same bits, u = 1 and the
        # least u included, and every law's scalar and empty contract
        rng = np.random.default_rng(15)
        grid = [1.0, 2.0**-53, np.array([1.0, 2.0**-53, 0.5]), 1.0 - rng.random(500),
                1.0 - rng.random((20, 7)), np.empty(0)]
        for law in [law for law in ALL_LAWS if not isinstance(law, Geometric)] + [
                Pareto(1.0, 1.3), Pareto(1e12, 25.0), Weibull(0.1, 8.0), Weibull(1.0, 0.2)]:
            res = law.residual()
            for u in grid:
                u = np.asarray(u)
                want = _bracket(res.survival, u.ravel(), np.ones(u.size, dtype=np.int64))
                got = res.sample(u)
                if u.ndim:
                    assert got.dtype == np.int64 and np.array_equal(got, want.reshape(u.shape))
                else:
                    assert type(got) is int and got == want[0]

    def test_residual_sums_to_one(self):
        for law in ALL_LAWS:
            res = law.residual()
            k = np.arange(1, 200_000)
            assert res.pmf(k).sum() == pytest.approx(1.0, abs=1e-4)

    def test_residual_survival_consistent(self):
        res = Pareto(2.0, 4.0).residual()
        k = np.arange(1, 50)
        head = np.concatenate([[0.0], np.cumsum(res.pmf(k))])
        for j, s in enumerate(res.survival(np.arange(1, 51))):
            assert s == pytest.approx(1.0 - head[j], abs=1e-13)


def euler_maclaurin_hurwitz(C, alpha):
    """sum_{i>=1} C^alpha / (C + i - 1)^alpha, an oracle independent of scipy.

    Partial sums plus the midpoint integral of the tail, stopped once the
    Euler-Maclaurin remainder bound falls below 1e-12.
    """
    scale = C**alpha
    total = 0.0
    m = 0
    block = 4096
    while True:
        i = np.arange(m + 1, m + block + 1, dtype=np.float64)
        total += float(np.sum((C + i - 1.0) ** (-alpha)))
        m += block
        x = C + m - 0.5
        if scale * alpha * x ** (-alpha - 1.0) / 12.0 <= 1e-12:
            return scale * (total + x ** (1.0 - alpha) / (alpha - 1.0))
        block = min(block * 2, 1 << 22)


SERIES_ALPHAS = [1.01, 1.05, 1.5, 2.5, 4.0, 8.0]


class TestSeries:
    def test_zeta(self):
        assert Pareto(1.0, 2.0).mean() == pytest.approx(math.pi**2 / 6, abs=1e-11)
        for a in SERIES_ALPHAS:
            assert Pareto(1.0, a).mean() == pytest.approx(euler_maclaurin_hurwitz(1.0, a),
                                                          abs=1e-11, rel=1e-12)

    def test_chi(self):
        assert Weibull(1.0, 1.0).mean() == pytest.approx(1 / (1 - math.exp(-1)), abs=1e-11)

    def test_hurwitz(self):
        for C in [0.5, 1.0, 2.0, 5.0]:
            for a in SERIES_ALPHAS:
                assert Pareto(C, a).mean() == pytest.approx(euler_maclaurin_hurwitz(C, a),
                                                            abs=1e-11, rel=1e-12)
        # brute force with generous tail for C != 1
        i = np.arange(1, 2_000_000, dtype=np.float64)
        brute = float(np.sum((2.0 / (2.0 + i - 1.0)) ** 4))
        assert Pareto(2.0, 4.0).mean() == pytest.approx(brute, rel=1e-9)

    def test_divergence_boundary(self):
        with pytest.raises(InfiniteMeanError):
            Pareto(1.0, 1.0).mean()
        with pytest.raises(InfiniteMeanError):
            Pareto(2.0, 0.9).mean_slope()
        with pytest.raises(ParameterError):
            Weibull(1.0, 0.0)
        # small alpha is summed in closed form, not refused: chi(0.2) is about 5!
        assert Weibull(1.0, 0.2).mean() == pytest.approx(120.750724652, rel=1e-11)

    def test_scale_overflow_is_refused(self):
        # C^alpha past float range is a typed refusal, not an OverflowError
        with pytest.raises(ParameterError):
            Pareto(100.0, 200.0)
        with pytest.raises(ParameterError):
            Pareto(np.float64(100.0), np.float64(200.0))
        with pytest.raises(ParameterError):
            Pareto.shape_for_mean(1.0001, 100.0)  # the root lies past alpha = 154
        # 100^150 = 1e300 is still in range, and so is the law
        direct = float(np.sum((100.0 / (100.0 + np.arange(20_000.0))) ** 150))
        assert Pareto(100.0, 150.0).mean() == pytest.approx(direct, rel=1e-12)
        assert Pareto(100.0, 150.0).tail_sum(1) == Pareto(100.0, 150.0).mean()


def five_point_slope(mean, x, h):
    """The five-point central difference of mean at x with step h."""
    return (mean(x - 2 * h) - 8 * mean(x - h) + 8 * mean(x + h) - mean(x + 2 * h)) / (12 * h)


# shapes from the floors (Pareto alpha > 1, Weibull alpha >= 0.0118, where its
# variance stays in float range) up to 300
SLOPE_SHAPES = ([1.0 + 1e-4, 1.001, 1.01, 1.1, 1.5, 2.0, 3.0, 5.0, 10.0, 30.0, 100.0, 300.0],
                [0.0118, 0.02, 0.05, 0.1, 0.2, 0.3, 0.5, 0.8, 1.0, 2.0, 3.0, 5.0, 8.0, 20.0,
                 100.0, 300.0])


class TestMeanSlope:
    @pytest.mark.parametrize("law", [Pareto(1.0, a) for a in SLOPE_SHAPES[0]]
                             + [Weibull(1.0, a) for a in SLOPE_SHAPES[1]]
                             + [law for law in EXTREME_LAWS + ALL_LAWS
                                if not (isinstance(law, Pareto) and law.alpha <= 1.0)], ids=str)
    def test_matches_five_point_difference(self, law):
        # the exact slope in the shape (alpha, or a geometric law's p) against a
        # central difference, 1e-8 relative, of the mean less the terms that
        # the shape leaves alone (summed apart, so that a mean near its limit
        # keeps its digits); the step moves that excess by about 1e-3 of itself
        slope = law.mean_slope()
        assert slope <= 0.0
        if isinstance(law, Geometric):  # all of the mean 1/p moves with p
            shape, excess = law.p, lambda p: 1.0 / p
        else:
            kind, scale = type(law), law.C if isinstance(law, Pareto) else law.lam
            shape = law.alpha
            excess = functools.partial(_excess, kind, scale, shape >= 1.0)
        if slope == 0.0:  # every term that moves with alpha is below float range
            assert excess(shape) == 0.0
            return
        h = 1e-3 * excess(shape) / -slope
        assert slope == pytest.approx(five_point_slope(excess, shape, h), rel=1e-8)


def _excess(kind, scale, summed, alpha):
    """The mean less the terms that do not move with alpha, summed on its own (a test oracle).

    For a Pareto law that is C^alpha zeta(alpha, C + 1), the terms j >= 1. For
    a Weibull law it is mean - 1, or where summed (alpha near or above 1,
    where the mean nears 1 + exp(-lam)) the terms y >= 2 summed directly.
    """
    if kind is Pareto:
        return scale**alpha * float(scipy_zeta(alpha, scale + 1.0))
    if not summed:
        return _weibull_mean_slope(scale, alpha)[0] - 1.0
    with np.errstate(over="ignore"):
        return math.fsum(np.exp(-scale * np.arange(2.0, 20_000.0) ** alpha))


class TestInversion:
    def test_examples(self):
        assert Pareto.shape_for_mean(math.pi**2 / 6) == pytest.approx(2.0, abs=1e-12)
        assert Weibull.shape_for_mean(1 / (1 - math.exp(-1))) == pytest.approx(1.0, abs=1e-12)

    def test_out_of_range(self):
        for target in (0.9, 1.0, math.inf, math.nan):
            for kind in (Weibull, Pareto):
                with pytest.raises(OutOfRangeError):
                    kind.shape_for_mean(target)
        with pytest.raises(OutOfRangeError):
            Pareto.shape_for_mean(1e16)  # its alpha lies within rounding of 1
        # the root lies about 2 ulps above alpha = 1, where no float alpha has a
        # mean near 3.9e10 (the climb's, 1 + 1 ulp, has 9.0e10): refused
        with pytest.raises(OutOfRangeError, match="has mean"):
            Pareto.shape_for_mean(3.9e10, 2.0e-5)
        with pytest.raises(OutOfRangeError):
            Weibull.shape_for_mean(1.0 + math.exp(-1))  # infimum of the chi range
        with pytest.raises(OutOfRangeError):
            Weibull.shape_for_mean(math.inf)
        with pytest.raises(OutOfRangeError):
            Weibull.shape_for_mean(sys.float_info.max)  # above the last finite chi
        # chi leaves float range only near alpha = 0.0058, so 1e3 has a root
        a = Weibull.shape_for_mean(1e3)
        assert Weibull(1.0, a).mean() == pytest.approx(1e3, rel=1e-13)

    def test_round_trip_grid(self):
        # each inverse's mean meets its target to 1e-13 relative
        for t in [1.05, 1.2, 1.5, 2.0, 5.0, 20.0]:
            assert Pareto(1.0, Pareto.shape_for_mean(t)).mean() == pytest.approx(t, rel=1e-13)
        for t in [1.4, 1.6, 2.0, 4.0, 10.0]:
            assert Weibull(1.0, Weibull.shape_for_mean(t)).mean() == pytest.approx(t, rel=1e-13)
        for C in [0.5, 2.0, 5.0]:
            for t in [1.1, 1.5, 3.0]:
                a = Pareto.shape_for_mean(t, C)
                assert Pareto(C, a).mean() == pytest.approx(t, rel=1e-13)

    def test_laws_at_the_root_reproduce_their_shape(self):
        for law in ALL_LAWS + [Pareto(1.0, 1.5), Pareto(0.5, 8.0), Weibull(1.0, 2.0)]:
            if not isinstance(law, Geometric):
                args = (law.C,) if isinstance(law, Pareto) else ()
                assert type(law).shape_for_mean(law.mean(), *args) \
                    == pytest.approx(law.alpha, rel=1e-9)

    def test_climb_steps_back_from_refusals_and_overshoots(self):
        def refused_from_50(slope_factor):
            def fn(a):
                if a >= 50.0:
                    raise ParameterError("outside the domain")
                return 1.0 + 1.0 / a, -slope_factor / a**2
            return fn
        # exact slopes on a convex map climb to the root at 40 without passing it
        assert _climb(refused_from_50(1.0), 1.025, 2.0) == pytest.approx(40.0, rel=1e-12)
        # slopes ten times too flat overshoot into the refusal and past the root:
        # both end the bracket, and halving back still finds the root
        assert _climb(refused_from_50(0.1), 1.025, 2.0) == pytest.approx(40.0, rel=1e-12)
        # with the root at 100, past the refusal, that refusal is raised
        with pytest.raises(ParameterError):
            _climb(refused_from_50(1.0), 1.01, 2.0)
        # refused at start: raised from that one evaluation
        calls = []

        def refused(a):
            calls.append(a)
            raise ParameterError("outside the domain")
        with pytest.raises(ParameterError):
            _climb(refused, 1.025, 2.0)
        assert calls == [2.0]
        # a start past the root is refused, and so is a climb that cannot follow its map
        with pytest.raises(OutOfRangeError):
            _climb(refused_from_50(1.0), 1.025, 45.0)
        with pytest.raises(ConvergenceError):
            _climb(refused_from_50(1e6), 1.025, 2.0)
        # a slope past float range gives a step of 0, which does not make a root
        with pytest.raises(ConvergenceError):
            _climb(lambda a: (1.0 + 1.0 / a, -math.inf), 1.025, 2.0)

    def test_climb_on_a_concave_map(self):
        # ln(mean - 1) = -a^2 is concave: every Newton step from the left lands
        # past the root at 2, and is halved back
        def fn(a):
            return 1.0 + math.exp(-a * a), -2.0 * a * math.exp(-a * a)
        assert _climb(fn, 1.0 + math.exp(-4.0), 0.5) == pytest.approx(2.0, rel=1e-12)

    def test_chi_floor(self):
        # the chi range reaches toward float range: halving alpha from 1 leaves
        # it at 1/256, and a start for 1e250 is bisected back from there
        a = Weibull.shape_for_mean(1e250)
        assert _weibull_mean_slope(1.0, a)[0] == pytest.approx(1e250, rel=1e-9)
        # past about 1e303 the slope leaves float range first: the root is bisected
        a = Weibull.shape_for_mean(1e305)
        assert _weibull_mean_slope(1.0, a)[1] == -math.inf
        assert _weibull_mean_slope(1.0, a)[0] == pytest.approx(1e305, rel=1e-12)
        # a Weibull(1, alpha) law that far out is refused, and so is the fit that needs it
        from onoffgraph.moments import MomentSet, fit

        with pytest.raises(ParameterError):
            Weibull(1.0, a)
        # mu0 = mu1 = 2e-130 with n = 2: fbar1 = mu0 / 2, so the chi target is
        # 1e130, whose alpha (0.0102) lies below the Weibull refusal at 0.0118
        m = MomentSet(mu=np.array([2e-130, 2e-130]), n=2)
        with pytest.raises(ParameterError, match="weibull"):
            fit(m, "weibull_geometric")

    def test_chi_floor_literal(self):
        # the edges the docstrings quote: chi leaves float range where
        # Gamma(1 + 1/alpha) does (alpha near 0.0058), and a Weibull(1, alpha)
        # law is refused where its variance does, with Gamma(1 + 2/alpha) (0.0118)
        from scipy.optimize import brentq

        log_max = math.log(sys.float_info.max)
        edge = brentq(lambda a: gammaln(1.0 + 1.0 / a) - log_max, 1e-3, 1.0, xtol=1e-12)
        assert edge == pytest.approx(0.0058, abs=1e-4)
        assert math.isfinite(_weibull_mean_slope(1.0, 1.01 * edge)[0])
        assert _weibull_mean_slope(1.0, 0.99 * edge)[0] == math.inf
        edge = brentq(lambda a: gammaln(1.0 + 2.0 / a) - log_max, 1e-3, 1.0, xtol=1e-12)
        assert edge == pytest.approx(0.0118, abs=1e-4)
        Weibull(1.0, 1.01 * edge)
        with pytest.raises(ParameterError):
            Weibull(1.0, 0.99 * edge)


class TestSampling:
    def test_examples(self):
        assert Geometric(0.5).sample(0.9) == 1
        assert Geometric(0.5).sample(0.3) == 2

    def test_nan_draws_are_refused(self):
        # NaN lies outside (0, 1] as any other bad draw does; empty draws stay empty
        for law in [Geometric(0.3), Pareto(1.0, 3.0), Weibull(1.0, 0.5)]:
            for sampler in (law, law.residual()):
                for u in (math.nan, np.array([0.5, math.nan]), np.array([[math.nan]])):
                    with pytest.raises(ValueError, match=r"\(0, 1\]"):
                        sampler.sample(u)
            assert law.sample(np.empty(0)).shape == (0,)
            assert law.residual().sample(np.empty((0, 2))).shape == (0, 2)

    def test_bracketing_postcondition(self):
        # the contract: survival(i+1) < u <= survival(i)
        rng = np.random.default_rng(5)
        for law in ALL_LAWS + [Pareto(1.0, 2.0)]:
            u = 1.0 - rng.random(2000)
            i = law.sample(u)
            assert np.all(law.survival(i + 1) < u)
            assert np.all(law.survival(i) >= u)

    def test_pareto_boundary_case(self):
        law = Pareto(1.0, 2.0)
        i = law.sample(0.2)
        assert law.survival(i + 1) < 0.2 <= law.survival(i)

    def test_geometric_small_p(self):
        # the candidate must use the base survival raises, 1 - p as rounded:
        # log1p(-p) put it 812,699,071 draws short, past the search's reach
        law = Geometric(1e-12)
        i = law.sample(2.0**-53)
        assert i == 36_737_613_268_858
        assert law.survival(i + 1) < 2.0**-53 <= law.survival(i)

    def test_candidates_past_the_cap(self):
        assert Pareto(1e20, 3.0).sample(0.5) == RESIDUAL_CAP
        law = Pareto(1e6, 1.0001)
        draws = law.sample(np.array([2.0**-53, 0.5]))
        assert draws[0] == RESIDUAL_CAP
        assert law.survival(draws[1] + 1) < 0.5 <= law.survival(draws[1])

    @pytest.mark.parametrize("law", EXTREME_LAWS, ids=str)
    def test_matches_search_on_every_draw(self, law):
        # u: uniform draws, each survival(k) and its float neighbours, log-uniform
        # draws down to 2^-1074, and every power of two below 2^-900
        rng = np.random.default_rng(41)
        k = np.unique(np.concatenate([np.arange(1, 400),
                                      np.geomspace(1.0, 2.0**62, 400).astype(np.int64)]))
        s = law.survival(k)
        u = np.concatenate([1.0 - rng.random(4000), s, np.nextafter(s, 0.0),
                            np.nextafter(s, 2.0), np.exp2(-rng.uniform(0.0, 1074.0, 1000)),
                            np.exp2(-np.arange(900.0, 1075.0))])
        u = u[(u > 0.0) & (u <= 1.0)]
        want = loop_sample(law, u)
        assert np.array_equal(law.sample(u), want)
        half = u.size // 2  # the simulator draws (edges x pairs) blocks
        assert np.array_equal(law.sample(u[:2 * half].reshape(2, half)),
                              want[:2 * half].reshape(2, half))

    @pytest.mark.parametrize("law", EXTREME_LAWS + ALL_LAWS, ids=str)
    def test_simulator_blocks_match_search(self, law):
        # (edges x pairs) blocks of 1 - rng.random(), as the simulator draws
        # them, whether or not they pass the block-wide certificate; then the
        # same with u at survival(k) and its float neighbours in the first
        # rows, where a candidate unchecked by the per-draw test can miss by one
        rng = np.random.default_rng(47)
        u = 1.0 - rng.random((100, 163))
        assert np.array_equal(law.sample(u), loop_sample(law, u))
        s = law.survival(np.arange(2, 400))
        near = np.concatenate([s, np.nextafter(s, 0.0), np.nextafter(s, 2.0)])
        near = near[(near >= 2.0**-900) & (near <= 1.0)]
        u.flat[:near.size] = near
        assert np.array_equal(law.sample(u), loop_sample(law, u))

    def test_campaign_blocks_are_not_searched(self, monkeypatch):
        # every switch block of n = 100, K = 10,000 campaigns on GG and on
        # Pareto(1,3)/Pareto(1,2.5) is drawn without a search, and u is left
        # unwritten. Pareto draws above survival(2) are 1 by one comparison,
        # so _quantile sees exactly the others; GG blocks reach it whole.
        # _slack is taken once per _quantile call, at its largest x
        searched, slack_ndims, drawn, quantile_sizes = [], [], [], []
        bracket, sample = laws._bracket, laws.DurationLaw.sample

        def counting(survival, u, start):
            searched.append(u.size)
            return bracket(survival, u, start)

        def recording_sample(self, u):
            before = np.array(u, dtype=np.float64)
            i = sample(self, u)
            assert np.array_equal(u, before)
            drawn.append((self, before))
            return i

        for cls in (Geometric, Pareto):
            def recording(self, x, slack=cls._slack):
                slack_ndims.append(np.ndim(x))
                return slack(self, x)

            def recording_quantile(self, u, quantile=cls._quantile):
                quantile_sizes.append(u.size)
                return quantile(self, u)

            monkeypatch.setattr(cls, "_slack", recording)
            monkeypatch.setattr(cls, "_quantile", recording_quantile)
        monkeypatch.setattr(laws.DurationLaw, "sample", recording_sample)
        for on, off in ((Geometric(0.3), Geometric(0.8)), (Pareto(1.0, 3.0), Pareto(1.0, 2.5))):
            model = ModelSpec(on_law=on, off_law=off, n=100)
            _, switches = _phase_switches(model, 10_000, np.random.default_rng(3))
            for record in (slack_ndims, drawn, quantile_sizes):
                record.clear()
            monkeypatch.setattr(laws, "_bracket", counting)
            blocks = sum(1 for _ in switches)
            monkeypatch.setattr(laws, "_bracket", bracket)
            assert blocks > 10 and searched == [] and len(drawn) == 2 * blocks
            rest = [u.size if isinstance(law, Geometric) else np.count_nonzero(u <= law.survival(2))
                    for law, u in drawn]
            assert quantile_sizes == [size for size in rest if size]
            assert len(slack_ndims) == len(quantile_sizes) and set(slack_ndims) == {0}

    def test_blocks_with_draws_below_one_are_certified(self, monkeypatch):
        # Weibull(1, 0.5) puts a draw or so per 100 x 163 block within the
        # slack of x = 0, where the bracket edge is exact. Those draws are 1
        # by the head test, so the certificate passes every block, which then
        # equals the search on every draw
        law = Weibull(1.0, 0.5)
        rng = np.random.default_rng(5)
        blocks = [1.0 - rng.random((100, 163)) for _ in range(20)]
        assert sum(np.any(law._quantile(u) < law._slack(law._quantile(u).max()))
                   for u in blocks) > 10
        slack_ndims = []

        def recording(self, x, slack=Weibull._slack):
            slack_ndims.append(np.ndim(x))
            return slack(self, x)

        def no_search(survival, u, start):
            raise AssertionError(f"{u.size} draws searched")

        monkeypatch.setattr(Weibull, "_slack", recording)
        monkeypatch.setattr(laws, "_bracket", no_search)
        drawn = [law.sample(u) for u in blocks]
        monkeypatch.undo()
        assert slack_ndims == [0] * len(blocks)
        for u, got in zip(blocks, drawn):
            assert np.array_equal(got, loop_sample(law, u))

    def test_input_shapes_and_values(self):
        # u is read, never written; 0-d gives an int, empty keeps its shape
        # (the residual laws' samplers keep the same contract)
        u = 1.0 - np.random.default_rng(8).random((40, 7))
        samplers = [law.sample for law in ALL_LAWS] + [law.residual().sample for law in ALL_LAWS]
        for sample in samplers:
            before = u.copy()
            assert np.array_equal(sample(u).T, sample(u.T))
            assert np.array_equal(u, before)
            for scalar in (0.5, np.float64(0.5), np.array(0.5)):
                assert type(sample(scalar)) is int
            for shape in ((0,), (3, 0)):
                empty = sample(np.empty(shape))
                assert empty.shape == shape and empty.dtype == np.int64
            for bad in (0.0, -0.5, 1.5, np.array([0.5, 0.0]), np.array([np.nan, 1.5])):
                with pytest.raises(ValueError):
                    sample(bad)
            # a NaN u lies outside (0, 1] too, alone or in a block
            for bad in (np.nan, np.array([0.3, np.nan, 1e-5])):
                with pytest.raises(ValueError):
                    sample(bad)
        capped = Pareto(1e6, 1.0001).sample(np.array([2.0**-53, 0.5]))
        assert capped.tolist() == [RESIDUAL_CAP, Pareto(1e6, 1.0001).sample(0.5)]

    def test_blocks_mixing_small_and_large_x(self):
        # u = 1 puts x on the integer 0, so these blocks take the per-draw
        # test, where the small x, whose slack is 1e-9 (1 + 1 / (alpha lam))
        # near 0, and the large x of the same block each take their own slack
        rng = np.random.default_rng(9)
        for law in (Weibull(2.0, 3.0), Weibull(1.0, 2.0)):
            u = np.concatenate([1.0 - rng.random(3000) * 0.5, np.exp2(-rng.uniform(1.0, 1074.0, 3000)),
                                law.survival(np.arange(1, 6)), [1.0]])
            x = law._quantile(u)
            assert x.min() < 1.0 and x.max() > 7.0
            assert np.array_equal(law.sample(u), loop_sample(law, u))

    def test_draws_past_2_53_bracket(self):
        # past 2^53 survival steps only every thousand or so i, and the search
        # from the candidate still finds the one i where it crosses u
        law = Pareto(1e19, 3.0)
        for u in (0.5, np.array([0.5, 0.9, 0.35])):
            i = law.sample(u)
            assert np.all(law.survival(i + 1) < u) and np.all(u <= law.survival(i))
        assert law.sample(0.5) > 2**61

    def test_frequencies_match_pmf(self):
        # 1e6 draws per family; each bucket within 4 binomial sds
        rng = np.random.default_rng(123)
        M = 1_000_000
        for law in [Geometric(0.3), Weibull(1.0, 0.5), Pareto(2.0, 4.0)]:
            u = 1.0 - rng.random(M)
            draws = law.sample(u)
            for k in range(1, 8):
                pk = float(law.pmf(k))
                freq = np.mean(draws == k)
                se = math.sqrt(pk * (1 - pk) / M)
                assert abs(freq - pk) <= 4 * se + 1e-9

    def test_residual_sampling(self):
        rng = np.random.default_rng(11)
        res = Pareto(1.0, 2.5).residual()
        u = 1.0 - rng.random(200_000)
        draws = res.sample(u)
        for k in range(1, 6):
            pk = float(res.pmf(k))
            freq = np.mean(draws == k)
            se = math.sqrt(pk * (1 - pk) / len(u))
            assert abs(freq - pk) <= 4 * se + 1e-9
        assert draws.max() > 1024  # the heavy tail is reached

    def test_residual_bracketing_postcondition(self):
        # the DurationLaw contract: survival(k+1) < u <= survival(k)
        rng = np.random.default_rng(6)
        for law in ALL_LAWS:
            res = law.residual()
            u = 1.0 - rng.random(2000)
            k = res.sample(u)
            assert np.all(res.survival(k + 1) < u)
            assert np.all(res.survival(k) >= u)

    def test_tail_sums_match_partial_sums(self):
        k = np.arange(1, 300)
        for law in ALL_LAWS:
            head = np.concatenate([[0.0], np.cumsum(law.survival(k[:-1]))])
            assert np.allclose(law.tail_sum(k), law.mean() - head, rtol=1e-9, atol=1e-12)

    def test_heavy_residual_is_fast_and_exact(self):
        # alpha = 1.3 once hung; T(k) = zeta(alpha, k) for C = 1, and mean T(1)
        law = Pareto(1.0, 1.3)
        res = law.residual()
        mu = float(scipy_zeta(1.3, 1.0))
        for u in (0.999, 1e-3):
            t0 = time.perf_counter()
            k = res.sample(u)
            assert time.perf_counter() - t0 < 1.0
            assert scipy_zeta(1.3, k + 1.0) / mu < u <= scipy_zeta(1.3, float(k)) / mu
        assert res.sample(1e-3) > 10**9

    def test_residual_cap(self):
        # draws past int64 range come back as the documented cap
        res = Pareto(1.0, 1.01).residual()
        assert RESIDUAL_CAP == 2**62
        assert res.survival(RESIDUAL_CAP) >= 0.5
        assert res.sample(0.5) == RESIDUAL_CAP
        assert res.sample(np.array([0.5, 0.999])).tolist() == [RESIDUAL_CAP, 1]

    def test_one_sampler_entry(self):
        # laws.py defines sample once, on DurationLaw: residual laws draw through it too
        tree = ast.parse(Path(laws.__file__).read_text())
        owners = [(cls.name, node.name) for cls in ast.walk(tree) if isinstance(cls, ast.ClassDef)
                  for node in cls.body if getattr(node, "name", None) == "sample"]
        defs = [node for node in ast.walk(tree)
                if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node.name == "sample"]
        assert owners == [("DurationLaw", "sample")] and len(defs) == 1
        assert issubclass(ResidualLaw, DurationLaw)
        for cls in (Geometric, Weibull, Pareto, ResidualLaw):
            assert cls.sample is DurationLaw.sample


class TestConfig:
    def test_round_trip(self):
        for law in ALL_LAWS:
            clone = law_from_config(law.to_config())
            assert clone == law

    def test_examples(self):
        assert law_from_config({"kind": "geometric", "p": 0.3}) == Geometric(0.3)
        assert law_from_config({"kind": "weibull", "lambda": 1.0, "alpha": 0.5}) == Weibull(1.0, 0.5)
        assert law_from_config({"kind": "pareto", "C": 2.0, "alpha": 4.0}) == Pareto(2.0, 4.0)

    def test_refuses_weibull_with_truncated_mean(self):
        # no series is truncated: a law is refused only where its mean or variance
        # leaves float range (alpha below 0.0118 at lambda = 1), or where lambda is
        # so small that survival would read 0 where (i - 1)^alpha overflows
        for cfg in [(1.0, 0.005), (1.0, 0.01), (1e-306, 100.0), (5e-324, 1.0)]:
            with pytest.raises(ParameterError):
                Weibull(*cfg)
            with pytest.raises(ParameterError):
                law_from_config({"kind": "weibull", "lambda": cfg[0], "alpha": cfg[1]})
        assert Weibull(1.0, 0.2).alpha == 0.2
        cfg = {"kind": "weibull", "lambda": 1.0, "alpha": 0.05}
        assert law_from_config(cfg) == Weibull(1.0, 0.05)

    def test_unknown_kind(self):
        for kind in ("zipf", None, ["geometric"], {"geometric": 1}, 3, "Geometric"):
            with pytest.raises(ParameterError, match="unknown law kind"):
                law_from_config({"kind": kind, "p": 0.3, "s": 2.0})
        with pytest.raises(ParameterError, match="unknown law kind"):
            law_from_config({"p": 0.3})

    def test_missing_key_named_in_config_order(self):
        for cfg, key in [({"kind": "geometric"}, "'p'"), ({"kind": "weibull"}, "'lambda'"),
                         ({"kind": "weibull", "alpha": 0.5}, "'lambda'"),
                         ({"kind": "weibull", "lambda": 1.0}, "'alpha'"),
                         ({"kind": "pareto", "alpha": 3.0}, "'C'")]:
            with pytest.raises(KeyError, match=f"{cfg['kind']} law needs key {key}"):
                law_from_config(cfg)
        # a missing key is named before a bad value of a later one is refused
        with pytest.raises(KeyError, match="'lambda'"):
            law_from_config({"kind": "weibull", "alpha": "half"})

    def test_config_table(self):
        # LAW_KINDS lists each kind once; to_config writes its keys in table order
        assert {cls for cls, _ in LAW_KINDS.values()} == {Geometric, Weibull, Pareto}
        for law in ALL_LAWS:
            cfg = law.to_config()
            cls, keys = LAW_KINDS[cfg["kind"]]
            assert type(law) is cls and list(cfg) == ["kind", *keys]
        assert Weibull(2.0, 0.5).to_config() == {"kind": "weibull", "lambda": 2.0, "alpha": 0.5}
        with pytest.raises(NotImplementedError):
            Pareto(1.0, 3.0).residual().to_config()

    def test_one_config_writer(self):
        # laws.py defines to_config once, on DurationLaw, and law_from_config
        # names no kind: both read LAW_KINDS
        tree = ast.parse(Path(laws.__file__).read_text())
        owners = [(cls.name, node.name) for cls in ast.walk(tree) if isinstance(cls, ast.ClassDef)
                  for node in cls.body if getattr(node, "name", None) == "to_config"]
        defs = [node for node in ast.walk(tree)
                if isinstance(node, ast.FunctionDef) and node.name == "to_config"]
        assert owners == [("DurationLaw", "to_config")] and len(defs) == 1
        (reader,) = [node for node in tree.body
                     if isinstance(node, ast.FunctionDef) and node.name == "law_from_config"]
        texts = {node.value for node in ast.walk(reader) if isinstance(node, ast.Constant)}
        assert not texts & set(LAW_KINDS)


class TestTailIndex:
    def test_values(self):
        for law in ALL_LAWS:
            assert law.tail_index == (law.alpha if isinstance(law, Pareto) else math.inf)
            assert law.tail_scale == (law.C if isinstance(law, Pareto) else math.inf)
        assert Pareto(2.0, 3.5).residual().tail_index == 2.5
        assert Pareto(2.0, 3.5).residual().tail_scale == 2.0
        assert Weibull(1.0, 0.5).residual().tail_index == math.inf

    def test_survival_exponent(self):
        # past its tail_scale a Pareto survival falls as i^-tail_index: its log
        # slope over a doubling far out
        for law in ALL_LAWS + [Pareto(1e6, 1.0001), Pareto(0.5, 8.0)]:
            if law.tail_index < math.inf:
                i = 1e9 * (1.0 + law.tail_scale)
                slope = math.log(law.survival(2 * i) / law.survival(i)) / math.log(2.0)
                assert slope == pytest.approx(-law.tail_index, rel=1e-3)


class TestLawInterface:
    """The fit, the covariance tail and the model ask a law, never its class."""

    SRC = Path(laws.__file__).parent

    def test_rate_to_parameter(self):
        # a geometric p is the rate itself, not 1/(1/rate), flagged outside
        # (0, 1); a shape law refuses a mean target 1/rate <= 1 before it
        # solves, by shape_for_mean
        for rate in map(np.float64, (0.3, 1e-300, 0.0, 1.0, -0.5, 2.0)):
            ok, solve = Geometric.param_for_rate(rate)
            assert solve() is rate and ok == (0.0 < rate < 1.0)
        for cls in (Pareto, Weibull):
            ok, solve = cls.param_for_rate(0.4)
            assert ok and solve() == cls.shape_for_mean(1.0 / 0.4)
            for rate, got in ((0.0, "0.0"), (-0.5, "-0.5"), (1.0, "1.0"), (4.0, "0.25")):
                with pytest.raises(IncompatibleMomentsError,
                                   match=f"^{cls.__name__.lower()} mean target must exceed 1, got {got}$"):
                    cls.param_for_rate(rate)

    def test_fit_and_tail_name_no_law_class(self):
        classes = {"DurationLaw", "Geometric", "Weibull", "Pareto", "ResidualLaw"}
        for module, name in (("moments", "_fit_two_lag"), ("asymp", "_tail_exponents")):
            tree = ast.parse((self.SRC / f"{module}.py").read_text())
            (fn,) = [node for node in tree.body
                     if isinstance(node, ast.FunctionDef) and node.name == name]
            names = {node.id for node in ast.walk(fn) if isinstance(node, ast.Name)}
            attrs = {node.attr for node in ast.walk(fn) if isinstance(node, ast.Attribute)}
            assert not names & classes and not attrs & {"p", "lam", "alpha", "C"}, name

    def test_no_private_name_imported_from_a_sibling(self):
        for path in self.SRC.glob("*.py"):
            for node in ast.walk(ast.parse(path.read_text())):
                if isinstance(node, ast.ImportFrom) and node.level:
                    private = [alias.name for alias in node.names if alias.name.startswith("_")]
                    assert not private, f"{path.name}:{node.lineno} imports {private}"

    def test_moments_imports_no_scipy(self):
        tree = ast.parse((self.SRC / "moments.py").read_text())
        modules = [alias.name for node in ast.walk(tree) if isinstance(node, ast.Import)
                   for alias in node.names]
        modules += [node.module for node in ast.walk(tree)
                    if isinstance(node, ast.ImportFrom) and not node.level]
        assert not [m for m in modules if m.split(".")[0] == "scipy"]
