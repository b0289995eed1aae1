import math
import time

import numpy as np
import pytest
from scipy.special import zeta as scipy_zeta

from onoffgraph.errors import InfiniteMeanError, OutOfRangeError, ParameterError
from onoffgraph.laws import (
    _CHI_FLOOR,
    RESIDUAL_CAP,
    Geometric,
    Pareto,
    Weibull,
    chi_like,
    hurwitz_like,
    invert_chi_like,
    invert_hurwitz_like,
    invert_zeta_like,
    law_from_config,
    zeta_like,
    _invert_decreasing,
)

ALL_LAWS = [Geometric(0.3), Geometric(0.8), Weibull(1.0, 0.5), Weibull(1.0, 1.0),
            Pareto(1.0, 3.0), Pareto(2.0, 4.0), Pareto(1.0, 2.5)]


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

    def test_monotone(self):
        i = np.arange(1, 200)
        for law in ALL_LAWS:
            s = law.survival(i)
            assert np.all(np.diff(s) <= 0)

    @pytest.mark.parametrize("bad", [
        lambda: Geometric(0.0), lambda: Geometric(1.0), lambda: Geometric(-0.2),
        lambda: Weibull(0.0, 1.0), lambda: Weibull(1.0, 0.0),
        lambda: Pareto(0.0, 2.0), lambda: Pareto(1.0, 0.0),
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

    def test_mean_equals_survival_sum(self):
        i = np.arange(1, 200_000)
        for law in ALL_LAWS:
            direct = law.survival(i).sum()
            tol = 1e-6 if isinstance(law, Pareto) else 1e-10  # heavy power tail
            assert law.mean() == pytest.approx(direct, rel=tol)


class TestResidual:
    def test_examples(self):
        res = Geometric(0.3).residual()
        assert res.pmf(2) == pytest.approx(0.21, rel=1e-14)
        for law in ALL_LAWS:
            assert law.residual().pmf(1) == pytest.approx(1 / law.mean(), rel=1e-14)
        res = Pareto(1.0, 2.0).residual()
        assert res.pmf(2) == pytest.approx(0.25 / (math.pi**2 / 6), rel=1e-12)

    def test_geometric_residual_is_geometric(self):
        p = 0.3
        res = Geometric(p).residual()
        k = np.arange(1, 60)
        assert np.max(np.abs(res.pmf(k) - Geometric(p).pmf(k))) <= 1e-14

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
        assert zeta_like(2.0) == pytest.approx(math.pi**2 / 6, abs=1e-11)
        for a in SERIES_ALPHAS:
            assert zeta_like(a) == pytest.approx(euler_maclaurin_hurwitz(1.0, a),
                                                 abs=1e-11, rel=1e-12)

    def test_chi(self):
        assert chi_like(1.0) == pytest.approx(1 / (1 - math.exp(-1)), abs=1e-11)

    def test_hurwitz(self):
        for C in [0.5, 1.0, 2.0, 5.0]:
            for a in SERIES_ALPHAS:
                assert hurwitz_like(C, a) == pytest.approx(euler_maclaurin_hurwitz(C, a),
                                                           abs=1e-11, rel=1e-12)
        # brute force with generous tail for C != 1
        i = np.arange(1, 2_000_000, dtype=np.float64)
        brute = float(np.sum((2.0 / (2.0 + i - 1.0)) ** 4))
        assert hurwitz_like(2.0, 4.0) == pytest.approx(brute, rel=1e-9)

    def test_divergence_boundary(self):
        with pytest.raises(OutOfRangeError):
            zeta_like(1.0)
        with pytest.raises(OutOfRangeError):
            hurwitz_like(2.0, 0.9)
        with pytest.raises(OutOfRangeError):
            chi_like(0.2)  # the sum would stop short of its tolerance

    def test_scale_overflow_is_refused(self):
        # C^alpha past float range is a typed refusal, not an OverflowError
        with pytest.raises(ParameterError):
            hurwitz_like(100.0, 200.0)
        with pytest.raises(ParameterError):
            Pareto(100.0, 200.0)
        with pytest.raises(ParameterError):
            invert_hurwitz_like(100.0, 1.0001)
        # 100^150 = 1e300 is still in range, and so is the law
        direct = float(np.sum((100.0 / (100.0 + np.arange(20_000.0))) ** 150))
        assert hurwitz_like(100.0, 150.0) == pytest.approx(direct, rel=1e-12)
        assert Pareto(100.0, 150.0).tail_sum(1) == hurwitz_like(100.0, 150.0)


class TestInversion:
    def test_examples(self):
        assert invert_zeta_like(math.pi**2 / 6) == pytest.approx(2.0, abs=1e-8)
        assert invert_chi_like(1 / (1 - math.exp(-1))) == pytest.approx(1.0, abs=1e-8)

    def test_out_of_range(self):
        with pytest.raises(OutOfRangeError):
            invert_zeta_like(0.9)
        with pytest.raises(OutOfRangeError):
            invert_zeta_like(1.0)
        with pytest.raises(OutOfRangeError):
            invert_chi_like(1.0 + math.exp(-1))  # infimum of the chi range
        with pytest.raises(OutOfRangeError):
            invert_chi_like(1e3)  # above chi at the smallest alpha Weibull accepts

    def test_round_trip_grid(self):
        for t in [1.05, 1.2, 1.5, 2.0, 5.0, 20.0]:
            assert zeta_like(invert_zeta_like(t)) == pytest.approx(t, abs=1e-9)
        for t in [1.4, 1.6, 2.0, 4.0, 10.0]:
            assert chi_like(invert_chi_like(t)) == pytest.approx(t, abs=1e-9)
        for C in [0.5, 2.0, 5.0]:
            for t in [1.1, 1.5, 3.0]:
                a = invert_hurwitz_like(C, t)
                assert hurwitz_like(C, a) == pytest.approx(t, abs=1e-9)

    def test_bracket_steps_back_from_refusals(self):
        # fn is refused from a = 50 on; the root at 40 is still found
        def fn(a):
            if a >= 50.0:
                raise ParameterError("outside the domain")
            return 1.0 + 1.0 / a
        assert _invert_decreasing(fn, 1.025, 1.0, 2.0, 1.0, "f") == pytest.approx(40.0, rel=1e-9)
        # with the root past the refusal, that refusal is raised
        with pytest.raises(ParameterError):
            _invert_decreasing(fn, 1.01, 1.0, 2.0, 1.0, "f")
        # a non-finite value is stepped back from in the same way
        assert _invert_decreasing(lambda a: 1.0 + 1.0 / a if a < 50.0 else math.inf,
                                  1.025, 1.0, 2.0, 1.0, "f") == pytest.approx(40.0, rel=1e-9)
        # refused at start: raised after that one evaluation
        calls = []

        def refused(a):
            calls.append(a)
            raise ParameterError("outside the domain")
        with pytest.raises(ParameterError):
            _invert_decreasing(refused, 1.025, 1.0, 2.0, 1.0, "f")
        assert calls == [2.0]
        calls.clear()
        with pytest.raises(OutOfRangeError):
            _invert_decreasing(lambda a: calls.append(a) or math.nan, 1.025, 1.0, 2.0, 1.0, "f")
        assert calls == [2.0]

    def test_chi_floor(self):
        # the top of the chi range is its value at the smallest alpha Weibull accepts
        Weibull(1.0, _CHI_FLOOR)
        with pytest.raises(ParameterError):
            Weibull(1.0, _CHI_FLOOR - 1e-9)
        top = chi_like(_CHI_FLOOR)
        a = invert_chi_like(top)
        assert a == pytest.approx(_CHI_FLOOR, abs=1e-9)
        assert Weibull(1.0, a).mean() == pytest.approx(top, abs=1e-9)


class TestSampling:
    def test_examples(self):
        assert Geometric(0.5).sample(0.9) == 1
        assert Geometric(0.5).sample(0.3) == 2

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
        # the mean series stops at 2^22 terms; its tail bound there is 8.2e-4
        # at alpha = 0.2 and 8.8e-15 at alpha = 0.25 (lambda = 1)
        for alpha in [0.05, 0.2]:
            with pytest.raises(ParameterError):
                Weibull(1.0, alpha)
            with pytest.raises(ParameterError):
                law_from_config({"kind": "weibull", "lambda": 1.0, "alpha": alpha})
        assert Weibull(1.0, 0.25).alpha == 0.25
        assert law_from_config({"kind": "weibull", "lambda": 1.0, "alpha": 0.5}) == Weibull(1.0, 0.5)

    def test_unknown_kind(self):
        with pytest.raises(ParameterError):
            law_from_config({"kind": "zipf", "s": 2.0})
