import ast
import dataclasses
import itertools
import json
import math
import time
import warnings
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from onoffgraph import asymp
from onoffgraph.asymp import (
    K0,
    K_CAP,
    DivergenceWarning,
    MomentCov,
    ParamCov,
    finiteness_check,
    general_moment_cov,
    geometric_moment_cov,
    param_cov,
)
from onoffgraph.errors import ParameterError
from onoffgraph.laws import Geometric, Pareto, Weibull
from onoffgraph.harness import ExperimentConfig, emit_outputs, run_campaign
from onoffgraph.moments import FAMILIES, MomentSet, fit, theoretical_moment_set
from onoffgraph.renewal import (
    _law_arrays,
    _residual_arrays,
    autocovariance,
    joint_distribution,
)
from onoffgraph.simulate import ModelSpec, simulate_edge_trace

import test_laws
from test_renewal import ALL_MODELS, EXTREME_LAWS, loop_autocovariance

HEAVY = ModelSpec(on_law=Pareto(1.0, 4.0), off_law=Geometric(0.5), n=100)
PARPAR = ModelSpec(on_law=Pareto(1.0, 3.0), off_law=Pareto(1.0, 2.5), n=100)
# light and heavy laws, fast and slow mixing, with the extremes of test_renewal
SCHEDULE_LAWS = [Geometric(0.3), Geometric(0.05), Weibull(1.0, 0.5), Weibull(0.3, 0.7),
                 Pareto(1.0, 3.0), Pareto(2.0, 4.0), Pareto(3e4, 40.0), Pareto(1.0, 60.0),
                 *EXTREME_LAWS]


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


def conv(a, b, k):
    """The first k coefficients of the product of the power series a and b."""
    return np.convolve(a[:k], b[:k])[:k]


def shift(a):
    """The power series a times z, cut to the length of a."""
    return np.concatenate(([0.0], a[:-1]))


def on_start_density(f, surv_f, g, surv_g, c):
    """u_m = P(an on-period starts at 1 + m | one starts at 1), m < len(f), by a loop.

    u is the power series 1 / (1 - F G), F and G the on- and off-time pmfs,
    and tends to c = 1 / E[X + Y]. The loop runs on the excess w = u - c,
    which solves w_m = sum_i h_i w_(m-i) - c P(X + Y > m) (plus 1 at m = 0),
    h the pmf of X + Y, so its rounding errors scale with w, not with c.
    F G has no term below z^2, so each w_m is one dot product with the terms
    before it.
    """
    k = len(f)
    u = np.zeros(k)
    u[0] = 1.0
    if k > 2:
        h = conv(f, g, k - 1)  # h[i] = P(X + Y = i + 2)
        w = -c * (surv_f[:k] + shift(conv(f, surv_g, k)))  # -c P(X + Y > m)
        w[0] += 1.0
        for m in range(2, k):
            w[m] += h[: m - 1] @ w[m - 2::-1]
        u[2:] = c + w[2:]
    return u


def convolution_pair_tables(model, k_max):
    """F-bar, the residual on-survival, S2 and F-bar S2 by power-series products.

    The second route to loop_general_tables' S2: with u = 1 / (1 - F G) from
    the loop on_start_density, R2 = u S_f shifted by one epoch and S2 = z G R2.
    """
    ex, ey = model.on_law.mean(), model.off_law.mean()
    f, surv_f = _law_arrays(model.on_law, k_max)
    g, surv_g = _law_arrays(model.off_law, k_max)
    fbar, res_surv_f = _residual_arrays(surv_f, ex)
    u = on_start_density(f, surv_f, g, surv_g, 1.0 / (ex + ey))
    S2 = shift(conv(g, conv(u, surv_f[1:], k_max), k_max))
    return fbar, res_surv_f, S2, conv(fbar, S2, k_max)


def set_partitions(items):
    if not items:
        yield []
        return
    first, rest = items[0], items[1:]
    for part in set_partitions(rest):
        for i in range(len(part)):
            yield part[:i] + [part[i] + [first]] + part[i + 1:]
        yield part + [[first]]


class GeneralTables:
    """The per-edge joint on-probabilities of every epoch set the lag sums of v0, v1, c01 need.

    By stationarity, the probability that an edge is on at every epoch of a
    set depends only on the set's gaps. Each set of at most four distinct
    epochs drawn from {1, 2, k, k+1} has gaps (), (d), (1, d), (d, 1) or
    (1, d, 1), and omega reads it from one of these tables:

    * rres[d]: P(on at 1 + d | on at 1) (residual start)
    * ta[k]  = P(on at 1, 2, k)
    * tb[k]  = P(on at 1, k, k+1)
    * qq[k]  = P(on at 1, 2, k, k+1)

    rres comes from autocovariance's gamma, ta from rres less its first-step
    term F-bar_1 s (s from loop_autocovariance), tb and qq from
    convolution_pair_tables.
    """

    def __init__(self, model, k_hi):
        fbar, res_surv, S2, fbar_S2 = convolution_pair_tables(model, k_hi + 2)
        _, s, _ = loop_autocovariance(model, k_hi + 2)
        self.rho = rho = model.rho
        self.rres = rho + autocovariance(model, k_hi + 2) / rho
        k = np.arange(k_hi + 2)
        # ta[k] valid for k >= 3, tb[k] for k >= 2, qq[k] for k >= 3
        self.ta = rho * (self.rres[k - 1] - fbar[0] * s[k - 2])
        self.tb = rho * (fbar_S2[k - 2] + res_surv[k])
        self.qq = self.tb - rho * fbar[0] * S2[k - 2]

    def omega(self, epochs):
        """P(on at every one of epochs) for one stationary edge.

        epochs holds Python ints, coincident ones merged, or int arrays over
        lags k >= 3 (such as k and k + 1), which keep one order among
        themselves and the ints; with arrays the result is an array over k.
        A gap is the 1 of a pattern when it is 1 at every k.
        """
        ts = sorted({int(t[0]) if isinstance(t, np.ndarray) else t: t for t in epochs}.items())
        gaps = [b - a for (_, a), (_, b) in zip(ts, ts[1:])]
        unit = [bool(np.all(gap == 1)) if isinstance(gap, np.ndarray) else gap == 1
                for gap in gaps]
        if not gaps:
            return self.rho
        if len(gaps) == 1:
            return self.rho * self.rres[gaps[0]]
        if len(gaps) == 2 and unit[0]:
            return self.ta[gaps[1] + 2]
        if len(gaps) == 2 and unit[1]:
            return self.tb[gaps[0] + 1]
        if len(gaps) == 3 and unit[0] and unit[2]:
            return self.qq[gaps[1] + 2]
        raise ValueError(f"epochs {[t for t, _ in ts]} have gaps outside (), (d), (1, d),"
                         " (d, 1) and (1, d, 1)")


def partition_mixed(tables, n, epochs):
    """E_s[prod_t A_n(t) for t in epochs] for the stationary n-edge process.

    The product expands over index tuples; tuples factorize across distinct
    edges, so each set partition of the epochs contributes n!/(n - b)!, b its
    number of blocks, times the product of its blocks' per-edge all-on
    probabilities.
    """
    total = 0.0
    for part in set_partitions(list(epochs)):
        term = float(math.prod(n - i for i in range(len(part))))
        for block in part:
            term = term * tables.omega(block)
        total = total + term
    return total


def mixed_moment(model, n, epochs):
    """partition_mixed on tables as long as the epochs' span; other gaps raise ValueError."""
    epochs = [int(t) for t in epochs]
    return float(partition_mixed(GeneralTables(model, max(epochs) - min(epochs) + 1), n, epochs))


def partition_moment_cov(model, n, k0=K0):
    """v0, v1, c01 as three lag series of partition_mixed moments, each with its fitted tail.

    The head holds the lags below 3, where the epochs 1, 2, k, k+1 do not all
    differ; the increments from k = 3 on are arrays over k. A Pareto(C, a)
    law's tables approach their limits as k^-(a-1) with corrections in
    k^-a, k^-(a+1) and k^-2(a-1), which the tails fit.
    """
    rho = model.rho
    m1 = n * rho
    tables = GeneralTables(model, k0)
    e12 = partition_mixed(tables, n, (1, 2))

    def lag_moments(k):
        """E[A(1)A(2)A(k)A(k+1)], E[A(1)A(k)A(k+1)] and E[A(1)A(2)A(k)]."""
        return [partition_mixed(tables, n, e) for e in ((1, 2, k, k + 1), (1, k, k + 1), (1, 2, k))]

    (m4_1, lead_1, _), (m4_2, lead_2, trail_2) = (lag_moments(k) for k in (1, 2))
    heads = (n * rho * (1 - rho) + 2 * n * rho * (tables.rres[1] - rho),
             m4_1 + 2 * m4_2 - 3 * e12**2,
             lead_1 + lead_2 + trail_2 - 3 * m1 * e12)
    ks = np.arange(3, k0 + 1)
    m4, lead, trail = lag_moments(ks)
    incs = (2 * n * rho * (tables.rres[ks - 1] - rho), 2 * (m4 - e12**2),
            lead + trail - 2 * m1 * e12)
    alphas = [law.alpha for law in (model.on_law, model.off_law) if isinstance(law, Pareto)]
    gammas = sorted(g for a in alphas for g in {a - 1.0, a, a + 1.0, 2.0 * (a - 1.0)}
                    if g * math.log(k0) < 700.0)  # k0^g in float range
    return [asymp._floored_sums(ks, inc, head, gammas, k0)[0] for inc, head in zip(incs, heads)]


def polynomial_moment_cov(n, p, q):
    """v0, v1, c01 for geometric on/off laws as polynomials in binomial raw moments: the oracle.

    The lag-decay factor is f = 1 - p - q, and each lag covariance is
    c1 f^k + c2 f^(2k) with the f powers absorbed into the coefficients, so the
    f = 0 case (p + q = 1) needs no perturbation. The expressions are rational
    in n, p and q; with Fraction arguments they are exact.
    """
    f = 1 - p - q
    rho = q / (p + q)
    # raw moments m_1..m_4 of Binomial(n, rho) via falling factorials
    ff = [1, n, n * (n - 1), n * (n - 1) * (n - 2), n * (n - 1) * (n - 2) * (n - 3)]
    m1 = ff[1] * rho
    m2 = ff[2] * rho**2 + ff[1] * rho
    m3 = ff[3] * rho**3 + 3 * ff[2] * rho**2 + ff[1] * rho
    m4 = ff[4] * rho**4 + 6 * ff[3] * rho**3 + 7 * ff[2] * rho**2 + ff[1] * rho

    # joint moments E[A(1) A(2)^i]
    mm1 = f * m2 + n * q * m1
    mm2 = f * f * m3 + f * (p - q + 2 * n * q) * m2 + (n * q * (1 - q) + n * n * q * q) * m1
    mm3 = (
        f**3 * m4
        + 3 * f * f * (p - q + n * q) * m3
        + f * (3 * n**2 * q**2 + 3 * n * p * q - 6 * n * q**2 + 3 * n * q
               + 2 * p**2 - 2 * p * q - p + 2 * q**2 - q) * m2
        + (n * (n - 1) * (n - 2) * q**3 + 3 * n * (n - 1) * q**2 + n * q) * m1
    )

    v0 = n * rho * (1 - rho) * (1 + f) / (1 - f)

    t1 = (f * f * m4 + f * (p - q + 2 * n * q) * m3
          + (n * q * (1 - q) + n * n * q * q) * m2 - mm1**2)
    # c1_f2 = c1 f^2 and c2_f3 = c2 f^3 from the lag decomposition
    # t_k = c1 f^k + c2 f^(2k); both are polynomial in f
    c1_f2 = ((f * (1 - 2 * rho) + n * rho * (1 + f)) * mm2
             - (n * f * rho * (1 - 2 * rho) + n * n * rho * rho * (1 + f)) * mm1)
    c2_f3 = mm3 + (2 * rho - 1 - 2 * n * rho) * mm2 + n * rho * rho * (n - 1) * mm1
    v1 = t1 + 2 * (c1_f2 / (1 - f) + c2_f3 * f / (1 - f * f))

    d1_f = (f - 2 * f * rho + n * q + 2 * f * n * rho) * (m2 - n * rho * m1)
    d2_f = m3 - (2 * n * rho - 2 * rho + 1) * m2 + n * rho * rho * (n - 1) * m1
    c01 = (d1_f / (1 - f) + d2_f * f / (1 - f * f)
           + (mm2 - mm1 * n * rho) / (1 - f))
    return v0, v1, c01


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

    def test_matches_exact_polynomial(self):
        # the polynomial oracle evaluated exactly at the float arguments; in
        # float it loses up to 1e-4 relative at p = 1e-6, n = 10^6
        grid = [1e-6, 0.002, 0.1, 0.3, 0.5, 0.7, 0.9, 0.999]
        for n in [2, 3, 4, 10, 100, 10**4, 10**6]:
            for p, q in itertools.product(grid, grid):
                mc = geometric_moment_cov(n, p, q)
                exact = polynomial_moment_cov(n, Fraction(p), Fraction(q))
                for got, want in zip((mc.v0, mc.v1, mc.c01), exact):
                    assert abs(Fraction(got) - want) <= Fraction(1e-11) * abs(want)

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


def gamma_oracle(n, p, q):
    """(g0, g1): the Jacobian row of p_hat = D / mu_hat(0) at the exact GG moments."""
    rho = q / (p + q)
    s0 = n * rho
    s1 = n * rho * (1 - p) + (n * n - n) * rho * rho
    return s1 / s0**2 + 1.0 - 1.0 / n, -1.0 / s0


def delta_method_cov(n, p, q, mc):
    """GG oracle: the hand-derived Jacobian of p_hat = D / mu_hat(0), q_hat = D / (n - mu_hat(0)).

    (g0, g1) and (h0, h1) are their rows in (mu_hat(0), mu_hat(1)) at the
    exact moments s0, s1, where D = mu_hat(0) - mu_hat(1) + (1 - 1/n) mu_hat(0)^2
    takes the value p s0, so that dD/dmu_hat(0) = g0 s0 + p and D / (n - s0) = q.
    """
    g0, g1 = gamma_oracle(n, p, q)
    s0 = n * q / (p + q)
    h0 = (g0 * s0 + p + q) / (n - s0)
    h1 = -1.0 / (n - s0)

    def cross(a0, a1, b0, b1):
        return a0 * b0 * mc.v0 + (a0 * b1 + a1 * b0) * mc.c01 + a1 * b1 * mc.v1

    s, t, r = cross(g0, g1, g0, g1), cross(h0, h1, h0, h1), cross(g0, g1, h0, h1)
    return ParamCov(("p", "q"), np.array([[s, r], [r, t]]))


def edge_estimator_jacobian(model, family, h=1e-3):
    """Five-point central differences of the code's own edge fit at the model's exact moments.

    D moves by about 2 mu_hat(0) per unit of mu_hat(0), so a Pareto/Pareto or
    Weibull/geometric fit at n = 100 bends within a step of 1e-2 (1.5e-4
    relative error in J M J^T); at 1e-3 the error is about 2e-8.
    """
    m = theoretical_moment_set(model)

    def params(ell, step):
        mu = m.mu.copy()
        mu[ell] += step
        return np.array(list(fit(MomentSet(mu=mu, n=m.n), family).params.values()))

    cols = [(8 * (params(ell, h) - params(ell, -h)) - params(ell, 2 * h) + params(ell, -2 * h))
            / (12 * h) for ell in (0, 1)]
    return np.array(cols).T  # J[i, l] = d param_i / d mu_hat(l)


GG_POINTS = [(100, 0.3, 0.8), (20, 0.6, 0.2), (100, 0.05, 0.9)]
# a model of each two-lag family, with its family's name
TWO_LAG_MODELS = [
    (ModelSpec(on_law=Geometric(0.3), off_law=Geometric(0.8), n=100), "geometric_geometric"),
    (PARPAR, "pareto_pareto"),
    (ModelSpec(on_law=Weibull(1.0, 0.5), off_law=Geometric(0.7), n=100), "weibull_geometric"),
]


class TestDeltaMethod:
    def test_gamma_example(self):
        g0, g1 = gamma_oracle(100, 0.3, 0.8)
        assert g0 == pytest.approx(1.989625, abs=1e-12)
        assert g1 == pytest.approx(-1.1 / 80, abs=1e-12)

    @pytest.mark.parametrize("model,family", TWO_LAG_MODELS, ids=[f for _, f in TWO_LAG_MODELS])
    def test_matches_differenced_fit(self, model, family):
        # param_cov is J M J^T, J the Jacobian of the code's own fit of the
        # family's parameters in (mu_hat(0), mu_hat(1))
        mc = general_moment_cov(model, model.n)
        J = edge_estimator_jacobian(model, family)
        want = J @ mc.matrix @ J.T
        np.testing.assert_allclose(param_cov(model).matrix, want, rtol=1e-6)

    def test_covariances_compare_by_value(self):
        # field by field, the matrix by np.array_equal: the dataclass __eq__
        # compared the matrices in a tuple and raised ValueError
        model = ModelSpec(on_law=Geometric(0.3), off_law=Geometric(0.8), n=100)
        mc = general_moment_cov(model, model.n)
        pc = param_cov(model, mc)
        for cov in (mc, pc):
            twin = dataclasses.replace(cov, matrix=cov.matrix.copy())
            assert cov == twin and not cov != twin
            moved = cov.matrix.copy()
            moved[1, 0] += 1.0
            assert cov != dataclasses.replace(cov, matrix=moved)
            for foreign in (cov.to_json(), "cov", None):
                assert cov != foreign and not cov == foreign
        assert mc != pc
        assert mc != dataclasses.replace(mc, converged=False)
        assert mc != dataclasses.replace(mc, tail_correction=(0.0, 1.0, 0.0))
        assert pc != dataclasses.replace(pc, params=pc.params[::-1])

    def test_scaling_identities(self):
        # the hand-derived GG delta method is J M J^T, J the Jacobian of the
        # code's own estimator (p_hat, q_hat) = (D / mu_hat(0), D / (n - mu_hat(0))),
        # and param_cov is that delta method to rounding
        for (n, p, q) in GG_POINTS:
            model = ModelSpec(on_law=Geometric(p), off_law=Geometric(q), n=n)
            mc = geometric_moment_cov(n, p, q)
            pc = delta_method_cov(n, p, q, mc)
            J = edge_estimator_jacobian(model, "geometric_geometric")
            want = J @ mc.matrix @ J.T
            np.testing.assert_allclose(pc.matrix, want, rtol=1e-6)
            g0, g1 = gamma_oracle(n, p, q)
            oracle = g0 * g0 * mc.v0 + 2 * g0 * g1 * mc.c01 + g1 * g1 * mc.v1
            assert pc.matrix[0, 0] == pytest.approx(oracle, rel=1e-12)
            np.testing.assert_allclose(param_cov(model, mc).matrix, pc.matrix, rtol=1e-11)
            # the series M's v1 is within 2.5e-14 of the closed form's here, and
            # J M J^T cancels about four digits of it (1.5e-10 at (0.05, 0.9))
            np.testing.assert_allclose(param_cov(model).matrix, pc.matrix, rtol=1e-9)
        # q_hat also moves with mu_hat(0): not the rank-1 sigma2 (q/p)^2
        pc = param_cov(ModelSpec(on_law=Geometric(0.05), off_law=Geometric(0.9), n=100))
        assert pc.matrix[1, 1] == pytest.approx(0.9168, abs=1e-4)

    def test_one_route_for_every_law_type(self):
        # param_cov sums general_moment_cov for every family, geometric laws too
        for model, _ in TWO_LAG_MODELS:
            general = general_moment_cov(model, model.n)
            assert np.array_equal(param_cov(model).matrix, param_cov(model, general).matrix)

    def test_param_cov_none_by_model(self, monkeypatch):
        # no two-lag family at its unit scale, or infinite limits: None, with no
        # series summed and no DivergenceWarning
        def summed(*args, **kwargs):
            raise AssertionError("a series was summed")

        models = [HEAVY,  # pareto/geometric is a three-lag family
                  ModelSpec(on_law=Pareto(2.0, 3.0), off_law=Pareto(1.0, 2.5), n=100),
                  ModelSpec(on_law=Weibull(2.0, 0.5), off_law=Geometric(0.7), n=100),
                  ModelSpec(on_law=Geometric(0.3), off_law=Weibull(1.0, 0.5), n=100),
                  ModelSpec(on_law=Pareto(1.0, 2.0), off_law=Pareto(1.0, 2.5), n=100),
                  ModelSpec(on_law=Pareto(1.0, 3.0), off_law=Pareto(1.0, 1.5), n=100)]
        monkeypatch.setattr(asymp, "general_moment_cov", summed)
        monkeypatch.setattr(asymp, "geometric_moment_cov", summed)
        with warnings.catch_warnings():
            warnings.simplefilter("error", DivergenceWarning)
            for model in models:
                assert param_cov(model) is None, model

    def test_param_cov_flat_mean(self):
        # the Weibull(1, alpha) mean's slope falls to 1e-109 at alpha = 8, 1e-220
        # at 9 (J M J^T past float range) and 0 at 20: finite or None
        for alpha, finite in ((8.0, True), (9.0, False), (20.0, False)):
            model = ModelSpec(on_law=Weibull(1.0, alpha), off_law=Geometric(0.5), n=100)
            pc = param_cov(model)
            assert (pc is not None) == finite
            assert pc is None or np.isfinite(pc.matrix).all() and pc.matrix[1, 1] > 0.0

    def test_param_cov_none_unconverged(self):
        partial = MomentCov(np.array([[1.0, 0.5], [0.5, 2.0]]), method="general_series",
                            converged=False, k_used=1024, tail_error=1.0)
        assert param_cov(PARPAR, partial) is None
        assert param_cov(PARPAR, general_moment_cov(PARPAR, 100, k_cap=64)) is None

    def test_predicted_sd_matches_reported_value(self, tmp_path):
        pc = param_cov(ModelSpec(on_law=Geometric(0.3), off_law=Geometric(0.8), n=100))
        sd = pc.sd(10_000)
        assert sd["p"] == pytest.approx(0.0028, abs=2e-4)
        assert sd["q"] == pytest.approx(0.0074, abs=4e-4)
        # each two-lag family at its unit scale: symmetric matrices, the registry's
        # parameter names, and sd(K) keyed as a campaign's summary.json params
        for model, family in TWO_LAG_MODELS:
            mc, pc = general_moment_cov(model, model.n), param_cov(model)
            assert np.array_equal(mc.matrix, mc.matrix.T)
            assert np.array_equal(pc.matrix, pc.matrix.T)
            assert pc.params == FAMILIES[family].params
            cfg = ExperimentConfig(model=model, K=200, R=2, family=family)
            emit_outputs(run_campaign(cfg), tmp_path / family)
            summary = json.loads((tmp_path / family / "summary.json").read_text())
            assert set(pc.sd(cfg.K)) == set(summary["params"])


class TestGeneralTables:
    @pytest.mark.parametrize("k_hi", [5, 2048])
    def test_matches_loops(self, k_hi):
        for model in ALL_MODELS:
            tables = GeneralTables(model, k_hi)
            S2, ta, tb, qq = loop_general_tables(model, k_hi)
            assert np.max(np.abs(tables.rres[:k_hi + 1]
                                 - loop_autocovariance(model, k_hi + 1)[2])) <= 1e-12
            assert np.max(np.abs(convolution_pair_tables(model, k_hi + 2)[2][:k_hi + 1]
                                 - S2)) <= 1e-12
            assert np.max(np.abs(tables.ta[3:k_hi + 2] - ta[3:])) <= 1e-12
            assert np.max(np.abs(tables.tb[2:k_hi + 1] - tb[2:])) <= 1e-12
            assert np.max(np.abs(tables.qq[3:k_hi + 1] - qq[3:])) <= 1e-12

    def test_omega_matches_joint_distribution(self):
        # each subset of the epoch sets the k-sums expand, as ints at k = 1..7
        # and as arrays over k = 3..7, against joint_distribution
        def sets(k):
            return [(1, 2, k, k + 1), (1, k, k + 1), (1, 2, k)]

        ks = np.arange(3, 8)
        for model in ALL_MODELS:
            tables = GeneralTables(model, 8)
            for j, lags in enumerate(sets(ks)):
                for r in range(1, len(lags) + 1):
                    for pos in itertools.combinations(range(len(lags)), r):
                        on_lags = np.broadcast_to(tables.omega([lags[i] for i in pos]), ks.shape)
                        for k in range(1, 8):
                            subset = [sets(k)[j][i] for i in pos]
                            expect = joint_distribution(model, sorted(set(subset)))[-1]
                            assert abs(tables.omega(subset) - expect) <= 1e-13
                            if k >= 3:
                                assert abs(on_lags[k - 3] - expect) <= 1e-13


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
        # series scale at K0, and the table doubles until they reach the
        # rounding floor by half its length
        model = ModelSpec(on_law=Geometric(0.002), off_law=Geometric(0.003), n=10)
        g = general_moment_cov(model, 10)
        assert g.converged and K0 < g.k_used <= K_CAP
        assert g.tail_error <= 1e-12 * max(g.v0, g.v1, abs(g.c01))
        capped = general_moment_cov(model, 10, k_cap=2 * K0)
        assert capped.k_used == 2 * K0 and capped.tail_error > g.tail_error
        # Weibull laws add no tail exponent either
        model = ModelSpec(on_law=Weibull(0.3, 0.7), off_law=Geometric(0.5), n=10)
        g = general_moment_cov(model, 10)
        assert g.converged and g.tail_correction == (0.0, 0.0, 0.0)

    def test_light_tails_start_at_the_short_table(self):
        # GG's increments reach the rounding floor within a few lags
        g = general_moment_cov(ALL_MODELS[0], 100)
        assert g.converged and g.k_used == asymp._K0_MIN
        assert g.tail_correction == (0.0, 0.0, 0.0)

    def test_slow_light_tails_keep_their_table(self, monkeypatch):
        # the short table fails, and the schedule goes on from K0 as before
        model = ModelSpec(on_law=Geometric(0.002), off_law=Geometric(0.003), n=10)
        g = general_moment_cov(model, 10)
        monkeypatch.setattr(asymp, "_K0_MIN", K0)
        assert general_moment_cov(model, 10).k_used == g.k_used > K0

    @pytest.mark.parametrize("on", SCHEDULE_LAWS, ids=repr)
    def test_short_start_matches_the_k0_schedule(self, on, monkeypatch):
        # against the schedule that starts every model at K0: the same limits
        # and flags on no longer a table, and bit for bit where a tail is fitted
        models = [ModelSpec(on_law=on, off_law=off, n=10) for off in SCHEDULE_LAWS]
        models = [m for m in models if finiteness_check(m)[0]]
        got = [general_moment_cov(m, 10) for m in models]
        monkeypatch.setattr(asymp, "_K0_MIN", K0)
        for model, g in zip(models, got):
            ref = general_moment_cov(model, 10)
            if asymp._tail_exponents(model, K0):
                assert g.to_json() == ref.to_json()
                continue
            scale = max(1.0, abs(ref.v0), abs(ref.v1), abs(ref.c01))
            assert g.converged == ref.converged and g.k_used <= ref.k_used
            for a, b in [(g.v0, ref.v0), (g.v1, ref.v1), (g.c01, ref.c01),
                         (g.tail_error, ref.tail_error),
                         *zip(g.tail_correction, ref.tail_correction)]:
                assert abs(a - b) <= 1e-12 * scale

    @pytest.mark.parametrize("on,off,n", [(Weibull(0.02, 0.5), Geometric(0.05), 10),
                                          (Pareto(1.0, 2.1), Geometric(0.5), 100)],
                             ids=["weibull_slow", "pareto_2.1"])
    def test_v0_is_the_renewal_reward_limit(self, on, off, n):
        # two models whose lag series stop short: the slow Weibull's v0 series
        # is 8.9% short at K_CAP, and index 2.1 decays like k^-1.1
        start = time.perf_counter()
        g = general_moment_cov(ModelSpec(on_law=on, off_law=off, n=n), n)
        assert time.perf_counter() - start < 1.0
        assert g.converged and g.tail_correction[0] == g.tail_correction[2] == 0.0
        ex, ey = on.mean(), off.mean()
        v0 = n * (ey**2 * on.variance() + ex**2 * off.variance()) / (ex + ey) ** 3
        assert abs(g.v0 - v0) <= 1e-8 * v0

    @pytest.mark.parametrize("model", [*ALL_MODELS, HEAVY, PARPAR],
                             ids=["gg", "pp", "wg", "pg", "pareto_geo", "pareto_pareto"])
    def test_matches_partition_series(self, model):
        # the three lag series of the partition expansion, with their fitted tails
        g = general_moment_cov(model, model.n)
        assert g.converged
        for a, b in zip((g.v0, g.v1, g.c01), partition_moment_cov(model, model.n)):
            assert abs(a - b) <= 1e-6 * abs(b)

    def test_power_law_tail_converges(self):
        start = time.perf_counter()
        g = general_moment_cov(HEAVY, 100)
        assert time.perf_counter() - start < 1.0
        assert g.converged and g.k_used == K0
        assert g.tail_correction[0] == g.tail_correction[2] == 0.0
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
        # at n = 10^6 the rounding noise of v1 stands near the floor at K0;
        # k^-198 would overflow K0^198, so no tail exponent is kept
        model = ModelSpec(on_law=Pareto(300.0, 100.0), off_law=Geometric(0.7), n=10**6)
        assert asymp._tail_exponents(model, K0) == []
        g = general_moment_cov(model, model.n)
        assert np.isfinite([g.v0, g.v1, g.c01, g.tail_error, *g.tail_correction]).all()

    @pytest.mark.parametrize("on,q", [(Pareto(3e4, 60.0), 0.002), (Pareto(1e4, 60.0), 0.005)],
                             ids=["C3e4", "C1e4"])
    def test_pareto_short_of_its_power_law_extends_the_table(self, on, q):
        # with C / alpha = 500 and 167 epochs these laws still decay
        # geometrically at K0, and k^-118 leaves float range there, so no tail
        # is fitted: the table doubles until the increments reach the floor
        model = ModelSpec(on_law=on, off_law=Geometric(q), n=10)
        g = general_moment_cov(model, 10)
        assert g.converged and K0 < g.k_used <= K_CAP
        assert g.tail_correction == (0.0, 0.0, 0.0)

    def test_pareto_below_its_scale_extends_the_table(self):
        # C = 3e4 > K0: below its scale the law decays like exp(-alpha k / C), so
        # no power-law tail is fitted to it, though k^-78 is in float range at K0;
        # with one fitted there, tail_error stood at 110 and converged was False
        model = ModelSpec(on_law=Pareto(3e4, 40.0), off_law=Geometric(0.002), n=10)
        assert asymp._tail_exponents(model, K0) == []
        g = general_moment_cov(model, 10)
        assert g.converged and K0 < g.k_used <= K_CAP
        assert g.tail_correction == (0.0, 0.0, 0.0)

    def test_pareto_near_its_scale_converges_by_doubling(self, monkeypatch):
        # C = 2000 > K0, and the law nears its power law only well past C: its
        # fitted tail moves the sum by 35 at 2,048 and by 0.19 at 32,768, where
        # tail_error first falls below 1e-6 of v1. The reference sums a 2^18 table.
        model = ModelSpec(on_law=Pareto(2000.0, 3.0), off_law=Geometric(0.002), n=10)
        g = general_moment_cov(model, 10)
        assert g.converged and K0 < g.k_used <= K_CAP
        assert g.tail_correction[1] != 0.0
        monkeypatch.setattr(asymp, "K0", 1 << 18)
        ref = general_moment_cov(model, 10, k_cap=1 << 18)
        assert ref.k_used == 1 << 18
        assert abs(g.v1 - ref.v1) <= 1e-6 * abs(ref.v1)

    def test_extended_pareto_table_matches_partition_series(self):
        # the three partition series on a table twice as long as k_used
        model = ModelSpec(on_law=Pareto(1e4, 60.0), off_law=Geometric(0.005), n=10)
        g = general_moment_cov(model, 10)
        for a, b in zip((g.v0, g.v1, g.c01), partition_moment_cov(model, 10, 2 * g.k_used)):
            assert abs(a - b) <= 1e-8 * abs(b)

    def test_pareto_tiny_scale(self):
        # C^alpha underflows while zeta(alpha, C) overflows: every on-period lasts one epoch
        model = ModelSpec(on_law=Pareto(1e-9, 300.0), off_law=Geometric(0.5), n=10)
        assert model.on_law.mean() == 1.0
        trace = simulate_edge_trace(model, 50, np.random.default_rng(5))
        assert 0 <= trace.values.min() and trace.values.max() <= 10
        g = general_moment_cov(model, 10)
        assert g.converged
        # v0 = n E[X]^2 Var Y / E[X + Y]^3, as Var X = 0
        assert g.v0 == pytest.approx(10 * 2.0 / 27.0, rel=1e-12)

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

    def test_mixed_moment_refuses_other_gaps(self):
        # no renewal table holds the on-probability at gaps (2, 2)
        with pytest.raises(ValueError):
            mixed_moment(HEAVY, 3, (1, 3, 5))

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


# p, q and n of the GG grid on which the series route stands in for the closed form
GRID_PQ = [1e-6, 1e-3, 0.05, 0.3, 0.5, 0.9, 1 - 1e-6]
GRID_N = [2, 10, 100, 10**4]


def timed_moment_cov(model):
    """general_moment_cov(model, model.n), which must return within a second."""
    start = time.perf_counter()
    g = general_moment_cov(model, model.n)
    assert time.perf_counter() - start < 1.0, model
    return g


class TestOneRoute:
    @pytest.mark.parametrize("n", GRID_N)
    def test_gg_grid_matches_closed_form(self, n):
        # every GG model converges on the series route; v0 and c01 are the same
        # renewal-reward limits on both routes. |1 - p - q| within 2e-6 of 1
        # converges only by the geometric tail on the K_CAP table
        for p, q in itertools.product(GRID_PQ, GRID_PQ):
            g = timed_moment_cov(ModelSpec(on_law=Geometric(p), off_law=Geometric(q), n=n))
            mc = geometric_moment_cov(n, p, q)
            assert g.converged, (n, p, q)
            assert g.v0 == mc.v0 and g.c01 == mc.c01
            slow = p == q and abs(1.0 - p - q) > 1.0 - 3e-6
            assert (g.tail_correction[1] != 0.0) == slow, (n, p, q)
            if slow:
                assert g.k_used == K_CAP
                assert abs(g.v1 - mc.v1) <= 1e-9 * mc.v1
            else:
                scale = max(1.0, abs(g.v0), abs(g.v1), abs(g.c01))
                assert abs(g.v1 - mc.v1) <= asymp._TOL * scale

    def test_weibull_of_unit_shape_is_geometric(self):
        # Weibull(lambda, 1) is Geometric(1 - e^-lambda); at lambda = 1e-6 the
        # series converges only by the geometric tail on the K_CAP table
        g = timed_moment_cov(ModelSpec(on_law=Weibull(1e-6, 1.0), off_law=Geometric(1e-5), n=100))
        mc = geometric_moment_cov(100, -math.expm1(-1e-6), 1e-5)
        assert g.converged and g.k_used == K_CAP and g.tail_correction[1] > 0.0
        for a, b in [(g.v0, mc.v0), (g.v1, mc.v1), (g.c01, mc.c01)]:
            assert abs(a - b) <= 1e-12 * abs(b)

    def test_ringing_series_takes_no_geometric_tail(self):
        # gamma rings with a period near 1,000: the ratios on the two halves of
        # the window disagree, so no tail is added and the result stays flagged
        model = ModelSpec(on_law=Weibull(1e-300, 100.0), off_law=Geometric(0.5), n=100)
        g = timed_moment_cov(model)
        assert not g.converged and g.k_used == K_CAP
        assert g.tail_correction == (0.0, 0.0, 0.0)
        assert g.tail_error > asymp._TOL * g.v1

    def test_no_route_by_law_type(self):
        # the closed form is a test oracle: no package module calls it
        assert not hasattr(asymp, "moment_cov")
        for path in Path(asymp.__file__).parent.glob("*.py"):
            for node in ast.walk(ast.parse(path.read_text())):
                if isinstance(node, ast.Call):
                    name = getattr(node.func, "id", getattr(node.func, "attr", None))
                    assert name != "geometric_moment_cov", f"{path.name}:{node.lineno}"


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

    @staticmethod
    def _by_class(model):
        """The verdict by law class, as an oracle: Pareto needs alpha > 2, geometric and
        Weibull laws pass, and each explanation is worded as finiteness_check words it."""
        verdicts, ok = [], True
        for name, law in (("on", model.on_law), ("off", model.off_law)):
            if isinstance(law, Pareto):
                sign = ">" if law.alpha > 2.0 else "<="
                verdicts.append(f"{name}-time Pareto tail index {law.alpha} {sign} 2")
                ok = ok and law.alpha > 2.0
            else:
                verdicts.append(f"{name}-time {type(law).__name__} tail is lighter than any power law")
        return ok, "; ".join(verdicts)

    def test_verdict_by_tail_index(self):
        # the tail index gives the verdict and the words of a check by class, on
        # extreme laws and on Pareto indices within 1e-12 of 2 on either side
        near_two = [Pareto(1.0, a) for a in (2.0 - 1e-12, math.nextafter(2.0, 0.0), 2.0,
                                             math.nextafter(2.0, 3.0), 2.0 + 1e-12)]
        laws = list(EXTREME_LAWS) + list(test_laws.EXTREME_LAWS) + near_two
        for on, off in itertools.product(laws, laws):
            model = ModelSpec(on_law=on, off_law=off, n=2)
            assert finiteness_check(model) == self._by_class(model)
        assert [finiteness_check(ModelSpec(law, law, n=2))[0] for law in near_two] == [
            False, False, False, True, True]

    def test_no_law_class_listed(self):
        # laws own their tail index: finiteness_check tests no class, and asymp
        # imports no law class but the one geometric_moment_cov builds
        tree = ast.parse(Path(asymp.__file__).read_text())
        (check,) = [node for node in tree.body
                    if isinstance(node, ast.FunctionDef) and node.name == "finiteness_check"]
        calls = {getattr(node.func, "id", None) for node in ast.walk(check) if isinstance(node, ast.Call)}
        assert "isinstance" not in calls
        imported = [alias.name for node in tree.body
                    if isinstance(node, ast.ImportFrom) and node.module == "laws" for alias in node.names]
        assert imported == ["Geometric"]
