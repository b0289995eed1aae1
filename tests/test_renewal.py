import itertools
import math
import time
from contextlib import nullcontext

import numpy as np
import pytest
from scipy.linalg import cho_solve
from scipy.stats import binom

from onoffgraph import renewal
from onoffgraph.asymp import DivergenceWarning, finiteness_check, general_moment_cov
from onoffgraph.errors import COMPUTE_ERRORS, ConvergenceError, DegenerateSaddleError
from onoffgraph.laws import Geometric, Pareto, Weibull
from onoffgraph.renewal import (
    autocovariance,
    joint_distribution,
    joint_mgf,
    legendre_transform,
    saddlepoint_logprob,
    _law_arrays,
    _mgf_arrays,
    _residual_arrays,
    _tilted_moments,
)
from onoffgraph.simulate import ModelSpec, edge_indicator_matrix

GG = ModelSpec(on_law=Geometric(0.3), off_law=Geometric(0.8), n=100)
PP = ModelSpec(on_law=Pareto(1.0, 3.0), off_law=Pareto(1.0, 2.5), n=10)
WG = ModelSpec(on_law=Weibull(1.0, 0.5), off_law=Geometric(0.7), n=10)
PG = ModelSpec(on_law=Pareto(2.0, 4.0), off_law=Geometric(0.7), n=10)
ALL_MODELS = [GG, PP, WG, PG]
FROZEN = ModelSpec(on_law=Geometric(1e-6), off_law=Geometric(0.5), n=10)


# The float64 loop below drifts from its own long-double run as k grows: by up
# to 5.3e-13 at k = 2,050 (on WG), 2.0e-11 at 8,192 (on PG) and 2.2e-10 at
# 32,768 (on PP). Its 1e-12 comparisons read it up to k = 2,050, and the
# partition series of test_asymp, compared to 1e-8 of their value, up to
# 8,194; it refuses longer tables.
LOOP_K_MAX = 8194


def loop_autocovariance(model, k_max):
    """r, s, r_res by the interleaved dot-product recursion over k: the oracle.

    r_k = sum_j f_j s_(k-j) + P(X >= k), s_k = sum_j g_j r_(k-j), and r_res
    the same as r with the residual on-law, all 1-indexed via [k-1].
    """
    if k_max > LOOP_K_MAX:
        raise ValueError(f"the loop oracle drifts past k = {LOOP_K_MAX}, asked for {k_max}")
    f, surv_f = _law_arrays(model.on_law, k_max)
    g, _ = _law_arrays(model.off_law, k_max)
    fbar, res_surv_f = _residual_arrays(surv_f, model.on_law.mean())
    r = np.empty(k_max)
    s = np.empty(k_max)
    r_res = np.empty(k_max)
    r[0], s[0], r_res[0] = 1.0, 0.0, 1.0
    for k in range(2, k_max + 1):
        conv_s = s[k - 2::-1]
        r[k - 1] = f[: k - 1] @ conv_s + surv_f[k - 1]
        s[k - 1] = g[: k - 1] @ r[k - 2::-1]
        r_res[k - 1] = fbar[: k - 1] @ conv_s + res_surv_f[k - 1]
    return r, s, r_res


def loop_joint_mgf(model, theta):
    """joint_mgf for one tilt by the scalar double loop over (k, ell): the oracle.

    v_k (w_k) is the tilted expectation over epochs k..K given that an on-
    (off-) period starts at k; -inf entries of theta are exact zero factors.
    """
    theta = np.asarray(theta, dtype=np.float64)
    K = len(theta)
    e = np.where(np.isneginf(theta), 0.0, np.exp(theta))
    f, surv_f = _law_arrays(model.on_law, K)
    g, surv_g = _law_arrays(model.off_law, K)
    fbar, res_surv_f = _residual_arrays(surv_f, model.on_law.mean())
    gbar, res_surv_g = _residual_arrays(surv_g, model.off_law.mean())
    v = np.zeros(K + 1)
    w = np.zeros(K + 1)
    for k in range(K, 0, -1):
        acc_v = 0.0
        acc_w = 0.0
        prod = 1.0
        for ell in range(1, K - k + 1):
            prod *= e[k + ell - 2]
            acc_v += f[ell - 1] * prod * w[k + ell]
            acc_w += g[ell - 1] * v[k + ell]
        prod *= e[K - 1]
        v[k] = acc_v + surv_f[K - k] * prod  # P(X >= K-k+1) tail
        w[k] = acc_w + surv_g[K - k]
    m_plus = 0.0
    prod = 1.0
    for ell in range(1, K):
        prod *= e[ell - 1]
        m_plus += fbar[ell - 1] * prod * w[1 + ell]
    prod *= e[K - 1]
    m_plus += res_surv_f[K - 1] * prod
    m_minus = sum(gbar[ell - 1] * v[1 + ell] for ell in range(1, K)) + res_surv_g[K - 1]
    return model.rho * m_plus + (1.0 - model.rho) * m_minus


def knockout_arrays(model, K):
    """The pmfs and survivals of both laws and of their residual laws, and rho, at horizon K."""
    f, surv_f = _law_arrays(model.on_law, K)
    g, surv_g = _law_arrays(model.off_law, K)
    fbar, res_surv_f = _residual_arrays(surv_f, model.on_law.mean())
    gbar, res_surv_g = _residual_arrays(surv_g, model.off_law.mean())
    return f, surv_f, g, surv_g, fbar, res_surv_f, gbar, res_surv_g, model.rho


def knockout_mgf(arrays, theta):
    """joint_mgf of a (B, K) batch of tilts by backward recursion over start epochs: the oracle.

    v[:, k], w[:, k] are the tilted expectations over epochs k..K given that
    an on- (off-) period starts at k, with the batch as an array axis; M is
    formed in linear scale, so it overflows where exp(theta) does.
    """
    f, surv_f, g, surv_g, fbar, res_surv_f, gbar, res_surv_g, rho = arrays
    e = np.exp(theta)
    B, K = e.shape
    v = np.zeros((B, K + 1))
    w = np.zeros((B, K + 1))
    for k in range(K, 0, -1):
        d = K - k
        run = np.cumprod(e[:, k - 1:], axis=1)  # run[:, l-1]: product over epochs k..k+l-1
        v[:, k] = (run[:, :d] * w[:, k + 1:]) @ f[:d] + surv_f[d] * run[:, d]
        w[:, k] = v[:, k + 1:] @ g[:d] + surv_g[d]
    m_plus = (run[:, :K - 1] * w[:, 2:]) @ fbar[:K - 1] + res_surv_f[K - 1] * run[:, K - 1]
    m_minus = v[:, 2:] @ gbar[:K - 1] + res_surv_g[K - 1]
    return rho * m_plus + (1.0 - rho) * m_minus


def knockout_moments(model, theta):
    """M(theta), the tilted on-probabilities and covariance from one knockout batch: the oracle.

    theta_k = -inf keeps exactly the paths off at k, so P_theta(off at i and
    j) = M_ij / M, with M_ij the MGF with epochs i and j knocked out.
    """
    K = len(theta)
    i, j = np.triu_indices(K)
    batch = np.tile(theta, (len(i) + 1, 1))  # row 0 is theta; row r knocks out i[r-1], j[r-1]
    rows = np.arange(1, len(i) + 1)
    batch[rows, i] = batch[rows, j] = -np.inf
    mgf = knockout_mgf(knockout_arrays(model, K), batch)
    off = np.empty((K, K))
    off[i, j] = off[j, i] = mgf[1:] / mgf[0]
    p_off = np.diag(off).copy()
    return mgf[0], 1.0 - p_off, off - np.outer(p_off, p_off)


def knockout_joint(model, epochs):
    """The joint on-pattern law by Moebius inversion of {0, -inf} mask MGFs: the oracle.

    Q[t] = P(off at every epoch outside t) is the MGF with -inf at the epochs
    whose bit is clear in t; differencing along every axis of its (2,)*m
    reshape (axis j is bit m-1-j) inverts the subset sums.
    """
    m = len(epochs)
    bits = (np.arange(1 << m)[:, None] >> np.arange(m)) & 1
    theta = np.zeros((1 << m, epochs[-1]))
    theta[:, np.array(epochs) - 1] = np.where(bits, 0.0, -np.inf)
    q = knockout_mgf(knockout_arrays(model, epochs[-1]), theta).reshape((2,) * m)
    for axis in range(m):
        q = np.diff(q, axis=axis, prepend=0.0)
    return q.ravel()


def loop_legendre(model, counts, n):
    """The Legendre transform's (value, theta) and the saddlepoint: the oracle.

    Newton's loop with fresh law arrays in every MGF call, each candidate
    tried by one single-tilt joint_mgf, and one more _tilted_moments call at
    the optimum for the log-determinant.
    """
    K = len(counts)
    counts = np.asarray(counts, dtype=np.float64)
    eps = 1e-6 * n
    counts = np.clip(counts, eps, n - eps)
    theta = np.zeros(K)
    for _ in range(100):
        log_mgf, p_on, cov = _tilted_moments(_mgf_arrays(model, K), theta)
        value = float(theta @ counts) - n * log_mgf
        grad = counts - n * p_on
        step = cho_solve((np.linalg.cholesky(n * cov), True), grad)
        if float(grad @ step) <= 1e-12 * n:
            break
        for _ in range(60):
            cand = theta + step
            with np.errstate(over="ignore", invalid="ignore"):
                mgf = joint_mgf(model, cand)
            if 0.0 < mgf < math.inf and float(cand @ counts) - n * math.log(mgf) > value:
                break
            step *= 0.5
        else:
            raise ConvergenceError("line search failed")
        theta = cand
    else:
        raise ConvergenceError("Newton did not converge")
    value = max(value, 0.0)
    chol = np.linalg.cholesky(n * _tilted_moments(_mgf_arrays(model, K), theta)[2])
    log_det = 2.0 * float(np.sum(np.log(np.diag(chol))))
    return value, theta, -0.5 * K * math.log(2 * math.pi) - 0.5 * log_det - value


def geometric_markov_joint(model, K):
    """Exact joint law of one edge's on-pattern for geometric laws.

    Memorylessness makes the per-edge indicator a two-state Markov chain with
    P(on->on) = 1 - p and P(off->on) = q; the joint law is a product of
    transitions -- an oracle fully independent of the MGF recursion.
    """
    p = model.on_law.p
    q = model.off_law.p
    rho = model.rho
    out = np.empty(1 << K)
    for s in range(1 << K):
        bits = [(s >> j) & 1 for j in range(K)]
        prob = rho if bits[0] else 1 - rho
        for prev, cur in zip(bits, bits[1:]):
            if prev:
                prob *= (1 - p) if cur else p
            else:
                prob *= q if cur else (1 - q)
        out[s] = prob
    return out


def gg_count_chain(model, K, rng):
    """A(1..K) for geometric laws, drawn from the exact count chain below."""
    p, q = model.on_law.p, model.off_law.p
    counts = [rng.binomial(model.n, model.rho)]
    for _ in range(K - 1):
        a = counts[-1]
        counts.append(rng.binomial(a, 1 - p) + rng.binomial(model.n - a, q))
    return np.array(counts, dtype=np.float64)


def gg_count_chain_logprob(model, counts):
    """Exact log P(A(1..K) = counts) for geometric laws, by binomial convolutions.

    Each on edge stays on with probability 1 - p and each off edge turns on
    with probability q, so A(k+1) given A(k) = a is Bin(a, 1-p) + Bin(n-a, q).
    """
    n, p, q = model.n, model.on_law.p, model.off_law.p
    counts = [int(c) for c in counts]
    logp = binom.logpmf(counts[0], n, model.rho)
    for a, b in zip(counts, counts[1:]):
        stay = np.arange(a + 1)
        logp += math.log(np.sum(binom.pmf(stay, a, 1 - p) * binom.pmf(b - stay, n - a, q)))
    return logp


class TestJointMgf:
    def test_at_zero(self):
        for model in ALL_MODELS:
            for K in [1, 2, 5]:
                assert joint_mgf(model, np.zeros(K)) == pytest.approx(1.0, abs=1e-12)

    def test_k1_bernoulli(self):
        rho = GG.rho
        for t in [-2.0, -0.5, 0.0, 0.3, 1.5]:
            expect = 1 - rho + rho * math.exp(t)
            assert joint_mgf(GG, [t]) == pytest.approx(expect, rel=1e-12)

    def test_k2_both_off(self):
        # P(off, off) = (1 - rho)(1 - gbar_1)
        val = joint_mgf(GG, [-np.inf, -np.inf])
        assert val == pytest.approx((1 - GG.rho) * (1 - 0.8), rel=1e-12)
        assert val == pytest.approx(0.054545, abs=1e-6)

    @pytest.mark.parametrize("K", [1, 2, 5, 20])
    def test_batch_matches_loop(self, K):
        # random tilts with about 20% knockouts, as a batch and one row at a time
        rng = np.random.default_rng(K)
        for model in ALL_MODELS:
            theta = 0.5 * rng.standard_normal((50, K))
            theta[rng.random((50, K)) < 0.2] = -np.inf
            expect = np.array([loop_joint_mgf(model, t) for t in theta])
            assert np.allclose(joint_mgf(model, theta), expect, rtol=1e-13, atol=0.0)
            for t, m in zip(theta[:5], expect):
                value = joint_mgf(model, t)
                assert isinstance(value, float)
                assert value == pytest.approx(m, rel=1e-13, abs=0.0)

    def test_refuses_nan_and_plus_inf(self):
        # -inf is a knockout; NaN and +inf are no tilt, in one row or a batch
        for bad in [np.nan, np.inf]:
            with pytest.raises(ValueError, match="finite or -inf"):
                joint_mgf(GG, [bad, 0.0])
            with pytest.raises(ValueError, match="finite or -inf"):
                joint_mgf(GG, [[0.0, 0.0], [0.0, bad]])
        assert joint_mgf(GG, [-np.inf, 0.0]) == pytest.approx(1 - GG.rho, rel=1e-12)

    def test_log_convex_on_lines(self):
        rng = np.random.default_rng(3)
        for model in [GG, PG]:
            for _ in range(5):
                t1 = rng.normal(scale=0.5, size=4)
                t2 = rng.normal(scale=0.5, size=4)
                mid = joint_mgf(model, 0.5 * (t1 + t2))
                assert mid**2 <= joint_mgf(model, t1) * joint_mgf(model, t2) * (1 + 1e-12)


class TestChainMatchesKnockout:
    @pytest.mark.parametrize("model", ALL_MODELS, ids=["gg", "pp", "wg", "pg"])
    def test_matches_knockout(self, model):
        # the chain against the knockout recursion at every horizon K = 1..40:
        # M of tilts with about 20% knocked out, the tilted moments, and the
        # joint law of up to five epochs
        rng = np.random.default_rng(21)
        for K in range(1, 41):
            theta = 0.7 * rng.standard_normal((10, K))
            theta[rng.random((10, K)) < 0.2] = -np.inf
            expect = knockout_mgf(knockout_arrays(model, K), theta)
            assert np.allclose(joint_mgf(model, theta), expect, rtol=1e-13, atol=0.0)
            tilt = 0.7 * rng.standard_normal(K)
            log_m, p_on, cov = _tilted_moments(_mgf_arrays(model, K), tilt)
            mgf, want_p_on, want_cov = knockout_moments(model, tilt)
            assert abs(math.expm1(log_m - math.log(mgf))) <= 1e-13
            assert np.max(np.abs(p_on - want_p_on)) <= 1e-13
            assert np.max(np.abs(cov - want_cov)) <= 1e-13
            epochs = sorted(rng.choice(np.arange(1, K + 1), min(K, 5), replace=False).tolist())
            joint = joint_distribution(model, epochs)
            assert np.max(np.abs(joint - knockout_joint(model, epochs))) <= 1e-13

    def test_log_mgf_past_overflow(self):
        # M = exp(8000) rho 0.7^9 leaves float range, its log does not (the
        # knockout recursion, in linear scale, gives inf and a NaN log M)
        log_m = _tilted_moments(_mgf_arrays(GG, 10), np.full(10, 800.0))[0]
        assert log_m == pytest.approx(8000.0 + math.log(GG.rho * 0.7**9), rel=1e-12)

    @pytest.mark.parametrize("K", [1500, 2000])
    def test_mgf_of_alternating_tilts(self, K):
        # theta_k = +1, -1 in turn: exp(sum max(theta_k, 0)) = e^(K/2) leaves
        # float range, M' = M e^(-K/2) is about e^-576 at K = 1500 and
        # underflows at 2000, and M, about e^(0.1166 K), stays finite
        theta = (-1.0) ** np.arange(K)
        expect = knockout_mgf(knockout_arrays(GG, K), theta[None])[0]
        assert joint_mgf(GG, theta) == pytest.approx(expect, rel=1e-13)

    def test_moments_past_underflow(self):
        # +30, -30 in turn on a model that switches with probability 1e-6:
        # M' = e^-811 underflows, and the moments are taken again under the
        # forward pass's scales; log M = 900 - 811 carries about 1e-16 (900 +
        # 811) of rounding
        slow = ModelSpec(on_law=Geometric(1e-6), off_law=Geometric(1e-6), n=10)
        theta = 30.0 * (-1.0) ** np.arange(60)
        log_m, p_on, cov = _tilted_moments(_mgf_arrays(slow, 60), theta)
        mgf, want_p_on, want_cov = knockout_moments(slow, theta)
        assert log_m == pytest.approx(math.log(mgf), abs=1e-12)
        assert np.max(np.abs(p_on - want_p_on)) <= 1e-13
        assert np.max(np.abs(cov - want_cov)) <= 1e-13

    def test_moments_cost_at_long_horizon(self):
        # O(K^3): a few ms at K = 160, where the O(K^4) knockout batch took
        # about 1.3 s
        theta = 0.3 * np.random.default_rng(160).standard_normal(160)
        arrays = _mgf_arrays(PP, 160)
        start = time.perf_counter()
        log_m, p_on, cov = _tilted_moments(arrays, theta)
        assert time.perf_counter() - start < 0.4
        assert math.isfinite(log_m) and np.all(np.isfinite(cov))


class TestJointDistribution:
    def test_single_epoch(self):
        for model in ALL_MODELS:
            probs = joint_distribution(model, [1])
            assert probs[0] == pytest.approx(1 - model.rho, rel=1e-12)
            assert probs[1] == pytest.approx(model.rho, rel=1e-12)

    def test_adjacent_pair(self):
        probs = joint_distribution(GG, [1, 2])
        # p[1,1] = rho (1 - fbar_1), fbar_1 = p for geometric
        assert probs[3] == pytest.approx(GG.rho * 0.7, rel=1e-12)
        assert probs[3] == pytest.approx(0.50909, abs=1e-5)

    def test_sums_to_one(self):
        for model in ALL_MODELS:
            for epochs in [[1, 2, 3], [1, 3, 6], [1, 2, 3, 4, 5, 6], [2, 5]]:
                probs = joint_distribution(model, epochs)
                assert np.all(probs >= 0.0)
                assert abs(probs.sum() - 1.0) <= 1e-10

    def test_marginalization(self):
        for model in ALL_MODELS:
            full = joint_distribution(model, [1, 2, 3])
            marg = full[:4] + full[4:]  # sum out the last epoch
            pair = joint_distribution(model, [1, 2])
            assert np.max(np.abs(marg - pair)) <= 1e-10

    def test_geometric_markov_products(self):
        for K in range(1, 13):
            ours = joint_distribution(GG, list(range(1, K + 1)))
            oracle = geometric_markov_joint(GG, K)
            assert np.max(np.abs(ours - oracle)) <= 1e-10

    def test_epoch_validation(self):
        with pytest.raises(ValueError):
            joint_distribution(GG, [2, 1])
        with pytest.raises(ValueError):
            joint_distribution(GG, [])
        with pytest.raises(ValueError):
            joint_distribution(GG, list(range(1, 14)))

    def test_monte_carlo_frequencies(self):
        # heavy/stretched tails vs simulated pattern frequencies, 4 SE
        # light version; the full 1e6-edge-step check lives in the acceptance suite
        rng = np.random.default_rng(77)
        for model in [PP, WG]:
            wide = ModelSpec(on_law=model.on_law, off_law=model.off_law, n=2000)
            samples = []
            for _ in range(20):
                mat = edge_indicator_matrix(wide, 3, rng)
                samples.append(mat)
            mat = np.vstack(samples)  # 40k independent 3-epoch patterns
            codes = mat[:, 0] * 1 + mat[:, 1] * 2 + mat[:, 2] * 4
            M = len(codes)
            probs = joint_distribution(model, [1, 2, 3])
            for s in range(8):
                freq = np.mean(codes == s)
                se = math.sqrt(probs[s] * (1 - probs[s]) / M)
                assert abs(freq - probs[s]) <= 4 * se + 1e-9

    def test_prob_all_on(self):
        # the last entry, P(on at every epoch), is the marginal of a longer law
        for model in ALL_MODELS:
            probs = joint_distribution(model, [1, 3, 4])
            assert joint_distribution(model, [1, 3])[-1] == pytest.approx(
                probs[3] + probs[7], abs=1e-12)
            assert joint_distribution(model, [3, 4])[-1] == pytest.approx(
                probs[6] + probs[7], abs=1e-12)


class TestAutocovariance:
    def test_geometric_closed_form(self):
        gamma = autocovariance(GG, 1000)
        rho = GG.rho
        f = 1 - 0.3 - 0.8
        d = np.arange(1000)
        closed = rho * (1 - rho) * f ** d
        assert np.max(np.abs(gamma - closed)) <= 1e-12 * rho
        assert gamma[1] == pytest.approx(rho * (0.7 - rho), abs=1e-12 * rho)

    def test_initial_conditions(self):
        for model in ALL_MODELS:
            gamma = autocovariance(model, 5)
            rho = model.rho
            assert gamma[0] == rho * (1 - rho)
            # P(on at 1 + d | on at 1) lies in [0, 1]
            assert np.all((gamma >= -rho * rho) & (gamma <= rho * (1 - rho)))

    def test_no_lag_refused(self):
        with pytest.raises(ValueError, match="k_max"):
            autocovariance(GG, 0)

    @pytest.mark.parametrize("k_max", [1, 2, 3, 50, 2048])
    def test_matches_loop(self, k_max):
        for model in ALL_MODELS:
            gamma = autocovariance(model, k_max)
            old = model.rho * (loop_autocovariance(model, k_max)[2] - model.rho)
            assert np.max(np.abs(gamma - old)) <= 1e-12 * model.rho
            if k_max <= 3:  # the tables theoretical_moment_set reads keep their bits
                assert np.array_equal(gamma, old)

    def test_loop_oracle_refuses_long_tables(self):
        with pytest.raises(ValueError, match="drifts"):
            loop_autocovariance(PP, LOOP_K_MAX + 1)

    def test_fft_products_at_most_the_size_they_need(self, monkeypatch):
        # k = 1,026 needs products of 2,051 terms: 2,560 = 5 * 2^9 points
        # hold them, where the next power of two is 4,096
        sizes = []
        rfft = np.fft.rfft

        def recording_rfft(a, n=None, *args, **kwargs):
            sizes.append(n)
            return rfft(a, n, *args, **kwargs)

        monkeypatch.setattr(np.fft, "rfft", recording_rfft)
        autocovariance(PP, 1026)
        assert sizes and max(sizes) < 4096

    def test_no_drift_at_large_k(self):
        # p + q = 1: every lag is independent, so gamma = 0 exactly from d = 1 on;
        # a recursion on u itself rather than its excess drifts by ~3e-14 here
        model = ModelSpec(on_law=Geometric(0.45), off_law=Geometric(0.55), n=4)
        gamma = autocovariance(model, 4096)
        assert np.max(np.abs(gamma[1:])) <= 1e-15 * model.rho

    def test_matches_joint_distribution(self):
        for model in [PP, PG]:
            gamma = autocovariance(model, 6)
            for k in [2, 4, 6]:
                p11 = joint_distribution(model, [1, k])[-1]
                assert gamma[k - 1] + model.rho**2 == pytest.approx(p11, abs=1e-11)


class TestLegendre:
    def test_empty_counts_refused(self):
        # as joint_mgf refuses an empty tilt: a ValueError, not an IndexError
        for fn in (legendre_transform, saddlepoint_logprob):
            with pytest.raises(ValueError, match="length >= 1"):
                fn(GG, [], 100)
        with pytest.raises(ValueError, match="length >= 1"):
            joint_mgf(GG, [])

    def test_zero_at_mean(self):
        counts = np.full(3, 100 * GG.rho)
        value, theta, _ = legendre_transform(GG, counts, 100)
        assert value <= 1e-8
        assert np.max(np.abs(theta)) <= 1e-4

    def test_k1_bernoulli_closed_form(self):
        # counts at 0 or n are clamped to 1e-6 n inside the interval
        n, rho = 100, GG.rho
        for n1 in [0.0, 1.0, 40.0, 60.0, 85.0, 100.0]:
            a = min(max(n1 / n, 1e-6), 1 - 1e-6)
            expect = n * (a * math.log(a / rho) + (1 - a) * math.log((1 - a) / (1 - rho)))
            value, _, _ = legendre_transform(GG, [n1], n)
            assert value == pytest.approx(expect, abs=1e-6)

    @pytest.mark.parametrize("model", [GG, PP], ids=["gg", "pp"])
    def test_boundary_counts_converge(self, model):
        n = 100
        for counts in [[0], [1], [n], [0, 1, n], [n, n, 0], [1, 0, n, n, 0]]:
            value, theta, _ = legendre_transform(model, counts, n)
            assert math.isfinite(value) and value > 0
            assert np.all(np.isfinite(theta))
            assert math.isfinite(saddlepoint_logprob(model, counts, n))

    def test_positive_away_from_mean(self):
        value, _, _ = legendre_transform(GG, [100 * GG.rho / 2], 100)
        assert value > 0.1

    @pytest.mark.parametrize("K", [1, 3, 10])
    @pytest.mark.parametrize("model", [GG, PP, PG, WG], ids=["gg", "pp", "pg", "wg"])
    def test_matches_loop(self, model, K):
        # the law arrays built once and each candidate tried by one
        # _tilted_moments call leave every value and tilt bit-identical to
        # the loop
        n = model.n
        rng = np.random.default_rng(K)
        cases = [(model, rng.integers(1, n, K)), (model, np.resize([0, n, 1], K))]
        if K == 3:  # a candidate overflows M here
            cases.append((FROZEN, [5, 5, 5]))
        for m, counts in cases:
            value, theta, logprob = loop_legendre(m, counts, m.n)
            got_value, got_theta, _ = legendre_transform(m, counts, m.n)
            assert got_value == value
            assert np.array_equal(got_theta, theta)
            assert saddlepoint_logprob(m, counts, m.n) == logprob

    def test_law_arrays_built_once(self, monkeypatch):
        # two _law_arrays calls (on and off) per transform and per saddle, whose
        # log-determinant reads the transform's covariance with no
        # _tilted_moments call of its own, and no joint_mgf in a K=10 saddle,
        # whose Newton steps are all accepted
        calls = {"_law_arrays": 0, "joint_mgf": 0, "_tilted_moments": 0}

        def counted(name):
            fn = getattr(renewal, name)

            def wrapper(*args):
                calls[name] += 1
                return fn(*args)
            monkeypatch.setattr(renewal, name, wrapper)

        counted("_law_arrays")
        counted("joint_mgf")
        counted("_tilted_moments")
        counts = gg_count_chain(GG, 10, np.random.default_rng(10))
        for model, c in [(GG, counts), (PG, [3, 0, 10]), (FROZEN, [5, 5, 5])]:
            calls["_law_arrays"] = calls["_tilted_moments"] = 0
            _, theta, cov = legendre_transform(model, c, model.n)
            assert calls["_law_arrays"] == 2
            batches = calls["_tilted_moments"]
            assert np.array_equal(cov, _tilted_moments(_mgf_arrays(model, len(c)), theta)[2])
            calls["_law_arrays"] = calls["_tilted_moments"] = 0
            saddlepoint_logprob(model, c, model.n)
            assert calls["_law_arrays"] == 2
            assert calls["_tilted_moments"] == batches
        assert calls["joint_mgf"] == 0


class TestSaddlepoint:
    def test_overflowing_candidate_is_no_ascent(self):
        # a Newton candidate for this nearly frozen model overflows exp in joint_mgf
        assert math.isfinite(saddlepoint_logprob(FROZEN, [5, 5, 5], 10))

    def test_underflowing_candidate_is_no_ascent(self):
        # a Newton candidate's MGF underflows to 0 here; log M of it once
        # raised a bare "math domain error"
        off = Pareto(1e-9, 300.0)
        frozen = ModelSpec(on_law=Geometric(1e-12), off_law=off, n=10)
        with pytest.raises(DegenerateSaddleError):
            saddlepoint_logprob(frozen, [5, 5, 5], 10)
        heavy = ModelSpec(on_law=Pareto(1.0, 1.0001), off_law=off, n=10)
        assert math.isfinite(saddlepoint_logprob(heavy, [5, 5, 5], 10))

    def test_k1_binomial(self):
        n, rho = 100, GG.rho
        for n1 in [73, round(n * rho)]:
            approx = saddlepoint_logprob(GG, [float(n1)], n)
            exact = binom.logpmf(n1, n, rho)
            assert abs(approx - exact) <= 0.05

    @pytest.mark.parametrize("K", [5, 10])
    def test_geometric_count_chain(self, K):
        rng = np.random.default_rng(K)
        for _ in range(3):
            counts = gg_count_chain(GG, K, rng)
            approx = saddlepoint_logprob(GG, counts, GG.n)
            assert abs(approx - gg_count_chain_logprob(GG, counts)) <= 0.1

    @pytest.mark.parametrize("K", [5, 10, 20, 40])
    def test_error_does_not_grow_with_n(self, K):
        # the mean |error| over 10 count-chain draws against the exact law, at
        # n = 20, 50 and 100; it falls about as 1/n (0.035 -> 0.017 at K = 5
        # and 0.28 -> 0.14 at K = 40 from n = 50 to 100)
        errors = []
        for n in [20, 50, 100]:
            model = ModelSpec(on_law=GG.on_law, off_law=GG.off_law, n=n)
            rng = np.random.default_rng([K, n])
            draws = [gg_count_chain(model, K, rng) for _ in range(10)]
            errors.append(np.mean([abs(saddlepoint_logprob(model, c, n)
                                       - gg_count_chain_logprob(model, c)) for c in draws]))
        assert errors[0] >= errors[1] >= errors[2]

    def test_hessian_is_tilted_variance(self):
        # the chain's moments are those of the tilted law p(x) exp(theta . x) / M
        theta = np.array([0.4, -1.2, 0.7])
        x = np.array([[(s >> j) & 1 for j in range(3)] for s in range(8)], dtype=np.float64)
        for model in ALL_MODELS:
            log_m, p_on, cov = _tilted_moments(_mgf_arrays(model, 3), theta)
            weights = joint_distribution(model, [1, 2, 3]) * np.exp(x @ theta)
            assert log_m == pytest.approx(math.log(weights.sum()), abs=1e-12)
            weights /= weights.sum()
            centred = x - weights @ x
            assert np.max(np.abs(p_on - weights @ x)) <= 1e-12
            assert np.max(np.abs(cov - centred.T @ (weights[:, None] * centred))) <= 1e-12
        # s(n) for K=1 is n Var of the tilted Bernoulli with mean 60/100; Newton
        # stops at a decrement of 1e-12 n, i.e. |100 p_on - 60| <= 1e-5 sqrt(24)
        _, theta, _ = legendre_transform(GG, [60.0], 100)
        _, p_on, cov = _tilted_moments(_mgf_arrays(GG, 1), theta)
        assert p_on[0] == pytest.approx(0.6, abs=1e-6)
        assert cov[0, 0] == pytest.approx(0.24, abs=1e-6)


# Laws at the edges of what the constructors accept, each taken as the on-
# and the off-law against every other.
EXTREME_LAWS = [Geometric(1e-12), Geometric(1 - 1e-15), Pareto(1e-9, 300.0), Pareto(1e19, 3.0),
                Pareto(1.0, 1.0001), Weibull(1e-3, 0.2), Weibull(50.0, 8.0)]


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("on_law", EXTREME_LAWS, ids=repr)
def test_extreme_laws_finite_or_typed(on_law):
    # each call finishes within its time bound with a finite result or a
    # typed refusal, and the covariance limits are infinite only where
    # finiteness_check fails; the slowest call of this grid took about 70 ms
    for off_law in EXTREME_LAWS:
        model = ModelSpec(on_law=on_law, off_law=off_law, n=10)
        calls = [lambda c=c: saddlepoint_logprob(model, c, 10)
                 for c in ([5, 5, 5], [0, 10, 3], [1, 9, 1])]
        calls.append(lambda: joint_distribution(model, [1, 2, 5]))
        calls.append(lambda: autocovariance(model, 64))
        calls.append(lambda: _finite_limits(model))
        for call in calls:
            start = time.perf_counter()
            try:
                assert np.all(np.isfinite(call()))
            except COMPUTE_ERRORS as exc:
                assert "math domain error" not in str(exc)
            assert time.perf_counter() - start < 2.0


def _finite_limits(model):
    """general_moment_cov's v0, v1 and c01, less the infinite ones where finiteness_check fails."""
    finite = finiteness_check(model)[0]
    with nullcontext() if finite else pytest.warns(DivergenceWarning):
        mc = general_moment_cov(model, model.n)
    limits = np.array([mc.v0, mc.v1, mc.c01])
    return limits if finite else limits[~np.isinf(limits)]
