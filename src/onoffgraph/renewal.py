"""Exact per-edge analytics for the stationary on/off process.

Covers the joint moment generating function of the on-indicators over a
finite horizon, the stationary autocovariance of one edge, and the
saddlepoint approximation to the log-probability of an observed count
vector. The joint MGF takes a batch of tilts in one backward recursion;
the joint point probabilities and the saddlepoint's tilted moments each
come from one batched call.
"""

from __future__ import annotations

import math

import numpy as np
import scipy

from .errors import ConvergenceError, DegenerateSaddleError
from .simulate import ModelSpec

_JOINT_EPOCH_CAP = 12


def _law_arrays(law, kmax):
    """pmf values f_1..f_kmax and survivals P(Z >= 1..kmax+1)."""
    surv = law.survival(np.arange(1, kmax + 2))
    return surv[:-1] - surv[1:], surv


def _residual_arrays(surv, mean):
    """Residual pmf fbar_1..fbar_kmax and residual survival P(res >= 1..kmax+1).

    surv is the law's survival P(Z >= 1..kmax+1), as _law_arrays gives it.
    """
    fbar = surv[:-1] / mean
    res_surv = np.concatenate([[1.0], 1.0 - np.cumsum(fbar)])
    return fbar, np.maximum(res_surv, 0.0)


def _mgf_arrays(model, K):
    """What the MGF recursion reads of the two laws at horizon K.

    The on- and off-time pmfs and survivals, the residual pmfs and survivals
    of the stationary start, and rho; a caller that evaluates many tilts of
    one horizon builds them once.
    """
    f, surv_f = _law_arrays(model.on_law, K)
    g, surv_g = _law_arrays(model.off_law, K)
    fbar, res_surv_f = _residual_arrays(surv_f, model.on_law.mean())
    gbar, res_surv_g = _residual_arrays(surv_g, model.off_law.mean())
    return f, surv_f, g, surv_g, fbar, res_surv_f, gbar, res_surv_g, model.rho


def _mgf_batch(arrays, theta):
    """joint_mgf of a (B, K) batch of tilts, from the _mgf_arrays of horizon K."""
    f, surv_f, g, surv_g, fbar, res_surv_f, gbar, res_surv_g, rho = arrays
    e = np.exp(theta)
    B, K = e.shape
    # v[:, k], w[:, k]: the tilted expectation over epochs k..K given that an
    # on- (off-) period starts at k; column 0 is unused
    v = np.zeros((B, K + 1))
    w = np.zeros((B, K + 1))
    for k in range(K, 0, -1):
        d = K - k
        run = np.cumprod(e[:, k - 1:], axis=1)  # run[:, l-1]: product over epochs k..k+l-1
        v[:, k] = (run[:, :d] * w[:, k + 1:]) @ f[:d] + surv_f[d] * run[:, d]
        w[:, k] = v[:, k + 1:] @ g[:d] + surv_g[d]
    # the stationary start: the same sums at k = 1 over the residual laws
    m_plus = (run[:, :K - 1] * w[:, 2:]) @ fbar[:K - 1] + res_surv_f[K - 1] * run[:, K - 1]
    m_minus = v[:, 2:] @ gbar[:K - 1] + res_surv_g[K - 1]
    return rho * m_plus + (1.0 - rho) * m_minus


def joint_mgf(model: ModelSpec, theta) -> float | np.ndarray:
    """E exp(sum_k theta_k 1(k)) for one stationary edge over times 1..K.

    theta is one tilt of length K (the result is a float) or a (B, K) batch
    of tilts (the result is a length-B array). Entries may be -inf, which
    forces the edge off at that epoch; exp(-inf) is an exact zero multiplier.
    The finite system for the just-turned-on / just-turned-off expectations
    v_k, w_k is upper triangular and solved by backward recursion over k,
    with the batch as an array axis; infinite pmf tails enter through
    survival functions in closed form.
    """
    theta = np.asarray(theta, dtype=np.float64)
    if theta.ndim not in (1, 2) or theta.shape[-1] < 1:
        raise ValueError("theta must be a tilt vector or a batch of them, of length >= 1")
    mgf = _mgf_batch(_mgf_arrays(model, theta.shape[-1]), np.atleast_2d(theta))
    return float(mgf[0]) if theta.ndim == 1 else mgf


def joint_distribution(model: ModelSpec, epochs) -> np.ndarray:
    """Joint law of the on-indicators at the given epochs for one edge.

    Returns a vector of length 2^m indexed by the on-pattern bits (bit j set
    means the edge is on at epochs[j]); epochs must be sorted, distinct, and
    at most 12 in number. Probabilities are recovered from MGF evaluations at
    {-inf, 0} masks by Moebius inversion over the subset lattice.
    """
    epochs = list(epochs)
    m = len(epochs)
    if m == 0 or m > _JOINT_EPOCH_CAP:
        raise ValueError(f"need 1..{_JOINT_EPOCH_CAP} epochs, got {m}")
    if sorted(set(epochs)) != epochs or min(epochs) < 1:
        raise ValueError("epochs must be sorted, distinct, positive integers")
    # Q[t] = sum_{x subset t} p[x] = P(off at every epoch outside t) is the
    # MGF with -inf at the epochs whose bit is clear in t
    bits = (np.arange(1 << m)[:, None] >> np.arange(m)) & 1
    theta = np.zeros((1 << m, epochs[-1]))
    theta[:, np.array(epochs) - 1] = np.where(bits, 0.0, -np.inf)
    # axis j of the (2,)*m reshape is bit m-1-j; differencing along every axis
    # inverts the subset sums
    q = joint_mgf(model, theta).reshape((2,) * m)
    for axis in range(m):
        q = np.diff(q, axis=axis, prepend=0.0)
    q = q.ravel()
    return np.where(q < 0.0, np.where(q > -1e-12, 0.0, q), q)


# Products of series up to this length are direct (np.convolve), so the short
# tables the fit residuals read keep their bits; longer ones take one real FFT.
_DIRECT = 128


def _fft_size(m):
    """The least of 2^j, 3 2^(j-2) and 5 2^(j-3) that is at least m, for m > 8."""
    power = 1 << (m - 1).bit_length()
    return min(size for size in (power, 3 * power // 4, 5 * power // 8) if size >= m)


def _mul(a, b, k):
    """The first k coefficients of the product of the power series a and b."""
    a, b = a[:k], b[:k]
    if min(len(a), len(b)) <= _DIRECT:
        return np.convolve(a, b)[:k]
    size = _fft_size(len(a) + len(b) - 1)
    return np.fft.irfft(np.fft.rfft(a, size) * np.fft.rfft(b, size), size)[:k]


def _shift(a):
    """The power series a times z, cut to the length of a."""
    return np.concatenate(([0.0], a[:-1]))


def _reciprocal(h, k):
    """The first k coefficients of 1 / h, for a power series h = 1 + z + ...

    Newton's step b <- b - b (h b - 1) doubles the correct coefficients (Brent
    and Kung 1978); h b - 1 has no term below z^len(b), so only new ones change.
    """
    b = np.array([1.0, -1.0])[:k]
    while len(b) < k:
        m = min(2 * len(b), k)
        miss = _mul(h, b, m)[len(b):]
        b = np.concatenate([b, -_mul(b, miss, m - len(b))])
    return b


def autocovariance(model: ModelSpec, k_max: int) -> np.ndarray:
    """gamma(d) = Cov(I(1), I(1 + d)) of one edge's on-indicator, for d = 0..k_max-1.

    gamma(d) = rho (p_on(1 + d) - rho), p_on(k) = P(on at k | on at 1). With
    F, G the on- and off-time pmfs, 1 - F G = (1 - z) H-bar, H-bar_m =
    P(X + Y > m), so u = 1 / (1 - F G) is the running sum of b = 1 / H-bar.
    p_on is the residual on-survival plus z^2 F-bar G S_f u (F-bar the residual
    on-time pmf, S_f the on-time survival): the running sum of b times the
    kernel z^2 F-bar G S_f, plus the residual survival.
    """
    if k_max < 1:
        raise ValueError("k_max must be >= 1")
    ex, ey = model.on_law.mean(), model.off_law.mean()
    rho = ex / (ex + ey)
    f, surv_f = _law_arrays(model.on_law, k_max)
    g, surv_g = _law_arrays(model.off_law, k_max)
    fbar, res_surv_f = _residual_arrays(surv_f, ex)
    b = _reciprocal(surv_f[:k_max] + _shift(_mul(f, surv_g, k_max)), k_max)
    kernel = _shift(_mul(fbar, _shift(_mul(g, surv_f, k_max)), k_max))
    p_on = np.cumsum(_mul(b, kernel, k_max)) + res_surv_f[:k_max]
    return rho * (p_on - rho)


# ---------------------------------------------------------------------------
# Legendre transform and saddlepoint approximation
# ---------------------------------------------------------------------------


def _tilted_moments(model, theta, arrays=None):
    """log M(theta), the tilted on-probabilities and their covariance, all exact.

    M is affine in each e_k = exp(theta_k), and theta_k = -inf (a knockout)
    keeps exactly the paths that are off at k. Under the tilt, P(off at i and
    j) = M_ij / M, so grad log M = 1 - M_k / M and Hess log M, the tilted
    covariance of the indicators, is M_ij / M - (M_i / M)(M_j / M). arrays are
    the _mgf_arrays of horizon len(theta), built here when not given. log M
    is NaN when M(theta) is not a positive finite number.
    """
    K = len(theta)
    i, j = np.triu_indices(K)
    batch = np.tile(theta, (len(i) + 1, 1))  # row 0 is theta; row r knocks out i[r-1], j[r-1]
    rows = np.arange(1, len(i) + 1)
    batch[rows, i] = batch[rows, j] = -np.inf
    mgf = _mgf_batch(_mgf_arrays(model, K) if arrays is None else arrays, batch)
    off = np.empty((K, K))
    off[i, j] = off[j, i] = mgf[1:] / mgf[0]
    p_off = np.diag(off).copy()
    log_mgf = math.log(mgf[0]) if 0.0 < mgf[0] < math.inf else math.nan
    return log_mgf, 1.0 - p_off, off - np.outer(p_off, p_off)


def _cholesky(hess):
    try:
        return np.linalg.cholesky(hess)
    except np.linalg.LinAlgError as exc:
        raise DegenerateSaddleError("tilted covariance is not positive definite") from exc


def legendre_transform(model: ModelSpec, counts, n: int):
    """sup_theta (theta . counts - n log M(theta)) with its maximizer.

    The objective is concave with Hessian -n Cov_theta; Newton's method takes
    its exact tilted moments and halves a step until it raises the objective.
    It stops on the Newton decrement, since the gradient has a rounding floor.
    Counts at 0 or n are clamped slightly into the interior, where the
    supremum is attained.
    """
    counts = np.asarray(counts, dtype=np.float64)
    eps = 1e-6 * n
    counts = np.clip(counts, eps, n - eps)
    theta = np.zeros(len(counts))
    arrays = _mgf_arrays(model, len(counts))
    log_mgf, p_on, cov = _tilted_moments(model, theta, arrays)
    for _ in range(100):
        value = float(theta @ counts) - n * log_mgf
        grad = counts - n * p_on
        step = scipy.linalg.cho_solve((_cholesky(n * cov), True), grad)
        decrement = float(grad @ step)
        if decrement <= 1e-12 * n:
            return max(value, 0.0), theta
        for _ in range(60):
            cand = theta + step
            # one knockout batch gives M(cand) and, if cand is accepted, the
            # next step's moments; a candidate far out may overflow M or
            # underflow it to 0, and its NaN log M is no ascent
            with np.errstate(over="ignore", invalid="ignore"):
                moments = _tilted_moments(model, cand, arrays)
            if float(cand @ counts) - n * moments[0] > value:
                break
            step *= 0.5
        else:
            break
        theta = cand
        log_mgf, p_on, cov = moments
    raise ConvergenceError(
        f"Legendre Newton did not converge (decrement={decrement:.3g})", best=(value, theta))


def saddlepoint_logprob(model: ModelSpec, counts, n: int) -> float:
    """Saddlepoint approximation to log P(A_n(1..K) = counts).

    Returns -(K/2) log(2 pi) - (1/2) log det(n Hess log M) - I at the
    optimizing tilt.
    """
    K = len(counts)
    value, theta = legendre_transform(model, counts, n)
    chol = _cholesky(n * _tilted_moments(model, theta)[2])
    log_det = 2.0 * float(np.sum(np.log(np.diag(chol))))
    return -0.5 * K * math.log(2 * math.pi) - 0.5 * log_det - value
