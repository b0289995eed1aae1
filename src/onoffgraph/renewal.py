"""Exact per-edge analytics for the stationary on/off process.

Covers the joint moment generating function of the on-indicators over a
finite horizon, the stationary autocovariance recursions, and the
saddlepoint approximation to the log-probability of an observed count
vector. The joint MGF takes a batch of tilts in one backward recursion;
the joint point probabilities and the saddlepoint's tilted moments each
come from one batched call.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg import cho_solve

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
    e = np.exp(np.atleast_2d(theta))
    B, K = e.shape
    f, surv_f = _law_arrays(model.on_law, K)
    g, surv_g = _law_arrays(model.off_law, K)
    fbar, res_surv_f = _residual_arrays(surv_f, model.on_law.mean())
    gbar, res_surv_g = _residual_arrays(surv_g, model.off_law.mean())

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
    mgf = model.rho * m_plus + (1.0 - model.rho) * m_minus
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


def _conv(a, b, k):
    """The first k coefficients of the product of the power series a and b."""
    return np.convolve(a[:k], b[:k])[:k]


def _shift(a):
    """The power series a times z, cut to the length of a."""
    return np.concatenate(([0.0], a[:-1]))


def _on_start_density(f, surv_f, g, surv_g, c):
    """u_m = P(an on-period starts at 1 + m | one starts at 1), m < len(f).

    u is the power series 1 / (1 - F G), F and G the on- and off-time pmfs,
    and tends to c = 1 / E[X + Y]. The loop runs on the excess w = u - c,
    which solves w_m = sum_i h_i w_(m-i) - c P(X + Y > m) (plus 1 at m = 0),
    h the pmf of X + Y: its rounding errors scale with w, not with c, so they
    do not pile up into a drift of the limit. F G has no term below z^2, so
    each w_m is one dot product with the terms before it.
    """
    k = len(f)
    u = np.zeros(k)
    u[0] = 1.0  # exact: an on-period starts at 1, and none at 2
    if k > 2:
        h = _conv(f, g, k - 1)  # h[i] = P(X + Y = i + 2)
        w = -c * (surv_f[:k] + _shift(_conv(f, surv_g, k)))  # -c P(X + Y > m)
        w[0] += 1.0
        for m in range(2, k):
            w[m] += h[: m - 1] @ w[m - 2::-1]
        u[2:] = c + w[2:]
    return u


@dataclass
class AutocovTable:
    """Conditional on-probabilities r_k, s_k and the residual variant.

    r_k: P(on at k | fresh on-period starts at 1)
    s_k: P(on at k | fresh off-period starts at 1)
    r_res_k: same as r_k but with the residual on-time at 1 (stationary start)
    These are 1-indexed via [k-1]; fbar and res_surv are the residual on-law
    arrays. The adjacent-pair series S2[d] = P(on at d+1 and d+2 | fresh
    off-period starts at 1) and fbar_S2 = F-bar S2, the same behind a
    residual on-time, are 0-indexed.
    """

    rho: float
    r: np.ndarray
    s: np.ndarray
    r_res: np.ndarray
    fbar: np.ndarray
    res_surv: np.ndarray
    S2: np.ndarray
    fbar_S2: np.ndarray


def autocovariance(model: ModelSpec, k_max: int) -> AutocovTable:
    """The renewal tables up to k_max from one on-start density and convolutions.

    With u = 1 / (1 - F G), every table is a product of known series:
    r = u S_f (S_f the on-time survival), s = z G r and
    r_res = z F-bar s + the residual survival; the pair tables take
    R2 = u S_f shifted by one epoch and S2 = z G R2.
    """
    if k_max < 1:
        raise ValueError("k_max must be >= 1")
    ex, ey = model.on_law.mean(), model.off_law.mean()
    f, surv_f = _law_arrays(model.on_law, k_max)
    g, surv_g = _law_arrays(model.off_law, k_max)
    fbar, res_surv_f = _residual_arrays(surv_f, ex)
    u = _on_start_density(f, surv_f, g, surv_g, 1.0 / (ex + ey))
    r = _conv(u, surv_f, k_max)
    s = _shift(_conv(g, r, k_max))
    S2 = _shift(_conv(g, _conv(u, surv_f[1:], k_max), k_max))
    return AutocovTable(rho=ex / (ex + ey), r=r, s=s,
                        r_res=_shift(_conv(fbar, s, k_max)) + res_surv_f[:k_max],
                        fbar=fbar, res_surv=res_surv_f, S2=S2, fbar_S2=_conv(fbar, S2, k_max))


# ---------------------------------------------------------------------------
# Legendre transform and saddlepoint approximation
# ---------------------------------------------------------------------------


def _tilted_moments(model, theta):
    """log M(theta), the tilted on-probabilities and their covariance, all exact.

    M is affine in each e_k = exp(theta_k), and theta_k = -inf (a knockout)
    keeps exactly the paths that are off at k. Under the tilt, P(off at i and
    j) = M_ij / M, so grad log M = 1 - M_k / M and Hess log M, the tilted
    covariance of the indicators, is M_ij / M - (M_i / M)(M_j / M).
    """
    K = len(theta)
    i, j = np.triu_indices(K)
    batch = np.tile(theta, (len(i) + 1, 1))  # row 0 is theta; row r knocks out i[r-1], j[r-1]
    rows = np.arange(1, len(i) + 1)
    batch[rows, i] = batch[rows, j] = -np.inf
    mgf = joint_mgf(model, batch)
    off = np.empty((K, K))
    off[i, j] = off[j, i] = mgf[1:] / mgf[0]
    p_off = np.diag(off).copy()
    return math.log(mgf[0]), 1.0 - p_off, off - np.outer(p_off, p_off)


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
    for _ in range(100):
        log_mgf, p_on, cov = _tilted_moments(model, theta)
        value = float(theta @ counts) - n * log_mgf
        grad = counts - n * p_on
        step = cho_solve((_cholesky(n * cov), True), grad)
        decrement = float(grad @ step)
        if decrement <= 1e-12 * n:
            return max(value, 0.0), theta
        for _ in range(60):
            cand = theta + step
            if float(cand @ counts) - n * math.log(joint_mgf(model, cand)) > value:
                break
            step *= 0.5
        else:
            break
        theta = cand
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
