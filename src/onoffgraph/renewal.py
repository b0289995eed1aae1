"""Exact per-edge analytics for the stationary on/off process.

Covers the joint moment generating function of the on-indicators over a
finite horizon, extraction of joint point probabilities from it, the
stationary autocovariance recursions, and the saddlepoint approximation to
the log-probability of an observed count vector.
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


def _residual_arrays(law, kmax):
    """Residual pmf fbar_1..fbar_kmax and residual survival P(res >= 1..kmax+1)."""
    mean = law.mean()
    surv = law.survival(np.arange(1, kmax + 2))
    fbar = surv[:-1] / mean
    res_surv = np.concatenate([[1.0], 1.0 - np.cumsum(fbar)])
    return fbar, np.maximum(res_surv, 0.0)


def joint_mgf(model: ModelSpec, theta) -> float:
    """E exp(sum_k theta_k 1(k)) for one stationary edge over times 1..K.

    Entries of theta may be -inf, which forces the edge off at that epoch;
    such entries are realized as exact zero multipliers. The finite system
    for the just-turned-on / just-turned-off expectations v_k, w_k is upper
    triangular and solved by backward recursion; infinite pmf tails enter
    through survival functions in closed form.
    """
    theta = np.asarray(theta, dtype=np.float64)
    K = len(theta)
    if K < 1:
        raise ValueError("theta must have at least one entry")
    e = np.where(np.isneginf(theta), 0.0, np.exp(theta))
    f, surv_f = _law_arrays(model.on_law, K)
    g, surv_g = _law_arrays(model.off_law, K)
    fbar, res_surv_f = _residual_arrays(model.on_law, K)
    gbar, res_surv_g = _residual_arrays(model.off_law, K)

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
    rho = model.rho
    return rho * m_plus + (1.0 - rho) * m_minus


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
    K = max(epochs)
    q = np.empty(1 << m)
    for s in range(1 << m):
        theta = np.zeros(K)
        for j in range(m):
            if s & (1 << j):
                theta[epochs[j] - 1] = -np.inf
        # Q[t] = sum_{x subset t} p[x] equals the MGF with off forced on ~t
        q[(~s) & ((1 << m) - 1)] = joint_mgf(model, theta)
    for j in range(m):
        bit = 1 << j
        for t in range(1 << m):
            if t & bit:
                q[t] -= q[t ^ bit]
    return np.where(q < 0.0, np.where(q > -1e-12, 0.0, q), q)


def prob_all_on(model: ModelSpec, epochs) -> float:
    """P(one stationary edge is on at every epoch in the set)."""
    epochs = sorted(set(int(t) for t in epochs))
    return float(joint_distribution(model, epochs)[-1]) if epochs else 1.0


@dataclass
class AutocovTable:
    """Conditional on-probabilities r_k, s_k and the residual variant.

    r_k: P(on at k | fresh on-period starts at 1)
    s_k: P(on at k | fresh off-period starts at 1)
    r_res_k: same as r_k but with the residual on-time at 1 (stationary start)
    Arrays are 1-indexed via [k-1].
    """

    rho: float
    r: np.ndarray
    s: np.ndarray
    r_res: np.ndarray

    @property
    def k_max(self) -> int:
        return len(self.r)

    def covariance(self, k) -> np.ndarray:
        """Cov(1(1), 1(k)) = rho (r_res_k - rho) for the stationary process."""
        k = np.asarray(k)
        return self.rho * (self.r_res[k - 1] - self.rho)


def autocovariance(model: ModelSpec, k_max: int) -> AutocovTable:
    """Fill the r/s/r_res tables up to k_max by convolution."""
    if k_max < 1:
        raise ValueError("k_max must be >= 1")
    f, surv_f = _law_arrays(model.on_law, k_max)
    g, _ = _law_arrays(model.off_law, k_max)
    fbar, res_surv_f = _residual_arrays(model.on_law, k_max)
    r = np.empty(k_max)
    s = np.empty(k_max)
    r_res = np.empty(k_max)
    r[0], s[0], r_res[0] = 1.0, 0.0, 1.0
    for k in range(2, k_max + 1):
        conv_s = s[k - 2::-1]
        r[k - 1] = f[: k - 1] @ conv_s + surv_f[k - 1]
        s[k - 1] = g[: k - 1] @ r[k - 2::-1]
        r_res[k - 1] = fbar[: k - 1] @ conv_s + res_surv_f[k - 1]
    return AutocovTable(rho=model.rho, r=r, s=s, r_res=r_res)


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
    mgf = joint_mgf(model, theta)
    off = np.empty((K, K))
    for i in range(K):
        for j in range(i, K):
            knocked = theta.copy()
            knocked[[i, j]] = -np.inf
            off[i, j] = off[j, i] = joint_mgf(model, knocked) / mgf
    p_off = np.diag(off).copy()
    return math.log(mgf), 1.0 - p_off, off - np.outer(p_off, p_off)


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
