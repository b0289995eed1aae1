"""Exact per-edge analytics for the stationary on/off process.

Covers the joint moment generating function of the on-indicators over a
finite horizon, the stationary autocovariance of one edge, and the
saddlepoint approximation to the log-probability of an observed count
vector. The joint MGF, the joint on-pattern laws and the saddlepoint's
tilted moments run on one Markov chain for the edge, whose state at an
epoch is the phase and the epoch at which the current period ends; periods
that outlast the horizon K are lumped into the end K, which is exact since
nothing after K is observed. A tilt enters as per-epoch factors in [0, 1],
so no mass overflows and M = M' exp(sum_k max(theta_k, 0)); the forward
pass scales its mass by powers of two, so M' does not underflow either
(scaled recursions as in Rabiner 1989; forward-backward on semi-Markov
chains as in Yu 2010).
"""

from __future__ import annotations

import functools
import math

import numpy as np
import scipy

from .errors import ConvergenceError, DegenerateSaddleError
from .simulate import ModelSpec

_JOINT_EPOCH_CAP = 12
# exp overflows past this argument
_EXP_MAX = math.log(np.finfo(np.float64).max)
# _tilted_moments rescales a tilt whose M' is below this: above it, every path
# that carries more than 2^-122 of M' keeps its factors and products normal
_RESCALE_BELOW = 2.0 ** -900


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
    """What the tilted chain reads of the two laws at horizon K: a table, rows (on, off), weights.

    A period that starts at epoch s (0-based) with L = K - s epochs left ends
    at s + l - 1 with probability pmf[l - 1] for l < L, and at the lumped end
    K - 1 with probability tail[L - 1] = P(Z >= L). res is the same end table
    for the residual periods of the stationary start, which the weights
    (rho, 1 - rho) weigh. The table's columns are pmf, tail and res, K each,
    then a 0. A caller that evaluates many tilts of one horizon builds them
    once.
    """
    table = np.zeros((2, 3 * K + 1))
    means = [model.on_law.mean(), model.off_law.mean()]
    for row, law in enumerate((model.on_law, model.off_law)):
        table[row, :K], surv = _law_arrays(law, K)
        table[row, K:2 * K] = surv[:K]
        fbar, res_surv = _residual_arrays(surv, means[row])
        table[row, 2 * K:3 * K - 1] = fbar[:-1]
        table[row, 3 * K - 1] = res_surv[K - 1]
    rho = means[0] / (means[0] + means[1])  # model.rho, from the means above
    return table, np.array([rho, 1.0 - rho])


def _multipliers(theta):
    """The scaled tilt factors and their shift.

    The factors exp(theta 1(on) - max(theta, 0)) are rows (on, off) on a new
    first axis, and the shift is sum max(theta, 0) over the last axis.
    """
    scaled = np.minimum([theta, -theta], 0.0)  # (min(theta, 0), -max(theta, 0))
    return np.exp(scaled), -scaled[1].sum(axis=-1)


def _forward(arrays, mult=None, split=()):
    """The chain's mass at the last epoch and its scale exponents, one row per tilt in mult.

    alive[p, b, e] is the mass in phase p (0 on, 1 off) at the current epoch
    whose period ends at epoch e. Each step is shift-free: the mass ending at
    k - 1 starts the other phase at k, one rank-one update per phase on the
    ends k..K-1 in place, and the tilt then multiplies the live ends. The end
    tables are pmf with tail[L - 1] written over its entry L - 1 as L falls,
    one entry per step. A tilted pass scales the live mass back into
    [1/2, 1) after each epoch's factors (Rabiner's scaling, by a power of two
    so that it is exact), so no path's mass underflows: M' = mass 2^E, E the
    sum over k of exps[b, k], the exponent taken out at epoch k. Each epoch
    keeps at least its smaller factor exp(-|theta_k|) of the mass, so the
    pass scales only from the first epoch where the product of those falls
    below 2^-500. An untilted pass (mult None, one row) keeps its mass and
    its exps stay 0. At each epoch in split the batch doubles: rows [0, B)
    keep the paths off there and [B, 2B) the paths on.
    """
    table, weight = arrays
    K = table.shape[1] // 3
    tail, res = table[:, K:2 * K], table[:, 2 * K:3 * K]
    tab = table[:, None, :K].copy()
    alive = np.repeat((weight[:, None] * res)[:, None, :], 1 if mult is None else mult.shape[1], 1)
    exps = np.zeros((alive.shape[1], K), dtype=np.int64)
    scaled = np.zeros(K, dtype=bool)
    if mult is not None:
        scaled = np.cumprod(mult.min(axis=0), axis=1).min(axis=0) < 2.0 ** -500
    for k in range(K):
        if k:
            L = K - k
            tab[:, :, L - 1] = tail[:, None, L - 1]
            alive[:, :, k:] += alive[::-1, :, k - 1, None] * tab[:, :, :L]
        if mult is not None:
            alive[:, :, k:] *= mult[:, :, k, None]
        if scaled[k]:
            exps[:, k] = np.frexp(alive[:, :, k:].sum(axis=(0, 2)))[1]  # 0 for a mass of 0
            alive[:, :, k:] = np.ldexp(alive[:, :, k:], -exps[:, k, None])
        if k in split:
            alive = np.concatenate([alive, alive], axis=1)
            exps = np.concatenate([exps, exps])
            half = alive.shape[1] // 2
            alive[0, :half, k:] = 0.0
            alive[1, half:, k:] = 0.0
    return alive[:, :, K - 1].sum(axis=0), exps


def joint_mgf(model: ModelSpec, theta) -> float | np.ndarray:
    """E exp(sum_k theta_k 1(k)) for one stationary edge over times 1..K.

    theta is one tilt of length K (the result is a float) or a (B, K) batch
    of tilts (the result is a length-B array). Entries are finite or -inf;
    -inf forces the edge off at that epoch, as an exact zero factor. One
    scaled forward pass of the chain with the batch as an array axis gives
    M' = mass 2^E, and M = M' exp(shift), shift = sum_k max(theta_k, 0),
    which is inf only where M passes the float range. Past shift = 709, where
    exp(shift) alone overflows, M = exp(shift + E log 2 + log mass).
    """
    theta = np.asarray(theta, dtype=np.float64)
    if theta.ndim not in (1, 2) or theta.shape[-1] < 1 or not np.all(theta < np.inf):
        raise ValueError("theta must be a tilt vector or a batch of them, of length >= 1, "
                         "with entries finite or -inf")
    mult, shift = _multipliers(np.atleast_2d(theta))
    mass, exps = _forward(_mgf_arrays(model, theta.shape[-1]), mult)
    exps = exps.sum(axis=1)
    big = shift > _EXP_MAX
    mgf = np.ldexp(mass * np.exp(np.where(big, 0.0, shift)), exps)
    if big.any():
        with np.errstate(divide="ignore"):  # a mass of 0 is M = 0
            mgf[big] = np.exp(shift[big] + exps[big] * math.log(2.0) + np.log(mass[big]))
    return float(mgf[0]) if theta.ndim == 1 else mgf


def joint_distribution(model: ModelSpec, epochs) -> np.ndarray:
    """Joint law of the on-indicators at the given epochs for one edge.

    Returns a vector of length 2^m indexed by the on-pattern bits (bit j set
    means the edge is on at epochs[j]); epochs must be sorted, distinct, and
    at most 12 in number. One untilted forward pass to the last epoch splits
    its batch at epochs[j] into the paths off and on there, so row s carries
    pattern s's probability, a sum of nonnegative terms.
    """
    epochs = list(epochs)
    m = len(epochs)
    if m == 0 or m > _JOINT_EPOCH_CAP:
        raise ValueError(f"need 1..{_JOINT_EPOCH_CAP} epochs, got {m}")
    if sorted(set(epochs)) != epochs or min(epochs) < 1:
        raise ValueError("epochs must be sorted, distinct, positive integers")
    return _forward(_mgf_arrays(model, epochs[-1]), split={e - 1 for e in epochs})[0]


# Products of series up to this length are direct (np.convolve), so the short
# tables theoretical_moment_set reads keep their bits; longer ones take one real FFT.
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
    f, surv_f = _law_arrays(model.on_law, k_max)
    g, surv_g = _law_arrays(model.off_law, k_max)
    ex, ey = model.on_law.mean(), model.off_law.mean()
    fbar, res_surv_f = _residual_arrays(surv_f, ex)
    rho = ex / (ex + ey)
    b = _reciprocal(surv_f[:k_max] + _shift(_mul(f, surv_g, k_max)), k_max)
    kernel = _shift(_mul(fbar, _shift(_mul(g, surv_f, k_max)), k_max))
    p_on = np.cumsum(_mul(b, kernel, k_max)) + res_surv_f[:k_max]
    return rho * (p_on - rho)


# ---------------------------------------------------------------------------
# Legendre transform and saddlepoint approximation
# ---------------------------------------------------------------------------


@functools.lru_cache(maxsize=4)
def _kernel_index(K):
    """Where the moments' kernels read the _mgf_arrays table, and their triangles, at horizon K.

    index[s, c] picks, for a period starting at epoch s, the probability that
    the next one starts at c (c = K: none before the horizon): res[c - 1] for
    the stationary start s = 0, pmf[c - s - 1] for s < c < K, tail[K - s - 1]
    for c = K, and 0 for c <= s. upper[s, t] is t >= s and after[s, c] is c > s.
    """
    s = np.arange(K)[:, None]
    c = np.arange(K + 1)
    index = np.where(c > s, c - s - 1, 3 * K)
    index[1:, K] = 2 * K - 1 - s[1:, 0]
    index[0, 1:] = 2 * K - 1 + c[1:]
    upper, after = c[:K] >= s, c > s
    for table in (index, upper, after):
        table.flags.writeable = False
    return index, upper, after


def _off_pairs(arrays, mult):
    """M' and M' P(off at i and j) of the tilt whose factors are mult, rows (on, off).

    arrays are the _mgf_arrays of horizon K; epochs are 0-based. The chain's
    kernels on[s, c] and off[s, c] are the probability that a period of that
    phase starting at s is followed by one starting at c (c = K: it reaches
    the horizon; row 0, the residual period of the stationary start), times
    the factors of epochs s..c-1. H = on off takes on-starts to on-starts; it
    is strictly upper triangular, so green = (I - H)^-1 = I + H + H^2 + ...
    adds only nonnegative terms. Forward, the start masses are x_on = (rho e_0
    + (1 - rho) off[0]) green and x_off = x_on on + (1 - rho) e_0. Backward,
    cont[c] is what follows an on-start at c (cont[K] = 1), so M' = rho
    cont[0] + (1 - rho) off[0] cont. The sweep's row i, rows[i, c] = sum_(s <=
    i) x_off[s] off[s, c] for c > i, is the forward mass off at i whose period
    is followed at c, and M' P(off at i and j) = rows[i] @ follow[:, j] for i
    <= j: follow[c, j] is cont[c] when that off period covers j (c > j), and
    otherwise the mass from an on-start at c that is off at j, reach = green
    on times cover, where cover[s, j] is an off period from s that covers j
    and what follows it.
    """
    table, weight = arrays
    K = mult.shape[1]
    index, upper, after = _kernel_index(K)
    kern = table[:, index]
    kern[:, :, 1:] *= np.cumprod(np.where(upper, mult[:, None, :], 1.0), axis=2)
    on, off = kern[0], kern[1]
    green = np.eye(K)
    green -= on[:, :K] @ off[:, :K]
    green = scipy.linalg.lapack.dtrtri(green, lower=0, unitdiag=1)[0]
    reach = on.copy()  # columns :K, to the off-starts; column K, to the horizon
    reach[:, K] += on[:, :K] @ off[:, K]
    reach = green @ reach
    cont = np.concatenate([reach[:, K], [1.0]])
    mprime = weight[0] * cont[0] + weight[1] * (off[0] @ cont)
    start = weight[1] * off[0, :K]
    start[0] += weight[0]
    x_on = start @ green
    x_off = x_on @ on[:, :K]
    x_off[0] += weight[1]
    cover = np.cumsum((off * cont)[:, ::-1], axis=1)[:, -2::-1]
    cover *= upper
    follow = np.empty((K + 1, K))
    np.matmul(reach[:, :K], cover, out=follow[:K])
    np.copyto(follow, cont[:, None], where=after.T)
    rows = np.cumsum(x_off[:, None] * off, axis=0)
    rows *= after
    pair = rows @ follow
    return mprime, np.where(upper, pair, pair.T)


def _tilted_moments(arrays, theta):
    """log M(theta), the tilted on-probabilities and their covariance, all exact.

    arrays are the _mgf_arrays of horizon K = len(theta). _off_pairs gives M'
    and P(off at i and j) from the scaled factors, all at most 1. Where M' is
    near underflow, each epoch's factors are divided by the power of two that
    the forward pass takes out of the mass there, which keeps the chain's
    masses near 1 and leaves the probabilities as they are; log M then adds
    the log of those scales. grad log M = 1 - P(off) and Hess log M, the
    tilted covariance of the indicators, is P(off at i and j) - P(off at i)
    P(off at j). log M is NaN only when even the rescaled M' is 0 or not
    finite.
    """
    mult, shift = _multipliers(theta)
    mprime, pair = _off_pairs(arrays, mult)
    if not mprime >= _RESCALE_BELOW:
        exps = _forward(arrays, mult[:, None, :])[1][0]
        with np.errstate(over="ignore"):  # a factor past float range makes M' inf or NaN
            mprime, pair = _off_pairs(arrays, np.ldexp(mult, -exps))
        shift += math.log(2.0) * exps.sum()
    pair /= mprime
    p_off = pair.diagonal()
    log_mgf = shift + math.log(mprime) if 0.0 < mprime < math.inf else math.nan
    return log_mgf, 1.0 - p_off, pair - p_off[:, None] * p_off


def _cholesky(hess):
    try:
        return np.linalg.cholesky(hess)
    except np.linalg.LinAlgError as exc:
        raise DegenerateSaddleError("tilted covariance is not positive definite") from exc


def legendre_transform(model: ModelSpec, counts, n: int):
    """sup_theta (theta . counts - n log M(theta)), its maximizer and Hess log M there.

    The objective is concave with Hessian -n Cov_theta; Newton's method takes
    its exact tilted moments and halves a step until it raises the objective.
    It stops on the Newton decrement, since the gradient has a rounding floor.
    Counts at 0 or n are clamped slightly into the interior, where the
    supremum is attained. The covariance comes from the _tilted_moments call
    whose Cholesky factor gave the final decrement. An empty count vector is
    refused with a ValueError.
    """
    counts = np.asarray(counts, dtype=np.float64)
    if counts.ndim != 1 or len(counts) < 1:
        raise ValueError("counts must be a count vector of length >= 1")
    eps = 1e-6 * n
    counts = np.clip(counts, eps, n - eps)
    theta = np.zeros(len(counts))
    arrays = _mgf_arrays(model, len(counts))
    log_mgf, p_on, cov = _tilted_moments(arrays, theta)
    for _ in range(100):
        value = float(theta @ counts) - n * log_mgf
        grad = counts - n * p_on
        step = scipy.linalg.cho_solve((_cholesky(n * cov), True), grad)
        decrement = float(grad @ step)
        if decrement <= 1e-12 * n:
            return max(value, 0.0), theta, cov
        for _ in range(60):
            cand = theta + step
            # one call gives log M(cand) and, if cand is accepted, the next
            # step's moments; a candidate far out may underflow M' to 0, and
            # its NaN log M is no ascent
            with np.errstate(divide="ignore", invalid="ignore"):
                moments = _tilted_moments(arrays, cand)
            if float(cand @ counts) - n * moments[0] > value:
                break
            step *= 0.5
        else:
            break
        theta = cand
        log_mgf, p_on, cov = moments
    raise ConvergenceError(f"Legendre Newton did not converge (decrement={decrement:.3g})")


def saddlepoint_logprob(model: ModelSpec, counts, n: int) -> float:
    """Saddlepoint approximation to log P(A_n(1..K) = counts).

    Returns -(K/2) log(2 pi) - (1/2) log det(n Hess log M) - I at the
    optimizing tilt, where the transform hands back Hess log M.
    """
    value, _, cov = legendre_transform(model, counts, n)
    K = len(counts)
    chol = _cholesky(n * cov)
    log_det = 2.0 * float(np.sum(np.log(np.diag(chol))))
    return -0.5 * K * math.log(2 * math.pi) - 0.5 * log_det - value
