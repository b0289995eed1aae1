"""Limiting covariance of the moment statistics and of the estimators.

``geometric_moment_cov`` evaluates the closed forms available when both
laws are geometric; ``general_moment_cov`` computes the same limits for any
pair of laws by summing stationary covariances built from per-edge joint
on-probabilities. ``delta_method_cov`` propagates either result to the
(p, q) estimators.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np
from scipy import special

from .errors import ParameterError
from .laws import Geometric, Pareto, Weibull
from .renewal import autocovariance, joint_distribution
from .simulate import ModelSpec


@dataclass
class MomentCov:
    """Per-sqrt(K) limiting covariance of (mu_hat(0), mu_hat(1))."""

    v0: float
    v1: float
    c01: float
    method: str = "closed_form_geometric"
    converged: bool = True
    k_used: int = 0
    tail_correction: tuple[float, float, float] = (0.0, 0.0, 0.0)
    tail_error: float = 0.0

    def to_json(self) -> dict:
        return {"v0": self.v0, "v1": self.v1, "c01": self.c01, "method": self.method,
                "converged": self.converged, "k_used": self.k_used,
                "tail_correction": list(self.tail_correction), "tail_error": self.tail_error}


@dataclass
class ParamCov:
    """2x2 limit covariance of sqrt(K) (p_hat - p, q_hat - q)."""

    sigma2: float
    tau2: float
    rho_cov: float
    gamma: tuple[float, float] = (0.0, 0.0)
    delta: tuple[float, float] = (0.0, 0.0)

    def sd(self, K: int) -> tuple[float, float]:
        """Predicted standard deviations of (p_hat, q_hat) at trace length K."""
        return (np.sqrt(self.sigma2 / K), np.sqrt(self.tau2 / K))

    def to_json(self) -> dict:
        return {"sigma2": self.sigma2, "tau2": self.tau2, "rho_cov": self.rho_cov}


class DivergenceWarning(UserWarning):
    """The limiting covariances are infinite, so the series diverge."""


# ---------------------------------------------------------------------------
# Closed forms for geometric on- and off-times
# ---------------------------------------------------------------------------


def _binom_raw_moments(n, rho):
    """Raw moments m_1..m_4 of Binomial(n, rho) via falling factorials."""
    ff = [1.0, n, n * (n - 1), n * (n - 1) * (n - 2), n * (n - 1) * (n - 2) * (n - 3)]
    m1 = ff[1] * rho
    m2 = ff[2] * rho**2 + ff[1] * rho
    m3 = ff[3] * rho**3 + 3 * ff[2] * rho**2 + ff[1] * rho
    m4 = ff[4] * rho**4 + 6 * ff[3] * rho**3 + 7 * ff[2] * rho**2 + ff[1] * rho
    return m1, m2, m3, m4


def geometric_moment_cov(n: int, p: float, q: float) -> MomentCov:
    """Closed-form v0, v1, c01 for geometric on/off laws.

    The lag-decay factor is f = 1 - p - q. Coefficients are expressed with
    their f powers absorbed, so the f = 0 case (p + q = 1) is the plain
    algebraic limit and needs no perturbation.
    """
    if not (0.0 < p < 1.0 and 0.0 < q < 1.0):
        raise ParameterError(f"need p, q in (0,1), got ({p}, {q})")
    f = 1.0 - p - q
    if abs(f) >= 1.0:
        raise ParameterError(f"need |1 - p - q| < 1, got f={f}")
    rho = q / (p + q)
    m1, m2, m3, m4 = _binom_raw_moments(n, rho)

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
    # c1_f2 = c1 * f^2 and c2_f3 = c2 * f^3 from the lag decomposition
    # t_k = c1 f^k + c2 f^(2k); both are polynomial in f
    c1_f2 = ((f * (1 - 2 * rho) + n * rho * (1 + f)) * mm2
             - (n * f * rho * (1 - 2 * rho) + n * n * rho * rho * (1 + f)) * mm1)
    c2_f3 = mm3 + (2 * rho - 1 - 2 * n * rho) * mm2 + n * rho * rho * (n - 1) * mm1
    v1 = t1 + 2 * (c1_f2 / (1 - f) + c2_f3 * f / (1 - f * f))

    d1_f = (f - 2 * f * rho + n * q + 2 * f * n * rho) * (m2 - n * rho * m1)
    d2_f = m3 - (2 * n * rho - 2 * rho + 1) * m2 + n * rho * rho * (n - 1) * m1
    c01 = (d1_f / (1 - f) + d2_f * f / (1 - f * f)
           + (mm2 - mm1 * n * rho) / (1 - f))
    return MomentCov(v0=v0, v1=v1, c01=c01, method="closed_form_geometric")


def delta_method_cov(n: int, p: float, q: float, mc: MomentCov) -> ParamCov:
    """Propagate the moment covariance to the (p_hat, q_hat) estimators."""
    rho = q / (p + q)
    s0 = n * rho
    s1 = n * rho * (1 - p) + (n * n - n) * rho * rho
    g0 = s1 / s0**2 + 1.0 - 1.0 / n
    g1 = -1.0 / s0
    sigma2 = g0 * g0 * mc.v0 + 2 * g0 * g1 * mc.c01 + g1 * g1 * mc.v1
    tau2 = sigma2 * (q / p) ** 2
    rho_cov = sigma2 * (q / p)
    return ParamCov(sigma2=sigma2, tau2=tau2, rho_cov=rho_cov,
                    gamma=(g0, g1), delta=(g0 * q / p, g1 * q / p))


# ---------------------------------------------------------------------------
# General-case machinery: mixed moments via index-partition expansion
# ---------------------------------------------------------------------------


def _set_partitions(items):
    if not items:
        yield []
        return
    first, rest = items[0], items[1:]
    for part in _set_partitions(rest):
        for i in range(len(part)):
            yield part[:i] + [part[i] + [first]] + part[i + 1:]
        yield part + [[first]]


def _falling(n, b):
    out = 1.0
    for i in range(b):
        out *= n - i
    return out


def mixed_moment(model: ModelSpec, n: int, epochs, _omega_cache=None) -> float:
    """E_s[prod_t A_n(t) for t in epochs] for the stationary n-edge process.

    The product expands over index tuples; tuples factorize across distinct
    edges, so each set partition of the positions contributes a falling
    factorial times a product of per-edge all-on probabilities.
    """
    epochs = [int(t) for t in epochs]
    cache = _omega_cache if _omega_cache is not None else {}

    def omega(block):
        key = tuple(sorted(set(epochs[i] for i in block)))
        if key not in cache:
            cache[key] = float(joint_distribution(model, key)[-1])
        return cache[key]

    total = 0.0
    for part in _set_partitions(list(range(len(epochs)))):
        term = _falling(n, len(part))
        for block in part:
            term *= omega(block)
        total += term
    return total


# block-of-positions -> named omega series, positions mapped to (1, 2, k, k+1)
_BLOCK_KEY_4 = {
    frozenset({0}): "rho", frozenset({1}): "rho", frozenset({2}): "rho",
    frozenset({3}): "rho",
    frozenset({0, 1}): "adj", frozenset({2, 3}): "adj",
    frozenset({0, 2}): "rres_k", frozenset({0, 3}): "rres_k1",
    frozenset({1, 2}): "rres_km1", frozenset({1, 3}): "rres_k",
    frozenset({0, 1, 2}): "ta_k", frozenset({0, 1, 3}): "ta_k1",
    frozenset({0, 2, 3}): "tb_k", frozenset({1, 2, 3}): "tb_km1",
    frozenset({0, 1, 2, 3}): "q_k",
}

# positions (1, k, k+1)
_BLOCK_KEY_3A = {
    frozenset({0}): "rho", frozenset({1}): "rho", frozenset({2}): "rho",
    frozenset({0, 1}): "rres_k", frozenset({0, 2}): "rres_k1",
    frozenset({1, 2}): "adj",
    frozenset({0, 1, 2}): "tb_k",
}

# positions (1, 2, k)
_BLOCK_KEY_3B = {
    frozenset({0}): "rho", frozenset({1}): "rho", frozenset({2}): "rho",
    frozenset({0, 1}): "adj",
    frozenset({0, 2}): "rres_k", frozenset({1, 2}): "rres_km1",
    frozenset({0, 1, 2}): "ta_k",
}


def _partition_series(n, block_key, series):
    """Vector over k of the partition-expanded mixed moment."""
    npos = max(max(b) for b in block_key) + 1
    total = None
    for part in _set_partitions(list(range(npos))):
        term = np.full_like(series["rho"], _falling(n, len(part)))
        for block in part:
            term = term * series[block_key[frozenset(block)]]
        total = term if total is None else total + term
    return total


class _GeneralTables:
    """All per-edge joint on-probability series needed for the k-sums.

    With a gap k >= 3 between the leading epochs {1, 2} and the trailing
    epochs {k, k+1}, every block of a position partition reduces to one of a
    fixed family of series:

    * rres[k]: P(on at k | on at 1) (residual start)
    * ta[k]  = P(on at 1, 2, k)
    * tb[k]  = P(on at 1, k, k+1)
    * q[k]   = P(on at 1, 2, k, k+1)

    all read from autocovariance: ta from F-bar * s (the r_res table less its
    first-step term), tb and q from F-bar * S2.
    """

    def __init__(self, model: ModelSpec, k_hi: int):
        t = autocovariance(model, k_hi + 2)
        self.rho = rho = t.rho
        self.rres = t.r_res  # index k-1
        self.fbar1 = fb1 = t.fbar[0]
        k = np.arange(k_hi + 2)
        # ta[k] valid for k >= 3, tb[k] for k >= 2, qq[k] for k >= 3
        self.ta = rho * (t.r_res[k - 1] - fb1 * t.s[k - 2])
        self.tb = rho * (t.fbar_S2[k - 2] + t.res_surv[k])
        self.qq = self.tb - rho * fb1 * t.S2[k - 2]

    def series(self, ks: np.ndarray) -> dict:
        rho = self.rho
        base = np.ones_like(ks, dtype=np.float64)
        return {
            "rho": rho * base,
            "adj": rho * (1.0 - self.fbar1) * base,
            "rres_k": rho * self.rres[ks - 1],
            "rres_k1": rho * self.rres[ks],
            "rres_km1": rho * self.rres[ks - 2],
            "ta_k": self.ta[ks],
            "ta_k1": self.ta[ks + 1],
            "tb_k": self.tb[ks],
            "tb_km1": self.tb[ks - 1],
            "q_k": self.qq[ks],
        }


# Table size of general_moment_cov: the increments are summed to K0 and the
# power-law tail beyond it is added in closed form. Light-tailed models whose
# increments still stand above the rounding floor at K0 get one longer table,
# of at most K_CAP lags.
K0 = 1024
K_CAP = 1 << 15
_K0_MIN = 64  # the tail fits at K0 / 2 need a window of some width above k = 3
_FLOOR = 1e-13  # rounding floor of the increments, relative to the series scale


def _tail_exponents(model: ModelSpec) -> list[float]:
    """Decay exponents of the increments: a - 1, a, a + 1 and 2(a - 1) per Pareto(C, a) law.

    A Pareto law's renewal tables approach their limits as k^-(a-1), with
    corrections in the next powers; the square of the leading term enters
    the four-epoch products of v1 and c01.
    """
    laws = (model.on_law, model.off_law)
    return sorted({g for law in laws if isinstance(law, Pareto)
                   for g in (law.alpha - 1.0, law.alpha, law.alpha + 1.0, 2.0 * (law.alpha - 1.0))})


def _tail(ks, inc, gammas, k_end):
    """sum_{k > k_end} of the least-squares fit sum_j c_j k^-gamma_j to inc on (k_end/4, k_end].

    The basis is scaled to 1 at k_end, so its j-th term sums to
    k_end^gamma_j zeta(gamma_j, k_end + 1) beyond k_end. Powers for which
    k_end^gamma_j leaves float range are left out: a Pareto law that decays
    that fast either sits below the rounding floor by k_end or, with C > k_end,
    has not yet reached its power law, and tail_error shows the miss.
    """
    gammas = np.array([g for g in gammas if g * math.log(k_end) < 700.0])
    if not len(gammas):
        return 0.0
    window = (ks > k_end // 4) & (ks <= k_end)
    basis = (ks[window, None] / k_end) ** -gammas
    coef = np.linalg.lstsq(basis, inc[window], rcond=None)[0]
    return float(coef @ (special.zeta(gammas, k_end + 1.0) * float(k_end) ** gammas))


def _last_above_floor(ks, inc, head):
    """The series scale and the last lag whose increment stands above the rounding floor."""
    scale = max(1.0, abs(head), float(np.max(np.abs(inc))))
    above = np.nonzero(np.abs(inc) > _FLOOR * scale)[0]
    return scale, (ks[above[-1]] if len(above) else 0)


def _lag_to_floor(ks, inc, head, k0):
    """0 if the increments reach the rounding floor by k0; else the lag where they would.

    That lag extrapolates the geometric decay of the largest increment from
    (k0/2, 3k0/4] to (3k0/4, k0]; it is inf where they do not decay there.
    """
    scale, last = _last_above_floor(ks, inc, head)
    if last < k0:
        return 0.0
    e1, e2 = (float(np.max(np.abs(inc[(ks > lo) & (ks <= lo + k0 // 4)])))
              for lo in (k0 // 2, 3 * k0 // 4))
    if e2 >= e1:
        return math.inf
    return 3 * k0 / 4 + k0 / 4 * math.log(_FLOOR * scale / e2) / math.log(e2 / e1)


def _floored_sums(ks, inc, head, gammas, k0):
    """The series to k0 and to k0 / 2, each with its fitted tail; and the k0 tail.

    Increments past the last one above the rounding floor (one per series)
    are noise and are dropped. A tail is fitted only where the increments
    still stand above the floor at the end of the sum.
    """
    _, last = _last_above_floor(ks, inc, head)
    kept = np.where(ks <= last, inc, 0.0)
    sums = []
    for k_end in (k0, k0 // 2):
        tail = _tail(ks, kept, gammas, k_end) if last >= k_end else 0.0
        sums.append((head + float(np.sum(kept[ks <= k_end])) + tail, tail))
    (full, tail), (half, _) = sums
    return full, half, tail


def _increments(model: ModelSpec, n: int, k0: int):
    """Lags 3..k0 and, for v0, v1 and c01, the increments there and the exact head.

    The head holds the lags below 3, where the partition tables need a clean
    gap between the leading and trailing epochs.
    """
    rho = model.rho
    tables = _GeneralTables(model, k0)
    cache: dict = {}
    e12 = mixed_moment(model, n, (1, 2), _omega_cache=cache)
    t1 = mixed_moment(model, n, (1, 1, 2, 2), _omega_cache=cache) - e12**2
    m1 = n * rho

    v1_head = t1 + 2 * (mixed_moment(model, n, (1, 2, 2, 3), _omega_cache=cache) - e12**2)
    c01_head = (
        mixed_moment(model, n, (1, 1, 2), _omega_cache=cache) - m1 * e12   # k=1 lead term
        + mixed_moment(model, n, (1, 2, 3), _omega_cache=cache) - m1 * e12  # k=2 lead term
        + mixed_moment(model, n, (1, 2, 2), _omega_cache=cache) - m1 * e12  # k=2 trail term
    )
    v0_head = n * rho * (1 - rho) + 2 * n * rho * (tables.rres[1] - rho)

    ks = np.arange(3, k0 + 1)
    series = tables.series(ks)
    v0_inc = 2 * n * rho * (tables.rres[ks - 1] - rho)
    v1_inc = 2 * (_partition_series(n, _BLOCK_KEY_4, series) - e12**2)
    c01_inc = (_partition_series(n, _BLOCK_KEY_3A, series) - m1 * e12) + (
        _partition_series(n, _BLOCK_KEY_3B, series) - m1 * e12
    )
    return ks, ((v0_inc, v0_head), (v1_inc, v1_head), (c01_inc, c01_head))


def general_moment_cov(model: ModelSpec, n: int, tol: float = 1e-6,
                       k_cap: int = K_CAP) -> MomentCov:
    """v0, v1, c01 for arbitrary on/off laws by summing stationary covariances.

    The lag sums run to k0 = min(K0, k_cap) on one set of renewal tables.
    For Pareto laws the increments decay as powers of k; a least-squares fit
    over the largest lags gives their sum beyond k0 in closed form
    (tail_correction). Without a Pareto law the increments decay faster than
    any power and no tail is fitted; where they still stand above the
    rounding floor at k0 (a slowly mixing model), the tables are built once
    more, at twice the lag where their geometric decay reaches the floor, up
    to k_cap. k_used is the final table size. tail_error is the largest move
    of a corrected sum between k_used / 2 and k_used, and converged means
    tail_error <= tol * scale, scale the largest of 1, |v0|, |v1| and |c01|.
    The default tol sits above the relative tail errors measured on Pareto
    models with indices from 2.3 to 8 (at most 8.7e-7) and below those of
    indices near 2 (6e-6 at 2.1). Where finiteness_check fails the limits
    are infinite: a DivergenceWarning is issued and the partial sums are
    returned with converged=False.
    """
    if k_cap < _K0_MIN:
        raise ValueError(f"k_cap must be >= {_K0_MIN}, got {k_cap}")
    k0 = min(K0, k_cap)
    finite, why = finiteness_check(model)
    if not finite:
        warnings.warn(f"covariance limits are infinite: {why}", DivergenceWarning)
    gammas = _tail_exponents(model) if finite else []

    ks, incs = _increments(model, n, k0)
    if finite and not gammas and k0 < k_cap:
        need = max(_lag_to_floor(ks, inc, head, k0) for inc, head in incs)
        if need > 0:
            k0 = int(min(k_cap, 2 * math.ceil(min(need, k_cap))))
            ks, incs = _increments(model, n, k0)
    out = [_floored_sums(ks, inc, head, gammas, k0) for inc, head in incs]
    (v0, v1, c01) = (full for full, _, _ in out)
    tail_error = float(max(abs(full - half) for full, half, _ in out))
    scale = max(1.0, abs(v0), abs(v1), abs(c01))
    return MomentCov(v0=v0, v1=v1, c01=c01, method="general_series",
                     converged=bool(finite and tail_error <= tol * scale), k_used=k0,
                     tail_correction=tuple(tail for _, _, tail in out), tail_error=tail_error)


# ---------------------------------------------------------------------------
# Finiteness predicate
# ---------------------------------------------------------------------------


def finiteness_check(model: ModelSpec) -> tuple[bool, str]:
    """Whether the limiting variances v0, v1, c01 are finite.

    Geometric and Weibull tails decay faster than any power; a Pareto tail
    has index alpha and needs alpha > 2.
    """
    verdicts = []
    ok = True
    for name, law in (("on", model.on_law), ("off", model.off_law)):
        if isinstance(law, Pareto):
            if law.alpha > 2.0:
                verdicts.append(f"{name}-time Pareto tail index {law.alpha} > 2")
            else:
                verdicts.append(f"{name}-time Pareto tail index {law.alpha} <= 2")
                ok = False
        elif isinstance(law, (Geometric, Weibull)):
            verdicts.append(f"{name}-time {type(law).__name__} tail is lighter than any power law")
        else:
            verdicts.append(f"{name}-time law {type(law).__name__} unknown")
            ok = False
    return ok, "; ".join(verdicts)
