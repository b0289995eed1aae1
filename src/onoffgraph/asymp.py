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
import scipy

from .errors import ParameterError
from .laws import Geometric, Pareto, Weibull
from .renewal import autocovariance
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


class _GeneralTables:
    """The per-edge joint on-probabilities of every epoch set the k-sums need.

    By stationarity, the probability that an edge is on at every epoch of a
    set depends only on the set's gaps. Each set of at most four distinct
    epochs drawn from {1, 2, k, k+1} has gaps (), (d), (1, d), (d, 1) or
    (1, d, 1), and omega reads it from one of these tables:

    * rres[d]: P(on at 1 + d | on at 1) (residual start)
    * ta[k]  = P(on at 1, 2, k)
    * tb[k]  = P(on at 1, k, k+1)
    * qq[k]  = P(on at 1, 2, k, k+1)

    all built from autocovariance: ta from F-bar * s (the r_res table less
    its first-step term), tb and qq from F-bar * S2.
    """

    def __init__(self, model: ModelSpec, k_hi: int):
        t = autocovariance(model, k_hi + 2)
        self.rho = rho = t.rho
        self.rres = t.r_res
        fb1 = t.fbar[0]
        k = np.arange(k_hi + 2)
        # ta[k] valid for k >= 3, tb[k] for k >= 2, qq[k] for k >= 3
        self.ta = rho * (t.r_res[k - 1] - fb1 * t.s[k - 2])
        self.tb = rho * (t.fbar_S2[k - 2] + t.res_surv[k])
        self.qq = self.tb - rho * fb1 * t.S2[k - 2]

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


def _mixed(tables: _GeneralTables, n: int, epochs):
    """E_s[prod_t A_n(t) for t in epochs] for the stationary n-edge process.

    The product expands over index tuples; tuples factorize across distinct
    edges, so each set partition of the epochs contributes n!/(n - b)!, b its
    number of blocks, times the product of its blocks' per-edge all-on
    probabilities.
    """
    total = 0.0
    for part in _set_partitions(list(epochs)):
        term = float(math.prod(n - i for i in range(len(part))))
        for block in part:
            term = term * tables.omega(block)
        total = total + term
    return total


def mixed_moment(model: ModelSpec, n: int, epochs) -> float:
    """E_s[prod_t A_n(t) for t in epochs] for the stationary n-edge process.

    The distinct epochs must have gaps (), (d), (1, d), (d, 1) or (1, d, 1),
    as every moment of general_moment_cov does; other sets raise ValueError.
    """
    epochs = [int(t) for t in epochs]
    return float(_mixed(_GeneralTables(model, max(epochs) - min(epochs) + 1), n, epochs))


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
    return float(coef @ (scipy.special.zeta(gammas, k_end + 1.0) * float(k_end) ** gammas))


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

    The head holds the lags below 3, where the epochs 1, 2, k, k+1 do not all
    differ. Both read the same partition expansion: at k = 1 and 2 over
    ints, from k = 3 over arrays of lags.
    """
    rho = model.rho
    m1 = n * rho
    tables = _GeneralTables(model, k0)
    e12 = _mixed(tables, n, (1, 2))

    def lag_moments(k):
        """E[A(1)A(2)A(k)A(k+1)], E[A(1)A(k)A(k+1)] and E[A(1)A(2)A(k)]."""
        return [_mixed(tables, n, e) for e in ((1, 2, k, k + 1), (1, k, k + 1), (1, 2, k))]

    (m4_1, lead_1, _), (m4_2, lead_2, trail_2) = (lag_moments(k) for k in (1, 2))
    v0_head = n * rho * (1 - rho) + 2 * n * rho * (tables.rres[1] - rho)
    v1_head = m4_1 + 2 * m4_2 - 3 * e12**2
    c01_head = lead_1 + lead_2 + trail_2 - 3 * m1 * e12

    ks = np.arange(3, k0 + 1)
    m4, lead, trail = lag_moments(ks)
    v0_inc = 2 * n * rho * (tables.rres[ks - 1] - rho)
    v1_inc = 2 * (m4 - e12**2)
    c01_inc = lead + trail - 2 * m1 * e12
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
