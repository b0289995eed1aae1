"""Discrete positive-integer duration laws and the series functions used to invert them.

Three parametric families are supported, all with support {1, 2, ...}:

* geometric, survival (1-p)^(i-1)
* discrete Weibull, survival exp(-lambda * (i-1)^alpha)
* Pareto/Lomax, survival C^alpha / (C + i - 1)^alpha

Each law exposes its survival function, pmf, mean, an exact inverse-transform
sampler, and its residual (equilibrium) law.
"""

from __future__ import annotations

import functools
import math
import numbers
import sys
from dataclasses import dataclass

import numpy as np
import scipy

from .errors import InfiniteMeanError, OutOfRangeError, ParameterError

DEFAULT_INVERT_TOL = 1e-10

# Draws beyond int64 range (possible as Pareto alpha -> 1 or C -> inf) are returned as this cap.
RESIDUAL_CAP = 2**62


def _as_index(i):
    arr = np.asarray(i)
    if np.any(arr < 1):
        raise ValueError("duration index must be >= 1")
    return arr.astype(np.float64)


# Which draws the bracket search must check
# -----------------------------------------
# Each law's survival(i) is S(i - 1) for a smooth decreasing S with S(0) = 1,
# and _quantile(u) evaluates x = S^-1(u), so floor(x) + 1 is u's bracket in
# exact arithmetic. In float, x carries a relative error of a few eps (the
# unit roundoff, 2^-53) plus what cancellation in its expression adds, and
# survival(i) a relative error of a few eps, which moves the float bracket's
# edge by that error times 1/|d log S/dx|. So the candidate can miss only when
# x lies within a few eps (1 + x + 1/|d log S/dx| + the cancellation term) of
# an integer; each law's _slack derives its terms. _slack uses 1e-9, over
# 10^6 eps, in place of the few eps, so the first-order bound holds with room.
#
# Below 2^-1022 survival goes subnormal and loses its relative precision, so
# draws with u below _SUBNORMAL_U are always searched.
_SUBNORMAL_U = 2.0**-900


class DurationLaw:
    """Shared behaviour of the parametric families."""

    def survival(self, i):
        """P(Z >= i) for integer i >= 1 (scalar or array)."""
        raise NotImplementedError

    def mean(self):
        raise NotImplementedError

    def tail_sum(self, k):
        """T(k) = sum_{i>=k} survival(i) for integer k >= 1, so T(1) = mean()."""
        raise NotImplementedError

    def variance(self):
        """Var Z = sum_{i>=2} (2i - 3) survival(i) - T(2)^2, inf where that sum diverges.

        Both terms are moments of Z - 1, so a law near Z = 1 cancels nothing.
        """
        raise NotImplementedError

    def _quantile(self, u):
        """The real x with survival(x + 1) = u, so the bracket of u is floor(x) + 1, as a new array."""
        raise NotImplementedError

    def _slack(self, x):
        """How far float rounding may move x, or the bracket's edges, relative to an integer."""
        raise NotImplementedError

    def pmf(self, k):
        """P(Z = k) = survival(k) - survival(k+1)."""
        k = np.asarray(k)
        return self.survival(k) - self.survival(k + 1)

    def residual(self):
        return ResidualLaw(self)

    def sample(self, u):
        """Inverse-transform sample: the unique i with survival(i+1) < u <= survival(i).

        The candidate floor(x) + 1 from the closed-form quantile x is the
        bracket in exact arithmetic. The bracket is searched for (_bracket,
        from the candidate) only where rounding could have moved it: x within
        its _slack(x) of an integer, x not finite, or u so small that survival
        goes subnormal. A block whose every x keeps the slack of its largest x
        from every positive integer (the edge at 0 is exact) skips the
        per-draw test. Float survival does not increase with i, so the bracket
        is unique and skipping the others returns what searching every entry
        would. Candidates at or past
        RESIDUAL_CAP are returned as RESIDUAL_CAP without a search. u itself
        is never written to.
        """
        u = np.asarray(u, dtype=np.float64)
        scalar = u.ndim == 0
        u = np.atleast_1d(u)
        if not u.size:
            return np.empty(u.shape, dtype=np.int64)
        u_min = u.min()  # NaN if any u is NaN
        if not (u_min > 0.0 and u.max() <= 1.0) and (np.any(u <= 0.0) or np.any(u > 1.0)):
            raise ValueError("u must lie in (0, 1]")
        # inf and NaN are outcomes here: inf is capped, NaN goes to the search
        with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
            x = self._quantile(u)
            i = np.floor(x)
            top = x.max()  # NaN if any x is NaN
            x -= i  # frac(x), exact as _quantile gives no x < 0; NaN where x is inf
            # the whole block at once: _slack does not decrease in x, so
            # _slack(top) bounds every draw's slack, and a block whose
            # fractions all keep that far from an integer needs no per-draw
            # test (below 2^52 every i + 1 is exact and under RESIDUAL_CAP).
            # The bracket edge at x = 0 is exact, so a block that fails only
            # on a fraction near 0 is retried with that bound on i >= 1 alone
            if u_min >= _SUBNORMAL_U and top < 2.0**52:
                edge = self._slack(top)
                if x.max() < 1.0 - edge and (
                        edge < x.min() or edge < np.where(i > 0.0, x, 1.0).min()):
                    i += 1.0
                    i = i.astype(np.int64)
                    return int(i[0]) if scalar else i
            x += i  # x again, with inf as NaN: both fail the test below
            slack = self._slack(x)
            # |frac(x) - 1/2| < 1/2 - slack: farther than slack from an integer.
            # Each side rounds monotonically, so no draw within slack passes;
            # a NaN x or slack fails the test and is searched.
            x -= i
            x -= 0.5
            np.abs(x, out=x)
            done = np.less(x, 0.5 - slack)
            if not u_min >= _SUBNORMAL_U:
                done &= u >= _SUBNORMAL_U
            i += 1.0
            if not i.max() < RESIDUAL_CAP:  # NaN if any x is NaN
                done |= i >= RESIDUAL_CAP
                np.minimum(i, RESIDUAL_CAP, out=i)
                np.nan_to_num(i, copy=False, nan=1.0)
        i = i.astype(np.int64)
        if not done.all():
            search = ~done
            i[search] = _bracket(self.survival, u[search], i[search])
        return int(i[0]) if scalar else i

    def to_config(self):
        raise NotImplementedError


@dataclass(frozen=True)
class Geometric(DurationLaw):
    p: float

    def __post_init__(self):
        # 1 - p must round below 1, or survival is 1 everywhere
        if not (0.0 < self.p < 1.0 and 1.0 - self.p < 1.0):
            raise ParameterError(f"geometric p must be in (0,1) with 1 - p < 1, got {self.p}")

    def survival(self, i):
        return (1.0 - self.p) ** (_as_index(i) - 1.0)

    def mean(self):
        return 1.0 / self.p

    def tail_sum(self, k):
        return self.survival(k) / self.p

    def variance(self):
        return (1.0 - self.p) / self.p**2

    def _quantile(self, u):
        # the base that survival raises, so the candidate lands within the search's reach
        return np.log(u) / math.log(1.0 - self.p)

    def _slack(self, x):
        # S(x) = (1 - p)^x: 1/|d log S/dx| = 1/|log(1 - p)|, and no cancellation
        return 1e-9 * x + 1e-9 * (1.0 - 1.0 / math.log(1.0 - self.p))

    def to_config(self):
        return {"kind": "geometric", "p": self.p}


@dataclass(frozen=True)
class Weibull(DurationLaw):
    lam: float
    alpha: float

    def __post_init__(self):
        # where (i - 1)^alpha overflows, survival reads exp(-inf) = 0: right only
        # if lam times the largest float already puts exp(-lam y^alpha) below 5e-324
        lam, a = self.lam, self.alpha
        if not (lam * sys.float_info.max >= 746.0 and lam < math.inf and 0.0 < a < math.inf):
            raise ParameterError(
                f"weibull needs finite lambda >= 746 / (largest float) and alpha > 0, got ({lam}, {a})")
        # the mean and variance series: the head terms, then _weibull_tail from y = M
        head = _weibull_head(lam, a)
        M = head.size
        tails = np.zeros(M + 1)  # tails[j] = sum_{y=j}^{M-1} exp(-lam y^alpha)
        tails[:-1] = np.cumsum(head[::-1])[::-1]
        # with y = i - 1, sum_{i>=2} (2i - 3) S(i) = sum_{y>=1} (2y - 1) exp(-lam y^alpha)
        weights = np.maximum(2.0 * np.arange(M) - 1.0, 0.0)
        with np.errstate(over="ignore", invalid="ignore"):
            tail = _weibull_tail(lam, a, M)
            second = np.sum(weights * head) + 2.0 * _weibull_tail(lam, a, M, power=1) - tail
            t2 = tails[1] + tail
            moments = float(np.sum(head) + tail), float(second - t2 * t2)
        if not np.isfinite(moments).all():
            raise ParameterError(f"weibull ({lam}, {a}) has a mean or variance past float range")
        object.__setattr__(self, "_moments", moments)
        object.__setattr__(self, "_tails", tails)

    def survival(self, i):
        with np.errstate(over="ignore", under="ignore"):
            return np.exp(-self.lam * (_as_index(i) - 1.0) ** self.alpha)

    def mean(self):
        return self._moments[0]

    def variance(self):
        return self._moments[1]

    def tail_sum(self, k):
        """The head terms from y = k - 1 on, and _weibull_tail past the head."""
        M = self._tails.size - 1
        y = np.asarray(k, dtype=np.int64) - 1
        return (self._tails[np.minimum(y, M)]
                + _weibull_tail(self.lam, self.alpha, np.maximum(y, M)))

    def _quantile(self, u):
        return (-np.log(u) / self.lam) ** (1.0 / self.alpha)

    def _slack(self, x):
        # S(x) = exp(-lam x^alpha): 1/|d log S/dx| = x / (alpha lam x^alpha). The
        # power 1/alpha multiplies the relative error of x, and the exponent's
        # relative error moves x by as much, so x / alpha joins x:
        # 1e-9 (1 + x + x / alpha + x^(1 - alpha) / (alpha lam)). The last term
        # belongs to the bracket edge next to x: the edge at 0 is exact
        # (survival(1) = 1), and at an edge j >= 1 it is at most 1 / (alpha lam)
        # when alpha > 1, so that bound stands in for the power there.
        a = self.alpha
        power = 1.0 if a > 1.0 else x ** (1.0 - a)
        return 1e-9 * (1.0 + 1.0 / a) * x + 1e-9 * power / (a * self.lam) + 1e-9

    def to_config(self):
        return {"kind": "weibull", "lambda": self.lam, "alpha": self.alpha}


@dataclass(frozen=True)
class Pareto(DurationLaw):
    C: float
    alpha: float

    def __post_init__(self):
        if not (0.0 < self.C < math.inf and 0.0 < self.alpha < math.inf):  # NaN fails too
            raise ParameterError(
                f"pareto needs finite C > 0 and alpha > 0, got ({self.C}, {self.alpha})"
            )
        _pareto_scale(self.C, self.alpha)  # so mean() and tail_sum() stay in float range

    def survival(self, i):
        # i - 1 first, so survival(1) is exactly 1 however small C is
        return (self.C / (self.C + (_as_index(i) - 1.0))) ** self.alpha

    def mean(self):
        if self.alpha <= 1.0:
            raise InfiniteMeanError(f"pareto mean is infinite for alpha={self.alpha} <= 1")
        return hurwitz_like(self.C, self.alpha)

    def tail_sum(self, k):
        return _pareto_tail(self.C, self.alpha, self.C + _as_index(k) - 1.0)

    def variance(self):
        # with j = C + i - 1, sum_{i>=2} (2i - 3) S(i) = C^alpha sum_{j>=C+1} (2j - 2C - 1) j^-alpha
        C, a = self.C, self.alpha
        if a <= 2.0:
            return math.inf
        zeta = scipy.special.zeta
        second = C**a * float(2.0 * zeta(a - 1.0, C + 1.0) - (2.0 * C + 1.0) * zeta(a, C + 1.0))
        return second - float(self.tail_sum(2)) ** 2

    def _quantile(self, u):
        return self.C * (u ** (-1.0 / self.alpha) - 1.0)

    def _slack(self, x):
        # S(x) = (C / (C + x))^alpha: 1/|d log S/dx| = (C + x) / alpha. Both x's
        # expression (u^(-1/alpha) - 1 cancels) and C + i - 1 in survival
        # round on the scale of C + x, which adds C to x.
        C, a = self.C, self.alpha
        return 1e-9 * (1.0 + 1.0 / a) * x + 1e-9 * (1.0 + C + C / a)

    def to_config(self):
        return {"kind": "pareto", "C": self.C, "alpha": self.alpha}


class ResidualLaw:
    """Equilibrium law of a duration law: pmf(k) = survival(k) / mean.

    Its survival is P(residual >= k) = T(k) / mean with the law's tail sum
    T(k), so sampling needs no table: _bracket searches k from 1.
    """

    def __init__(self, law: DurationLaw):
        self.law = law
        self._mean = law.mean()

    def pmf(self, k):
        return self.law.survival(k) / self._mean

    def survival(self, k):
        """P(residual >= k) = T(k) / mean."""
        return np.minimum(self.law.tail_sum(k) / self._mean, 1.0)

    def sample(self, u):
        """Inverse-transform sample: the k with survival(k+1) < u <= survival(k).

        Draws that would exceed RESIDUAL_CAP are returned as RESIDUAL_CAP.
        """
        u = np.asarray(u, dtype=np.float64)
        if np.any(u <= 0.0) or np.any(u > 1.0):
            raise ValueError("u must lie in (0, 1]")
        k = _bracket(self.survival, u.ravel(), np.ones(u.size, dtype=np.int64))
        return int(k[0]) if u.ndim == 0 else k.reshape(u.shape)


def _bracket(survival, u, start):
    """The k in [1, RESIDUAL_CAP] with survival(k + 1) < u <= survival(k), searched from start.

    For a survival that does not increase, and 1-d u and start. survival(1)
    is taken as 1 and survival(RESIDUAL_CAP + 1) as 0, neither evaluated. hi
    doubles from start while survival(hi) >= u; bisection then closes the
    bracket (from lo = 1 it halves toward 1), on the draws still open only.
    """
    lo = np.ones_like(start)  # survival(lo) >= u > survival(hi) once the gallop ends
    hi = np.maximum(start, 2)
    todo = np.arange(start.size)
    while todo.size:  # gallop; past RESIDUAL_CAP // 2, doubling would pass the cap
        above = survival(hi[todo]) >= u[todo]
        todo = todo[above]
        lo[todo] = hi[todo]
        capped = lo[todo] > RESIDUAL_CAP // 2
        hi[todo[capped]] = RESIDUAL_CAP + 1
        todo = todo[~capped]
        hi[todo] *= 2
    todo = np.flatnonzero(hi - lo > 1)
    while todo.size:  # bisect; lo + hi would pass int64 near the cap
        mid = lo[todo] + (hi[todo] - lo[todo]) // 2
        above = survival(mid) >= u[todo]
        lo[todo[above]] = mid[above]
        hi[todo[~above]] = mid[~above]
        todo = np.flatnonzero(hi - lo > 1)
    return lo


# ---------------------------------------------------------------------------
# Series functions: Riemann zeta, the Pareto normalization zeta(C, .), and chi
# ---------------------------------------------------------------------------


def _pareto_scale(C, alpha):
    """C^alpha, refused with ParameterError where it leaves float range."""
    try:
        return C**alpha
    except OverflowError:
        raise ParameterError(
            f"pareto scale C^alpha overflows for C={C}, alpha={alpha}") from None


def hurwitz_like(C, alpha):
    """zeta(C, alpha) := sum_{i>=1} C^alpha / (C + i - 1)^alpha, alpha > 1.

    This is C^alpha times scipy's Hurwitz zeta(alpha, C), refused where
    C^alpha leaves float range.
    """
    if C <= 0.0:
        raise ParameterError(f"C must be positive, got {C}")
    if alpha <= 1.0:
        raise OutOfRangeError(f"series diverges for alpha={alpha} <= 1")
    return _pareto_tail(C, alpha, C)


def _pareto_tail(C, alpha, x):
    """C^alpha Hurwitz zeta(alpha, x), the Pareto tail sum T(k) at x = C + k - 1.

    Where a tiny C makes that 0 * inf (only k = 1 has x < 1), T(1) is taken
    as S(1) + T(2) = 1 + C^alpha zeta(alpha, C + 1).
    """
    scale = _pareto_scale(C, alpha)
    with np.errstate(invalid="ignore"):
        value = scale * scipy.special.zeta(alpha, x)
    if np.all(np.isfinite(value)):
        return value
    fallback = 1.0 + scale * scipy.special.zeta(alpha, C + 1.0)
    return np.where(np.isfinite(value), value, fallback)[()]


def zeta_like(alpha):
    """Riemann zeta as the series sum_{i>=1} i^-alpha, alpha > 1."""
    return hurwitz_like(1.0, alpha)


def _weibull_integral(lam, alpha, a, power=0):
    """integral_a^inf y^power exp(-lam y^alpha) dy, its prefactor taken in log space."""
    s = (power + 1) / alpha
    scale = np.exp(scipy.special.gammaln(s) - math.log(alpha) - s * math.log(lam))
    return scale * scipy.special.gammaincc(s, lam * np.asarray(a, dtype=np.float64) ** alpha)


def _weibull_split(alpha):
    """The y = i - 1 where the Weibull series leave their summed head for _weibull_tail.

    Each Euler-Maclaurin order shrinks the terms by about (g'(y) / 2 pi)^2,
    with g' = alpha g / y and g <= 745 wherever f = exp(-g) does not
    underflow, so the split keeps alpha / y <= 1/256: 2,048 up to alpha = 8.
    Past alpha = 100, f(2048) underflows for every float lam > 0.
    """
    return 256 * math.ceil(min(max(alpha, 8.0), 100.0))


def _weibull_head(lam, alpha):
    """exp(-lam y^alpha) for y = 0, 1, ..., _weibull_split(alpha) - 1."""
    with np.errstate(over="ignore", under="ignore"):
        return np.exp(-lam * np.arange(_weibull_split(alpha), dtype=np.float64) ** alpha)


def _weibull_tail(lam, alpha, x, power=0):
    """sum_{y>=x} y^power exp(-lam y^alpha) for whole x >= _weibull_split(alpha), power 0 or 1.

    Euler-Maclaurin (DLMF 2.10.1) for h(y) = y^power f(y), f = exp(-g) and
    g = lam y^alpha: the integral from x, plus h/2 - h'/12 + h'''/720 at x.
    In units of f, f' = -g', f'' = g'^2 - g'' and f''' = -g'^3 + 3 g' g'' - g''';
    for h = y f, h' = f + y f' and h''' = 3 f'' + y f'''. The first term left
    out, h^(5)(x)/30240, stays below 1e-15 of the sum on the laws accepted
    (tests/test_laws.py checks a grid). Where f(x) underflows, the tail is 0.
    """
    x = np.asarray(x, dtype=np.float64)
    with np.errstate(over="ignore", under="ignore", invalid="ignore"):
        g = lam * x**alpha
        f = np.exp(-g)
        g1 = alpha * g / x
        g2 = (alpha - 1.0) * g1 / x
        g3 = (alpha - 2.0) * g2 / x
        d1, d2, d3 = -g1, g1 * g1 - g2, -g1**3 + 3.0 * g1 * g2 - g3
        h = 1.0
        if power:
            h, d1, d3 = x, 1.0 + x * d1, 3.0 * d2 + x * d3
        tail = _weibull_integral(lam, alpha, x, power) + f * (h / 2.0 - d1 / 12.0 + d3 / 720.0)
        return np.where(f > 0.0, tail, 0.0)[()]


def weibull_survival_sum(lam, alpha):
    """sum_{i>=1} exp(-lam * (i-1)^alpha); equals chi(alpha) when lam = 1.

    The head terms are summed and the rest is _weibull_tail; a sum past
    float range is inf.
    """
    if lam <= 0.0 or alpha <= 0.0:
        raise OutOfRangeError(f"series needs lam > 0, alpha > 0, got ({lam}, {alpha})")
    head = _weibull_head(lam, alpha)
    with np.errstate(over="ignore"):
        return float(np.sum(head) + _weibull_tail(lam, alpha, head.size))


def chi_like(alpha):
    """chi(alpha) := sum_{i>=1} exp(-(i-1)^alpha), alpha > 0."""
    return weibull_survival_sum(1.0, alpha)


# _invert_decreasing grows its bracket out of `start`: the upper end doubles
# and the lower end halves its distance to `floor`, each at most _MAX_STEPS
# times, and each steps back toward start wherever fn is refused or not finite.
_MAX_STEPS = 64


def _bracket_end(fn, a, step, reached):
    """Walk a, step(a), ... to the first point where fn is reached.

    Returns it (or None), the last finite point passed (a if none) and any
    refusal; from a refused or non-finite point it steps back halfway.
    """
    good, bad, refusal = a, None, None
    for _ in range(_MAX_STEPS):
        try:
            value = fn(a)
        except ParameterError as exc:
            value, refusal = math.nan, exc
        if not math.isfinite(value):
            if a == good:  # refused at start itself: there is nothing to step back to
                break
            bad, a = a, (good + a) / 2.0
        elif reached(value):
            return a, good, refusal
        else:
            good, a = a, step(a) if bad is None else (a + bad) / 2.0
    return None, good, refusal


def _invert_decreasing(fn, target, floor, start, limit, name, xtol=DEFAULT_INVERT_TOL):
    """The a > floor with fn(a) = target, for fn strictly decreasing toward limit.

    Targets at or below limit are refused. The bracket's upper end walks up from
    start (_bracket_end), and if fn(start) is already at or below the target its
    lower end walks down; brentq finds the root in it to xtol. Without a bracket,
    the ParameterError met on the way is raised, or else OutOfRangeError.
    """
    if not np.isfinite(target) or target <= limit:
        raise OutOfRangeError(
            f"target {target} is outside the range of {name} (must exceed {limit})"
        )
    hi, lo, refusal = _bracket_end(fn, start, lambda a: 2.0 * a, lambda v: v <= target)
    if hi is not None and lo == hi:
        lo, hi, refusal = _bracket_end(fn, start, lambda a: floor + (a - floor) / 2.0,
                                       lambda v: v >= target)
    if hi is None or lo is None:
        raise refusal or OutOfRangeError(f"could not bracket target {target} for {name}")
    return scipy.optimize.brentq(lambda a: fn(a) - target, lo, hi, xtol=xtol)


# The smallest argument of each inversion: Pareto laws need alpha > 1, and chi alpha > 0.
_PARETO_FLOOR = math.nextafter(1.0, 2.0)


def invert_zeta_like(target):
    """alpha with zeta(alpha) = target; requires target > 1."""
    return invert_hurwitz_like(1.0, target)


def invert_hurwitz_like(C, target):
    """alpha with zeta(C, alpha) = target; requires target > 1."""
    return _invert_decreasing(
        lambda a: hurwitz_like(C, a), target, _PARETO_FLOOR, 2.0, 1.0, "hurwitz"
    )


def invert_chi_like(target):
    """alpha with chi(alpha) = target; requires 1 + exp(-1) < target.

    chi(alpha) -> 1 + e^-1 as alpha -> inf because the i = 2 term never
    decays, so targets at or below that level are unreachable. As alpha -> 0,
    chi grows like Gamma(1 + 1/alpha) and leaves float range near alpha = 0.0058;
    targets past the last finite chi are refused. There an absolute 1e-10 in
    alpha moves chi by 1e-7 of itself, so alpha is solved to float precision
    (brentq's relative 4 eps).
    """
    return _invert_decreasing(chi_like, target, 0.0, 1.0, 1.0 + math.exp(-1.0), "chi",
                              xtol=math.ulp(0.0))


# ---------------------------------------------------------------------------
# Config text representation
# ---------------------------------------------------------------------------


def law_from_config(cfg: dict) -> DurationLaw:
    """Build a law from {"kind": ..., ...} as used in config files.

    A cfg that is not a dict is a TypeError, a missing key a KeyError. A
    parameter that is no number (a bool, text, a list, null) or whose int
    leaves float range is a ParameterError, as is one the law refuses.
    """
    if not isinstance(cfg, dict):
        raise TypeError(f"a law must be an object with a kind, got {cfg!r}")
    kind = cfg.get("kind")

    def real(key):
        v = cfg[key]
        if isinstance(v, bool) or not isinstance(v, numbers.Real):
            raise ParameterError(f"{kind} {key} must be a number, got {v!r}")
        try:
            return float(v)
        except OverflowError:
            raise ParameterError(f"{kind} {key} is past float range") from None

    try:
        if kind == "geometric":
            return Geometric(p=real("p"))
        if kind == "weibull":
            return Weibull(lam=real("lambda"), alpha=real("alpha"))
        if kind == "pareto":
            return Pareto(C=real("C"), alpha=real("alpha"))
    except KeyError as exc:
        raise KeyError(f"{kind} law needs key {exc}") from None
    raise ParameterError(f"unknown law kind {kind!r}")
