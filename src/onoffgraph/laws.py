"""Discrete positive-integer duration laws and their mean maps.

Three parametric families are supported, all with support {1, 2, ...}:

* geometric, survival (1-p)^(i-1)
* discrete Weibull, survival exp(-lambda * (i-1)^alpha)
* Pareto/Lomax, survival C^alpha / (C + i - 1)^alpha

Each law exposes its survival function, pmf, an exact inverse-transform
sampler, its residual (equilibrium) law and its mean map over the free shape
(p, or alpha at a fixed scale): mean(), its exact slope mean_slope() and,
for a shape, the inverse, the class method shape_for_mean().
"""

from __future__ import annotations

import functools
import math
import numbers
import sys
from dataclasses import dataclass

import numpy as np
import scipy

from .errors import ConvergenceError, InfiniteMeanError, OutOfRangeError, ParameterError

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

    UNIT_SCALE = {}  # the scale at which a family that fits only the shape holds the law

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
        u_min = u.min()  # NaN if any u is NaN, which fails the test as it must
        if not (u_min > 0.0 and u.max() <= 1.0):
            raise ValueError("u must lie in (0, 1]")
        # inf is an outcome here (a quantile past float range), and is capped
        with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
            x = self._quantile(u)
            i = np.floor(x)
            top = x.max()
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
            if not i.max() < RESIDUAL_CAP:  # inf where x is
                done |= i >= RESIDUAL_CAP
                np.minimum(i, RESIDUAL_CAP, out=i)
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

    def mean_slope(self):  # d(1/p)/dp = -1/p^2, as the mean's own square
        return -self.mean() ** 2

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

    UNIT_SCALE = {"lam": 1.0}

    def __post_init__(self):
        # where (i - 1)^alpha overflows, survival reads exp(-inf) = 0: right only
        # if lam times the largest float already puts exp(-lam y^alpha) below 5e-324
        lam, a = self.lam, self.alpha
        if not (lam * sys.float_info.max >= 746.0 and lam < math.inf and 0.0 < a < math.inf):
            raise ParameterError(
                f"weibull needs finite lambda >= 746 / (largest float) and alpha > 0, got ({lam}, {a})")
        # the mean and variance series: the head terms, then _weibull_tail from y = M
        _, head, tail, mean = _weibull_head(lam, a)
        M = head.size
        tails = np.zeros(M + 1)  # tails[j] = sum_{y=j}^{M-1} exp(-lam y^alpha)
        tails[:-1] = np.cumsum(head[::-1])[::-1]
        # with y = i - 1, sum_{i>=2} (2i - 3) S(i) = sum_{y>=1} (2y - 1) exp(-lam y^alpha)
        weights = np.maximum(2.0 * np.arange(M) - 1.0, 0.0)
        with np.errstate(over="ignore", invalid="ignore"):
            second = np.sum(weights * head) + 2.0 * _weibull_tail(lam, a, M, power=1) - tail
            t2 = tails[1] + tail
            moments = mean, float(second - t2 * t2)
        if not np.isfinite(moments).all():
            raise ParameterError(f"weibull ({lam}, {a}) has a mean or variance past float range")
        object.__setattr__(self, "_moments", moments)
        object.__setattr__(self, "_tails", tails)

    def survival(self, i):
        with np.errstate(over="ignore", under="ignore"):
            return np.exp(-self.lam * (_as_index(i) - 1.0) ** self.alpha)

    def mean(self):
        return self._moments[0]

    def mean_slope(self):
        return _weibull_mean_slope(self.lam, self.alpha)[1]

    @classmethod
    def shape_for_mean(cls, target):
        """The alpha with Weibull(1, alpha).mean() = target, climbed from left of it.

        The mean exceeds 1 + 1/e + exp(-2^alpha), so the start is log2(-ln(target
        - 1 - 1/e)) or 1. Where that falls short, alpha halves, and bisects where
        the mean or slope leaves float range; with only the slope out, the root
        is bisected. A convex mean's tangent at the last alpha that fell short
        lands left of the root, where the climb starts if that is closer.
        """
        gap = target - 1.0 - math.exp(-1.0)
        if not 0.0 < gap < math.inf:
            raise OutOfRangeError(f"target {target} is outside the range of the weibull mean")
        alpha = max(1.0, math.log2(-math.log(gap))) if gap < math.exp(-1.0) else 1.0
        lo, lo_mean, hi, right = 0.0, math.inf, math.inf, None
        first = _weibull_mean_slope(1.0, alpha)
        while not (first[0] >= target and first[1] > -math.inf):
            if first[0] < target:
                hi, right = alpha, first
            else:
                lo, lo_mean = alpha, first[0]
            alpha = hi / 2.0 if lo == 0.0 else lo + (hi - lo) / 2.0
            if not lo < alpha < hi:
                if lo_mean < math.inf:
                    return lo
                raise OutOfRangeError(f"target {target} is past the weibull means in float range")
            first = _weibull_mean_slope(1.0, alpha)
        if right and alpha < (b := hi + (target - right[0]) / right[1]):
            near = _weibull_mean_slope(1.0, b)  # within 4 ulps of the target, the climb's end
            if near[0] >= target - 4.0 * math.ulp(target) and near[1] > -math.inf:
                alpha, first = b, near
        return _climb(lambda a: _weibull_mean_slope(1.0, a), target, alpha, first)

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

    UNIT_SCALE = {"C": 1.0}

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
        return _pareto_tail(self.C, self.alpha, self.C)

    def mean_slope(self):
        self.mean()  # refuses alpha <= 1
        return _pareto_slope(self.C, self.alpha)

    @classmethod
    def shape_for_mean(cls, target, scale=1.0):
        """The alpha with Pareto(scale, alpha).mean() = target > 1, by _climb from below it.

        Where C^alpha overflows on the way, the law at the root is refused too.
        So is a root whose mean misses the target by over 1e-6 relative: near
        alpha = 1 one ulp of alpha moves the mean by about C eps / (alpha - 1)^2.
        """
        if not 1.0 < target < math.inf:
            raise OutOfRangeError(f"target {target} is outside the range of the pareto mean")
        # the mean, whose terms are convex in j, exceeds C / (alpha - 1) + 1/2: start there
        start = math.nextafter(1.0 + scale / (target - 0.5), 1.0)
        if start <= 1.0:
            raise OutOfRangeError(f"target {target} needs a pareto alpha within rounding of 1")
        return _climb(lambda a: (_pareto_tail(scale, a, scale), _pareto_slope(scale, a)),
                      target, start, miss=1e-6)

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
        if not np.all((u > 0.0) & (u <= 1.0)):  # NaN fails too
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
# Mean maps: the series, their slopes in the shape, and the climb that inverts them
# ---------------------------------------------------------------------------


def _pareto_scale(C, alpha):
    """C^alpha, refused with ParameterError where it leaves float range."""
    try:
        return float(C) ** float(alpha)  # floats, so that overflow raises
    except OverflowError:
        raise ParameterError(
            f"pareto scale C^alpha overflows for C={C}, alpha={alpha}") from None


def _pareto_tail(C, alpha, x):
    """C^alpha Hurwitz zeta(alpha, x), the Pareto tail sum T(k) at x = C + k - 1.

    Where a tiny C makes that 0 * inf (only k = 1 has x < 1), T(1) is taken
    as S(1) + T(2) = 1 + C^alpha zeta(alpha, C + 1).
    """
    scale = _pareto_scale(C, alpha)
    with np.errstate(invalid="ignore"):
        value = scale * scipy.special.zeta(alpha, x)
    if np.isfinite(value).all():
        return value
    fallback = 1.0 + scale * scipy.special.zeta(alpha, C + 1.0)
    return np.where(np.isfinite(value), value, fallback)[()]


def _pareto_slope(C, alpha):
    """d/d alpha of the Pareto mean, sum_{j>=1} h, h = r^alpha L, r = C / (C + j), L = ln r.

    Summed for j < M, x = C + M >= 32 (alpha + 4), then Euler-Maclaurin (DLMF
    2.10.1): the integral x r^alpha (L / (alpha - 1) - 1 / (alpha - 1)^2) and
    h/2 - h'/12 + h'''/720 at x; each derivative adds a factor near alpha / x.
    """
    M = max(1, math.ceil(32.0 * (alpha + 4.0) - C))
    L = -np.log1p(np.arange(1.0, M + 1.0) / C)  # ln r for j = 1..M
    r = np.exp(alpha * L)
    x, Lx, rx = C + M, float(L[-1]), float(r[-1])
    b, a1 = alpha * Lx + 1.0, alpha - 1.0
    h3 = (alpha + 2.0) * ((alpha + 1.0) * b + alpha) + alpha * (alpha + 1.0)
    tail = x * rx * (Lx / a1 - 1.0 / a1**2) + rx * (Lx / 2.0 + b / (12.0 * x) - h3 / (720.0 * x**3))
    return float(r[:-1] @ L[:-1]) + tail


def _weibull_integral(lam, alpha, a, power=0):
    """integral_a^inf y^power exp(-lam y^alpha) dy, its prefactor taken in log space."""
    s = (power + 1) / alpha
    scale = np.exp(scipy.special.gammaln(s) - math.log(alpha) - s * math.log(lam))
    return scale * scipy.special.gammaincc(s, lam * np.asarray(a, dtype=np.float64) ** alpha)


_laguerre_rule = functools.cache(lambda: np.polynomial.laguerre.laggauss(64))


def _weibull_log_integral(lam, alpha, x):
    """integral_x^inf g ln y exp(-g) dy, g = lam y^alpha: J / (alpha^2 lam^(1/alpha)) with
    J = integral_{t0}^inf t^(s-1) ln(t / lam) e^-t dt, s = 1 + 1/alpha, t0 = lam x^alpha.

    Past the peak of t^(s-1) e^-t (t0 >= s), Gauss-Laguerre on t = t0 + c v,
    c flattening what the power adds to e^-t; before it, Gamma(s) (psi(s) -
    ln lam) less the lower integral, the s-derivative of the series of the
    lower incomplete gamma, sum_k t0^(s+k) e^-t0 / (s (s + 1) ... (s + k)).
    """
    s, t0 = 1.0 + 1.0 / alpha, float(lam * x**alpha)
    log_pre = -2.0 * math.log(alpha) - math.log(lam) / alpha
    if t0 >= s:
        v, w = _laguerre_rule()
        c = 1.0 / (1.0 - min((s - 1.0) / t0, 0.5))
        terms = w * np.exp((s - 1.0) * np.log1p(c * v / t0) - (c - 1.0) * v) * np.log(
            (t0 + c * v) / lam)
        return c * np.exp(log_pre - t0 + (s - 1.0) * math.log(t0)) * float(np.sum(terms))
    k = np.arange(math.ceil(t0 + 12.0 * math.sqrt(t0) + 40.0))
    log_c = np.cumsum(np.log(t0 / (s + k))) + (s - 1.0) * math.log(t0) - t0 + log_pre
    lower = np.exp(log_c) * (math.log(t0 / lam) - np.cumsum(1.0 / (s + k)))
    whole = np.exp(math.lgamma(s) + log_pre) * (scipy.special.digamma(s) - math.log(lam))
    return whole - float(np.sum(lower))


def _weibull_split(alpha):
    """The y = i - 1 where the Weibull series leave their summed head for _weibull_tail.

    Each Euler-Maclaurin order shrinks the terms by about (g'(y) / 2 pi)^2,
    with g' = alpha g / y and g <= 745 wherever f = exp(-g) does not
    underflow, so the split keeps alpha / y <= 1/256: 2,048 up to alpha = 8.
    Past alpha = 100, f(2048) underflows for every float lam > 0.
    """
    return 256 * math.ceil(min(max(alpha, 8.0), 100.0))


def _weibull_head(lam, alpha):
    """g = lam y^alpha and exp(-g) for y = 0, 1, ..., M - 1, M = _weibull_split(alpha),
    the tail sum_{y>=M} exp(-g) and the mean sum_{y>=0} exp(-g), inf past float range."""
    with np.errstate(over="ignore", under="ignore", invalid="ignore"):
        g = lam * np.arange(_weibull_split(alpha), dtype=np.float64) ** alpha
        head = np.exp(-g)
        tail = _weibull_tail(lam, alpha, head.size)
        return g, head, tail, float(np.sum(head) + tail)


def _weibull_tail(lam, alpha, x, power=0):
    """sum_{y>=x} h f, f = exp(-g), g = lam y^alpha, for whole x >= _weibull_split(alpha).

    h is y^power (power 0 or 1), or g ln y for power "log" (scalar x).
    Euler-Maclaurin (DLMF 2.10.1): the integral from x, plus H/2 - H'/12 +
    H'''/720 at x, H = h f; in units of f, f' = -g', f'' = g'^2 - g'' and
    f''' = -g'^3 + 3 g' g'' - g'''. The first term left out, H^(5)(x)/30240,
    stays below 1e-15 of the mean and variance sums on the laws accepted
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
        if power == "log":
            L = np.log(x)
            h, q1, q2 = g * L, g1 * L + g / x, g2 * L + (2.0 * g1 - g / x) / x
            q3 = g3 * L + (3.0 * g2 - (3.0 * g1 - 2.0 * g / x) / x) / x
            d1, d3 = q1 + h * d1, q3 + 3.0 * q2 * d1 + 3.0 * q1 * d2 + h * d3
            integral = _weibull_log_integral(lam, alpha, x)
        else:
            if power:
                h, d1, d3 = x, 1.0 + x * d1, 3.0 * d2 + x * d3
            integral = _weibull_integral(lam, alpha, x, power)
        return np.where(f > 0.0, integral + f * (h / 2.0 - d1 / 12.0 + d3 / 720.0), 0.0)[()]


def _weibull_mean_slope(lam, alpha):
    """The Weibull mean sum_{y>=0} exp(-g), g = lam y^alpha, and its slope in alpha.

    The mean has Weibull.mean()'s bits; the slope is -sum_{y>=1} g ln y exp(-g).
    No law is built, so shapes that the law refuses have them too.
    """
    g, head, _, mean = _weibull_head(lam, alpha)
    with np.errstate(over="ignore", invalid="ignore"):
        # past g = 745, g exp(-g) is 0: capping g keeps inf * 0 out
        slope = np.sum(np.minimum(g[1:], 800.0) * np.log(np.arange(1.0, head.size)) * head[1:])
        return mean, -float(slope + _weibull_tail(lam, alpha, head.size, "log"))


_CLIMB_STEPS = 200  # a climb that evaluates its map this often cannot follow it


def _climb(fn, target, a, first=None, limit=1.0, miss=math.inf):
    """The root of mean(a) = target, from a at or left of it, for a mean falling toward limit.

    fn(a) gives the mean and its slope (first, if given, is fn(a)). Newton
    runs on ln(mean - limit), for a Pareto law (limit 1) a log-sum-exp of
    affine maps of alpha, so convex: each step lands at or left of the root.
    A step landing past it (one within 4 ulps of the root is taken) or refused
    by fn (ParameterError) ends the bracket, and a step past that end goes half
    the way there; once the way is within 4 ulps, a refusal there is raised.
    A slope past float range gives a step of 0, which ends the climb unsolved.
    A root whose mean misses the target by over miss relative is refused.
    """
    def newton(a, value, slope):  # the step, and whether a is at the root as far as rounding tells
        step = (math.log(target - limit) - math.log(value - limit)) * (value - limit) / slope
        return step, (abs(value - target) <= 4.0 * math.ulp(target)
                      or abs(step) <= 4.0 * math.ulp(a) and slope > -math.inf)

    a, (value, slope) = float(a), first or fn(a)
    step, done = newton(a, value, slope)
    if value < target and not done:
        raise OutOfRangeError(f"the climb to {target} starts past its root, at {a}")
    end, refusal = math.inf, None
    for _ in range(_CLIMB_STEPS):
        if a + step >= end:
            step = (end - a) / 2.0
        if done or 0.0 < step <= 4.0 * math.ulp(a):
            if refusal is not None and not done:
                raise refusal
            if abs(value - target) > miss * target:
                raise OutOfRangeError(f"no float root for target {target}: "
                                      f"the closest found, {a}, has mean {value}")
            return a
        if not 0.0 < step < math.inf:
            break
        try:
            v, s = fn(a + step)
        except ParameterError as exc:
            end, refusal = a + step, exc
            continue
        if v >= target or v > limit and (near := newton(a + step, v, s))[1]:
            a, value = a + step, v
            step, done = near if v < target else newton(a, value, s)
        else:
            end, refusal = a + step, None
    raise ConvergenceError(f"no root for target {target} in {_CLIMB_STEPS} steps")


invert_zeta_like = Pareto.shape_for_mean  # the name the benchmark calls


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
