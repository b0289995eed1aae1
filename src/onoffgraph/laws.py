"""Discrete positive-integer duration laws and the series functions used to invert them.

Three parametric families are supported, all with support {1, 2, ...}:

* geometric, survival (1-p)^(i-1)
* discrete Weibull, survival exp(-lambda * (i-1)^alpha)
* Pareto/Lomax, survival C^alpha / (C + i - 1)^alpha

Each law exposes its survival function, pmf, mean, an exact inverse-transform
sampler, and its residual (equilibrium) law.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy import special
from scipy.optimize import brentq

from .errors import InfiniteMeanError, OutOfRangeError, ParameterError

DEFAULT_SERIES_TOL = 1e-12
DEFAULT_INVERT_TOL = 1e-10

# Residual draws beyond int64 range (possible as Pareto alpha -> 1) are returned as this cap.
RESIDUAL_CAP = 2**62
# The Weibull residual tail stops where weibull_survival_sum stops summing the mean.
_WEIBULL_TERMS = 1 << 22


def _as_index(i):
    arr = np.asarray(i)
    if np.any(arr < 1):
        raise ValueError("duration index must be >= 1")
    return arr.astype(np.float64)


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

    def _sample_candidate(self, u):
        raise NotImplementedError

    def pmf(self, k):
        """P(Z = k) = survival(k) - survival(k+1)."""
        k = np.asarray(k)
        return self.survival(k) - self.survival(k + 1)

    def residual(self):
        return ResidualLaw(self)

    def sample(self, u):
        """Inverse-transform sample: the unique i with survival(i+1) < u <= survival(i).

        The closed-form candidate only seeds a local search; the bracketing
        condition itself is enforced, which resolves floating-point boundary
        cases.
        """
        u = np.asarray(u, dtype=np.float64)
        scalar = u.ndim == 0
        u = np.atleast_1d(u)
        if np.any(u <= 0.0) or np.any(u > 1.0):
            raise ValueError("u must lie in (0, 1]")
        i = np.maximum(np.nan_to_num(self._sample_candidate(u), nan=1.0), 1.0)
        i = i.astype(np.int64)
        for _ in range(128):
            too_big = self.survival(i) < u
            too_small = self.survival(i + 1) >= u
            if not (too_big.any() or too_small.any()):
                break
            i = i - too_big.astype(np.int64) + too_small.astype(np.int64)
            i = np.maximum(i, 1)
        return int(i[0]) if scalar else i

    def to_config(self):
        raise NotImplementedError


@dataclass(frozen=True)
class Geometric(DurationLaw):
    p: float

    def __post_init__(self):
        if not 0.0 < self.p < 1.0:
            raise ParameterError(f"geometric p must be in (0,1), got {self.p}")

    def survival(self, i):
        return (1.0 - self.p) ** (_as_index(i) - 1.0)

    def mean(self):
        return 1.0 / self.p

    def tail_sum(self, k):
        return self.survival(k) / self.p

    def _sample_candidate(self, u):
        return np.floor(np.log(u) / math.log1p(-self.p)) + 1.0

    def to_config(self):
        return {"kind": "geometric", "p": self.p}


@dataclass(frozen=True)
class Weibull(DurationLaw):
    lam: float
    alpha: float

    def __post_init__(self):
        if self.lam <= 0.0 or self.alpha <= 0.0:
            raise ParameterError(
                f"weibull needs lambda > 0 and alpha > 0, got ({self.lam}, {self.alpha})"
            )
        # the mean series must meet its tolerance within the terms it is allowed
        if _weibull_truncated(self.lam, self.alpha):
            raise ParameterError(
                f"weibull ({self.lam}, {self.alpha}) has a mean series that does not"
                f" converge within {_WEIBULL_TERMS} terms")

    def survival(self, i):
        with np.errstate(over="ignore", under="ignore"):
            return np.exp(-self.lam * (_as_index(i) - 1.0) ** self.alpha)

    def mean(self):
        return weibull_survival_sum(self.lam, self.alpha)

    def tail_sum(self, k):
        """mean() minus the partial sums up to the largest k asked for.

        Where that difference is lost to rounding, the integral bound
        survival(k) + integral_{k-1}^inf takes over, so the tail decays to 0.
        """
        k = np.asarray(k, dtype=np.int64)
        top = int(min(np.max(k), _WEIBULL_TERMS))
        head = np.zeros(top)
        np.cumsum(self.survival(np.arange(1, top)), out=head[1:])
        tail = self.mean() - head[np.minimum(k, top) - 1]
        bound = self.survival(k) + _weibull_integral(self.lam, self.alpha, k - 1.0)
        return np.where(k > _WEIBULL_TERMS, 0.0, np.clip(tail, 0.0, bound))

    def _sample_candidate(self, u):
        return np.floor((-np.log(u) / self.lam) ** (1.0 / self.alpha)) + 1.0

    def to_config(self):
        return {"kind": "weibull", "lambda": self.lam, "alpha": self.alpha}


@dataclass(frozen=True)
class Pareto(DurationLaw):
    C: float
    alpha: float

    def __post_init__(self):
        if self.C <= 0.0 or self.alpha <= 0.0:
            raise ParameterError(
                f"pareto needs C > 0 and alpha > 0, got ({self.C}, {self.alpha})"
            )
        _pareto_scale(self.C, self.alpha)  # so mean() and tail_sum() stay in float range

    def survival(self, i):
        return (self.C / (self.C + _as_index(i) - 1.0)) ** self.alpha

    def mean(self):
        if self.alpha <= 1.0:
            raise InfiniteMeanError(f"pareto mean is infinite for alpha={self.alpha} <= 1")
        return hurwitz_like(self.C, self.alpha)

    def tail_sum(self, k):
        # C^alpha * Hurwitz zeta(alpha, C + k - 1)
        return self.C**self.alpha * special.zeta(self.alpha, self.C + _as_index(k) - 1.0)

    def _sample_candidate(self, u):
        return np.floor(self.C * (u ** (-1.0 / self.alpha) - 1.0)) + 1.0

    def to_config(self):
        return {"kind": "pareto", "C": self.C, "alpha": self.alpha}


class ResidualLaw:
    """Equilibrium law of a duration law: pmf(k) = survival(k) / mean.

    Its survival is P(residual >= k) = T(k) / mean with the law's tail sum
    T(k), so sampling needs no table: it gallops and then bisects on k.
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
        scalar = u.ndim == 0
        u = np.atleast_1d(u)
        if np.any(u <= 0.0) or np.any(u > 1.0):
            raise ValueError("u must lie in (0, 1]")
        # invariant: survival(lo) >= u > survival(hi), with survival(1) = 1
        lo = np.ones(u.shape, dtype=np.int64)
        hi = np.full(u.shape, 2, dtype=np.int64)
        todo = np.arange(u.size)
        while todo.size:  # gallop: double hi until it passes the draw
            above = self.survival(hi[todo]) >= u[todo]
            todo = todo[above]
            lo[todo] = hi[todo]
            capped = hi[todo] == RESIDUAL_CAP
            hi[todo[capped]] = RESIDUAL_CAP + 1
            todo = todo[~capped]
            hi[todo] *= 2
        while True:  # bisect
            open_ = np.flatnonzero(hi - lo > 1)
            if not open_.size:
                break
            mid = (lo[open_] + hi[open_]) // 2
            above = self.survival(mid) >= u[open_]
            lo[open_[above]] = mid[above]
            hi[open_[~above]] = mid[~above]
        return int(lo[0]) if scalar else lo


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
    return _pareto_scale(C, alpha) * special.zeta(alpha, C)


def zeta_like(alpha):
    """Riemann zeta as the series sum_{i>=1} i^-alpha, alpha > 1."""
    return hurwitz_like(1.0, alpha)


def _weibull_integral(lam, alpha, a):
    """integral_a^inf exp(-lam y^alpha) dy, an upper bound on sum_{y>a} exp(-lam y^alpha)."""
    return (special.gamma(1.0 / alpha) / (alpha * lam ** (1.0 / alpha))
            * special.gammaincc(1.0 / alpha, lam * np.asarray(a, dtype=np.float64) ** alpha))


def _weibull_truncated(lam, alpha):
    """Whether the mean series misses DEFAULT_SERIES_TOL after _WEIBULL_TERMS terms."""
    return _weibull_integral(lam, alpha, _WEIBULL_TERMS - 1.0) > DEFAULT_SERIES_TOL


def weibull_survival_sum(lam, alpha):
    """sum_{i>=1} exp(-lam * (i-1)^alpha); equals chi(alpha) when lam = 1.

    Refused when the sum does not meet DEFAULT_SERIES_TOL within _WEIBULL_TERMS terms.
    """
    if lam <= 0.0 or alpha <= 0.0:
        raise OutOfRangeError(f"series needs lam > 0, alpha > 0, got ({lam}, {alpha})")
    if _weibull_truncated(lam, alpha):
        raise OutOfRangeError(
            f"series for ({lam}, {alpha}) does not converge within {_WEIBULL_TERMS} terms")
    total = 0.0
    m = 0
    block = 256
    with np.errstate(over="ignore", under="ignore"):
        while True:
            i = np.arange(m, m + block, dtype=np.float64)  # i = (index - 1)
            total += float(np.sum(np.exp(-lam * i**alpha)))
            m += block
            # tail sum_{y>=m} exp(-lam y^alpha) <= integral_{m-1}^inf, which the
            # check above bounds by DEFAULT_SERIES_TOL once m >= _WEIBULL_TERMS
            if m >= _WEIBULL_TERMS or _weibull_integral(lam, alpha, m - 1.0) <= DEFAULT_SERIES_TOL:
                return total
            block = min(block * 2, 1 << 20)


def chi_like(alpha):
    """chi(alpha) := sum_{i>=1} exp(-(i-1)^alpha), alpha > 0."""
    return weibull_survival_sum(1.0, alpha)


# _invert_decreasing grows its bracket out of `start`: the upper end doubles up
# to _MAX_DOUBLINGS times, stepping back toward the lower end wherever fn is
# refused or not finite; the lower end halves its distance to `floor` up to
# _MAX_HALVINGS times and then drops to the floor. The halvings are few because
# chi near its floor sums up to 2^22 terms (~0.1 s) per evaluation.
_MAX_DOUBLINGS = 30
_MAX_HALVINGS = 8


def _invert_decreasing(fn, target, floor, start, limit, name):
    """The a >= floor with fn(a) = target, for fn strictly decreasing toward limit.

    Targets outside (limit, fn(floor)] are refused. The bracket grows out of
    start, and brentq finds the root in it to DEFAULT_INVERT_TOL. Where fn
    raises ParameterError the search stays below that point, and if no
    bracket is found that refusal is raised.
    """
    if not np.isfinite(target) or target <= limit:
        raise OutOfRangeError(
            f"target {target} is outside the range of {name} (must exceed {limit})"
        )
    lo = hi = start
    bad, refusal = math.inf, None  # the least point found outside fn's domain, and why
    for _ in range(_MAX_DOUBLINGS):
        try:
            value = fn(hi)
        except ParameterError as exc:
            value, refusal = math.nan, exc
        if not math.isfinite(value):
            if hi == lo:  # refused at start itself: there is nothing to step back to
                break
            bad, hi = hi, (lo + hi) / 2.0
        elif value <= target:
            break
        else:
            lo, hi = hi, min(2.0 * hi, (hi + bad) / 2.0)
    if not (math.isfinite(value) and value <= target):
        if refusal is not None:
            raise refusal
        raise OutOfRangeError(f"could not bracket target {target} for {name}")
    for _ in range(_MAX_HALVINGS):
        if fn(lo) >= target:
            break
        lo, hi = floor + (lo - floor) / 2.0, lo
    else:
        lo, top = floor, fn(floor)
        if top < target:
            raise OutOfRangeError(
                f"target {target} is outside the range of {name} (at most {top})")
    return brentq(lambda a: fn(a) - target, lo, hi, xtol=DEFAULT_INVERT_TOL)


# The smallest argument of each inversion: Pareto laws need alpha > 1, and chi
# is a full series sum only where Weibull(1, alpha) is accepted.
_PARETO_FLOOR = math.nextafter(1.0, 2.0)
_CHI_FLOOR = _invert_decreasing(
    lambda a: _weibull_integral(1.0, a, _WEIBULL_TERMS - 1.0), DEFAULT_SERIES_TOL,
    0.1, 1.0, 0.0, "the weibull tail bound") + 2.0 * DEFAULT_INVERT_TOL


def invert_zeta_like(target):
    """alpha with zeta(alpha) = target; requires target > 1."""
    return invert_hurwitz_like(1.0, target)


def invert_hurwitz_like(C, target):
    """alpha with zeta(C, alpha) = target; requires target > 1."""
    return _invert_decreasing(
        lambda a: hurwitz_like(C, a), target, _PARETO_FLOOR, 2.0, 1.0, "hurwitz"
    )


def invert_chi_like(target):
    """alpha with chi(alpha) = target; requires 1 + exp(-1) < target <= chi(_CHI_FLOOR).

    chi(alpha) -> 1 + e^-1 as alpha -> inf because the i = 2 term never
    decays, so targets at or below that level are unreachable; targets above
    chi at the smallest alpha a Weibull(1, alpha) law accepts are refused.
    """
    return _invert_decreasing(
        chi_like, target, _CHI_FLOOR, 1.0, 1.0 + math.exp(-1.0), "chi"
    )


# ---------------------------------------------------------------------------
# Config text representation
# ---------------------------------------------------------------------------


def law_from_config(cfg: dict) -> DurationLaw:
    """Build a law from {"kind": ..., ...} as used in config files."""
    kind = cfg.get("kind")
    try:
        if kind == "geometric":
            return Geometric(p=float(cfg["p"]))
        if kind == "weibull":
            return Weibull(lam=float(cfg["lambda"]), alpha=float(cfg["alpha"]))
        if kind == "pareto":
            return Pareto(C=float(cfg["C"]), alpha=float(cfg["alpha"]))
    except KeyError as exc:
        raise KeyError(f"{kind} law needs key {exc}") from None
    raise ParameterError(f"unknown law kind {kind!r}")
