"""Limiting covariance matrices of the moment statistics and of the estimators.

``general_moment_cov`` computes the 2 x 2 matrix of (mu_hat(0), mu_hat(1))
for any pair of laws: the one-edge matrix exactly, from the renewal-reward
central limit theorem over one on/off cycle of an edge, plus the cross-edge
part of entry [1, 1] as one series of squared autocovariances.
It serves every model; ``geometric_moment_cov`` sums the series in closed
form for geometric laws and stays as its oracle. ``param_cov`` propagates the
matrix by the delta method to the parameters of every two-lag family.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np
import scipy

from .laws import Geometric, Pareto, Weibull
from .moments import FAMILIES, rate_jacobian
from .renewal import autocovariance
from .simulate import ModelSpec


@dataclass
class MomentCov:
    """Per-sqrt(K) limiting covariance matrix of (mu_hat(0), mu_hat(1)); v0, v1, c01 view it."""

    matrix: np.ndarray
    method: str = "general_series"
    converged: bool = True
    k_used: int = 0
    tail_correction: tuple[float, float, float] = (0.0, 0.0, 0.0)
    tail_error: float = 0.0

    v0 = property(lambda self: float(self.matrix[0, 0]))
    v1 = property(lambda self: float(self.matrix[1, 1]))
    c01 = property(lambda self: float(self.matrix[0, 1]))

    def to_json(self) -> dict:
        return {"v0": self.v0, "v1": self.v1, "c01": self.c01, "method": self.method,
                "converged": self.converged, "k_used": self.k_used,
                "tail_correction": list(self.tail_correction), "tail_error": self.tail_error}


@dataclass
class ParamCov:
    """Limit covariance matrix of sqrt(K) (theta_hat - theta) over a two-lag family's params."""

    params: tuple
    matrix: np.ndarray

    def sd(self, K: int) -> dict:
        """Predicted standard deviation of each parameter at trace length K, by name."""
        return dict(zip(self.params, map(float, np.sqrt(np.diag(self.matrix) / K))))

    def to_json(self) -> dict:
        m = self.matrix
        return {"sigma2": float(m[0, 0]), "tau2": float(m[1, 1]), "rho_cov": float(m[0, 1])}


class DivergenceWarning(UserWarning):
    """The limiting covariances are infinite, so the series diverge."""


# ---------------------------------------------------------------------------
# Closed forms for geometric on- and off-times
# ---------------------------------------------------------------------------


def geometric_moment_cov(n: int, p: float, q: float) -> MomentCov:
    """Closed-form moment covariance matrix for geometric on/off laws.

    The one-edge matrix is _reward_cov's. The one-edge autocovariance is
    gamma(d) = c f^|d|, with c = rho (1 - rho) and f = 1 - p - q, so v1's
    cross-edge series n (n - 1) sum_d [gamma(d)^2 + gamma(d - 1) gamma(d + 1)]
    sums to n (n - 1) c^2 (1 + 4 f^2 - f^4) / (1 - f^2), added to entry [1, 1].
    p or q outside the Geometric domain raises ParameterError.
    """
    cov = _reward_cov(ModelSpec(Geometric(p), Geometric(q), n), n)
    f = 1.0 - p - q
    c = p * q / (p + q) ** 2
    # 1 - f^2 = (p + q)(1 + f), which keeps its bits when p + q is small
    cov[1, 1] += n * (n - 1) * c * c * (1.0 + 4.0 * f * f - f**4) / ((p + q) * (1.0 + f))
    return MomentCov(cov, method="closed_form_geometric")


def param_cov(model: ModelSpec, mc: MomentCov | None = None) -> ParamCov | None:
    """J M J^T for the parameters of the two-lag family whose laws the model has.

    M is the matrix of mc or general_moment_cov(model, model.n), J the fit's
    Jacobian at the exact moments: moments.rate_jacobian times -E[Z]^2 /
    mean_slope() by row (1 for a geometric p). The product is symmetrised,
    which keeps its diagonal's bits. The names come from the family's registry
    entry. None, with no series summed, where no two-lag family holds the model
    at its unit scale or finiteness_check fails; None too where M's series did
    not converge or J M J^T leaves float range (a mean all but flat in its shape).
    """
    laws = (model.on_law, model.off_law)
    entry = {e.laws: e for e in FAMILIES.values() if e.lags == 2}.get(tuple(map(type, laws)))
    if not (entry and all(getattr(law, k) == v for law in laws for k, v in law.UNIT_SCALE.items())
            and finiteness_check(model)[0]):
        return None
    mc = general_moment_cov(model, model.n) if mc is None else mc
    slopes = np.array([[law.mean_slope()] for law in laws])
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        J = rate_jacobian(model) * ([[-law.mean() ** 2] for law in laws] / slopes)
        cov = J @ mc.matrix @ J.T
        cov = (cov + cov.T) / 2
    if not (mc.converged and np.isfinite(cov).all()):
        return None
    return ParamCov(entry.params, cov)


# ---------------------------------------------------------------------------
# General case: renewal-reward closed forms and the cross-edge series
# ---------------------------------------------------------------------------


def _reward_cov(model: ModelSpec, n: int) -> np.ndarray:
    """The one-edge moment covariance matrix, over lags (0, 1), as renewal-reward limits.

    Over one cycle of an edge (on for X epochs, then off for Y) its part of
    sum_k (A(k) - n rho) is R0 = (1 - rho) X - rho Y, and its part of
    sum_k (A(k) A(k+1) - E) is R1 = (X - 1) h11 + (Y - 1) h00 + 2 h10, where
    h_ab = 2 n rho (a - rho) + (a - rho)(b - rho) is the edge's term at a pair
    (I(k), I(k+1)) = (a, b) and h10 the mean of the (1, 0) and (0, 1) terms.
    A cycle holds X - 1 pairs (1, 1), Y - 1 pairs (0, 0) and one of each
    other pair. By the renewal-reward CLT (Glynn and Whitt 1993) the limits
    are n E[Ra Rb] / E[X + Y] after centring each reward at its rate times
    X + Y; that rate is 0 for R0 and gamma(1) = rho (1 - rho) - 1 / E[X + Y]
    for R1. Both centred rewards are linear in X and Y, with coefficient
    vectors x and y over (R0, R1), so the matrix is
    n (Var X x x^T + Var Y y y^T) / E[X + Y], each entry exact to rounding.
    """
    on, off = model.on_law, model.off_law
    ex, ey = float(on.mean()), float(off.mean())
    mu = ex + ey
    rho, rho_bar = ex / mu, ey / mu
    h11 = 2 * n * rho * rho_bar + rho_bar**2
    h00 = -2 * n * rho**2 + rho**2
    r1 = rho * rho_bar - 1.0 / mu
    # the coefficients of X and Y in R0 and in R1 - r1 (X + Y)
    x, y = np.array([[rho_bar, h11 - r1], [-rho, h00 - r1]])
    return n * (np.outer(x, x) * on.variance() + np.outer(y, y) * off.variance()) / mu


def _cross_edge_series(model: ModelSpec, n: int, k0: int):
    """Lags 1..k0, the increments of v1's cross-edge series there, and its lag-0 term.

    The series is n (n - 1) sum_{d in Z} [gamma(d)^2 + gamma(d - 1) gamma(d + 1)],
    gamma the autocovariance of one edge's indicator; the terms at d and -d
    are equal, so each increment is twice the lag-d term.
    """
    gamma = autocovariance(model, k0 + 2)
    pairs = n * (n - 1)
    ks = np.arange(1, k0 + 1)
    inc = 2 * pairs * (gamma[ks] ** 2 + gamma[ks - 1] * gamma[ks + 1])
    return ks, inc, pairs * (gamma[0] ** 2 + gamma[1] ** 2)


# Table sizes of general_moment_cov: the cross-edge series is summed to
# k0 = K0 first (_K0_MIN where no tail is fitted), and k0 is doubled, up to
# k_cap (K_CAP by default), until the series converges. A power-law tail
# beyond k0, or on the last table a geometric one, is added in closed form.
K0 = 1024
K_CAP = 1 << 15
_K0_MIN = 64  # the tail fits at K0 / 2 need a window of some width
_FLOOR = 1e-13  # rounding floor of the increments, relative to the series scale
_TOL = 1e-6  # the relative tail error general_moment_cov accepts as converged
_GEO_AGREE = 1e-3  # the relative agreement in 1 - r that a geometric tail needs


def _tail_exponents(model: ModelSpec, k_end: int) -> list[float]:
    """Decay exponents of the cross-edge increments that a tail fit at k_end can use.

    A Pareto(C, a) law's tables approach their limits as k^-(a-1), with
    corrections in k^-a, k^-(a+1) and k^-2(a-1); an increment is a product of
    two entries. Only the sums within 4 of the least are kept: over the fit
    window a steeper power falls by 256^4, and each further column worsens
    the fit (with every sum 11 of 252 models of index 2.1 to 8 stayed
    unconverged; with the cut, none of 864). A law with C >= k_end adds
    none: below its scale its survival (1 + k/C)^-a still decays like
    exp(-a k / C), as a light tail does. Powers with k_end^gamma out of
    float range go too: such a law sits below the rounding floor by k_end.
    """
    alphas = [law.alpha for law in (model.on_law, model.off_law)
              if isinstance(law, Pareto) and law.C < k_end]
    single = sorted({g for a in alphas for g in (a - 1.0, a, a + 1.0, 2.0 * (a - 1.0))})
    sums = {g + h for g in single for h in single if g + h <= 2.0 * single[0] + 4.0}
    return sorted(g for g in sums if g * math.log(k_end) < 700.0)


def _tail(ks, inc, gammas, k_end):
    """sum_{k > k_end} of the least-squares fit sum_j c_j k^-gamma_j to inc on (k_end/4, k_end].

    The basis is scaled to 1 at k_end, so its j-th term sums to
    k_end^gamma_j zeta(gamma_j, k_end + 1) beyond k_end. gammas None: inc[k_end]
    r / (1 - r), r fitted on (k_end/2, k_end], or 0 unless the 1 - r fitted on
    its two halves agree to _GEO_AGREE, which a ringing series fails.
    """
    if gammas is None:
        a, b, c = inc[k_end - 1 - k_end // 4 * np.array([2, 1, 0])]  # at k_end - 2h, k_end - h, k_end
        with np.errstate(all="ignore"):  # nan where the increments change sign
            u = -np.expm1(np.log([b / a, c / b, c / a]) / (k_end // 4 * np.array([1, 1, 2])))
        agree = u[2] > 0.0 and abs(u[0] - u[1]) <= _GEO_AGREE * u[2]
        return float(c * (1.0 - u[2]) / u[2]) if agree else 0.0
    if not len(gammas):
        return 0.0
    gammas = np.asarray(gammas)
    window = (ks > k_end // 4) & (ks <= k_end)
    basis = (ks[window, None] / k_end) ** -gammas
    coef = np.linalg.lstsq(basis, inc[window], rcond=None)[0]
    return float(coef @ (scipy.special.zeta(gammas, k_end + 1.0) * float(k_end) ** gammas))


def _floored_sums(ks, inc, head, gammas, k0):
    """The series to k0 and to k0 / 2, each with its fitted tail; the k0 tail; the floor lag.

    The floor lag is the last lag whose increment stands above the rounding
    floor (_FLOOR times the series scale); the increments past it are noise
    and are dropped. A tail is fitted only where the increments still stand
    above the floor at the end of the sum.
    """
    scale = max(1.0, abs(head), float(np.max(np.abs(inc))))
    above = np.nonzero(np.abs(inc) > _FLOOR * scale)[0]
    last = ks[above[-1]] if len(above) else 0
    kept = np.where(ks <= last, inc, 0.0)
    ends = (k0, k0 // 2)
    tails = [_tail(ks, kept, gammas, k_end) if last >= k_end else 0.0 for k_end in ends]
    full, half = (head + float(np.sum(kept[ks <= k_end])) + t for k_end, t in zip(ends, tails))
    return full, half, tails[0], last


def general_moment_cov(model: ModelSpec, n: int, k_cap: int = K_CAP) -> MomentCov:
    """Moment covariance matrix for any on/off laws: renewal-reward limits and one series.

    The one-edge matrix is exact (_reward_cov). The rest of v1, entry [1, 1],
    the cross-edge series, is summed on one set of renewal tables to k0,
    which starts at min(K0, k_cap) and doubles, up to k_cap, until the series
    converges. A finite model with no tail exponent at that start tries
    k0 = _K0_MIN first, and goes on from min(K0, k_cap) only if that table
    does not converge: light tails mixing fast reach the floor within a few
    dozen lags. For Pareto laws its increments decay as powers of k; a
    least-squares fit over the largest lags gives their sum beyond k0 in
    closed form (tail_correction, whose v0 and c01 entries are 0). A law with
    C >= k0 still decays geometrically there and adds no tail exponent, nor
    does one whose exponents pass float range. tail_error is the series' move
    between k0 / 2 and k0 plus its rounding floor (_FLOOR |v1|): it bounds the
    truncation only, not the rounding in the renewal tables. On 72 of 188 GG
    grid models the error against geometric_moment_cov exceeds it, by up to
    499 times, at most 5.3e-9 relative. converged means tail_error <= _TOL *
    scale, scale the largest of 1, |v0|, |v1| and |c01|. With no tail exponent
    that move can understate what is left of a slowly decaying series, so k0
    also doubles until the increments reach the floor by k0 / 2; at k_cap,
    converged rests on tail_error alone, and where it fails that table tries a
    geometric tail (GG with |1 - p - q| within 2e-6 of 1 converges so, to
    7.5e-11 of v1). k_used is the final k0. _TOL sits far above the relative
    tail errors measured on 864 Pareto models with indices from 2.05 to 20 (at
    most 1.5e-9). Where finiteness_check fails, a DivergenceWarning is issued,
    the variances are infinite and so are v0 and v1, converged is False and k0
    is not doubled.
    """
    if k_cap < _K0_MIN:
        raise ValueError(f"k_cap must be >= {_K0_MIN}, got {k_cap}")
    finite, why = finiteness_check(model)
    if not finite:
        warnings.warn(f"covariance limits are infinite: {why}", DivergenceWarning)
    cov = _reward_cov(model, n)
    k_start = min(K0, k_cap)
    # a finite model with no tail exponent at k_start tries _K0_MIN lags first;
    # that table keeps the start's exponents (none), though a steep power can
    # be in float range at _K0_MIN when it is not at k_start
    k0 = _K0_MIN if finite and not _tail_exponents(model, k_start) else k_start
    while True:
        gammas = _tail_exponents(model, max(k0, k_start)) if finite else []
        ks, inc, head = _cross_edge_series(model, n, k0)
        for tails in (gammas, None):  # None: a geometric tail, on a light tail's last table
            v1, half, tail, last = _floored_sums(ks, inc, cov[1, 1] + head, tails, k0)
            # increments below the rounding floor were dropped, so v1 is known to that floor at best
            tail_error = float(abs(v1 - half)) + _FLOOR * max(1.0, abs(v1)) if finite else math.inf
            converged = bool(finite and tail_error <= _TOL * max(1.0, *abs(cov[0]), abs(v1)))
            if converged or gammas or k0 < k_cap or not finite:
                break
        if not finite or k0 >= k_cap or converged and (gammas or 2 * last <= k0):
            break
        k0 = min(max(2 * k0, k_start), k_cap)
    cov[1, 1] = v1
    return MomentCov(cov, converged=converged, k_used=k0, tail_correction=(0.0, tail, 0.0),
                     tail_error=tail_error)


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
