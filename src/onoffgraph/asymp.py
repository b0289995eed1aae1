"""Limiting covariance of the moment statistics and of the estimators.

``geometric_moment_cov`` evaluates the closed forms available when both
laws are geometric; ``general_moment_cov`` computes the same limits for any
pair of laws by summing stationary covariances built from per-edge joint
on-probabilities. ``delta_method_cov`` propagates either result to the
(p, q) estimators.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .errors import ParameterError
from .laws import Geometric, Pareto, Weibull
from .renewal import _law_arrays, _residual_arrays, autocovariance, joint_distribution
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

    def to_json(self) -> dict:
        return {"v0": self.v0, "v1": self.v1, "c01": self.c01, "method": self.method,
                "converged": self.converged, "k_used": self.k_used}


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
    """The covariance series did not converge within the term cap."""


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

    built from the fresh-start tables s_k (single trailing constraint) and
    S2_d (trailing adjacent pair at distance d).
    """

    def __init__(self, model: ModelSpec, k_hi: int):
        self.model = model
        self.k_hi = k_hi
        self.rho = rho = model.rho
        tab = autocovariance(model, k_hi + 1)
        self.rres = tab.r_res  # index k-1
        f, surv_f = _law_arrays(model.on_law, k_hi + 2)
        g, _ = _law_arrays(model.off_law, k_hi + 2)
        fbar, res_surv_f = _residual_arrays(model.on_law, k_hi + 2)
        self.fbar1 = fbar[0]

        D = k_hi
        R2 = np.empty(D + 1)
        S2 = np.empty(D + 1)
        R2[0] = surv_f[1]  # P(X >= 2)
        S2[0] = 0.0
        for d in range(1, D + 1):
            S2[d] = g[:d] @ R2[d - 1::-1]
            R2[d] = f[:d] @ S2[d - 1::-1] + surv_f[d + 1]
        self.S2 = S2

        s = tab.s
        ta = np.zeros(k_hi + 2)  # ta[k], valid for k >= 3
        tb = np.zeros(k_hi + 1)  # tb[k], valid for k >= 2
        qq = np.zeros(k_hi + 1)  # qq[k], valid for k >= 3
        for k in range(3, k_hi + 2):
            ta[k] = rho * (fbar[1:k - 1] @ s[k - 3::-1] + res_surv_f[k - 1])
        for k in range(2, k_hi + 1):
            tb[k] = rho * (fbar[:k - 1] @ S2[k - 2::-1] + res_surv_f[k])
        for k in range(3, k_hi + 1):
            qq[k] = rho * (fbar[1:k - 1] @ S2[k - 3::-1] + res_surv_f[k])
        self.ta, self.tb, self.qq = ta, tb, qq

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


def _noise_floored_sum(inc: np.ndarray, head: float) -> float:
    """Sum series increments, dropping the trailing rounding-noise plateau.

    The recursion tables carry a few ulps of absolute error, so once the true
    increments decay below that floor the remaining terms are pure noise and
    summing them degrades the total.
    """
    scale = max(1.0, abs(head), float(np.max(np.abs(inc), initial=0.0)))
    above = np.nonzero(np.abs(inc) > 1e-13 * scale)[0]
    if len(above) == 0:
        return 0.0
    return float(np.sum(inc[: above[-1] + 1]))


def general_moment_cov(model: ModelSpec, n: int, tol: float = 1e-12,
                       k_cap: int = 100_000) -> MomentCov:
    """v0, v1, c01 for arbitrary on/off laws by summing stationary covariances.

    The lag sums are truncated once increments fall below tol (relative to
    the accumulated values) or at k_cap; if the increments are still not
    summable-looking at the cap a DivergenceWarning is issued and the
    partial sums are returned with converged=False.
    """
    rho = model.rho
    cache: dict = {}
    e12 = mixed_moment(model, n, (1, 2), _omega_cache=cache)
    t1 = mixed_moment(model, n, (1, 1, 2, 2), _omega_cache=cache) - e12**2
    m1 = n * rho

    # exact small-k terms (partition tables need a clean gap k >= 3)
    v1_head = t1 + 2 * (mixed_moment(model, n, (1, 2, 2, 3), _omega_cache=cache) - e12**2)
    c01_head = (
        mixed_moment(model, n, (1, 1, 2), _omega_cache=cache) - m1 * e12   # k=1 lead term
        + mixed_moment(model, n, (1, 2, 3), _omega_cache=cache) - m1 * e12  # k=2 lead term
        + mixed_moment(model, n, (1, 2, 2), _omega_cache=cache) - m1 * e12  # k=2 trail term
    )
    v0_head = n * rho * (1 - rho) + 2 * n * rho * (
        autocovariance(model, 2).r_res[1] - rho
    )

    k_hi = min(1024, k_cap)
    while True:
        tables = _GeneralTables(model, k_hi)
        ks = np.arange(3, k_hi + 1)
        series = tables.series(ks)

        v0_inc = 2 * n * rho * (tables.rres[ks - 1] - rho)
        v1_inc = 2 * (_partition_series(n, _BLOCK_KEY_4, series) - e12**2)
        c01_inc = (_partition_series(n, _BLOCK_KEY_3A, series) - m1 * e12) + (
            _partition_series(n, _BLOCK_KEY_3B, series) - m1 * e12
        )

        incs = np.abs(v0_inc) + np.abs(v1_inc) + np.abs(c01_inc)
        v0 = v0_head + _noise_floored_sum(v0_inc, v0_head)
        v1 = v1_head + _noise_floored_sum(v1_inc, v1_head)
        c01 = c01_head + _noise_floored_sum(c01_inc, c01_head)
        scale = max(1.0, abs(v0), abs(v1), abs(c01))
        if len(incs) and incs[-1] <= tol * scale:
            return MomentCov(v0=v0, v1=v1, c01=c01, method="general_series",
                             converged=True, k_used=k_hi)
        if k_hi >= k_cap:
            # summable increments should decay visibly across the last decade
            lo = incs[len(incs) // 2:]
            decaying = len(lo) > 10 and lo[-1] < 0.5 * lo[0]
            if not decaying:
                warnings.warn(
                    "covariance increments are not vanishing by k_cap="
                    f"{k_cap}; limits may be infinite", DivergenceWarning)
            return MomentCov(v0=v0, v1=v1, c01=c01, method="general_series",
                             converged=False, k_used=k_hi)
        k_hi = min(k_hi * 4, k_cap)


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
