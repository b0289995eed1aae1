"""Empirical lag moments and the method-of-moments estimators.

The statistics are mu_hat(0) = (1/K) sum_k A(k) and
mu_hat(l) = (1/(K-l)) sum_k A(k) A(k+l). For every family the combination

    D = mu_hat(0) - mu_hat(1) + (1 - 1/n) mu_hat(0)^2

estimates n rho fbar_1, so fbar_1 = D / mu_hat(0) and gbar_1 = D / (n - mu_hat(0));
the family-specific parameters come from inverting the matching series sums.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass, field

import numpy as np
from scipy.optimize import brentq

from .asymp import delta_method_cov, geometric_moment_cov
from .errors import IncompatibleMomentsError, ParameterError
from .laws import (
    DEFAULT_INVERT_TOL,
    Geometric,
    Pareto,
    Weibull,
    _PARETO_FLOOR,
    _invert_decreasing,
    hurwitz_like,
    invert_chi_like,
    invert_zeta_like,
)
from .renewal import autocovariance
from .simulate import CountTrace, ModelSpec


@dataclass
class MomentSet:
    """Empirical (or plugged-in theoretical) lag moments of a count trace."""

    mu: np.ndarray  # mu[l] for l = 0..L-1
    n: int
    K: int
    kind: str = "edges"
    N: int | None = None

    @property
    def L(self) -> int:
        return len(self.mu)


@dataclass
class EstimateReport:
    """Point estimates plus diagnostics from one method-of-moments fit."""

    family: str
    params: dict
    residuals: dict = field(default_factory=dict)
    covariance: dict | None = None
    flags: list = field(default_factory=list)
    diagnostics: dict = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return not self.flags

    def to_json(self) -> dict:
        return {
            "family": self.family,
            "params": {k: float(v) for k, v in self.params.items()},
            "residuals": {k: float(v) for k, v in self.residuals.items()},
            "covariance": self.covariance,
            "flags": list(self.flags),
            "diagnostics": self.diagnostics,
        }


def empirical_moments(trace: CountTrace, L: int = 2) -> MomentSet:
    """Sample lag moments mu_hat(0..L-1) from a count trace."""
    values = np.asarray(trace.values, dtype=np.float64)
    K = len(values)
    if K <= L:
        raise ValueError(f"need K > L, got K={K}, L={L}")
    mu = np.empty(L)
    mu[0] = values.mean()
    for ell in range(1, L):
        mu[ell] = (values[: K - ell] * values[ell:]).mean()
    return MomentSet(mu=mu, n=trace.n, K=K, kind=trace.kind, N=trace.N)


def theoretical_moments(model: ModelSpec, ell: int) -> float:
    """s_{n,ell} = E[A(k) A(k+ell)] (ell = 0: E[A(k)]) for the edge process.

    Every lag ell >= 1 reads the renewal table: one edge is on at 1 and 1+ell
    with probability rho r_res(1+ell), so s = n rho r_res(1+ell) + (n^2-n) rho^2.
    """
    if ell < 0:
        raise ValueError("lag must be >= 0")
    n = model.n
    rho = model.rho
    if ell == 0:
        return n * rho
    return n * rho * autocovariance(model, ell + 1).r_res[ell] + (n * n - n) * rho * rho


def theoretical_moment_set(model: ModelSpec, L: int = 2, K: int = 0) -> MomentSet:
    """Exact moments packed as a MomentSet, for round-trip checks."""
    mu = np.array([theoretical_moments(model, ell) for ell in range(L)])
    return MomentSet(mu=mu, n=model.n, K=K, kind="edges", N=model.N)


# ---------------------------------------------------------------------------
# Edge-count estimators
# ---------------------------------------------------------------------------


def _first_lag_targets(m: MomentSet):
    """(fbar1_hat, gbar1_hat, D) from mu_hat(0), mu_hat(1)."""
    mu0, mu1 = m.mu[0], m.mu[1]
    n = m.n
    if not 0.0 < mu0 < n:
        raise IncompatibleMomentsError(f"need mu_hat(0) in (0, n), got {mu0} with n={n}")
    D = mu0 - mu1 + (1.0 - 1.0 / n) * mu0 * mu0
    return D / mu0, D / (n - mu0), D


def estimate_gg(m: MomentSet) -> EstimateReport:
    """Closed-form (p_hat, q_hat) for geometric on- and off-times."""
    p_hat, q_hat, _ = _first_lag_targets(m)
    flags = []
    if not 0.0 < p_hat < 1.0:
        flags.append("p_out_of_range")
    if not 0.0 < q_hat < 1.0:
        flags.append("q_out_of_range")
    report = EstimateReport(family="geometric_geometric",
                            params={"p": p_hat, "q": q_hat}, flags=flags)
    if not flags:
        _attach_residuals(report, ModelSpec(
            on_law=Geometric(p_hat), off_law=Geometric(q_hat), n=m.n), m)
    return report


def estimate_parpar(m: MomentSet) -> EstimateReport:
    """(alpha_hat, beta_hat) for Pareto(1, alpha) on- and Pareto(1, beta) off-times.

    fbar_1 = 1/E[X] and gbar_1 = 1/E[Y], so the mean sums zeta(alpha), zeta(beta)
    are read off the first-lag targets and inverted.
    """
    fbar1, gbar1, _ = _first_lag_targets(m)
    if fbar1 <= 0 or gbar1 <= 0 or 1.0 / fbar1 <= 1.0 or 1.0 / gbar1 <= 1.0:
        raise IncompatibleMomentsError(
            f"zeta-sum targets must exceed 1, got {1.0 / fbar1 if fbar1 > 0 else fbar1}"
            f" and {1.0 / gbar1 if gbar1 > 0 else gbar1}")
    alpha = invert_zeta_like(1.0 / fbar1)
    beta = invert_zeta_like(1.0 / gbar1)
    report = EstimateReport(family="pareto_pareto",
                            params={"alpha": alpha, "beta": beta})
    _attach_residuals(report, ModelSpec(
        on_law=Pareto(1.0, alpha), off_law=Pareto(1.0, beta), n=m.n), m)
    return report


def estimate_weibull_geo(m: MomentSet) -> EstimateReport:
    """(alpha_hat, q_hat) for Weibull(1, alpha) on-times and geometric off-times."""
    fbar1, q_hat, _ = _first_lag_targets(m)
    if fbar1 <= 0 or 1.0 / fbar1 <= 1.0:
        raise IncompatibleMomentsError(
            f"chi-sum target must exceed 1, got {1.0 / fbar1 if fbar1 > 0 else fbar1}")
    alpha = invert_chi_like(1.0 / fbar1)
    flags = [] if 0.0 < q_hat < 1.0 else ["q_out_of_range"]
    report = EstimateReport(family="weibull_geometric",
                            params={"alpha": alpha, "q": q_hat}, flags=flags)
    if not flags:
        _attach_residuals(report, ModelSpec(
            on_law=Weibull(1.0, alpha), off_law=Geometric(q_hat), n=m.n), m)
    return report


def estimate_pareto_geo(m: MomentSet) -> EstimateReport:
    """(C_hat, alpha_hat, q_hat) for Pareto(C, alpha) on-times, geometric off-times.

    Needs mu_hat(2). The system is
        zeta(C, alpha) = mu_hat(0) / D        (mean sum)
        (C/(C+1))^alpha = q_hat - (mu_hat(2) - mu_hat(1)) / D
    and is solved by eliminating C = t/(1-t) with t = T2^(1/alpha), leaving a
    monotone scalar equation in alpha.
    """
    if m.L < 3:
        raise ValueError("pareto/geometric estimation needs moments up to lag 2")
    fbar1, q_hat, D = _first_lag_targets(m)
    T1 = 1.0 / fbar1 if fbar1 > 0 else -1.0
    T2 = q_hat - (m.mu[2] - m.mu[1]) / D
    if T1 <= 1.0:
        raise IncompatibleMomentsError(f"mean-sum target must exceed 1, got {T1}")
    if not 0.0 < T2 < 1.0:
        raise IncompatibleMomentsError(
            f"survival-ratio target must lie in (0, 1), got {T2}")
    # The mean sum decreases in alpha toward 1/(1 - T2); solvable only above it.
    if T1 <= 1.0 / (1.0 - T2):
        raise IncompatibleMomentsError(
            f"mean-sum target {T1} unreachable for survival ratio {T2}")

    def c_of(alpha):  # a Python float, so that C^alpha past float range is refused
        t = float(T2) ** (1.0 / alpha)
        return t / (1.0 - t)

    alpha = _invert_decreasing(lambda a: hurwitz_like(c_of(a), a), T1, _PARETO_FLOOR, 2.0,
                               1.0 / (1.0 - T2), "the pareto/geometric mean sum")
    C = c_of(alpha)
    flags = [] if 0.0 < q_hat < 1.0 else ["q_out_of_range"]
    report = EstimateReport(
        family="pareto_geometric",
        params={"C": C, "alpha": alpha, "q": q_hat},
        flags=flags,
        diagnostics={"mean_sum_target": T1, "survival_ratio_target": T2},
    )
    if not flags:
        _attach_residuals(report, ModelSpec(
            on_law=Pareto(C, alpha), off_law=Geometric(q_hat), n=m.n), m, L=3)
    return report


def _attach_residuals(report, model, m, L=2):
    try:
        for ell in range(min(L, m.L)):
            report.residuals[f"mu{ell}"] = m.mu[ell] - theoretical_moments(model, ell)
    except (ParameterError, ValueError):
        report.flags.append("residuals_unavailable")


# ---------------------------------------------------------------------------
# Triangle / wedge moments and the subgraph estimator
# ---------------------------------------------------------------------------


def _share_coeffs(N: int):
    """a0..a3: ordered triple pairs sharing 0 vertices or an edge/no edge/all."""
    c3 = math.comb(N, 3)
    a1 = 3 * math.comb(N - 3, 2)  # one shared vertex
    a2 = 3 * (N - 3)              # one shared edge
    a3 = 1                        # identical triple
    a0 = c3 - a1 - a2 - a3        # disjoint vertex sets
    return c3, a0, a1, a2, a3


def _triangle_pair(N, rho, u):
    """E[T(k) T(k+1)] given rho and the edge persistence u = 1 - fbar_1."""
    c3, a0, a1, a2, a3 = _share_coeffs(N)
    return c3 * (a0 * rho**6 + a1 * rho**6 + a2 * rho**5 * u + a3 * rho**3 * u**3)


def _wedge_pair(N, rho, u):
    c3, a0, a1, a2, a3 = _share_coeffs(N)
    return c3 * (9 * a0 * rho**4 + 9 * a1 * rho**4 + 5 * a2 * rho**4
                 + 4 * a2 * rho**3 * u + 3 * a3 * rho**2 * u * u
                 + 6 * a3 * rho**3 * u)


def _persistence(model):
    return 1.0 - model.on_law.survival(1) / model.on_law.mean()


def triangle_moments(model: ModelSpec, lag: int) -> float:
    """E[T(k)] (lag 0) or E[T(k) T(k+1)] (lag 1) for the dynamic graph on N vertices."""
    if model.N is None or model.N < 3:
        raise ValueError("triangle moments need a vertex count N >= 3")
    rho = model.rho
    if lag == 0:
        return math.comb(model.N, 3) * rho**3
    if lag == 1:
        return _triangle_pair(model.N, rho, _persistence(model))
    raise ValueError("lag must be 0 or 1")


def wedge_moments(model: ModelSpec, lag: int) -> float:
    """E[W(k)] (lag 0) or E[W(k) W(k+1)] (lag 1)."""
    if model.N is None or model.N < 3:
        raise ValueError("wedge moments need a vertex count N >= 3")
    rho = model.rho
    if lag == 0:
        return 3 * math.comb(model.N, 3) * rho**2
    if lag == 1:
        return _wedge_pair(model.N, rho, _persistence(model))
    raise ValueError("lag must be 0 or 1")


def estimate_from_subgraph(m: MomentSet) -> EstimateReport:
    """(p_hat, q_hat) for geometric/geometric laws from triangle or wedge counts.

    The mean equation pins rho; the lag-1 product equation is monotone in the
    persistence u = 1 - fbar_1 on [0, 1] and is solved by bracketing. For
    geometric on-times fbar_1 = p, and q = rho p / (1 - rho).
    """
    if m.N is None:
        raise ValueError("subgraph estimation needs the vertex count N")
    if m.kind not in ("triangles", "wedges"):
        raise ValueError(f"unsupported observable {m.kind!r}")
    N = m.N
    c3 = math.comb(N, 3)
    mu0, mu1 = m.mu[0], m.mu[1]
    if m.kind == "triangles":
        if not 0.0 < mu0 < c3:
            raise IncompatibleMomentsError(f"mean {mu0} outside (0, {c3})")
        rho = (mu0 / c3) ** (1.0 / 3.0)
        pair = _triangle_pair
    else:
        if not 0.0 < mu0 < 3 * c3:
            raise IncompatibleMomentsError(f"mean {mu0} outside (0, {3 * c3})")
        rho = math.sqrt(mu0 / (3 * c3))
        pair = _wedge_pair

    def resid(u):
        return pair(N, rho, u) - mu1

    r0, r1 = resid(0.0), resid(1.0)
    if r0 > 0.0 or r1 < 0.0:
        raise IncompatibleMomentsError(
            "lag-1 product moment incompatible with any persistence in [0, 1]")
    u = brentq(resid, 0.0, 1.0, xtol=DEFAULT_INVERT_TOL)
    p_hat = 1.0 - u
    q_hat = rho * p_hat / (1.0 - rho)
    flags = []
    if not 0.0 < p_hat < 1.0:
        flags.append("p_out_of_range")
    if not 0.0 < q_hat < 1.0:
        flags.append("q_out_of_range")
    return EstimateReport(
        family="geometric_geometric",
        params={"p": p_hat, "q": q_hat},
        flags=flags,
        diagnostics={"rho": rho, "observable": m.kind},
    )


# ---------------------------------------------------------------------------
# The family registry and the one fit path
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class EstimatorFamily:
    """One registry entry: how a pair of duration-law families is fitted."""

    params: tuple  # parameter names, in report and output order
    kinds: tuple  # (on, off) law kinds, as in law configs
    lags: int  # the fit reads mu_hat(0), ..., mu_hat(lags - 1)
    estimators: dict  # observable (edges, triangles, wedges) -> fit from its moments
    attrs: tuple  # (law, attribute) of a ModelSpec that holds each parameter
    moment_cov: Callable | None = None  # closed-form MomentCov from (n, *params)
    param_cov: Callable | None = None  # delta-method ParamCov from (n, *params, MomentCov)

    def params_of(self, model: ModelSpec) -> tuple:
        """The model's values of the family's parameters, in registry order."""
        return tuple(getattr(getattr(model, law), attr) for law, attr in self.attrs)


FAMILIES = {
    "geometric_geometric": EstimatorFamily(
        ("p", "q"), ("geometric", "geometric"), 2,
        {"edges": estimate_gg, "triangles": estimate_from_subgraph,
         "wedges": estimate_from_subgraph},
        (("on_law", "p"), ("off_law", "p")), geometric_moment_cov, delta_method_cov),
    "pareto_pareto": EstimatorFamily(
        ("alpha", "beta"), ("pareto", "pareto"), 2, {"edges": estimate_parpar},
        (("on_law", "alpha"), ("off_law", "alpha"))),
    "weibull_geometric": EstimatorFamily(
        ("alpha", "q"), ("weibull", "geometric"), 2, {"edges": estimate_weibull_geo},
        (("on_law", "alpha"), ("off_law", "p"))),
    "pareto_geometric": EstimatorFamily(
        ("C", "alpha", "q"), ("pareto", "geometric"), 3, {"edges": estimate_pareto_geo},
        (("on_law", "C"), ("on_law", "alpha"), ("off_law", "p"))),
}


def family_entry(family: str, kind: str = "edges") -> EstimatorFamily:
    """The registry entry of `family`, refusing an observable it cannot fit."""
    try:
        entry = FAMILIES[family]
    except KeyError:
        raise ValueError(f"unknown estimator family {family!r}") from None
    if kind not in entry.estimators:
        raise ValueError(f"the {family} family cannot fit {kind} observations")
    return entry


def estimator_for(family: str):
    return family_entry(family).estimators["edges"]


def moments_needed(family: str) -> int:
    return family_entry(family).lags


def infer_family(model: ModelSpec) -> str:
    """The registry family whose (on, off) law kinds are the model's."""
    kinds = (model.on_law.to_config()["kind"], model.off_law.to_config()["kind"])
    for name, entry in FAMILIES.items():
        if entry.kinds == kinds:
            return name
    raise ValueError(f"no estimator family for law kinds {kinds}")


def fit(data: CountTrace | MomentSet, family: str) -> EstimateReport:
    """Fit `family` to a count trace, or to lag moments already taken from one."""
    entry = family_entry(family, data.kind)
    if isinstance(data, CountTrace):
        data = empirical_moments(data, entry.lags)
    return entry.estimators[data.kind](data)
