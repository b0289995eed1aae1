"""Empirical lag moments and the method-of-moments estimators.

The statistics are mu_hat(0) = (1/K) sum_k A(k) and
mu_hat(l) = (1/(K-l)) sum_k A(k) A(k+l). For every family the combination

    D = mu_hat(0) - mu_hat(1) + (1 - 1/n) mu_hat(0)^2

estimates n rho fbar_1, so the rate targets are fbar_1 = 1/E[X] = D / mu_hat(0)
and gbar_1 = 1/E[Y] = D / (n - mu_hat(0)). A two-lag family sends them through
each law kind's rate map; pareto_geometric also reads mu_hat(2).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import IncompatibleMomentsError
from .laws import Geometric, Pareto, Weibull
from .renewal import autocovariance
from .simulate import CountTrace, ModelSpec


@dataclass
class MomentSet:
    """Empirical (or plugged-in theoretical) lag moments of a count trace."""

    mu: np.ndarray  # mu[l] for l = 0..L-1
    n: int
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
    flags: list = field(default_factory=list)
    diagnostics: dict = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return not self.flags

    def to_json(self) -> dict:
        return {
            "family": self.family,
            "params": {k: float(v) for k, v in self.params.items()},
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
    return MomentSet(mu=mu, n=trace.n, kind=trace.kind, N=trace.N)


def theoretical_moment_set(model: ModelSpec, L: int = 2, kind: str = "edges") -> MomentSet:
    """Exact moments of the `kind` counts at lags 0..L-1, packed as a MomentSet.

    Edges: mu[0] = n rho, and every lag ell >= 1 reads the one-edge
    autocovariance gamma: the n edges are independent, so
    mu[ell] = n gamma(ell) + (n rho)^2. Triangles and wedges (L <= 2, N >= 3):
    mu[0] = copies C(N, 3) rho^edges, and mu[1] is the pair moment at the
    edge persistence u = P(on at k+1 | on at k) = 1 - 1/E[X].
    """
    if kind == "edges":
        n, rho = model.n, model.rho
        mu = n * autocovariance(model, L) + (n * rho) ** 2
        mu[0] = n * rho
        return MomentSet(mu=mu, n=n, kind=kind, N=model.N)
    if kind not in _SUBGRAPHS:
        raise ValueError(f"unsupported observable {kind!r}")
    if model.N is None or model.N < 3:
        raise ValueError(f"{kind[:-1]} moments need a vertex count N >= 3")
    if not 1 <= L <= 2:
        raise ValueError(f"{kind[:-1]} moments need L in 1..2, got {L}")
    copies, edges, _, pair = _SUBGRAPHS[kind]
    rho = model.rho
    mu = [copies * math.comb(model.N, 3) * rho**edges,
          pair(model.N, rho, 1.0 - 1.0 / model.on_law.mean())]
    return MomentSet(mu=np.array(mu[:L]), n=model.n, kind=kind, N=model.N)


# ---------------------------------------------------------------------------
# Edge-count rate targets and the three-lag estimator
# ---------------------------------------------------------------------------


def _first_lag_targets(m: MomentSet):
    """(fbar1_hat, gbar1_hat, D) from mu_hat(0), mu_hat(1)."""
    mu0, mu1 = m.mu[0], m.mu[1]
    n = m.n
    if not 0.0 < mu0 < n:
        raise IncompatibleMomentsError(f"need mu_hat(0) in (0, n), got {mu0} with n={n}")
    D = mu0 - mu1 + (1.0 - 1.0 / n) * mu0 * mu0
    return D / mu0, D / (n - mu0), D


def rate_jacobian(model: ModelSpec) -> np.ndarray:
    """d(fbar1_hat, gbar1_hat) / d(mu_hat(0), mu_hat(1)) at the model's exact moments.

    dD/dmu_hat(0) = 1 + 2 (1 - 1/n) mu_hat(0), dD/dmu_hat(1) = -1, and there
    mu_hat(0) = s0 = n rho and D = s0 / E[X]: only n, rho and E[X] are read.
    """
    n, rho = model.n, model.rho
    s0 = n * rho
    D, dD = s0 / model.on_law.mean(), 1.0 + 2.0 * (1.0 - 1.0 / n) * s0
    return np.array([[(dD - D / s0) / s0, -1.0 / s0],
                     [(dD + D / (n - s0)) / (n - s0), -1.0 / (n - s0)]])


def estimate_pareto_geo(m: MomentSet) -> EstimateReport:
    """(C_hat, alpha_hat, q_hat) for Pareto(C, alpha) on-times, geometric off-times.

    Needs mu_hat(2): Pareto.params_for_mean solves zeta(C, alpha) = mu_hat(0) / D
    (the mean sum) with (C/(C+1))^alpha = q_hat - (mu_hat(2) - mu_hat(1)) / D.
    """
    if m.L < 3:
        raise ValueError("pareto/geometric estimation needs moments up to lag 2")
    fbar1, q_hat, D = _first_lag_targets(m)
    T1 = 1.0 / fbar1 if fbar1 > 0 else -1.0
    if T1 <= 1.0:
        raise IncompatibleMomentsError(f"mean-sum target must exceed 1, got {T1}")
    T2 = q_hat - (m.mu[2] - m.mu[1]) / D  # D > 0 here, as fbar1 = D / mu_hat(0) > 0
    if not 0.0 < T2 < 1.0:
        raise IncompatibleMomentsError(
            f"survival-ratio target must lie in (0, 1), got {T2}")
    # The mean sum decreases in alpha toward 1/(1 - T2); solvable only above it,
    # and only where T1 clears the rounding of T1 and that limit: D cancels
    # mu_hat(1) and mu_hat(2), and 1 - T2 cancels T2, to relative eps
    # (mu_hat(1) + mu_hat(2)) / (D (1 - T2)) or so
    limit = 1.0 / (1.0 - T2)
    rounding = 4.0 * math.ulp(1.0) * (m.mu[1] + m.mu[2]) / (D * (1.0 - T2))
    if T1 <= limit * (1.0 + rounding):
        raise IncompatibleMomentsError(
            f"mean-sum target {T1} unreachable for survival ratio {T2}, whose limit is {limit}")
    C, alpha = Pareto.params_for_mean(T1, T2)
    flags = [] if 0.0 < q_hat < 1.0 else ["q_out_of_range"]
    return _report(m, "pareto_geometric", {"C": C, "alpha": alpha, "q": q_hat}, flags,
                   {"mean_sum_target": T1, "survival_ratio_target": T2})


def _report(m, family, params, flags, diagnostics) -> EstimateReport:
    """The fit's report; an unflagged fit whose fitted law lies outside its domain raises.

    Building the fitted model is the domain check: each law's constructor
    refuses its own out-of-domain parameters with a ParameterError.
    """
    if not flags:
        FAMILIES[family].model_of(params.values(), m.n)
    return EstimateReport(family=family, params=params, flags=flags, diagnostics=diagnostics)


# ---------------------------------------------------------------------------
# Triangle / wedge moments and their rate targets
# ---------------------------------------------------------------------------


def _share_coeffs(N: int):
    """C(N, 3) and the ordered triple pairs sharing at most one vertex, then one edge."""
    c3 = math.comb(N, 3)
    a2 = 3 * (N - 3)
    return c3, c3 - a2 - 1, a2  # the one pair left is a triple with itself


def _triangle_pair(N, rho, u):
    """E[T(k) T(k+1)] given rho and the edge persistence u = 1 - fbar_1."""
    c3, a01, a2 = _share_coeffs(N)
    return c3 * (a01 * rho**6 + a2 * rho**5 * u + rho**3 * u**3)


def _wedge_pair(N, rho, u):
    c3, a01, a2 = _share_coeffs(N)
    return c3 * (9 * a01 * rho**4 + 5 * a2 * rho**4 + 4 * a2 * rho**3 * u
                 + 3 * rho**2 * u * u + 6 * rho**3 * u)


# observable -> copies per vertex triple, edges per copy, rho from the mean
# per copy (the inverse of rho^edges), and E[X(k) X(k+1)] from rho and u
_SUBGRAPHS = {
    "triangles": (1, 3, lambda mean: mean ** (1.0 / 3.0), _triangle_pair),
    "wedges": (3, 2, math.sqrt, _wedge_pair),
}


def _subgraph_rate_targets(m: MomentSet):
    """(1/E[X], 1/E[Y]) and the diagnostics from triangle or wedge moments.

    The mean equation pins rho; the lag-1 product equation increases in the
    persistence u = 1 - 1/E[X] on [0, 1] and is refused where it has no root
    there. The root is taken in closed form where nothing cancels: Cardano's
    w - p / 3w as q / (w^2 + p/3 + (p/3w)^2) for the triangles' cubic
    u^3 + p u = q, 2R / (B + sqrt(B^2 + 12 R)) for the wedges' 3 u^2 + B u = R.
    As rho = E[X] / (E[X] + E[Y]), 1/E[Y] = rho (1 - u) / (1 - rho).
    """
    if m.N is None:
        raise ValueError("subgraph estimation needs the vertex count N")
    copies, _, root, pair = _SUBGRAPHS[m.kind]
    count = copies * math.comb(m.N, 3)
    mu0, mu1 = m.mu[0], m.mu[1]
    if not 0.0 < mu0 < count:
        raise IncompatibleMomentsError(f"mean {mu0} outside (0, {count})")
    rho = root(mu0 / count)
    if pair(m.N, rho, 0.0) > mu1 or pair(m.N, rho, 1.0) < mu1:
        raise IncompatibleMomentsError(
            "lag-1 product moment incompatible with any persistence in [0, 1]")
    c3, a01, a2 = _share_coeffs(m.N)
    if m.kind == "triangles":
        p, q = a2 * rho**2, (mu1 / c3 - a01 * rho**6) / rho**3
        w = np.cbrt(q / 2.0 + np.sqrt(q * q / 4.0 + p**3 / 27.0))
        u = q / (w * w + p / 3.0 + (p / (3.0 * w)) ** 2) if q > 0.0 else 0.0
    else:
        B, R = (4 * a2 + 6) * rho, (mu1 / c3 - (9 * a01 + 5 * a2) * rho**4) / rho**2
        u = 2.0 * R / (B + np.sqrt(B * B + 12.0 * R))
    fbar1 = 1.0 - min(max(u, 0.0), 1.0)
    return (fbar1, rho * fbar1 / (1.0 - rho)), {"rho": rho, "observable": m.kind}


def estimate_from_subgraph(m: MomentSet, family: str = "geometric_geometric") -> EstimateReport:
    """fit(m, family) for triangle or wedge moments; edge moments are refused."""
    if m.kind not in _SUBGRAPHS:
        raise ValueError(f"unsupported observable {m.kind!r}")
    return fit(m, family)


# ---------------------------------------------------------------------------
# The family registry and the one fit path
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class EstimatorFamily:
    """One registry entry: how a pair of duration-law families is fitted."""

    params: tuple  # parameter names, in report and output order
    laws: tuple  # (on, off) law classes
    attrs: tuple  # (law, attribute) of a ModelSpec that holds each parameter

    @property
    def lags(self) -> int:
        """One moment equation per parameter: the fit reads mu_hat(0..lags-1)."""
        return len(self.params)

    def model_of(self, values, n: int) -> ModelSpec:
        """The model with the family's laws at the given parameter values, on n edges."""
        kwargs = {"on_law": {}, "off_law": {}}
        for (law, attr), value in zip(self.attrs, values):
            kwargs[law][attr] = value
        return ModelSpec(*(cls(**{**cls.UNIT_SCALE, **kwargs[law]})
                           for cls, law in zip(self.laws, kwargs)), n=n)


FAMILIES = {
    "geometric_geometric": EstimatorFamily(
        ("p", "q"), (Geometric, Geometric), (("on_law", "p"), ("off_law", "p"))),
    "pareto_pareto": EstimatorFamily(
        ("alpha", "beta"), (Pareto, Pareto), (("on_law", "alpha"), ("off_law", "alpha"))),
    "weibull_geometric": EstimatorFamily(
        ("alpha", "q"), (Weibull, Geometric), (("on_law", "alpha"), ("off_law", "p"))),
    "pareto_geometric": EstimatorFamily(
        ("C", "alpha", "q"), (Pareto, Geometric),
        (("on_law", "C"), ("on_law", "alpha"), ("off_law", "p"))),
}


def _fit_two_lag(m: MomentSet, family: str) -> EstimateReport:
    """A two-lag family's parameters from the rate targets (1/E[X], 1/E[Y]).

    Edge moments give (D / mu_hat(0), D / (n - mu_hat(0))), triangle and
    wedge moments _subgraph_rate_targets. Each law class turns its target
    into its parameter (param_for_rate), flagged where it lies outside (0, 1).
    """
    entry = FAMILIES[family]
    if m.kind == "edges":
        rates, diagnostics = _first_lag_targets(m)[:2], {}
    else:
        rates, diagnostics = _subgraph_rate_targets(m)
    steps = [law.param_for_rate(rate) for law, rate in zip(entry.laws, rates)]  # refusals first
    params = {name: solve() for name, (_, solve) in zip(entry.params, steps)}
    flags = [f"{name}_out_of_range" for name, (ok, _) in zip(entry.params, steps) if not ok]
    return _report(m, family, params, flags, diagnostics)


def family_entry(family: str, kind: str = "edges") -> EstimatorFamily:
    """The registry entry of `family`, refusing an observable it cannot fit."""
    entry = FAMILIES.get(family) if isinstance(family, str) else None
    if entry is None:
        raise ValueError(f"unknown estimator family {family!r}")
    if kind != "edges" and (not isinstance(kind, str) or kind not in _SUBGRAPHS
                            or entry.lags != 2):
        raise ValueError(f"the {family} family cannot fit {kind} observations")
    return entry


def estimator_for(family: str):
    """The fit of `family` as a function of edge moments alone."""
    family_entry(family)
    return functools.partial(fit, family=family)


def moments_needed(family: str) -> int:
    return family_entry(family).lags


def infer_family(model: ModelSpec) -> str:
    """The registry family whose (on, off) law classes are the model's."""
    laws = (type(model.on_law), type(model.off_law))
    for name, entry in FAMILIES.items():
        if entry.laws == laws:
            return name
    kinds = tuple(law.__name__.lower() for law in laws)
    raise ValueError(f"no estimator family for law kinds {kinds}")


def fit(data: CountTrace | MomentSet, family: str) -> EstimateReport:
    """Fit `family` to a count trace, or to lag moments already taken from one."""
    entry = family_entry(family, data.kind)
    if isinstance(data, CountTrace):
        data = empirical_moments(data, entry.lags)
    if entry.lags == 2:
        return _fit_two_lag(data, family)
    return estimate_pareto_geo(data)
