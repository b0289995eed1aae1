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
import scipy

from .errors import IncompatibleMomentsError, OutOfRangeError
from .laws import Geometric, Pareto, Weibull, _climb, _pareto_scale, _pareto_slope
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
    return MomentSet(mu=mu, n=trace.n, K=K, kind=trace.kind, N=trace.N)


def theoretical_moments(model: ModelSpec, ell: int) -> float:
    """s_{n,ell} = E[A(k) A(k+ell)] (ell = 0: E[A(k)]) for the edge process.

    The entry ell of theoretical_moment_set(model, ell + 1).
    """
    if ell < 0:
        raise ValueError("lag must be >= 0")
    return float(theoretical_moment_set(model, ell + 1).mu[ell])


def theoretical_moment_set(model: ModelSpec, L: int = 2) -> MomentSet:
    """Exact moments s_{n,0..L-1} packed as a MomentSet, all from one autocovariance table.

    mu[0] = n rho, and every lag ell >= 1 reads the one-edge autocovariance
    gamma: the n edges are independent, so mu[ell] = n gamma(ell) + (n rho)^2.
    """
    n, rho = model.n, model.rho
    mu = n * autocovariance(model, L) + (n * rho) ** 2
    mu[0] = n * rho
    return MomentSet(mu=mu, n=n, K=0, kind="edges", N=model.N)


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


def estimate_pareto_geo(m: MomentSet) -> EstimateReport:
    """(C_hat, alpha_hat, q_hat) for Pareto(C, alpha) on-times, geometric off-times.

    Needs mu_hat(2). The system is
        zeta(C, alpha) = mu_hat(0) / D        (mean sum)
        (C/(C+1))^alpha = q_hat - (mu_hat(2) - mu_hat(1)) / D
    and is solved by eliminating C = t/(1-t) with t = T2^(1/alpha), leaving a
    mean P(C(alpha), alpha) that decreases toward 1 / (1 - T2). Its terms
    r^alpha, r = C / (C + j), are convex in j and the first is T2, so P exceeds
    1 + T2/2 + T2 (C + 1)/(alpha - 1) and alpha -> 1 + K / (1 - t), K = T2 / (T1 - 1 - T2/2),
    rises from alpha = 1 toward the root without passing it. The climb starts
    where that levels off, with the slope dP/dalpha + dP/dC C'(alpha), where
    dP/dC = (alpha / C) C^alpha (zeta(alpha, C + 1) - C zeta(alpha + 1, C + 1))
    forms no C^(alpha + 1), which can overflow where P does not.
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

    def c_of(alpha):  # a Python float, so that C^alpha past float range is refused
        t = float(T2) ** (1.0 / alpha)
        return t / (1.0 - t)

    def mean_sum(alpha):
        C, zeta = c_of(alpha), scipy.special.zeta
        scale, z = _pareto_scale(C, alpha), zeta(alpha, C + 1.0)
        # dP/dC C'(alpha), with C'(alpha) = -C (1 + C) ln T2 / alpha^2 and alpha / C cancelled
        chain = scale * (z - C * zeta(alpha + 1.0, C + 1.0)) * (1.0 + C) * -math.log(T2) / alpha
        return 1.0 + scale * z, _pareto_slope(C, alpha) + chain

    alpha, K = 1.0, T2 / (T1 - 1.0 - T2 / 2.0)
    for _ in range(64):
        step = 1.0 + K / -math.expm1(math.log(T2) / alpha) - alpha
        if not step > 1e-3 * (alpha - 1.0):
            break
        alpha += step
    if alpha <= 1.0:
        raise OutOfRangeError(f"mean-sum target {T1} needs an alpha within rounding of 1")
    alpha = _climb(mean_sum, T1, alpha, limit=limit)
    C = c_of(alpha)
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


# observable -> copies per vertex triple, edges per copy, rho from the mean
# per copy (the inverse of rho^edges), and E[X(k) X(k+1)] from rho and u
_SUBGRAPHS = {
    "triangles": (1, 3, lambda mean: mean ** (1.0 / 3.0), _triangle_pair),
    "wedges": (3, 2, math.sqrt, _wedge_pair),
}


def _subgraph_moment(model: ModelSpec, lag: int, kind: str) -> float:
    if model.N is None or model.N < 3:
        raise ValueError(f"{kind[:-1]} moments need a vertex count N >= 3")
    copies, edges, _, pair = _SUBGRAPHS[kind]
    rho = model.rho
    if lag == 0:
        return copies * math.comb(model.N, 3) * rho**edges
    if lag == 1:
        return pair(model.N, rho, _persistence(model))
    raise ValueError("lag must be 0 or 1")


def triangle_moments(model: ModelSpec, lag: int) -> float:
    """E[T(k)] (lag 0) or E[T(k) T(k+1)] (lag 1) for the dynamic graph on N vertices."""
    return _subgraph_moment(model, lag, "triangles")


def wedge_moments(model: ModelSpec, lag: int) -> float:
    """E[W(k)] (lag 0) or E[W(k) W(k+1)] (lag 1)."""
    return _subgraph_moment(model, lag, "wedges")


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
    c3, a0, a1, a2, _ = _share_coeffs(m.N)  # a3 = 1
    if m.kind == "triangles":
        p, q = a2 * rho**2, (mu1 / c3 - (a0 + a1) * rho**6) / rho**3
        w = np.cbrt(q / 2.0 + np.sqrt(q * q / 4.0 + p**3 / 27.0))
        u = q / (w * w + p / 3.0 + (p / (3.0 * w)) ** 2) if q > 0.0 else 0.0
    else:
        B, R = (4 * a2 + 6) * rho, (mu1 / c3 - (9 * a0 + 9 * a1 + 5 * a2) * rho**4) / rho**2
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
    lags: int  # reads mu_hat(0..lags-1): 2 for edges, triangles or wedges, 3 for edges only
    attrs: tuple  # (law, attribute) of a ModelSpec that holds each parameter

    def params_of(self, model: ModelSpec) -> tuple:
        """The model's values of the family's parameters, in registry order."""
        return tuple(getattr(getattr(model, law), attr) for law, attr in self.attrs)

    def model_of(self, values, n: int) -> ModelSpec:
        """The model with the family's laws at the given parameter values, on n edges."""
        kwargs = {"on_law": {}, "off_law": {}}
        for (law, attr), value in zip(self.attrs, values):
            kwargs[law][attr] = value
        return ModelSpec(*(cls(**{**cls.UNIT_SCALE, **kwargs[law]})
                           for cls, law in zip(self.laws, kwargs)), n=n)


FAMILIES = {
    "geometric_geometric": EstimatorFamily(
        ("p", "q"), (Geometric, Geometric), 2, (("on_law", "p"), ("off_law", "p"))),
    "pareto_pareto": EstimatorFamily(
        ("alpha", "beta"), (Pareto, Pareto), 2, (("on_law", "alpha"), ("off_law", "alpha"))),
    "weibull_geometric": EstimatorFamily(
        ("alpha", "q"), (Weibull, Geometric), 2, (("on_law", "alpha"), ("off_law", "p"))),
    "pareto_geometric": EstimatorFamily(
        ("C", "alpha", "q"), (Pareto, Geometric), 3,
        (("on_law", "C"), ("on_law", "alpha"), ("off_law", "p"))),
}


def _fit_two_lag(m: MomentSet, family: str) -> EstimateReport:
    """A two-lag family's parameters from the rate targets (1/E[X], 1/E[Y]).

    Edge moments give (D / mu_hat(0), D / (n - mu_hat(0))), triangle and
    wedge moments _subgraph_rate_targets. A geometric law's parameter is its
    rate, flagged outside (0, 1); a Pareto or Weibull law's shape is its
    class's shape_for_mean at the mean target, which must exceed 1.
    """
    entry = FAMILIES[family]
    if m.kind == "edges":
        rates, diagnostics = _first_lag_targets(m)[:2], {}
    else:
        rates, diagnostics = _subgraph_rate_targets(m)
    for law, rate in zip(entry.laws, rates):
        if law is not Geometric and (rate <= 0 or 1.0 / rate <= 1.0):
            raise IncompatibleMomentsError(f"{law.__name__.lower()} mean target must exceed 1, "
                                           f"got {1.0 / rate if rate > 0 else rate}")
    params = {name: rate if law is Geometric else law.shape_for_mean(1.0 / rate)
              for name, law, rate in zip(entry.params, entry.laws, rates)}
    flags = [f"{name}_out_of_range" for name, law, rate in zip(entry.params, entry.laws, rates)
             if law is Geometric and not 0.0 < rate < 1.0]
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
