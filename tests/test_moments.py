import itertools
import math

import numpy as np
import pytest

from onoffgraph.errors import IncompatibleMomentsError
from onoffgraph.laws import Geometric, Pareto, Weibull
from onoffgraph.moments import (
    FAMILIES,
    MomentSet,
    empirical_moments,
    estimate_from_subgraph,
    estimate_gg,
    estimate_pareto_geo,
    estimate_parpar,
    fit,
    infer_family,
    theoretical_moment_set,
    theoretical_moments,
    triangle_moments,
    wedge_moments,
)
from onoffgraph.renewal import joint_distribution
from onoffgraph.simulate import CountTrace, ModelSpec, simulate_edge_trace

GG = ModelSpec(on_law=Geometric(0.3), off_law=Geometric(0.8), n=100)

# a model of every registry family with its true parameters, in registry order
FAMILY_MODELS = {
    "geometric_geometric": (GG, (0.3, 0.8)),
    "pareto_pareto": (
        ModelSpec(on_law=Pareto(1.0, 3.0), off_law=Pareto(1.0, 2.5), n=100), (3.0, 2.5)),
    "weibull_geometric": (
        ModelSpec(on_law=Weibull(1.0, 0.5), off_law=Geometric(0.7), n=100), (0.5, 0.7)),
    "pareto_geometric": (
        ModelSpec(on_law=Pareto(2.0, 4.0), off_law=Geometric(0.7), n=100), (2.0, 4.0, 0.7)),
}


def brute_subgraph_pair_moment(N, rho, u, kind):
    """E[X(k) X(k+1)] for triangles/wedges by enumerating all subgraph pairs.

    A pair needing the same edge at both times contributes rho*u per shared
    edge and rho per edge needed at a single time.
    """
    pair_index = {frozenset(e): i for i, e in
                  enumerate(itertools.combinations(range(N), 2))}
    if kind == "triangles":
        items = [frozenset(pair_index[frozenset(e)]
                           for e in itertools.combinations(tri, 2))
                 for tri in itertools.combinations(range(N), 3)]
    else:
        items = []
        for center in range(N):
            for a, b in itertools.combinations(range(N), 2):
                if a != center and b != center:
                    items.append(frozenset({pair_index[frozenset((center, a))],
                                            pair_index[frozenset((center, b))]}))
    terms = []
    for e1 in items:
        for e2 in items:
            shared = len(e1 & e2)
            distinct = len(e1) + len(e2) - shared
            terms.append(rho ** (distinct - shared) * (rho * u) ** shared)
    return math.fsum(terms)


def hand_enumerated_moment(model, ell):
    """E[A(k) A(k+ell)] for ell = 1..3 by enumerating one edge's on-patterns.

    An edge on at 1 is on at 1+ell if its residual on-time covers the gap, or
    if it switches off and on again in between (the scenarios listed per lag).
    """
    n, rho = model.n, model.rho
    surv_f = model.on_law.survival(np.arange(1, 5))
    fbar = surv_f / model.on_law.mean()
    f1 = surv_f[0] - surv_f[1]
    g_surv = model.off_law.survival(np.arange(1, 4))
    g1 = g_surv[0] - g_surv[1]
    g2 = g_surv[1] - g_surv[2]
    if ell == 1:  # ++
        on = 1 - fbar[0]
    elif ell == 2:  # +++, +-+
        on = (1 - fbar[0] - fbar[1]) + fbar[0] * g1
    else:  # ++++, +--+, +-++, ++-+
        on = ((1 - fbar[0] - fbar[1] - fbar[2]) + fbar[0] * g2
              + fbar[0] * g1 * (1 - f1) + fbar[1] * g1)
    return n * rho * on + (n * n - n) * rho * rho


class TestEmpiricalMoments:
    def test_constant_trace(self):
        trace = CountTrace(kind="edges", values=np.full(50, 7), n=10)
        m = empirical_moments(trace, 3)
        assert m.mu[0] == 7.0
        assert m.mu[1] == 49.0
        assert m.mu[2] == 49.0

    def test_alternating_trace(self):
        trace = CountTrace(kind="edges", values=np.array([2, 0, 2, 0]), n=2)
        m = empirical_moments(trace, 2)
        assert m.mu[0] == 1.0
        assert m.mu[1] == 0.0

    def test_insufficient_data(self):
        trace = CountTrace(kind="edges", values=np.array([1, 2]), n=5)
        with pytest.raises(ValueError):
            empirical_moments(trace, 2)


class TestTheoreticalMoments:
    def test_lag0(self):
        for model in [GG, ModelSpec(on_law=Pareto(2.0, 4.0), off_law=Geometric(0.7), n=10)]:
            assert theoretical_moments(model, 0) == pytest.approx(model.n * model.rho, rel=1e-14)

    def test_lag1_geometric(self):
        n, rho = 100, GG.rho
        expect = n * rho * 0.7 + (n * n - n) * rho * rho
        assert theoretical_moments(GG, 1) == pytest.approx(expect, rel=1e-14)
        assert theoretical_moments(GG, 1) == pytest.approx(5287.27, abs=0.01)

    @pytest.mark.parametrize("ell", [1, 2, 3])
    def test_closed_forms_vs_joint_route(self, ell):
        for model in [GG,
                      ModelSpec(on_law=Pareto(2.0, 4.0), off_law=Geometric(0.7), n=10),
                      ModelSpec(on_law=Weibull(1.0, 0.5), off_law=Geometric(0.7), n=7)]:
            n, rho = model.n, model.rho
            route = n * joint_distribution(model, [1, 1 + ell])[-1] + (n * n - n) * rho * rho
            oracle = hand_enumerated_moment(model, ell)
            assert theoretical_moments(model, ell) == pytest.approx(oracle, abs=1e-10)
            assert route == pytest.approx(oracle, abs=1e-10)

    def test_higher_lags(self):
        # correlations decay like f^(l-1), so high lags approach (n rho)^2
        n, rho, f = 100, GG.rho, -0.1
        for ell in [5, 7]:
            expect = n * rho * (rho + (1 - rho) * f**ell) + (n * n - n) * rho**2
            assert theoretical_moments(GG, ell) == pytest.approx(expect, rel=1e-12)


class TestEdgeEstimators:
    def test_gg_round_trip(self):
        r = estimate_gg(theoretical_moment_set(GG))
        assert r.params["p"] == pytest.approx(0.3, abs=1e-12)
        assert r.params["q"] == pytest.approx(0.8, abs=1e-12)
        assert r.ok

    def test_gg_matches_displayed_formula(self):
        # no hidden renormalization: exactly the closed-form expressions
        mu = np.array([60.0, 3650.0])
        m = MomentSet(mu=mu, n=100, K=1000)
        D = mu[0] - mu[1] + (1 - 1 / 100) * mu[0] ** 2
        r = estimate_gg(m)
        assert r.params["p"] == D / mu[0]
        assert r.params["q"] == D / (100 - mu[0])

    def test_gg_boundary(self):
        m = MomentSet(mu=np.array([100.0, 10000.0]), n=100, K=10)
        with pytest.raises(IncompatibleMomentsError):
            estimate_gg(m)

    def test_gg_range_flag(self):
        # crafted moments driving q_hat above 1: estimate still reported
        m = MomentSet(mu=np.array([99.0, 9700.0]), n=100, K=10)
        r = estimate_gg(m)
        assert "q_out_of_range" in r.flags
        assert "q" in r.params

    @pytest.mark.parametrize("family", list(FAMILIES))
    def test_round_trip(self, family):
        # the family's laws infer back to it, and fit on its exact moments
        # returns its parameters, in registry order, at the true values
        model, truth = FAMILY_MODELS[family]
        entry = FAMILIES[family]
        assert infer_family(model) == family
        assert entry.params_of(model) == pytest.approx(truth)
        r = fit(theoretical_moment_set(model, L=entry.lags), family)
        assert r.ok
        assert tuple(r.params) == entry.params
        assert list(r.params.values()) == pytest.approx(truth, abs=1e-8)

    def test_parpar_bad_target(self):
        # zeta-sum target below 1 is impossible for the family
        m = MomentSet(mu=np.array([50.0, 50.0 - 45.0 + 0.99 * 2500.0]), n=100, K=10)
        # engineered so D/mu0 > 1, i.e. mean sum < 1
        m.mu[1] = m.mu[0] + (1 - 1 / 100) * m.mu[0] ** 2 - 60.0
        with pytest.raises(IncompatibleMomentsError):
            estimate_parpar(m)

    def test_pareto_geo_infeasible_ratio(self):
        model = ModelSpec(on_law=Pareto(2.0, 4.0), off_law=Geometric(0.7), n=100)
        m = theoretical_moment_set(model, L=3)
        m.mu[2] = m.mu[1] - 1000.0  # pushes the survival ratio above 1
        with pytest.raises(IncompatibleMomentsError):
            estimate_pareto_geo(m)

    def test_pareto_geo_large_alpha(self):
        # the bracket passes alpha = 100 into 128, where C^alpha leaves float
        # range; it steps back below that point instead of doubling past it
        model = ModelSpec(on_law=Pareto(300.0, 100.0), off_law=Geometric(0.7), n=100)
        report = estimate_pareto_geo(theoretical_moment_set(model, L=3))
        assert report.params["alpha"] == pytest.approx(100.0, rel=1e-8)
        assert report.params["C"] == pytest.approx(300.0, rel=1e-8)
        assert report.params["q"] == pytest.approx(0.7, rel=1e-8)

    def test_pareto_geo_needs_three_moments(self):
        with pytest.raises(ValueError):
            estimate_pareto_geo(theoretical_moment_set(GG, L=2))

    def test_report_serializes(self):
        r = estimate_gg(theoretical_moment_set(GG))
        body = r.to_json()
        assert body["family"] == "geometric_geometric"
        assert set(body["params"]) == {"p", "q"}

    def test_consistency_rate(self):
        # |estimate - truth| should shrink like K^(-1/2): log-log slope check
        rng = np.random.default_rng(31)
        Ks = [1000, 10_000, 100_000]
        mean_err = []
        for K in Ks:
            errs = []
            for _ in range(50):
                trace = simulate_edge_trace(GG, K, rng)
                r = estimate_gg(empirical_moments(trace, 2))
                errs.append(abs(r.params["p"] - 0.3))
            mean_err.append(np.mean(errs))
        slope = np.polyfit(np.log(Ks), np.log(mean_err), 1)[0]
        assert -0.65 <= slope <= -0.35


class TestSubgraphMoments:
    def test_triangle_mean(self):
        m = ModelSpec(on_law=Geometric(0.3), off_law=Geometric(0.8), N=20)
        assert triangle_moments(m, 0) == pytest.approx(1140 * m.rho**3, rel=1e-14)
        assert triangle_moments(m, 0) == pytest.approx(438.5, abs=0.1)
        assert wedge_moments(m, 0) == pytest.approx(3 * 1140 * m.rho**2, rel=1e-14)

    def test_n4_coefficients(self):
        m = ModelSpec(on_law=Geometric(0.3), off_law=Geometric(0.8), N=4)
        rho, u = m.rho, 0.7
        expect = 4 * (3 * rho**5 * u + rho**3 * u**3)
        assert triangle_moments(m, 1) == pytest.approx(expect, rel=1e-12)

    def test_complete_graph_consistency(self):
        # rho -> 1, persistence -> 1 degenerates to the deterministic counts
        from onoffgraph.moments import _triangle_pair, _wedge_pair
        for N in [4, 6, 9]:
            c3 = math.comb(N, 3)
            assert _triangle_pair(N, 1.0, 1.0) == pytest.approx(c3**2, rel=1e-12)
            assert _wedge_pair(N, 1.0, 1.0) == pytest.approx(9 * c3**2, rel=1e-12)

    @pytest.mark.parametrize("N", [4, 5, 6, 8])
    def test_brute_force_enumeration(self, N):
        m = ModelSpec(on_law=Geometric(0.3), off_law=Geometric(0.8), N=N)
        rho, u = m.rho, 1 - 0.3
        assert triangle_moments(m, 1) == pytest.approx(
            brute_subgraph_pair_moment(N, rho, u, "triangles"), rel=1e-10)
        assert wedge_moments(m, 1) == pytest.approx(
            brute_subgraph_pair_moment(N, rho, u, "wedges"), rel=1e-10)

    def test_lag_validation(self):
        m = ModelSpec(on_law=Geometric(0.3), off_law=Geometric(0.8), N=5)
        with pytest.raises(ValueError):
            triangle_moments(m, 2)
        with pytest.raises(ValueError):
            triangle_moments(GG, 0)  # no N


class TestSubgraphEstimation:
    def test_round_trips(self):
        m = ModelSpec(on_law=Geometric(0.3), off_law=Geometric(0.8), N=20)
        for kind, fn in [("triangles", triangle_moments), ("wedges", wedge_moments)]:
            ms = MomentSet(mu=np.array([fn(m, 0), fn(m, 1)]), n=m.n, K=0,
                           kind=kind, N=20)
            r = estimate_from_subgraph(ms)
            assert r.params["p"] == pytest.approx(0.3, abs=1e-8)
            assert r.params["q"] == pytest.approx(0.8, abs=1e-8)

    def test_incompatible(self):
        m = ModelSpec(on_law=Geometric(0.3), off_law=Geometric(0.8), N=20)
        ms = MomentSet(mu=np.array([triangle_moments(m, 0), 1e9]), n=m.n, K=0,
                       kind="triangles", N=20)
        with pytest.raises(IncompatibleMomentsError):
            estimate_from_subgraph(ms)

    def test_validation(self):
        ms = MomentSet(mu=np.array([1.0, 1.0]), n=100, K=0, kind="edges", N=None)
        with pytest.raises(ValueError):
            estimate_from_subgraph(ms)
