import itertools
import math
import time

import numpy as np
import pytest

from onoffgraph import laws, moments
from onoffgraph.asymp import param_cov
from onoffgraph.errors import COMPUTE_ERRORS, IncompatibleMomentsError, ParameterError
from onoffgraph.laws import Geometric, Pareto, Weibull
from onoffgraph.moments import (
    FAMILIES,
    MomentSet,
    _triangle_pair,
    empirical_moments,
    estimate_from_subgraph,
    estimate_pareto_geo,
    estimator_for,
    fit,
    infer_family,
    moments_needed,
    theoretical_moment_set,
)
from onoffgraph.renewal import joint_distribution
from onoffgraph.simulate import CountTrace, ModelSpec, simulate_edge_trace, simulate_trace

from test_renewal import EXTREME_LAWS

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
            mu0 = theoretical_moment_set(model, 1).mu[0]
            assert mu0 == pytest.approx(model.n * model.rho, rel=1e-14)

    def test_lag1_geometric(self):
        n, rho = 100, GG.rho
        expect = n * rho * 0.7 + (n * n - n) * rho * rho
        mu1 = theoretical_moment_set(GG, 2).mu[1]
        assert mu1 == pytest.approx(expect, rel=1e-14)
        assert mu1 == pytest.approx(5287.27, abs=0.01)

    @pytest.mark.parametrize("ell", [1, 2, 3])
    def test_closed_forms_vs_joint_route(self, ell):
        for model in [GG,
                      ModelSpec(on_law=Pareto(2.0, 4.0), off_law=Geometric(0.7), n=10),
                      ModelSpec(on_law=Weibull(1.0, 0.5), off_law=Geometric(0.7), n=7)]:
            n, rho = model.n, model.rho
            route = n * joint_distribution(model, [1, 1 + ell])[-1] + (n * n - n) * rho * rho
            oracle = hand_enumerated_moment(model, ell)
            mu = theoretical_moment_set(model, ell + 1).mu[ell]
            assert mu == pytest.approx(oracle, abs=1e-10)
            assert route == pytest.approx(oracle, abs=1e-10)

    def test_higher_lags(self):
        # correlations decay like f^(l-1), so high lags approach (n rho)^2
        n, rho, f = 100, GG.rho, -0.1
        for ell in [5, 7]:
            expect = n * rho * (rho + (1 - rho) * f**ell) + (n * n - n) * rho**2
            assert theoretical_moment_set(GG, ell + 1).mu[ell] == pytest.approx(expect, rel=1e-12)


class TestEdgeEstimators:
    def test_gg_round_trip(self):
        r = fit(theoretical_moment_set(GG), "geometric_geometric")
        assert r.params["p"] == pytest.approx(0.3, abs=1e-12)
        assert r.params["q"] == pytest.approx(0.8, abs=1e-12)
        assert r.ok

    def test_gg_matches_displayed_formula(self):
        # no hidden renormalization: exactly the closed-form expressions
        mu = np.array([60.0, 3650.0])
        m = MomentSet(mu=mu, n=100)
        D = mu[0] - mu[1] + (1 - 1 / 100) * mu[0] ** 2
        r = fit(m, "geometric_geometric")
        assert r.params["p"] == D / mu[0]
        assert r.params["q"] == D / (100 - mu[0])

    def test_gg_boundary(self):
        m = MomentSet(mu=np.array([100.0, 10000.0]), n=100)
        with pytest.raises(IncompatibleMomentsError):
            fit(m, "geometric_geometric")

    def test_gg_range_flag(self):
        # crafted moments driving q_hat above 1: estimate still reported
        m = MomentSet(mu=np.array([99.0, 9700.0]), n=100)
        r = fit(m, "geometric_geometric")
        assert "q_out_of_range" in r.flags
        assert "q" in r.params

    @pytest.mark.parametrize("family", list(FAMILIES))
    def test_round_trip(self, family):
        # the family's laws infer back to it, and fit on its exact moments
        # returns its parameters, in registry order, at the true values
        model, truth = FAMILY_MODELS[family]
        entry = FAMILIES[family]
        assert infer_family(model) == family
        assert tuple(getattr(getattr(model, law), attr) for law, attr in entry.attrs) == pytest.approx(truth)
        assert entry.model_of(truth, model.n) == model
        r = fit(theoretical_moment_set(model, L=entry.lags), family)
        assert r.ok
        assert tuple(r.params) == entry.params
        assert list(r.params.values()) == pytest.approx(truth, abs=1e-8)

    def test_parpar_bad_target(self):
        # zeta-sum target below 1 is impossible for the family
        m = MomentSet(mu=np.array([50.0, 50.0 - 45.0 + 0.99 * 2500.0]), n=100)
        # engineered so D/mu0 > 1, i.e. mean sum < 1
        m.mu[1] = m.mu[0] + (1 - 1 / 100) * m.mu[0] ** 2 - 60.0
        with pytest.raises(IncompatibleMomentsError):
            fit(m, "pareto_pareto")

    def test_pareto_geo_infeasible_ratio(self):
        model = ModelSpec(on_law=Pareto(2.0, 4.0), off_law=Geometric(0.7), n=100)
        m = theoretical_moment_set(model, L=3)
        m.mu[2] = m.mu[1] - 1000.0  # pushes the survival ratio above 1
        with pytest.raises(IncompatibleMomentsError):
            estimate_pareto_geo(m)

    def test_pareto_geo_zero_first_lag_target(self):
        # the exact moments of this model round D to 0; it is refused before T2 divides by it
        model = ModelSpec(on_law=Pareto(1e12, 1.0001), off_law=Geometric(0.5), n=10)
        with pytest.raises(IncompatibleMomentsError):
            estimate_pareto_geo(theoretical_moment_set(model, L=3))

    def test_pareto_geo_target_at_its_limit(self, monkeypatch):
        # exact geometric on-time moments put the mean-sum target at the map's
        # limit 1/(1 - T2) up to rounding (above it here, by 0.6 to 3.4e6 eps relative):
        # refused before the climb evaluates the map once
        calls = []
        slope = laws._pareto_slope
        monkeypatch.setattr(laws, "_pareto_slope", lambda *a: calls.append(a) or slope(*a))
        for p, q, n in ((0.3, 0.3, 100), (0.8, 0.8, 10), (0.99, 0.5, 100), (0.05, 0.9, 10_000),
                        (0.001, 0.5, 100)):
            m = theoretical_moment_set(ModelSpec(on_law=Geometric(p), off_law=Geometric(q), n=n), L=3)
            fbar1, q_hat, D = moments._first_lag_targets(m)
            assert 1.0 / fbar1 > 1.0 / (1.0 - (q_hat - (m.mu[2] - m.mu[1]) / D))
            with pytest.raises(IncompatibleMomentsError, match="unreachable"):
                estimate_pareto_geo(m)
        assert calls == []

    def test_pareto_geo_large_alpha(self):
        # the bracket passes alpha = 100 into 128, where C^alpha leaves float
        # range; it steps back below that point instead of doubling past it
        model = ModelSpec(on_law=Pareto(300.0, 100.0), off_law=Geometric(0.7), n=100)
        report = estimate_pareto_geo(theoretical_moment_set(model, L=3))
        assert report.params["alpha"] == pytest.approx(100.0, rel=1e-8)
        assert report.params["C"] == pytest.approx(300.0, rel=1e-8)
        assert report.params["q"] == pytest.approx(0.7, rel=1e-8)

    @pytest.mark.parametrize("family", list(FAMILIES))
    def test_fitted_model_reproduces_moments(self, family):
        # the oracle of the forward map: as many moment equations as parameters,
        # so the fitted model's exact moments are the observed ones
        model, _ = FAMILY_MODELS[family]
        entry = FAMILIES[family]
        for seed in (1, 2, 3):
            m = empirical_moments(simulate_edge_trace(model, 5000, np.random.default_rng(seed)),
                                  entry.lags)
            r = fit(m, family)
            assert r.ok
            fitted = theoretical_moment_set(entry.model_of(r.params.values(), m.n), entry.lags)
            assert np.max(np.abs(fitted.mu - m.mu)) <= 1e-6 * m.mu[1]

    @pytest.mark.parametrize("family", list(FAMILIES))
    def test_fit_reads_no_renewal_table(self, family, monkeypatch):
        model, _ = FAMILY_MODELS[family]
        m = theoretical_moment_set(model, FAMILIES[family].lags)
        trace = simulate_edge_trace(model, 2000, np.random.default_rng(4))
        calls = []
        table = moments.autocovariance
        monkeypatch.setattr(moments, "autocovariance", lambda *a: calls.append(a) or table(*a))
        assert fit(m, family).ok
        fit(trace, family)
        assert calls == []

    def test_pareto_geo_needs_three_moments(self):
        with pytest.raises(ValueError):
            estimate_pareto_geo(theoretical_moment_set(GG, L=2))

    def test_report_serializes(self):
        r = fit(theoretical_moment_set(GG), "geometric_geometric")
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
                r = fit(empirical_moments(trace, 2), "geometric_geometric")
                errs.append(abs(r.params["p"] - 0.3))
            mean_err.append(np.mean(errs))
        slope = np.polyfit(np.log(Ks), np.log(mean_err), 1)[0]
        assert -0.65 <= slope <= -0.35


class TestSubgraphMoments:
    def test_triangle_mean(self):
        m = ModelSpec(on_law=Geometric(0.3), off_law=Geometric(0.8), N=20)
        (triangles,) = theoretical_moment_set(m, 1, "triangles").mu
        assert triangles == pytest.approx(1140 * m.rho**3, rel=1e-14)
        assert triangles == pytest.approx(438.5, abs=0.1)
        assert theoretical_moment_set(m, 1, "wedges").mu[0] == pytest.approx(
            3 * 1140 * m.rho**2, rel=1e-14)

    def test_n4_coefficients(self):
        m = ModelSpec(on_law=Geometric(0.3), off_law=Geometric(0.8), N=4)
        rho, u = m.rho, 0.7
        expect = 4 * (3 * rho**5 * u + rho**3 * u**3)
        assert theoretical_moment_set(m, 2, "triangles").mu[1] == pytest.approx(expect, rel=1e-12)

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
        for kind in ("triangles", "wedges"):
            assert theoretical_moment_set(m, 2, kind).mu[1] == pytest.approx(
                brute_subgraph_pair_moment(N, rho, u, kind), rel=1e-10)

    @pytest.mark.parametrize("N", [4, 5, 6, 7, 8])
    @pytest.mark.parametrize("family", ["pareto_pareto", "weibull_geometric",
                                        "pareto_geometric"])
    def test_brute_force_through_joint_law(self, family, N):
        # rho and the persistence u = P(on, on) / rho come from the tilted
        # chain's joint law of epochs 1 and 2, not from the laws' means
        on_off = FAMILY_MODELS[family][0]
        m = ModelSpec(on_law=on_off.on_law, off_law=on_off.off_law, N=N)
        probs = joint_distribution(m, [1, 2])  # bit j: on at epoch j + 1
        rho = probs[1] + probs[3]
        u = probs[3] / rho
        for kind in ("triangles", "wedges"):
            assert theoretical_moment_set(m, 2, kind).mu[1] == pytest.approx(
                brute_subgraph_pair_moment(N, rho, u, kind), rel=1e-12)

    def test_lag_validation(self):
        m = ModelSpec(on_law=Geometric(0.3), off_law=Geometric(0.8), N=5)
        for bad in ((m, 3, "triangles"), (m, 0, "wedges"), (GG, 2, "triangles"),  # no N
                    (ModelSpec(on_law=Geometric(0.3), off_law=Geometric(0.8), N=2), 2,
                     "wedges"), (m, 2, "stars")):
            with pytest.raises(ValueError):
                theoretical_moment_set(*bad)


class TestSubgraphEstimation:
    def test_vertex_count_needed(self):
        m = ModelSpec(on_law=Geometric(0.3), off_law=Geometric(0.8), N=20)
        mu = theoretical_moment_set(m, 2, "triangles").mu
        with pytest.raises(ValueError, match="vertex count N"):
            fit(MomentSet(mu=mu, n=m.n, kind="triangles"), "geometric_geometric")

    def test_round_trips(self):
        m = ModelSpec(on_law=Geometric(0.3), off_law=Geometric(0.8), N=20)
        for kind in ("triangles", "wedges"):
            r = estimate_from_subgraph(theoretical_moment_set(m, 2, kind))
            assert r.params["p"] == pytest.approx(0.3, abs=1e-8)
            assert r.params["q"] == pytest.approx(0.8, abs=1e-8)

    @pytest.mark.parametrize("family,model,truth", [
        ("pareto_pareto", ModelSpec(on_law=Pareto(1.0, 3.0), off_law=Pareto(1.0, 2.5), N=20),
         (3.0, 2.5)),
        ("weibull_geometric", ModelSpec(on_law=Weibull(1.0, 0.5), off_law=Geometric(0.7), N=20),
         (0.5, 0.7)),
    ])
    def test_two_lag_families_round_trip(self, family, model, truth):
        # every two-lag family reads triangles and wedges through its rate maps
        for kind in ("triangles", "wedges"):
            ms = theoretical_moment_set(model, 2, kind)
            for r in (fit(ms, family), estimate_from_subgraph(ms, family)):
                assert r.ok and r.family == family
                assert list(r.params.values()) == pytest.approx(truth, abs=1e-8)
                assert r.diagnostics["observable"] == kind

    def test_fitted_law_outside_its_domain_refused(self):
        # rho = 1e-20 gives q_hat = 5e-21 in (0, 1), but 1 - q_hat rounds to 1
        N, rho = 10, 1e-20
        ms = MomentSet(mu=np.array([math.comb(N, 3) * rho**3, _triangle_pair(N, rho, 0.5)]),
                       n=45, kind="triangles", N=N)
        with pytest.raises(ParameterError, match="geometric"):
            fit(ms, "geometric_geometric")

    def test_three_lag_family_refused(self):
        m = ModelSpec(on_law=Geometric(0.3), off_law=Geometric(0.8), N=20)
        with pytest.raises(ValueError, match="cannot fit triangles"):
            fit(theoretical_moment_set(m, 2, "triangles"), "pareto_geometric")

    def test_incompatible(self):
        m = ModelSpec(on_law=Geometric(0.3), off_law=Geometric(0.8), N=20)
        ms = theoretical_moment_set(m, 2, "triangles")
        ms.mu[1] = 1e9
        with pytest.raises(IncompatibleMomentsError):
            estimate_from_subgraph(ms)

    def test_validation(self):
        ms = MomentSet(mu=np.array([1.0, 1.0]), n=100, kind="edges", N=None)
        with pytest.raises(ValueError):
            estimate_from_subgraph(ms)


class TestReplayContract:
    """The step-by-step fit a replay runs equals fit() exactly: params and flags, or the error."""

    @staticmethod
    def outcome(call):
        try:
            report = call()
        except IncompatibleMomentsError as exc:
            return repr(exc)
        return report.params, report.flags

    @pytest.mark.parametrize("family", list(FAMILIES))
    def test_edge_estimator_matches_fit(self, family):
        model, _ = FAMILY_MODELS[family]
        rng = np.random.default_rng(7)
        for _ in range(3):
            trace = simulate_edge_trace(model, 400, rng)
            m = empirical_moments(trace, moments_needed(family))
            want = self.outcome(lambda: fit(trace, family))
            assert self.outcome(lambda: estimator_for(family)(m)) == want

    @pytest.mark.parametrize("kind", ["triangles", "wedges"])
    def test_subgraph_estimator_matches_fit(self, kind):
        model = ModelSpec(on_law=Geometric(0.3), off_law=Geometric(0.8), N=12)
        trace = simulate_trace(model, 400, np.random.default_rng(3), kind=kind)
        m = empirical_moments(trace, moments_needed("geometric_geometric"))
        want = self.outcome(lambda: fit(trace, "geometric_geometric"))
        assert want[0]  # a fit, not an error
        assert self.outcome(lambda: estimate_from_subgraph(m)) == want
        assert self.outcome(lambda: fit(m, "geometric_geometric")) == want


# the extreme laws of test_renewal and one ordinary law of each kind, in every ordered pair
GATE_LAWS = EXTREME_LAWS + [Geometric(0.3), Pareto(1.0, 3.0), Weibull(1.0, 0.5)]


def _exact_moment_sets(model):
    """The model's exact edge moments (three lags) and triangle moments, those it has."""
    sets = []
    for L, kind in ((3, "edges"), (2, "triangles")):
        try:
            sets.append(theoretical_moment_set(model, L, kind))
        except COMPUTE_ERRORS:
            pass
    return sets


@pytest.mark.filterwarnings("error::onoffgraph.asymp.DivergenceWarning")
@pytest.mark.parametrize("on_law", GATE_LAWS, ids=repr)
def test_fit_of_exact_moments_is_finite_or_typed(on_law):
    # every family that reads the observable fits the exact moments of every
    # pair within its time bound, to finite parameters and flags or a typed
    # refusal; the slowest fit of this grid took about 0.3 s. So does
    # param_cov, to a finite covariance, None or a typed refusal, and it
    # issues no DivergenceWarning
    for off_law in GATE_LAWS:
        model = ModelSpec(on_law=on_law, off_law=off_law, N=5)
        start = time.perf_counter()
        try:
            pc = param_cov(model)
            assert pc is None or np.isfinite(pc.matrix).all()
        except COMPUTE_ERRORS:
            pass
        assert time.perf_counter() - start < 2.0, ("param_cov", off_law)
        for m in _exact_moment_sets(model):
            for family, entry in FAMILIES.items():
                if m.kind != "edges" and entry.lags != 2:
                    continue
                start = time.perf_counter()
                try:
                    report = fit(m, family)
                    assert np.isfinite(list(report.params.values())).all()
                    assert all(isinstance(flag, str) for flag in report.flags)
                except COMPUTE_ERRORS:
                    pass
                assert time.perf_counter() - start < 2.0, (family, m.kind, off_law)
