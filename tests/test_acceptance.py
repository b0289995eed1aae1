"""End-to-end acceptance checks.

Each test prints one PASS/FAIL line so the whole gate can be read off the
pytest output directly. Campaign-scale statistical checks use fixed seeds;
tolerances are the recovery targets stated for the published experiments,
scaled from trace length 10^5 to the desk-scale 10^4 runs by sqrt(10).
"""

import itertools
import math
import time

import numpy as np
from scipy.stats import binom, chi2

from onoffgraph.asymp import general_moment_cov, geometric_moment_cov, param_cov
from onoffgraph.harness import ExperimentConfig, emit_outputs, run_campaign
from onoffgraph.laws import Geometric, Pareto, Weibull
from onoffgraph.moments import theoretical_moment_set
from onoffgraph.renewal import (
    autocovariance,
    joint_distribution,
    legendre_transform,
    saddlepoint_logprob,
)
from onoffgraph.simulate import ModelSpec, edge_indicator_matrix, simulate_edge_trace

from test_asymp import (
    count_vector_distribution,
    exact_mixed,
    geometric_pattern_probs,
)
from test_harness import _dirs_equal
from test_moments import brute_subgraph_pair_moment
from test_renewal import geometric_markov_joint

GG = ModelSpec(on_law=Geometric(0.3), off_law=Geometric(0.8), n=100)


def _report(num, ok, detail):
    print(f"\nacceptance criterion {num:2d}: {'PASS' if ok else 'FAIL'} — {detail}")
    assert ok, f"criterion {num}: {detail}"


def test_criterion_01_geometric_recovery():
    t0 = time.perf_counter()
    cfg = ExperimentConfig(model=GG, K=10_000, R=200, base_seed=101, workers=1)
    summary = run_campaign(cfg)
    elapsed = time.perf_counter() - t0
    dp = abs(summary.means["p"] - 0.3)
    dq = abs(summary.means["q"] - 0.8)
    pred = param_cov(GG).sd(10_000)["p"]
    ratio = summary.sds["p"] / pred
    ok = (dp <= 0.003 and dq <= 0.008 and 0.7 <= ratio <= 1.3 and elapsed <= 120.0)
    _report(1, ok,
            f"|mean p-0.3|={dp:.5f} (<=0.003), |mean q-0.8|={dq:.5f} (<=0.008), "
            f"sd(p)/predicted={ratio:.3f} (in [0.7,1.3]), {elapsed:.1f}s (<=120s)")


def _sd_ratios(summary):
    """sd / predicted_sd per parameter, and whether each lies in its 99% chi-square interval.

    With R replications, (R - 1) sd^2 / sd_true^2 is chi-square on R - 1
    degrees of freedom, so at R = 100 the ratio lies in [0.820, 1.185] with
    probability 0.99 where the predicted sd is the true one.
    """
    dof = summary.config.R - 1
    lo, hi = np.sqrt(chi2.ppf([0.005, 0.995], dof) / dof)
    ratios = {name: summary.sds[name] / summary.predicted_sds[name]
              for name in summary.config.param_names}
    text = ", ".join(f"sd({name})/predicted={r:.3f}" for name, r in ratios.items())
    return all(lo <= r <= hi for r in ratios.values()), f"{text} (in [{lo:.3f},{hi:.3f}])"


def test_criterion_02_pareto_pareto_recovery():
    model = ModelSpec(on_law=Pareto(1.0, 3.0), off_law=Pareto(1.0, 2.5), n=100)
    cfg = ExperimentConfig(model=model, K=10_000, R=100, base_seed=202, workers=1)
    summary = run_campaign(cfg)
    da = abs(summary.means["alpha"] - 3.0)
    db = abs(summary.means["beta"] - 2.5)
    sd_ok, sd_text = _sd_ratios(summary)
    ok = da <= 0.09 and db <= 0.05 and summary.n_flagged == 0 and sd_ok
    _report(2, ok, f"|mean alpha-3|={da:.4f} (<=0.09), "
                   f"|mean beta-2.5|={db:.4f} (<=0.05), flagged={summary.n_flagged}, "
                   f"{sd_text}")


def test_criterion_03_weibull_geo_and_pareto_geo_recovery():
    wg = ModelSpec(on_law=Weibull(1.0, 0.5), off_law=Geometric(0.7), n=100)
    cfg = ExperimentConfig(model=wg, K=10_000, R=100, base_seed=303, workers=1)
    s1 = run_campaign(cfg)
    da = abs(s1.means["alpha"] - 0.5)
    dq = abs(s1.means["q"] - 0.7)

    pg = ModelSpec(on_law=Pareto(2.0, 4.0), off_law=Geometric(0.7), n=100)
    cfg = ExperimentConfig(model=pg, K=10_000, R=100, base_seed=304, workers=1)
    s2 = run_campaign(cfg)
    dC = abs(s2.means["C"] - 2.0)
    da2 = abs(s2.means["alpha"] - 4.0)
    dq2 = abs(s2.means["q"] - 0.7)

    tol = math.sqrt(10.0)
    sd_ok, sd_text = _sd_ratios(s1)
    ok = (da <= 0.0014 * tol and dq <= 0.0028 * tol and sd_ok
          and dC <= 0.3239 * tol and da2 <= 0.4705 * tol and dq2 <= 0.0078 * tol)
    _report(3, ok,
            f"W/G: |alpha-0.5|={da:.5f} (<={0.0014*tol:.4f}), "
            f"|q-0.7|={dq:.5f} (<={0.0028*tol:.4f}), {sd_text}; "
            f"Par/G: |C-2|={dC:.3f} (<={0.3239*tol:.2f}), "
            f"|alpha-4|={da2:.3f} (<={0.4705*tol:.2f}), "
            f"|q-0.7|={dq2:.5f} (<={0.0078*tol:.4f})")


def test_criterion_04_covariance_monte_carlo_calibration():
    # v0, v1 and c01 are gated on non-overlapping batch means of length b over
    # the R traces, 99 per trace for both statistics so that each pair of
    # batch means covers the same epochs; across R traces alone the relative
    # SE of a variance is sqrt(2 / (R - 1)) = 0.10, the size of the v0 bound
    K, R, b, nb = 100_000, 200, 1_000, 99
    rng = np.random.default_rng(3)
    mu0 = np.empty(R)
    mu1 = np.empty(R)
    bm0 = np.empty((R, nb))
    bm1 = np.empty((R, nb))
    for r in range(R):
        v = simulate_edge_trace(GG, K, rng).values.astype(np.float64)
        lag1 = v[:-1] * v[1:]
        mu0[r] = v.mean()
        mu1[r] = lag1.mean()
        bm0[r] = v[: nb * b].reshape(nb, b).mean(axis=1)
        bm1[r] = lag1[: nb * b].reshape(nb, b).mean(axis=1)
    mc = geometric_moment_cov(100, 0.3, 0.8)

    def rel_errors(s0, s1, scale):
        cov = scale * np.cov(s0, s1, ddof=1)
        return (abs(cov[0, 0] - mc.v0) / mc.v0, abs(cov[1, 1] - mc.v1) / mc.v1,
                abs(cov[0, 1] - mc.c01) / abs(mc.c01))

    e0, e1, ec = rel_errors(bm0.ravel(), bm1.ravel(), b)
    r0, r1, rc = rel_errors(mu0, mu1, K)

    grid_ok = True
    for p in [0.1, 0.3, 0.5, 0.7, 0.9]:
        for q in [0.15, 0.35, 0.55, 0.75, 0.95]:
            v0 = geometric_moment_cov(50, p, q).v0
            alt = 50 * p * q * (2 - p - q) / (p + q) ** 3
            grid_ok &= abs(v0 - alt) <= 1e-12 * max(1.0, abs(alt))

    ok = e0 <= 0.10 and e1 <= 0.15 and ec <= 0.15 and grid_ok
    _report(4, ok,
            f"batch-means rel errors ({R * nb} batches of {b}) v0={e0:.3f} (<=0.10), "
            f"v1={e1:.3f} (<=0.15), c01={ec:.3f} (<=0.15); across {R} replications "
            f"v0={r0:.3f}, v1={r1:.3f}, c01={rc:.3f}; 5x5 grid identity to 1e-12: {grid_ok}")


def test_criterion_05_cross_implementation_oracle():
    cross_ok = True
    detail = []
    for (n, p, q) in [(4, 0.3, 0.8), (100, 0.3, 0.8), (4, 0.45, 0.55)]:
        model = ModelSpec(on_law=Geometric(p), off_law=Geometric(q), n=n)
        g = general_moment_cov(model, n)
        mc = geometric_moment_cov(n, p, q)
        cross_ok &= (abs(g.v0 - mc.v0) <= 1e-10
                     and abs(g.v1 - mc.v1) <= 1e-6 * abs(mc.v1)
                     and abs(g.c01 - mc.c01) <= 1e-6 * abs(mc.c01))
    detail.append(f"general==closed-form on 3 geometric points: {cross_ok}")

    # closed forms vs exhaustive enumeration of the n<=4, K<=5 joint laws
    enum_ok = True
    for (n, p, q) in [(3, 0.5, 0.4), (4, 0.3, 0.8)]:
        rho, f = q / (p + q), 1 - p - q
        dist = count_vector_distribution(
            geometric_pattern_probs(p, q, rho, 5), n, 5)
        m1 = exact_mixed(dist, (1,))
        e12 = exact_mixed(dist, (1, 2))
        mc = geometric_moment_cov(n, p, q)
        # v0 head + geometric tail pinned by the enumerated lags
        var_a = exact_mixed(dist, (1, 1)) - m1 * m1
        v0 = var_a + 2 * n * rho * (1 - rho) * f / (1 - f)
        enum_ok &= abs(exact_mixed(dist, (1, 3)) - m1 * m1
                       - n * rho * (1 - rho) * f * f) <= 1e-12
        enum_ok &= abs(mc.v0 - v0) <= 1e-9 * abs(v0)
        # v1 via the two-term geometric lag structure t_k = c1 f^k + c2 f^2k
        t1 = exact_mixed(dist, (1, 1, 2, 2)) - e12 * e12
        t2 = exact_mixed(dist, (1, 2, 2, 3)) - e12 * e12
        t3 = exact_mixed(dist, (1, 2, 3, 4)) - e12 * e12
        t4 = exact_mixed(dist, (1, 2, 4, 5)) - e12 * e12
        A = np.array([[f**2, f**4], [f**3, f**6]])
        c1, c2 = np.linalg.solve(A, np.array([t2, t3]))
        enum_ok &= abs(t4 - (c1 * f**4 + c2 * f**8)) <= 1e-11
        v1 = t1 + 2 * (c1 * f**2 / (1 - f) + c2 * f**4 / (1 - f * f))
        enum_ok &= abs(mc.v1 - v1) <= 1e-8 * abs(v1)
    detail.append(f"closed forms match exhaustive small-n enumeration: {enum_ok}")
    _report(5, cross_ok and enum_ok, "; ".join(detail))


def test_criterion_06_joint_law_correctness():
    models = {
        "geo/geo": GG,
        "par/par": ModelSpec(on_law=Pareto(1.0, 3.0), off_law=Pareto(1.0, 2.5), n=10),
        "wei/geo": ModelSpec(on_law=Weibull(1.0, 0.5), off_law=Geometric(0.7), n=10),
        "par/geo": ModelSpec(on_law=Pareto(2.0, 4.0), off_law=Geometric(0.7), n=10),
    }
    sums_ok = True
    for model in models.values():
        for K in range(1, 7):
            probs = joint_distribution(model, list(range(1, K + 1)))
            sums_ok &= abs(probs.sum() - 1.0) <= 1e-10 and probs.min() >= 0.0

    markov_ok = True
    for K in range(1, 7):
        ours = joint_distribution(GG, list(range(1, K + 1)))
        markov_ok &= np.max(np.abs(ours - geometric_markov_joint(GG, K))) <= 1e-10

    # Monte Carlo pattern frequencies: >= 10^6 edge-steps per model, 4 SE
    rng = np.random.default_rng(606)
    mc_ok = True
    worst = 0.0
    for name in ("par/par", "wei/geo"):
        model = models[name]
        wide = ModelSpec(on_law=model.on_law, off_law=model.off_law, n=2000)
        mats = [edge_indicator_matrix(wide, 3, rng) for _ in range(167)]
        mat = np.vstack(mats)  # 334000 patterns x 3 epochs > 1e6 edge-steps
        codes = mat[:, 0] * 1 + mat[:, 1] * 2 + mat[:, 2] * 4
        M = len(codes)
        probs = joint_distribution(model, [1, 2, 3])
        for s in range(8):
            freq = np.mean(codes == s)
            se = math.sqrt(probs[s] * (1 - probs[s]) / M)
            z = abs(freq - probs[s]) / se
            worst = max(worst, z)
            mc_ok &= z <= 4.0
    ok = sums_ok and markov_ok and mc_ok
    _report(6, ok,
            f"sums to 1 at K<=6 for all families: {sums_ok}; Markov products to "
            f"1e-10: {markov_ok}; MC frequencies (1e6 edge-steps, max |z|="
            f"{worst:.2f}) within 4 SE: {mc_ok}")


def test_criterion_07_subgraph_estimation():
    model = ModelSpec(on_law=Geometric(0.3), off_law=Geometric(0.8), N=20)
    devs = {}
    for kind, seed in (("triangles", 707), ("wedges", 708)):
        cfg = ExperimentConfig(model=model, kind=kind, K=10_000, R=100,
                               base_seed=seed, workers=1)
        summary = run_campaign(cfg)
        devs[kind] = abs(summary.means["p"] - 0.3)

    brute_ok = True
    for N in range(4, 9):
        m = ModelSpec(on_law=Geometric(0.3), off_law=Geometric(0.8), N=N)
        rho, u = m.rho, 0.7
        for kind in ("triangles", "wedges"):
            val = theoretical_moment_set(m, 2, kind).mu[1]
            ref = brute_subgraph_pair_moment(N, rho, u, kind)
            brute_ok &= abs(val - ref) <= 1e-10 * max(1.0, abs(ref))

    ok = devs["triangles"] <= 0.003 and devs["wedges"] <= 0.003 and brute_ok
    _report(7, ok,
            f"|mean p-0.3|: triangles={devs['triangles']:.5f}, "
            f"wedges={devs['wedges']:.5f} (<=0.003 each); "
            f"pair moments match brute force N<=8 to 1e-10: {brute_ok}")


def test_criterion_08_heavy_tail_autocovariance():
    model = ModelSpec(on_law=Pareto(1.0, 3.0), off_law=Geometric(0.5), n=2)
    gamma = autocovariance(model, 500)
    k = np.arange(50, 501)
    slope = np.polyfit(np.log(k), np.log(gamma[k - 1]), 1)[0]
    ok = -2.3 <= slope <= -1.7
    _report(8, ok, f"log-log slope of gamma(k - 1) over k in [50,500]: "
                   f"{slope:.3f} (in [-2.3,-1.7])")


def test_criterion_09_saddlepoint_sanity():
    n, rho = 100, GG.rho
    sd = math.sqrt(n * rho * (1 - rho))
    lo = math.ceil(n * rho - 2 * sd)
    hi = math.floor(n * rho + 2 * sd)
    worst = 0.0
    for n1 in range(lo, hi + 1):
        approx = saddlepoint_logprob(GG, [float(n1)], n)
        exact = binom.logpmf(n1, n, rho)
        worst = max(worst, abs(approx - exact))
    at_mean, _, _ = legendre_transform(GG, [n * rho], n)
    ok = worst <= 0.1 and at_mean <= 1e-8
    _report(9, ok, f"max |log saddlepoint - log binomial| over n1 in "
                   f"[{lo},{hi}]: {worst:.4f} (<=0.1); I(n rho)={at_mean:.2e} (<=1e-8)")


def test_criterion_10_campaign_determinism(tmp_path):
    outs = []
    for label, workers in (("w1", 1), ("w8", 8), ("w1b", 1)):
        cfg = ExperimentConfig(model=GG, K=2000, R=16, base_seed=1010,
                               workers=workers)
        emit_outputs(run_campaign(cfg), tmp_path / label)
        outs.append(tmp_path / label)
    same_workers = _dirs_equal(outs[0], outs[2])
    across_workers = _dirs_equal(outs[0], outs[1])
    ok = same_workers and across_workers
    _report(10, ok, f"byte-identical outputs: repeat run {same_workers}, "
                    f"1 vs 8 workers {across_workers}")
