import filecmp
import json
import multiprocessing
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from onoffgraph import cli, harness, moments, simulate
from onoffgraph.asymp import MomentCov, geometric_moment_cov
from onoffgraph.errors import ParameterError
from onoffgraph.harness import (
    CampaignSummary,
    ExperimentConfig,
    _qq_pairs,
    emit_outputs,
    infer_family,
    mix_seed,
    run_campaign,
)
from onoffgraph.laws import Geometric, Pareto, Weibull
from onoffgraph.simulate import ModelSpec

GG = ModelSpec(on_law=Geometric(0.3), off_law=Geometric(0.8), n=100)
# every command that reads a model config
CONFIG_COMMANDS = ["simulate", "campaign", "estimate", "cov", "check", "mgf"]


@pytest.fixture
def started(monkeypatch):
    """The children run_campaign starts, on two CPUs unless a test says otherwise.

    They fork, so that they inherit the test's monkeypatches.
    """
    started = []

    class RecordingProcess(multiprocessing.get_context("fork").Process):
        def start(self):
            started.append(self)
            super().start()

    monkeypatch.setattr(harness.multiprocessing, "Process", RecordingProcess)
    monkeypatch.setattr(harness.os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    return started


def _dirs_equal(a, b):
    names = sorted(p.name for p in a.iterdir())
    if names != sorted(p.name for p in b.iterdir()):
        return False
    return all(filecmp.cmp(a / n, b / n, shallow=False) for n in names)


class TestSeeds:
    def test_deterministic(self):
        assert mix_seed(42, 1) == mix_seed(42, 1)
        assert mix_seed(42, 1) != mix_seed(42, 2)
        assert mix_seed(42, 1) != mix_seed(43, 1)

    def test_spread(self):
        # adjacent indices land far apart: all 64-bit outputs distinct,
        # and the low 32 bits alone never collide over 10k draws
        seeds = [mix_seed(0, r) for r in range(10_000)]
        assert len(set(seeds)) == 10_000
        assert len({s & 0xFFFFFFFF for s in seeds}) == 10_000

    def test_range(self):
        for r in [0, 1, 2**40]:
            assert 0 <= mix_seed(123, r) < 2**64


class TestConfig:
    def test_family_inference(self):
        assert infer_family(GG) == "geometric_geometric"
        m = ModelSpec(on_law=Pareto(2.0, 4.0), off_law=Geometric(0.7), n=5)
        assert infer_family(m) == "pareto_geometric"
        m = ModelSpec(on_law=Geometric(0.7), off_law=Pareto(2.0, 4.0), n=5)
        with pytest.raises(ValueError):
            infer_family(m)

    def test_round_trip(self):
        cfg = ExperimentConfig(model=GG, K=500, R=7, base_seed=3)
        clone = ExperimentConfig.from_json(cfg.to_json())
        assert clone.to_json() == cfg.to_json()
        assert clone.param_names == ("p", "q")

    def test_subgraph_needs_a_two_lag_family(self):
        # every two-lag family fits subgraph counts; the three-lag pareto_geometric does not
        m = ModelSpec(on_law=Weibull(1.0, 0.5), off_law=Geometric(0.7), N=6)
        assert ExperimentConfig(model=m, kind="triangles").family == "weibull_geometric"
        m = ModelSpec(on_law=Pareto(2.0, 4.0), off_law=Geometric(0.7), N=6)
        for kind in ("triangles", "wedges"):
            with pytest.raises(ValueError, match="cannot fit"):
                ExperimentConfig(model=m, kind=kind)

    def test_validation(self):
        with pytest.raises(ValueError):
            ExperimentConfig(model=GG, R=0)
        with pytest.raises(ValueError):
            ExperimentConfig(model=GG, K=1)

    def test_whole_seed_and_workers_kept(self):
        # the largest seed mix_seed keeps whole; 2^64 would replay seed 0
        cfg = ExperimentConfig(model=GG, base_seed=2**64 - 1, workers=2.0)
        assert cfg.base_seed == 2**64 - 1
        assert cfg.workers == 2 and type(cfg.workers) is int
        # workers 0, or no workers key, means one process
        assert ExperimentConfig(model=GG, workers=0).workers == 1
        model_cfg = GG.to_config()
        for config in ({**model_cfg, "workers": 0}, model_cfg):
            assert ExperimentConfig.from_json(config).workers == 1


class TestCampaign:
    def test_single_replication(self):
        cfg = ExperimentConfig(model=GG, K=200, R=1, base_seed=5)
        summary = run_campaign(cfg)
        assert len(summary.rows) == 1
        assert summary.sds["p"] is None
        assert summary.means["p"] is not None

    def test_row_accounting(self):
        cfg = ExperimentConfig(model=GG, K=500, R=20, base_seed=9)
        summary = run_campaign(cfg)
        assert len(summary.rows) == 20
        assert [r["rep"] for r in summary.rows] == list(range(1, 21))
        for name in ("p", "q"):
            _, counts = summary.histograms[name]
            assert counts.sum() == 20 - summary.n_flagged

    def test_repeat_runs_identical(self, tmp_path):
        cfg = ExperimentConfig(model=GG, K=300, R=6, base_seed=11)
        for d in ("a", "b"):
            emit_outputs(run_campaign(
                ExperimentConfig(model=GG, K=300, R=6, base_seed=11)), tmp_path / d)
        assert _dirs_equal(tmp_path / "a", tmp_path / "b")

    def test_pool_is_bounded(self, monkeypatch, started):
        # min(workers, R, CPUs) - 1 children start, the calling process
        # running one share; the CPU count is os.cpu_count() where the
        # platform has no affinity mask
        monkeypatch.delattr(harness.os, "sched_getaffinity")
        want = run_campaign(ExperimentConfig(model=GG, K=200, R=3, base_seed=4)).rows
        for cpus, workers, R, children in ((2, 5000, 3, 1), (64, 5000, 3, 2), (64, 5000, 1, 0),
                                           (None, 5000, 3, 0), (64, 2, 3, 1)):
            monkeypatch.setattr(harness.os, "cpu_count", lambda: cpus)
            started.clear()
            cfg = ExperimentConfig(model=GG, K=200, R=R, base_seed=4, workers=workers)
            assert run_campaign(cfg).rows == want[:R]
            assert len(started) == children
        assert not multiprocessing.active_children()

    def test_pool_is_bounded_by_affinity(self, monkeypatch, started):
        # a process pinned to one CPU starts no child, however many the host has
        monkeypatch.setattr(harness.os, "sched_getaffinity", lambda pid: {0})
        monkeypatch.setattr(harness.os, "cpu_count", lambda: 64)
        serial = run_campaign(ExperimentConfig(model=GG, K=200, R=3, base_seed=4)).rows
        cfg = ExperimentConfig(model=GG, K=200, R=3, base_seed=4, workers=2)
        assert run_campaign(cfg).rows == serial
        assert started == []

    def test_worker_count_invariance(self, tmp_path):
        for d, workers in (("w1", 1), ("w2", 2)):
            cfg = ExperimentConfig(model=GG, K=300, R=6, base_seed=11, workers=workers)
            emit_outputs(run_campaign(cfg), tmp_path / d)
        assert _dirs_equal(tmp_path / "w1", tmp_path / "w2")

    def test_summary_json_shape(self):
        cfg = ExperimentConfig(model=GG, K=400, R=5, base_seed=2)
        body = run_campaign(cfg).to_json()
        assert body["R"] == 5
        assert set(body["params"]) == {"p", "q"}
        assert body["params"]["p"]["predicted_sd"] > 0

    @pytest.mark.filterwarnings("error::onoffgraph.asymp.DivergenceWarning")
    def test_predicted_sd_by_family(self):
        # two-lag edge families other than GG predict their sds at the mean
        # estimates; a mean Pareto index at or below 2 has infinite limits and
        # predicts none, with no DivergenceWarning
        for on, off in ((Pareto(1.0, 3.0), Pareto(1.0, 2.5)), (Weibull(1.0, 0.5), Geometric(0.7))):
            cfg = ExperimentConfig(model=ModelSpec(on_law=on, off_law=off, n=100), K=2000, R=4,
                                   base_seed=1)
            params = run_campaign(cfg).to_json()["params"]
            assert all(body["predicted_sd"] > 0 for body in params.values())
        heavy = ModelSpec(on_law=Pareto(1.0, 1.8), off_law=Pareto(1.0, 2.5), n=100)
        summary = run_campaign(ExperimentConfig(model=heavy, K=2000, R=4, base_seed=1))
        assert summary.means["alpha"] <= 2.0
        assert summary.to_json()["params"]["alpha"]["predicted_sd"] is None

    def test_flagged_replication(self):
        # K=2 pareto/pareto traces often produce incompatible moments; flags
        # must be recorded without aborting the campaign
        m = ModelSpec(on_law=Pareto(1.0, 3.0), off_law=Pareto(1.0, 2.5), n=3)
        cfg = ExperimentConfig(model=m, K=2, R=30, base_seed=1)
        summary = run_campaign(cfg)
        assert len(summary.rows) == 30
        assert summary.n_flagged == sum(1 for r in summary.rows if r["flags"])
        assert summary.n_flagged > 0

    def test_estimator_bug_fails_campaign(self, monkeypatch, started):
        # only compute errors are flagged; a programming error must propagate
        # with its type, from the calling process's share or from a child's
        caller, targets = os.getpid(), moments._first_lag_targets
        for workers, where in ((1, "caller"), (2, "child"), (2, "caller")):
            def broken(moms):
                if (os.getpid() == caller) == (where == "caller"):
                    raise TypeError("estimator bug")
                return targets(moms)

            monkeypatch.setattr(moments, "_first_lag_targets", broken)
            started.clear()
            cfg = ExperimentConfig(model=GG, K=200, R=2, base_seed=1, workers=workers)
            with pytest.raises(TypeError, match="estimator bug") as info:
                run_campaign(cfg)
            assert len(started) == workers - 1
            assert ("in campaign worker" in str(info.value.__cause__)) == (where == "child")
            assert not multiprocessing.active_children()

    def test_lost_child_fails_campaign(self, monkeypatch, started):
        # a child that exits without answering fails the campaign at once
        caller, replicate = os.getpid(), harness._run_replication

        def dies_in_child(task):
            if os.getpid() != caller:
                os._exit(3)
            return replicate(task)

        monkeypatch.setattr(harness, "_run_replication", dies_in_child)
        cfg = ExperimentConfig(model=GG, K=200, R=4, base_seed=1, workers=2)
        with pytest.raises(RuntimeError, match="exited with code 3"):
            run_campaign(cfg)
        assert len(started) == 1
        assert not multiprocessing.active_children()

    def test_spawned_children_match_serial(self):
        # the default start method on macOS and Windows: the child's entry
        # point and its batch pickle, and a 2-worker campaign keeps the rows
        script = "\n".join([
            "import multiprocessing, os",
            "from onoffgraph.harness import ExperimentConfig, run_campaign",
            "from onoffgraph import Geometric, ModelSpec",
            "multiprocessing.set_start_method('spawn')",
            "os.sched_getaffinity = lambda pid: {0, 1}",  # two CPUs on any host
            "gg = ModelSpec(on_law=Geometric(0.3), off_law=Geometric(0.8), n=100)",
            "rows = [run_campaign(ExperimentConfig(model=gg, K=200, R=4, base_seed=7,",
            "                                      workers=w)).rows for w in (1, 2)]",
            "assert rows[0] == rows[1], rows",
            "assert not multiprocessing.active_children()",
        ])
        res = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                             timeout=120)
        assert res.returncode == 0, res.stderr

    def test_qq_slope_near_one(self):
        # estimates are asymptotically normal: central QQ slope close to 1
        cfg = ExperimentConfig(model=GG, K=2000, R=100, base_seed=17)
        summary = run_campaign(cfg)
        theo, sample = summary.qq["p"]
        keep = (theo > np.quantile(theo, 0.025)) & (theo < np.quantile(theo, 0.975))
        slope = np.polyfit(theo[keep], sample[keep], 1)[0]
        assert 0.9 <= slope <= 1.1


class TestOutputs:
    def test_files_and_contents(self, tmp_path):
        cfg = ExperimentConfig(model=GG, K=300, R=8, base_seed=4)
        summary = run_campaign(cfg)
        written = emit_outputs(summary, tmp_path / "out")
        names = {p.name for p in written}
        assert names == {"estimates.csv", "summary.json",
                         "hist_p.csv", "hist_q.csv", "qq_p.csv", "qq_q.csv"}

        lines = (tmp_path / "out" / "estimates.csv").read_text().splitlines()
        assert lines[0] == "rep,seed,p,q,flags"
        assert len(lines) == 1 + 8
        first = lines[1].split(",")
        assert int(first[0]) == 1
        assert int(first[1]) == mix_seed(4, 1)
        assert float(first[2]) == summary.rows[0]["params"]["p"]

        body = json.loads((tmp_path / "out" / "summary.json").read_text())
        assert body["params"]["p"]["mean"] == summary.means["p"]

        hist = (tmp_path / "out" / "hist_p.csv").read_text().splitlines()
        assert hist[0] == "bin_left,bin_right,count"
        assert len(hist) >= 11  # at least ten bins
        assert sum(int(r.split(",")[2]) for r in hist[1:]) == 8 - summary.n_flagged

        qq = (tmp_path / "out" / "qq_p.csv").read_text().splitlines()
        assert qq[0] == "theoretical_quantile,sample_quantile"
        assert len(qq) == 1 + 8

    def test_qq_quantiles_match_norm_ppf(self):
        # ndtri is scipy.stats.norm.ppf at loc 0, scale 1, so qq_*.csv bytes are unchanged
        from scipy.stats import norm
        rng = np.random.default_rng(0)
        for R in range(2, 501):
            theo, _ = _qq_pairs(rng.standard_normal(R))
            assert np.array_equal(theo, norm.ppf((np.arange(1, R + 1) - 0.5) / R))


# `onoffgraph cov` bodies at n = 100, exact to the bit under numpy 2.4.6 and
# scipy 1.17.1: GG(0.05, 0.9) gives tau2 = 0.9168, as q_hat also moves with
# mu_hat(0); pareto/geometric is a three-lag family, so it has no param_cov.
# GG takes the series route too, checked against geometric_moment_cov below
COV_PINS = [
    ({"kind": "geometric", "p": 0.3}, {"kind": "geometric", "p": 0.8}, {
        "moment_cov": {"c01": 2362.1337340345594, "converged": True, "k_used": 64,
                       "method": "general_series", "tail_correction": [0.0, 0.0, 0.0],
                       "tail_error": 3.442341949320385e-08, "v0": 16.22839969947407,
                       "v1": 344234.19493203843},
        "param_cov": {"rho_cov": 0.2062611570239779, "sigma2": 0.08023543388399301,
                      "tau2": 0.5558964187305995}}),
    ({"kind": "geometric", "p": 0.05}, {"kind": "geometric", "p": 0.9}, {
        "moment_cov": {"c01": 1043.7212728570223, "converged": True, "k_used": 64,
                       "method": "general_series", "tail_correction": [0.0, 0.0, 0.0],
                       "tail_error": 1.9769412612477092e-08, "v0": 5.511007435486222,
                       "v1": 197694.1261247709},
        "param_cov": {"rho_cov": 0.04998115405474077, "sigma2": 0.003278119669705722,
                      "tau2": 0.9167607729860043}}),
    ({"kind": "pareto", "C": 1.0, "alpha": 3.0},
     {"kind": "pareto", "C": 1.0, "alpha": 2.5}, {
        "moment_cov": {"c01": 2385.2379869174647, "converged": True, "k_used": 1024,
                       "method": "general_series",
                       "tail_correction": [0.0, 6.738726487682903e-05, 0.0],
                       "tail_error": 2.2782657447773085e-08, "v0": 25.326636164380112,
                       "v1": 227826.57447773084},
        "param_cov": {"rho_cov": 43.1553546980562, "sigma2": 76.01724020614071,
                      "tau2": 24.987744620147385}}),
    ({"kind": "weibull", "lambda": 1.0, "alpha": 0.5}, {"kind": "geometric", "p": 0.7}, {
        "moment_cov": {"c01": 8343.3323904925, "converged": True, "k_used": 1024,
                       "method": "general_series", "tail_correction": [0.0, 0.0, 0.0],
                       "tail_error": 1.0905044449657323e-07, "v0": 63.891162066679335,
                       "v1": 1090504.4449657323},
        "param_cov": {"rho_cov": 0.40030267701818045, "sigma2": 0.2143842564759438,
                      "tau2": 0.8046737241745313}}),
    ({"kind": "pareto", "C": 2.0, "alpha": 4.0}, {"kind": "geometric", "p": 0.7}, {
        "moment_cov": {"c01": 1231.5035131387456, "converged": True, "k_used": 1024,
                       "method": "general_series", "tail_correction": [0.0, 0.0, 0.0],
                       "tail_error": 1.1992840485072403e-08, "v0": 12.81493253232454,
                       "v1": 119928.40485072404}}),
]


class TestCli:
    def _run(self, *args):
        return subprocess.run([sys.executable, "-m", "onoffgraph.cli", *args],
                              capture_output=True, text=True)

    def _write_cfg(self, tmp_path, cfg):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        return str(path)

    def test_usage_error_exit_1(self):
        assert self._run().returncode == 1
        assert self._run("frobnicate").returncode == 1
        assert self._run("campaign", "--out", "x").returncode == 1  # no --config

    def test_compute_error_exit_2(self, tmp_path):
        cfg = self._write_cfg(tmp_path, {
            "on": {"kind": "pareto", "C": 1.0, "alpha": 1.5},
            "off": {"kind": "geometric", "p": 0.5}, "n": 5})
        res = self._run("cov", "--config", cfg)
        assert res.returncode == 2
        body = json.loads(res.stdout)
        assert body["error"] == "InfiniteMeanError"

    def test_unconverged_cov_exit_2(self, tmp_path, monkeypatch, capsys):
        gg = self._write_cfg(tmp_path, {
            "on": {"kind": "geometric", "p": 0.3},
            "off": {"kind": "geometric", "p": 0.8}, "n": 100})
        assert cli.main(["cov", "--config", gg]) == 0
        converged = json.loads(capsys.readouterr().out)["moment_cov"]
        assert converged["converged"] is True
        assert converged["method"] == "general_series"
        # a stub pins the exit path; real models land on either side of the
        # tolerance only through their fitted tails
        partial = MomentCov(np.array([[1.0, 0.5], [0.5, 2.0]]), converged=False,
                            k_used=1024, tail_error=1.0)
        monkeypatch.setattr(cli, "general_moment_cov", lambda model, n: partial)
        assert cli.main(["cov", "--config", gg]) == 2
        assert json.loads(capsys.readouterr().out)["error"] == "ConvergenceError"

    def test_cov_param_cov_by_law_types(self, tmp_path, capsys):
        # every two-lag family at its unit scale reports the delta-method
        # covariance; each body is pinned to the bit
        for on, off, want in COV_PINS:
            cfg = self._write_cfg(tmp_path, {"on": on, "off": off, "n": 100})
            assert cli.main(["cov", "--config", cfg]) == 0
            assert json.loads(capsys.readouterr().out) == want
            if on["kind"] == off["kind"] == "geometric":
                mc = geometric_moment_cov(100, on["p"], off["p"]).to_json()
                for key in ("v0", "v1", "c01"):
                    assert abs(want["moment_cov"][key] - mc[key]) <= 1e-12 * abs(mc[key])
        # pareto/geometric is a three-lag family, and Pareto(2, 3) is off the unit scale
        for on, off in (({"kind": "pareto", "C": 2.0, "alpha": 4.0},
                         {"kind": "geometric", "p": 0.7}),
                        ({"kind": "pareto", "C": 2.0, "alpha": 3.0},
                         {"kind": "pareto", "C": 1.0, "alpha": 2.5})):
            cfg = self._write_cfg(tmp_path, {"on": on, "off": off, "n": 100})
            assert cli.main(["cov", "--config", cfg]) == 0
            assert set(json.loads(capsys.readouterr().out)) == {"moment_cov"}

    @pytest.mark.parametrize("off", [{"kind": "geometric", "p": 0.5},
                                     {"kind": "pareto", "C": 1.0, "alpha": 2.5}],
                             ids=["pareto_geo", "pareto_pareto"])
    def test_cov_general_pareto(self, tmp_path, off):
        alpha = 4.0 if off["kind"] == "geometric" else 3.0
        cfg = self._write_cfg(tmp_path, {
            "on": {"kind": "pareto", "C": 1.0, "alpha": alpha}, "off": off, "n": 100})
        res = self._run("cov", "--config", cfg)
        assert res.returncode == 0, res.stdout + res.stderr
        mc = json.loads(res.stdout)["moment_cov"]
        assert mc["converged"] is True
        assert mc["k_used"] > 0
        assert len(mc["tail_correction"]) == 3
        assert mc["tail_correction"][0] == mc["tail_correction"][2] == 0.0
        if off["kind"] == "pareto":
            # increments decaying like k^-3 stand above the floor at K0
            assert mc["tail_correction"][1] > 0
        assert 0.0 < mc["tail_error"] <= 1e-6 * max(mc["v0"], mc["v1"], abs(mc["c01"]))

    def test_simulate_then_estimate(self, tmp_path):
        cfg = self._write_cfg(tmp_path, {
            "on": {"kind": "geometric", "p": 0.3},
            "off": {"kind": "geometric", "p": 0.8}, "n": 100})
        trace = str(tmp_path / "trace.csv")
        res = self._run("simulate", "--config", cfg, "--k", "5000",
                        "--seed", "3", "--out", trace)
        assert res.returncode == 0
        res = self._run("estimate", "--config", cfg, "--trace", trace)
        assert res.returncode == 0
        body = json.loads(res.stdout)
        assert abs(body["params"]["p"] - 0.3) < 0.1

    def test_estimate_takes_n_from_config(self, tmp_path):
        # without its sidecar the trace's n comes from the config, not max(values)
        gg = {"on": {"kind": "geometric", "p": 0.3},
              "off": {"kind": "geometric", "p": 0.8}, "n": 100}
        cfg = self._write_cfg(tmp_path, gg)
        trace = tmp_path / "trace.csv"
        res = self._run("simulate", "--config", cfg, "--k", "2000",
                        "--seed", "3", "--out", str(trace))
        assert res.returncode == 0
        wrong = str(tmp_path / "wrong.json")
        Path(wrong).write_text(json.dumps({**gg, "n": 50}))
        res = self._run("estimate", "--config", wrong, "--trace", str(trace))
        assert res.returncode == 2
        assert json.loads(res.stdout)["error"] == "TraceMismatchError"

        Path(str(trace) + ".meta.json").unlink()
        res = self._run("estimate", "--config", cfg, "--trace", str(trace))
        assert res.returncode == 0
        body = json.loads(res.stdout)
        assert body["flags"] == []
        assert abs(body["params"]["p"] - 0.3) < 0.1

    def test_estimate_takes_kind_from_config(self, tmp_path):
        # without its sidecar a triangle trace is still fitted as triangles
        cfg = self._write_cfg(tmp_path, {
            "on": {"kind": "geometric", "p": 0.3},
            "off": {"kind": "geometric", "p": 0.8}, "N": 8, "kind": "triangles"})
        trace = tmp_path / "tri.csv"
        res = self._run("simulate", "--config", cfg, "--k", "1000",
                        "--seed", "2", "--out", str(trace))
        assert res.returncode == 0
        Path(str(trace) + ".meta.json").unlink()
        res = self._run("estimate", "--config", cfg, "--trace", str(trace))
        assert res.returncode == 0
        body = json.loads(res.stdout)
        assert body["diagnostics"]["observable"] == "triangles"
        assert body["flags"] == []
        assert abs(body["params"]["p"] - 0.3) < 0.1

        edges = str(tmp_path / "edges.json")
        Path(edges).write_text(json.dumps({**json.loads(Path(cfg).read_text()),
                                           "kind": "edges"}))
        res = self._run("simulate", "--config", cfg, "--k", "100", "--out", str(trace))
        assert res.returncode == 0  # the sidecar now records kind=triangles
        res = self._run("estimate", "--config", edges, "--trace", str(trace))
        assert res.returncode == 2
        assert json.loads(res.stdout)["error"] == "TraceMismatchError"

    def test_cut_trace_exit_2(self, tmp_path, capsys):
        cfg = self._write_cfg(tmp_path, {
            "on": {"kind": "geometric", "p": 0.3},
            "off": {"kind": "geometric", "p": 0.8}, "n": 100})
        trace = tmp_path / "trace.csv"
        assert cli.main(["simulate", "--config", cfg, "--k", "1000", "--out", str(trace)]) == 0
        trace.write_text("".join(trace.read_text().splitlines(keepends=True)[:301]))
        capsys.readouterr()
        assert cli.main(["estimate", "--config", cfg, "--trace", str(trace)]) == 2
        assert json.loads(capsys.readouterr().out)["error"] == "TraceMismatchError"

    @pytest.mark.parametrize("text", ["", "k,value\n1,3\n2\n", "k,value\n1,3\n2,99999999999999999999\n",
                                      "k,value\n1,-3\n", "k,value\n1,3\n2,101\n"],
                             ids=["empty", "short_row", "past_int64", "negative", "above_n"])
    def test_malformed_trace_exit_2(self, tmp_path, text):
        cfg = self._write_cfg(tmp_path, {
            "on": {"kind": "geometric", "p": 0.3},
            "off": {"kind": "geometric", "p": 0.8}, "n": 100})
        trace = tmp_path / "trace.csv"
        trace.write_text(text)
        res = self._run("estimate", "--config", cfg, "--trace", str(trace))
        assert res.returncode == 2
        assert "Traceback" not in res.stderr
        body = json.loads(res.stdout)
        assert body["error"] == "ValueError" and "trace.csv, line" in body["message"]

    def test_closed_pipe_is_not_an_error(self, tmp_path):
        # `onoffgraph estimate ... | head -1`, with the reader gone before any write
        cfg = self._write_cfg(tmp_path, {
            "on": {"kind": "geometric", "p": 0.3},
            "off": {"kind": "geometric", "p": 0.8}, "n": 100})
        trace = str(tmp_path / "trace.csv")
        assert self._run("simulate", "--config", cfg, "--k", "500", "--out", trace).returncode == 0
        proc = subprocess.Popen(
            [sys.executable, "-m", "onoffgraph.cli", "estimate", "--config", cfg,
             "--trace", trace], stdout=subprocess.PIPE, stderr=subprocess.PIPE)
        proc.stdout.close()
        stderr = proc.stderr.read().decode()
        assert proc.wait(timeout=60) == 0
        assert "Traceback" not in stderr and "BrokenPipeError" not in stderr

    def test_estimate_refuses_what_campaign_refuses(self, tmp_path):
        # a family without subgraph support fails the same way in both commands
        cfg = self._write_cfg(tmp_path, {
            "on": {"kind": "pareto", "C": 2.0, "alpha": 4.0},
            "off": {"kind": "geometric", "p": 0.7},
            "N": 6, "kind": "triangles"})
        trace = str(tmp_path / "tri.csv")
        res = self._run("simulate", "--config", cfg, "--k", "200",
                        "--seed", "1", "--out", trace)
        assert res.returncode == 0
        est = self._run("estimate", "--config", cfg, "--trace", trace)
        camp = self._run("campaign", "--config", cfg, "--k", "200", "--reps", "2",
                         "--out", str(tmp_path / "camp"))
        assert est.returncode == camp.returncode == 2
        assert json.loads(est.stdout) == json.loads(camp.stdout)
        assert json.loads(est.stdout)["error"] == "ValueError"

    def test_pareto_pareto_triangle_campaign(self, tmp_path, capsys):
        # a two-lag family other than geometric/geometric fits triangle counts
        cfg = self._write_cfg(tmp_path, {
            "on": {"kind": "pareto", "C": 1.0, "alpha": 3.0},
            "off": {"kind": "pareto", "C": 1.0, "alpha": 2.5},
            "N": 8, "kind": "triangles"})
        out = tmp_path / "camp"
        assert cli.main(["campaign", "--config", cfg, "--k", "2000", "--reps", "3",
                         "--seed", "1", "--out", str(out)]) == 0
        body = json.loads(capsys.readouterr().out)
        assert set(body["params"]) == {"alpha", "beta"}
        assert body["n_flagged"] < 3 and body["params"]["beta"]["mean"] > 1.0
        assert body["params"]["alpha"]["predicted_sd"] is None
        header = (out / "estimates.csv").read_text().splitlines()[0]
        assert header == "rep,seed,alpha,beta,flags"

    def test_campaign_files(self, tmp_path):
        cfg = self._write_cfg(tmp_path, {
            "on": {"kind": "geometric", "p": 0.3},
            "off": {"kind": "geometric", "p": 0.8}, "n": 100})
        out = tmp_path / "camp"
        res = self._run("campaign", "--config", cfg, "--k", "300",
                        "--reps", "4", "--seed", "1", "--out", str(out))
        assert res.returncode == 0
        assert (out / "estimates.csv").exists()
        assert (out / "summary.json").exists()
        body = json.loads(res.stdout)
        assert body["R"] == 4

    def test_check_command(self, tmp_path):
        cfg = self._write_cfg(tmp_path, {
            "on": {"kind": "pareto", "C": 1.0, "alpha": 3.0},
            "off": {"kind": "pareto", "C": 1.0, "alpha": 2.5}, "n": 5})
        res = self._run("check", "--config", cfg)
        assert res.returncode == 0
        assert json.loads(res.stdout)["finite"] is True

    def test_import_footprint(self):
        # the CLI loads none of these scipy modules; scipy.special and
        # scipy.linalg load at their first use, and no fit loads scipy.optimize
        script = "\n".join([
            "import sys",
            "import numpy as np",
            "import onoffgraph.cli",
            "heavy = [m for m in ('scipy.stats', 'scipy.optimize', 'scipy.special', 'scipy.linalg')",
            "         if m in sys.modules]",
            "assert not heavy, heavy",
            "assert 'concurrent.futures' not in sys.modules and 'logging' not in sys.modules",
            "from onoffgraph import (Geometric, ModelSpec, Pareto, Weibull, fit,",
            "                        theoretical_moment_set)",
            "assert abs(Pareto.shape_for_mean(2.0) - 1.7286472389981836) < 1e-9",
            "assert abs(Weibull.shape_for_mean(2.0) - 0.6519837463611663) < 1e-9",
            "m = ModelSpec(on_law=Geometric(0.3), off_law=Geometric(0.8), N=20)",
            "r = fit(theoretical_moment_set(m, 2, 'triangles'), 'geometric_geometric')",
            "assert abs(r.params['p'] - 0.3) < 1e-8 and abs(r.params['q'] - 0.8) < 1e-8",
            "for on, off, family in ((Pareto(1.0, 3.0), Pareto(1.0, 2.5), 'pareto_pareto'),",
            "                        (Weibull(1.0, 0.5), Geometric(0.7), 'weibull_geometric'),",
            "                        (Pareto(2.0, 4.0), Geometric(0.7), 'pareto_geometric')):",
            "    exact = theoretical_moment_set(ModelSpec(on_law=on, off_law=off, n=100), 3)",
            "    assert fit(exact, family).ok",
            "assert 'scipy.optimize' not in sys.modules and 'scipy.stats' not in sys.modules",
            "from onoffgraph import Pareto, saddlepoint_logprob",
            "assert abs(Pareto(1.0, 3.0).mean() - 1.2020569031595942) < 1e-12",  # zeta(3)
            "gg = ModelSpec(on_law=Geometric(0.3), off_law=Geometric(0.8), n=100)",
            "assert np.isfinite(saddlepoint_logprob(gg, np.full(10, 73.0), 100))",
            "assert 'scipy.special' in sys.modules and 'scipy.linalg' in sys.modules",
        ])
        res = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True)
        assert res.returncode == 0, res.stderr

    @pytest.mark.parametrize("count,code", [({"n": 100.0}, 0), ({"n": 100.5}, 2),
                                            ({"n": True}, 2), ({"N": 10.5}, 2)],
                             ids=["100.0", "100.5", "true", "N10.5"])
    @pytest.mark.parametrize("command", ["simulate", "cov"])
    def test_edge_count_must_be_whole(self, tmp_path, capsys, count, code, command):
        cfg = self._write_cfg(tmp_path, {
            "on": {"kind": "geometric", "p": 0.3},
            "off": {"kind": "geometric", "p": 0.8}, **count})
        args = (["simulate", "--k", "50", "--out", str(tmp_path / "t.csv")]
                if command == "simulate" else ["cov"])
        assert cli.main([*args, "--config", cfg]) == code
        if code == 2:
            assert json.loads(capsys.readouterr().out)["error"] == "ParameterError"

    @pytest.mark.parametrize("command,sizes,code", [
        ("simulate", {"K": 300.0}, 0), ("simulate", {"K": 300.5}, 2),
        ("simulate", {"K": True}, 2), ("simulate", {"K": -5}, 2),
        ("campaign", {"K": 300.0}, 0), ("campaign", {"K": 300.5}, 2),
        ("campaign", {"K": True}, 2), ("campaign", {"reps": 2.5}, 2),
        ("campaign", {"reps": True}, 2), ("campaign", {"seed": 1.5}, 2),
        ("campaign", {"seed": -3}, 2), ("campaign", {"seed": 2**64}, 2),
        ("campaign", {"workers": "2"}, 2), ("campaign", {"workers": True}, 2),
        ("campaign", {"workers": -1}, 2)],
        ids=["simulate-K300.0", "simulate-K300.5", "simulate-Ktrue", "simulate-K-5",
             "campaign-K300.0", "campaign-K300.5", "campaign-Ktrue", "campaign-reps2.5",
             "campaign-repstrue", "campaign-seed1.5", "campaign-seed-3", "campaign-seed2^64",
             "campaign-workers'2'", "campaign-workerstrue", "campaign-workers-1"])
    def test_length_and_reps_must_be_whole(self, tmp_path, capsys, command, sizes, code):
        cfg = self._write_cfg(tmp_path, {
            "on": {"kind": "geometric", "p": 0.3},
            "off": {"kind": "geometric", "p": 0.8}, "n": 20, "reps": 2, **sizes})
        out = tmp_path / "out"
        assert cli.main([command, "--config", cfg, "--out", str(out)]) == code
        body = json.loads(capsys.readouterr().out)
        if code == 2:
            assert body["error"] == "ParameterError"
            assert not out.exists()
        elif command == "simulate":
            assert body["K"] == 300 and type(body["K"]) is int
            assert len(out.read_text().splitlines()) == 301
        else:
            assert body["config"]["K"] == 300 and body["R"] == 2

    @pytest.mark.parametrize("theta,message", [("nan,0", "finite or -inf"),
                                               ("inf,0", "finite or -inf"),
                                               ("800,0", "overflows")],
                             ids=["nan", "inf", "overflow"])
    def test_mgf_output_is_json(self, tmp_path, capsys, theta, message):
        # NaN and Infinity are no JSON tokens: such a tilt or M is an error body
        cfg = self._write_cfg(tmp_path, {
            "on": {"kind": "geometric", "p": 0.3},
            "off": {"kind": "geometric", "p": 0.8}, "n": 100})
        assert cli.main(["mgf", "--config", cfg, f"--theta={theta}"]) == 2
        body = json.loads(capsys.readouterr().out)
        assert body["error"] == "ValueError" and message in body["message"]
        assert cli.main(["mgf", "--config", cfg, "--theta=-inf,0"]) == 0
        assert json.loads(capsys.readouterr().out)["mgf"] == pytest.approx(1 - GG.rho, rel=1e-12)

    @pytest.mark.parametrize("flag", ["--theta=abc", "--epochs=1,x"], ids=["theta", "epochs"])
    def test_mgf_malformed_exit_1(self, tmp_path, capsys, flag):
        # an entry that is no number is a usage error, not a computational one
        cfg = self._write_cfg(tmp_path, {
            "on": {"kind": "geometric", "p": 0.3},
            "off": {"kind": "geometric", "p": 0.8}, "n": 100})
        with pytest.raises(SystemExit) as exit_info:
            cli.main(["mgf", "--config", cfg, flag])
        assert exit_info.value.code == 1
        captured = capsys.readouterr()
        assert captured.out == "" and "invalid comma-separated" in captured.err

    def test_simulate_k_zero(self, tmp_path, capsys):
        # --k 0 is a length, not "unset": refused as campaign --k 0 is
        cfg = self._write_cfg(tmp_path, {
            "on": {"kind": "geometric", "p": 0.3},
            "off": {"kind": "geometric", "p": 0.8}, "n": 100})
        out = tmp_path / "t.csv"
        assert cli.main(["simulate", "--config", cfg, "--k", "0", "--out", str(out)]) == 2
        assert json.loads(capsys.readouterr().out)["error"] == "ValueError"
        assert not out.exists()

    @pytest.mark.parametrize("command", ["simulate", "campaign"])
    def test_out_of_memory_exit_2(self, tmp_path, capsys, monkeypatch, command):
        # a K past this machine's memory fails the simulator's first allocation;
        # a stub raises it here, so nothing that large is ever allocated
        def no_memory(model, K, rng):
            raise MemoryError()

        monkeypatch.setattr(simulate, "simulate_edge_trace", no_memory)
        cfg = self._write_cfg(tmp_path, {
            "on": {"kind": "geometric", "p": 0.3},
            "off": {"kind": "geometric", "p": 0.8}, "n": 20, "reps": 2, "workers": 1})
        out = tmp_path / "out"
        assert cli.main([command, "--config", cfg, "--k", str(10**15), "--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert json.loads(captured.out) == {"error": "MemoryError", "message": "out of memory"}
        assert "Traceback" not in captured.err
        assert not out.exists()

    @pytest.mark.parametrize("kind", ["triangles", "wedges"])
    def test_simulate_graph_k_zero(self, tmp_path, capsys, kind):
        cfg = self._write_cfg(tmp_path, {
            "on": {"kind": "geometric", "p": 0.3},
            "off": {"kind": "geometric", "p": 0.8}, "N": 9, "kind": kind})
        out = tmp_path / "t.csv"
        assert cli.main(["simulate", "--config", cfg, "--k", "0", "--out", str(out)]) == 2
        body = json.loads(capsys.readouterr().out)
        assert body["error"] == "ValueError" and "K must be >= 1" in body["message"]
        assert not out.exists()

    def test_campaign_refuses_oversized_graph(self, tmp_path, capsys):
        # N = 1,000 at K = 10^5: 50 GB of indicators, refused before any draw
        cfg = self._write_cfg(tmp_path, {
            "on": {"kind": "geometric", "p": 0.3},
            "off": {"kind": "geometric", "p": 0.8}, "N": 1000, "kind": "triangles"})
        out = tmp_path / "camp"
        assert cli.main(["campaign", "--config", cfg, "--k", "100000", "--reps", "1",
                         "--out", str(out)]) == 2
        body = json.loads(capsys.readouterr().out)
        assert body["error"] == "ParameterError" and "bytes" in body["message"]
        assert not out.exists()

    def test_package_runs_as_module(self, tmp_path):
        # `python -m onoffgraph` from a source checkout, with src/ on the path
        cfg = self._write_cfg(tmp_path, {
            "on": {"kind": "geometric", "p": 0.3},
            "off": {"kind": "geometric", "p": 0.8}, "n": 100})
        env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).parents[1])}
        res = subprocess.run([sys.executable, "-m", "onoffgraph", "check", "--config", cfg],
                             capture_output=True, text=True, env=env, cwd=tmp_path)
        assert res.returncode == 0, res.stderr
        assert json.loads(res.stdout)["finite"] is True
        res = subprocess.run([sys.executable, "-m", "onoffgraph"],
                             capture_output=True, text=True, env=env, cwd=tmp_path)
        assert res.returncode == 1 and "usage: onoffgraph" in res.stderr

    @pytest.mark.parametrize("cfg,code,commands", [
        ([{"kind": "geometric", "p": 0.3}], 1, CONFIG_COMMANDS),
        ("geometric", 1, CONFIG_COMMANDS),
        ({"on": "geometric"}, 1, CONFIG_COMMANDS),
        ({"on": None}, 1, CONFIG_COMMANDS),
        ({"on": {"kind": "geometric"}}, 1, CONFIG_COMMANDS),
        ({"on": {"kind": "geometric", "p": [0.3]}}, 2, CONFIG_COMMANDS),
        ({"on": {"kind": "geometric", "p": None}}, 2, CONFIG_COMMANDS),
        ({"on": {"kind": "geometric", "p": "0.3"}}, 2, CONFIG_COMMANDS),
        ({"on": {"kind": "geometric", "p": 10**400}}, 2, CONFIG_COMMANDS),
        ({"on": {"kind": "pareto", "C": float("nan"), "alpha": 3.0}}, 2, CONFIG_COMMANDS),
        ({"on": {"kind": "pareto", "C": 1.0, "alpha": float("nan")}}, 2, CONFIG_COMMANDS),
        ({"on": {"kind": "pareto", "C": float("inf"), "alpha": 3.0}}, 2, CONFIG_COMMANDS),
        ({"on": {"kind": "pareto", "C": True, "alpha": 3.0}}, 2, CONFIG_COMMANDS),
        ({"on": {"kind": "pareto", "C": -1.0, "alpha": 3.0}}, 2, CONFIG_COMMANDS),
        ({"on": {"kind": "weibull", "lambda": float("inf"), "alpha": 1.0}}, 2, CONFIG_COMMANDS),
        ({"on": {"kind": "weibull", "lambda": 1.0, "alpha": float("inf")}}, 2, CONFIG_COMMANDS),
        ({"on": {"kind": "weibull", "lambda": True, "alpha": 1.0}}, 2, CONFIG_COMMANDS),
        ({"n": 10**400}, 2, CONFIG_COMMANDS),
        ({"n": -1}, 2, CONFIG_COMMANDS),
        ({"kind": ["edges"]}, 2, ["simulate", "campaign", "estimate"]),
        ({"family": ["geometric_geometric"]}, 2, ["campaign", "estimate"])],
        ids=["list", "text", "on_text", "on_null", "p_missing", "p_list", "p_null", "p_text",
             "p_huge", "C_nan", "alpha_nan", "C_inf", "C_true", "C_negative", "lambda_inf",
             "weibull_alpha_inf", "lambda_true", "n_huge", "n_negative", "kind_list",
             "family_list"])
    def test_malformed_config_is_refused(self, tmp_path, capsys, cfg, code, commands):
        # no traceback: exit 1 as a bad config, or exit 2 with a JSON body
        good = {"on": {"kind": "geometric", "p": 0.3},
                "off": {"kind": "geometric", "p": 0.8}, "n": 10}
        trace = tmp_path / "t.csv"
        simulate.save_trace(simulate.simulate_trace(
            ModelSpec.from_config(good), 20, np.random.default_rng(0)), trace)
        path = self._write_cfg(tmp_path, {**good, **cfg} if isinstance(cfg, dict) else cfg)
        args = {"simulate": ["--k", "20", "--out", str(tmp_path / "o.csv")],
                "campaign": ["--k", "20", "--reps", "2", "--workers", "1",
                             "--out", str(tmp_path / "out")],
                "estimate": ["--trace", str(trace)], "mgf": ["--theta", "0,0"]}
        for command in commands:
            capsys.readouterr()
            assert cli.main([command, "--config", path, *args.get(command, [])]) == code
            captured = capsys.readouterr()
            if code == 2:
                assert set(json.loads(captured.out)) == {"error", "message"}
            else:
                assert "bad config" in captured.err and not captured.out
            assert not (tmp_path / "o.csv").exists() and not (tmp_path / "out").exists()

    def test_weibull_config_keys(self, tmp_path):
        # the Weibull config as the README writes it; a missing key is named
        weibull = {"on": {"kind": "weibull", "lambda": 1.0, "alpha": 0.5},
                   "off": {"kind": "geometric", "p": 0.7}, "n": 100}
        res = self._run("check", "--config", self._write_cfg(tmp_path, weibull))
        assert res.returncode == 0
        weibull["on"] = {"kind": "weibull", "lam": 1.0, "alpha": 0.5}
        res = self._run("check", "--config", self._write_cfg(tmp_path, weibull))
        assert res.returncode == 1
        assert "weibull" in res.stderr and "'lambda'" in res.stderr
