import dataclasses
import filecmp
import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from onoffgraph import cli
from onoffgraph.asymp import MomentCov
from onoffgraph.harness import (
    CampaignSummary,
    ExperimentConfig,
    emit_outputs,
    infer_family,
    mix_seed,
    run_campaign,
)
from onoffgraph.laws import Geometric, Pareto, Weibull
from onoffgraph.moments import FAMILIES
from onoffgraph.simulate import ModelSpec

GG = ModelSpec(on_law=Geometric(0.3), off_law=Geometric(0.8), n=100)


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

    def test_subgraph_requires_geometric(self):
        m = ModelSpec(on_law=Weibull(1.0, 0.5), off_law=Geometric(0.7), N=6)
        with pytest.raises(ValueError):
            ExperimentConfig(model=m, kind="triangles")

    def test_validation(self):
        with pytest.raises(ValueError):
            ExperimentConfig(model=GG, R=0)
        with pytest.raises(ValueError):
            ExperimentConfig(model=GG, K=1)

    def test_env_workers(self, monkeypatch):
        monkeypatch.setenv("RG_WORKERS", "3")
        assert ExperimentConfig(model=GG, workers=0).workers == 3
        monkeypatch.delenv("RG_WORKERS")
        assert ExperimentConfig(model=GG, workers=0).workers == 1


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
        assert "wall_clock" not in json.dumps(body)

    def test_flagged_replication(self):
        # K=2 pareto/pareto traces often produce incompatible moments; flags
        # must be recorded without aborting the campaign
        m = ModelSpec(on_law=Pareto(1.0, 3.0), off_law=Pareto(1.0, 2.5), n=3)
        cfg = ExperimentConfig(model=m, K=2, R=30, base_seed=1)
        summary = run_campaign(cfg)
        assert len(summary.rows) == 30
        assert summary.n_flagged == sum(1 for r in summary.rows if r["flags"])
        assert summary.n_flagged > 0

    def test_estimator_bug_fails_campaign(self, monkeypatch):
        # only compute errors are flagged; a programming error must propagate
        def broken(moms):
            raise TypeError("estimator bug")

        entry = FAMILIES["geometric_geometric"]
        entry = dataclasses.replace(entry, estimators={**entry.estimators, "edges": broken})
        monkeypatch.setitem(FAMILIES, "geometric_geometric", entry)
        cfg = ExperimentConfig(model=GG, K=200, R=2, base_seed=1, workers=1)
        with pytest.raises(TypeError, match="estimator bug"):
            run_campaign(cfg)

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
        assert cli.main(["cov", "--config", gg, "--general"]) == 0
        converged = json.loads(capsys.readouterr().out)["moment_cov"]
        assert converged["converged"] is True
        assert converged["k_used"] > 0
        # a stub pins the exit path; real models land on either side of the
        # tolerance only through their fitted tails
        partial = MomentCov(v0=1.0, v1=2.0, c01=0.5, method="general_series",
                            converged=False, k_used=1024, tail_error=1.0)
        monkeypatch.setattr(cli, "general_moment_cov", lambda model, n: partial)
        assert cli.main(["cov", "--config", gg, "--general"]) == 2
        assert json.loads(capsys.readouterr().out)["error"] == "ConvergenceError"

    @pytest.mark.parametrize("off", [{"kind": "geometric", "p": 0.5},
                                     {"kind": "pareto", "C": 1.0, "alpha": 2.5}],
                             ids=["pareto_geo", "pareto_pareto"])
    def test_cov_general_pareto(self, tmp_path, off):
        alpha = 4.0 if off["kind"] == "geometric" else 3.0
        cfg = self._write_cfg(tmp_path, {
            "on": {"kind": "pareto", "C": 1.0, "alpha": alpha}, "off": off, "n": 100})
        res = self._run("cov", "--config", cfg, "--general")
        assert res.returncode == 0, res.stdout + res.stderr
        mc = json.loads(res.stdout)["moment_cov"]
        assert mc["converged"] is True
        assert mc["k_used"] > 0
        assert len(mc["tail_correction"]) == 3 and all(t > 0 for t in mc["tail_correction"])
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
            "on": {"kind": "pareto", "C": 1.0, "alpha": 3.0},
            "off": {"kind": "pareto", "C": 1.0, "alpha": 2.5},
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
