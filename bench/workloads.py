"""Workload definitions: plain data plus the set-up step that `setup_s` times.

This module imports only the standard library, so that a fresh interpreter can
load it before the clock starts and then time `import onoffgraph` on its own.
"""

from __future__ import annotations

GG = {"on": {"kind": "geometric", "p": 0.3}, "off": {"kind": "geometric", "p": 0.8}}
PARETO_PARETO = {"on": {"kind": "pareto", "C": 1.0, "alpha": 3.0},
                 "off": {"kind": "pareto", "C": 1.0, "alpha": 2.5}}

# Each campaign runs through `onoffgraph campaign` (cli.main) with these
# arguments; `truth` holds the parameters the campaign means must recover.
CAMPAIGNS = {
    # Long, narrow traces with geometric sampling; the same campaign at
    # workers=1 and workers=2 must write byte-identical files.
    "campaign_gg": {
        "campaigns": [
            {"config": {**GG, "n": 100, "kind": "edges"}, "K": 10_000, "reps": 8, "workers": 1},
            {"config": {**GG, "n": 100, "kind": "edges"}, "K": 10_000, "reps": 8, "workers": 2},
        ],
        "truth": {"p": 0.3, "q": 0.8},
    },
    # Same simulate path, but Pareto survival, the Hurwitz-series mean and the
    # sampler's bracket search dominate.
    "campaign_heavy": {
        "campaigns": [
            {"config": {**PARETO_PARETO, "n": 100, "kind": "edges", "family": "pareto_pareto"},
             "K": 10_000, "reps": 6, "workers": 1},
        ],
        "truth": {"alpha": 3.0, "beta": 2.5},
    },
    # 20x the edges of campaign_gg and 1/5 of its epochs. K = 2000, not 500:
    # the wedge fit flags q_hat >= 1, and the measured spread of q_hat puts
    # that at about 1 replication in 150 at K = 500, 1 in 4000 at K = 1000
    # and 1 in 3 million at K = 2000 (normal approximation).
    "graph_wide": {
        "campaigns": [
            {"config": {**GG, "N": 64, "kind": "triangles"}, "K": 2000, "reps": 1, "workers": 1},
            {"config": {**GG, "N": 64, "kind": "wedges"}, "K": 2000, "reps": 1, "workers": 1},
        ],
        "truth": {"p": 0.3, "q": 0.8},
    },
}

# The analytics workload: no simulation, only renewal tables, MGFs and series.
# Sizes are set so that each call takes 0.1-0.6 s on a 2-vCPU host: with the
# 1-2.5 s calls of K=20, 12 epochs and k_cap=16384, too few repeats fit in a
# run to find the program's speed on a shared machine (24% run-to-run spread).
ANALYTICS = {
    "gg": {**GG, "n": 100},
    # general_moment_cov with k_cap fixed: the default cap takes about 55 s
    # and still returns converged=False, as does this cap.
    "heavy_cov": {"on": {"kind": "pareto", "C": 1.0, "alpha": 4.0},
                  "off": {"kind": "geometric", "p": 0.5}, "n": 100},
    "pareto_geo": {"on": {"kind": "pareto", "C": 2.0, "alpha": 4.0},
                   "off": {"kind": "geometric", "p": 0.7}, "n": 100},
}
ANALYTICS_K_CAP = 4096
SADDLE_EPOCHS = 10
JOINT_EPOCHS = 10

NAMES = (*CAMPAIGNS, "analytics")


def set_up(name):
    """Import onoffgraph and build the workload's ModelSpec/ExperimentConfig objects."""
    from onoffgraph import ExperimentConfig, ModelSpec

    if name == "analytics":
        return {key: ModelSpec.from_config(cfg) for key, cfg in ANALYTICS.items()}
    return [ExperimentConfig.from_json(c["config"], K=c["K"], R=c["reps"], workers=c["workers"])
            for c in CAMPAIGNS[name]["campaigns"]]


if __name__ == "__main__":
    # Set-up probe: one fresh interpreter per measurement of setup_s.
    import sys
    import time

    t0 = time.perf_counter()
    set_up(sys.argv[1])
    print(repr(time.perf_counter() - t0))
