"""Tests of the benchmark's own oracles and helpers (no onoffgraph import).

    python3 -m pytest bench/test_bench.py
"""

import itertools
import math

import numpy as np
import pytest

import oracle


def _edge_path_prob(path, p, q):
    rho = q / (p + q)
    prob = rho if path[0] else 1.0 - rho
    for prev, cur in zip(path, path[1:]):
        on_next = 1.0 - p if prev else q
        prob *= on_next if cur else 1.0 - on_next
    return prob


def _brute_count_law(n, p, q, K):
    """Law of A(1..K) by enumerating every on/off path of every edge."""
    paths = list(itertools.product((0, 1), repeat=K))
    probs = [_edge_path_prob(path, p, q) for path in paths]
    law = {}
    for combo in itertools.product(range(len(paths)), repeat=n):
        counts = tuple(sum(paths[i][k] for i in combo) for k in range(K))
        law[counts] = law.get(counts, 0.0) + math.prod(probs[i] for i in combo)
    return law


@pytest.mark.parametrize("n,K,p,q", [(1, 4, 0.3, 0.8), (2, 3, 0.45, 0.55),
                                     (3, 4, 0.3, 0.8), (4, 4, 0.2, 0.6)])
def test_gg_count_logprob_matches_enumeration(n, K, p, q):
    law = _brute_count_law(n, p, q, K)
    assert abs(sum(law.values()) - 1.0) <= 1e-12
    for counts, prob in law.items():
        assert math.exp(oracle.gg_count_logprob(n, p, q, counts)) == pytest.approx(
            prob, rel=1e-10, abs=1e-15)


def test_gg_count_logprob_zero_outside_support():
    # n=2, both edges on then three on is impossible
    assert oracle.gg_count_logprob(2, 0.3, 0.8, [2, 3]) == -math.inf


@pytest.mark.parametrize("m", [1, 3, 6])
def test_gg_pattern_law_matches_path_products(m):
    p, q = 0.3, 0.8
    law = oracle.gg_pattern_law(p, q, m)
    for idx in range(1 << m):
        path = [(idx >> j) & 1 for j in range(m)]
        assert law[idx] == pytest.approx(_edge_path_prob(path, p, q), rel=1e-14)
    assert law.sum() == pytest.approx(1.0, abs=1e-14)


def test_tail_percentile_needs_ten_samples_beyond():
    assert oracle.tail_percentile(range(1, 100), 90) is None   # 99 samples: 9 beyond rank 90
    assert oracle.tail_percentile(range(1, 101), 90) == 90     # 100 samples: 10 beyond
    assert oracle.tail_percentile(range(1, 1001), 99) == 990
    assert oracle.tail_percentile(range(1, 1000), 99) is None
    assert oracle.tail_percentile([5.0] * 20, 50) == 5.0


def test_nearest_rank_and_median():
    assert oracle.nearest_rank([3, 1, 2], 50) == (2, 1)
    assert oracle.nearest_rank([3, 1, 2], 100) == (3, 0)
    assert oracle.median([4, 1, 3, 2]) == 2.5
    assert oracle.median([7]) == 7
    with pytest.raises(ValueError):
        oracle.median([])


def test_pareto_mean_matches_partial_sum():
    law = {"kind": "pareto", "C": 2.0, "alpha": 4.0}
    k = np.arange(1, 2_000_001, dtype=np.float64)
    direct = float(np.sum(oracle.survival(law, k)))
    assert oracle.law_mean(law) == pytest.approx(direct, rel=1e-9)


def test_renewal_counts_match_the_geometric_chain():
    """For geometric laws the renewal sampler and the exact count chain agree in law."""
    on, off = {"kind": "geometric", "p": 0.3}, {"kind": "geometric", "p": 0.8}
    n, K, draws = 20, 4, 3000
    rng = np.random.default_rng(7)
    ren = np.array([oracle.renewal_counts(on, off, n, K, rng) for _ in range(draws)])
    rho = 0.8 / 1.1
    # E A(k) = n rho; E A(1) A(2) = n rho (1 - p) + (n^2 - n) rho^2
    se_mean = math.sqrt(n * rho * (1 - rho) / draws) * 2  # lag correlation widens it
    assert np.all(np.abs(ren.mean(axis=0) - n * rho) <= 5 * se_mean)
    lag1 = (ren[:, 0] * ren[:, 1]).mean()
    exact = n * rho * 0.7 + (n * n - n) * rho * rho
    assert abs(lag1 - exact) <= 5 * (ren[:, 0] * ren[:, 1]).std() / math.sqrt(draws)


def test_renewal_counts_deterministic_per_seed():
    on, off = {"kind": "pareto", "C": 2.0, "alpha": 4.0}, {"kind": "geometric", "p": 0.7}
    a = oracle.renewal_counts(on, off, 100, 20, np.random.default_rng(3))
    b = oracle.renewal_counts(on, off, 100, 20, np.random.default_rng(3))
    assert np.array_equal(a, b) and a.min() >= 0 and a.max() <= 100
