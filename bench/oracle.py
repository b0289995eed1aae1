"""Independent reference computations and input generators for the benchmark.

Nothing here imports onoffgraph: the benchmark's inputs and its output checks
must not move when the package changes.

* For geometric on/off laws one edge is a two-state Markov chain (stay on with
  probability 1 - p, switch on with probability q), so the edge count A(k) is a
  birth-death chain: A(k+1) = Binomial(A(k), 1 - p) + Binomial(n - A(k), q).
  Its exact log-probability of a count vector, and the exact joint on-pattern
  law of one edge, serve as oracles for the saddlepoint and the joint law.
* Count vectors for the analytic calls are drawn here, from the workload seed,
  without the package simulator.
"""

from __future__ import annotations

import math

import numpy as np
from scipy import special, stats


def nearest_rank(samples, q):
    """The q-th percentile by nearest rank, with the number of samples above its rank."""
    xs = sorted(samples)
    if not xs:
        raise ValueError("no samples")
    k = max(1, math.ceil(q / 100.0 * len(xs)))
    return xs[k - 1], len(xs) - k


def tail_percentile(samples, q, min_beyond=10):
    """The q-th percentile, or None unless at least min_beyond samples lie beyond it."""
    value, beyond = nearest_rank(samples, q)
    return value if beyond >= min_beyond else None


def median(samples):
    xs = sorted(samples)
    if not xs:
        raise ValueError("no samples")
    mid = len(xs) // 2
    return xs[mid] if len(xs) % 2 else 0.5 * (xs[mid - 1] + xs[mid])


# ---------------------------------------------------------------------------
# Geometric/geometric: exact count-chain and Markov oracles
# ---------------------------------------------------------------------------


def gg_transition_logpmf(n, p, q, a, b):
    """log P(A(k+1) = b | A(k) = a): Binomial(a, 1-p) survivors plus Binomial(n-a, q) arrivals."""
    s = np.arange(max(0, b - (n - a)), min(a, b) + 1)
    if len(s) == 0:
        return -math.inf
    terms = stats.binom.logpmf(s, a, 1.0 - p) + stats.binom.logpmf(b - s, n - a, q)
    return float(special.logsumexp(terms))


def gg_count_logprob(n, p, q, counts):
    """Exact log P(A(1..K) = counts) for the stationary geometric/geometric edge count."""
    counts = [int(c) for c in counts]
    rho = q / (p + q)
    total = float(stats.binom.logpmf(counts[0], n, rho))
    for a, b in zip(counts, counts[1:]):
        total += gg_transition_logpmf(n, p, q, a, b)
    return total


def gg_pattern_law(p, q, m):
    """Joint law of one edge's on-indicators at epochs 1..m, indexed by pattern bits.

    Bit j of the index is set when the edge is on at epoch j + 1, matching
    onoffgraph's joint_distribution.
    """
    rho = q / (p + q)
    pats = np.arange(1 << m)
    bits = (pats[:, None] >> np.arange(m)) & 1
    prob = np.where(bits[:, 0] == 1, rho, 1.0 - rho)
    for j in range(1, m):
        prev, cur = bits[:, j - 1], bits[:, j]
        on_next = np.where(prev == 1, 1.0 - p, q)
        prob = prob * np.where(cur == 1, on_next, 1.0 - on_next)
    return prob


def gg_counts(n, p, q, K, rng):
    """One stationary count vector A(1..K) drawn from the exact geometric count chain."""
    a = rng.binomial(n, q / (p + q))
    out = [a]
    for _ in range(K - 1):
        a = rng.binomial(a, 1.0 - p) + rng.binomial(n - a, q)
        out.append(a)
    return np.array(out, dtype=np.int64)


# ---------------------------------------------------------------------------
# General laws: a horizon-truncated renewal sampler for count vectors
# ---------------------------------------------------------------------------


def survival(law, k):
    """P(Z >= k) for a law given as a config dict (geometric or pareto)."""
    k = np.asarray(k, dtype=np.float64)
    if law["kind"] == "geometric":
        return (1.0 - law["p"]) ** (k - 1.0)
    if law["kind"] == "pareto":
        return (law["C"] / (law["C"] + k - 1.0)) ** law["alpha"]
    raise ValueError(f"unsupported law {law['kind']!r}")


def law_mean(law):
    """Mean duration; for Pareto C^alpha * zeta(alpha, C) with scipy's Hurwitz zeta."""
    if law["kind"] == "geometric":
        return 1.0 / law["p"]
    if law["kind"] == "pareto":
        return law["C"] ** law["alpha"] * float(special.zeta(law["alpha"], law["C"]))
    raise ValueError(f"unsupported law {law['kind']!r}")


def _horizon_sampler(pmf_head, rng):
    """Inverse-CDF sampler over 1..H, with the remaining mass mapped to H + 1."""
    cdf = np.cumsum(pmf_head)
    H = len(pmf_head)
    return lambda size: np.minimum(np.searchsorted(cdf, rng.random(size), side="right") + 1, H + 1)


def renewal_counts(on, off, n, K, rng):
    """Stationary edge counts A(1..K) of n independent on/off renewal edges.

    Durations only matter up to the horizon K, so every law is represented
    exactly by its pmf on 1..K plus the mass beyond K.
    """
    ks = np.arange(1, K + 2)
    m_on, m_off = law_mean(on), law_mean(off)
    s_on, s_off = survival(on, ks), survival(off, ks)
    fresh = {True: _horizon_sampler(s_on[:-1] - s_on[1:], rng),
             False: _horizon_sampler(s_off[:-1] - s_off[1:], rng)}
    resid = {True: _horizon_sampler(s_on[:-1] / m_on, rng),
             False: _horizon_sampler(s_off[:-1] / m_off, rng)}
    state = rng.random(n) < m_on / (m_on + m_off)
    end = np.empty(n, dtype=np.int64)  # last epoch of the current phase
    for phase in (True, False):
        sel = state == phase
        end[sel] = resid[phase](int(sel.sum()))
    counts = np.zeros(K, dtype=np.int64)
    start = np.ones(n, dtype=np.int64)
    while True:
        for j in np.nonzero(state)[0]:
            counts[start[j] - 1:min(end[j], K)] += 1
        live = end < K
        if not live.any():
            return counts
        start[live] = end[live] + 1
        state[live] = ~state[live]
        for phase in (True, False):
            sel = live & (state == phase)
            end[sel] += fresh[phase](int(sel.sum()))
        state[~live] = False
