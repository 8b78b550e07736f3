"""Distributed stopping counters and self-terminating averaging phases."""

import dataclasses
from collections import deque
from fractions import Fraction

import numpy as np
import pytest

from consensus_admm import (AlreadyFrozen, NonIntegerResult, NumericBreakdown,
                            TerminationState, build_digraph, check_termination,
                            counter_message, derive_max_defect, freeze_counter,
                            ftdt_run, ftdt_step, minimal_poly_oracle,
                            random_strongly_connected, ratio_weights)


def _out_distances(g, source):
    dist = [-1] * g.n
    dist[source] = 0
    queue = deque([source])
    while queue:
        u = queue.popleft()
        for v in g.out_neighbors[u]:
            if dist[v] < 0:
                dist[v] = dist[u] + 1
                queue.append(v)
    return dist


def _oracle_defects(g, rank_tol=1e-12):
    w = ratio_weights(g)
    return [minimal_poly_oracle(w, j, rank_tol=rank_tol) - 1
            for j in range(g.n)]


def _replay_counters(g, defects):
    """Drive the stopping counters alone, firing node j at round 2(d_j+1)-1."""
    fire = [2 * (m + 1) - 1 for m in defects]
    states = [TerminationState() for _ in range(g.n)]
    outgoing = [counter_message(s, 1) for s in states]
    k = 0
    while not all(s.terminated for s in states):
        k += 1
        assert k <= 4 * (g.n + 2), "counters failed to close"
        stepped = []
        for i in range(g.n):
            st = states[i]
            if k == fire[i]:
                st = freeze_counter(st, defects[i])
            stepped.append(ftdt_step(
                st, k, [outgoing[j] for j in g.in_neighbors[i]]))
        states = stepped
        outgoing = [counter_message(s, k + 1) for s in states]
    return [s.t_term for s in states]


def test_freeze_counter_pins():
    state = freeze_counter(TerminationState(), 3)
    assert state.c_cap == 8
    with pytest.raises(AlreadyFrozen):
        freeze_counter(state, 3)


def test_counter_message_forward_dating():
    fresh = TerminationState()
    assert counter_message(fresh, 5) == (0, 5)
    capped = freeze_counter(fresh, 1)  # cap 4
    assert counter_message(capped, 3) == (0, 3)
    assert counter_message(capped, 9) == (0, 4)


def test_termination_state_is_immutable():
    state = TerminationState()
    with pytest.raises(dataclasses.FrozenInstanceError):
        state.theta = 5


def test_check_termination():
    assert not check_termination(TerminationState(r=10))
    frozen = dataclasses.replace(freeze_counter(TerminationState(), 0), r=2)
    assert check_termination(frozen)
    assert not check_termination(dataclasses.replace(frozen, r=1))


def test_single_node_counter_unroll():
    # an isolated node freezes at round 1 with cap 2 and stops at round 3
    state = freeze_counter(TerminationState(), 0)
    state = ftdt_step(state, 1, [])
    assert (state.theta, state.r, state.terminated) == (1, 1, False)
    state = ftdt_step(state, 2, [])
    assert (state.theta, state.r, state.terminated) == (2, 1, False)
    state = ftdt_step(state, 3, [])
    assert state.terminated
    assert state.t_term == 3


def test_derive_max_defect_pins():
    assert derive_max_defect(11, 2) == 2     # equal-defect 3-ring
    assert derive_max_defect(3, 0) == 0      # single node
    assert derive_max_defect(15, 1) == 5     # slow node far below the max
    with pytest.raises(NonIntegerResult):
        derive_max_defect(14, 2)             # odd remainder
    with pytest.raises(NonIntegerResult):
        derive_max_defect(2, 1)              # non-positive remainder


def test_ftdt_run_single_node():
    g = build_digraph(1, [])
    for exact in (False, True):
        res = ftdt_run(g, np.array([4.25]), exact=exact)
        assert res.t_terms == [3]
        assert res.max_defect == 0
        assert res.defect_indices == [0]
        assert res.detection_rounds == [1]
        assert res.rounds == 3
        assert np.allclose(res.values, 4.25)


def test_ftdt_run_equal_defect_ring():
    g = build_digraph(3, [(1, 0), (2, 1), (0, 2)])
    for exact in (False, True):
        res = ftdt_run(g, np.array([1.0, 2.0, 3.0]), exact=exact)
        assert res.t_terms == [11, 11, 11]
        assert res.max_defect == 2
        assert res.detection_rounds == [5, 5, 5]
        assert res.rounds == 11
        assert min(res.t_terms) > max(res.detection_rounds)
        assert np.allclose(res.values, 2.0, atol=1e-12)


def test_ftdt_exact_replay_matches_engine():
    for seed in (1, 4, 9):
        n = 4 + seed
        g = random_strongly_connected(n, extra_edge_prob=0.35, seed=seed)
        y0 = np.random.default_rng(seed).uniform(-5, 5, size=(n, 2))
        try:
            float_run = ftdt_run(g, y0)
        except NonIntegerResult:
            continue  # heterogeneous-lag instance: both lanes refuse alike
        exact_run = ftdt_run(g, y0, exact=True)
        assert exact_run.t_terms == float_run.t_terms
        assert exact_run.defect_indices == float_run.defect_indices
        assert exact_run.max_defect == float_run.max_defect
        assert exact_run.rounds == float_run.rounds
        assert np.allclose(exact_run.values, float_run.values, atol=1e-9)


def test_eccentricity_bounded_by_twice_defect_size():
    for seed in range(8):
        n = 3 + seed
        g = random_strongly_connected(n, extra_edge_prob=0.3, seed=seed)
        defects = _oracle_defects(g)
        for j in range(n):
            assert max(_out_distances(g, j)) <= 2 * (defects[j] + 1)


def test_termination_honest_or_refuses():
    # Over random digraphs the phase either closes with the exact timing
    # invariants or raises the designed derivation error — never both wrong
    # and silent.
    closed = 0
    for seed in range(12):
        n = 3 + (seed % 6)
        g = random_strongly_connected(n, extra_edge_prob=0.3, seed=100 + seed)
        y0 = np.random.default_rng(seed).uniform(-5, 5, size=n)
        try:
            res = ftdt_run(g, y0)
        except NonIntegerResult:
            continue
        closed += 1
        max_defect = max(res.defect_indices)
        assert res.max_defect == max_defect
        assert all(t <= 4 * (max_defect + 1) - 1 for t in res.t_terms)
        assert min(res.t_terms) > max(res.detection_rounds)
        truth = float(sum(Fraction(float(v)) for v in y0) / n)
        assert np.allclose(res.values, truth, atol=1e-8)
    assert closed >= 6


def test_heterogeneous_lag_is_refused_not_corrupted():
    # Node 0 sits two hops from every largest-defect node, so its counter
    # plateau arrives one round late; the closed-form stop round gains the
    # lag and the network-size derivation must refuse the odd remainder.
    g = build_digraph(4, [(3, 0), (2, 1), (3, 1), (0, 2), (1, 3), (2, 3)])
    defects = _oracle_defects(g)
    assert defects == [2, 3, 2, 3]
    t_terms = _replay_counters(g, defects)
    max_defect = max(defects)
    lag = [1, 0, 0, 0]
    expected = [2 * (max_defect + 1) + g_i + 2 * (m_i + 1) - 1
                for g_i, m_i in zip(lag, defects)]
    assert t_terms == expected == [14, 15, 13, 15]
    y0 = np.random.default_rng(5).uniform(-5, 5, size=4)
    for exact in (False, True):
        with pytest.raises(NonIntegerResult):
            ftdt_run(g, y0, exact=exact)
