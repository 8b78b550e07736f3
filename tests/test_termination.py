"""Distributed stopping counters and self-terminating averaging phases."""

from collections import deque
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from consensus_admm import (AlreadyFrozen, Counters, NonIntegerResult,
                            NumericBreakdown, build_digraph, counter_message,
                            derive_max_defect, exact_consensus_run,
                            freeze_counter, ftdt_run, ftdt_step, fterc_run,
                            minimal_poly_oracle, random_strongly_connected,
                            ratio_weights)
from consensus_admm import admm


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
    """The stopping rule node by node in plain Python: the reference.

    Node j freezes its cap at 2(d_j+1) in round 2(d_j+1)-1 and sends
    (theta, counter) with the counter forward-dated to the next round.
    """
    n = g.n
    cap, t_term = [None] * n, [None] * n
    theta, held = [0] * n, [0] * n

    def counter(i, k):
        return k if cap[i] is None else min(k, cap[i])

    outgoing = [(0, 1)] * n
    k = 0
    while None in t_term:
        k += 1
        assert k <= 4 * (n + 2), "counters failed to close"
        for i in range(n):
            if k == 2 * (defects[i] + 1) - 1:
                cap[i] = 2 * (defects[i] + 1)
        new_theta = [max([theta[i], counter(i, k)]
                         + [v for j in g.in_neighbors[i] for v in outgoing[j]])
                     for i in range(n)]
        held = [held[i] + 1 if new_theta[i] == theta[i] else 1
                for i in range(n)]
        theta = new_theta
        for i in range(n):
            if t_term[i] is None and cap[i] is not None and held[i] >= cap[i]:
                t_term[i] = k
        outgoing = [(theta[i], counter(i, k + 1)) for i in range(n)]
    return t_term


def _array_counters(g, defects):
    """The same replay on one Counters record, stepped a round at a time."""
    defects = np.asarray(defects)
    counters = Counters(g.n)
    outgoing = counter_message(counters, 1)
    k = 0
    while not (counters.t_term > 0).all():
        k += 1
        assert k <= 4 * (g.n + 2), "counters failed to close"
        fired = np.flatnonzero(2 * defects + 1 == k)
        freeze_counter(counters, fired, defects[fired])
        heard = [max((int(outgoing[j].max()) for j in g.in_neighbors[i]),
                     default=0) for i in range(g.n)]
        ftdt_step(counters, k, np.array(heard))
        outgoing = counter_message(counters, k + 1)
    return counters.t_term.tolist()


def _node(counters):
    """(theta, r, t_term) of the only node."""
    return (int(counters.theta[0]), int(counters.r[0]),
            int(counters.t_term[0]))


def test_freeze_counter_pins():
    counters = Counters(3)
    freeze_counter(counters, [1], [3])
    assert counters.cap.tolist() == [0, 8, 0]
    with pytest.raises(AlreadyFrozen):
        freeze_counter(counters, [0, 1], [3, 3])
    assert counters.cap.tolist() == [0, 8, 0]   # a refused freeze sets no cap


def test_counter_message_forward_dating():
    counters = Counters(2)
    assert counter_message(counters, 5).tolist() == [[0, 5], [0, 5]]
    freeze_counter(counters, [1], [1])   # cap 4
    assert counter_message(counters, 3).tolist() == [[0, 3], [0, 3]]
    assert counter_message(counters, 9).tolist() == [[0, 9], [0, 4]]


def test_check_termination():
    # a node stops once theta has held for its cap, and never without a cap
    counters = Counters(3)
    freeze_counter(counters, [1, 2], [0, 0])   # caps 2
    counters.theta[:] = 7
    counters.r[:] = [9, 1, 0]
    ftdt_step(counters, 1, np.full(3, 7))      # theta holds in every node
    assert counters.r.tolist() == [10, 2, 1]
    assert counters.t_term.tolist() == [0, 1, 0]


def test_single_node_counter_unroll():
    # an isolated node freezes at round 1 with cap 2 and stops at round 3
    counters = Counters(1)
    freeze_counter(counters, [0], [0])
    ftdt_step(counters, 1, [0])
    assert _node(counters) == (1, 1, 0)
    ftdt_step(counters, 2, [0])
    assert _node(counters) == (2, 1, 0)
    ftdt_step(counters, 3, [0])
    assert _node(counters) == (2, 2, 3)
    ftdt_step(counters, 4, [0])
    assert _node(counters) == (2, 3, 3)         # the stop round stays put


def test_ftdt_step_takes_integer_heard_values():
    # counters stay int64: a float inbox maximum is refused, not mixed in
    counters = Counters(2)
    with pytest.raises(TypeError):
        ftdt_step(counters, 1, np.array([3.0, 0.0]))
    assert counters.theta.tolist() == [0, 0] and counters.r.tolist() == [0, 0]
    ftdt_step(counters, 1, [3, 0])
    assert counters.theta.tolist() == [3, 1]
    assert counters.theta.dtype == np.int64


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
    assert _array_counters(g, defects) == t_terms
    y0 = np.random.default_rng(5).uniform(-5, 5, size=4)
    for exact in (False, True):
        with pytest.raises(NonIntegerResult):
            ftdt_run(g, y0, exact=exact)


def _outcome(run):
    """(t_terms, rounds, max_defect) of a run, or the refusal it raised."""
    try:
        res = run()
    except NonIntegerResult as exc:
        return repr(exc)
    return res.t_terms, res.rounds, res.max_defect


def _replay_outcome(g, defects):
    """What ftdt_run must give on these defects, by the node-by-node rule."""
    t_terms = _replay_counters(g, defects)
    try:
        max_defect = admm._agreed_max_defect(t_terms, defects)
    except NonIntegerResult as exc:
        return repr(exc)
    return t_terms, max(t_terms), max_defect


@given(n=st.integers(1, 12), prob=st.sampled_from([0.0, 0.3, 0.6]),
       width=st.sampled_from([1, 2]), seed=st.integers(0, 10_000))
@settings(max_examples=60, deadline=None)
def test_array_counters_and_both_lanes_match_the_node_by_node_rule(
        n, prob, width, seed):
    g = random_strongly_connected(n, extra_edge_prob=prob, seed=seed)
    oracle = _oracle_defects(g)
    assert _array_counters(g, oracle) == _replay_counters(g, oracle)
    y0 = np.random.default_rng(seed).uniform(
        -5, 5, size=n if width == 1 else (n, width))
    exact = _outcome(lambda: ftdt_run(g, y0, exact=True))
    exact_defects = [res.defect for res in exact_consensus_run(g, y0)]
    assert exact == _replay_outcome(g, exact_defects)
    try:
        float_ = _outcome(lambda: ftdt_run(g, y0))
        float_defects = [res.defect for res in fterc_run(g, y0)]
    except NumericBreakdown:
        return                      # the float lane gave up: nothing to match
    if float_defects == oracle:
        assert exact == float_


def test_exact_lane_runs_no_float_detector(monkeypatch):
    # A width-1 directed ring of 24 nodes is past the float detector: the
    # float lane refuses it. The exact lane freezes every counter at its
    # exact defect, n - 1, and never builds a float detector.
    n = 24
    g = random_strongly_connected(n, extra_edge_prob=0.0, seed=1)
    y0 = np.random.default_rng(24).uniform(-5, 5, size=n)
    with pytest.raises(NonIntegerResult):
        ftdt_run(g, y0)

    def no_detector(_n):
        raise AssertionError("the exact lane built a float detector")

    monkeypatch.setattr(admm, "HankelDetector", no_detector)
    res = ftdt_run(g, y0, exact=True)
    assert res.defect_indices == [n - 1] * n
    assert res.t_terms == [4 * n - 1] * n       # 2(d_max+1) + 2(d_i+1) - 1
    assert res.max_defect == n - 1 and res.rounds == 4 * n - 1
    truth = float(sum(Fraction(float(v)) for v in y0) / n)
    assert np.all(res.values == truth)


def test_exact_lane_replays_the_counter_pair_alone(monkeypatch):
    # The exact lane's values come from rational arithmetic, so its counter
    # replay makes no ratio update and broadcasts 2-column waves: the
    # (theta, c) pair of every node, from the seed wave on.
    g = random_strongly_connected(7, extra_edge_prob=0.3, seed=4)
    y0 = np.random.default_rng(4).uniform(-5, 5, size=(7, 3))
    defects = [res.defect for res in exact_consensus_run(g, y0)]
    widths = []

    class Recording(admm.RoundEngine):
        def _broadcast(self, wave, phase, kind):
            widths.append(np.shape(wave)[1])
            return super()._broadcast(wave, phase, kind)

    def no_ratio_update(block, out=None):
        raise AssertionError("the exact lane ran a ratio update")

    monkeypatch.setattr(admm, "RoundEngine", Recording)
    monkeypatch.setattr(admm, "ratio_update", no_ratio_update)
    res = ftdt_run(g, y0, exact=True)
    assert widths == [2] * (res.rounds + 1)
    assert _outcome(lambda: res) == _replay_outcome(g, defects)
