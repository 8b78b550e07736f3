"""Ratio iterations, defect detection, and finite-time exact averaging."""

import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from consensus_admm import (HankelDetector, MissingMessage, NonIntegerResult,
                            NumericBreakdown, build_digraph,
                            exact_consensus_run, fterc_final, fterc_run,
                            ftdt_run, random_strongly_connected,
                            ratio_update, ratio_weights)
from consensus_admm.exact import _PRIME, _exact_kernel, _hankel_bases_mod_p

THREE_CYCLE = build_digraph(3, [(1, 0), (2, 1), (0, 2)])


def _true_mean(values):
    """Exact rational mean of floats, rounded once — the referee for both
    consensus lanes."""
    arr = np.asarray(values, dtype=float)
    flat = arr.reshape(arr.shape[0], -1)
    out = [float(sum(Fraction(float(v)) for v in flat[:, c]) / arr.shape[0])
           for c in range(flat.shape[1])]
    return np.array(out).reshape(arr.shape[1:]) if arr.ndim > 1 else out[0]


def test_ratio_update_matches_weight_matrix():
    g = build_digraph(3, [(1, 0), (2, 1), (0, 2), (2, 0)])
    w = ratio_weights(g)
    y = np.array([[1.0, 4.0], [2.0, 5.0], [3.0, 6.0]])
    x = np.ones(3)
    # node 2 hears nodes 0 and 1; messages arrive sender-scaled
    received = [(y[0] / 3.0, x[0] / 3.0), (y[1] / 2.0, x[1] / 2.0)]
    new_y, new_x = ratio_update(y[2], x[2], g.out_degree(2), received, 2)
    assert np.allclose(new_y, (w @ y)[2])
    assert np.isclose(new_x, (w @ x)[2])


def test_ratio_update_rejects_wrong_message_count():
    with pytest.raises(MissingMessage):
        ratio_update(np.ones(2), 1.0, 1, [(np.ones(2), 1.0)], expected=2)


@given(n=st.integers(2, 10), seed=st.integers(0, 500))
@settings(max_examples=30, deadline=None)
def test_exchange_preserves_mass(n, seed):
    g = random_strongly_connected(n, extra_edge_prob=0.25, seed=seed)
    w = ratio_weights(g)
    y = np.random.default_rng(seed).uniform(-5, 5, size=(n, 2))
    x = np.ones(n)
    for _ in range(8):
        y, x = w @ y, w @ x
    assert np.allclose(y.sum(axis=0),
                       np.random.default_rng(seed).uniform(-5, 5,
                                                           size=(n, 2)).sum(
                           axis=0))
    assert np.isclose(x.sum(), n)


def test_three_cycle_desk_pin():
    res = fterc_run(THREE_CYCLE, np.array([1.0, 2.0, 3.0]))
    for r in res:
        assert r.defect == 2
        assert r.rounds_used == 5
        assert r.beta[-1] == 1.0
        assert np.isclose(r.mu, 2.0, atol=1e-12)


def test_constant_input_fires_immediately():
    res = fterc_run(THREE_CYCLE, np.array([7.0, 7.0, 7.0]))
    for r in res:
        assert r.defect == 0
        assert np.array_equal(r.beta, [1.0])
        assert r.rounds_used == 1
        assert r.mu == 7.0


def test_scalar_and_vector_shapes():
    scalar = fterc_run(THREE_CYCLE, [1.0, 2.0, 3.0])
    assert np.isscalar(scalar[0].mu) or scalar[0].mu.ndim == 0
    vector = fterc_run(THREE_CYCLE, np.arange(6.0).reshape(3, 2))
    assert vector[0].mu.shape == (2,)
    assert np.allclose(vector[0].mu, [2.0, 3.0], atol=1e-12)


def test_detector_on_known_recurrence():
    # s[t] = 3 + 2 (1/2)^t has one decaying mode: defect index 1,
    # detection after 4 samples = round 3, recovered limit exactly 3.
    det = HankelDetector(2)
    x_seq, y_seq = [], []
    for t in range(6):
        x_seq.append(1.0)
        y_seq.append(3.0 + 2.0 * 0.5 ** t)
        fired = det.feed(np.array([x_seq[-1], y_seq[-1]]))
        if t < 3:
            assert not fired
    assert det.fired
    assert det.defect == 1
    combo = fterc_final(np.array(y_seq)[:, None], np.array(x_seq), det.beta)
    assert np.isclose(combo[0], 3.0, atol=1e-12)


def test_detector_rejects_collapsing_combination():
    # Two modes at 1 and 1 - 1e-12: the kernel of the difference sequence
    # exists, but its value combination divides by ~1e-12 of the signal
    # scale, which the stability probe refuses.
    det = HankelDetector(1)
    r = 1.0 - 1e-12
    for t in range(12):
        det.feed(np.array([1.0 + r ** t]))
    assert not det.fired


def test_fterc_matches_power_iteration_and_mean():
    for seed in range(6):
        n = 4 + seed
        g = random_strongly_connected(n, extra_edge_prob=0.3, seed=seed)
        w = ratio_weights(g)
        y0 = np.random.default_rng(seed).uniform(-5, 5, size=(n, 2))
        res = fterc_run(g, y0)
        # long-horizon power iteration as an independent limit oracle
        y, x = y0.copy(), np.ones(n)
        for _ in range(400):
            y, x = w @ y, w @ x
        limit = y / x[:, None]
        truth = _true_mean(y0)
        for j, r in enumerate(res):
            assert np.allclose(r.mu, limit[j], atol=1e-9)
            assert np.allclose(r.mu, truth, atol=1e-9)
            assert r.rounds_used == 2 * (r.defect + 1) - 1
            assert r.defect + 1 <= n


def test_float_and_exact_lanes_agree_inside_envelope():
    for seed in range(5):
        n = 3 + 2 * seed  # 3..11
        g = random_strongly_connected(n, extra_edge_prob=0.2, seed=seed)
        y0 = np.random.default_rng(100 + seed).uniform(-5, 5, size=n)
        fl = fterc_run(g, y0)
        ex = exact_consensus_run(g, y0)
        truth = _true_mean(y0)
        for a, b in zip(fl, ex):
            assert a.defect == b.defect
            assert np.allclose(a.mu, b.mu, atol=1e-9)
            assert b.mu == truth  # the exact lane is bit-exact
            assert a.rounds_used == b.rounds_used


def _ftdt_or_refusal(g, y0, exact):
    try:
        return ftdt_run(g, y0, exact=exact)
    except NonIntegerResult:
        return None


def test_float_and_exact_lanes_agree_over_sixty_digraphs():
    closed = 0
    for case in range(60):
        n = 2 + case % 9
        prob = (0.0, 0.2, 0.5)[(case // 9) % 3]
        g = random_strongly_connected(n, extra_edge_prob=prob, seed=case)
        rng = np.random.default_rng(500 + case)
        y0 = rng.uniform(-5, 5, size=n if case % 2 else (n, 3))
        for a, b in zip(fterc_run(g, y0), exact_consensus_run(g, y0)):
            assert (a.defect, a.rounds_used) == (b.defect, b.rounds_used)
            assert np.allclose(a.mu, b.mu, atol=1e-9)
        fl = _ftdt_or_refusal(g, y0, exact=False)
        ex = _ftdt_or_refusal(g, y0, exact=True)
        assert (fl is None) == (ex is None), f"case {case}: one lane refused"
        if fl is None:
            continue
        closed += 1
        for attr in ("t_terms", "defect_indices", "max_defect", "rounds"):
            assert getattr(fl, attr) == getattr(ex, attr), (case, attr)
        assert np.allclose(fl.values, ex.values, atol=1e-9)
    assert closed >= 40


def test_exact_lane_beyond_float_envelope():
    # A 16-ring needs a degree-16 recurrence: double precision cannot even
    # evaluate the true kernel there, while the rational lane returns the
    # correctly rounded exact mean.
    g = random_strongly_connected(16, extra_edge_prob=0.0, seed=7)
    y0 = np.random.default_rng(7).uniform(-5, 5, size=16)
    truth = _true_mean(y0)
    for r in exact_consensus_run(g, y0):
        assert r.defect == 15
        assert r.mu == truth


def test_float_envelope_boundary_thirteen_ring():
    g = random_strongly_connected(13, extra_edge_prob=0.0, seed=5)
    y0 = np.random.default_rng(5).uniform(-5, 5, size=13)
    truth = _true_mean(y0)
    for r in fterc_run(g, y0):
        assert r.defect == 12
        assert np.isclose(r.mu, truth, atol=1e-7)


def test_float_lane_never_silently_wrong_on_stacked_ring():
    # With full vector channels the 20-ring either refuses (stability gate)
    # or is accurate; silence with a wrong value is the one forbidden outcome.
    g = random_strongly_connected(20, extra_edge_prob=0.0, seed=3)
    y0 = np.random.default_rng(3).uniform(-5, 5, size=(20, 3))
    truth = _true_mean(y0)
    try:
        res = fterc_run(g, y0)
    except NumericBreakdown:
        return
    for r in res:
        assert np.allclose(r.mu, truth, atol=1e-8)


def test_exact_lane_validates_seed_count():
    with pytest.raises(ValueError):
        exact_consensus_run(THREE_CYCLE, np.ones((4, 2)))


def test_exact_lane_modular_bases_match_rational_ranks():
    # Small integers, so float64 ranks are exact referees; several sizes
    # share one zero-padded elimination.
    rng = np.random.default_rng(4)
    seqs = rng.integers(-3, 4, size=(5, 2, 9))
    seqs[1, 1] = 0                        # a silent channel
    seqs[2] = 2 ** np.arange(9)           # a geometric run: rank 1
    sizes = range(2, 5)
    for seq in seqs:
        for m, basis in zip(sizes, _hankel_bases_mod_p(seq % _PRIME, sizes)):
            block = np.array([[seq[c, i + j] for j in range(m)]
                              for c in range(2) for i in range(m)], float)
            assert len(basis) == np.linalg.matrix_rank(block)
            assert np.linalg.matrix_rank(block[basis]) == len(basis)


def test_exact_lane_memory_stays_per_node_beyond_the_family():
    # A 24-ring has defect 23 at every node, past criterion 1's n <= 20.
    # The modular screen holds one node's blocks at a time; holding every
    # node's at once peaked near 14 MB here.
    g = random_strongly_connected(24, extra_edge_prob=0.0, seed=3)
    y0 = np.random.default_rng(5).uniform(-5, 5, size=(24, 3))
    truth = _true_mean(y0)
    tracemalloc.start()
    try:
        res = exact_consensus_run(g, y0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2**20
    for r in res:
        assert r.defect == 23
        assert np.array_equal(r.mu, truth)


def test_exact_kernel_checks_the_modular_basis():
    geometric = [[1, 2, 4]]
    # Basis row [1, 2] gives the integer kernel [-2, 1].
    assert _exact_kernel(geometric, 2, [0]) == [-2, 1]
    # A basis short of m - 1 rows falls back to the whole block.
    assert _exact_kernel(geometric, 2, []) == [-2, 1]
    # A row outside the basis kernel is a modular false alarm: full rank.
    assert _exact_kernel(geometric + [[1, 0, 1]], 2, [0]) is None
    with pytest.raises(NumericBreakdown, match="2-dimensional"):
        _exact_kernel([[0, 0, 0]], 2, [])
