"""Ratio iterations, defect detection, and finite-time exact averaging."""

import math
import re
import time
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from consensus_admm import (HankelDetector, NonIntegerResult, RoundEngine,
                            NumericBreakdown, build_digraph,
                            exact_consensus_run, fterc_final, fterc_run,
                            ftdt_run, minimal_poly_oracle,
                            random_strongly_connected, ratio_update,
                            ratio_weights)
from consensus_admm import exact
from consensus_admm.consensus import DENOM_TOL, pad_kernels
from consensus_admm.exact import (_annihilates, _bareiss_echelon,
                                  _detect_nodes, _differences, _exact_kernel,
                                  _exact_trajectories, _HadamardBounds,
                                  _hankel_kernels)

THREE_CYCLE = build_digraph(3, [(1, 0), (2, 1), (0, 2)])


def _hankel_kernel(seq, top, rows=None):
    """The one-sequence case of ``_hankel_kernels``: the first singular
    Hankel size ``m <= top`` of ``seq`` and its primitive kernel, ``(m,
    None)`` for a false alarm against the stacked ``rows``, or None."""
    return _hankel_kernels(np.array([seq], dtype=object), top, [rows],
                           None)[0]


def _detect_node(ints):
    """The one-node case of ``_detect_nodes``: exact defect index and
    integer kernel from one node's difference channels."""
    return _detect_nodes(np.array([ints], dtype=object),
                         whole_network=False)[0]


def _hadamard_bits(seq, m):
    """``_HadamardBounds`` of one row, spelled out: the reference bound."""
    return 2 + sum(2 * max(abs(v).bit_length() for v in seq[i:i + m])
                   + m.bit_length() for i in range(m))


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
    # payload rows leave each node divided by 1 + its out-degree
    share = 1.0 / (1.0 + np.array([g.out_degree(i) for i in range(3)]))
    wave = np.column_stack((y, x)) * share[:, None]
    engine = RoundEngine(g)
    engine.prime(wave, pad=-0.0)
    blocks = []
    engine.run_round(lambda block, tick: blocks.append(block) or wave)
    # node 2 hears nodes 0 and 1
    assert np.array_equal(blocks[0][2], wave[[2, 0, 1]])
    mixed = ratio_update(blocks[0], np.empty((3, 3)))
    assert np.allclose(mixed[:, :2], w @ y)
    assert np.allclose(mixed[:, 2], w @ x)


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
    det = HankelDetector(1)
    traj, x_seq, y_seq = [], [], []
    for t in range(6):
        x_seq.append(1.0)
        y_seq.append(3.0 + 2.0 * 0.5 ** t)
        traj.append(np.array([[x_seq[-1], y_seq[-1]]]))
        fired = det.feed(traj)
        if t < 3:
            assert not fired
        assert fired == ([0] if t == 3 else [])
    assert not det.open[0]
    assert det.defect == [1]
    combo = fterc_final(np.column_stack((x_seq, y_seq)), det.beta[0])
    assert np.isclose(combo[0], 3.0, atol=1e-12)


def test_stacked_fterc_final_equals_the_in_order_loop_bitwise():
    # One call over a stack of kernels of unequal lengths, zero-padded, gives
    # each node the value of its own call, and both are the in-order sums
    # sum_t beta_t [x_t, y_t] of a Python loop, to the last bit.
    rng = np.random.default_rng(3)
    betas = [rng.standard_normal(length) for length in (4, 1, 7, 3, 7, 2)]
    kernels = pad_kernels(betas)
    assert kernels.shape == (6, 7)
    rounds = rng.uniform(0.5, 2.0, size=(9, 6, 4)) * 10.0 ** rng.integers(
        -6, 7, size=(1, 6, 4))
    for traj in (rounds, rounds[:, :, :2]):
        stacked = fterc_final(traj, kernels)
        assert stacked.shape == (6, traj.shape[2] - 1)
        for i, beta in enumerate(betas):
            alone = fterc_final(traj[:, i], beta)
            num, den = beta[0] * traj[0, i, 1:], beta[0] * traj[0, i, 0]
            for t in range(1, len(beta)):
                num = num + beta[t] * traj[t, i, 1:]
                den = den + beta[t] * traj[t, i, 0]
            assert alone.shape == num.shape
            assert alone.tobytes() == stacked[i].tobytes() \
                == (num / den).tobytes()


def test_stacked_fterc_final_refusals():
    ones = np.ones((3, 3, 2))
    kernels = pad_kernels([np.array([1.0]), np.array([-1.0, 1.0]),
                           np.array([2.0, -1.0, -1.0])])
    # nodes 1 and 2 have zero denominator sums; the first is named
    with pytest.raises(NumericBreakdown, match="zero at node 1$"):
        fterc_final(ones, kernels)
    with pytest.raises(NumericBreakdown, match="zero at node 0$"):
        fterc_final(ones[:, 0], [-1.0, 1.0])
    # a trajectory shorter than the longest kernel
    with pytest.raises(ValueError, match="shorter"):
        fterc_final(ones[:2], kernels)
    with pytest.raises(ValueError, match="shorter"):
        fterc_final(ones[:2, 0], [1.0, 0.0, 1.0])
    # a trajectory that does not fit the kernels, which numpy would
    # otherwise broadcast into a wrong value
    for traj, beta in ((ones, [1.0]), (ones[:, 0], kernels[:1]),
                       (ones[:, :2], kernels), (ones[:, 0, 0], [1.0])):
        with pytest.raises(ValueError, match="does not fit"):
            fterc_final(traj, beta)


def _interleaved_fterc_final(traj_y, traj_x, beta):
    """``fterc_final`` as it took the numerator and denominator runs apart,
    interleaving them into one C-order buffer of products: the reference."""
    beta = np.asarray(beta, dtype=float)
    length = beta.shape[-1]
    if len(traj_y) < length or len(traj_x) < length:
        raise ValueError("trajectory shorter than the coefficient vector")
    kernels = beta.reshape(-1, length).T[:, :, None]
    nodes = kernels.shape[1]
    ys = traj_y[:length].reshape(length, nodes, -1)
    terms = np.empty((length, nodes, 1 + ys.shape[2]))
    np.multiply(kernels, traj_x[:length].reshape(length, nodes, 1),
                out=terms[:, :, :1])
    np.multiply(kernels, ys, out=terms[:, :, 1:])
    sums = np.add.reduce(terms, axis=0)
    small = np.abs(sums[:, 0]) <= DENOM_TOL
    if small.any():
        raise NumericBreakdown("ratio denominator is numerically zero at "
                               f"node {np.argmax(small)}")
    return (sums[:, 1:] / sums[:, :1]).reshape(traj_y.shape[1:])[()]


def _outcome(call, *args):
    """A call's value as bytes and shape, or its refusal as type and text."""
    try:
        value = call(*args)
    except (ValueError, NumericBreakdown) as exc:
        return type(exc), str(exc)
    return value.shape, value.tobytes()


@settings(max_examples=300, deadline=None)
@given(n=st.integers(1, 25), p=st.integers(1, 5), rounds=st.integers(1, 25),
       data=st.data())
def test_fterc_final_equals_the_interleaving_version_bitwise(n, p, rounds,
                                                            data):
    # The phase's own [x, y] rows, reduced as they are, give every node's
    # value and every refusal of the version that split and re-interleaved
    # them, to the last bit: for stacks of zero-padded kernels and for one
    # node, on contiguous trajectories and on strided or transposed views.
    lengths = data.draw(st.lists(st.integers(1, rounds), min_size=n,
                                 max_size=n))
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    betas = [rng.standard_normal(k) * (rng.random(k) < 0.8) for k in lengths]
    kernels = pad_kernels(betas)
    whole = rng.uniform(0.5, 2.0, size=(2 * rounds, n + 1, p + 2)) * (
        10.0 ** rng.integers(-6, 7, size=(1, n + 1, p + 2)))
    layout = data.draw(st.sampled_from(["c", "strided", "reversed", "f"]))
    traj = {"c": np.ascontiguousarray(whole[:rounds, :n, :p + 1]),
            "strided": whole[::2, :n, :p + 1],
            "reversed": whole[rounds - 1::-1, n - 1::-1, :p + 1],
            "f": np.asfortranarray(whole[:rounds, :n, :p + 1])}[layout]
    traj = traj[:data.draw(st.integers(0, rounds))]   # short ones refused
    if data.draw(st.booleans()):                   # a zero denominator run
        traj = traj.copy(order="K")                # the layout kept
        traj[:, data.draw(st.integers(0, n - 1)), 0] = 0.0
    assert _outcome(fterc_final, traj, kernels) == _outcome(
        _interleaved_fterc_final, traj[..., 1:], traj[..., 0], kernels)
    i = data.draw(st.integers(0, n - 1))
    assert _outcome(fterc_final, traj[:, i], betas[i]) == _outcome(
        _interleaved_fterc_final, traj[:, i, 1:], traj[:, i, 0], betas[i])


def test_detector_rejects_collapsing_combination():
    # Two modes at 1 and 1 - 1e-12: the kernel of the difference sequence
    # exists, but its value combination divides by ~1e-12 of the signal
    # scale, which the stability probe refuses.
    det = HankelDetector(1)
    r = 1.0 - 1e-12
    traj = []
    for t in range(12):
        traj.append(np.array([[1.0 + r ** t]]))
        det.feed(traj)
    assert det.open[0] and det.defect == [None]


@given(n=st.integers(2, 10), prob=st.floats(0.0, 0.6),
       width=st.sampled_from([1, 3]), seed=st.integers(0, 10_000))
@settings(max_examples=40, deadline=None)
def test_detector_fires_at_each_nodes_minimal_polynomial(n, prob, width,
                                                         seed):
    # One detector, fed a whole network's ratio trajectory a round at a
    # time, fires node j at round 2d + 1 with d + 1 the degree of j's
    # minimal polynomial, and its kernel recovers the exact mean. The float
    # rank is a numerical one: where a mode reaches node j below RANK_TOL of
    # the signal (about 1 draw in 400 here: scalar seeds on dense digraphs
    # at n >= 9) the node fires one size early, its value still inside the
    # referee.
    g = random_strongly_connected(n, extra_edge_prob=prob, seed=seed)
    w = ratio_weights(g)
    y0 = np.random.default_rng(seed).uniform(-5, 5, size=(n, width))
    state = np.column_stack((np.ones(n), y0))
    det = HankelDetector(n)
    traj, fired_at = [state], {}
    for t in range(1, 2 * n + 1):
        state = w @ state
        traj.append(state)
        for j in det.feed(traj):
            fired_at[j] = t
    obs = np.stack(traj)
    truth = _true_mean(y0)
    for j in range(n):
        d = minimal_poly_oracle(w, j, rank_tol=1e-12) - 1
        found = det.defect[j]
        assert found in (d, d - 1), (j, d, found)
        assert fired_at[j] == 2 * found + 1 and det.beta[j][-1] == 1.0
        mu = fterc_final(obs[:found + 1, j], det.beta[j])
        assert np.allclose(mu, truth, rtol=0.0, atol=1e-9)


def test_stacked_svd_matches_per_matrix_calls_bitwise():
    # The detector decomposes every open node's matrix in one stacked call,
    # its right vectors from the thin one; histories stay bitwise
    # reproducible only while that equals one full call per matrix,
    # singular values and right vectors alike.
    g = random_strongly_connected(9, extra_edge_prob=0.3, seed=2)
    w = ratio_weights(g)
    state = np.column_stack((np.ones(9), np.random.default_rng(2)
                             .uniform(-5, 5, size=(9, 3))))
    traj = [state]
    for _ in range(18):
        traj.append(w @ traj[-1])
    diffs = np.diff(np.stack(traj), axis=0)
    for m in range(1, 10):
        for channels in (1, 4):
            stack = np.stack([
                np.vstack([np.stack([diffs[i:i + m, node, c]
                                     for i in range(m)])
                           for c in range(channels)])
                for node in range(9)])
            sigma = np.linalg.svd(stack, compute_uv=False)
            vt = np.linalg.svd(stack)[2]
            thin = np.linalg.svd(stack, full_matrices=False)[2]
            for k, matrix in enumerate(stack):
                assert np.array_equal(
                    sigma[k], np.linalg.svd(matrix, compute_uv=False))
                assert np.array_equal(vt[k], np.linalg.svd(matrix)[2])
                assert np.array_equal(thin[k], vt[k])


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


def test_fterc_and_ftdt_run_compute_no_digests(monkeypatch):
    # Both discard their round log, so they must not pay for its digests.
    g = random_strongly_connected(7, extra_edge_prob=0.3, seed=4)
    y0 = np.random.default_rng(4).uniform(-1, 1, size=(7, 3))
    before = fterc_run(g, y0), ftdt_run(g, y0)

    def forbidden(obj):
        raise AssertionError("stable_digest called")

    monkeypatch.setattr("consensus_admm.netsim.stable_digest", forbidden)
    fterc, ftdt = fterc_run(g, y0), ftdt_run(g, y0)
    for r, again in zip(fterc, before[0]):
        assert np.array_equal(r.mu, again.mu) and r.defect == again.defect
        assert np.allclose(r.mu, _true_mean(y0), rtol=0.0, atol=1e-12)
    assert np.array_equal(ftdt.values, before[1].values)
    assert ftdt.t_terms == before[1].t_terms
    assert np.allclose(ftdt.values, _true_mean(y0), rtol=0.0, atol=1e-12)


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


def test_float_lane_breakdown_is_raised_not_retried():
    # The detection phase breaks down here: a node is still open at its 2n'
    # horizon. The error reaches the caller; a rerun on nudged seeds
    # returned a mean 1.8e-7 away from the exact one without raising.
    g = random_strongly_connected(30, 0.05, seed=4)
    y0 = np.random.default_rng(4).uniform(-5, 5, size=(30, 3))
    with pytest.raises(NumericBreakdown,
                       match="node 3 found no defect within 60 rounds"):
        fterc_run(g, y0)


def test_exact_lane_validates_seed_count():
    with pytest.raises(ValueError):
        exact_consensus_run(THREE_CYCLE, np.ones((4, 2)))
    # 2n scalars must not pass as n width-2 seeds; nor one bare scalar
    for seeds in (np.arange(6.0), 1.0):
        with pytest.raises(ValueError, match="seed count"):
            exact_consensus_run(THREE_CYCLE, seeds)
        for exact in (False, True):
            with pytest.raises(ValueError):
                ftdt_run(THREE_CYCLE, seeds, exact=exact)
        with pytest.raises(ValueError):
            fterc_run(THREE_CYCLE, seeds)
    # a zero-width seed row, or one that is not a vector, names its shape
    for seeds in (np.ones((3, 0)), np.ones((3, 2, 2))):
        match = re.escape(f"seeds of shape {seeds.shape}")
        with pytest.raises(ValueError, match=match):
            exact_consensus_run(THREE_CYCLE, seeds)
        for exact in (False, True):
            with pytest.raises(ValueError, match=match):
                ftdt_run(THREE_CYCLE, seeds, exact=exact)
        with pytest.raises(ValueError, match=match):
            fterc_run(THREE_CYCLE, seeds)
    # a NaN or infinite seed is refused up front by every lane, and so is a
    # complex one, whose imaginary part a float conversion would drop
    for bad, match in ((np.nan, "seeds must be finite"),
                       (np.inf, "seeds must be finite"),
                       (-np.inf, "seeds must be finite"),
                       (1 + 5j, "seeds must be real")):
        for seeds in (np.array([1.0, bad, 2.0]), np.full((3, 2), bad),
                      np.array([bad, Fraction(1, 2), 3], dtype=object)):
            with pytest.raises(ValueError, match=match):
                exact_consensus_run(THREE_CYCLE, seeds)
            for exact in (False, True):
                with pytest.raises(ValueError, match=match):
                    ftdt_run(THREE_CYCLE, seeds, exact=exact)
            with pytest.raises(ValueError, match=match):
                fterc_run(THREE_CYCLE, seeds)
    # nor are numeric strings, bytes or dates parsed as seeds, by dtype or
    # inside an object array beside real numbers
    for seeds in (np.array(["1", "2", "6"]), np.array([b"1", b"2", b"6"]),
                  np.array(["2020-01-01", "2020-01-02", "2020-01-06"],
                           dtype="datetime64[D]"),
                  np.array(["1", Fraction(2), 6.0], dtype=object),
                  np.array([[1.0, 2.0], [b"3", 4.0], [5.0, 6.0]],
                           dtype=object)):
        with pytest.raises(ValueError, match="seeds must be real"):
            exact_consensus_run(THREE_CYCLE, seeds)
        for exact in (False, True):
            with pytest.raises(ValueError, match="seeds must be real"):
                ftdt_run(THREE_CYCLE, seeds, exact=exact)
        with pytest.raises(ValueError, match="seeds must be real"):
            fterc_run(THREE_CYCLE, seeds)


def _stacked_block(ints, m):
    return [[row[i + j] for j in range(m)] for row in ints for i in range(m)]


def test_exact_lane_screen_matches_rational_ranks():
    # Small integers, so float64 ranks are exact referees. The recurrence
    # stops at the first singular Hankel size of the mixed channel, its
    # kernel annihilates every mixed row of that size, and every smaller
    # stacked block has full rank.
    rng = np.random.default_rng(4)
    seqs = rng.integers(-3, 4, size=(6, 2, 9))
    seqs[1, 1] = 0                        # a silent channel
    seqs[2] = 2 ** np.arange(9)           # a geometric run: rank 1
    seqs[3, :, 0] = [3, -1]               # a false alarm: the mix opens at 0
    firsts = []
    for seq in seqs:
        mixed = [int(v) for v in 3 * seq[0] + 9 * seq[1]]
        found = _hankel_kernel(mixed, 5)
        m = found and found[0]
        singular = [k for k in range(1, 6) if np.linalg.matrix_rank(
            np.array(_stacked_block([mixed], k), float)) < k]
        assert m == (singular[0] if singular else None)
        firsts.append(m)
        if found:
            assert len(found[1]) == m and _annihilates([mixed], found[1])
        for k in range(1, m or 6):
            block = np.array(_stacked_block(seq.tolist(), k), float)
            assert np.linalg.matrix_rank(block) == k
    assert firsts[2] == 2 and firsts[3] == 1
    assert _hankel_kernel([12 * 2 ** t for t in range(9)], 5) == (2, [-2, 1])
    assert np.linalg.matrix_rank(np.array(_stacked_block(
        seqs[3].tolist(), 1), float)) == 1
    assert not _annihilates(seqs[3].tolist(), [1])


def test_exact_lane_restarts_after_a_false_alarm(monkeypatch):
    # Two geometric runs (ratios 2 and -1) make defect index 2. The first
    # mix cancels their first differences (3 * 3 + 9 * -1 = 0), so it flags
    # size 1 although the stacked block has full rank there.
    ints = [[3 * 2 ** t for t in range(7)], [-(-1) ** t for t in range(7)]]
    mixed = [3 * a + 9 * b for a, b in zip(*ints)]
    assert _hankel_kernel(mixed, 4, ints) == (1, None)
    defect, kernel = _detect_node(ints)
    assert defect == 2
    assert [Fraction(k, kernel[-1]) for k in kernel] == [-2, -1, 1]
    for mixes in ((3,), ()):              # restart used up; no mix at all
        monkeypatch.setattr(exact, "_MIXES", mixes)
        d, k = _detect_node(ints)
        assert d == defect and [a * kernel[-1] for a in k] == [
            b * k[-1] for b in kernel]
    for m in range(1, defect + 2):
        rank = _bareiss_echelon(_stacked_block(ints, m), m)[0]
        assert rank == (m if m <= defect else m - 1)
    assert not any(sum(v * k for v, k in zip(row, kernel))
                   for row in _stacked_block(ints, defect + 1))


def test_exact_lane_memory_stays_per_node_beyond_the_family():
    # A 24-ring has defect 23 at every node, past criterion 1's n <= 20.
    # The lane holds every node's integer channels and word-sized residues
    # at once, which is linear in the sequence length; holding every node's
    # stacked blocks at once peaked near 14 MB here.
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


def test_exact_kernel_checks_the_certificate_rows():
    geometric = [[1, 2, 4]]
    # The recurrence's kernel of the first row [1, 2] is [-2, 1].
    assert _hankel_kernel(geometric[0], 2) == (2, [-2, 1])
    assert _annihilates(geometric, [-2, 1])
    # Whole-block elimination finds the same kernel.
    assert _exact_kernel(geometric, 2) == [-2, 1]
    # A block row outside that kernel is a false alarm: full rank.
    assert not _annihilates(geometric + [[1, 0, 1]], [-2, 1])
    assert _exact_kernel(geometric + [[1, 0, 1]], 2) is None
    with pytest.raises(NumericBreakdown, match="2-dimensional"):
        _exact_kernel([[0, 0, 0]], 2)


@st.composite
def _moment_sequences(draw):
    """Small-integer sequences: random, or a few geometric modes, with
    zero leading entries drawn in either case."""
    length = draw(st.integers(1, 11))
    small = st.integers(-3, 3)
    if draw(st.booleans()):
        seq = draw(st.lists(small, min_size=length, max_size=length))
    else:
        modes = draw(st.lists(st.tuples(small.filter(bool), small),
                              min_size=1, max_size=3))
        seq = [sum(c * r ** t for c, r in modes) for t in range(length)]
    zeros = draw(st.sampled_from((0, 0, 0, 0, 0, 1, 2)))
    return [0] * zeros + seq[zeros:]


@settings(max_examples=300, deadline=None)
@given(_moment_sequences())
def test_hankel_kernel_matches_bareiss(seq):
    top = (len(seq) + 1) // 2
    ranks = [_bareiss_echelon(_stacked_block([seq], k), k)[0]
             for k in range(1, top + 1)]
    first = next((k for k, r in enumerate(ranks, 1) if r < k), None)
    found = _hankel_kernel(seq, top)
    assert (found and found[0]) == first
    if found:
        m, q = found
        assert len(q) == m and _annihilates([seq], q)
        assert m == 1 or q[-1] != 0


def _primitive(vector):
    g = math.gcd(*vector) * (1 if vector[-1] > 0 else -1)
    return [v // g for v in vector]


@st.composite
def _wide_geometric_sequences(draw):
    """Sums of up to four geometric modes with ratios up to +-1000, so the
    kernel (their characteristic polynomial) outgrows any tiny prime, or
    small random integers; zero leading entries drawn in either case."""
    length = draw(st.integers(1, 11))
    if draw(st.booleans()):
        modes = draw(st.lists(st.tuples(st.integers(-3, 3).filter(bool),
                                        st.integers(-1000, 1000)),
                              min_size=1, max_size=4))
        seq = [sum(c * r ** t for c, r in modes) for t in range(length)]
    else:
        seq = draw(st.lists(st.integers(-9, 9), min_size=length,
                            max_size=length))
    zeros = draw(st.sampled_from((0, 0, 0, 1, 2)))
    return [0] * zeros + seq[zeros:]


_TINY_PRIMES = [p for p in range(3, 20000)
                if all(p % d for d in range(2, int(p ** 0.5) + 1))]


@settings(max_examples=300, deadline=None)
@given(_wide_geometric_sequences())
def test_hankel_kernel_over_tiny_primes_matches_bareiss(seq):
    # Tiny primes read spurious zeros of det H_k and hold only a few bits of
    # each kernel entry, so the candidate size moves and several primes
    # must be combined before the reconstructed kernel passes its check.
    top = (len(seq) + 1) // 2
    ranks = [_bareiss_echelon(_stacked_block([seq], k), k)[0]
             for k in range(1, top + 1)]
    first = next((k for k, r in enumerate(ranks, 1) if r < k), None)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(exact, "_PRIMES", _TINY_PRIMES)
        found = _hankel_kernel(seq, top)
    assert (found and found[0]) == first
    if found:
        m, kernel = found
        assert kernel == _primitive(_exact_kernel([seq[:2 * m - 1]], m))


@st.composite
def _channel_pairs(draw):
    """Two difference channels of one length, mixed as the first mix does."""
    first, second = draw(_moment_sequences()), draw(_moment_sequences())
    length = min(len(first), len(second))
    ints = [first[:length], second[:length]]
    return ints, [3 * a + 9 * b for a, b in zip(*ints)]


@settings(max_examples=300, deadline=None)
@given(_channel_pairs())
def test_hankel_kernel_checks_stacked_rows_first(channels):
    # Checking the stacked rows first must keep the decision of the mixed
    # check followed by the stacked one: the same size, the same kernel,
    # and a false alarm exactly where the kernel misses a stacked row.
    ints, mixed = channels
    top = (len(mixed) + 1) // 2
    for primes in (exact._PRIMES, _TINY_PRIMES):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(exact, "_PRIMES", primes)
            alone = _hankel_kernel(mixed, top)
            found = _hankel_kernel(mixed, top, ints)
        if alone is None:
            assert found is None
        else:
            m, kernel = alone
            assert found == (m, kernel if _annihilates(ints, kernel)
                             else None)


def test_exact_lane_rings_of_forty_stay_fast():
    # The exact referee at the size the float lane loses its rank decisions.
    g = random_strongly_connected(40, extra_edge_prob=0.0, seed=3)
    y0 = np.random.default_rng(5).uniform(-5, 5, size=(40, 3))
    truth = _true_mean(y0)
    start = time.perf_counter()
    res = exact_consensus_run(g, y0)
    assert time.perf_counter() - start < 1.0
    for r in res:
        assert r.defect == 39
        assert np.array_equal(r.mu, truth)


def _screen_cases():
    """Seeded digraphs n <= 10, widths 1 and 3, generic and tied seeds."""
    for case in range(18):
        n = 2 + case % 9
        g = random_strongly_connected(n, extra_edge_prob=0.3 * (case % 3),
                                      seed=40 + case)
        rng = np.random.default_rng(700 + case)
        shape = n if case % 2 else (n, 3)
        tied = case % 4 >= 2
        y0 = (rng.integers(-2, 3, size=shape).astype(float) if tied
              else rng.uniform(-5, 5, size=shape))
        yield g, y0


def test_exact_lane_defects_match_whole_block_ranks():
    # Referee: whole-block Bareiss. Every size up to the defect index d has
    # full rank and size d + 1 is deficient.
    for g, y0 in _screen_cases():
        diffs = _differences(*_exact_trajectories(g, y0.reshape(g.n, -1),
                                                  2 * g.n + 1))
        for j, res in enumerate(exact_consensus_run(g, y0)):
            ints = diffs[j].tolist()
            for m in range(1, res.defect + 2):
                rank = _bareiss_echelon(_stacked_block(ints, m), m)[0]
                assert (rank == m) == (m <= res.defect), (g.n, j, m)


def _loop_trajectories(g, seeds, rounds):
    """Reference: the node-by-node list loop the object arrays replace;
    ``chans[j][c][t]`` is node j's channel c at round t."""
    n = seeds.shape[0]
    base = math.lcm(*(1 + g.out_degree(j) for j in range(n)))
    gains = [base // (1 + g.out_degree(j)) for j in range(n)]
    ratios = [[float(v).as_integer_ratio() for v in row] for row in seeds]
    unit = max(den for row in ratios for _, den in row)
    state = [[unit] + [num * (unit // den) for num, den in row]
             for row in ratios]
    history = [[row] for row in state]
    for _ in range(rounds):
        nxt = [[0] * len(row) for row in state]
        for j in range(n):
            share = [gains[j] * v for v in state[j]]
            for r in (j, *g.out_neighbors[j]):
                nxt[r] = [a + b for a, b in zip(nxt[r], share)]
        state = nxt
        for j in range(n):
            history[j].append(state[j])
    return [[list(seq) for seq in zip(*rows)] for rows in history], base


def test_exact_trajectories_match_the_node_loop():
    for g, y0 in _screen_cases():
        seeds = y0.reshape(g.n, -1)
        traj, base = _exact_trajectories(g, seeds, 2 * g.n + 1)
        chans, loop_base = _loop_trajectories(g, seeds, 2 * g.n + 1)
        assert base == loop_base
        assert traj.transpose(1, 2, 0).tolist() == chans
        assert all(type(v) is int for v in traj.flat)


def _kernel_mod(seq, top, prime):
    """Reference: one row's recurrence on Python integers, the scalar loop
    :func:`exact._kernels_mod` runs in lockstep."""
    s = [v % prime for v in seq]
    low, q = [], [1]
    h_low, nu_low = 1, 0
    for k in range(top):
        h = sum(a * b for a, b in zip(q, s[k:2 * k + 1])) % prime
        if h == 0:
            unit = pow(q[-1], -1, prime)
            return k + 1, [v * unit % prime for v in q]
        if k + 1 == top:
            break
        nu = sum(a * b for a, b in zip(q, s[k + 1:2 * k + 2])) % prime
        lead = h_low * h % prime
        mid = (h_low * nu - h * nu_low) % prime
        tail = h * h % prime
        low, q = q, [(lead * a - mid * b - tail * c) % prime for a, b, c
                     in zip([0, *q], [*q, 0], [*low, 0, 0])]
        h_low, nu_low = h, nu
    return 0, None


def _lockstep(seqs, top, primes):
    residues = np.array([[v % p for v in seq] for seq, p in zip(seqs, primes)],
                        dtype=np.int64)
    sizes, monics = exact._kernels_mod(residues, top,
                                       np.array(primes, dtype=np.int64))
    return list(zip(sizes.tolist(), monics))


def test_lockstep_recurrence_stays_inside_int64():
    # Residues are int64, so every product of two must stay below 2**63:
    # the primes must stay below 2**31. Residues of p - 1 make the largest
    # products; a random order-20 recurrence near p keeps every row open
    # to the last size of a 20-ring's sequence, the family's longest.
    primes = [exact._PRIMES[0], exact._PRIMES[1]]
    assert primes[0] == 2**31 - 1 and primes[1] < primes[0]
    length = 2 * 20 + 1
    top = (length + 1) // 2
    rng = np.random.default_rng(11)
    seqs, coeffs = [], []
    for p in primes:
        c = [int(v) for v in rng.integers(p - 2**20, p, size=20)]
        seq = [int(v) for v in rng.integers(p - 2**20, p, size=20)]
        while len(seq) < length:
            seq.append(sum(a * b for a, b in zip(c, seq[-20:])) % p)
        seqs += [[p - 1] * length, seq]
        coeffs.append([(-v) % p for v in c] + [1])
    rows = [p for p in primes for _ in range(2)]
    found = _lockstep(seqs, top, rows)
    assert found == [_kernel_mod(seq, top, p) for seq, p in zip(seqs, rows)]
    assert [found[1], found[3]] == [(21, coeffs[0]), (21, coeffs[1])]


@settings(max_examples=200, deadline=None)
@given(st.lists(_wide_geometric_sequences(), min_size=1, max_size=4),
       st.lists(st.sampled_from((3, 5, 7, 101, 19997, 2**31 - 1)),
                min_size=4, max_size=4))
def test_lockstep_recurrence_matches_the_scalar_loop(seqs, primes):
    # Rows of one pass share a length and each carries its own modulus.
    length = min(map(len, seqs))
    seqs = [seq[:length] for seq in seqs]
    primes = primes[:len(seqs)]
    top = (length + 1) // 2
    assert _lockstep(seqs, top, primes) == [
        _kernel_mod(seq, top, p) for seq, p in zip(seqs, primes)]


@st.composite
def _seeded_networks(draw):
    """Seeded digraphs with n <= 10 and generic, tied or rounded seeds."""
    n = draw(st.integers(1, 10))
    g = random_strongly_connected(
        n, extra_edge_prob=draw(st.sampled_from((0.0, 0.3, 0.6))),
        seed=draw(st.integers(0, 10_000)))
    rng = np.random.default_rng(draw(st.integers(0, 10_000)))
    shape = (n, draw(st.sampled_from((1, 3))))
    kind = draw(st.sampled_from(("generic", "tied", "rounded")))
    y0 = (rng.uniform(-5, 5, size=shape) if kind == "generic"
          else rng.integers(-2, 3, size=shape).astype(float) if kind == "tied"
          else rng.integers(-8, 9, size=shape) / 4)
    return g, y0


@settings(max_examples=100, deadline=None)
@given(_seeded_networks())
def test_exact_lane_kernels_match_whole_block_bareiss(network):
    # Referee: whole-block Bareiss. Every node's defect is its first
    # deficient size and its kernel the primitive kernel there, under the
    # real primes and under tiny ones, which read spurious zeros (dropping
    # primes) and need several lockstep passes per node.
    g, y0 = network
    diffs = _differences(*_exact_trajectories(g, y0, 2 * g.n + 1))
    for primes in (exact._PRIMES, _TINY_PRIMES):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(exact, "_PRIMES", primes)
            found = _detect_nodes(diffs, whole_network=True)
        assert _whole_block_referee(diffs, found)


def _whole_block_referee(diffs, found):
    """Whether every node's defect is its first deficient stacked size and
    its kernel the primitive whole-block Bareiss kernel there."""
    for ints, (defect, kernel) in zip(diffs.tolist(), found):
        m = defect + 1
        if not all(_bareiss_echelon(_stacked_block(ints, k), k)[0] == k
                   for k in range(1, m)):
            return False
        if _primitive(kernel) != _primitive(_exact_kernel(ints, m)):
            return False
    return True


@pytest.mark.parametrize("n, prob, seed, shape, defects", [
    # nodes 0 and 2 share a kernel that misses nodes 1 and 3: node 2 must
    # check its own rows once node 0's check fails over the network
    (4, 0.6, 0, (4, 1), [2, 3, 2, 3]),
    # under tiny primes a spurious zero moves a first node's size past the
    # size its waiting followers' own primes read
    (6, 0.6, 6, (6, 1), [5, 4, 4, 4, 4, 5]),
    # two kernel classes: the network proves one, node 11 checks its own
    (12, 0.3, 0, 12, [11] * 11 + [10]),
])
def test_shared_kernels_match_whole_block_bareiss(n, prob, seed, shape,
                                                  defects):
    # A class of nodes shares one rebuilt kernel. A node inherits it only
    # when the whole network's first window proves it at the node's own
    # size; otherwise every node checks and resolves on its own.
    g = random_strongly_connected(n, prob, seed=seed)
    y0 = np.random.default_rng(seed).uniform(-5, 5, shape)
    truth = _true_mean(y0)
    diffs = _differences(*_exact_trajectories(g, y0.reshape(n, -1),
                                              2 * n + 1))
    for primes in (exact._PRIMES, _TINY_PRIMES):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(exact, "_PRIMES", primes)
            found = _detect_nodes(diffs, whole_network=True)
            results = exact_consensus_run(g, y0)
        assert [defect for defect, _ in found] == defects
        assert _whole_block_referee(diffs, found)
        assert [r.defect for r in results] == defects
        assert all(np.array_equal(r.mu, truth) for r in results)


def test_one_nodes_channels_are_checked_on_their_own_rows():
    # A kernel that vanishes on one node's first window annihilates every
    # row of a network only when the channels are that network's
    # trajectory differences. These are not: the size-2 kernel [1, 1]
    # cancels the first window but not the stacked rows, and no size up
    # to 4 is singular.
    ints = [[-1, 1, -4, 2, -1, -2, 2], [-1, 1, 0, 0, 1, -3, 4]]
    assert not _annihilates(ints, [1, 1])
    with pytest.raises(NumericBreakdown, match="no exact defect within 7"):
        _detect_node(ints)


def test_a_shared_kernel_is_rebuilt_once_per_pass(monkeypatch):
    # Every node of this digraph shares one kernel of size 60: one row per
    # pass rebuilds it, one product with the network's first window proves
    # it for every node, and no node's block is checked on its own.
    g = random_strongly_connected(60, 0.1, seed=1)
    y0 = np.random.default_rng(1).uniform(-5, 5, 60)
    calls = {"_annihilates": 0, "_rational_kernel": 0, "_kernels_mod": 0}
    for name in calls:
        def counted(*args, _name=name, _call=getattr(exact, name)):
            calls[_name] += 1
            return _call(*args)
        monkeypatch.setattr(exact, name, counted)
    results = exact_consensus_run(g, y0)
    passes = calls["_kernels_mod"]
    assert calls["_annihilates"] == 0
    assert passes <= calls["_rational_kernel"] <= passes + 1
    truth = _true_mean(y0)
    assert all(r.defect == 59 and r.mu == truth for r in results)


def test_exact_lane_fallback_matches_the_screen(monkeypatch):
    # All-zero mixes flag size 1 every time, so every size past it goes to
    # whole-block elimination; the results must not change.
    cases = list(_screen_cases())[::3]
    expected = [exact_consensus_run(g, y0) for g, y0 in cases]
    monkeypatch.setattr(exact, "_MIXES", (0, 0))
    for (g, y0), want in zip(cases, expected):
        for a, b in zip(exact_consensus_run(g, y0), want):
            assert (a.defect, a.rounds_used) == (b.defect, b.rounds_used)
            assert np.array_equal(a.beta, b.beta)
            assert np.array_equal(a.mu, b.mu)


def test_exact_zero_mean_comes_back_positive():
    # Rounded seeds with an exact zero mean: the sign of a zero must not
    # depend on the sign of the elimination's denominator.
    for case in range(8):
        n = 3 + case
        g = random_strongly_connected(n, extra_edge_prob=0.3, seed=case)
        y0 = np.random.default_rng(case).integers(-8, 9, size=(n, 3)) / 4
        y0[-1] = -y0[:-1].sum(axis=0)
        for r in exact_consensus_run(g, y0):
            assert np.array_equal(r.mu, np.zeros(3))
            assert not np.signbit(r.mu).any()
        try:
            term = ftdt_run(g, y0[:, 0], exact=True)
        except NonIntegerResult:
            continue
        assert not np.signbit(term.values).any()


@settings(max_examples=200, deadline=None)
@given(st.lists(st.integers(-2**300, 2**300), min_size=1, max_size=24),
       st.data())
def test_memoized_hadamard_exponent_equals_the_bound(seq, data):
    # The exact lane takes each row's bit lengths once and each exponent
    # once per size; every answer, repeated or not, is _hadamard_bits.
    rows = np.array([[0] * len(seq), seq], dtype=object)
    bounds = _HadamardBounds(rows)
    top = (len(seq) + 1) // 2
    for m in data.draw(st.lists(st.integers(1, top), min_size=1,
                                max_size=6)):
        assert bounds(1, m) == _hadamard_bits(seq, m)
        assert bounds(0, m) == _hadamard_bits([0] * len(seq), m)
