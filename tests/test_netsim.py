"""Round-engine semantics: array waves, blocks, logging, determinism."""

import functools
import hashlib
import json
import re
import struct
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from consensus_admm import (ProtocolViolation, RoundEngine, build_digraph,
                            phase_lengths, random_strongly_connected,
                            ratio_update, ratio_weights, stable_digest)
from consensus_admm.netsim import _header_hash


def _live(engine):
    """True where a block row holds a payload rather than the pad."""
    return engine.gather != engine.graph.n


def block_max(block, live):
    """Reference: each node's column-wise maximum over its live rows."""
    return np.max(block, axis=1, where=live[:, :, None], initial=-np.inf)


def block_min(block, live):
    """Reference: each node's column-wise minimum over its live rows."""
    return np.min(block, axis=1, where=live[:, :, None], initial=np.inf)


def _cycle(n):
    return build_digraph(n, [((i + 1) % n, i) for i in range(n)])


def _column(values):
    return np.array(values, dtype=float)[:, None]


def _flood(engine, waves=None):
    """Max-flood update; appends every wave it returns to ``waves``."""

    def update(block, tick):
        wave = block_max(block, _live(engine))
        if waves is not None:
            waves.append(wave)
        return wave

    return update


def _recording(blocks):
    """An update that keeps a copy of each block (the engine rewrites its
    block buffer every round) and re-broadcasts the own rows."""

    def update(block, tick):
        blocks.append(block.copy())
        return block[:, 0]

    return update


def test_messages_travel_one_hop_per_round():
    g = _cycle(5)
    engine = RoundEngine(g)
    waves = []
    engine.prime(_column([1, 0, 0, 0, 0]))
    # the token starts at node 0 and the only edges are i -> i+1
    for k in range(1, 5):
        engine.run_round(_flood(engine, waves))
        expected = [1 if j <= k else 0 for j in range(5)]
        assert waves[-1][:, 0].tolist() == expected, f"round {k}"


def test_update_reads_previous_round_snapshot():
    # If an update could see same-round updates, the token would cross two
    # hops in one exchange somewhere along a long cycle; it never does.
    g = _cycle(9)
    engine = RoundEngine(g)
    waves = []
    engine.prime(_column([1] + [0] * 8))
    for k in range(1, 9):
        engine.run_round(_flood(engine, waves))
        assert waves[-1].sum() == k + 1


def test_broadcast_reaches_exactly_the_in_neighbours():
    # Asymmetric: 0 -> 1, 0 -> 2, 1 -> 2, 2 -> 0, 3 -> 0, 2 -> 3
    g = build_digraph(4, [(1, 0), (2, 0), (2, 1), (0, 2), (0, 3), (3, 2)])
    engine = RoundEngine(g)
    with pytest.raises(ProtocolViolation):
        engine.run_round(lambda block, tick: block[:, 0])  # nothing primed
    with pytest.raises(ValueError):
        engine.prime(_column(range(3)))   # one payload row per node
    engine.prime(_column(range(4)))
    blocks = []

    assert engine.run_round(_recording(blocks)).message_count \
        == g.edge_count == 6
    for i in range(g.n):
        senders = blocks[0][i, 1:][_live(engine)[i, 1:]]
        assert senders[:, 0].tolist() == list(g.in_neighbors[i])
        assert blocks[0][i, 0, 0] == i
    # a round's wave keeps the primed shape: only prime sets a new one,
    # and a round refused for it advances neither the tick nor the log
    with pytest.raises(ValueError, match=r"primed shape \(4, 1\)"):
        engine.run_round(lambda block, tick: np.zeros((4, 2)))
    assert engine.tick == engine.log[-1].tick == 1
    assert len(engine.log) == 2


def test_prime_discards_pending_messages():
    g = _cycle(3)
    engine = RoundEngine(g)
    waves = []
    engine.prime(_column([10, 0, 0]))
    # messages carrying 10 are pending; re-prime with fresh values first
    engine.prime(_column([0, 0, 7]))
    engine.run_round(_flood(engine, waves))
    # node 1 must have heard 0 (the new wave), never the stale 10
    assert waves[-1][:, 0].tolist() == [7, 0, 7]


def test_inbox_sorted_by_sender():
    g = build_digraph(3, [(2, 0), (2, 1), (0, 2), (1, 2)])
    engine = RoundEngine(g)
    engine.prime(_column([10, 11, 12]))
    blocks = []
    engine.run_round(_recording(blocks))
    assert blocks[0][2, :, 0].tolist() == [12, 10, 11]


def _delivered(engine, wave):
    """The block every node gets from ``wave``: pads read NaN."""
    padded = np.vstack((np.asarray(wave, dtype=float),
                        np.full((1, np.shape(wave)[1]), np.nan)))
    return padded[engine.gather]


def test_wave_buffer_keeps_pads_nan_and_drops_earlier_phases():
    # Nodes 0 and 1 hear only node 2, so their blocks end in a pad row.
    g = build_digraph(3, [(2, 0), (2, 1), (0, 2), (1, 2)])
    engine = RoundEngine(g)
    live = _live(engine)
    assert (~live).any()
    blocks = []
    rng = np.random.default_rng(0)
    for width in (3, 1, 3, 3, 2):          # wide, narrow, wide, same, narrow
        seed = rng.uniform(-5, 5, size=(3, width))
        engine.prime(seed)
        engine.run_phase(_recording(blocks), 2)
        first, second = blocks[-2:]
        # only this phase's seed reaches the first block, then its echo
        np.testing.assert_array_equal(first, _delivered(engine, seed))
        np.testing.assert_array_equal(second, _delivered(engine, seed))
        assert np.isnan(first[~live]).all()
        assert not np.isnan(first[live]).any()


def test_engine_buffers_are_allocated_per_width():
    # One wave buffer and one block buffer, allocated together when the
    # width changes and rewritten in place otherwise.
    g = build_digraph(3, [(2, 0), (2, 1), (0, 2), (1, 2)])
    engine = RoundEngine(g)
    rng = np.random.default_rng(5)
    old_wave = None
    for width in (4, 2, 4):
        sent = [rng.uniform(-5, 5, size=(3, width))]
        rec = engine.prime(sent[0])
        assert rec.digest == stable_digest(sent[0])
        wave = engine._wave
        assert wave.shape == (4, width)
        if old_wave is not None:         # rebuilt with the new buffer
            assert not np.shares_memory(wave, old_wave)
        old_wave = wave
        blocks = []

        def update(block, tick):
            np.testing.assert_array_equal(block, _delivered(engine, sent[-1]))
            assert np.isnan(block[~_live(engine)]).all()
            blocks.append(block)
            sent.append(rng.uniform(-5, 5, size=(3, width)))
            return sent[-1]

        for _ in range(3):
            rec = engine.run_round(update)
            assert rec.digest == stable_digest(sent[-1])
        assert all(block is blocks[0] for block in blocks)
        assert engine._wave is wave


def test_a_refused_prime_changes_nothing():
    # A pad that fits the wave's columns neither as a scalar nor one value
    # per column is refused before any buffer or log entry changes.
    g = random_strongly_connected(4, 0.3, seed=1)
    engine = RoundEngine(g)
    engine.prime(np.ones((4, 1)), "narrow", pad=-0.0)
    engine.run_round(lambda block, tick: block[:, 0])
    log, tick = list(engine.log), engine.tick
    buffers = engine._wave, engine._slabs, engine._block
    wave = engine._wave.copy()
    match = r"shape \(2,\) for a wave of shape \(4, 3\)"
    with pytest.raises(ValueError, match=match):
        engine.prime(np.zeros((4, 3)), "x", pad=[1.0, 2.0])
    # nor is a complex wave or pad, whose imaginary part a float conversion
    # would drop with a warning
    complex_wave = np.array([[1 + 1j]] + [[0.0]] * 3)
    for bad_wave, bad_pad, what in (
            (complex_wave, np.nan, "a wave"),
            (complex_wave.astype(object), np.nan, "a wave"),
            (np.zeros((4, 3)), 1j, "a pad"),
            (np.zeros((4, 1)), np.array([2 + 0j], dtype=object), "a pad"),
            # nor a string one, which a float conversion would parse
            (np.full((4, 1), "7"), np.nan, "a wave"),
            (np.array([[b"1"], [2.0], [3.0], [4.0]], dtype=object), np.nan,
             "a wave"),
            (np.zeros((4, 1)), "-0.0", "a pad"),
            (np.zeros((4, 2)), np.array([1.0, "2"], dtype=object), "a pad")):
        with pytest.raises(ValueError, match=f"^{what} must be real"):
            engine.prime(bad_wave, "x", pad=bad_pad)
    assert engine.log == log and engine.tick == tick
    assert all(now is then for now, then in zip(
        (engine._wave, engine._slabs, engine._block), buffers))
    np.testing.assert_array_equal(engine._wave, wave)
    record = engine.run_round(lambda block, tick: block[:, 0])
    assert (record.tick, record.phase) == (2, "narrow")
    # on a fresh engine nothing is primed, so no round can run
    fresh = RoundEngine(g)
    with pytest.raises(ValueError, match=match):
        fresh.prime(np.zeros((4, 3)), "x", pad=[1.0, 2.0])
    with pytest.raises(ProtocolViolation):
        fresh.run_round(lambda block, tick: block[:, 0])
    assert fresh.log == [] and fresh.tick == 0


def test_a_round_refuses_a_wave_that_is_not_real():
    # A complex or string wave of the primed shape is refused by name, not
    # cast: before the tick, the log or the payloads change.
    engine = RoundEngine(random_strongly_connected(4, 0.3, seed=1))
    engine.prime(np.ones((4, 1)), "x", pad=-0.0)
    log, wave = list(engine.log), engine._wave.copy()
    for bad in (np.full((4, 1), 1 + 2j), np.full((4, 1), "7"),
                np.full((4, 1), b"7"), np.full((4, 1), 7.0, dtype=object)):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError,
                               match=f"^a wave must be real, got dtype "
                                     f"{re.escape(str(bad.dtype))}$"):
                engine.run_round(lambda block, tick, bad=bad: bad)
        assert engine.log == log and engine.tick == 0
        np.testing.assert_array_equal(engine._wave, wave)
    # real waves of any real dtype are sent as floats
    for good in (np.full((4, 1), 3), np.full((4, 1), True),
                 np.full((4, 1), 2.5, dtype=">f8"),
                 np.full((4, 1), 0.5, dtype=np.float32)):
        engine.run_round(lambda block, tick, good=good: good)
        assert engine._payloads.dtype == float
        np.testing.assert_array_equal(engine._payloads, good)
    assert engine.tick == 4


def test_caller_may_reuse_its_wave_arrays():
    g = build_digraph(3, [(2, 0), (2, 1), (0, 2), (1, 2)])
    engine = RoundEngine(g)
    seed = _column([1, 2, 3])
    engine.prime(seed)
    seed[:] = -1.0                         # after prime: not delivered
    blocks, sent = [], []

    def update(block, tick):
        blocks.append(block.copy())
        sent.append(block[:, 0] * 10.0)
        return sent[-1]

    engine.run_round(update)
    np.testing.assert_array_equal(blocks[0], _delivered(engine, [[1], [2],
                                                                  [3]]))
    sent[0][:] = 0.0                       # after run_round: not delivered
    engine.run_round(update)
    np.testing.assert_array_equal(blocks[1], _delivered(engine, [[10], [20],
                                                                  [30]]))


def test_log_records_and_phase_lengths():
    g = _cycle(4)
    engine = RoundEngine(g)
    engine.prime(_column([0, 1, 2, 3]), "warmup")
    engine.run_phase(_flood(engine), 3)
    engine.prime(_column([0, 1, 2, 3]), "steady")
    engine.run_phase(_flood(engine), 2)

    kinds = [rec.kind for rec in engine.log]
    assert kinds == ["seed", "exchange", "exchange", "exchange",
                     "seed", "exchange", "exchange"]
    assert [rec.tick for rec in engine.log] == [0, 1, 2, 3, 3, 4, 5]
    # every entry logs under the label of the last prime
    assert [rec.phase for rec in engine.log] == ["warmup"] * 4 + ["steady"] * 3
    assert all(rec.message_count == g.edge_count for rec in engine.log)
    assert all(isinstance(rec.digest, str) for rec in engine.log)
    assert phase_lengths(engine.log) == [("warmup", 3), ("steady", 2)]


def test_unaudited_log_keeps_counts_without_digests(monkeypatch):
    def forbidden(obj):
        raise AssertionError("an unaudited engine computed a digest")

    monkeypatch.setattr("consensus_admm.netsim.stable_digest", forbidden)
    g = _cycle(4)
    engine = RoundEngine(g, audit=False)
    engine.prime(_column([0, 1, 2, 3]), "warmup")
    engine.run_phase(_flood(engine), 2)
    assert [rec.digest for rec in engine.log] == [None] * 3
    assert all(rec.message_count == g.edge_count for rec in engine.log)


def test_jsonl_export(tmp_path):
    g = _cycle(3)
    engine = RoundEngine(g)
    engine.prime(_column([5, 0, 0]))
    engine.run_round(_flood(engine))
    path = tmp_path / "log.jsonl"
    engine.export_jsonl(path)
    rows = [json.loads(line) for line in path.read_text().splitlines()]
    assert len(rows) == len(engine.log)
    assert rows[0]["kind"] == "seed"
    assert rows[1]["message_count"] == 3
    assert [row["digest"] for row in rows] == [rec.digest
                                               for rec in engine.log]


def test_identical_runs_have_identical_digests():
    def run():
        g = _cycle(6)
        engine = RoundEngine(g)
        engine.prime(_column(range(6)))
        engine.run_phase(_flood(engine), 5)
        return [rec.digest for rec in engine.log]

    assert run() == run()


def test_digest_is_the_emitted_payload():
    g = build_digraph(4, [(1, 0), (2, 0), (3, 1), (0, 2), (0, 3), (2, 3)])
    engine = RoundEngine(g)
    emitted = []
    seed_wave = _column([3, 1, 4, 1])
    seed = engine.prime(seed_wave)
    assert seed.digest == stable_digest(seed_wave)
    for _ in range(3):
        rec = engine.run_round(_flood(engine, emitted))
        assert rec.digest == stable_digest(emitted[-1])


def test_wave_digest_is_pinned():
    # one digest of the (n, w) wave, shape in the header: part of the log
    # format, so its value is pinned
    engine = RoundEngine(build_digraph(3, [(1, 0), (2, 1), (0, 2)]))
    wave = np.array([[1.0, -0.5], [2.0, 0.25], [3.0, 4.0]])
    digest = engine.prime(wave).digest
    assert digest == _walked_digest(wave) == "97de7398f6d39338e585a110"
    assert engine.prime(wave[:, :1]).digest != digest


def test_unaudited_entry_has_no_digest(tmp_path):
    engine = RoundEngine(_cycle(3), audit=False)
    assert engine.prime(_column([1, 2, 3])).digest is None
    assert engine.run_round(_flood(engine)).digest is None
    path = tmp_path / "log.jsonl"
    engine.export_jsonl(path)
    rows = [json.loads(line) for line in path.read_text().splitlines()]
    assert [row["digest"] for row in rows] == [None, None]


def test_digests_ignore_state_that_is_never_sent():
    g = _cycle(4)

    def digests(values, private):
        engine = RoundEngine(g)
        kept = [list(private) for _ in values]   # per-node, never broadcast
        flood = _flood(engine)

        def update(block, tick):
            for log in kept:
                log.append(tick)
            return flood(block, tick)

        engine.prime(_column(values))
        engine.run_phase(update, 3)
        return [rec.digest for rec in engine.log]

    base = digests([0, 1, 2, 3], [])
    assert digests([0, 1, 2, 3], range(50)) == base
    changed = digests([0, 1, 2, 7], [])
    assert changed[0] != base[0]


@st.composite
def _digraphs(draw):
    """Any digraph on 1..12 nodes, from a random subset of all edges."""
    n = draw(st.integers(1, 12))
    keep = draw(st.lists(st.booleans(), min_size=n * n, max_size=n * n))
    return build_digraph(n, [(r, s) for r in range(n) for s in range(n)
                             if r != s and keep[r * n + s]])


@given(g=_digraphs(), seed=st.integers(0, 2**32 - 1), rounds=st.integers(1, 8),
       width=st.integers(1, 3))
@settings(max_examples=80, deadline=None)
def test_blocks_and_reductions_match_brute_force(g, seed, rounds, width):
    # one more node, which hears nobody and is heard by node 0
    g = build_digraph(g.n + 1, [*g.edges(), (0, g.n)])
    rng = np.random.default_rng(seed)
    # a phase's layout: the ratio columns, rider columns hi and lo of
    # ``width`` each, with signed zeros, and the counter pair (theta, c)
    ratio = -rng.uniform(0.5, 2.0, size=(g.n, 3))
    riders = rng.choice([-0.0, 0.0, -1.5, 2.5], size=(g.n, 2 * width))
    counters = rng.integers(0, 9, size=(g.n, 2)).astype(float)
    values = np.hstack((ratio, riders, counters))
    hi = slice(3, 3 + width)
    lo = slice(3 + width, 3 + 2 * width)
    pad = np.r_[[-0.0] * 3, [-np.inf] * width, [np.inf] * width,
                [-np.inf] * 2]
    engine = RoundEngine(g)
    engine.prime(values)                   # the default pad is NaN
    blocks = []
    engine.run_round(_recording(blocks))
    engine.prime(values, pad=pad)
    engine.run_round(_recording(blocks))
    (block, padded), live = blocks, _live(engine)
    summed = ratio_update(padded[:, :, :3], np.empty((g.n, 3)))
    top = np.max(padded[:, :, hi], axis=1)
    bottom = np.min(padded[:, :, lo], axis=1)
    heard = np.max(padded[:, :, -2:], axis=(1, 2))
    for i, senders in enumerate(g.in_neighbors):
        # the sequential loop over an inbox is the bitwise reference
        inbox_sum = ratio[i]
        for j in senders:
            inbox_sum = inbox_sum + ratio[j]
        assert summed[i].tobytes() == inbox_sum.tobytes()
        closed = [i, *senders]
        rows = values[closed]
        # own row first, then the in-neighbours in sender order, then pads
        assert np.array_equal(block[i, :len(closed)], rows)
        assert live[i].tolist() == [slot < len(closed)
                                    for slot in range(live.shape[1])]
        assert np.isnan(block[i, len(closed):]).all()
        assert np.array_equal(padded[i, :len(closed)], rows)
        assert (padded[i, len(closed):] == pad).all()
        # all-negative ratio values: a reduction that read a pad would
        # show it; the masked references agree with the plain passes
        assert np.array_equal(block_max(block, live)[i], rows.max(axis=0))
        assert np.array_equal(block_min(block, live)[i], rows.min(axis=0))
        assert top[i].tobytes() == functools.reduce(
            np.maximum, rows[:, hi]).tobytes()
        assert top[i].tobytes() == block_max(block, live)[i, hi].tobytes()
        assert bottom[i].tobytes() == functools.reduce(
            np.minimum, rows[:, lo]).tobytes()
        assert bottom[i].tobytes() == block_min(block, live)[i, lo].tobytes()
        # the largest counter value in the block, the node's own included
        assert heard[i] == rows[:, -2:].max()

    share = 1.0 / (1.0 + np.array([g.out_degree(i) for i in range(g.n)]))
    states = [ratio]

    def mix(block, tick):
        states.append(ratio_update(block, np.empty_like(ratio)))
        return states[-1] * share[:, None]

    engine.prime(ratio * share[:, None], pad=-0.0)
    engine.run_phase(mix, rounds)
    expected = np.linalg.matrix_power(ratio_weights(g), rounds) @ ratio
    assert np.allclose(states[-1], expected, rtol=0.0, atol=1e-12)


def _delivered_block(g, values):
    """The block every node receives after ``values`` is broadcast with
    ``-0.0`` pads, and its live rows."""
    engine = RoundEngine(g)
    engine.prime(values, pad=-0.0)
    blocks = []
    # order="K" keeps the engine's slot-major memory layout in the copy
    engine.run_round(lambda block, tick: blocks.append(block.copy(order="K"))
                     or block[:, 0])
    return blocks[0], _live(engine)


def test_ratio_update_equals_the_inbox_loop_bitwise():
    # One plain reduction from -0.0 over -0.0 pads must give every node the
    # sum of a sequential loop over its inbox, bit for bit (tobytes tells
    # -0.0 from +0.0): at 12 live slots, past the 8 where numpy sums an
    # inner-axis run pairwise; at width 2, the ratio pair of scalar seeds;
    # on -0.0 rows; on the ratio columns of payloads that also carry
    # riders; and on the engine's slot-major blocks as well as C-contiguous
    # copies of them.
    rng = np.random.default_rng(11)
    complete = build_digraph(12, [(r, s) for r in range(12)
                                  for s in range(12) if r != s])
    spread = 10.0 ** rng.integers(-8, 9, size=(12, 1))
    # node 0 hears nobody, node 1 hears node 0, node 2 nodes 0 and 1
    sparse = build_digraph(4, [(1, 0), (2, 0), (2, 1), (3, 2)])
    signed = np.array([[-0.0, -0.0], [-0.0, -0.0], [-0.0, 2.5],
                       [0.0, -1.0]])
    cases = [(complete, rng.standard_normal((12, 4)) * spread, 4),
             (complete, rng.standard_normal((12, 2)) * spread, 2),
             (_cycle(5), rng.standard_normal((5, 2)), 2),
             (sparse, signed, 2),
             (random_strongly_connected(9, 0.4, seed=3),
              rng.standard_normal((9, 5)), 3)]
    for g, values, width in cases:
        block, live = _delivered_block(g, values)
        engine_view = block[:, :, :width]
        assert not engine_view.flags.c_contiguous
        copy = np.ascontiguousarray(engine_view)
        for ratio in (engine_view, copy):
            out = np.empty((g.n, width))  # a phase reduces into its traj row
            summed = ratio_update(ratio, out=out)
            assert summed is out
            for i, senders in enumerate(g.in_neighbors):
                inbox_sum = values[i, :width]
                for j in senders:
                    inbox_sum = inbox_sum + values[j, :width]
                assert summed[i].tobytes() == inbox_sum.tobytes()
    assert _delivered_block(complete, np.ones((12, 2)))[1].all()  # 12 slots
    block, live = _delivered_block(sparse, signed)
    assert np.signbit(ratio_update(block, np.empty((4, 2)))[:2]).all()
    with pytest.raises(ValueError, match="at least two columns"):
        ratio_update(block[:, :, :1], np.empty((4, 1)))


def test_stable_digest_discriminates():
    a = np.arange(4, dtype=float)
    assert stable_digest(a) == stable_digest(a.copy())
    assert stable_digest(a) != stable_digest(a.astype(int))
    assert stable_digest(a) != stable_digest(a.reshape(2, 2))
    assert stable_digest(a) != stable_digest(a + 1)
    grid = np.arange(12.0).reshape(3, 4)
    view = grid[:, ::2]
    assert not view.flags.c_contiguous
    assert stable_digest(view) == stable_digest(view.copy())
    assert stable_digest(view) != stable_digest(grid[:, :2])
    scalar = np.array(2.0)
    assert stable_digest(scalar) == stable_digest(scalar.copy())
    assert stable_digest(scalar) != stable_digest(np.array([2.0]))
    # byte order is part of the dtype, so equal values still differ
    big, little = a.astype(">f8"), a.astype("<f8")
    assert np.array_equal(big, little)
    assert stable_digest(big) != stable_digest(little)
    # arrays only: numpy scalars, built-in values and containers raise
    for other in (2.0, 7, True, None, "row", [1.0, 2.0], (1, 2), {"x": 1},
                  np.float64(2.0), np.int64(7), np.bool_(True)):
        with pytest.raises((AttributeError, TypeError)):
            stable_digest(other)


def _walked_digest(arr):
    """The array digest spelled out: header, then C-order bytes."""
    h = hashlib.blake2b(digest_size=12)
    h.update(b"a" + arr.dtype.str.encode()
             + struct.pack("<%dq" % arr.ndim, *arr.shape))
    h.update(arr.tobytes())
    return h.hexdigest()


def test_stable_digest_fast_path_equals_the_general_walk():
    grid = np.arange(12.0).reshape(3, 4) - 5.5
    cases = [grid[1], grid.astype(np.int64)[2], grid.astype(">f8")[1],
             grid.astype("<f8")[1], grid.astype(">i4")[0],
             grid.astype("<i4")[0], np.array(2.5), np.array(7), np.empty(0),
             np.empty((0, 3)), grid[:, ::2], grid.T, grid[::-1, 1]]
    for arr in cases:
        assert stable_digest(arr) == _walked_digest(arr)

    class Tagged(np.ndarray):
        pass

    # a subclass array hashes as the plain array it views, also where its
    # own tobytes would give other bytes (a masked array fills its holes)
    tagged = grid.view(Tagged)
    assert stable_digest(tagged) == stable_digest(grid) == _walked_digest(grid)
    assert stable_digest(tagged[:, 1::2]) == _walked_digest(grid[:, 1::2])
    masked = np.ma.masked_array(grid, mask=grid > 0)
    assert masked.tobytes() != grid.tobytes()
    assert stable_digest(masked) == _walked_digest(grid)
    # digest values are part of the log format: pinned
    assert stable_digest(np.arange(3.0)) == "268e43d0d3085f7ef59233c2"
    assert stable_digest(np.array([0.5, -1.25])) == "79f756b5ed2d77f466a3780e"


def test_stable_digest_rows_of_every_dtype_equal_the_general_walk():
    # The digest looks its header digest up by the dtype object and the
    # shape. Rows of each dtype a log may hold, at each shape, and a
    # non-contiguous row view all hash as the spelled-out walk does.
    base = np.arange(-3.0, 3.0).reshape(2, 3)
    for dtype in (np.float64, np.int64, ">f8", np.bool_):
        grid = base.astype(dtype)
        for arr in (grid[1], grid[1, :0], grid, grid.T[1]):
            assert stable_digest(arr) == _walked_digest(arr)
        assert not grid.T[1].flags.c_contiguous
    # equal dtypes built apart share one header
    assert (stable_digest(np.zeros(3, dtype=np.dtype("<f8")))
            == stable_digest(np.zeros(3, dtype=np.dtype(float))))


def test_digest_header_cache_stays_bounded():
    _header_hash.cache_clear()
    for width in range(300):
        row = np.zeros(width)
        assert stable_digest(row) == _walked_digest(row)
    info = _header_hash.cache_info()
    assert info.maxsize == 256 and info.currsize == 256
    # the cached digests are only ever copied: a repeat gives the same value
    assert stable_digest(np.zeros(299)) == _walked_digest(np.zeros(299))
