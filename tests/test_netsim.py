"""Round-engine semantics: broadcast delivery, logging, determinism."""

import json

import numpy as np
import pytest

from consensus_admm import (ProtocolViolation, RoundEngine, build_digraph,
                            phase_lengths, stable_digest)


def _cycle(n):
    return build_digraph(n, [((i + 1) % n, i) for i in range(n)])


def _flood():
    """Max-flood handler plus its matching seed emitter."""

    def seed_emit(i, state):
        return state

    def handler(i, state, inbox, tick):
        new = max([state] + [m for _, m in inbox])
        return new, new

    return seed_emit, handler


def test_messages_travel_one_hop_per_round():
    g = _cycle(5)
    engine = RoundEngine(g, [1, 0, 0, 0, 0])
    seed_emit, handler = _flood()
    engine.prime(seed_emit)
    # the token starts at node 0 and the only edges are i -> i+1
    for k in range(1, 5):
        engine.run_round(handler)
        expected = [1 if j <= k else 0 for j in range(5)]
        assert engine.states == expected, f"round {k}"


def test_update_reads_previous_round_snapshot():
    # If a handler could see same-round updates, the token would cross two
    # hops in one exchange somewhere along a long cycle; it never does.
    g = _cycle(9)
    engine = RoundEngine(g, [1] + [0] * 8)
    seed_emit, handler = _flood()
    engine.prime(seed_emit)
    for k in range(1, 9):
        engine.run_round(handler)
        assert sum(engine.states) == k + 1


def test_broadcast_reaches_exactly_the_in_neighbours():
    # Asymmetric: 0 -> 1, 0 -> 2, 1 -> 2, 2 -> 0, 3 -> 0, 2 -> 3
    g = build_digraph(4, [(1, 0), (2, 0), (2, 1), (0, 2), (0, 3), (3, 2)])
    engine = RoundEngine(g, list(range(4)))
    with pytest.raises(ProtocolViolation):
        engine.run_round(lambda i, s, inbox, tick: (s, s))  # nothing primed
    engine.prime(lambda i, s: s)
    seen = {}

    def handler(i, state, inbox, tick):
        seen[i] = inbox
        return state, state

    assert engine.run_round(handler).message_count == g.edge_count == 6
    for i in range(g.n):
        assert [j for j, _ in seen[i]] == list(g.in_neighbors[i])
        assert all(payload == j for j, payload in seen[i])


def test_prime_discards_pending_messages():
    g = _cycle(3)
    engine = RoundEngine(g, [10, 0, 0])
    seed_emit, handler = _flood()
    engine.prime(seed_emit)
    # messages carrying 10 are pending; re-prime with fresh state first
    engine.states = [0, 0, 7]
    engine.prime(seed_emit)
    engine.run_round(handler)
    # node 1 must have heard 0 (the new wave), never the stale 10
    assert engine.states == [7, 0, 7]


def test_inbox_sorted_by_sender():
    g = build_digraph(3, [(2, 0), (2, 1), (0, 2), (1, 2)])
    engine = RoundEngine(g, ["a", "b", "c"])
    engine.prime(lambda i, s: s)
    seen = {}

    def handler(i, state, inbox, tick):
        seen[i] = inbox
        return state, state

    engine.run_round(handler)
    assert seen[2] == [(0, "a"), (1, "b")]


def test_log_records_and_phase_lengths():
    g = _cycle(4)
    engine = RoundEngine(g, [0, 1, 2, 3])
    seed_emit, handler = _flood()
    engine.prime(seed_emit, "warmup")
    engine.run_phase(handler, 3, "warmup")
    engine.prime(seed_emit, "steady")
    engine.run_phase(handler, 2, "steady")

    kinds = [rec.kind for rec in engine.log]
    assert kinds == ["seed", "exchange", "exchange", "exchange",
                     "seed", "exchange", "exchange"]
    assert [rec.tick for rec in engine.log] == [0, 1, 2, 3, 3, 4, 5]
    assert all(rec.message_count == g.edge_count for rec in engine.log)
    assert all(len(rec.digests) == 4 for rec in engine.log)
    assert phase_lengths(engine.log) == [("warmup", 3), ("steady", 2)]


def test_jsonl_export(tmp_path):
    g = _cycle(3)
    engine = RoundEngine(g, [5, 0, 0])
    seed_emit, handler = _flood()
    engine.prime(seed_emit)
    engine.run_round(handler)
    path = tmp_path / "log.jsonl"
    engine.export_jsonl(path)
    rows = [json.loads(line) for line in path.read_text().splitlines()]
    assert len(rows) == len(engine.log)
    assert rows[0]["kind"] == "seed"
    assert rows[1]["message_count"] == 3
    assert [row["digests"] for row in rows] == [list(rec.digests)
                                                for rec in engine.log]


def test_identical_runs_have_identical_digests():
    def run():
        g = _cycle(6)
        engine = RoundEngine(g, list(range(6)))
        seed_emit, handler = _flood()
        engine.prime(seed_emit)
        engine.run_phase(handler, 5)
        return [rec.digests for rec in engine.log]

    assert run() == run()


def test_digest_is_the_emitted_payload():
    g = build_digraph(4, [(1, 0), (2, 0), (3, 1), (0, 2), (0, 3), (2, 3)])
    engine = RoundEngine(g, [3, 1, 4, 1])
    seed_emit, handler = _flood()
    emitted = []

    def recording(i, state, inbox, tick):
        new, payload = handler(i, state, inbox, tick)
        emitted.append(payload)
        return new, payload

    seed = engine.prime(seed_emit)
    assert seed.digests == tuple(stable_digest(seed_emit(i, s))
                                 for i, s in enumerate([3, 1, 4, 1]))
    for _ in range(3):
        emitted.clear()
        rec = engine.run_round(recording)
        assert rec.digests == tuple(stable_digest(p) for p in emitted)


def test_digests_ignore_state_that_is_never_sent():
    g = _cycle(4)

    def emit(i, state):
        return state["v"]

    def handler(i, state, inbox, tick):
        new = {"v": max([state["v"]] + [m for _, m in inbox]),
               "private": state["private"] + [tick]}
        return new, emit(i, new)

    def digests(values, private):
        engine = RoundEngine(g, [{"v": v, "private": list(private)}
                                 for v in values])
        engine.prime(emit)
        engine.run_phase(handler, 3)
        return [rec.digests for rec in engine.log]

    base = digests([0, 1, 2, 3], [])
    assert digests([0, 1, 2, 3], range(50)) == base
    changed = digests([0, 1, 2, 7], [])
    assert changed[0][:3] == base[0][:3] and changed[0][3] != base[0][3]


def test_stable_digest_discriminates():
    a = np.arange(4, dtype=float)
    assert stable_digest(a) == stable_digest(a.copy())
    assert stable_digest(a) != stable_digest(a.astype(int))
    assert stable_digest(a) != stable_digest(a.reshape(2, 2))
    assert stable_digest(a) != stable_digest(a + 1)
    assert stable_digest({"x": 1, "y": 2}) == stable_digest({"y": 2, "x": 1})
    assert stable_digest(1) != stable_digest(1.0)
    assert stable_digest((1, 2)) == stable_digest([1, 2])
    assert stable_digest(True) != stable_digest(1)
    assert stable_digest(np.bool_(True)) == stable_digest(True)
    assert stable_digest(np.float64(0.1)) == stable_digest(0.1)
    assert stable_digest(np.int64(7)) == stable_digest(7)
    grid = np.arange(12.0).reshape(3, 4)
    view = grid[:, ::2]
    assert not view.flags.c_contiguous
    assert stable_digest(view) == stable_digest(view.copy())
    assert stable_digest(view) != stable_digest(grid[:, :2])
    scalar = np.array(2.0)
    assert stable_digest(scalar) == stable_digest(scalar.copy())
    assert stable_digest(scalar) != stable_digest(2.0)
    assert stable_digest(scalar) != stable_digest(np.array([2.0]))
    # byte order is part of the dtype, so equal values still differ
    big, little = a.astype(">f8"), a.astype("<f8")
    assert np.array_equal(big, little)
    assert stable_digest(big) != stable_digest(little)
