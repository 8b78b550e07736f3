"""Deterministic round-synchronous message-passing engine.

Every round, each node emits exactly one message per out-edge; messages are
delivered at the next round, and every node's update sees only its own state
plus its inbox. The engine is a simulator, not a network stack: what it
guarantees are round counts, values, and replayable logs.

A phase of ``R`` rounds is ``R`` exchanges. Seed values enter via
:meth:`RoundEngine.prime`, which also discards messages still pending from a
previous phase (phase boundaries are barriers).

Each log entry holds one digest per node: :func:`stable_digest` of the outbox
that node emitted, so identical runs give identical logs and the cost of a
digest is the size of the payload, not of the node's state. To audit the
states themselves, call ``stable_digest(engine.states)``.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import struct
from dataclasses import dataclass, field
from typing import Any, Callable

import numpy as np

from .errors import ProtocolViolation
from .graph import Digraph

Handler = Callable[[int, Any, list, int], tuple[Any, dict]]
Emitter = Callable[[int, Any], dict]


def _digest_update(h, obj) -> None:
    kind = type(obj)
    if kind is np.ndarray:
        h.update(b"a" + obj.dtype.str.encode()
                 + struct.pack("<%dq" % obj.ndim, *obj.shape))
        h.update(obj.tobytes())  # C order, also for non-contiguous views
    elif kind is float:
        h.update(b"f" + struct.pack("<d", obj))
    elif kind is int:
        h.update(b"i%d" % obj)
    elif kind is dict:
        h.update(b"d%d" % len(obj))
        for key in sorted(obj):
            _digest_update(h, key)
            _digest_update(h, obj[key])
    elif kind is str:
        h.update(b"s" + obj.encode())
    elif kind is list or kind is tuple:
        h.update(b"l%d" % len(obj))
        for item in obj:
            _digest_update(h, item)
    elif kind is bool:
        h.update(b"b1" if obj else b"b0")
    elif obj is None:
        h.update(b"n")
    # Subclasses and numpy scalars hash as the built-in type they extend.
    elif isinstance(obj, np.ndarray):
        _digest_update(h, obj.view(np.ndarray))
    elif isinstance(obj, np.bool_):
        _digest_update(h, bool(obj))
    elif isinstance(obj, (int, np.integer)):
        _digest_update(h, int(obj))
    elif isinstance(obj, (float, np.floating)):
        _digest_update(h, float(obj))
    elif isinstance(obj, str):
        _digest_update(h, str(obj))
    elif isinstance(obj, (list, tuple)):
        _digest_update(h, list(obj))
    elif hasattr(obj, "__digest__"):
        _digest_update(h, obj.__digest__())
    elif isinstance(obj, dict):
        _digest_update(h, dict(obj))
    elif dataclasses.is_dataclass(obj):
        h.update(b"c" + type(obj).__name__.encode())
        for f in dataclasses.fields(obj):
            _digest_update(h, getattr(obj, f.name))
    else:
        h.update(b"r" + repr(obj).encode())


def stable_digest(obj) -> str:
    """Deterministic short hex digest of nested state (arrays included)."""
    h = hashlib.blake2b(digest_size=12)
    _digest_update(h, obj)
    return h.hexdigest()


def _jsonable(obj):
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, (np.floating,)):
        return float(obj)
    if isinstance(obj, dict):
        return {k: _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    return obj


@dataclass
class RoundRecord:
    """One append-only log entry: a seed emission or a full exchange.

    ``digests[i]`` is :func:`stable_digest` of the outbox node ``i`` emitted
    in this entry, so a log fingerprints the traffic at a cost that does not
    grow with phase length. A full state audit is
    ``stable_digest(engine.states)``.
    """

    tick: int
    phase: str
    kind: str  # "seed" or "exchange"
    message_count: int
    digests: tuple[str, ...]
    messages: list | None = None


@dataclass
class RoundEngine:
    """Hosts node state machines over a fixed digraph, one round at a time."""

    graph: Digraph
    states: list
    record_messages: bool = False
    tick: int = 0
    log: list[RoundRecord] = field(default_factory=list)
    _pending: list[list[tuple[int, Any]]] = field(default_factory=list)

    def __post_init__(self):
        if len(self.states) != self.graph.n:
            raise ValueError("one state per node required")
        self._pending = [[] for _ in range(self.graph.n)]
        self._out_sets = [set(outs) for outs in self.graph.out_neighbors]

    # -- helpers ---------------------------------------------------------

    def _validate_outbox(self, sender: int, outbox: dict) -> None:
        keys = set(outbox)
        if keys != self._out_sets[sender]:
            extra = keys - self._out_sets[sender]
            missing = self._out_sets[sender] - keys
            raise ProtocolViolation(
                f"node {sender}: sent to non-edges {sorted(extra)}, "
                f"omitted edges {sorted(missing)}")

    def _enqueue(self, outboxes: list[dict], phase: str,
                 kind: str) -> RoundRecord:
        """Validate and queue one wave of outboxes, and log it."""
        pending: list[list[tuple[int, Any]]] = [[] for _ in range(self.graph.n)]
        captured = [] if self.record_messages else None
        count = 0
        digests = []
        for sender, outbox in enumerate(outboxes):
            self._validate_outbox(sender, outbox)
            digests.append(stable_digest(outbox))
            for receiver in self.graph.out_neighbors[sender]:
                pending[receiver].append((sender, outbox[receiver]))
                count += 1
                if captured is not None:
                    captured.append([sender, receiver, _jsonable(outbox[receiver])])
        self._pending = pending
        record = RoundRecord(self.tick, phase, kind, count, tuple(digests),
                             captured)
        self.log.append(record)
        return record

    # -- public API ------------------------------------------------------

    def prime(self, emitter: Emitter, phase: str = "") -> RoundRecord:
        """Start a phase: drop stale messages, emit seed messages.

        ``emitter(i, state) -> outbox`` must cover node i's out-edges exactly,
        like any round's emission.
        """
        outboxes = [emitter(i, self.states[i]) for i in range(self.graph.n)]
        return self._enqueue(outboxes, phase, "seed")

    def run_round(self, handler: Handler, phase: str = "") -> RoundRecord:
        """Deliver pending messages, update every node, emit the next wave.

        All inboxes are complete before any update runs, and updates read
        only the previous-round snapshot: handlers receive exactly
        ``(node, own state, inbox, round index)``.
        """
        inboxes = [sorted(box, key=lambda m: m[0]) for box in self._pending]
        self.tick += 1
        results = [handler(i, self.states[i], inboxes[i], self.tick)
                   for i in range(self.graph.n)]
        self.states[:] = [state for state, _ in results]
        return self._enqueue([outbox for _, outbox in results], phase,
                             "exchange")

    def run_phase(self, handler: Handler, rounds: int, phase: str = "") -> None:
        """Execute exactly ``rounds`` exchanges under one phase label."""
        for _ in range(rounds):
            self.run_round(handler, phase)

    def export_jsonl(self, path) -> None:
        """One JSON record per log entry."""
        with open(path, "w", encoding="utf-8") as fh:
            for rec in self.log:
                row = {
                    "tick": rec.tick,
                    "phase": rec.phase,
                    "kind": rec.kind,
                    "message_count": rec.message_count,
                    "digests": list(rec.digests),
                }
                if rec.messages is not None:
                    row["messages"] = rec.messages
                fh.write(json.dumps(row) + "\n")


def phase_lengths(log: list[RoundRecord]) -> list[tuple[str, int]]:
    """Exchange counts per phase label, in first-appearance order."""
    order: list[str] = []
    counts: dict[str, int] = {}
    for rec in log:
        if rec.phase not in counts:
            order.append(rec.phase)
            counts[rec.phase] = 0
        if rec.kind == "exchange":
            counts[rec.phase] += 1
    return [(name, counts[name]) for name in order]
