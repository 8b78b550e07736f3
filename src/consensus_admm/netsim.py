"""Deterministic round-synchronous message-passing engine.

Every round, each node broadcasts exactly one payload, and the engine
delivers it along each of the node's out-edges at the next round: node
``i``'s inbox is ``(j, payload_j)`` for every in-neighbour ``j``, in sender
order. A node cannot reach a non-neighbour or skip one of its out-edges,
because it never names a receiver. Every node's update sees only its own
state plus its inbox. The engine is a simulator, not a network stack: what
it guarantees are round counts, values, and replayable logs.

A phase of ``R`` rounds is ``R`` exchanges. Seed values enter via
:meth:`RoundEngine.prime`, which replaces the wave still undelivered from a
previous phase (phase boundaries are barriers).

Each log entry holds one digest per node: :func:`stable_digest` of the
payload that node broadcast, so identical runs give identical logs and the
cost of a digest is the size of the payload, not of the node's state or its
out-degree. To audit the states themselves, call
``stable_digest(engine.states)``.
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

Handler = Callable[[int, Any, list, int], tuple[Any, Any]]
Emitter = Callable[[int, Any], Any]


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


@dataclass
class RoundRecord:
    """One append-only log entry: a seed emission or a full exchange.

    Each node broadcasts one payload per entry, delivered along every one of
    its out-edges, so ``message_count`` is the graph's edge count.
    ``digests[i]`` is :func:`stable_digest` of node ``i``'s payload, so a log
    fingerprints the traffic at a cost that does not grow with phase length.
    A full state audit is ``stable_digest(engine.states)``.
    """

    tick: int
    phase: str
    kind: str  # "seed" or "exchange"
    message_count: int
    digests: tuple[str, ...]


@dataclass
class RoundEngine:
    """Hosts node state machines over a fixed digraph, one round at a time."""

    graph: Digraph
    states: list
    tick: int = 0
    log: list[RoundRecord] = field(default_factory=list)
    _wave: list | None = None  # the undelivered payloads, one per node

    def __post_init__(self):
        if len(self.states) != self.graph.n:
            raise ValueError("one state per node required")

    def _broadcast(self, payloads: list, phase: str, kind: str) -> RoundRecord:
        """Hold one wave of payloads for delivery, and log it."""
        self._wave = payloads
        record = RoundRecord(self.tick, phase, kind, self.graph.edge_count,
                             tuple(stable_digest(p) for p in payloads))
        self.log.append(record)
        return record

    # -- public API ------------------------------------------------------

    def prime(self, emitter: Emitter, phase: str = "") -> RoundRecord:
        """Start a phase: drop the undelivered wave, broadcast seed payloads.

        ``emitter(i, state) -> payload`` is node i's broadcast, like any
        round's emission.
        """
        payloads = [emitter(i, self.states[i]) for i in range(self.graph.n)]
        return self._broadcast(payloads, phase, "seed")

    def run_round(self, handler: Handler, phase: str = "") -> RoundRecord:
        """Deliver the last wave, update every node, broadcast the next one.

        All inboxes are complete before any update runs, and updates read
        only the previous-round snapshot: handlers receive exactly
        ``(node, own state, inbox, round index)`` and return
        ``(new state, payload)``. Raises :class:`ProtocolViolation` before
        the first :meth:`prime`, when there is no wave to deliver.
        """
        wave = self._wave
        if wave is None:
            raise ProtocolViolation("run_round before prime: no seed wave "
                                    "to deliver")
        self.tick += 1
        results = [handler(i, self.states[i], [(j, wave[j]) for j in senders],
                           self.tick)
                   for i, senders in enumerate(self.graph.in_neighbors)]
        self.states[:] = [state for state, _ in results]
        return self._broadcast([payload for _, payload in results], phase,
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
