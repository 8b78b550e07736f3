"""Deterministic round-synchronous message-passing engine on arrays.

A round is one array step over the whole network. Each node broadcasts one
row of floats, its payload, and the engine delivers it along each of the
node's out-edges at the next round: node ``i`` receives a *block* of rows
whose first row is its own payload and whose next rows are the payloads of
``in_neighbors[i]``, in sender order. A node cannot reach a non-neighbour or
skip one of its out-edges, because it never names a receiver. Rows past a
node's in-degree are pads (NaN); ``RoundEngine.live`` marks the rows that
hold payloads, and every reduction over a block reads only those. The
engine is a simulator, not a network stack: what it guarantees are round
counts, values, and replayable logs.

A phase of ``R`` rounds is ``R`` exchanges. Seed payloads enter via
:meth:`RoundEngine.prime`, which replaces the wave still undelivered from a
previous phase (phase boundaries are barriers). The engine copies each wave
into one ``(n + 1, w)`` buffer whose last row is the NaN pad, so a caller
may reuse its array; the buffer is only reallocated when ``w`` changes.

With ``audit`` on, each log entry holds one digest per node:
:func:`stable_digest` of the payload row that node broadcast, so identical
runs give identical logs. It hashes arrays only: a row's digest starts from
a copy of a header digest cached by dtype and shape, so what it costs
beyond a fixed call is the width of the row.
"""

from __future__ import annotations

import functools
import hashlib
import json
import struct
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .errors import ProtocolViolation
from .graph import Digraph

Update = Callable[[np.ndarray, int], np.ndarray]


@functools.lru_cache(maxsize=256)
def _header_hash(dtype: np.dtype, shape: tuple):
    """A digest already fed the array header; use copies, never update it.

    Keyed on the dtype object itself: equal dtypes share their ``str``.
    """
    header = b"a" + dtype.str.encode() + struct.pack("<%dq" % len(shape),
                                                     *shape)
    return hashlib.blake2b(header, digest_size=12)


def stable_digest(row: np.ndarray) -> str:
    """Deterministic short hex digest of an array, such as a payload row.

    A copy of the cached header digest of its dtype and shape, fed its
    bytes in C order (also for a non-contiguous view). A subclass array
    hashes as the plain array it views; anything else raises.
    """
    h = _header_hash(row.dtype, row.shape).copy()
    h.update(np.ndarray.tobytes(row))
    return h.hexdigest()


def gather_rows(graph: Digraph) -> np.ndarray:
    """Each node's block rows as an ``(n, slots)`` index array: the node
    itself, then ``in_neighbors`` in sender order, then the pad index ``n``.
    """
    rows = [[i, *senders] for i, senders in enumerate(graph.in_neighbors)]
    width = max(map(len, rows))
    return np.array([row + [graph.n] * (width - len(row)) for row in rows])


@dataclass
class RoundRecord:
    """One append-only log entry: a seed emission or a full exchange.

    Each node broadcasts one payload per entry, delivered along every one of
    its out-edges, so ``message_count`` is the graph's edge count.
    ``digests[i]`` is :func:`stable_digest` of node ``i``'s payload row, or
    ``digests`` is empty when the engine does not audit.
    """

    tick: int
    phase: str
    kind: str  # "seed" or "exchange"
    message_count: int
    digests: tuple[str, ...]


@dataclass
class RoundEngine:
    """Runs whole-network rounds over a fixed digraph, one array step each.

    ``gather[i]`` lists the wave rows of node ``i``'s block: ``i`` itself,
    then ``in_neighbors[i]``, then the pad row ``n``; ``live`` is True where
    a block row holds a payload. ``share[i, 0]`` is ``1 / (1 + out-degree)``
    of node ``i``: the part of its mass that each copy of its payload
    carries under ratio consensus.
    """

    graph: Digraph
    audit: bool = True
    tick: int = 0
    log: list[RoundRecord] = field(default_factory=list)
    _wave: np.ndarray | None = None  # the wave buffer: payloads, pad row

    def __post_init__(self):
        self.gather = gather_rows(self.graph)
        self.live = self.gather != self.graph.n
        self.share = 1.0 / (1.0 + np.array([[self.graph.out_degree(i)]
                                            for i in range(self.graph.n)],
                                           dtype=float))

    def _broadcast(self, wave, phase: str, kind: str) -> RoundRecord:
        """Hold one wave of payload rows for delivery, and log it."""
        wave = np.asarray(wave, dtype=float)
        if wave.ndim != 2 or wave.shape[0] != self.graph.n:
            raise ValueError(f"a wave is one payload row per node, got shape "
                             f"{wave.shape} for {self.graph.n} nodes")
        if self._wave is None or self._wave.shape[1] != wave.shape[1]:
            self._wave = np.full((self.graph.n + 1, wave.shape[1]), np.nan)
        self._wave[:-1] = wave
        digests = tuple(map(stable_digest, wave)) if self.audit else ()
        record = RoundRecord(self.tick, phase, kind, self.graph.edge_count,
                             digests)
        self.log.append(record)
        return record

    # -- public API ------------------------------------------------------

    def prime(self, wave, phase: str = "") -> RoundRecord:
        """Start a phase: drop the undelivered wave, broadcast ``wave``.

        ``wave`` is an ``(n, w)`` float array, row ``i`` node i's payload.
        """
        return self._broadcast(wave, phase, "seed")

    def run_round(self, update: Update, phase: str = "") -> RoundRecord:
        """Deliver the last wave, update every node, broadcast the next one.

        ``update(block, tick)`` receives the ``(n, slots, w)`` array of every
        node's block, built from the previous wave only, and returns the next
        wave. Raises :class:`ProtocolViolation` before the first
        :meth:`prime`, when there is no wave to deliver.
        """
        if self._wave is None:
            raise ProtocolViolation("run_round before prime: no seed wave "
                                    "to deliver")
        self.tick += 1
        return self._broadcast(update(self._wave[self.gather], self.tick),
                               phase, "exchange")

    def run_phase(self, update: Update, rounds: int, phase: str = "") -> None:
        """Execute exactly ``rounds`` exchanges under one phase label."""
        for _ in range(rounds):
            self.run_round(update, phase)

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


def block_max(block: np.ndarray, live: np.ndarray) -> np.ndarray:
    """Each node's column-wise maximum over the live rows of its block."""
    return np.max(block, axis=1, where=live[:, :, None], initial=-np.inf)


def block_min(block: np.ndarray, live: np.ndarray) -> np.ndarray:
    """Each node's column-wise minimum over the live rows of its block."""
    return np.min(block, axis=1, where=live[:, :, None], initial=np.inf)


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
