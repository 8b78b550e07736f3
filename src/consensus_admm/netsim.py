"""Deterministic round-synchronous message-passing engine on arrays.

A round is one array step over the whole network. Each node broadcasts one
row of floats, its payload, and the engine delivers it along each of the
node's out-edges at the next round: node ``i`` receives a *block* of rows
whose first row is its own payload and whose next rows are the payloads of
``in_neighbors[i]``, in sender order. A node cannot reach a non-neighbour or
skip one of its out-edges, because it never names a receiver. Rows past a
node's in-degree are copies of the pad row that the phase chose when it
primed: with the identity of each column's reduction there (``-0.0`` under
a sum, ``-inf`` under a maximum, ``+inf`` under a minimum), every block
reduction is one plain pass that reads the pads and is not moved by them.
The engine is a simulator, not a network stack: what it guarantees are
round counts, values, and replayable logs.

A phase of ``R`` rounds is ``R`` exchanges. Seed payloads enter via
:meth:`RoundEngine.prime`, which replaces the wave still undelivered from a
previous phase (phase boundaries are barriers) and labels the log entries up
to the next ``prime``. The engine copies each wave into one ``(n + 1, w)``
buffer whose last row is the pad row, so a caller may rewrite its array.
Every round gathers the blocks slot by slot into one ``(slots, n, w)``
buffer, rewritten in place, and hands the update its ``(n, slots, w)``
transposed view: a reduction over the slots then adds whole ``(n, w)`` slabs
in slot order. A block is only valid during the update call that receives
it. ``prime`` checks and converts the seed wave, fixes the wave shape and
allocates both buffers when ``w`` changes; a round only checks its shape.

With ``audit`` on, each log entry holds one digest of the whole wave:
:func:`stable_digest` of the ``(n, w)`` payload block in node order, so
identical runs give identical logs; the pad row is never hashed. It hashes
arrays only: a digest starts from a copy of a header digest cached by dtype
and shape, so what it costs beyond a fixed call is the size of the wave. A
replay that differs shows the first entry that differs; which node diverged
is read by comparing the two runs' waves at that round.
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

_FLOAT = np.dtype(float)
_REAL_KINDS = "biuf"   # bool, signed and unsigned integer, float

# update(block, tick) -> next wave; ``block`` is a view of the engine's
# gather buffer, rewritten by the next round, so it is only valid during
# the call
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
    """Deterministic short hex digest of an array, such as a payload wave.

    A copy of the cached header digest of its dtype and shape, fed its
    bytes in C order through the buffer protocol: a C-contiguous array as
    it is, with no copy, a non-contiguous view, which numpy exports no
    buffer of, as a C-ordered copy. A subclass array hashes as the plain
    array it views; anything else, a numpy scalar included, raises
    ``TypeError``.
    """
    if not isinstance(row, np.ndarray):
        raise TypeError(f"stable_digest hashes arrays, got "
                        f"{type(row).__name__}")
    h = _header_hash(row.dtype, row.shape).copy()
    try:
        h.update(row)
    except ValueError:   # "ndarray is not C-contiguous"
        h.update(np.ascontiguousarray(row))
    return h.hexdigest()


def real_array(value, what: str) -> np.ndarray:
    """``value`` as a float array, or ``ValueError('<what> must be real')``
    when it holds anything but real numbers, which a float conversion would
    cast or parse: a complex number (its imaginary part dropped), a string,
    bytes or a date; by its dtype, or inside an object array.
    """
    value = np.asarray(value)
    kind = value.dtype.kind
    if kind in _REAL_KINDS or kind == "O" and not any(
            isinstance(v, (str, bytes)) for v in value.flat):
        try:
            return value.astype(float, copy=False)
        except TypeError:   # float() of an element that is not a real number
            pass
    raise ValueError(f"{what} must be real, got dtype {value.dtype}")


def gather_rows(graph: Digraph) -> np.ndarray:
    """Each node's block rows as an ``(n, slots)`` index array: the node
    itself, then ``in_neighbors`` in sender order, then the pad index ``n``.
    """
    rows = [[i, *senders] for i, senders in enumerate(graph.in_neighbors)]
    width = max(map(len, rows))
    return np.array([row + [graph.n] * (width - len(row)) for row in rows])


@dataclass(slots=True)
class RoundRecord:
    """One append-only log entry: a seed emission or a full exchange.

    Each node broadcasts one payload per entry, delivered along every one of
    its out-edges, so ``message_count`` is the graph's edge count.
    ``digest`` is :func:`stable_digest` of the ``(n, w)`` wave broadcast,
    one payload row per node in node order, or ``None`` when the engine does
    not audit.
    """

    tick: int
    phase: str
    kind: str  # "seed" or "exchange"
    message_count: int
    digest: str | None


@dataclass
class RoundEngine:
    """Runs whole-network rounds over a fixed digraph, one array step each.

    ``gather[i]`` lists the wave rows of node ``i``'s block: ``i`` itself,
    then ``in_neighbors[i]``, then the pad row ``n``.
    """

    graph: Digraph
    audit: bool = True
    tick: int = field(default=0, init=False)
    log: list[RoundRecord] = field(default_factory=list, init=False)
    # the wave buffer (payloads, pad row), None until the first prime, and
    # its payload rows, every node's gathered block in slot-major order
    # (_slabs[s, i] is row s of node i's block), the (n, slots, w) view of
    # it updates receive
    _wave: np.ndarray | None = field(default=None, init=False)
    _payloads: np.ndarray | None = field(default=None, init=False)
    _slabs: np.ndarray | None = field(default=None, init=False)
    _block: np.ndarray | None = field(default=None, init=False)

    def __post_init__(self):
        self.gather = gather_rows(self.graph)
        self._slot_rows = np.ascontiguousarray(self.gather.T)

    def _broadcast(self, wave, phase: str, kind: str) -> RoundRecord:
        """Hold one wave of the primed shape for delivery, and log it."""
        payloads = self._payloads
        payloads[...] = wave
        record = RoundRecord(self.tick, phase, kind, self.graph.edge_count,
                             stable_digest(payloads) if self.audit else None)
        self.log.append(record)
        return record

    # -- public API ------------------------------------------------------

    def prime(self, wave, phase: str = "", pad=np.nan) -> RoundRecord:
        """Start a phase: drop the undelivered wave, broadcast ``wave``.

        ``wave`` converts to an ``(n, w)`` float array, row ``i`` node i's
        payload (else ``ValueError``), whose shape every round's wave keeps.
        ``phase`` labels every log entry and ``pad`` fills the block rows past
        each node's in-degree until the next ``prime``. A pad is a scalar or
        one value per column, such as the identity of the reduction each column
        goes through; it is not part of the wave, so it is never hashed.
        Both are checked before anything changes, a complex one refused too:
        a refused ``prime`` leaves the engine, its log and its buffers as they
        were.
        """
        wave = real_array(wave, "a wave")
        if wave.ndim != 2 or wave.shape[0] != self.graph.n:
            raise ValueError(f"a wave is one payload row per node, got shape "
                             f"{wave.shape} for {self.graph.n} nodes")
        pad = real_array(pad, "a pad")
        if pad.ndim > 1 or pad.size not in (1, wave.shape[1]):
            raise ValueError(f"a pad is a scalar or one value per column, got "
                             f"shape {pad.shape} for a wave of shape "
                             f"{wave.shape}")
        if self._wave is None or self._wave.shape[1] != wave.shape[1]:
            self._wave = np.full((self.graph.n + 1, wave.shape[1]), np.nan)
            self._payloads = self._wave[:-1]
            self._slabs = np.empty(self._slot_rows.shape + wave.shape[1:])
            self._block = self._slabs.transpose(1, 0, 2)
        record = self._broadcast(wave, phase, "seed")
        self._wave[-1] = pad
        return record

    def run_round(self, update: Update) -> RoundRecord:
        """Deliver the last wave, update every node, broadcast the next one.

        ``update(block, tick)`` receives the ``(n, slots, w)`` array of every
        node's block, built from the previous wave only, and returns the next
        wave, an array of real numbers of the primed shape (else
        ``ValueError``; a complex or string array is not cast). The block
        is the transposed view of the engine's own ``(slots, n, w)`` buffer,
        rewritten every round: it is only valid during the call, and a
        reduction over its slots adds one ``(n, w)`` slab per slot, in slot
        order. Raises :class:`ProtocolViolation` before the first
        :meth:`prime`, when there is no wave to deliver. ``tick`` and the
        log advance only once the update has returned a real wave of the
        primed shape, so a round that raises leaves both, and the payloads,
        as they were.
        """
        if self._wave is None:
            raise ProtocolViolation("run_round before prime: no seed wave "
                                    "to deliver")
        # gather indices are in range by construction; "clip" lets numpy
        # write straight into out= instead of through a temporary
        self._wave.take(self._slot_rows, axis=0, out=self._slabs, mode="clip")
        wave = update(self._block, self.tick + 1)
        shape = self._payloads.shape
        if getattr(wave, "shape", None) != shape:
            raise ValueError(f"a wave has the primed shape {shape}, "
                             f"got shape {np.shape(wave)}")
        if wave.dtype is not _FLOAT and wave.dtype.kind not in _REAL_KINDS:
            raise ValueError(f"a wave must be real, got dtype {wave.dtype}")
        self.tick += 1
        return self._broadcast(wave, self.log[-1].phase, "exchange")

    def run_phase(self, update: Update, rounds: int) -> None:
        """Execute exactly ``rounds`` exchanges."""
        for _ in range(rounds):
            self.run_round(update)

    def export_jsonl(self, path) -> None:
        """One JSON record per log entry."""
        with open(path, "w", encoding="utf-8") as fh:
            for rec in self.log:
                row = {
                    "tick": rec.tick,
                    "phase": rec.phase,
                    "kind": rec.kind,
                    "message_count": rec.message_count,
                    "digest": rec.digest,
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
