"""Directed communication graphs and consensus weight matrices.

Edges are one-way communication links stored as (receiver, sender) pairs;
``out_neighbors[i]`` lists the nodes that hear node ``i``. The weight
matrices built here are column stochastic: column ``j`` spreads node ``j``'s
mass uniformly over itself and its out-neighbours, which preserves the total
sum under ``v' = W v``.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from functools import cached_property
from numbers import Integral

import numpy as np

from .errors import Disconnected, InvalidEdge


@dataclass(frozen=True)
class Digraph:
    """Immutable digraph over nodes ``0..n-1`` with ordered adjacency."""

    n: int
    out_neighbors: tuple[tuple[int, ...], ...]

    @cached_property
    def in_neighbors(self) -> tuple[tuple[int, ...], ...]:
        ins: list[list[int]] = [[] for _ in range(self.n)]
        for sender, outs in enumerate(self.out_neighbors):
            for receiver in outs:
                ins[receiver].append(sender)
        return tuple(tuple(sorted(s)) for s in ins)

    @cached_property
    def edge_count(self) -> int:
        return sum(len(outs) for outs in self.out_neighbors)

    def out_degree(self, i: int) -> int:
        return len(self.out_neighbors[i])

    def edges(self) -> list[tuple[int, int]]:
        """All edges as (receiver, sender) pairs, sender-major order."""
        return [
            (receiver, sender)
            for sender, outs in enumerate(self.out_neighbors)
            for receiver in outs
        ]


def _check_node_count(n) -> None:
    if isinstance(n, bool) or not isinstance(n, Integral) or n < 1:
        raise InvalidEdge(f"node count must be an integer >= 1, got {n!r}")


def build_digraph(n: int, edges) -> Digraph:
    """Build a digraph from (receiver, sender) pairs.

    Parameters
    ----------
    n : int
        Node count, an integer >= 1 and not a bool; nodes are ``0..n-1``.
    edges : iterable of (int, int)
        Directed links as (receiver, sender).

    Any other ``n``, self-loops, duplicates and out-of-range endpoints raise
    :class:`InvalidEdge`.
    """
    _check_node_count(n)
    outs: list[list[int]] = [[] for _ in range(n)]
    seen: set[tuple[int, int]] = set()
    for receiver, sender in edges:
        if not (0 <= receiver < n and 0 <= sender < n):
            raise InvalidEdge(f"edge ({receiver}, {sender}) out of range for n={n}")
        if receiver == sender:
            raise InvalidEdge(f"self-loop on node {sender}")
        if (receiver, sender) in seen:
            raise InvalidEdge(f"duplicate edge ({receiver}, {sender})")
        seen.add((receiver, sender))
        outs[sender].append(receiver)
    return Digraph(n, tuple(tuple(o) for o in outs))


def _bfs_dist(g: Digraph, source: int, adjacency) -> list[int]:
    dist = [-1] * g.n
    dist[source] = 0
    queue = deque([source])
    while queue:
        u = queue.popleft()
        for v in adjacency[u]:
            if dist[v] < 0:
                dist[v] = dist[u] + 1
                queue.append(v)
    return dist


def is_strongly_connected(g: Digraph) -> bool:
    """True iff every ordered node pair is joined by a directed path."""
    if g.n == 1:
        return True
    forward = _bfs_dist(g, 0, g.out_neighbors)
    backward = _bfs_dist(g, 0, g.in_neighbors)
    return all(d >= 0 for d in forward) and all(d >= 0 for d in backward)


def check_strongly_connected(g: Digraph) -> None:
    """Raise :class:`Disconnected` unless every node reaches every other."""
    if not is_strongly_connected(g):
        raise Disconnected("averaging needs a strongly connected digraph")


_DRAW_CHUNK = 1 << 20   # random_strongly_connected draws this many at once


def random_strongly_connected(n: int, extra_edge_prob: float,
                              seed: int | None) -> Digraph:
    """Random strongly connected digraph without rejection sampling.

    A random Hamiltonian cycle guarantees strong connectivity; every other
    ordered pair is then added independently with ``extra_edge_prob``, a
    probability in [0, 1]. A node count that :func:`build_digraph` would
    refuse raises its :class:`InvalidEdge` before anything is drawn.
    """
    _check_node_count(n)
    if not 0.0 <= extra_edge_prob <= 1.0:   # also refuses NaN
        raise ValueError(f"extra_edge_prob must be finite and in [0, 1], "
                         f"got {extra_edge_prob}")
    if isinstance(seed, Integral) and seed < 0:
        raise ValueError(f"seed must be nonnegative, got {seed}")
    rng = np.random.default_rng(seed)
    order = rng.permutation(n)
    # successor[s] is the receiver of sender s's cycle edge
    successor = np.empty(n, dtype=np.int64)
    successor[order] = np.roll(order, -1)
    if extra_edge_prob == 0.0 or n == 1:
        return Digraph(n, tuple(() if n == 1 else (int(r),)
                                for r in successor))
    outs = []
    # the (n, n) draws row by row, ``draws[sender, receiver]``, in chunks of
    # rows that read the same stream as one draw of the whole matrix
    chunk = max(1, _DRAW_CHUNK // n)
    for first in range(0, n, chunk):
        senders = np.arange(first, min(first + chunk, n))
        rows = np.arange(senders.size)
        adjacent = rng.random((senders.size, n)) < extra_edge_prob
        adjacent[rows, senders] = False
        adjacent[rows, successor[senders]] = True
        # sender-major, receiver-minor order keeps construction deterministic
        outs += [tuple(np.flatnonzero(row).tolist()) for row in adjacent]
    return Digraph(n, tuple(outs))


def ratio_weights(g: Digraph) -> np.ndarray:
    """Column-stochastic weights: column j puts 1/(1+d_out(j)) on row j and
    on each of j's out-neighbours.

    Row index = receiver, column index = sender, so one synchronous exchange
    is ``v' = W @ v``.
    """
    w = np.zeros((g.n, g.n))
    for sender in range(g.n):
        share = 1.0 / (1.0 + g.out_degree(sender))
        w[sender, sender] = share
        for receiver in g.out_neighbors[sender]:
            w[receiver, sender] = share
    return w


def diameter(g: Digraph) -> int:
    """Longest shortest directed path, via all-pairs BFS.

    Raises :class:`Disconnected` when some ordered pair is unreachable.
    """
    worst = 0
    for source in range(g.n):
        dist = _bfs_dist(g, source, g.out_neighbors)
        if any(d < 0 for d in dist):
            raise Disconnected(f"node {dist.index(-1)} unreachable from {source}")
        worst = max(worst, max(dist))
    return worst


def save_digraph(g: Digraph, path) -> None:
    """Write ``n m`` header plus one ``receiver sender`` line per edge."""
    lines = [f"{g.n} {g.edge_count}"]
    lines += [f"{r} {s}" for r, s in g.edges()]
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def load_digraph(path) -> Digraph:
    """Read the format written by :func:`save_digraph`."""
    with open(path, "r", encoding="utf-8") as fh:
        tokens = fh.read().split()
    if len(tokens) < 2:
        raise InvalidEdge(f"{path}: missing 'n m' header")
    try:
        n, m, *flat = map(int, tokens)
    except ValueError as exc:
        raise InvalidEdge(f"{path}: {exc}") from None
    if len(flat) != 2 * m:
        raise InvalidEdge(f"{path}: expected {m} edges, found {len(flat) // 2}")
    return build_digraph(n, zip(flat[0::2], flat[1::2]))
