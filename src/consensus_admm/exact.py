"""Exact-rational lane for finite-time consensus detection.

Float64 Hankel detection loses roughly ``4^d`` of dynamic range to mode
decay and recurrence-coefficient conditioning, which caps reliable scalar
detection near defect index 13. This module redoes the rank decisions and
the final-value evaluation in exact rational arithmetic: seeds are taken at
their exact binary values, the push-sum weights ``1/(1+d_out)`` are exact
fractions, and every returned value is the correctly rounded exact average.

It all runs on integers scaled by powers of the lcm of those divisors.
Each node finds its defect index in one pass over the block sizes. Its
difference channels are mixed into one channel with fixed small integer
weights, and a fraction-free three-term recurrence over the mixed channel
builds ``q_k``: ``det H_k`` times the monic degree-``k`` orthogonal
polynomial of that moment sequence, an integer vector that annihilates
Hankel rows ``0 .. k-1``. The first zero ``det H_m`` marks the candidate
size ``m``. This is sound:

* every mixed Hankel row is a combination of stacked block rows, so each
  nonzero mixed ``det H_k`` proves the stacked block of size ``k`` has full
  rank: no size before ``m`` is deficient;
* ``det H_(m-1) != 0`` makes the first ``m - 1`` mixed rows independent, so
  ``q_(m-1)`` spans their kernel, which holds any kernel of the stacked
  block. Every division in the recurrence is checked to be exact, and a
  check of ``q_(m-1)`` against every stacked block row accepts it or shows
  a false alarm (the block has full rank).

After a false alarm the next mix restarts the recurrence; once the mixes
are used up, every remaining size is eliminated whole. No size is skipped.
"""

from __future__ import annotations

import math
from fractions import Fraction
from operator import mul

import numpy as np

from .consensus import ConsensusResult, check_seeds
from .errors import NumericBreakdown
from .graph import Digraph

_MIXES = (3, 5, 7)      # mix r weights difference channel c by r**(c + 1)


def _exact_trajectories(g: Digraph, seeds: np.ndarray, rounds: int):
    """Evolve (numerators, denominator) exactly for ``rounds`` exchanges.

    Returns ``(chans, base)``: ``chans[j][c][t]`` is node ``j``'s channel
    ``c`` (0 being the denominator) at round ``t``, scaled by ``base**t *
    2**e`` into an integer; ``base`` is the lcm of the divisors ``1 + d_out``.
    """
    n = seeds.shape[0]
    base = math.lcm(*(1 + g.out_degree(j) for j in range(n)))
    gains = [base // (1 + g.out_degree(j)) for j in range(n)]
    ratios = [[float(v).as_integer_ratio() for v in row] for row in seeds]
    unit = max(den for row in ratios for _, den in row)   # a power of two
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
    chans = [[list(seq) for seq in zip(*rows)] for rows in history]
    return chans, base


def _bareiss_echelon(int_rows: list[list[int]], ncols: int):
    """Fraction-free integer elimination; returns (rank, echelon, pivot cols)."""
    a = [row[:] for row in int_rows]
    prev = 1
    pivots: list[int] = []
    for col in range(ncols):
        rank = len(pivots)
        piv = next((r for r in range(rank, len(a)) if a[r][col]), None)
        if piv is None:
            continue
        a[rank], a[piv] = a[piv], a[rank]
        lead = a[rank][col]
        # Rows below the pivot are already zero left of ``col``.
        for r in range(rank + 1, len(a)):
            factor = a[r][col]
            a[r] = [0] * (col + 1) + [
                (lead * a[r][c] - factor * a[rank][c]) // prev
                for c in range(col + 1, ncols)]
        prev = lead
        pivots.append(col)
    return len(pivots), a, pivots


def _kernel_vector(echelon, pivots, ncols: int) -> list[int]:
    """Back-substitute the integer kernel vector (rank == ncols - 1).

    The free entry is the last Bareiss pivot, a minor of the pivot columns,
    so by Cramer's rule every entry is an integer minor and every division
    below is exact.
    """
    free = next(c for c in range(ncols) if c not in pivots)
    beta = [0] * ncols
    beta[free] = echelon[len(pivots) - 1][pivots[-1]] if pivots else 1
    for r in range(len(pivots) - 1, -1, -1):
        col = pivots[r]
        acc = sum(echelon[r][c] * beta[c] for c in range(col + 1, ncols)
                  if echelon[r][c])
        beta[col], rem = divmod(-acc, echelon[r][col])
        if rem:
            raise NumericBreakdown("inexact kernel back-substitution")
    return beta


def _differences(chans, base: int) -> list[list[int]]:
    """One node's integer difference channels.

    Difference ``t`` (rounds ``t + 1`` minus ``t``) is scaled by
    ``base**(t + 1) * 2**e``, so Hankel entry ``(i, j)`` carries a row scale,
    which keeps ranks and kernels, times ``base**j``: kernel entry ``t`` is
    the rational kernel's entry over ``base**t``.
    """
    return [[seq[t + 1] - base * seq[t] for t in range(len(seq) - 1)]
            for seq in chans]


def _hankel_kernel(seq: list[int], top: int) -> tuple[int, list[int]] | None:
    """First size ``m <= top`` whose Hankel matrix ``seq[i + j]`` is
    singular, and the kernel ``q_(m-1)`` of its first ``m - 1`` rows; None
    when every size up to ``top`` is nonsingular.

    ``q_k`` lists coefficients constant first; ``q_k . seq[k:2k+1]`` is
    ``det H_(k+1)``. Each step's division by ``det H_k ** 2`` must be exact.
    """
    low, q = [], [1]              # q_(k-1) and q_k
    det, moment = 1, 0            # det H_k and q_(k-1) . seq[k:2k]
    for k in range(top):
        det_next = sum(map(mul, q, seq[k:2 * k + 1]))
        if det_next == 0:
            return k + 1, q
        if k + 1 == top:
            return None
        nxt = sum(map(mul, q, seq[k + 1:2 * k + 2]))
        lead, mid = det * det_next, det * nxt - det_next * moment
        tail, div = det_next * det_next, det * det
        step = []
        for a, b, c in zip([0, *q], [*q, 0], [*low, 0, 0]):
            v, rem = divmod(lead * a - mid * b - tail * c, div)
            if rem:
                raise NumericBreakdown("inexact Hankel recurrence step")
            step.append(v)
        low, q, det, moment = q, step, det_next, nxt
    return None


def _detect_node(ints: list[list[int]]) -> tuple[int, list[int]]:
    """Exact defect index and integer kernel from one node's differences.

    The defect index is ``m - 1`` for the first size ``m`` whose stacked
    block (rows ``(c, i)``, entries ``ints[c][i + j]``, ``i, j < m``) is rank
    deficient. The recurrence runs on each mix of :data:`_MIXES` in turn;
    once they are used up, every remaining size is eliminated whole.
    """
    top = (len(ints[0]) + 1) // 2
    known = 0                     # every size up to ``known`` has full rank
    for r in _MIXES:
        weights = [r ** (c + 1) for c in range(len(ints))]
        mixed = [sum(map(mul, weights, col)) for col in zip(*ints)]
        found = _hankel_kernel(mixed, top)
        if found is None:
            known = top
            break
        m, kernel = found
        if m > known and _annihilates(ints, kernel):
            return m - 1, kernel
        known = max(known, m)     # a false alarm: size m has full rank
    for m in range(known + 1, top + 1):
        kernel = _exact_kernel(ints, m)
        if kernel is not None:
            return m - 1, kernel
    raise NumericBreakdown(f"no exact defect within {len(ints[0])} exchanges")


def _annihilates(ints, kernel: list[int]) -> bool:
    """Whether ``kernel`` annihilates every row of its size's stacked block."""
    m = len(kernel)
    return not any(sum(map(mul, kernel, row[i:i + m]))
                   for row in ints for i in range(m))


def _exact_kernel(ints, m: int) -> list[int] | None:
    """Integer kernel of the size-``m`` stacked block by whole-block
    elimination, or None at full rank."""
    block = [[row[i + j] for j in range(m)] for row in ints for i in range(m)]
    rank, echelon, pivots = _bareiss_echelon(block, m)
    if rank == m:
        return None
    if rank != m - 1:
        raise NumericBreakdown(
            f"defect kernel at size {m} is {m - rank}-dimensional")
    return _kernel_vector(echelon, pivots, m)


def exact_consensus_run(g: Digraph, y0) -> list[ConsensusResult]:
    """Exact-arithmetic twin of :func:`~.admm.fterc_run`.

    Every node's returned value is the exact network average of the exact
    binary seeds, correctly rounded to float; defect indices and kernel
    coefficients carry no rounding ambiguity. Costs big-integer arithmetic,
    so intended for verification and for regimes beyond the float64
    detection envelope rather than for inner solver loops.
    """
    seeds = check_seeds(y0, g.n)
    chans, base = _exact_trajectories(g, seeds.reshape(g.n, -1), 2 * g.n + 1)
    results = []
    for j in range(g.n):
        defect, kernel = _detect_node(_differences(chans[j], base))
        if kernel[-1] == 0:
            raise NumericBreakdown("kernel vector has a vanishing last entry")
        # Kernel entry t over base**t meets channel entries over base**t, so
        # the powers cancel in every sum; the value ratio is invariant to the
        # kernel's scale, and int / int is correctly rounded.
        den = sum(b * chans[j][0][t] for t, b in enumerate(kernel))
        if den == 0:
            raise NumericBreakdown("exact combination denominator is zero")
        if den < 0:       # so that an exact zero mean comes out as +0.0
            kernel, den = [-b for b in kernel], -den
        mu = np.array([sum(b * chans[j][c][t] for t, b in enumerate(kernel))
                       / den for c in range(1, len(chans[j]))])
        beta = [float(Fraction(b, kernel[-1] * base ** (defect - t)))
                for t, b in enumerate(kernel)]
        results.append(ConsensusResult(
            mu=mu[0] if seeds.ndim == 1 else mu, defect=defect, beta=np.array(beta),
            rounds_used=2 * (defect + 1) - 1))
    return results
