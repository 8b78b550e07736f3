"""Exact-rational lane for finite-time consensus detection.

Float64 Hankel detection loses roughly ``4^d`` of dynamic range to mode
decay and recurrence-coefficient conditioning, which caps reliable scalar
detection near defect index 13. This module redoes the rank decisions and
the final-value evaluation in exact rational arithmetic: seeds are taken at
their exact binary values, the push-sum weights ``1/(1+d_out)`` are exact
fractions, and every returned value is the correctly rounded exact average.

It all runs on integers scaled by powers of the lcm of those divisors.
Full rank modulo a word-size prime proves full rank over the rationals, so
only the one deficient block size per node pays for fraction-free integer
elimination (Bareiss), on its modular basis rows alone.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np

from .consensus import ConsensusResult
from .errors import NumericBreakdown
from .graph import Digraph

_PRIME = (1 << 31) - 1


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


def _hankel_bases_mod_p(mods: np.ndarray, sizes: range,
                        p: int = _PRIME) -> list[list[int]]:
    """Basis rows modulo a prime of one node's stacked Hankel blocks, per size.

    The size-``m`` block has rows ``(c, i)`` (index ``c * m + i``), columns
    ``j < m`` and entries ``mods[c, i + j]``; all sizes are eliminated
    together, zero-padded to the largest. Rows independent modulo a prime
    are independent over the rationals.
    """
    chans = mods.shape[0]
    top = sizes[-1]
    a = np.zeros((len(sizes), chans, top, top), dtype=np.int64)
    for b, m in enumerate(sizes):
        a[b, :, :m, :m] = mods[:, np.add.outer(np.arange(m), np.arange(m))]
    a = a.reshape(len(sizes), chans * top, top)
    batch = np.arange(len(sizes))
    used = np.zeros(a.shape[:2], dtype=bool)
    for col in range(top):
        cand = (a[:, :, col] != 0) & ~used
        has = cand.any(axis=1)
        piv = cand.argmax(axis=1)
        used[batch[has], piv[has]] = True
        # Cross-multiplied elimination needs no modular inverse; both
        # products stay below 2**62, so int64 cannot overflow. A size with
        # no pivot in this column gets the identity step (scale 1, row 0).
        prow = np.where(has[:, None], a[batch, piv, col:], 0)
        drop = a[:, :, col, None] * prow[:, None, :]
        rest = a[:, :, col:]          # a view: updated in place
        rest *= np.where(has, prow[:, 0], 1)[:, None, None]
        rest -= drop
        np.remainder(rest, p, out=rest)
    return [[c * m + i for c in range(chans) for i in range(m)
             if used[b, c * top + i]] for b, m in enumerate(sizes)]


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


def _detect_node(chans, base: int) -> tuple[int, list[int]]:
    """Exact defect index and integer kernel for one node's channels.

    Difference ``t`` (rounds ``t + 1`` minus ``t``) is scaled by
    ``base**(t + 1) * 2**e``, so Hankel entry ``(i, j)`` carries a row scale,
    which keeps ranks and kernels, times ``base**j``: kernel entry ``t`` is
    the rational kernel's entry over ``base**t``.
    """
    samples = len(chans[0])
    ints = [[seq[t + 1] - base * seq[t] for t in range(samples - 1)]
            for seq in chans]
    if all(d[0] == 0 for d in ints):
        return 0, [1]     # constant from the very first exchange
    mods = np.array([[v % _PRIME for v in d] for d in ints], dtype=np.int64)
    # Sizes are screened in doubling chunks, so a small defect index
    # eliminates few blocks and a large one few batches.
    top = samples // 2
    for lo in (1 << k for k in range(top.bit_length())):
        sizes = range(lo, min(2 * lo, top + 1))
        for m, basis in zip(sizes, _hankel_bases_mod_p(mods, sizes)):
            kernel = _exact_kernel(ints, m, basis)
            if kernel is not None:
                return m - 1, kernel
    raise NumericBreakdown(f"no exact defect within {samples - 1} exchanges")


def _exact_kernel(ints, m: int, basis: list[int]) -> list[int] | None:
    """Integer kernel of the size-``m`` integer block, or None at full rank.

    Bareiss runs on the ``m - 1`` rows of the modular ``basis`` (independent
    over the rationals), or on the whole block if the basis is shorter. A
    block row outside the kernel means a modular false alarm: full rank.
    """
    if len(basis) == m:
        return None
    block = [[row[i + j] for j in range(m)] for row in ints for i in range(m)]
    rows = [block[r] for r in basis] if len(basis) == m - 1 else block
    rank, echelon, pivots = _bareiss_echelon(rows, m)
    if rank == m:
        return None
    if rank != m - 1:
        raise NumericBreakdown(
            f"defect kernel at size {m} is {m - rank}-dimensional")
    kernel = _kernel_vector(echelon, pivots, m)
    if any(sum(v * k for v, k in zip(row, kernel)) for row in block):
        return None
    return kernel


def exact_consensus_run(g: Digraph, y0) -> list[ConsensusResult]:
    """Exact-arithmetic twin of :func:`~.admm.fterc_run`.

    Every node's returned value is the exact network average of the exact
    binary seeds, correctly rounded to float; defect indices and kernel
    coefficients carry no rounding ambiguity. Costs big-integer arithmetic,
    so intended for verification and for regimes beyond the float64
    detection envelope rather than for inner solver loops.
    """
    arr = np.asarray(y0, dtype=float)
    if arr.ndim == 0 or arr.shape[0] != g.n:
        raise ValueError("seed count must match node count")
    scalar = arr.ndim == 1
    mat = arr.reshape(g.n, -1)
    chans, base = _exact_trajectories(g, mat, 2 * g.n + 1)
    results = []
    for j in range(g.n):
        defect, kernel = _detect_node(chans[j], base)
        if kernel[-1] == 0:
            raise NumericBreakdown("kernel vector has a vanishing last entry")
        # Kernel entry t over base**t meets channel entries over base**t, so
        # the powers cancel in every sum; the value ratio is invariant to the
        # kernel's scale, and int / int is correctly rounded.
        den = sum(b * chans[j][0][t] for t, b in enumerate(kernel))
        if den == 0:
            raise NumericBreakdown("exact combination denominator is zero")
        mu = np.array([sum(b * chans[j][c][t] for t, b in enumerate(kernel))
                       / den for c in range(1, len(chans[j]))])
        beta = [float(Fraction(b, kernel[-1] * base ** (defect - t)))
                for t, b in enumerate(kernel)]
        results.append(ConsensusResult(
            mu=mu[0] if scalar else mu, defect=defect, beta=np.array(beta),
            rounds_used=2 * (defect + 1) - 1))
    return results
