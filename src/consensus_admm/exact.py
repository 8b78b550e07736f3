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
weights, and a three-term (orthogonal-polynomial) recurrence over the mixed
channel runs modulo primes below ``2**61``, so every step works on words,
not on integers the size of ``det H_k``. ``q_k``, a multiple of the monic
degree-``k`` orthogonal polynomial of that moment sequence, annihilates
Hankel rows ``0 .. k-1``, and ``q_k . seq[k:2k+1]`` vanishes modulo a prime
exactly when ``det H_(k+1)`` does. The primes that read the latest first
zero ``m`` are combined by CRT, and rational reconstruction rebuilds the
kernel as a primitive integer vector. This is sound:

* a nonzero residue of ``det H_k`` proves ``det H_k != 0``. A prime that
  reads a zero before another prime does is dropped, and one that reads no
  zero up to the largest size proves every size nonsingular;
* a kernel is accepted only once it annihilates all ``m`` Hankel rows
  exactly, which proves ``det H_m = 0``: ``m`` is then the first singular
  size and the kernel the only one. Past the Hadamard bound the primes
  themselves prove ``det H_m = 0`` and reconstruction cannot fail, so
  reaching it raises ``NumericBreakdown`` as an internal error;
* every mixed Hankel row is a combination of stacked block rows, so each
  nonzero mixed ``det H_k`` proves the stacked block of size ``k`` has full
  rank: no size before ``m`` is deficient;
* ``det H_(m-1) != 0`` makes the first ``m - 1`` mixed rows independent,
  so the mixed kernel spans their kernel, which holds any kernel of the
  stacked block. A candidate that annihilates every stacked block row is
  accepted (those rows span the mixed ones); one that only annihilates the
  mixed rows shows a false alarm (the stacked block has full rank).

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


def _is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin for odd ``37 < n < 2**64``."""
    s = ((n - 1) & (1 - n)).bit_length() - 1
    d = (n - 1) >> s
    for a in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


class _PrimeSequence:
    """The primes below ``2**61`` in descending order, each found on first
    use and kept for every later call."""

    def __init__(self):
        self._found: list[int] = []

    def __getitem__(self, i: int) -> int:
        while len(self._found) <= i:
            c = self._found[-1] - 2 if self._found else 2**61 - 1
            while not _is_prime(c):
                c -= 2
            self._found.append(c)
        return self._found[i]


_PRIMES = _PrimeSequence()


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


def _hankel_kernel(seq: list[int], top: int,
                   rows=None) -> tuple[int, list[int] | None] | None:
    """First size ``m <= top`` whose Hankel matrix ``seq[i + j]`` is
    singular, and the primitive integer kernel of its ``m`` rows (gcd 1,
    last entry positive); None when every size up to ``top`` is nonsingular.

    Each prime of :data:`_PRIMES` runs the recurrence until its first zero
    ``det H_k``; the primes reading the latest zero are combined by CRT and
    the kernel is rebuilt by rational reconstruction, then checked exactly.
    Given ``rows``, whose Hankel rows span those of ``seq``, the kernel is
    checked against their size-``m`` rows first; one that only annihilates
    ``seq``'s rows is a false alarm, returned as ``(m, None)``.
    """
    m, modulus, residues = 0, 1, []
    for prime in _PRIMES:
        found = _kernel_mod(seq, top, prime)
        if found is None:
            return None           # a nonzero det H_k mod prime for every k
        size, monic = found
        if size < m:
            continue              # this prime divides a nonzero det H_size
        if size > m:              # so did every prime used so far
            m, modulus, residues = size, 1, [0] * size
        lift = pow(modulus, -1, prime)
        residues = [r + modulus * ((v - r) * lift % prime)
                    for r, v in zip(residues, monic)]
        modulus *= prime
        kernel = _rational_kernel(residues, modulus)
        if kernel is not None and _annihilates(rows or [seq], kernel):
            return m, kernel
        if kernel is not None and rows and _annihilates([seq], kernel):
            return m, None
        if modulus.bit_length() > _hadamard_bits(seq, m):
            raise NumericBreakdown(
                f"no kernel of Hankel size {m} within its Hadamard bound")
    raise NumericBreakdown("the prime sequence ran out")


def _kernel_mod(seq: list[int], top: int, prime: int):
    """First size ``m <= top`` whose Hankel matrix is singular modulo
    ``prime``, and the monic kernel of its first ``m - 1`` rows modulo
    ``prime``, constant first; None when no size up to ``top`` is.

    ``q_k`` is a nonzero multiple of the monic degree-``k`` orthogonal
    polynomial of ``seq``: the fraction-free step without its division by
    ``det H_k ** 2``. It annihilates Hankel rows ``0 .. k-1``, and
    ``q_k . seq[k:2k+1]`` vanishes exactly when ``det H_(k+1)`` does.
    """
    s = [v % prime for v in seq]
    low, q = [], [1]              # q_(k-1) and q_k
    h_low, nu_low = 1, 0          # q_(k-1) . s[k-1:2k-1] and . s[k:2k]
    for k in range(top):
        h = sum(map(mul, q, s[k:2 * k + 1])) % prime
        if h == 0:
            unit = pow(q[-1], -1, prime)
            return k + 1, [v * unit % prime for v in q]
        if k + 1 == top:
            break
        nu = sum(map(mul, q, s[k + 1:2 * k + 2])) % prime
        lead = h_low * h % prime
        mid = (h_low * nu - h * nu_low) % prime
        tail = h * h % prime
        low, q = q, [(lead * a - mid * b - tail * c) % prime for a, b, c
                     in zip([0, *q], [*q, 0], [*low, 0, 0])]
        h_low, nu_low = h, nu
    return None


def _rational_kernel(residues: list[int], modulus: int) -> list[int] | None:
    """Primitive integer vector whose ratios to its last entry are congruent
    to ``residues`` (last entry 1) modulo ``modulus``, each rebuilt with
    numerator and denominator at most ``sqrt(modulus / 2)``; None when some
    entry has no such fraction.

    Entries are rebuilt times the product of the denominators found so far,
    so after the first fraction most entries come back as integers.
    """
    bound = math.isqrt((modulus - 1) // 2)
    scale, fracs = 1, []
    for u in residues[:-1]:
        r0, r1, t0, t1 = modulus, u * scale % modulus, 0, 1
        while r1 > bound:         # extended Euclid, stopped halfway
            q = r0 // r1
            r0, r1, t0, t1 = r1, r0 - q * r1, t1, t0 - q * t1
        if abs(t1) > bound:
            return None
        g = math.gcd(r1, t1)
        num, den = (r1 // g, t1 // g) if t1 > 0 else (-r1 // g, -t1 // g)
        fracs.append((num, den * scale))
        scale *= den
    kernel = [num * (scale // den) for num, den in fracs] + [scale]
    g = math.gcd(*kernel)
    return [v // g for v in kernel]


def _hadamard_bits(seq: list[int], m: int) -> int:
    """Exponent ``b`` with ``2**b`` above ``|det H_m|`` and above ``4 B**2``,
    where ``B``, Hadamard's bound on the first ``m - 1`` rows of ``H_m``,
    bounds ``det H_(m-1)`` and every minor that makes a kernel entry.

    A modulus of at least ``2**b`` that reads ``det H_m = 0`` proves it.
    Each kernel entry, a minor over ``det H_(m-1)``, then reconstructs with
    numerator and denominator at most ``sqrt(modulus / 2)``, also when
    multiplied by a partial product of the denominators found before it,
    so reconstruction cannot fail there.
    """
    return 2 + sum(2 * max(abs(v).bit_length() for v in seq[i:i + m])
                   + m.bit_length() for i in range(m))


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
        found = _hankel_kernel(mixed, top, ints)
        if found is None:
            known = top
            break
        m, kernel = found
        if kernel is not None:
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
