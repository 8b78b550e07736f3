"""Exact-rational lane for finite-time consensus detection.

Float64 Hankel detection loses roughly ``4^d`` of dynamic range to mode
decay and recurrence-coefficient conditioning, which caps reliable scalar
detection near defect index 13. This module redoes the rank decisions and
the final-value evaluation in exact rational arithmetic: seeds are taken at
their exact binary values, the push-sum weights ``1/(1+d_out)`` are exact
fractions, and every returned value is the correctly rounded exact average.

It all runs on integers scaled by powers of the lcm of those divisors,
the whole network's state one object array of Python integers per round.
Each node finds its defect index in one pass over the block sizes. Its
difference channels are mixed into one channel with fixed small integer
weights, and a three-term (orthogonal-polynomial) recurrence over the mixed
channel runs on ``int64`` residues modulo primes below ``2**31``, so every
step works on words, not on integers the size of ``det H_k``, and a product
of two residues fits one. Every open node runs it at once: a lockstep pass
gives each one the next pair of primes, one row per node and prime, each
row with its own modulus. ``q_k``, a multiple of the monic degree-``k``
orthogonal polynomial of that moment sequence, annihilates Hankel rows
``0 .. k-1``, and ``q_k . seq[k:2k+1]`` vanishes modulo a prime exactly
when ``det H_(k+1)`` does. Node by node, the primes that read the latest
first zero ``m`` are combined by CRT, and rational reconstruction rebuilds
the kernel as a primitive integer vector; a node whose kernel is not yet
rebuilt takes the next pass. This is sound:

* a nonzero residue of ``det H_k`` proves ``det H_k != 0``. A prime that
  reads a zero before another prime does is dropped, and one that reads no
  zero up to the largest size proves every size nonsingular;
* a kernel is accepted only once it annihilates all ``m`` Hankel rows
  exactly, which proves ``det H_m = 0``: ``m`` is then the first singular
  size and the kernel the only one. Past the Hadamard bound (one per node
  and size, :class:`_HadamardBounds`) the primes themselves prove
  ``det H_m = 0`` and reconstruction cannot fail, so reaching it raises
  ``NumericBreakdown`` as an internal error;
* every mixed Hankel row is a combination of stacked block rows, so each
  nonzero mixed ``det H_k`` proves the stacked block of size ``k`` has full
  rank: no size before ``m`` is deficient;
* ``det H_(m-1) != 0`` makes the first ``m - 1`` mixed rows independent,
  so the mixed kernel spans their kernel, which holds any kernel of the
  stacked block. A candidate that annihilates every stacked block row is
  accepted (those rows span the mixed ones); one that only annihilates the
  mixed rows shows a false alarm (the stacked block has full rank).

After a false alarm the next mix restarts the recurrence; once the mixes
are used up, every remaining size is eliminated whole, node by node. No
size is skipped. There is no one-node path: a single node is the one-row
case of :func:`_detect_nodes` and :func:`_hankel_kernels`.
"""

from __future__ import annotations

import math
from itertools import islice
from operator import mul

import numpy as np

from .consensus import ConsensusResult, check_seeds
from .errors import NumericBreakdown
from .graph import Digraph
from .netsim import gather_rows

_MIXES = (3, 5, 7)      # mix r weights difference channel c by r**(c + 1)
_PAIR = 2               # primes per open node in one lockstep pass


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
    """The primes below ``2**31`` in descending order, each found on first
    use and kept for every later call. The product of two residues modulo
    one of them fits an ``int64``."""

    def __init__(self):
        self._found: list[int] = []

    def __getitem__(self, i: int) -> int:
        while len(self._found) <= i:
            c = self._found[-1] - 2 if self._found else 2**31 - 1
            while not _is_prime(c):
                c -= 2
            self._found.append(c)
        return self._found[i]


_PRIMES = _PrimeSequence()


def _exact_trajectories(g: Digraph, seeds: np.ndarray, rounds: int):
    """Evolve (denominator, numerators) exactly for ``rounds`` exchanges.

    Returns ``(traj, base)``: ``traj[t, j, c]``, an object array of Python
    integers, is node ``j``'s channel ``c`` (0 being the denominator) at
    round ``t``, scaled by ``base**t * 2**e``; ``base`` is the lcm of the
    divisors ``1 + d_out``. Every receiver sums its own share and its
    in-neighbours' shares, gathered as the round engine gathers a block.
    """
    n, p = seeds.shape
    degrees = [1 + g.out_degree(j) for j in range(n)]
    base = math.lcm(*degrees)
    gains = np.array([[base // d] for d in degrees], dtype=object)
    ratios = [[float(v).as_integer_ratio() for v in row] for row in seeds]
    unit = max(den for row in ratios for _, den in row)   # a power of two
    traj = np.empty((rounds + 1, n, p + 1), dtype=object)
    traj[0] = [[unit] + [num * (unit // den) for num, den in row]
               for row in ratios]
    gather = gather_rows(g)
    share = np.zeros((n + 1, p + 1), dtype=object)      # row n: the pad
    for t in range(rounds):
        share[:n] = gains * traj[t]
        traj[t + 1] = share[gather].sum(axis=1)
    return traj, base


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


def _differences(traj: np.ndarray, base: int) -> np.ndarray:
    """Every node's integer difference channels: ``diffs[j, c, t]``.

    Difference ``t`` (rounds ``t + 1`` minus ``t``) is scaled by
    ``base**(t + 1) * 2**e``, so Hankel entry ``(i, j)`` carries a row scale,
    which keeps ranks and kernels, times ``base**j``: kernel entry ``t`` is
    the rational kernel's entry over ``base**t``.
    """
    return (traj[1:] - base * traj[:-1]).transpose(1, 2, 0)


def _hankel_kernels(seqs: np.ndarray, top: int, blocks: list) -> list:
    """For every row ``seq`` of the object array ``seqs``: the first size
    ``m <= top`` whose Hankel matrix ``seq[i + j]`` is singular, and the
    primitive integer kernel of its ``m`` rows (gcd 1, last entry
    positive); None when every size up to ``top`` is nonsingular.

    Given ``blocks[i]`` (or None), stacked rows whose Hankel rows span those
    of row ``i``, the kernel is checked against their size-``m`` rows first;
    one that only annihilates the row's own Hankel rows is a false alarm,
    returned as ``(m, None)``.

    Each lockstep pass runs the recurrence of every unresolved row modulo
    the next :data:`_PAIR` primes of :data:`_PRIMES` at once, until its
    first zero ``det H_k``. Row by row, the primes reading the latest zero
    are then combined by CRT and the kernel is rebuilt by rational
    reconstruction and checked exactly; a row whose kernel is not yet
    rebuilt takes the next pass.
    """
    results: list = [None] * len(seqs)
    crt = [(0, 1, [])] * len(seqs)       # size m, modulus, kernel residues
    bound = _HadamardBounds(seqs)
    pending = list(range(len(seqs)))
    primes = iter(_PRIMES)
    while pending:
        pair = list(islice(primes, _PAIR))
        if not pair:
            raise NumericBreakdown("the prime sequence ran out")
        moduli = np.array(pair * len(pending), dtype=object)[:, None]
        residues = np.repeat(seqs[pending], len(pair), axis=0) % moduli
        sizes, monics = _kernels_mod(residues.astype(np.int64), top,
                                     moduli[:, 0].astype(np.int64))
        still = []
        for at, i in zip(range(0, len(moduli), len(pair)), pending):
            rows = slice(at, at + len(pair))
            if not sizes[rows].all():
                continue          # a nonzero det H_k mod prime for every k
            m, modulus, kernel_mod = crt[i]
            for prime, size, monic in zip(pair, sizes[rows].tolist(),
                                          monics[rows]):
                if size < m:
                    continue      # this prime divides a nonzero det H_size
                if size > m:      # so did every prime used so far
                    m, modulus, kernel_mod = size, 1, [0] * size
                lift = pow(modulus, -1, prime)
                kernel_mod = [r + modulus * ((v - r) * lift % prime)
                              for r, v in zip(kernel_mod, monic)]
                modulus *= prime
            crt[i] = m, modulus, kernel_mod
            seq = seqs[i].tolist()
            kernel = _rational_kernel(kernel_mod, modulus)
            if kernel is not None and _annihilates(blocks[i] or [seq],
                                                   kernel):
                results[i] = m, kernel
            elif (kernel is not None and blocks[i]
                  and _annihilates([seq], kernel)):
                results[i] = m, None
            elif modulus.bit_length() > bound(i, m):
                raise NumericBreakdown(
                    f"no kernel of Hankel size {m} within its Hadamard bound")
            else:
                still.append(i)
        pending = still
    return results


def _kernels_mod(s: np.ndarray, top: int, primes: np.ndarray):
    """The recurrence of every row of the ``int64`` residues ``s`` at once,
    row ``r`` modulo ``primes[r] < 2**31``, so that every product of two
    residues fits an ``int64``.

    Returns ``(sizes, monics)``: ``sizes[r]`` is the first size
    ``m <= top`` whose Hankel matrix is singular modulo ``primes[r]`` (0
    when none is), and ``monics[r]`` the monic kernel of its first
    ``m - 1`` rows modulo ``primes[r]``, constant first.

    ``q_k`` is a nonzero multiple of the monic degree-``k`` orthogonal
    polynomial of the row: the fraction-free step without its division by
    ``det H_k ** 2``. It annihilates Hankel rows ``0 .. k-1``, and
    ``q_k . s[k:2k+1]`` vanishes exactly when ``det H_(k+1)`` does. A row
    leaves the pass at its first zero.
    """
    sizes = np.zeros(len(s), dtype=np.int64)
    monics: list = [None] * len(s)
    rows = np.arange(len(s))
    p = primes[:, None]
    q = np.zeros((len(s), top), dtype=np.int64)   # q_k: entries 0 .. k
    q[:, 0] = 1
    low = np.zeros_like(q)                        # q_(k-1)
    h_low, nu_low = np.ones_like(p), np.zeros_like(p)
    for k in range(top):
        # q_k . s[k:2k+1] and . s[k+1:2k+2], each product reduced first
        h = (q[:, :k + 1] * s[:, k:2 * k + 1] % p).sum(
            axis=1, keepdims=True) % p
        zero = h[:, 0] == 0
        if zero.any():
            units = [[pow(v, -1, prime)] for v, prime
                     in zip(q[zero, k].tolist(), p[zero, 0].tolist())]
            monic = q[zero, :k + 1] * np.array(units, dtype=np.int64) % p[zero]
            sizes[rows[zero]] = k + 1
            for r, row in zip(rows[zero].tolist(), monic.tolist()):
                monics[r] = row
            keep = ~zero
            if not keep.any():
                break
            rows, s, p, q, low, h, h_low, nu_low = (
                a[keep] for a in (rows, s, p, q, low, h, h_low, nu_low))
        if k + 1 == top:
            break
        nu = (q[:, :k + 1] * s[:, k + 1:2 * k + 2] % p).sum(
            axis=1, keepdims=True) % p
        lead = h_low * h % p
        mid = (h_low * nu - h * nu_low) % p
        tail = h * h % p
        # q_(k+1) = lead x q_k - mid q_k - tail q_(k-1), on entries 0 .. k+1
        width = k + 2
        nxt = np.zeros_like(q)
        nxt[:, :width] = -(mid * q[:, :width] % p) - tail * low[:, :width] % p
        nxt[:, 1:width] += lead * q[:, :width - 1] % p
        nxt[:, :width] %= p
        low, q = q, nxt
        h_low, nu_low = h, nu
    return sizes, monics


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


class _HadamardBounds:
    """``bound(i, m)``: an exponent ``b`` with ``2**b`` above ``|det H_m|``
    of row ``i`` of ``seqs`` and above ``4 B**2``, where ``B``, Hadamard's
    bound on the first ``m - 1`` rows of ``H_m``, bounds ``det H_(m-1)``
    and every minor that makes a kernel entry. Each row's bit lengths are
    taken once, and each row's exponent once per size.

    A modulus of at least ``2**b`` that reads ``det H_m = 0`` proves it.
    Each kernel entry, a minor over ``det H_(m-1)``, then reconstructs with
    numerator and denominator at most ``sqrt(modulus / 2)``, also when
    multiplied by a partial product of the denominators found before it,
    so reconstruction cannot fail there.
    """

    def __init__(self, seqs: np.ndarray):
        self.seqs = seqs
        self.bits: dict[int, list[int]] = {}
        self.exponents: dict[tuple[int, int], int] = {}

    def __call__(self, i: int, m: int) -> int:
        if (i, m) not in self.exponents:
            if i not in self.bits:
                self.bits[i] = [abs(v).bit_length() for v in self.seqs[i]]
            bits = self.bits[i]
            self.exponents[i, m] = 2 + sum(2 * max(bits[j:j + m])
                                           + m.bit_length() for j in range(m))
        return self.exponents[i, m]


def _detect_nodes(diffs: np.ndarray) -> list[tuple[int, list[int]]]:
    """Exact defect index and integer kernel of every node, from the object
    array ``diffs[j, c, t]`` of their differences.

    Node ``j``'s defect index is ``m - 1`` for the first size ``m`` whose
    stacked block (rows ``(c, i)``, entries ``diffs[j, c, i + k]``,
    ``i, k < m``) is rank deficient. The recurrence runs on each mix of
    :data:`_MIXES` in turn, for every node still open at once; once they
    are used up, every remaining size is eliminated whole, node by node.
    """
    nodes, channels, length = diffs.shape
    top = (length + 1) // 2
    blocks = diffs.tolist()
    found: list = [None] * nodes
    known = [0] * nodes           # every size up to known[j] has full rank
    open_ = list(range(nodes))
    for r in _MIXES:
        if not open_:
            break
        weights = np.array([r ** (c + 1) for c in range(channels)],
                           dtype=object)
        outcomes = _hankel_kernels(weights @ diffs[open_], top,
                                   [blocks[j] for j in open_])
        still = []
        for j, outcome in zip(open_, outcomes):
            if outcome is None:
                raise NumericBreakdown(
                    f"no exact defect within {length} exchanges")
            m, kernel = outcome
            if kernel is None:    # a false alarm: size m has full rank
                known[j] = max(known[j], m)
                still.append(j)
            else:
                found[j] = m - 1, kernel
        open_ = still
    for j in open_:
        for m in range(known[j] + 1, top + 1):
            kernel = _exact_kernel(blocks[j], m)
            if kernel is not None:
                found[j] = m - 1, kernel
                break
        else:
            raise NumericBreakdown(
                f"no exact defect within {length} exchanges")
    return found


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
    traj, base = _exact_trajectories(g, seeds.reshape(g.n, -1), 2 * g.n + 1)
    results = []
    for j, (defect, kernel) in enumerate(
            _detect_nodes(_differences(traj, base))):
        if kernel[-1] == 0:
            raise NumericBreakdown("kernel vector has a vanishing last entry")
        # Kernel entry t over base**t meets channel entries over base**t, so
        # the powers cancel in every sum; the value ratio is invariant to the
        # kernel's scale, and int / int is correctly rounded.
        den, *nums = np.array(kernel, dtype=object) @ traj[:len(kernel), j]
        if den == 0:
            raise NumericBreakdown("exact combination denominator is zero")
        if den < 0:       # so that an exact zero mean comes out as +0.0
            kernel, den, nums = [-b for b in kernel], -den, [-v for v in nums]
        mu = np.array([v / den for v in nums])
        # b / d is the correctly rounded b/d, as float(Fraction(b, d)) is;
        # an exact zero is +0.0 whatever the sign of d
        beta = [b / (kernel[-1] * base ** (defect - t)) if b else 0.0
                for t, b in enumerate(kernel)]
        results.append(ConsensusResult(
            mu=mu[0] if seeds.ndim == 1 else mu, defect=defect, beta=np.array(beta),
            rounds_used=2 * (defect + 1) - 1))
    return results
