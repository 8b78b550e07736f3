"""Ratio consensus over directed graphs and finite-time exact evaluation.

Two parallel linear iterations run under one column-stochastic weight matrix:
a numerator seeded with the input vectors and a denominator seeded with ones.
Every node's ratio converges to the network average; the finite-time machinery
watches the per-node observation sequence, finds the first rank-deficient
square Hankel matrix of its differences, and combines the resulting kernel
coefficients with the stored trajectory prefix to jump straight to the exact
limit. That prefix is the ``[x, y]`` rows a phase already holds, the
denominator first, so :func:`fterc_final` reduces them as they are.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .errors import NumericBreakdown

# Pinned numerical tolerances for defect detection and final evaluation.
RANK_TOL = 1e-12    # singular values below RANK_TOL * sigma_max count as zero
                    # (true defects land near 1e-16 of sigma_max; weakly excited
                    # modes stay above ~1e-9, so 1e-12 separates them cleanly)
DENOM_TOL = 1e-12   # denominators/normalizers below this are a breakdown
ABS_TOL = 1e-13     # first-difference magnitude that counts as "no motion"
STAB_TOL = 1e-9     # max relative cross-ratio drift tolerated at a defect fire


def check_seeds(y0, n: int) -> np.ndarray:
    """``y0`` as a float array of ``n`` finite seed rows, or ValueError.

    A seed row is a scalar or a nonempty vector.
    """
    seeds = np.asarray(y0, dtype=float)
    if seeds.ndim == 0 or seeds.shape[0] != n:
        raise ValueError("seed count must match node count")
    if seeds.ndim > 2 or seeds.size == 0:
        raise ValueError(f"seeds of shape {seeds.shape} are not one scalar "
                         "or one nonempty vector per node")
    if not np.isfinite(seeds).all():
        raise ValueError("seeds must be finite")
    return seeds


def ratio_update(block: np.ndarray,
                 out: np.ndarray | None = None) -> np.ndarray:
    """One receiver-side ratio update for every node at once.

    ``block[i]`` holds node i's own ratio row, then its in-neighbours' rows
    in sender order, each already divided by 1 + its sender's out-degree,
    then pad rows of ``-0.0``, which leave any sum as it is, to the last bit.
    One plain reduction sums the rows slot by slot in that order, so each
    node's sum is the one a sequential loop over its inbox gives: it starts
    from ``-0.0`` too (``+0.0`` would turn a ``-0.0`` row into ``+0.0``).
    That holds for the engine's slot-major blocks and for C-contiguous ones
    alike, as long as a row has more than one column; a block of one column
    is refused, since numpy would sum a contiguous slot axis pairwise, out
    of that order. A ratio row holds the denominator and at least one
    numerator. Given ``out``, an ``(n, columns)`` array, the sums are
    written there and ``out`` is returned.
    """
    if block.shape[2] < 2:
        raise ValueError("a ratio row has at least two columns, got "
                         f"{block.shape[2]}")
    return np.add.reduce(block, axis=1, initial=-0.0, out=out)


@functools.lru_cache(maxsize=64)
def _hankel_index(m: int) -> np.ndarray:
    """The ``(m, m)`` index ``i + j`` of a square Hankel matrix's entries.

    Read-only, since every detector shares it. A detector checks each size
    once per phase, so the cache serves later phases; it keeps 64 sizes.
    """
    index = np.add.outer(np.arange(m), np.arange(m))
    index.flags.writeable = False
    return index


class HankelDetector:
    """Finds each node's first defective square Hankel matrix of differences.

    One detector serves a whole phase: ``feed`` reads the phase trajectory,
    one ``(n, channels)`` row block per round (an array or a list of
    blocks), and checks every node still open at once. A node's matrix stacks one Hankel block per observed
    channel (denominator plus each numerator coordinate); it reports a
    defect at the first square size whose stacked matrix is numerically
    rank-deficient. The kernel vector, normalized so its last entry is one,
    gives the coefficients ``beta``; the defect index is the size minus one.
    Size m becomes checkable once 2m values are in, so a node with defect
    index d fires at round 2(d+1)-1. A node whose first difference is
    already below ``ABS_TOL`` fires at the first check with defect 0 and
    ``beta=[1]``.
    """

    def __init__(self, n: int):
        self.open = np.ones(n, dtype=bool)
        self.defect: list[int | None] = [None] * n
        self.beta: list[np.ndarray | None] = [None] * n

    def feed(self, traj) -> list[int]:
        """Check the trajectory so far; return the nodes that fired on it.

        Call it once per round: size m is checked when ``len(traj) == 2m``.
        """
        length = len(traj)
        checked = np.flatnonzero(self.open)
        if length % 2 or checked.size == 0:
            return []
        m = length // 2
        seq = np.asarray(traj)[:, checked]     # (2m, nodes, channels)
        diffs = seq[1:] - seq[:-1]             # (2m-1, nodes, channels)
        if m == 1:
            still = np.max(np.abs(diffs[0]), axis=1) < ABS_TOL
            for i in checked[still].tolist():
                self._fire(i, np.ones(1), 0)
        rows = np.flatnonzero(self.open[checked])
        if rows.size:
            # row c*m + i, column j of a node's matrix is diffs[i + j, node, c];
            # each node's channels are gathered from contiguous series
            series = diffs[:, rows].transpose(1, 2, 0).copy()
            stacked = series.take(_hankel_index(m), axis=2).reshape(
                rows.size, -1, m)
            sigma = np.linalg.svd(stacked, compute_uv=False)
            deficient = ~(sigma[:, -1] > RANK_TOL * sigma[:, 0])
            if deficient.any():
                vt = np.linalg.svd(stacked[deficient], full_matrices=False)[2]
                for r, kernel in zip(rows[deficient].tolist(), vt[:, -1]):
                    if abs(kernel[-1]) <= DENOM_TOL:
                        raise NumericBreakdown(
                            "kernel vector has a vanishing last entry")
                    if self._kernel_is_stable(
                            np.ascontiguousarray(seq[:, r]), kernel, m):
                        self._fire(int(checked[r]), kernel / kernel[-1], m - 1)
        return checked[~self.open[checked]].tolist()

    def _fire(self, i: int, beta: np.ndarray, defect: int) -> None:
        self.open[i] = False
        self.beta[i], self.defect[i] = beta, defect

    def _kernel_is_stable(self, seq: np.ndarray, kernel: np.ndarray,
                          m: int) -> bool:
        """Reject near-kernels that do not behave like a true recurrence.

        A genuine annihilating recurrence gives shift-invariant combination
        ratios: sum_t beta_t s[t+1] must be proportional to
        sum_t beta_t s[t] across every channel. Rank decisions made inside
        float noise (modes decayed below roundoff within the observation
        window) produce kernels that fail this by many orders of magnitude,
        so a fire is only accepted when the cross-ratios agree.
        """
        combo0 = kernel @ seq[:m]              # (channels,)
        combo1 = kernel @ seq[1:m + 1]
        denom_floor = STAB_TOL * np.sum(np.abs(kernel)) * \
            np.abs(seq[:m + 1, 0]).max()
        if abs(combo0[0]) <= denom_floor or abs(combo1[0]) <= denom_floor:
            return False
        mu0 = combo0[1:] / combo0[0]
        mu1 = combo1[1:] / combo1[0]
        drift = np.abs(mu1 - mu0) / (1.0 + np.abs(mu0))
        return bool(np.all(drift <= STAB_TOL))


def pad_kernels(betas) -> np.ndarray:
    """Kernel vectors as the rows of one matrix, zero-padded to the longest."""
    kernels = np.zeros((len(betas), max(map(len, betas))))
    for row, beta in zip(kernels, betas):
        row[:len(beta)] = beta
    return kernels


def fterc_final(traj, beta) -> np.ndarray:
    """Exact consensus value from a trajectory prefix and kernel coefficients.

    ``mu = (sum_t beta_t y_t) / (sum_t beta_t x_t)`` — the shared coefficient
    sums cancel, so this is the limit of the ratio in finitely many terms.

    ``traj`` holds one ``[x, y]`` row per round, the denominator in column 0:
    ``(T, p + 1)`` for one node with its kernel ``beta`` of length ``L``, or
    ``(T, n, p + 1)`` for a stack of ``n`` nodes with the ``(n, L)`` matrix
    of their kernels zero-padded to the longest (:func:`pad_kernels`). The
    products are laid out in C order, so one reduction over the rounds adds
    them in round order. A pad term is ``+-0.0``, which changes no sum but
    the sign of a zero one, so each node's value is the one it gets alone.
    Returns ``(p,)`` or ``(n, p)``. Raises ``ValueError`` when the
    trajectory's shape does not fit the kernels or it has fewer than ``L``
    rounds, and :class:`NumericBreakdown` naming the first node whose
    denominator sum is numerically zero.
    """
    kernels = np.asarray(beta, dtype=float)
    traj = np.asarray(traj, dtype=float)
    length = kernels.shape[-1]
    if traj.ndim < 2 or traj.shape[1:-1] != kernels.shape[:-1]:
        raise ValueError(f"a trajectory of shape {traj.shape} does not fit "
                         f"kernels of shape {kernels.shape}")
    if len(traj) < length:
        raise ValueError("trajectory shorter than the coefficient vector")
    sums = np.add.reduce(np.multiply(kernels.T[..., None], traj[:length],
                                     order="C"), axis=0)
    small = np.abs(sums[..., 0]) <= DENOM_TOL
    if small.any():
        raise NumericBreakdown("ratio denominator is numerically zero at "
                               f"node {np.argmax(small)}")
    return sums[..., 1:] / sums[..., :1]


@dataclass
class ConsensusResult:
    """Finite-time outcome at one node."""

    mu: np.ndarray
    defect: int
    beta: np.ndarray
    rounds_used: int
