"""Ratio consensus over directed graphs and finite-time exact evaluation.

Two parallel linear iterations run under one column-stochastic weight matrix:
a numerator seeded with the input vectors and a denominator seeded with ones.
Every node's ratio converges to the network average; the finite-time machinery
watches the per-node observation sequence, finds the first rank-deficient
square Hankel matrix of its differences, and combines the resulting kernel
coefficients with the stored trajectory prefix to jump straight to the exact
limit.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DegenerateSequence, MissingMessage, NumericBreakdown

# Pinned numerical tolerances for defect detection and final evaluation.
RANK_TOL = 1e-12    # singular values below RANK_TOL * sigma_max count as zero
                    # (true defects land near 1e-16 of sigma_max; weakly excited
                    # modes stay above ~1e-9, so 1e-12 separates them cleanly)
DENOM_TOL = 1e-12   # denominators/normalizers below this are a breakdown
ABS_TOL = 1e-13     # first-difference magnitude that counts as "no motion"
STAB_TOL = 1e-9     # max relative cross-ratio drift tolerated at a defect fire


def ratio_update(own_y, own_x: float, out_degree: int, received,
                 expected: int) -> tuple[np.ndarray, float]:
    """One receiver-side ratio update from sender-scaled contributions.

    ``received`` holds (y, x) pairs already divided by 1 + sender out-degree;
    the node adds its own equally scaled contribution. Raises
    :class:`MissingMessage` when a neighbour's value is absent.
    """
    if len(received) != expected:
        raise MissingMessage(f"expected {expected} messages, got {len(received)}")
    share = 1.0 / (1.0 + out_degree)
    y_next = share * np.asarray(own_y, dtype=float)
    x_next = share * own_x
    for y_in, x_in in received:
        y_next = y_next + y_in
        x_next = x_next + x_in
    return y_next, x_next


class HankelDetector:
    """Finds the first defective square Hankel matrix of a difference sequence.

    The detector is multi-channel: it stacks one Hankel block per observed
    channel (denominator plus each numerator coordinate) and reports a defect
    at the first square size whose stacked matrix is numerically
    rank-deficient. The kernel vector, normalized so its last entry is one,
    gives the coefficients ``beta``; the defect index is the size minus one.
    Size m becomes checkable once 2m values have been fed, so a node with
    defect index d fires at round 2(d+1)-1.
    """

    def __init__(self, channels: int):
        self.channels = channels
        self.defect: int | None = None
        self.beta: np.ndarray | None = None
        self._seq: list[np.ndarray] = []

    @property
    def fired(self) -> bool:
        return self.defect is not None

    def __digest__(self):
        # Stable content identity for state audits with stable_digest.
        return ("hankel", self.channels, self.defect, self.beta, self._seq)

    def feed(self, values) -> bool:
        """Append one round's observation; return True once a defect is known.

        Raises :class:`DegenerateSequence` if every channel is already still
        at the very first check (the caller should treat the current value as
        final: defect 0, beta=[1]); the detector is left in that fired state.
        """
        row = np.atleast_1d(np.asarray(values, dtype=float))
        if row.shape != (self.channels,):
            raise ValueError(f"expected {self.channels} channels, got {row.shape}")
        self._seq.append(row)
        if self.fired:
            return True
        length = len(self._seq)
        if length == 2:
            first_diff = self._seq[1] - self._seq[0]
            if np.max(np.abs(first_diff)) < ABS_TOL:
                self.defect = 0
                self.beta = np.ones(1)
                raise DegenerateSequence("sequence constant at first check")
        if length >= 2 and length % 2 == 0:
            self._check(length // 2)
        return self.fired

    def _check(self, m: int) -> None:
        seq = np.stack(self._seq)              # (2m, channels)
        diffs = seq[1:] - seq[:-1]             # (2m-1, channels)
        blocks = [
            np.stack([diffs[i:i + m, c] for i in range(m)])
            for c in range(self.channels)
        ]
        stacked = np.vstack(blocks)            # (channels*m, m)
        sigma = np.linalg.svd(stacked, compute_uv=False)
        if sigma[-1] > RANK_TOL * sigma[0]:
            return
        _, _, vt = np.linalg.svd(stacked)
        kernel = vt[-1]
        if abs(kernel[-1]) <= DENOM_TOL:
            raise NumericBreakdown("kernel vector has a vanishing last entry")
        if not self._kernel_is_stable(seq, kernel, m):
            return
        self.beta = kernel / kernel[-1]
        self.defect = m - 1

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


def fterc_final(traj_y, traj_x, beta) -> np.ndarray:
    """Exact consensus value from trajectory prefixes and kernel coefficients.

    ``mu = (sum_i beta_i y^i) / (sum_i beta_i x^i)`` — the shared coefficient
    sums cancel, so this is the limit of the ratio in finitely many terms.
    """
    beta = np.asarray(beta, dtype=float)
    traj_y = np.asarray(traj_y, dtype=float)
    traj_x = np.asarray(traj_x, dtype=float)
    if len(traj_y) < len(beta) or len(traj_x) < len(beta):
        raise ValueError("trajectory shorter than the coefficient vector")
    denominator = float(beta @ traj_x[:len(beta)])
    if abs(denominator) <= DENOM_TOL:
        raise NumericBreakdown("ratio denominator is numerically zero")
    return beta @ traj_y[:len(beta)] / denominator


@dataclass
class ConsensusResult:
    """Finite-time outcome at one node."""

    mu: np.ndarray
    defect: int
    beta: np.ndarray
    rounds_used: int
