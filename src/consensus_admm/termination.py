"""Distributed termination for the finite-time consensus phase.

Each node runs a round counter that freezes at twice its own defect size,
relays the running maximum of all counters it has heard, and terminates once
that maximum has held steady for as many rounds as its own frozen cap. No
node needs the network size: the counters themselves carry enough information
to bound how long news can still be in flight.

With caps ``c°_j = 2(d_j+1)`` the maximum stabilizes at ``2(d_max+1)`` and a
node with defect index d_i terminates at round
``2(d_max+1) + 2(d_i+1) - 1`` (plus a propagation correction when the nearest
argmax node is farther than one hop). The node that attains the overall
maximum terminates at ``t1 = 4(d_max+1) - 1``, which is also the length of
the first solver step that hosts this protocol.

Every node's counter lives in one :class:`Counters` record of integer
arrays, and each function below steps the whole network at once, with no
mask: an unset cap is stored as :data:`UNSET_CAP`.
"""

from __future__ import annotations

import numpy as np

from .errors import AlreadyFrozen, NonIntegerResult

UNSET_CAP = np.iinfo(np.int64).max   # min(k, cap) is k; r never reaches it


class Counters:
    """Every node's counter machinery, entry ``i`` belonging to node ``i``.

    ``theta`` is the relayed maximum, ``r`` the number of consecutive rounds
    theta has held its current value (inclusive of the round it changed),
    ``cap`` the frozen target ``2(d+1)`` and ``t_term`` the round the node
    terminated. ``cap`` is :data:`UNSET_CAP`, the int64 maximum, until set,
    so a counter is ``min(k, cap)`` either way; ``t_term`` is 0 until set:
    a node has terminated exactly when ``t_term > 0``.
    """

    def __init__(self, n: int):
        self.theta, self.r, self.t_term = np.zeros((3, n), dtype=np.int64)
        self.cap = np.full(n, UNSET_CAP)


def freeze_counter(counters: Counters, nodes, defects) -> None:
    """Set each node's cap to 2*(d+1) when its defect d fires.

    Refuses a node frozen or listed twice (:class:`AlreadyFrozen`), and a
    node outside ``0..n-1`` or not given one nonnegative defect (ValueError).
    """
    nodes = np.asarray(nodes, dtype=np.int64)
    defects = np.asarray(defects, dtype=np.int64)
    n = counters.cap.size
    if (nodes.shape != defects.shape or ((nodes < 0) | (nodes >= n)).any()
            or (defects < 0).any()):
        raise ValueError(f"nodes {nodes.tolist()} must lie in 0..{n - 1}, "
                         f"each with a nonnegative defect: {defects.tolist()}")
    seen = np.bincount(nodes.ravel(), minlength=n) + (counters.cap < UNSET_CAP)
    if (seen > 1).any():
        raise AlreadyFrozen(f"node {np.argmax(seen > 1)} is already frozen "
                            "or listed twice")
    counters.cap[nodes] = 2 * (defects + 1)


def counter_message(counters: Counters, next_round: int) -> np.ndarray:
    """``(n, 2)`` (theta, counter) payloads for the messages after a round.

    The counter is forward-dated to the round the message arrives, so
    distance-one neighbours always see the current value without lag.
    """
    message = np.empty((counters.theta.size, 2), dtype=np.int64)
    message[:, 0] = counters.theta
    np.minimum(next_round, counters.cap, out=message[:, 1])
    return message


def ftdt_step(counters: Counters, k: int, heard) -> None:
    """Advance every node through round ``k``.

    ``heard[i]`` is the largest theta or counter value node ``i`` received,
    already forward-dated to ``k`` (0 for an empty inbox), as an integer: a
    float ``heard`` is refused with a ``TypeError``. The node's own counter
    ``min(k, cap)`` and theta join the maximum directly, so ``heard`` may
    also cover the node's own last message, ``(theta, min(k, cap))``,
    without changing ``theta``, ``r`` or ``t_term``.
    """
    theta = np.minimum(k, counters.cap)
    np.maximum(theta, heard, out=theta)
    np.maximum(theta, counters.theta, out=theta)
    counters.r += 1
    counters.r[theta != counters.theta] = 1
    counters.theta = theta
    stops = counters.r >= counters.cap
    stops &= counters.t_term == 0
    counters.t_term[stops] = k


def derive_max_defect(t_term: int, defect_index: int) -> int:
    """Recover the network-wide maximum defect index from a termination round.

    Inverts ``t_term = 2(d_max+1) + 2(d_i+1) - 1``. Raises
    :class:`NonIntegerResult` when the arithmetic does not land on an integer
    (which flags a termination round shifted by asymmetric propagation).
    """
    numerator = t_term - 2 * defect_index - 1
    if numerator <= 0 or numerator % 2 != 0:
        raise NonIntegerResult(
            f"stopping round {t_term} with defect {defect_index} gives no "
            f"integer network-wide maximum")
    return numerator // 2 - 1
