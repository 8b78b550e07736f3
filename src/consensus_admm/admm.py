"""Consensus ADMM solvers driven by finite-time exact averaging.

Three solvers share one engine loop. Each ADMM step seeds a consensus phase
with ``x_i + lambda_i / rho`` and recovers the network average as the shared
iterate ``z``:

* ``run_dadmm_fterc`` — a fixed warm-up schedule: one long detection phase
  that identifies per-node kernel coefficients, one phase that also spreads
  the largest defect index by max-consensus, then minimal-length phases that
  apply the same coefficients.
* ``run_fdadmm_ftdt`` — the fully distributed variant: the first phase runs
  until every node's stopping counter fires, after which each node derives
  the network-wide phase length on its own. No global coordinator input.
* ``run_epsilon_baseline`` — inexact averaging with distributed
  certification windows; each node outputs its last certified snapshot.

Each solver is a phase schedule: the :class:`PhaseFlags` of its warm-up
steps, then those of its steady step. The flags fix what a phase carries,
how many exchanges it makes and when it stops; one phase object reads them
once, when it is built, and then runs itself, also in the standalone
:func:`fterc_run` and :func:`ftdt_run`. A run returns every node's values,
and the phase keeps what it found: the detected kernels, zero-padded into
one matrix once, and the largest defect index, by which the next phase,
copying both, sizes itself. A run builds a phase only when its schedule
entry changes, so every step after the warm-up reruns one steady phase, the
epsilon baseline's certification phase included, with that step's seeds.
The solvers exchange messages only through :class:`~.netsim.RoundEngine`,
so round logs, schedules, and determinism checks all observe real traffic.
Every entry point refuses a digraph that is not strongly connected, raising
:class:`~.errors.Disconnected` before any round.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import chain, repeat
from numbers import Integral, Real

import numpy as np

from .consensus import (ConsensusResult, HankelDetector, check_seeds,
                        fterc_final, pad_kernels, ratio_update)
from .errors import InsufficientData, NonIntegerResult, NumericBreakdown
from .exact import exact_consensus_run
from .graph import Digraph, check_strongly_connected
from .netsim import RoundEngine, phase_lengths
from .objectives import (_TOTALS_BLOCK, L1Regularizer, ObjectiveStacks,
                         l1_z_update)
from .oracle import Reference
from .termination import (Counters, counter_message, derive_max_defect,
                          freeze_counter, ftdt_step)

@dataclass
class AdmmConfig:
    """Knobs shared by all three solvers.

    ``n_prime`` is the network-size upper bound the warm-up phases are sized
    with (defaults to the true node count). ``stop_on_tolerance`` controls
    whether the residual-based stopping test may end the run before
    ``k_max``; disable it to study convergence over a fixed horizon.
    """

    rho: float = 1.0
    k_max: int = 500
    eps_abs: float = 1e-4
    eps_rel: float = 1e-2
    n_prime: int | None = None
    init: str = "random"
    seed: int = 0
    epsilon: float = 0.01
    stop_on_tolerance: bool = True

    def validate(self, n: int) -> int:
        """Check field ranges against a concrete network size; return n'.

        Each ``ValueError`` message starts with the offending field's name.
        """
        for name in ("rho", "eps_abs", "eps_rel", "epsilon"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, Real):
                raise ValueError(f"{name} must be a real number, "
                                 f"got {value!r}")
            if not math.isfinite(value):
                raise ValueError(f"{name} must be finite")
        if self.rho <= 0:
            raise ValueError("rho must be positive")
        n_prime = self.n_prime if self.n_prime is not None else n
        for name, value in (("k_max", self.k_max), ("n_prime", n_prime),
                            ("seed", self.seed)):
            if isinstance(value, bool) or not isinstance(value, Integral):
                raise ValueError(f"{name} must be an integer, got {value!r}")
        if self.k_max < 1:
            raise ValueError("k_max must be at least 1")
        if self.seed < 0:
            raise ValueError("seed must be nonnegative")
        for name in ("eps_abs", "eps_rel"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be nonnegative")
        if not isinstance(self.stop_on_tolerance, (bool, np.bool_)):
            raise ValueError(f"stop_on_tolerance must be a bool, "
                             f"got {self.stop_on_tolerance!r}")
        if self.init not in ("random", "zero"):
            raise ValueError(f"init must be 'random' or 'zero', "
                             f"got {self.init!r}")
        if self.epsilon <= 0:
            raise ValueError("epsilon must be positive")
        if n_prime < n:
            raise ValueError(f"n_prime {n_prime} is below the network size {n}")
        return n_prime


@dataclass
class StoppingReport:
    """Residuals and thresholds of one stopping-test evaluation."""

    stop: bool
    primal_res: float
    dual_res: float
    eps_pri: float
    eps_dual: float


def _norm(a: np.ndarray) -> float:
    """``np.linalg.norm(a)`` of a real array by numpy's own path for it."""
    a = a.ravel(order="K")
    return math.sqrt(a.dot(a))


def _step_test(primal, dz, x, z, lam, scale, rho, eps_abs, eps_rel):
    """One step's ``(primal, dual, eps_pri, eps_dual)`` from its norms
    ``||X - Z||``, ``||Z - Z_prev||``, ``||X||``, ``||Z||`` and ``||Lam||``,
    each a float, and ``scale = sqrt(N)``: the stopping test's formulas, in
    scalar expressions, so a numpy scalar ``rho``, ``eps_abs`` or
    ``eps_rel`` rounds the dual residual and the thresholds as it would in
    any plain expression. Neither threshold is rounded to a float yet.
    """
    return (primal, float(rho * dz), scale * eps_abs + eps_rel * max(x, z),
            scale * eps_abs + eps_rel * lam)


def stopping_criterion(x_stack, z_stack, z_prev_stack, lam_stack, rho: float,
                       eps_abs: float, eps_rel: float) -> StoppingReport:
    """Standard two-residual ADMM stopping test on stacked iterates.

    Primal residual ``||X - Z||_F`` against
    ``sqrt(N) eps_abs + eps_rel max(||X||, ||Z||)`` and dual residual
    ``rho ||Z - Z_prev||_F`` against ``sqrt(N) eps_abs + eps_rel ||Lam||``,
    where N is the total number of scalar variables.
    """
    x_stack = np.asarray(x_stack, dtype=float)
    z_stack = np.asarray(z_stack, dtype=float)
    z_prev_stack = np.asarray(z_prev_stack, dtype=float)
    lam_stack = np.asarray(lam_stack, dtype=float)
    primal, dual, eps_pri, eps_dual = _step_test(
        _norm(x_stack - z_stack), _norm(z_stack - z_prev_stack),
        _norm(x_stack), _norm(z_stack), _norm(lam_stack),
        np.sqrt(x_stack.size), rho, eps_abs, eps_rel)
    return StoppingReport(primal <= eps_pri and dual <= eps_dual,
                          primal, dual, float(eps_pri), float(eps_dual))


def _residual_columns(xs, zs, z_prevs, lams, rho, eps_abs, eps_rel):
    """The ``primal_res``, ``dual_res``, ``eps_pri`` and ``eps_dual`` columns
    of a run: :func:`stopping_criterion`'s values at every step, bitwise.

    ``xs``, ``zs``, ``z_prevs`` and ``lams`` are C-ordered ``(steps, n, p)``
    stacks, step ``k``'s iterates in row ``k``. Each step's squared norms
    are the row-wise ``np.vecdot`` of its flattened row, which is that row's
    ``dot``, as in ``_norm``; they are taken in blocks of steps whose
    temporaries hold at most about ``_TOTALS_BLOCK`` floats each, so a long
    run needs no ``(steps, n, p)`` difference. The formulas then run one
    step at a time (see ``_step_test``).
    """
    steps, size = len(xs), xs[0].size
    squares = np.empty((5, steps))
    block = max(1, _TOTALS_BLOCK // size)
    for first in range(0, steps, block):
        rows = slice(first, first + block)
        x, z, lam = xs[rows], zs[rows], lams[rows]
        for i, stack in enumerate((x - z, z - z_prevs[rows], x, z, lam)):
            flat = stack.reshape(len(stack), -1)
            squares[i, rows] = np.vecdot(flat, flat)
    scale = np.sqrt(size)
    tests = [_step_test(*norms, scale, rho, eps_abs, eps_rel)
             for norms in zip(*np.sqrt(squares).tolist())]
    return [np.array(column, dtype=float) for column in zip(*tests)]


# ---------------------------------------------------------------------------
# Consensus phases on the round engine
# ---------------------------------------------------------------------------

@dataclass
class PhaseFlags:
    """What a consensus phase carries besides the ratio pair."""

    detect: bool = False      # check the trajectory for kernels
    terminate: bool = False   # run distributed stopping counters
    piggyback: bool = False   # integer max-consensus rider
    certify: bool = False     # windowed spread certification


# Each solver as a phase schedule: one warm-up phase per step, then the
# steady phase for every later step.
_SCHEDULES = {
    "dadmm_fterc": ((PhaseFlags(detect=True), PhaseFlags(piggyback=True)),
                    PhaseFlags()),
    "fdadmm_ftdt": ((PhaseFlags(detect=True, terminate=True),), PhaseFlags()),
    "epsilon_baseline": ((), PhaseFlags(certify=True)),
}
ALGORITHMS = tuple(_SCHEDULES)


class _Phase:
    """One consensus phase held as arrays, row ``i`` belonging to node ``i``.

    The flags decide everything once, at construction: the steps every
    round runs, the columns every payload carries, how many exchanges the
    phase makes and how much trajectory it keeps. :meth:`run` restarts the
    phase at the engine's tick from new seeds, with a fresh detector,
    counters and certification state, and runs it to one of three stops:

    * ``terminate``: until every node's stopping counter fires, refused
      with :class:`NumericBreakdown` past the guard of ``4(n' + 2)`` rounds;
    * ``certify``: windows of ``n'`` exchanges until every node is certified,
      refused at the float floor (see ``_certify``) or past 10,000 windows;
    * otherwise a fixed count: ``2n'`` exchanges with ``detect``, ``n'``
      with ``piggyback``, else ``max_defect + 1``.

    It keeps what it found, ``defect_sizes`` and padded ``kernels`` from
    detection and ``max_defect``, agreed by every node, from max-consensus
    or the counters, and returns every node's values: ``fterc_final`` of
    ``traj``, the certified ``snap``, or ``None`` on the exact lane.
    ``after=`` copies the findings of the phase before, keeping no
    reference to it, so that it is freed.

    ``state`` is the ratio pair ``[x, y]``, denominator first, so a row is
    also the node's detector observation: the detector needs one kernel
    across every channel. ``traj`` holds one ``(n, p + 1)`` row per round
    up to ``last``, the last row anything reads, and round ``k`` reduces
    the ratio pair straight into row ``min(k, last)``, which is then the
    state: ``last`` is every round of the steady and max-consensus phases,
    row 0 under certification and on the exact lane, and, for a detecting
    phase, its ``2n'`` horizon until the detector closes, then the round it
    closed, past which ``fterc_final`` reads nothing. A phase of known
    ``last`` keeps ``last + 1`` rows; a detecting phase starts with two and
    doubles them, copying the rows written, whenever a round fills the last.

    A payload is the node's state divided by 1 + its out-degree, so
    receivers never learn sender degrees, followed by the rider columns the
    flags ask for: the counter pair ``(theta, c)``, the max-consensus value
    ``v``, and the certification bounds ``hi`` and ``lo``. The phase keeps
    one ``(n, columns)`` payload buffer, and each column has one writer:
    every round step writes its own columns of the next wave, through a
    view of them, once it has reduced its block, and :meth:`run` writes
    round 0's. ``mixes`` says whether the phase carries the ratio pair; only
    the exact lane does not. ``pad`` holds the identity of each column's
    reduction, which the engine copies into every block row past a node's
    in-degree: ``-0.0`` under the ratio pair, ``-inf`` under the counters,
    ``v`` and ``hi``, ``+inf`` under ``lo``. So every reduction over a block
    is one plain pass, over views of the engine's block buffer taken once
    for each buffer the engine allocates.

    One detector reads ``traj`` for every node while it is open and raises
    :class:`NumericBreakdown` when a node is still open at its ``2n'``
    horizon, also when the phase's counters could run on. One
    :class:`~.termination.Counters` record holds every node's stopping
    counter, which freezes the round the node's detector fires. A
    terminated node keeps mixing its ratio pair and relaying counters, so
    its neighbours' detectors keep observing the ratio-consensus sequence.
    A phase that stops on its counters but does not detect (the exact lane,
    whose values come from rational arithmetic) carries the counter pair
    alone, its counters frozen from the start at ``defect_sizes``: a
    counter reads ``min(k, 2(d + 1))``, which is ``k`` through round
    ``2d + 1``, when a detector would have fired, so every message and
    stopping round is the one a detector gives.
    """

    def __init__(self, engine: RoundEngine, flags: PhaseFlags, width: int, *,
                 n_prime: int, after: _Phase | None = None, defect_sizes=None,
                 epsilon: float | None = None):
        n, self.engine, self.flags = engine.graph.n, engine, flags
        out_degrees = np.array([len(o) for o in engine.graph.out_neighbors],
                               dtype=float)
        # a whole (n, p + 1) block, so a round's multiply broadcasts nothing
        self.share = np.repeat(1.0 / (1.0 + out_degrees[:, None]), width + 1,
                               axis=1)
        self.epsilon = epsilon
        self.defect_sizes, self.kernels, self.max_defect = (
            (after.defect_sizes, after.kernels, after.max_defect)
            if after is not None else (defect_sizes, None, None))
        self.horizon = 2 * n_prime   # a detector still open here refuses
        # exchanges per run, or per certification window
        self.rounds = (4 * (n_prime + 2) if flags.terminate   # the guard
                       else n_prime if flags.certify
                       else self.horizon if flags.detect
                       else n_prime if flags.piggyback
                       else self.max_defect + 1)
        # the last trajectory row anything reads; rounds past it rewrite it
        self.last = (self.horizon if flags.detect
                     else 0 if flags.terminate or flags.certify
                     else self.rounds)
        # a detecting phase grows its rows as rounds arrive (see _detect)
        self.traj = np.empty((2 if flags.detect else self.last + 1, n,
                              width + 1))
        self.detector = self.counters = None
        # unbound, so a phase holds no reference cycle and is freed, with
        # the engine it keeps, as soon as its last user drops it
        steps, pads = [], []
        reads, writes = {}, {}   # view name -> its block or payload columns
        cls = type(self)

        def columns(count: int, pad: float, read: str, write: str) -> None:
            pads.extend([pad] * count)
            reads[read] = writes[write] = slice(len(pads) - count, len(pads))

        self.mixes = flags.detect or not flags.terminate
        if self.mixes:
            columns(width + 1, -0.0, "ratio_in", "ratio_out")
            steps.append(cls._mix)
        if flags.detect:
            steps.append(cls._detect)
        if flags.terminate:
            columns(2, -np.inf, "counters_in", "counters_out")
            steps.append(cls._count)
        if flags.piggyback:
            columns(1, -np.inf, "v_in", "v")
            steps.append(cls._max_consensus)
        if flags.certify:
            columns(width, -np.inf, "hi_in", "hi")
            columns(width, np.inf, "lo_in", "lo")
            steps.append(cls._certify)
        self.steps, self.reads, self.block = tuple(steps), reads, None
        self.pad = np.array(pads)
        self.payload = np.empty((n, self.pad.size))
        for name, cols in writes.items():
            setattr(self, name, self.payload[:, cols])

    def run(self, label: str, seeds: np.ndarray) -> np.ndarray | None:
        """Restart the phase at the engine's tick from ``seeds``; run it out."""
        engine, flags, n = self.engine, self.flags, len(seeds)
        self.t0 = engine.tick
        self.state = self.traj[0]
        self.state[:, 0], self.state[:, 1:] = 1.0, seeds
        if self.mixes:
            np.multiply(self.state, self.share, out=self.ratio_out)
        if flags.detect:
            self.detector, self.last = HankelDetector(n), self.horizon
        if flags.terminate:
            self.counters = Counters(n)
            if not flags.detect:
                freeze_counter(self.counters, range(n), self.defect_sizes)
            self.counters_out[...] = counter_message(self.counters, 1)
        if flags.piggyback:
            self.v[:, 0] = np.asarray(self.defect_sizes, dtype=float) + 1.0
        if flags.certify:
            self.certified = np.zeros(n, dtype=bool)
            self.snap = self.state[:, 1:] / self.state[:, :1]
            self.hi[...] = self.lo[...] = self.snap
            self.widest = np.inf
        engine.prime(self.payload, label, pad=self.pad)
        if flags.terminate:
            while not self.counters.t_term.all():
                if engine.tick - self.t0 >= self.rounds:
                    raise NumericBreakdown(f"stopping counters still open "
                                           f"after {self.rounds} rounds")
                engine.run_round(self.update)
        elif flags.certify:
            for _ in range(10_000):
                engine.run_phase(self.update, self.rounds)
                if self.certified.all():
                    break
            else:
                raise NumericBreakdown(
                    "certification made no progress in 10000 windows")
        else:
            engine.run_phase(self.update, self.rounds)
        if flags.detect:
            self.defect_sizes = self.detector.defect
            self.kernels = pad_kernels(self.detector.beta)
        if flags.piggyback:
            self.max_defect = _agree_int(self.v[:, 0], "the phase length") - 1
        if flags.terminate:   # each node derives it from its stopping round
            self.max_defect = _agree_int(
                map(derive_max_defect, self.counters.t_term.tolist(),
                    self.defect_sizes), "the largest defect index")
        if self.kernels is None:   # certification, or the exact lane
            return self.snap if flags.certify else None
        return fterc_final(self.traj, self.kernels)

    def update(self, block: np.ndarray, tick: int) -> np.ndarray:
        if block is not self.block:   # a new engine buffer: view it once
            self.block = block
            for name, cols in self.reads.items():
                setattr(self, name, block[:, :, cols])
        k = tick - self.t0   # phase-local round index, from 1
        for step in self.steps:
            step(self, k)
        return self.payload

    # -- round steps, in the order a round runs them --------------------

    def _mix(self, k):
        last = self.last
        self.state = ratio_update(self.ratio_in,
                                  out=self.traj[k if k < last else last])
        np.multiply(self.state, self.share, out=self.ratio_out)

    def _detect(self, k):
        if k > self.last:   # the detector has closed
            return
        detector = self.detector
        fired = detector.feed(self.traj[:k + 1])
        if fired:
            if self.counters is not None:
                freeze_counter(self.counters, fired,
                               [detector.defect[i] for i in fired])
            if not detector.open.any():
                self.last = k   # fterc_final reads no row past it
                return
        if k == self.horizon:
            # a node fires by round 2n - 1 at the latest: a later fire is noise
            raise NumericBreakdown(f"node {np.argmax(detector.open)} found "
                                   f"no defect within {k} rounds")
        if k + 1 == len(self.traj):   # double the rows, copying those written
            traj = np.empty((min(2 * k + 2, self.horizon + 1),)
                            + self.traj.shape[1:])
            traj[:k + 1] = self.traj
            self.traj = traj

    def _count(self, k):
        # ftdt_step keeps only the largest value of a block, in which the
        # node's own last message changes nothing
        heard = np.maximum.reduce(self.counters_in, axis=(1, 2))
        ftdt_step(self.counters, k, heard.astype(np.int64))
        self.counters_out[...] = counter_message(self.counters, k + 1)

    def _max_consensus(self, k):
        np.maximum.reduce(self.v_in, axis=1, out=self.v)

    def _certify(self, k):
        np.maximum.reduce(self.hi_in, axis=1, out=self.hi)
        np.minimum.reduce(self.lo_in, axis=1, out=self.lo)
        if k % self.rounds == 0:
            open_ = ~self.certified
            # a snapshot whose spread is within epsilon a window later
            # is globally certified; the others are taken afresh
            spread = np.maximum.reduce(self.hi - self.lo, axis=1)
            done = open_ & (spread <= self.epsilon)
            # n' >= diameter rounds of a positive mix shrink the spread in
            # exact arithmetic: a window that does not is at the float floor
            if not (done.any() or spread.max() < self.widest):
                raise NumericBreakdown(
                    f"certified spread {spread.max():.3g} stopped shrinking "
                    f"above epsilon {self.epsilon:g}")
            self.widest = spread.max()
            self.certified |= done
            fresh = open_ & ~done
            state = self.state
            self.snap[fresh] = state[fresh, 1:] / state[fresh, :1]
            self.hi[fresh] = self.lo[fresh] = self.snap[fresh]


def _agree_int(values, what: str) -> int:
    distinct = {int(v) for v in values}
    if len(distinct) != 1:
        raise NonIntegerResult(f"nodes disagree on {what}: {sorted(distinct)}")
    return distinct.pop()


def fterc_run(graph: Digraph, y0) -> list[ConsensusResult]:
    """Run finite-time exact ratio consensus to completion at every node.

    One detection phase of ``2n`` exchanges on the round engine; a node with
    defect index d fires at round ``2d + 1``. A node still open at the
    horizon, or a numerically zero denominator sum, raises
    :class:`NumericBreakdown`.
    """
    check_strongly_connected(graph)
    seeds = check_seeds(y0, graph.n)
    mat = seeds.reshape(graph.n, -1)
    phase = _Phase(RoundEngine(graph, audit=False), PhaseFlags(detect=True),
                   mat.shape[1], n_prime=graph.n)
    values = phase.run("detect", mat)
    return [ConsensusResult(mu[0] if seeds.ndim == 1 else mu,
                            d, beta, 2 * d + 1) for d, beta, mu
            in zip(phase.defect_sizes, phase.detector.beta, values)]


@dataclass
class TerminationRunResult:
    """Output of one self-terminating averaging phase."""

    values: np.ndarray
    betas: list
    defect_indices: list
    t_terms: list
    detection_rounds: list
    max_defect: int
    rounds: int


def ftdt_run(graph: Digraph, seeds, *,
             exact: bool = False) -> TerminationRunResult:
    """One averaging phase that stops itself, with zero outside input.

    Every node runs defect detection plus the distributed stopping counters;
    the phase ends the round the last node's counter fires. Each node also
    derives the network-wide largest defect index from its own stopping
    round, and all derivations must agree.

    With ``exact=True`` detection and evaluation run in rational arithmetic
    (see :mod:`.exact`), and the phase runs the stopping counters alone,
    frozen from the start at each node's exact defect; use this outside the
    float64 detection envelope. Disagreeing nodes raise
    :class:`NonIntegerResult` before the float lane evaluates any value.
    """
    check_strongly_connected(graph)
    seeds = check_seeds(seeds, graph.n)
    mat = seeds.reshape(graph.n, -1)
    defect = None
    if exact:
        detections = exact_consensus_run(graph, seeds)
        defect = [res.defect for res in detections]
    engine = RoundEngine(graph, audit=False)
    phase = _Phase(engine, PhaseFlags(detect=not exact, terminate=True),
                   mat.shape[1], n_prime=graph.n, defect_sizes=defect)
    values = phase.run("terminate", mat)
    if exact:
        betas = [res.beta for res in detections]
        values = np.array([res.mu for res in detections])
    else:
        betas = phase.detector.beta
        values = values[:, 0] if seeds.ndim == 1 else values
    return TerminationRunResult(
        values=values, betas=betas, defect_indices=phase.defect_sizes,
        t_terms=phase.counters.t_term.tolist(),
        detection_rounds=[2 * d + 1 for d in phase.defect_sizes],
        max_defect=phase.max_defect, rounds=engine.tick)


# ---------------------------------------------------------------------------
# Full solver runs
# ---------------------------------------------------------------------------

@dataclass
class RunRecord:
    """Everything one solver run produced, densely recorded per step."""

    algorithm: str
    config: AdmmConfig
    steps: int
    k: np.ndarray
    objective: np.ndarray
    primal_res: np.ndarray
    dual_res: np.ndarray
    eps_pri: np.ndarray
    eps_dual: np.ndarray
    consensus_rounds: np.ndarray
    x_hist: np.ndarray
    z_hist: np.ndarray
    lam_hist: np.ndarray
    x0: np.ndarray
    lam0: np.ndarray
    z0: np.ndarray
    defect_indices: list
    t_max: int | None
    t1: int | None
    max_defect: int | None
    schedule: list
    stopped_early: bool
    log: list
    objectives: list
    regularizer: L1Regularizer | None
    bound_lhs: np.ndarray | None = field(default=None, init=False)
    bound_rhs: np.ndarray | None = field(default=None, init=False)

    @property
    def z_final(self) -> np.ndarray:
        """Node-mean of the last z iterate (exact solvers: all rows equal)."""
        return self.z_hist[-1].mean(axis=0)

    def final_objective(self) -> float:
        """Composite objective evaluated at the final consensus point."""
        return composite_objective(self.objectives, self.z_final,
                                   self.regularizer)


def composite_objective(objectives, point, regularizer=None) -> float:
    """Sum of local objectives plus the l1 penalty at one shared point."""
    point = np.asarray(point, dtype=float)
    total = float(sum(obj.evaluate(point) for obj in objectives))
    if regularizer is not None:
        total += regularizer.penalty(point)
    return total


def _initialize(n: int, p: int, config: AdmmConfig):
    if config.init == "zero":
        return np.zeros((n, p)), np.zeros((n, p)), np.zeros(p)
    rng = np.random.default_rng(config.seed)
    x0 = rng.uniform(-1.0, 1.0, size=(n, p))
    lam0 = rng.uniform(-1.0, 1.0, size=(n, p))
    z0 = rng.uniform(-1.0, 1.0, size=p)
    return x0, lam0, z0


def _run(algorithm: str, objectives, graph: Digraph, config: AdmmConfig,
         regularizer) -> RunRecord:
    warmup, steady = _SCHEDULES[algorithm]
    n = graph.n
    if len(objectives) != n:
        raise ValueError("one local objective per node required")
    p = objectives[0].dim
    if any(obj.dim != p for obj in objectives):
        raise ValueError("all local objectives must share one dimension")
    if p < 1:
        raise ValueError(f"local objectives must have dimension at least 1, "
                         f"got {p}")
    n_prime = config.validate(n)
    check_strongly_connected(graph)
    rho = config.rho

    if regularizer is not None:
        mask = regularizer.penalized_mask(p)
        kappa = regularizer.kappa(n, rho)

    x0, lam0, z0 = _initialize(n, p, config)
    lam, z_stack = lam0, np.tile(z0, (n, 1))
    stacks = ObjectiveStacks(objectives, rho)
    engine = RoundEngine(graph)
    # z_hist opens with the initial z, the first step's z_prev
    x_hist, z_hist, lam_hist = [], [z_stack], []
    phase = None   # built when the schedule entry changes, then rerun
    stopped = False

    for k, flags in zip(range(1, config.k_max + 1),
                        chain(warmup, repeat(steady))):
        x_stack = stacks.x_update(z_stack, lam)
        seeds = x_stack + lam / rho
        if phase is None or phase.flags is not flags:
            phase = _Phase(engine, flags, p, n_prime=n_prime, after=phase,
                           epsilon=config.epsilon)
        z_new = phase.run(f"step-{k}", seeds)
        if regularizer is not None:
            z_new = l1_z_update(z_new, kappa, mask)
        lam = lam + rho * (x_stack - z_new)
        x_hist.append(x_stack)
        z_hist.append(z_new)
        lam_hist.append(lam)
        if config.stop_on_tolerance and stopping_criterion(
                x_stack, z_new, z_stack, lam, rho, config.eps_abs,
                config.eps_rel).stop:
            stopped = True
            break
        z_stack = z_new

    steps, max_defect = len(x_hist), phase.max_defect
    schedule = phase_lengths(engine.log)
    rounds = [count for _, count in schedule]
    # nothing in the loop reads the objective or the residual columns, so
    # each is one pass over the run; the residuals are stopping_criterion's
    # at every step, bitwise
    x_hist, zs, lam_hist = map(np.stack, (x_hist, z_hist, lam_hist))
    z_hist = zs[1:]
    primal, dual, eps_pri, eps_dual = _residual_columns(
        x_hist, z_hist, zs[:-1], lam_hist, rho, config.eps_abs,
        config.eps_rel)
    objective = stacks.totals(x_hist)
    if regularizer is not None:
        objective += regularizer.penalty(z_hist.mean(axis=1))
    return RunRecord(
        algorithm=algorithm, config=config, steps=steps,
        k=np.arange(1, steps + 1), objective=objective, primal_res=primal,
        dual_res=dual, eps_pri=eps_pri, eps_dual=eps_dual,
        consensus_rounds=np.array(rounds, dtype=int),
        x_hist=x_hist, z_hist=z_hist,
        lam_hist=lam_hist, x0=x0, lam0=lam0, z0=z0,
        defect_indices=list(phase.defect_sizes or [None] * n),
        t_max=None if max_defect is None else max_defect + 1,
        # t1: the length of the step whose phase stopped itself
        t1=next((r for f, r in zip(warmup, rounds) if f.terminate), None),
        max_defect=max_defect, schedule=schedule,
        stopped_early=stopped,
        log=engine.log, objectives=list(objectives),
        regularizer=regularizer)


def run_dadmm_fterc(objectives, graph: Digraph,
                    config: AdmmConfig | None = None, *,
                    regularizer=None) -> RunRecord:
    """Consensus ADMM with finite-time exact averaging on a warm-up schedule.

    Step 1 runs a long detection phase, step 2 spreads the largest defect
    index with a piggybacked max-consensus, and every later step applies the
    detected coefficients for the minimal number of exchanges.
    """
    return _run("dadmm_fterc", objectives, graph, config or AdmmConfig(),
                regularizer)


def run_fdadmm_ftdt(objectives, graph: Digraph,
                    config: AdmmConfig | None = None, *,
                    regularizer=None) -> RunRecord:
    """Fully distributed variant: nodes detect, stop, and re-size on their own.

    The first phase carries distributed stopping counters; once every node
    has fired, each derives the same minimal phase length for all later
    steps from its own stopping round — with zero coordinator input.
    """
    return _run("fdadmm_ftdt", objectives, graph, config or AdmmConfig(),
                regularizer)


def run_epsilon_baseline(objectives, graph: Digraph,
                         config: AdmmConfig | None = None, *,
                         regularizer=None) -> RunRecord:
    """Inexact-averaging baseline with windowed spread certification.

    Nodes snapshot their running ratio every ``n'`` exchanges and spend the
    next window max/min-certifying the snapshot's global spread; the first
    window whose spread is within ``epsilon`` ends the phase everywhere.
    """
    return _run("epsilon_baseline", objectives, graph, config or AdmmConfig(),
                regularizer)


# ---------------------------------------------------------------------------
# Run analysis
# ---------------------------------------------------------------------------

def ergodic_averages(record: RunRecord) -> tuple[np.ndarray, np.ndarray]:
    """Running means of the per-node iterates and of the shared iterate."""
    k = np.arange(1, record.steps + 1, dtype=float)
    x_bar = np.cumsum(record.x_hist, axis=0) / k[:, None, None]
    z_node_mean = record.z_hist.mean(axis=1)
    z_bar = np.cumsum(z_node_mean, axis=0) / k[:, None]
    return x_bar, z_bar


@dataclass
class BoundReport:
    """Per-step duality-gap bound check on the ergodic iterates."""

    lhs: np.ndarray
    rhs: np.ndarray
    lower_margin: float
    upper_margin: float

    def holds(self, slack: float) -> bool:
        return self.lower_margin >= -slack and self.upper_margin >= -slack


def check_o1k_bound(record: RunRecord, reference: Reference) -> BoundReport:
    """Check the O(1/k) ergodic gap bound and attach both sides to the record.

    The Lagrangian gap at the running means must be nonnegative and below a
    constant (fixed by the initial dual/shared iterates) divided by k. The
    bound is the smooth one: a record with a regularizer, or a reference
    without multipliers, raises ``ValueError``.
    """
    if record.regularizer is not None:
        raise ValueError("check_o1k_bound covers smooth runs only, "
                         "got a record with a regularizer")
    if reference.lambda_star is None:
        raise ValueError("check_o1k_bound needs the reference's multipliers, "
                         "got lambda_star None")
    rho = record.config.rho
    lam_star = np.asarray(reference.lambda_star, dtype=float)
    x_star = np.asarray(reference.x_star, dtype=float)
    x_bar, z_bar = ergodic_averages(record)
    steps = record.steps
    n = x_bar.shape[1]

    stacks = ObjectiveStacks(record.objectives, rho)
    f_vals = stacks.totals(x_bar)
    coupling = np.einsum("ij,tij->t", lam_star, x_bar - z_bar[:, None, :])
    lhs = f_vals + coupling - reference.f_star

    const = (np.linalg.norm(lam_star - record.lam0) ** 2 / (2.0 * rho)
             + 0.5 * rho * n * np.linalg.norm(x_star - record.z0) ** 2)
    rhs = const / np.arange(1, steps + 1, dtype=float)

    record.bound_lhs = lhs
    record.bound_rhs = rhs
    return BoundReport(lhs, rhs, float(np.min(lhs)), float(np.min(rhs - lhs)))


@dataclass
class ProbeReport:
    """Least-squares slope of log-error decay over the usable tail."""

    slope: float
    intercept: float
    k: np.ndarray
    log10_errors: np.ndarray


_PROBE_FLOOR = 1e-12    # errors at or below this are numerical noise
_PROBE_MIN_POINTS = 10


def rlinear_probe(errors) -> ProbeReport:
    """Fit the decay rate of a 1-D error sequence over the tail half.

    ``errors[k - 1]`` is the error at step k, such as ``||X^k - X*||``.
    Points at or below 1e-12 are discarded as numerical noise; fewer than 10
    usable points raises :class:`InsufficientData`. An error that is not
    finite, or is negative, raises ``ValueError`` naming the first such
    index. A geometric sequence q^k yields slope ``log10 q`` exactly.
    """
    errors = np.asarray(errors, dtype=float).ravel()
    bad = np.flatnonzero(~(np.isfinite(errors) & (errors >= 0.0)))
    if bad.size:
        first = int(bad[0])
        raise ValueError(f"errors must be finite and nonnegative, got "
                         f"{errors[first]} at index {first}")
    k = np.arange(1, errors.size + 1, dtype=float)
    usable = errors > _PROBE_FLOOR
    if int(usable.sum()) < _PROBE_MIN_POINTS:
        raise InsufficientData(
            f"only {int(usable.sum())} usable points above {_PROBE_FLOOR}")
    k_use = k[usable]
    log_err = np.log10(errors[usable])
    tail = slice(k_use.size // 2, None)
    slope, intercept = np.polyfit(k_use[tail], log_err[tail], 1)
    return ProbeReport(float(slope), float(intercept), k_use[tail],
                       log_err[tail])
