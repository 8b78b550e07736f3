"""Consensus ADMM solvers driven by finite-time exact averaging.

Three solvers share one engine loop. Each ADMM step seeds a consensus phase
with ``x_i + lambda_i / rho`` and recovers the network average as the shared
iterate ``z``:

* ``run_dadmm_fterc`` — a fixed warm-up schedule: one long detection phase
  that identifies per-node kernel coefficients, one phase that also spreads
  the largest defect index by max-consensus, then minimal-length phases that
  reuse the coefficients.
* ``run_fdadmm_ftdt`` — the fully distributed variant: the first phase runs
  until every node's stopping counter fires, after which each node derives
  the network-wide phase length on its own. No global coordinator input.
* ``run_epsilon_baseline`` — inexact averaging with distributed
  certification windows; each node outputs its last certified snapshot.

Each solver is a phase schedule: the :class:`PhaseFlags` of its warm-up
steps, then those of its steady step. The flags fix both what a phase
carries and when it stops, so one runner executes every phase, including
the standalone :func:`fterc_run` and :func:`ftdt_run`. A phase holds every
node's ratio pair, trajectory and rider values as arrays and runs each
round as one array step; one detector checks every open node's Hankel
matrices at once from that trajectory, and one record of integer arrays
steps every node's stopping counter. One ``fterc_final`` call evaluates
every node's limit from its kernel, the kernels zero-padded into one matrix
once, where they are detected. Every step after the warm-up runs the same
fixed-length steady phase, so a run builds it once and restarts it with
each step's seeds: its trajectory, payload buffer and round step are
reused, and each round reduces straight into its trajectory row.
The solvers exchange messages only through :class:`~.netsim.RoundEngine`,
so round logs, schedules, and determinism checks all observe real traffic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from numbers import Integral, Real

import numpy as np

from .consensus import (ConsensusResult, HankelDetector, check_seeds,
                        fterc_final, pad_kernels, ratio_update)
from .errors import InsufficientData, NonIntegerResult, NumericBreakdown
from .exact import exact_consensus_run
from .graph import Digraph
from .netsim import RoundEngine, phase_lengths
from .objectives import L1Regularizer, ObjectiveStacks, l1_z_update
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
    scale = np.sqrt(x_stack.size)
    primal = _norm(x_stack - z_stack)
    dual = float(rho * _norm(z_stack - z_prev_stack))
    eps_pri = scale * eps_abs + eps_rel * max(_norm(x_stack), _norm(z_stack))
    eps_dual = scale * eps_abs + eps_rel * _norm(lam_stack)
    return StoppingReport(primal <= eps_pri and dual <= eps_dual,
                          primal, dual, float(eps_pri), float(eps_dual))


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

    ``state`` is the ratio pair ``[x, y]``, denominator first, so a row is
    also the node's detector observation: the detector needs one kernel
    across every channel. ``traj`` is one ``(rounds + 1, n, p + 1)`` array,
    sized by what reads it; round ``k`` writes the state to ``traj[k]``, and
    a phase of fixed length that outruns it raises ``IndexError`` rather
    than drop rows. With ``rounds=None`` a phase keeps only round 0.

    The flags choose once, at construction, the steps every round runs and
    the columns every payload carries; a phase without a detector, counters
    or certification (the steady and max-consensus phases) only mixes the
    ratio pair, reducing each round straight into its ``traj`` row. Such a
    phase of fixed length can be restarted with new seeds (:meth:`restart`)
    and rewrites every row of ``traj`` in its rounds. A payload is the
    node's state divided by 1 + its out-degree, so receivers never learn
    sender degrees, followed by the rider columns the flags ask for: the
    counter pair ``(theta, c)``, the max-consensus value ``v``, and the
    certification bounds ``hi`` and ``lo``; each send rewrites its own
    columns of one ``(n, columns)`` payload buffer the phase keeps. ``pad``
    holds the identity of each column's reduction, which the engine copies
    into every block row past a node's in-degree: ``-0.0`` under the ratio
    pair, ``-inf`` under the counters, ``v`` and ``hi``, ``+inf`` under
    ``lo``. So every reduction over a block is one plain pass. One
    detector reads ``traj`` for every node; a detecting phase writes rounds
    only while it is open and raises :class:`NumericBreakdown` when a node
    is still open at the end of ``traj``, its ``2n'`` horizon. One
    :class:`~.termination.Counters` record holds every node's stopping
    counter, which freezes the round the node's detector fires. A terminated
    node keeps mixing its ratio pair and relaying counters, so its
    neighbours' detectors keep observing the ratio-consensus sequence. A
    phase that stops on its counters but does not detect (the exact lane,
    whose values come from rational arithmetic) carries the counter pair
    alone, and node ``i``'s counter freezes at round
    ``2 * defect_sizes[i] + 1``, when a detector would have fired.
    """

    def __init__(self, engine: RoundEngine, seeds: np.ndarray,
                 flags: PhaseFlags, *, rounds, defect_sizes, window,
                 spread_eps):
        n, p = seeds.shape
        self.share = engine.share
        self.window, self.spread_eps = window, spread_eps
        self.traj = np.empty((1 if rounds is None else rounds + 1, n, p + 1))
        self.restart(engine, seeds)
        self.detector = self.counters = self.vmax = self.snap = None
        steps, sends, pads = [], [], []   # sends fill the payload columns

        def columns(count: int, pad: float) -> slice:
            pads.extend([pad] * count)
            return slice(len(pads) - count, len(pads))

        carries_ratio = flags.detect or not flags.terminate
        if carries_ratio:
            self.ratio = columns(p + 1, -0.0)
            sends.append(self._send_ratio)
        if flags.detect:
            self.detector = HankelDetector(n)
            steps += [self._mix, self._detect]
        elif flags.certify:
            steps.append(self._mix)
        elif not flags.terminate:
            steps.append(self._mix_record)
        if flags.terminate:
            self.counters = Counters(n)
            self.counter_cols = columns(2, -np.inf)
            if not flags.detect:
                self.fire_round = 2 * np.asarray(defect_sizes) + 1
                steps.append(self._fire_on_schedule)
            steps.append(self._count)
            sends.append(self._send_counters)
        if flags.piggyback:
            self.vmax = np.asarray(defect_sizes, dtype=float) + 1.0
            self.v_col = columns(1, -np.inf)
            steps.append(self._max_consensus)
            sends.append(self._send_vmax)
        if flags.certify:
            self.certified = np.zeros(n, dtype=bool)
            self.snap = self.state[:, 1:] / self.state[:, :1]
            self.hi, self.lo = self.snap.copy(), self.snap.copy()
            self.hi_cols = columns(p, -np.inf)
            self.lo_cols = columns(p, np.inf)
            steps.append(self._certify)
            sends.append(self._send_bounds)
        self.steps, self.sends = tuple(steps), tuple(sends)
        self.pad = np.array(pads)
        self.payload = np.empty((n, self.pad.size))
        if carries_ratio:
            self.ratio_out = self.payload[:, self.ratio]

    def restart(self, engine: RoundEngine, seeds: np.ndarray) -> _Phase:
        """Start the phase afresh at the engine's tick from ``seeds``."""
        self.t0 = engine.tick
        self.state = self.traj[0]
        self.state[:, 0], self.state[:, 1:] = 1.0, seeds
        return self

    def wave(self, next_round: int) -> np.ndarray:
        """The payload buffer, each send's columns rewritten in place."""
        for send in self.sends:
            send(next_round)
        return self.payload

    def update(self, block: np.ndarray, tick: int) -> np.ndarray:
        k = tick - self.t0   # phase-local round index, from 1
        for step in self.steps:
            step(block, k)
        return self.wave(k + 1)

    # -- payload columns ------------------------------------------------

    def _send_ratio(self, r):
        np.multiply(self.state, self.share, out=self.ratio_out)

    def _send_counters(self, r):
        self.payload[:, self.counter_cols] = counter_message(self.counters, r)

    def _send_vmax(self, r):
        self.payload[:, self.v_col] = self.vmax[:, None]

    def _send_bounds(self, r):
        self.payload[:, self.hi_cols] = self.hi
        self.payload[:, self.lo_cols] = self.lo

    # -- round steps, in the order a round runs them --------------------

    def _mix(self, block, k):
        self.state = ratio_update(block[:, :, self.ratio])

    def _mix_record(self, block, k):
        self.state = ratio_update(block[:, :, self.ratio], out=self.traj[k])

    def _detect(self, block, k):
        detector = self.detector
        if not detector.open.any():
            return
        self.traj[k] = self.state
        fired = detector.feed(self.traj[:k + 1])
        if fired and self.counters is not None:
            freeze_counter(self.counters, fired,
                           [detector.defect[i] for i in fired])
        if k == len(self.traj) - 1 and detector.open.any():
            # a node fires by round 2n - 1 at the latest: a later fire is noise
            raise NumericBreakdown(f"node {np.argmax(detector.open)} found "
                                   f"no defect within {k} rounds")

    def _fire_on_schedule(self, block, k):
        fired = np.flatnonzero(self.fire_round == k)
        if fired.size:
            freeze_counter(self.counters, fired,
                           (self.fire_round[fired] - 1) // 2)

    def _count(self, block, k):
        # ftdt_step keeps only the largest counter value a node hears;
        # counters are nonnegative, so 0 stands in for an empty inbox
        heard = np.max(block[:, 1:, self.counter_cols], axis=(1, 2),
                       initial=0)
        ftdt_step(self.counters, k, heard.astype(np.int64))

    def _max_consensus(self, block, k):
        self.vmax = np.max(block[:, :, self.v_col], axis=1)[:, 0]

    def _certify(self, block, k):
        self.hi = np.max(block[:, :, self.hi_cols], axis=1)
        self.lo = np.min(block[:, :, self.lo_cols], axis=1)
        if k % self.window == 0:
            open_ = ~self.certified
            # a snapshot whose spread is within epsilon a window later
            # is globally certified; the others are taken afresh
            done = open_ & (np.max(self.hi - self.lo, axis=1)
                            <= self.spread_eps)
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


def _agreed_max_defect(t_terms, defects) -> int:
    """Each node's own derivation of the largest defect index; all agree."""
    return _agree_int((derive_max_defect(t_term, d)
                       for t_term, d in zip(t_terms, defects)),
                      "the largest defect index")


def _consensus_phase(engine: RoundEngine, seeds: np.ndarray,
                     flags: PhaseFlags, label: str, *, n_prime: int,
                     t_max: int | None = None, defect_sizes=None,
                     epsilon: float | None = None,
                     reuse: _Phase | None = None) -> _Phase:
    """Open one consensus phase and run it under the stop rule its flags imply.

    * ``terminate``: until every node's stopping counter fires;
    * ``certify``: windows of ``n'`` exchanges until every node is certified;
    * ``detect`` alone: ``2n'`` exchanges; ``piggyback``: ``n'`` exchanges;
    * neither: ``t_max`` exchanges.

    A detecting phase raises :class:`NumericBreakdown` unless every node's
    detector fired within ``2n'`` rounds, also when its counters run on.

    The trajectory holds what its readers need: the detector's ``2n'``
    horizon, which ``fterc_final`` never reads past, or the rounds of a
    phase of fixed length; a terminating phase without a detector and a
    certification phase keep round 0 only.

    Given ``reuse``, a phase that ran before under the same flags and
    lengths, that phase is restarted from ``seeds`` in place of a new one.
    """
    rounds = (4 * (n_prime + 2) if flags.terminate     # the guard
              else None if flags.certify
              else 2 * n_prime if flags.detect
              else n_prime if flags.piggyback else t_max)
    kept = (2 * n_prime if flags.detect
            else None if flags.terminate else rounds)
    phase = (reuse.restart(engine, seeds) if reuse is not None
             else _Phase(engine, seeds, flags, rounds=kept,
                         defect_sizes=defect_sizes, window=n_prime,
                         spread_eps=epsilon))
    engine.prime(phase.wave(1), label, pad=phase.pad)
    if flags.terminate:
        while not phase.counters.t_term.all():
            if engine.tick - phase.t0 >= rounds:
                raise NumericBreakdown(
                    f"stopping counters still open after {rounds} rounds")
            engine.run_round(phase.update, label)
    elif flags.certify:
        windows = 0
        while not phase.certified.all():
            if windows >= 10_000:
                raise NumericBreakdown(
                    "certification made no progress in 10000 windows")
            engine.run_phase(phase.update, n_prime, label)
            windows += 1
    else:
        engine.run_phase(phase.update, rounds, label)
    return phase


def fterc_run(graph: Digraph, y0) -> list[ConsensusResult]:
    """Run finite-time exact ratio consensus to completion at every node.

    One detection phase of ``2n`` exchanges on the round engine; a node with
    defect index d fires at round ``2d + 1``. On :class:`NumericBreakdown`
    the run restarts once with a deterministic 1e-9 perturbation of the
    numerator seeds (denominator seeds untouched).
    """
    seeds = check_seeds(y0, graph.n)
    mat = seeds.reshape(graph.n, -1)

    def once(mat):
        phase = _consensus_phase(RoundEngine(graph, audit=False), mat,
                                 PhaseFlags(detect=True), "detect",
                                 n_prime=graph.n)
        det = phase.detector
        values = fterc_final(phase.traj, pad_kernels(det.beta))
        return [ConsensusResult(mu[0] if seeds.ndim == 1 else mu,
                                d, beta.copy(), 2 * d + 1)
                for d, beta, mu in zip(det.defect, det.beta, values)]

    try:
        return once(mat)
    except NumericBreakdown:
        return once(mat + 1e-9 * np.linspace(1.0, 2.0, mat.size)
                    .reshape(mat.shape))


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
    (see :mod:`.exact`), and the phase runs the stopping counters alone, each
    freezing the round its node's exact defect fires; use this outside the
    float64 detection envelope.
    """
    seeds = check_seeds(seeds, graph.n)
    defect = None
    if exact:
        detections = exact_consensus_run(graph, seeds)
        defect = [res.defect for res in detections]
    engine = RoundEngine(graph, audit=False)
    phase = _consensus_phase(engine, seeds.reshape(graph.n, -1),
                             PhaseFlags(detect=not exact, terminate=True),
                             "terminate", n_prime=graph.n, defect_sizes=defect)
    t_terms = phase.counters.t_term.tolist()
    if exact:
        max_defect = _agreed_max_defect(t_terms, defect)
        betas = [res.beta for res in detections]
        values = np.array([res.mu for res in detections])
    else:
        betas, defect = phase.detector.beta, phase.detector.defect
        max_defect = _agreed_max_defect(t_terms, defect)
        values = fterc_final(phase.traj, pad_kernels(betas))
        if seeds.ndim == 1:
            values = values[:, 0]
    return TerminationRunResult(
        values=values, betas=betas, defect_indices=defect, t_terms=t_terms,
        detection_rounds=[2 * d + 1 for d in defect],
        max_defect=max_defect, rounds=engine.tick)


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
    bound_lhs: np.ndarray | None = None
    bound_rhs: np.ndarray | None = None

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
        mask = regularizer.penalized_mask(point.size)
        total += regularizer.mu * float(np.sum(np.abs(point[mask])))
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
         regularizer, reference) -> RunRecord:
    if algorithm not in _SCHEDULES:
        raise ValueError(f"unknown algorithm {algorithm!r}")
    warmup, steady = _SCHEDULES[algorithm]
    n = graph.n
    if len(objectives) != n:
        raise ValueError("one local objective per node required")
    p = objectives[0].dim
    if any(obj.dim != p for obj in objectives):
        raise ValueError("all local objectives must share one dimension")
    n_prime = config.validate(n)
    rho = config.rho

    if regularizer is not None:
        mask = regularizer.penalized_mask(p)
        kappa = regularizer.kappa(n, rho)

    x0, lam0, z0 = _initialize(n, p, config)
    lam = lam0.copy()
    z_stack = np.tile(z0, (n, 1))
    stacks = ObjectiveStacks(objectives, rho)

    engine = RoundEngine(graph)
    kernels = None   # the detected kernels, zero-padded once
    defect: list = [None] * n
    t_max: int | None = None
    t1: int | None = None
    max_defect: int | None = None

    hist: dict[str, list] = {key: [] for key in
                             ("objective", "primal", "dual", "eps_pri",
                              "eps_dual", "rounds", "x", "z", "lam")}
    stopped_early = False
    steps = 0
    plan = None   # the fixed-length steady phase, restarted every step
    reusable = steady == PhaseFlags()   # fixed length, no riders

    for k in range(1, config.k_max + 1):
        x_stack = stacks.x_update(z_stack, lam)
        seeds = x_stack + lam / rho
        flags = warmup[k - 1] if k <= len(warmup) else steady
        tick_before = engine.tick
        phase = _consensus_phase(engine, seeds, flags, f"step-{k}",
                                 n_prime=n_prime, t_max=t_max,
                                 defect_sizes=defect, epsilon=config.epsilon,
                                 reuse=plan)
        if reusable and flags is steady:
            plan = phase
        rounds_k = engine.tick - tick_before
        if flags.detect:
            defect = phase.detector.defect
            kernels = pad_kernels(phase.detector.beta)
        if flags.piggyback:
            t_max = _agree_int(phase.vmax, "the phase length")
            max_defect = t_max - 1
        if flags.terminate:
            t1 = rounds_k
            max_defect = _agreed_max_defect(phase.counters.t_term.tolist(),
                                            defect)
            t_max = max_defect + 1
        z_new = (phase.snap if flags.certify
                 else fterc_final(phase.traj, kernels))
        if regularizer is not None:
            z_new = l1_z_update(z_new, kappa, mask)
        lam = lam + rho * (x_stack - z_new)
        report = stopping_criterion(x_stack, z_new, z_stack, lam, rho,
                                    config.eps_abs, config.eps_rel)

        obj_val = stacks.total(x_stack)
        if regularizer is not None:
            z_bar = z_new.mean(axis=0)
            obj_val += regularizer.mu * float(np.sum(np.abs(z_bar[mask])))

        hist["objective"].append(obj_val)
        hist["primal"].append(report.primal_res)
        hist["dual"].append(report.dual_res)
        hist["eps_pri"].append(report.eps_pri)
        hist["eps_dual"].append(report.eps_dual)
        hist["rounds"].append(rounds_k)
        hist["x"].append(x_stack)
        hist["z"].append(z_new)
        hist["lam"].append(lam.copy())
        z_stack = z_new
        steps = k
        if config.stop_on_tolerance and report.stop:
            stopped_early = True
            break

    record = RunRecord(
        algorithm=algorithm, config=config, steps=steps,
        k=np.arange(1, steps + 1),
        objective=np.array(hist["objective"]),
        primal_res=np.array(hist["primal"]),
        dual_res=np.array(hist["dual"]),
        eps_pri=np.array(hist["eps_pri"]),
        eps_dual=np.array(hist["eps_dual"]),
        consensus_rounds=np.array(hist["rounds"], dtype=int),
        x_hist=np.stack(hist["x"]),
        z_hist=np.stack(hist["z"]),
        lam_hist=np.stack(hist["lam"]),
        x0=x0, lam0=lam0, z0=z0,
        defect_indices=list(defect), t_max=t_max, t1=t1, max_defect=max_defect,
        schedule=phase_lengths(engine.log), stopped_early=stopped_early,
        log=engine.log, objectives=list(objectives),
        regularizer=regularizer)
    if reference is not None and regularizer is None:
        check_o1k_bound(record, reference)
    return record


def run_dadmm_fterc(objectives, graph: Digraph,
                    config: AdmmConfig | None = None, *, regularizer=None,
                    reference=None) -> RunRecord:
    """Consensus ADMM with finite-time exact averaging on a warm-up schedule.

    Step 1 runs a long detection phase, step 2 spreads the largest defect
    index with a piggybacked max-consensus, and every later step reuses the
    detected coefficients for the minimal number of exchanges.
    """
    return _run("dadmm_fterc", objectives, graph, config or AdmmConfig(),
                regularizer, reference)


def run_fdadmm_ftdt(objectives, graph: Digraph,
                    config: AdmmConfig | None = None, *, regularizer=None,
                    reference=None) -> RunRecord:
    """Fully distributed variant: nodes detect, stop, and re-size on their own.

    The first phase carries distributed stopping counters; once every node
    has fired, each derives the same minimal phase length for all later
    steps from its own stopping round — with zero coordinator input.
    """
    return _run("fdadmm_ftdt", objectives, graph, config or AdmmConfig(),
                regularizer, reference)


def run_epsilon_baseline(objectives, graph: Digraph,
                         config: AdmmConfig | None = None, *,
                         regularizer=None, reference=None) -> RunRecord:
    """Inexact-averaging baseline with windowed spread certification.

    Nodes snapshot their running ratio every ``n'`` exchanges and spend the
    next window max/min-certifying the snapshot's global spread; the first
    window whose spread is within ``epsilon`` ends the phase everywhere.
    """
    return _run("epsilon_baseline", objectives, graph, config or AdmmConfig(),
                regularizer, reference)


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

    def holds(self, slack: float = 1e-8) -> bool:
        return self.lower_margin >= -slack and self.upper_margin >= -slack


def check_o1k_bound(record: RunRecord, reference: Reference) -> BoundReport:
    """Check the O(1/k) ergodic gap bound and attach both sides to the record.

    The Lagrangian gap at the running means must be nonnegative and below a
    constant (fixed by the initial dual/shared iterates) divided by k.
    """
    rho = record.config.rho
    lam_star = np.asarray(reference.lambda_star, dtype=float)
    x_star = np.asarray(reference.x_star, dtype=float)
    x_bar, z_bar = ergodic_averages(record)
    steps = record.steps
    n = x_bar.shape[1]

    stacks = ObjectiveStacks(record.objectives, rho)
    f_vals = np.array([stacks.total(x_bar[t]) for t in range(steps)])
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


def rlinear_probe(record, x_star=None) -> ProbeReport:
    """Fit the decay rate of ``log10 ||X^k - X*||`` over the tail half.

    Accepts a :class:`RunRecord` plus the optimizer, or a precomputed 1-D
    error sequence. Points at or below 1e-12 are discarded as numerical
    noise; fewer than 10 usable points raises
    :class:`InsufficientData`. A geometric sequence q^k yields slope
    ``log10 q`` exactly.
    """
    if isinstance(record, RunRecord):
        if x_star is None:
            raise ValueError("x_star required with a run record")
        diff = record.x_hist - np.asarray(x_star, dtype=float)[None, None, :]
        errors = np.linalg.norm(diff.reshape(record.steps, -1), axis=1)
    else:
        errors = np.asarray(record, dtype=float).ravel()
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
