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
the standalone :func:`fterc_run` and :func:`ftdt_run`. The solvers exchange
messages only through :class:`~.netsim.RoundEngine`, so round logs,
schedules, and determinism checks all observe real traffic.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .consensus import (ConsensusResult, HankelDetector, fterc_final,
                        ratio_update)
from .errors import (DegenerateSequence, InsufficientData, NonIntegerResult,
                     NumericBreakdown)
from .exact import exact_consensus_run
from .graph import Digraph
from .netsim import RoundEngine, phase_lengths
from .objectives import L1Regularizer, l1_z_update
from .oracle import Reference
from .termination import (TerminationState, counter_message, derive_max_defect,
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
    record_messages: bool = False

    def validate(self, n: int) -> int:
        """Check field ranges against a concrete network size; return n'.

        Each ``ValueError`` message starts with the offending field's name.
        """
        if self.rho <= 0:
            raise ValueError("rho must be positive")
        if self.k_max < 1:
            raise ValueError("k_max must be at least 1")
        for name in ("eps_abs", "eps_rel"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be nonnegative")
        if self.init not in ("random", "zero"):
            raise ValueError(f"init must be 'random' or 'zero', "
                             f"got {self.init!r}")
        if self.epsilon <= 0:
            raise ValueError("epsilon must be positive")
        n_prime = self.n_prime if self.n_prime is not None else n
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
    primal = float(np.linalg.norm(x_stack - z_stack))
    dual = float(rho * np.linalg.norm(z_stack - z_prev_stack))
    eps_pri = scale * eps_abs + eps_rel * max(np.linalg.norm(x_stack),
                                              np.linalg.norm(z_stack))
    eps_dual = scale * eps_abs + eps_rel * float(np.linalg.norm(lam_stack))
    return StoppingReport(primal <= eps_pri and dual <= eps_dual,
                          primal, dual, float(eps_pri), float(eps_dual))


# ---------------------------------------------------------------------------
# Consensus phases on the round engine
# ---------------------------------------------------------------------------

@dataclass
class PhaseFlags:
    """What a consensus phase carries besides the ratio pair."""

    detect: bool = False      # feed kernel detectors
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


@dataclass
class PhaseNode:
    """Per-node state of one consensus phase.

    Handlers rebind arrays instead of mutating them, so payloads emitted in
    an earlier round stay valid snapshots.
    """

    y: np.ndarray
    x: float
    out_degree: int
    traj_y: list = field(default_factory=list)
    traj_x: list = field(default_factory=list)
    detector: HankelDetector | None = None
    term: TerminationState | None = None
    vmax: int = 0
    snap: np.ndarray | None = None
    hi: np.ndarray | None = None
    lo: np.ndarray | None = None
    certified: bool = False
    frozen: bool = False

    def record(self) -> None:
        self.traj_y.append(self.y)
        self.traj_x.append(self.x)

    def observation(self) -> np.ndarray:
        # Denominator first, then the numerator coordinates: the detector
        # needs a common kernel across every channel.
        return np.concatenate(([self.x], self.y))


def _make_emit(graph: Digraph, flags: PhaseFlags):
    """Build the sender-side emission: scaled ratio pair plus riders.

    The ratio contribution is divided by 1 + out-degree before it leaves the
    node, so receivers never learn sender degrees.
    """

    def emit(i: int, node: PhaseNode, next_round: int) -> dict:
        share = 1.0 / (1.0 + node.out_degree)
        payload = {"y": node.y * share, "x": node.x * share}
        if flags.terminate:
            theta, c = counter_message(node.term, next_round)
            payload["th"] = theta
            payload["c"] = c
        if flags.piggyback:
            payload["v"] = node.vmax
        if flags.certify:
            payload["hi"] = node.hi
            payload["lo"] = node.lo
        return {dest: payload for dest in graph.out_neighbors[i]}

    return emit


def _make_handler(graph: Digraph, flags: PhaseFlags, t0: int, emit,
                  window: int | None = None, spread_eps: float | None = None):
    """Receiver-side update for one consensus phase.

    ``t0`` is the engine tick at priming time, so ``tick - t0`` is the
    phase-local round index starting at 1.
    """
    in_counts = [len(ins) for ins in graph.in_neighbors]

    def handler(i: int, node: PhaseNode, inbox, tick: int):
        k = tick - t0
        msgs = [m for _, m in inbox]
        if not node.frozen:
            received = [(m["y"], m["x"]) for m in msgs]
            node.y, node.x = ratio_update(node.y, node.x, node.out_degree,
                                          received, in_counts[i])
            node.record()
            det = node.detector
            if det is not None and not det.fired:
                try:
                    det.feed(node.observation())
                except DegenerateSequence:
                    pass
                if det.fired and flags.terminate:
                    node.term = freeze_counter(node.term, det.defect)
        if flags.terminate:
            node.term = ftdt_step(node.term, k,
                                  [(m["th"], m["c"]) for m in msgs])
            if node.term.terminated:
                # Keep relaying counters and re-broadcasting the frozen
                # ratio pair; later exchanges no longer change this node.
                node.frozen = True
        if flags.piggyback:
            for m in msgs:
                if m["v"] > node.vmax:
                    node.vmax = m["v"]
        if flags.certify:
            for m in msgs:
                node.hi = np.maximum(node.hi, m["hi"])
                node.lo = np.minimum(node.lo, m["lo"])
            if k % window == 0 and not node.certified:
                if float(np.max(node.hi - node.lo)) <= spread_eps:
                    # The snapshot taken a window ago is globally certified.
                    node.certified = True
                else:
                    node.snap = node.y / node.x
                    node.hi = node.snap.copy()
                    node.lo = node.snap.copy()
        return node, emit(i, node, k + 1)

    return handler


def _open_phase(engine: RoundEngine, graph: Digraph, seeds: np.ndarray,
                flags: PhaseFlags, phase: str, *,
                defect_sizes=None, window: int | None = None,
                spread_eps: float | None = None):
    """Install fresh per-node phase state and emit the seed wave."""
    nodes: list[PhaseNode] = []
    for i in range(graph.n):
        node = PhaseNode(y=np.array(seeds[i], dtype=float), x=1.0,
                         out_degree=graph.out_degree(i))
        if flags.detect:
            node.detector = HankelDetector(node.y.size + 1)
        if flags.terminate:
            node.term = TerminationState()
        if flags.piggyback:
            node.vmax = int(defect_sizes[i]) + 1
        if flags.certify:
            node.snap = node.y / node.x
            node.hi = node.snap.copy()
            node.lo = node.snap.copy()
        node.record()
        if node.detector is not None:
            node.detector.feed(node.observation())  # length 1: no check yet
        nodes.append(node)
    engine.states = nodes
    emit = _make_emit(graph, flags)
    handler = _make_handler(graph, flags, engine.tick, emit,
                            window=window, spread_eps=spread_eps)
    engine.prime(lambda i, s: emit(i, s, 1), phase)
    return nodes, handler


def _exact_values(nodes: list[PhaseNode], betas) -> list[np.ndarray]:
    """Recover each node's exact average from its trajectory prefix."""
    out = []
    for node, beta in zip(nodes, betas):
        out.append(fterc_final(np.stack(node.traj_y),
                               np.asarray(node.traj_x, dtype=float), beta))
    return out


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


def _consensus_phase(engine: RoundEngine, graph: Digraph, seeds: np.ndarray,
                     flags: PhaseFlags, label: str, *, n_prime: int,
                     t_max: int | None = None, defect_sizes=None,
                     epsilon: float | None = None) -> list[PhaseNode]:
    """Open one consensus phase and run it under the stop rule its flags imply.

    * ``terminate``: until every node's stopping counter fires;
    * ``certify``: windows of ``n'`` exchanges until every node is certified;
    * ``detect`` alone: ``2n'`` exchanges; ``piggyback``: ``n'`` exchanges;
    * neither: ``t_max`` exchanges.

    A detection phase raises :class:`NumericBreakdown` unless every node's
    detector fired.
    """
    t0 = engine.tick
    nodes, handler = _open_phase(engine, graph, seeds, flags, label,
                                 defect_sizes=defect_sizes, window=n_prime,
                                 spread_eps=epsilon)
    if flags.terminate:
        guard = 4 * (n_prime + 2)
        while not all(node.term.terminated for node in nodes):
            if engine.tick - t0 >= guard:
                raise NumericBreakdown(
                    f"stopping counters still open after {guard} rounds")
            engine.run_round(handler, label)
    elif flags.certify:
        windows = 0
        while not all(node.certified for node in nodes):
            if windows >= 10_000:
                raise NumericBreakdown(
                    "certification made no progress in 10000 windows")
            engine.run_phase(handler, n_prime, label)
            windows += 1
    elif flags.detect:
        engine.run_phase(handler, 2 * n_prime, label)
    else:
        engine.run_phase(handler, n_prime if flags.piggyback else t_max, label)
    if flags.detect:
        for i, node in enumerate(nodes):
            if not node.detector.fired:
                raise NumericBreakdown(f"node {i} found no defect within "
                                       f"{engine.tick - t0} rounds")
    return nodes


def fterc_run(graph: Digraph, y0) -> list[ConsensusResult]:
    """Run finite-time exact ratio consensus to completion at every node.

    One detection phase of ``2n`` exchanges on the round engine; a node with
    defect index d fires at round ``2d + 1``. On :class:`NumericBreakdown`
    the run restarts once with a deterministic 1e-9 perturbation of the
    numerator seeds (denominator seeds untouched).
    """
    seeds = np.asarray(y0, dtype=float)
    if seeds.shape[0] != graph.n:
        raise ValueError("seed count must match node count")
    mat = seeds.reshape(graph.n, -1)

    def once(mat):
        engine = RoundEngine(graph, [None] * graph.n)
        nodes = _consensus_phase(engine, graph, mat, PhaseFlags(detect=True),
                                 "detect", n_prime=graph.n)
        betas = [node.detector.beta for node in nodes]
        return [ConsensusResult(mu[0] if seeds.ndim == 1 else mu,
                                node.detector.defect, beta.copy(),
                                2 * node.detector.defect + 1)
                for node, beta, mu in zip(nodes, betas,
                                          _exact_values(nodes, betas))]

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
    (see :mod:`.exact`) and the stopping counters are replayed on top; use
    this outside the float64 detection envelope.
    """
    if exact:
        return _ftdt_run_exact(graph, seeds)
    seeds = np.asarray(seeds, dtype=float)
    engine = RoundEngine(graph, [None] * graph.n)
    nodes = _consensus_phase(engine, graph, seeds.reshape(graph.n, -1),
                             PhaseFlags(detect=True, terminate=True),
                             "terminate", n_prime=graph.n)
    betas = [node.detector.beta for node in nodes]
    defect = [node.detector.defect for node in nodes]
    t_terms = [node.term.t_term for node in nodes]
    max_defect = _agreed_max_defect(t_terms, defect)
    values = np.stack(_exact_values(nodes, betas))
    if seeds.ndim == 1:
        values = values[:, 0]
    return TerminationRunResult(
        values=values, betas=betas, defect_indices=defect, t_terms=t_terms,
        detection_rounds=[2 * d + 1 for d in defect],
        max_defect=max_defect, rounds=engine.tick)


def _ftdt_run_exact(graph: Digraph, seeds) -> TerminationRunResult:
    """Exact-lane twin of :func:`ftdt_run`.

    Defect indices, kernels and values come from the rational lane; the
    stopping counters are then replayed round by round with the same message
    timing as the engine (counters are integers, so the replay is itself
    exact).
    """
    seeds = np.asarray(seeds, dtype=float)
    scalar = seeds.ndim == 1
    detections = exact_consensus_run(graph, seeds.reshape(graph.n, -1))
    fire = [res.rounds_used for res in detections]
    states = [TerminationState() for _ in range(graph.n)]
    outgoing = [counter_message(st, 1) for st in states]
    guard = 4 * (graph.n + 2)
    k = 0
    while not all(st.terminated for st in states):
        if k >= guard:
            raise NumericBreakdown(
                f"stopping counters still open after {guard} rounds")
        k += 1
        stepped = []
        for i in range(graph.n):
            st = states[i]
            if k == fire[i]:
                st = freeze_counter(st, detections[i].defect)
            received = [outgoing[j] for j in graph.in_neighbors[i]]
            stepped.append(ftdt_step(st, k, received))
        states = stepped
        outgoing = [counter_message(st, k + 1) for st in states]
    max_defect = _agreed_max_defect([st.t_term for st in states],
                                    [res.defect for res in detections])
    values = np.stack([np.atleast_1d(res.mu) for res in detections])
    if scalar:
        values = values[:, 0]
    return TerminationRunResult(
        values=values, betas=[res.beta for res in detections],
        defect_indices=[res.defect for res in detections],
        t_terms=[st.t_term for st in states],
        detection_rounds=fire, max_defect=max_defect, rounds=k)


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
    penalized: np.ndarray | None
    bound_lhs: np.ndarray | None = None
    bound_rhs: np.ndarray | None = None

    @property
    def z_final(self) -> np.ndarray:
        """Node-mean of the last z iterate (exact solvers: all rows equal)."""
        return self.z_hist[-1].mean(axis=0)

    def final_objective(self) -> float:
        """Composite objective evaluated at the final consensus point."""
        return composite_objective(self.objectives, self.z_final,
                                   self.regularizer, self.penalized)


def composite_objective(objectives, point, regularizer=None,
                        penalized=None) -> float:
    """Sum of local objectives plus the l1 penalty at one shared point."""
    point = np.asarray(point, dtype=float)
    total = float(sum(obj.evaluate(point) for obj in objectives))
    if regularizer is not None:
        mask = penalized
        if mask is None:
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
         regularizer, penalized, reference) -> RunRecord:
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

    mask = penalized
    if regularizer is not None and mask is None:
        mask = regularizer.penalized_mask(p)
    kappa = regularizer.kappa(n, rho) if regularizer is not None else None

    x0, lam0, z0 = _initialize(n, p, config)
    lam = lam0.copy()
    z_stack = np.tile(z0, (n, 1))

    engine = RoundEngine(graph, [None] * n,
                         record_messages=config.record_messages)
    betas: list = [None] * n
    defect: list = [None] * n
    t_max: int | None = None
    t1: int | None = None
    max_defect: int | None = None

    hist: dict[str, list] = {key: [] for key in
                             ("objective", "primal", "dual", "eps_pri",
                              "eps_dual", "rounds", "x", "z", "lam")}
    stopped_early = False
    steps = 0

    for k in range(1, config.k_max + 1):
        x_stack = np.stack([objectives[i].solve_x_update(z_stack[i], lam[i],
                                                         rho)
                            for i in range(n)])
        seeds = x_stack + lam / rho
        flags = warmup[k - 1] if k <= len(warmup) else steady
        tick_before = engine.tick
        nodes = _consensus_phase(engine, graph, seeds, flags, f"step-{k}",
                                 n_prime=n_prime, t_max=t_max,
                                 defect_sizes=defect, epsilon=config.epsilon)
        rounds_k = engine.tick - tick_before
        if flags.detect:
            betas = [node.detector.beta for node in nodes]
            defect = [node.detector.defect for node in nodes]
        if flags.piggyback:
            t_max = _agree_int((node.vmax for node in nodes),
                               "the phase length")
            max_defect = t_max - 1
        if flags.terminate:
            t1 = rounds_k
            max_defect = _agreed_max_defect(
                [node.term.t_term for node in nodes], defect)
            t_max = max_defect + 1
        if flags.certify:
            values = [node.snap for node in nodes]
        else:
            values = _exact_values(nodes, betas)

        if kappa is None:
            z_new = np.stack(values)
        else:
            z_new = np.stack([l1_z_update(v, kappa, mask) for v in values])
        lam = lam + rho * (x_stack - z_new)
        report = stopping_criterion(x_stack, z_new, z_stack, lam, rho,
                                    config.eps_abs, config.eps_rel)

        z_bar = z_new.mean(axis=0)
        obj_val = float(sum(objectives[i].evaluate(x_stack[i])
                            for i in range(n)))
        if regularizer is not None:
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
        regularizer=regularizer, penalized=mask)
    if reference is not None and regularizer is None:
        check_o1k_bound(record, reference)
    return record


def run_dadmm_fterc(objectives, graph: Digraph,
                    config: AdmmConfig | None = None, *, regularizer=None,
                    penalized=None, reference=None) -> RunRecord:
    """Consensus ADMM with finite-time exact averaging on a warm-up schedule.

    Step 1 runs a long detection phase, step 2 spreads the largest defect
    index with a piggybacked max-consensus, and every later step reuses the
    detected coefficients for the minimal number of exchanges.
    """
    return _run("dadmm_fterc", objectives, graph, config or AdmmConfig(),
                regularizer, penalized, reference)


def run_fdadmm_ftdt(objectives, graph: Digraph,
                    config: AdmmConfig | None = None, *, regularizer=None,
                    penalized=None, reference=None) -> RunRecord:
    """Fully distributed variant: nodes detect, stop, and re-size on their own.

    The first phase carries distributed stopping counters; once every node
    has fired, each derives the same minimal phase length for all later
    steps from its own stopping round — with zero coordinator input.
    """
    return _run("fdadmm_ftdt", objectives, graph, config or AdmmConfig(),
                regularizer, penalized, reference)


def run_epsilon_baseline(objectives, graph: Digraph,
                         config: AdmmConfig | None = None, *,
                         regularizer=None, penalized=None,
                         reference=None) -> RunRecord:
    """Inexact-averaging baseline with windowed spread certification.

    Nodes snapshot their running ratio every ``n'`` exchanges and spend the
    next window max/min-certifying the snapshot's global spread; the first
    window whose spread is within ``epsilon`` ends the phase everywhere.
    """
    return _run("epsilon_baseline", objectives, graph, config or AdmmConfig(),
                regularizer, penalized, reference)


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

    f_vals = np.array([
        sum(record.objectives[i].evaluate(x_bar[t, i]) for i in range(n))
        for t in range(steps)
    ])
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


def rlinear_probe(record, x_star=None, *, floor: float = 1e-12,
                  min_points: int = 10) -> ProbeReport:
    """Fit the decay rate of ``log10 ||X^k - X*||`` over the tail half.

    Accepts a :class:`RunRecord` plus the optimizer, or a precomputed 1-D
    error sequence. Points at or below ``floor`` are discarded as numerical
    noise; fewer than ``min_points`` usable points raises
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
    usable = errors > floor
    if int(usable.sum()) < min_points:
        raise InsufficientData(
            f"only {int(usable.sum())} usable points above {floor}")
    k_use = k[usable]
    log_err = np.log10(errors[usable])
    tail = slice(k_use.size // 2, None)
    slope, intercept = np.polyfit(k_use[tail], log_err[tail], 1)
    return ProbeReport(float(slope), float(intercept), k_use[tail],
                       log_err[tail])
