"""The benchmark's three workloads: inputs, operations, referees and counts.

Every workload is single-process and closed-loop: one caller, and each
operation starts when the previous one returns. Inputs come only from the
workload seed; the solvers receive nothing but the generated inputs.

* ``steady_small`` -- long fixed horizons (``stop_on_tolerance=False``) on the
  acceptance gate's least-squares and l1-logistic settings. One operation is
  one ADMM step. Phases last ``d_max+1`` rounds, so per-step fixed costs
  dominate: x-update, phase opening, ``fterc_final``, the stopping test and
  record growth.
* ``warmup_sweep`` -- many unfiltered random sparse digraphs, three steps
  under each solver. One operation is one solver run. Phases are long and
  carry riders (detection, max-consensus, stopping counters, certification
  windows), so transport, digests, Hankel detection and counters do the work.
* ``exact_family`` -- the acceptance gate's criterion-1 family of random
  directed rings on the rational lane only. One operation is one instance.
  It never touches the round engine.

Referee checks run outside every timer. A run that raises, or whose output
fails a check, counts as failed operations under the exception's type name
or ``wrong_output``.
"""

from __future__ import annotations

import time
from contextlib import nullcontext
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

import numpy as np

import consensus_admm as ca

WORKLOADS = ("steady_small", "warmup_sweep", "exact_family")

STEADY_STEPS = 500
PAUSE_EVERY = 20     # steady_small: steps between calibration samples
STEADY_CFG = dict(rho=1.0, eps_abs=1e-4, eps_rel=1e-2,
                  stop_on_tolerance=False, k_max=STEADY_STEPS)
# The sweep stays inside the float64 detection envelope: at n >= 14 the float
# detector's values drift past the 1e-8 referee (2.6e-8 at d_max=13), and at
# n >= 18 it fires one size early, so neither it nor minimal_poly_oracle is a
# valid reference there. The exact lane is measured by exact_family instead.
SWEEP_SIZES = tuple(range(8, 14))
SWEEP_REPEATS = 1
SWEEP_CFG = dict(rho=1.0, eps_abs=1e-4, eps_rel=1e-2, stop_on_tolerance=False,
                 k_max=3, epsilon=0.01)
FAMILY_SIZES = tuple(range(2, 21))

SOLVERS = ("run_dadmm_fterc", "run_fdadmm_ftdt", "run_epsilon_baseline")

EQUIV_ATOL = 1e-10   # steady_small: the two exact solvers agree
OPT_REL = 1e-6       # steady_small: least-squares objective at step 500
L1_REL = 1e-3        # steady_small: l1-logistic objective
Z_SPREAD = 1e-8      # steady_small: node-identical l1-logistic iterate
MEAN_ATOL = 1e-8     # warmup_sweep: exact z rows equal the seed mean
REL_MEAN = 1e-8      # exact_family: values match the Fraction means


@dataclass
class PassResult:
    """What one pass over a workload's inputs produced."""

    wall_s: float            # solve time, calibration pauses left out
    latencies_s: list        # one entry per operation
    starts_s: list           # when each operation started
    attempted: int
    failures: dict           # category -> failed operations
    counts: dict             # simulated statistics: repeat exactly
    public: dict             # per-layer figures read from public results


class StepClock:
    """Stamps the start of every ADMM step at node 0's x-update.

    Every PAUSE_EVERY steps it calls ``pause`` (a calibration sample)
    between one step's end and the next one's start, so the pause falls in
    no step's latency; ``paused`` adds up the time it took.
    """

    def __init__(self):
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.tracer = None
        self.pause = None
        self.paused = 0.0

    def tick(self) -> None:
        now = time.perf_counter()
        if self.starts:
            self.ends.append(now)
            if self.pause is not None and len(self.ends) % PAUSE_EVERY == 0:
                self.pause()
                self.paused += time.perf_counter() - now
        self.starts.append(time.perf_counter())
        if self.tracer is not None:
            self.tracer.op += 1


class _Stamped:
    """Objective mixin for node 0: stamps the step clock, then solves."""

    clock: StepClock

    def solve_x_update(self, z, lam, rho):
        self.clock.tick()
        return super().solve_x_update(z, lam, rho)


class StampedLeastSquares(_Stamped, ca.LeastSquaresObjective):
    pass


class StampedLogistic(_Stamped, ca.LogisticObjective):
    pass


def _max_defect(graph) -> int:
    weights = ca.ratio_weights(graph)
    return max(ca.minimal_poly_oracle(weights, j, rank_tol=1e-12)
               for j in range(graph.n)) - 1


def span(tracer, name):
    """``tracer.span(name)``, or nothing when not tracing."""
    return tracer.span(name) if tracer is not None else nullcontext()


def _call_solver(name, objectives, graph, config, kwargs):
    """Run one solver; a package error is an outcome, not a crash."""
    try:
        return getattr(ca, name)(objectives, graph, config, **kwargs)
    except ca.ConsensusAdmmError as exc:
        # the traceback pins the solver's frames (engine, round log) in a
        # reference cycle; dropping it keeps memory flat across passes
        return exc.with_traceback(None)


def _failed(outcome) -> bool:
    return isinstance(outcome, BaseException)


def _seed_means(record) -> np.ndarray:
    """Per step, the node mean of ``x_k + lambda_{k-1} / rho``."""
    lam_prev = np.concatenate([record.lam0[None], record.lam_hist[:-1]])
    seeds = record.x_hist + lam_prev / record.config.rho
    return seeds.mean(axis=1)


def _round_counts(records) -> dict:
    steps = sum(r.steps for r in records)
    rounds = sum(int(r.consensus_rounds.sum()) for r in records)
    messages = sum(entry.message_count for r in records for entry in r.log)
    return {"rounds_per_step": rounds / steps,
            "messages_per_step": messages / steps}


def _public_counts(records) -> dict:
    exact = [r for r in records if r.max_defect is not None]
    needed = sum(2 * (r.max_defect + 1) - 1 for r in exact)
    ran = sum(r.schedule[0][1] for r in exact)
    return {"admm.steps": sum(r.steps for r in records),
            "admm.log_entries": sum(len(r.log) for r in records),
            "admm.warmup_useful_share": needed / ran if ran else 0.0}


def _tally(units) -> tuple[int, dict]:
    """Sum (operations, failure category or None) units."""
    attempted = 0
    failures: dict[str, int] = {}
    for ops, category in units:
        attempted += ops
        if category is not None:
            failures[category] = failures.get(category, 0) + ops
    return attempted, failures


# ---------------------------------------------------------------------------
# steady_small
# ---------------------------------------------------------------------------

def setup_steady_small(seed: int, out_dir: Path) -> dict:
    ls_seed, logit_seed, init_seed = (
        int(s) for s in np.random.default_rng(seed).integers(2**31, size=3))
    clock = StepClock()
    objectives, _ = ca.make_least_squares_instance(6, 3, 5, seed=ls_seed)
    objectives[0] = StampedLeastSquares(objectives[0].mat, objectives[0].rhs)
    objectives[0].clock = clock
    graph6 = ca.random_strongly_connected(6, 0.2, seed=1)
    ls_ref = ca.centralized_least_squares([o.mat for o in objectives],
                                          [o.rhs for o in objectives])
    features, labels = ca.make_logistic_instance(200, 10, seed=logit_seed)
    mu = 0.1 * ca.compute_mu_max(features, labels)
    l1_ref = ca.centralized_l1_logistic(features, labels, mu)
    shards = ca.split_rows(features, labels, 5)
    logistic = [StampedLogistic(*shards[0])]
    logistic[0].clock = clock
    logistic += [ca.LogisticObjective(f, y) for f, y in shards[1:]]
    graph5 = ca.random_strongly_connected(5, 0.2, seed=1)
    config = ca.AdmmConfig(seed=init_seed, **STEADY_CFG)
    runs = [
        ("dadmm_ls", "run_dadmm_fterc", objectives, graph6, {}),
        ("fdadmm_ls", "run_fdadmm_ftdt", objectives, graph6, {}),
        ("fdadmm_l1", "run_fdadmm_ftdt", logistic, graph5,
         {"regularizer": ca.L1Regularizer(mu)}),
    ]
    return {"clock": clock, "config": config, "runs": runs,
            "ls_ref": ls_ref, "l1_ref": l1_ref, "out_dir": out_dir}


def solve_steady_small(inputs, tracer=None, pause=None) -> dict:
    """Run the three horizons; ``pause`` is called between some steps."""
    clock: StepClock = inputs["clock"]
    clock.tracer, clock.pause, clock.paused = tracer, pause, 0.0
    outcomes, latencies, starts = {}, [], []
    start = time.perf_counter()
    for label, solver, objectives, graph, kwargs in inputs["runs"]:
        clock.starts.clear()
        clock.ends.clear()
        with span(tracer, "bench.run"):
            outcome = _call_solver(solver, objectives, graph,
                                   inputs["config"], kwargs)
        clock.ends.append(time.perf_counter())
        latencies += [b - a for a, b in zip(clock.starts, clock.ends)]
        starts += clock.starts
        if not _failed(outcome):
            ca.write_csv(inputs["out_dir"] / f"steady_small-{label}.csv",
                         outcome)
        outcomes[label] = outcome
    wall = time.perf_counter() - start - clock.paused
    clock.tracer = clock.pause = None
    return {"wall_s": wall, "latencies_s": latencies, "starts_s": starts,
            "outcomes": outcomes}


def _csv_round_trips(path: Path, record) -> bool:
    table = ca.read_csv(path)
    return (np.array_equal(table["k"], record.k)
            and np.array_equal(table["consensus_rounds"],
                               record.consensus_rounds)
            and all(np.allclose(table[col], getattr(record, col),
                                rtol=1e-11, atol=0.0)
                    for col in ("objective", "primal_res", "dual_res")))


def referee_steady_small(inputs, solved) -> PassResult:
    out = solved["outcomes"]
    category = {label: type(o).__name__ if _failed(o) else None
                for label, o in out.items()}

    def wrong(*labels):
        for label in labels:
            category[label] = category[label] or "wrong_output"

    a, b, c = out["dadmm_ls"], out["fdadmm_ls"], out["fdadmm_l1"]
    if not (_failed(a) or _failed(b)):
        gap = max(float(np.max(np.abs(getattr(a, f) - getattr(b, f))))
                  for f in ("x_hist", "z_hist", "lam_hist", "objective"))
        if gap > EQUIV_ATOL:
            wrong("dadmm_ls", "fdadmm_ls")
    if not _failed(a):
        f_star = inputs["ls_ref"].f_star
        if (a.steps != STEADY_STEPS
                or abs(a.final_objective() - f_star) > OPT_REL * abs(f_star)):
            wrong("dadmm_ls")
    if not _failed(c):
        f_star = inputs["l1_ref"].f_star
        z_final = c.z_hist[-1]
        if (abs(c.final_objective() - f_star) > L1_REL * abs(f_star)
                or np.max(np.abs(z_final - z_final[0])) > Z_SPREAD):
            wrong("fdadmm_l1")
    for label, record in out.items():
        path = inputs["out_dir"] / f"steady_small-{label}.csv"
        if not _failed(record) and not _csv_round_trips(path, record):
            wrong(label)

    attempted, failures = _tally((STEADY_STEPS, category[label])
                                 for label in out)
    records = [o for o in out.values() if not _failed(o)]
    return PassResult(solved["wall_s"], solved["latencies_s"],
                      solved["starts_s"], attempted,
                      failures, _round_counts(records) if records else {},
                      _public_counts(records))


# ---------------------------------------------------------------------------
# warmup_sweep
# ---------------------------------------------------------------------------

def _relabelled(graph, perm):
    """The same digraph with node ``i`` renamed ``perm[i]``."""
    edges = sorted(((int(perm[r]), int(perm[s])) for r, s in graph.edges()),
                   key=lambda e: (e[1], e[0]))
    return ca.build_digraph(graph.n, edges)


def setup_warmup_sweep(seed: int, out_dir: Path, *, sizes=SWEEP_SIZES,
                       repeats=SWEEP_REPEATS) -> dict:
    # The digraph structures are drawn from fixed seeds 0, 1, 2, ... with no
    # filtering; the workload seed relabels their nodes and draws the data
    # and initial iterates. Structure sets the defect indices, refusals and
    # window counts: drawn from the workload seed, it moved refusals between
    # 1 and 8 of 12 fdadmm_ftdt runs and rounds_per_step by 8% (quartile
    # spread over five seeds), against 2% or less with a fixed mix.
    rng = np.random.default_rng(seed)
    structures = [ca.random_strongly_connected(n, 0.15, seed=k)
                  for k, n in enumerate(n for _ in range(repeats)
                                        for n in sizes)]
    return {"instances": [sweep_instance(g, rng) for g in structures]}


def sweep_instance(structure, rng) -> dict:
    """Relabel one digraph and draw its least-squares data and start."""
    graph = _relabelled(structure, rng.permutation(structure.n))
    data_seed, init_seed = (int(s) for s in rng.integers(2**31, size=2))
    objectives, _ = ca.make_least_squares_instance(graph.n, 3, 5,
                                                   seed=data_seed)
    return {"graph": graph, "objectives": objectives,
            "config": ca.AdmmConfig(seed=init_seed, **SWEEP_CFG),
            "d_max": _max_defect(graph)}


def _timed_ops(calls, tracer, pause):
    """Run each zero-argument call as one operation; return outcomes.

    ``pause``, when given, is called after every operation, untimed.
    """
    outcomes, latencies, starts = [], [], []
    paused = 0.0
    start = time.perf_counter()
    for op_id, call in enumerate(calls):
        if tracer is not None:
            tracer.op = op_id
        t0 = time.perf_counter()
        with span(tracer, "bench.op"):
            outcomes.append(call())
        t1 = time.perf_counter()
        latencies.append(t1 - t0)
        starts.append(t0)
        if pause is not None:
            pause()
            paused += time.perf_counter() - t1
    return {"wall_s": time.perf_counter() - start - paused,
            "latencies_s": latencies, "starts_s": starts,
            "outcomes": outcomes}


def solve_warmup_sweep(inputs, tracer=None, pause=None) -> dict:
    calls = [
        (lambda inst=inst, solver=solver: _call_solver(
            solver, inst["objectives"], inst["graph"], inst["config"], {}))
        for inst in inputs["instances"] for solver in SOLVERS]
    return _timed_ops(calls, tracer, pause)


def _sweep_output_ok(solver: str, record, inst) -> bool:
    n_prime = inst["graph"].n
    d = inst["d_max"]
    rounds = [r for _, r in record.schedule]
    means = _seed_means(record)
    error = float(np.max(np.abs(record.z_hist - means[:, None, :])))
    if solver == "run_epsilon_baseline":
        return (error <= record.config.epsilon
                and all(r % n_prime == 0 for r in rounds))
    closed = {"run_dadmm_fterc": [2 * n_prime, n_prime, d + 1],
              "run_fdadmm_ftdt": [4 * (d + 1) - 1, d + 1, d + 1]}[solver]
    return (rounds == closed and record.max_defect == d
            and error <= MEAN_ATOL)


def referee_warmup_sweep(inputs, solved) -> PassResult:
    units, counted, records = [], [], []
    outcomes = iter(solved["outcomes"])
    for inst in inputs["instances"]:
        for solver in SOLVERS:
            outcome = next(outcomes)
            if _failed(outcome):
                units.append((1, type(outcome).__name__))
                continue
            ok = _sweep_output_ok(solver, outcome, inst)
            units.append((1, None if ok else "wrong_output"))
            records.append(outcome)
            if solver != "run_fdadmm_ftdt":
                counted.append(outcome)
    attempted, failures = _tally(units)
    # fdadmm_ftdt runs stay out of the round counts, so a change in which of
    # them succeed cannot move rounds_per_step through the mix.
    return PassResult(solved["wall_s"], solved["latencies_s"],
                      solved["starts_s"], attempted,
                      failures, _round_counts(counted) if counted else {},
                      _public_counts(records))


# ---------------------------------------------------------------------------
# exact_family
# ---------------------------------------------------------------------------

def _fraction_mean(column) -> Fraction:
    return sum(Fraction(float(v)) for v in column) / len(column)


def setup_exact_family(seed: int, out_dir: Path, *,
                       sizes=FAMILY_SIZES) -> dict:
    rng = np.random.default_rng(seed)
    rings = [ca.random_strongly_connected(n, 0.0,
                                          seed=int(rng.integers(2**31)))
             for n in sizes]
    return {"instances": [family_instance(g, rng) for g in rings]}


def family_instance(graph, rng) -> dict:
    """Scalar and width-3 seeds for one digraph, with exact references."""
    n = graph.n
    y_scalar = rng.uniform(-5.0, 5.0, size=n)
    y_vector = rng.uniform(-5.0, 5.0, size=(n, 3))
    weights = ca.ratio_weights(graph)
    return {
        "graph": graph, "y_scalar": y_scalar, "y_vector": y_vector,
        "defects": [ca.minimal_poly_oracle(weights, j, rank_tol=1e-12) - 1
                    for j in range(n)],
        "scalar_truth": _fraction_mean(y_scalar),
        "vector_truth": [_fraction_mean(y_vector[:, c]) for c in range(3)],
    }


def _exact_instance(inst):
    try:
        term = ca.ftdt_run(inst["graph"], inst["y_scalar"], exact=True)
        vector = ca.exact_consensus_run(inst["graph"], inst["y_vector"])
    except ca.ConsensusAdmmError as exc:
        return exc.with_traceback(None)
    return term, vector


def solve_exact_family(inputs, tracer=None, pause=None) -> dict:
    calls = [(lambda inst=inst: _exact_instance(inst))
             for inst in inputs["instances"]]
    return _timed_ops(calls, tracer, pause)


def _close(value, truth: Fraction) -> bool:
    return abs(value - float(truth)) <= REL_MEAN * abs(float(truth))


def _family_output_ok(inst, term, vector) -> bool:
    defects = inst["defects"]
    d_max = max(defects)
    closed = [2 * (d_max + 1) + 2 * (m + 1) - 1 for m in defects]
    return (all(_close(v, inst["scalar_truth"])
                for v in np.atleast_1d(term.values))
            and all(_close(v, t)
                    for res in vector
                    for v, t in zip(np.atleast_1d(res.mu),
                                    inst["vector_truth"]))
            and term.defect_indices == defects
            and [res.defect for res in vector] == defects
            and term.max_defect == d_max
            and term.t_terms == closed)


def referee_exact_family(inputs, solved) -> PassResult:
    units, rounds, messages = [], [], []
    for inst, outcome in zip(inputs["instances"], solved["outcomes"]):
        if _failed(outcome):
            units.append((1, type(outcome).__name__))
            continue
        term, vector = outcome
        ok = _family_output_ok(inst, term, vector)
        units.append((1, None if ok else "wrong_output"))
        rounds.append(term.rounds)
        # the replayed counter exchange sends a seed wave plus one wave per
        # round over every edge, as the round engine would log it
        messages.append((term.rounds + 1) * inst["graph"].edge_count)
    attempted, failures = _tally(units)
    counts = ({"rounds_per_step": sum(rounds) / len(rounds),
               "messages_per_step": sum(messages) / len(messages)}
              if rounds else {})
    return PassResult(solved["wall_s"], solved["latencies_s"],
                      solved["starts_s"], attempted,
                      failures, counts, _public_counts([]))


SETUP = {"steady_small": setup_steady_small,
         "warmup_sweep": setup_warmup_sweep,
         "exact_family": setup_exact_family}
SOLVE = {"steady_small": solve_steady_small,
         "warmup_sweep": solve_warmup_sweep,
         "exact_family": solve_exact_family}
REFEREE = {"steady_small": referee_steady_small,
           "warmup_sweep": referee_warmup_sweep,
           "exact_family": referee_exact_family}
