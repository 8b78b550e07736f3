"""Solver runs: schedules, equivalence, stopping, and analysis helpers."""

import gc
import tracemalloc
import weakref

import numpy as np
import pytest

from consensus_admm import (AdmmConfig, Disconnected, InsufficientData,
                            L1Regularizer, LeastSquaresObjective,
                            LogisticObjective, NonIntegerResult,
                            NumericBreakdown, PhaseFlags, Reference,
                            RoundEngine, build_digraph,
                            centralized_l1_logistic,
                            centralized_least_squares, check_o1k_bound,
                            composite_objective, compute_mu_max,
                            ergodic_averages, exact_consensus_run, ftdt_run,
                            fterc_final, fterc_run,
                            make_least_squares_instance,
                            make_logistic_instance, minimal_poly_oracle,
                            random_strongly_connected, ratio_weights,
                            rlinear_probe, run_dadmm_fterc,
                            run_epsilon_baseline, run_fdadmm_ftdt,
                            split_rows, stopping_criterion)
from consensus_admm import admm, exact
from consensus_admm.admm import _SCHEDULES, _Phase
from consensus_admm.consensus import pad_kernels


def _instance(n=4, p=2, q=5, seed=3, graph_seed=1, extra=0.4):
    objectives, _ = make_least_squares_instance(n, p, q, seed=seed)
    graph = random_strongly_connected(n, extra_edge_prob=extra,
                                      seed=graph_seed)
    return objectives, graph


def test_stopping_criterion_oracle():
    rng = np.random.default_rng(2)
    x = rng.standard_normal((4, 3))
    z = rng.standard_normal((4, 3))
    z_prev = rng.standard_normal((4, 3))
    lam = rng.standard_normal((4, 3))
    rho, eps_abs, eps_rel = 1.5, 1e-3, 1e-2
    report = stopping_criterion(x, z, z_prev, lam, rho, eps_abs, eps_rel)
    scale = np.sqrt(x.size)
    assert report.primal_res == pytest.approx(np.linalg.norm(x - z))
    assert report.dual_res == pytest.approx(rho * np.linalg.norm(z - z_prev))
    assert report.eps_pri == pytest.approx(
        scale * eps_abs + eps_rel * max(np.linalg.norm(x),
                                        np.linalg.norm(z)))
    assert report.eps_dual == pytest.approx(
        scale * eps_abs + eps_rel * np.linalg.norm(lam))
    assert report.stop == (report.primal_res <= report.eps_pri
                           and report.dual_res <= report.eps_dual)
    settled = stopping_criterion(z, z, z, lam, rho, eps_abs, eps_rel)
    assert settled.stop


def test_composite_objective():
    objectives, _ = _instance(n=3)
    point = np.array([0.4, -1.2])
    plain = composite_objective(objectives, point)
    assert plain == pytest.approx(sum(o.evaluate(point) for o in objectives))
    reg = L1Regularizer(mu=2.0)           # the last coordinate is free
    with_penalty = composite_objective(objectives, point, reg)
    assert with_penalty == pytest.approx(plain + 2.0 * 0.4)


def _l1_network(n=5, rows=200, features=10, seed=4):
    """Logistic shards and the l1 penalty at a tenth of its zeroing weight;
    10 features make the penalty sum more than 8 coordinates."""
    data, labels = make_logistic_instance(rows, features, seed=seed)
    objectives = [LogisticObjective(f, y)
                  for f, y in split_rows(data, labels, n)]
    return objectives, L1Regularizer(0.1 * compute_mu_max(data, labels))


@pytest.mark.parametrize("solver", [run_dadmm_fterc, run_fdadmm_ftdt,
                                    run_epsilon_baseline])
def test_objective_column_equals_the_per_step_formula_bitwise(solver):
    # the column the step loop used to write: sum() of every node's value at
    # its x_k in node order, plus mu * ||z_k node mean||_1 over the features
    ls, graph6 = _instance(n=6, p=3, extra=0.2)
    ls[0] = type("PerNode", (LeastSquaresObjective,), {})(ls[0].mat,
                                                           ls[0].rhs)
    l1, reg = _l1_network()
    graph5 = random_strongly_connected(5, 0.2, seed=1)
    config = AdmmConfig(k_max=40, stop_on_tolerance=False)
    for objectives, graph, regularizer in ((ls, graph6, None),
                                           (l1, graph5, reg)):
        record = solver(objectives, graph, config, regularizer=regularizer)
        expected = []
        for x, z in zip(record.x_hist, record.z_hist):
            value = float(sum(obj.evaluate(x[i])
                              for i, obj in enumerate(objectives)))
            if regularizer is not None:
                point = z.mean(axis=0)
                value += regularizer.mu * float(np.sum(np.abs(point[:-1])))
            expected.append(value)
        assert record.objective.tolist() == expected


def test_objective_column_is_one_pass_after_the_step_loop(monkeypatch):
    calls = []
    totals = admm.ObjectiveStacks.totals
    penalty = L1Regularizer.penalty
    monkeypatch.setattr(admm.ObjectiveStacks, "totals",
                        lambda self, xs: calls.append(len(xs))
                        or totals(self, xs))
    monkeypatch.setattr(L1Regularizer, "penalty",
                        lambda self, points: calls.append(len(points))
                        or penalty(self, points))
    objectives, reg = _l1_network()
    graph = random_strongly_connected(5, 0.2, seed=1)
    run_dadmm_fterc(objectives, graph,
                    AdmmConfig(k_max=12, stop_on_tolerance=False),
                    regularizer=reg)
    assert calls == [12, 12]


def test_a_raising_per_node_value_raises_after_the_last_step():
    # the objective column is taken after the loop, so an evaluate that
    # raises does so once every step has run
    steps = []

    class Failing(LeastSquaresObjective):
        def solve_x_update(self, z, lam, rho):
            steps.append(len(steps) + 1)
            return super().solve_x_update(z, lam, rho)

        def evaluate(self, x):
            raise ArithmeticError("no value here")

    objectives, graph = _instance()
    objectives[2] = Failing(objectives[2].mat, objectives[2].rhs)
    with pytest.raises(ArithmeticError, match="no value here"):
        run_fdadmm_ftdt(objectives, graph,
                        AdmmConfig(k_max=7, stop_on_tolerance=False))
    assert steps == list(range(1, 8))


def _per_step_reports(record):
    """``stopping_criterion`` at each step of a record's histories, and the
    same test spelled out in plain expressions over ``np.linalg.norm``."""
    config, n = record.config, record.x_hist.shape[1]
    rho, eps_abs, eps_rel = config.rho, config.eps_abs, config.eps_rel
    z_prevs = [np.tile(record.z0, (n, 1)), *record.z_hist[:-1]]
    scale = np.sqrt(record.x_hist[0].size)
    reports, plain = [], []
    for x, z, z_prev, lam in zip(record.x_hist, record.z_hist, z_prevs,
                                 record.lam_hist):
        reports.append(stopping_criterion(x, z, z_prev, lam, rho, eps_abs,
                                          eps_rel))
        plain.append((
            _norm(x - z), float(rho * _norm(z - z_prev)),
            float(scale * eps_abs + eps_rel * max(_norm(x), _norm(z))),
            float(scale * eps_abs + eps_rel * _norm(lam))))
    return reports, plain


def _norm(a) -> float:
    return float(np.linalg.norm(a))


# numpy scalars round a plain expression to their own precision (NEP 50):
# rho * ||z - z_prev|| is a float32 here, which a float64 array expression,
# the residuals of every step at once, is not
_NUMPY_SCALARS = dict(rho=np.float32(1.7), eps_abs=np.float32(1e-4),
                      eps_rel=np.float16(1e-2))


@pytest.mark.parametrize("solver", [run_dadmm_fterc, run_fdadmm_ftdt,
                                    run_epsilon_baseline])
def test_residual_columns_are_the_per_step_test_bitwise(solver):
    ls, graph6 = _instance(n=6, p=3, extra=0.2)
    ls[0] = type("PerNode", (LeastSquaresObjective,), {})(ls[0].mat,
                                                           ls[0].rhs)
    l1, reg = _l1_network()
    graph5 = random_strongly_connected(5, 0.2, seed=1)
    for objectives, graph, regularizer in ((ls, graph6, None),
                                           (l1, graph5, reg)):
        def run(**fields):
            record = solver(objectives, graph, AdmmConfig(**fields),
                            regularizer=regularizer)
            reports, plain = _per_step_reports(record)
            names = ("primal_res", "dual_res", "eps_pri", "eps_dual")
            for name, spelled in zip(names, zip(*plain)):
                column = getattr(record, name)
                expected = np.array([getattr(r, name) for r in reports])
                assert column.dtype == float
                assert column.tobytes() == expected.tobytes(), name
                assert column.tobytes() == np.array(spelled).tobytes(), name
            # a run with the test stops at the first step it passes, if any
            if fields["stop_on_tolerance"]:
                stops = [r.stop for r in reports]
                assert not any(stops[:-1])
                assert record.stopped_early == stops[-1]
            return record

        loose = dict(eps_abs=1e-3, eps_rel=1e-2)
        fixed = run(k_max=30, stop_on_tolerance=False, **loose)
        assert not fixed.stopped_early
        stopped = run(k_max=300, stop_on_tolerance=True, **loose)
        assert stopped.stopped_early and stopped.steps < 300
        # a horizon that ends on the stopping step
        last = run(k_max=stopped.steps, stop_on_tolerance=True, **loose)
        assert last.stopped_early and last.steps == stopped.steps
        run(k_max=20, stop_on_tolerance=False, **_NUMPY_SCALARS)
        run(k_max=300, stop_on_tolerance=True, **_NUMPY_SCALARS)


def test_stopping_test_runs_in_the_loop_only_to_stop(monkeypatch):
    calls = []
    criterion = admm.stopping_criterion

    def counting(*args):
        calls.append(args)
        return criterion(*args)

    monkeypatch.setattr(admm, "stopping_criterion", counting)
    objectives, graph = _instance(n=6, p=3, extra=0.2)
    fixed = run_dadmm_fterc(objectives, graph,
                            AdmmConfig(k_max=25, stop_on_tolerance=False))
    assert calls == [] and fixed.steps == 25
    # zero tolerances: the test runs at every step and never passes
    exhaustive = run_dadmm_fterc(objectives, graph, AdmmConfig(
        k_max=25, eps_abs=0.0, eps_rel=0.0, stop_on_tolerance=True))
    assert len(calls) == 25 and not exhaustive.stopped_early
    for name in ("primal_res", "dual_res", "x_hist", "z_hist"):
        assert np.array_equal(getattr(exhaustive, name),
                              getattr(fixed, name))


@pytest.mark.parametrize("steps_per_block", [None, 1, 7, 40])
def test_residual_columns_split_into_blocks_keep_every_bit(monkeypatch,
                                                          steps_per_block):
    # 45 steps of 6 x 3 iterates: blocks of 1, 7 and 40 steps, the last two
    # ending mid-run, and a constant below one step's size
    objectives, graph = _instance(n=6, p=3, extra=0.2)
    config = AdmmConfig(k_max=45, stop_on_tolerance=False)
    expected = run_fdadmm_ftdt(objectives, graph, config)
    block = 1 if steps_per_block is None else steps_per_block * 18
    monkeypatch.setattr(admm, "_TOTALS_BLOCK", block)
    record = run_fdadmm_ftdt(objectives, graph, config)
    for name in ("primal_res", "dual_res", "eps_pri", "eps_dual"):
        assert getattr(record, name).tobytes() == \
            getattr(expected, name).tobytes()


def test_residual_pass_memory_stays_a_block_not_a_run():
    # 2,000 steps of 60 x 11 iterates: each stack is 10.6 MB, and one
    # difference of two whole stacks would be as large again
    rng = np.random.default_rng(9)
    xs, zs, z_prevs, lams = rng.standard_normal((4, 2000, 60, 11))
    tracemalloc.start()
    try:
        admm._residual_columns(xs, zs, z_prevs, lams, 1.0, 1e-4, 1e-2)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    block_bytes = admm._TOTALS_BLOCK * 8
    # two block differences, plus each step's norms and column values
    assert peak < 3 * block_bytes + 300 * len(xs), peak
    assert peak < xs.nbytes / 10


def test_warmup_schedule_with_coordinator():
    objectives, graph = _instance()
    config = AdmmConfig(k_max=5, stop_on_tolerance=False)
    record = run_dadmm_fterc(objectives, graph, config)
    n_prime = graph.n
    assert record.max_defect == max(record.defect_indices)
    assert record.t_max == record.max_defect + 1
    assert record.schedule[0] == ("step-1", 2 * n_prime)
    assert record.schedule[1] == ("step-2", n_prime)
    for name, rounds in record.schedule[2:]:
        assert rounds == record.t_max
    assert record.consensus_rounds.tolist() == (
        [2 * n_prime, n_prime] + [record.t_max] * 3)
    w = ratio_weights(graph)
    oracle = [minimal_poly_oracle(w, j, rank_tol=1e-12) - 1
              for j in range(graph.n)]
    assert record.defect_indices == oracle


def test_warmup_schedule_fully_distributed():
    objectives, graph = _instance()
    config = AdmmConfig(k_max=4, stop_on_tolerance=False)
    record = run_fdadmm_ftdt(objectives, graph, config)
    assert record.t1 == 4 * (record.max_defect + 1) - 1
    assert record.consensus_rounds.tolist() == (
        [record.t1] + [record.t_max] * 3)
    assert record.t_max == record.max_defect + 1


def test_fully_distributed_runs_read_no_size_bound():
    # n' sizes only the simulator's refusal guards (the 2n' detection
    # horizon, the 4(n' + 2) counter guard) and its buffers: every iterate,
    # schedule, log entry and refusal is the same for any n' >= n
    refused = 0
    for n in range(3, 12):
        objectives, _ = make_least_squares_instance(n, 2, 4, seed=n)
        for seed in range(4):
            graph = random_strongly_connected(n, 0.3, seed=seed)
            outcomes = set()
            for n_prime in (n, n + 1, n + 7, 3 * n):
                config = AdmmConfig(k_max=3, stop_on_tolerance=False,
                                    n_prime=n_prime)
                try:
                    record = run_fdadmm_ftdt(objectives, graph, config)
                except (NonIntegerResult, NumericBreakdown) as exc:
                    outcomes.add((type(exc), str(exc)))
                    continue
                outcomes.add((record.x_hist.tobytes(),
                              record.z_hist.tobytes(),
                              tuple(record.schedule),
                              tuple((rec.tick, rec.kind, rec.digest)
                                    for rec in record.log)))
            assert len(outcomes) == 1, (n, seed)
            refused += isinstance(outcomes.pop()[0], type)
    assert 0 < refused < 36   # the refusals are covered too


def test_oversized_bound_stretches_warmup_only():
    objectives, graph = _instance()
    config = AdmmConfig(k_max=3, stop_on_tolerance=False, n_prime=7)
    record = run_dadmm_fterc(objectives, graph, config)
    assert record.consensus_rounds.tolist() == [14, 7, record.t_max]


def test_both_algorithms_match_componentwise():
    objectives, graph = _instance()
    config = AdmmConfig(k_max=60, stop_on_tolerance=False)
    a = run_dadmm_fterc(objectives, graph, config)
    b = run_fdadmm_ftdt(objectives, graph, config)
    assert a.steps == b.steps == 60
    assert np.allclose(a.x_hist, b.x_hist, atol=1e-10)
    assert np.allclose(a.z_hist, b.z_hist, atol=1e-10)
    assert np.allclose(a.lam_hist, b.lam_hist, atol=1e-10)
    assert np.allclose(a.objective, b.objective, atol=1e-10)


def test_baseline_rounds_are_window_multiples():
    objectives, graph = _instance()
    config = AdmmConfig(k_max=4, stop_on_tolerance=False, epsilon=0.01)
    record = run_epsilon_baseline(objectives, graph, config)
    assert record.steps == 4
    for rounds in record.consensus_rounds:
        assert rounds % graph.n == 0 and rounds >= graph.n
    reference = centralized_least_squares(
        [o.mat for o in record.objectives], [o.rhs for o in record.objectives])
    assert record.final_objective() <= 2.0 * reference.f_star + 1.0


def test_certification_refuses_at_the_float_floor(monkeypatch):
    # The certified spread bottoms out at 2.2e-16 in the 14th window; an
    # epsilon below it is refused once a window no longer shrinks it,
    # not after the 10,000-window cap
    objectives, _ = make_least_squares_instance(6, 3, 5, seed=1)
    graph = random_strongly_connected(6, 0.2, seed=1)
    rounds = []
    original = admm.ratio_update

    def counting(*args, **kwargs):
        rounds.append(None)
        return original(*args, **kwargs)

    monkeypatch.setattr(admm, "ratio_update", counting)
    with pytest.raises(NumericBreakdown, match="epsilon 1e-300"):
        run_epsilon_baseline(objectives, graph,
                             AdmmConfig(k_max=1, epsilon=1e-300))
    assert len(rounds) <= 20 * graph.n


@pytest.mark.parametrize("solver", [run_dadmm_fterc, run_fdadmm_ftdt,
                                    run_epsilon_baseline])
def test_round_digests_replay(solver):
    objectives, graph = _instance()

    def digests(seed):
        record = solver(objectives, graph,
                        AdmmConfig(k_max=3, stop_on_tolerance=False,
                                   seed=seed))
        return [rec.digest for rec in record.log]

    first = digests(0)
    assert len(first) > 3 and all(isinstance(d, str) for d in first)
    assert digests(0) == first
    # log[0] is step 1's seed wave, which carries x0 + lam0 / rho
    assert digests(1)[0] != first[0]


def test_ergodic_averages_cumsum_oracle():
    objectives, graph = _instance()
    record = run_dadmm_fterc(objectives, graph,
                             AdmmConfig(k_max=7, stop_on_tolerance=False))
    x_bar, z_bar = ergodic_averages(record)
    assert x_bar.shape == record.x_hist.shape
    assert np.allclose(x_bar[0], record.x_hist[0])
    assert np.allclose(x_bar[4], record.x_hist[:5].mean(axis=0))
    assert np.allclose(z_bar[6], record.z_hist[:7].mean(axis=(0, 1)))


def test_gap_bound_smoke():
    objectives, graph = _instance()
    reference = centralized_least_squares([o.mat for o in objectives],
                                          [o.rhs for o in objectives])
    config = AdmmConfig(k_max=40, stop_on_tolerance=False, init="zero")
    record = run_dadmm_fterc(objectives, graph, config)
    # the run leaves the bound alone; the check attaches both sides
    assert record.bound_lhs is None and record.bound_rhs is None
    report = check_o1k_bound(record, reference)
    assert report.holds(slack=1e-8)
    assert report.rhs[0] == pytest.approx(2.0 * report.rhs[1])
    assert np.array_equal(record.bound_lhs, report.lhs)
    assert record.bound_lhs.size == 40


def test_gap_bound_refuses_what_it_does_not_cover():
    # The bound is the smooth one. On an l1 record the l1 reference, which
    # has no multipliers, once failed inside numpy's einsum, and a reference
    # with multipliers gave a smooth-only bound that did not hold.
    features, labels = make_logistic_instance(60, 3, seed=2)
    objectives = [LogisticObjective(f, l)
                  for f, l in split_rows(features, labels, 5)]
    mu = 0.1 * compute_mu_max(features, labels)
    record = run_dadmm_fterc(
        objectives, random_strongly_connected(5, 0.3, seed=1),
        AdmmConfig(k_max=20, stop_on_tolerance=False),
        regularizer=L1Regularizer(mu))
    l1_reference = centralized_l1_logistic(features, labels, mu)
    with_multipliers = Reference(l1_reference.x_star, l1_reference.f_star,
                                 np.zeros((5, objectives[0].dim)),
                                 "made up", 0.0)
    for reference in (l1_reference, with_multipliers):
        with pytest.raises(ValueError, match="smooth runs only"):
            check_o1k_bound(record, reference)
    assert record.bound_lhs is None and record.bound_rhs is None
    # a smooth record still needs the reference's multipliers
    objectives, graph = _instance()
    smooth = run_dadmm_fterc(objectives, graph, AdmmConfig(k_max=5))
    with pytest.raises(ValueError, match="lambda_star None"):
        check_o1k_bound(smooth, Reference(np.zeros(2), 0.0, None, "x", 0.0))
    assert smooth.bound_lhs is None


def test_rlinear_probe_geometric():
    errors = 3.0 * 0.5 ** np.arange(1, 41)
    report = rlinear_probe(errors)
    assert report.slope == pytest.approx(np.log10(0.5), abs=1e-12)
    with pytest.raises(InsufficientData):
        rlinear_probe(np.full(30, 1e-15))


@pytest.mark.parametrize("bad, index", [
    ([0.5 ** k for k in range(20)] + [np.inf], 20),
    ([0.5 ** k for k in range(20)] + [np.nan, -1.0], 20),
    ([1.0, -1e-300] + [0.5 ** k for k in range(20)], 1),
    ([-np.inf] * 3, 0),
])
def test_rlinear_probe_refuses_errors_that_are_not_finite_and_nonnegative(
        bad, index):
    # an infinite error gave a NaN slope, and NaN or negative ones were
    # dropped as if they were below the noise floor
    with pytest.raises(ValueError, match=f"at index {index}$"):
        rlinear_probe(bad)
    # zeros, either sign, are errors below the noise floor
    assert rlinear_probe([-0.0, 0.0] + [0.5 ** k for k in range(20)]).slope \
        == pytest.approx(np.log10(0.5), abs=1e-12)


def test_rlinear_probe_on_run():
    objectives, graph = _instance()
    reference = centralized_least_squares([o.mat for o in objectives],
                                          [o.rhs for o in objectives])
    record = run_dadmm_fterc(objectives, graph,
                             AdmmConfig(k_max=80, stop_on_tolerance=False))
    diff = record.x_hist - reference.x_star[None, None, :]
    errors = np.linalg.norm(diff.reshape(record.steps, -1), axis=1)
    report = rlinear_probe(errors)
    assert report.slope < 0


def test_single_node_network_end_to_end():
    objectives, _ = make_least_squares_instance(1, 2, 6, seed=4)
    graph = build_digraph(1, [])
    record = run_fdadmm_ftdt(objectives, graph,
                             AdmmConfig(k_max=30, stop_on_tolerance=False))
    assert record.t1 == 3 and record.t_max == 1 and record.max_defect == 0
    reference = centralized_least_squares([objectives[0].mat],
                                          [objectives[0].rhs])
    assert record.final_objective() == pytest.approx(reference.f_star,
                                                     rel=1e-8)


def test_stop_on_tolerance_truncates_histories():
    objectives, graph = _instance()
    config = AdmmConfig(k_max=500, eps_abs=1e-3, eps_rel=1e-2)
    record = run_dadmm_fterc(objectives, graph, config)
    assert record.stopped_early
    assert record.steps < 500
    assert record.objective.size == record.steps
    assert record.x_hist.shape[0] == record.steps
    assert record.k[-1] == record.steps
    report = stopping_criterion(record.x_hist[-1], record.z_hist[-1],
                                record.z_hist[-2], record.lam_hist[-1],
                                config.rho, config.eps_abs, config.eps_rel)
    assert report.stop
    # a horizon that ends on the stopping step still reports the stop
    config.k_max = record.steps
    again = run_dadmm_fterc(objectives, graph, config)
    assert again.stopped_early and again.steps == record.steps
    for name in ("objective", "primal_res", "dual_res", "eps_pri", "eps_dual",
                 "consensus_rounds", "x_hist", "z_hist", "lam_hist"):
        assert np.array_equal(getattr(again, name), getattr(record, name))
    assert again.schedule == record.schedule


def test_initialization_modes():
    objectives, graph = _instance()
    zero = run_dadmm_fterc(objectives, graph,
                           AdmmConfig(k_max=1, stop_on_tolerance=False,
                                      init="zero"))
    assert not zero.x0.any() and not zero.lam0.any() and not zero.z0.any()
    r1 = run_dadmm_fterc(objectives, graph,
                         AdmmConfig(k_max=1, stop_on_tolerance=False, seed=9))
    r2 = run_dadmm_fterc(objectives, graph,
                         AdmmConfig(k_max=1, stop_on_tolerance=False, seed=9))
    assert np.array_equal(r1.x0, r2.x0)
    assert r1.x0.any()


def test_config_validation_errors():
    objectives, graph = _instance()
    for bad in (AdmmConfig(rho=0.0), AdmmConfig(k_max=0),
                AdmmConfig(eps_abs=-1.0), AdmmConfig(init="warm"),
                AdmmConfig(epsilon=0.0), AdmmConfig(n_prime=2)):
        with pytest.raises(ValueError):
            run_dadmm_fterc(objectives, graph, bad)
    # a fractional or boolean count is refused by name, not deep in the run
    for name, value in (("k_max", 2.5), ("n_prime", 5.5), ("k_max", True),
                        ("seed", 1.5)):
        with pytest.raises(ValueError, match=f"{name} must be an integer"):
            run_dadmm_fterc(objectives, graph, AdmmConfig(**{name: value}))
    # a float field refuses bools and non-real values by name, not with a
    # raw TypeError from the finiteness check
    for name, value in (("rho", "1"), ("eps_abs", None), ("rho", 1 + 0j),
                        ("rho", True), ("eps_rel", False),
                        ("epsilon", np.complex128(0.5))):
        with pytest.raises(ValueError, match=f"^{name} must be a real"):
            run_dadmm_fterc(objectives, graph, AdmmConfig(**{name: value}))
    # a negative seed is refused by name, not by numpy's generator
    with pytest.raises(ValueError, match="seed must be nonnegative"):
        run_dadmm_fterc(objectives, graph, AdmmConfig(seed=-1))
    with pytest.raises(ValueError):
        run_dadmm_fterc(objectives[:2], graph)
    wider = LeastSquaresObjective(np.ones((5, 3)), np.ones(5))
    with pytest.raises(ValueError, match="share one dimension"):
        run_dadmm_fterc(objectives[:3] + [wider], graph)
    # a stopping switch is a bool: the string 'false' once read as true
    for value in ("false", 1, None):
        with pytest.raises(ValueError, match="^stop_on_tolerance must be"):
            run_dadmm_fterc(objectives, graph,
                            AdmmConfig(stop_on_tolerance=value))
    fixed = run_dadmm_fterc(objectives, graph, AdmmConfig(
        k_max=30, eps_abs=1e-3, eps_rel=1e-2, stop_on_tolerance=np.False_))
    assert fixed.steps == 30 and not fixed.stopped_early


@pytest.mark.parametrize("solver", [run_dadmm_fterc, run_fdadmm_ftdt,
                                    run_epsilon_baseline])
def test_objectives_of_dimension_zero_are_refused_before_any_round(solver):
    # they once failed inside the first phase, on a ratio row of one column
    # or on the penalty mask's intercept index
    objectives, _ = make_least_squares_instance(4, 0, 5, seed=1)
    graph = random_strongly_connected(4, 0.3, seed=1)
    config = AdmmConfig(k_max=3, stop_on_tolerance=False)
    for regularizer in (None, L1Regularizer(0.1)):
        with pytest.raises(ValueError, match="dimension at least 1, got 0"):
            solver(objectives, graph, config, regularizer=regularizer)
    with pytest.raises(ValueError, match="got dimension 0"):
        L1Regularizer(0.1).penalized_mask(0)


def test_open_stopping_counters_are_refused_at_the_guard():
    # counters frozen at defect 5 fire at round 12 at the earliest, which
    # is past the guard of 4(n' + 2) = 12 rounds that n' = 1 allows
    ring6 = random_strongly_connected(6, 0.0, seed=1)
    phase = _Phase(RoundEngine(ring6, audit=False),
                   PhaseFlags(terminate=True), 1, n_prime=1,
                   defect_sizes=[5] * 6)
    with pytest.raises(NumericBreakdown, match="stopping counters still "
                                               "open after 12 rounds"):
        phase.run("terminate", np.ones((6, 1)))


def _detection_phase(n, width, seed):
    """A detecting phase after one run, and the values that run returned."""
    g = random_strongly_connected(n, extra_edge_prob=0.3, seed=seed)
    seeds = np.random.default_rng(seed).uniform(-5, 5, size=(n, width))
    phase = _Phase(RoundEngine(g, audit=False), PhaseFlags(detect=True), width,
                   n_prime=n)
    return phase, phase.run("detect", seeds)


def test_exact_values_match_per_node_contiguous_calls_bitwise():
    # Histories stay bitwise reproducible only while the values a phase
    # returns, from its whole trajectory, are those of one fresh
    # C-contiguous copy of each node's own [x, y] rows.
    cases = 0
    for seed in range(12):
        for width in (1, 3, 5):
            phase, values = _detection_phase(3 + seed % 7, width, seed)
            betas, traj = phase.detector.beta, phase.traj
            per_node = np.stack([
                fterc_final(np.ascontiguousarray(traj[:len(beta), i]), beta)
                for i, beta in enumerate(betas)])
            assert phase.kernels.tobytes() == pad_kernels(betas).tobytes()
            assert values.shape == per_node.shape
            assert values.tobytes() == per_node.tobytes()
            cases += len({len(beta) for beta in betas}) > 1
    assert cases                           # kernels of unequal lengths met


def test_phase_trajectories_are_sized_by_their_readers():
    n = 6
    g = random_strongly_connected(n, extra_edge_prob=0.3, seed=2)
    seeds = np.random.default_rng(2).uniform(-5, 5, size=(n, 2))

    def phase(flags, graph=g, **kw):
        built = _Phase(RoundEngine(graph, audit=False), flags, 2, n_prime=n,
                       **kw)
        return built, built.run("p", seeds)

    # a detecting phase reads rows up to the round its detector closed,
    # the last node's 2d + 1, and doubles its rows only that far, also
    # when its counters run on past it
    detect, _ = phase(PhaseFlags(detect=True))
    stopping, values = phase(PhaseFlags(detect=True, terminate=True))
    closed = 2 * max(detect.detector.defect) + 1
    assert (stopping.counters.t_term > closed).any()
    for built in (detect, stopping):
        assert built.last == closed
        assert closed < len(built.traj) < 2 * (closed + 1)
    # the exact lane's counters and certification read round 0 only
    exact, _ = phase(PhaseFlags(terminate=True),
                     defect_sizes=detect.detector.defect)
    assert exact.traj.shape == (1, n, 3)
    assert exact.counters.t_term.tolist() == stopping.counters.t_term.tolist()
    certify, snap = phase(PhaseFlags(certify=True), epsilon=1e-3)
    assert certify.traj.shape == (1, n, 3)
    # the max-consensus and steady phases read every round
    piggy, _ = phase(PhaseFlags(piggyback=True), defect_sizes=[3] * n)
    assert piggy.traj.shape == (n + 1, n, 3)
    assert piggy.max_defect == 3
    assert phase(PhaseFlags(), after=piggy)[0].traj.shape == (5, n, 3)
    # a run restarts the phase whatever it carries: fresh detector,
    # counters and certification state, the same rounds and values
    t_term = stopping.counters.t_term.tolist()
    for first, found in ((stopping, values), (exact, None), (certify, snap)):
        tick = first.engine.tick
        again = first.run("again", seeds)
        assert first.engine.tick == 2 * tick
        if found is not None:
            assert again.tobytes() == found.tobytes()
        if first.counters is not None:
            assert first.counters.t_term.tolist() == t_term
    assert stopping.detector.defect == detect.detector.defect
    assert stopping.last == closed
    # and it resets the horizon: on a ring, tied seeds close the detector
    # at round 1, and the next seeds need rows up to round 2n - 1
    ring = random_strongly_connected(n, extra_edge_prob=0.0, seed=2)
    tied = _Phase(RoundEngine(ring, audit=False), PhaseFlags(detect=True), 2,
                  n_prime=n)
    tied.run("tied", np.ones((n, 2)))
    assert tied.last == 1 and len(tied.traj) == 2
    fresh, expected = phase(PhaseFlags(detect=True), graph=ring)
    assert tied.run("again", seeds).tobytes() == expected.tobytes()
    assert tied.last == fresh.last == 2 * n - 1


def test_tied_ring_fires_inside_the_terminating_phase():
    # Tied seeds on a 6-ring. A stopped node keeps mixing its ratio pair,
    # so node 4 fires with the defect a detect-only phase finds; the nodes'
    # stopping rounds then disagree on the largest defect index, and the
    # phase, so also ftdt_run, refuses the run rather than guess.
    g = random_strongly_connected(6, extra_edge_prob=0.0, seed=5)
    seeds = np.array([[0.0], [0.0], [-2.0], [-2.0], [-2.0], [-2.0]])
    engine = RoundEngine(g, audit=False)
    phase = _Phase(engine, PhaseFlags(detect=True, terminate=True), 1,
                   n_prime=6)
    with pytest.raises(NonIntegerResult,
                       match=r"largest defect index: \[0, 1, 4\]"):
        phase.run("t", seeds)
    alone = _Phase(RoundEngine(g, audit=False), PhaseFlags(detect=True), 1,
                   n_prime=6)
    alone.run("d", seeds)
    assert phase.detector.defect == alone.detector.defect == [1, 0, 0, 0, 4, 0]
    assert phase.counters.t_term.tolist() == [7, 5, 11, 3, 19, 3]
    assert engine.tick == 19
    with pytest.raises(NonIntegerResult,
                       match=r"largest defect index: \[0, 1, 4\]"):
        ftdt_run(g, seeds[:, 0])


@pytest.mark.parametrize("flags", [PhaseFlags(detect=True),
                                   PhaseFlags(detect=True, terminate=True)])
def test_detector_open_at_its_horizon_is_a_breakdown(flags):
    # n' = 2 is below what a 6-ring needs: no node fires by round 2n' = 4,
    # and the phase refuses there, also when its counters could run on.
    g = random_strongly_connected(6, extra_edge_prob=0.0, seed=1)
    seeds = np.random.default_rng(0).uniform(-5, 5, size=(6, 2))
    engine = RoundEngine(g, audit=False)
    with pytest.raises(NumericBreakdown,
                       match="node 0 found no defect within 4 rounds"):
        _Phase(engine, flags, 2, n_prime=2).run("t", seeds)
    # the round that raised is not counted: tick is the log's last
    assert engine.tick == engine.log[-1].tick == 3


def _l1_logistic_problem():
    features, labels = make_logistic_instance(60, 4, seed=2)
    objectives = [LogisticObjective(f, y)
                  for f, y in split_rows(features, labels, 5)]
    mu = 0.1 * compute_mu_max(features, labels)
    return (objectives, random_strongly_connected(5, 0.2, seed=1),
            L1Regularizer(mu))


@pytest.mark.parametrize("stop_on_tolerance", [True, False])
@pytest.mark.parametrize("problem", ["least_squares", "l1_logistic"])
@pytest.mark.parametrize("solver", [run_dadmm_fterc, run_fdadmm_ftdt,
                                    run_epsilon_baseline])
def test_steady_restart_equals_a_rebuilt_phase(monkeypatch, solver, problem,
                                               stop_on_tolerance):
    # A run builds a phase only when its schedule entry changes and reruns
    # the steady one at every later step; a rerun must leave nothing behind
    # that a freshly built phase would not.
    if problem == "least_squares":
        (objectives, graph), regularizer = _instance(n=6, p=3), None
    else:
        objectives, graph, regularizer = _l1_logistic_problem()
    config = AdmmConfig(k_max=40, stop_on_tolerance=stop_on_tolerance)
    built = []
    init, run = _Phase.__init__, _Phase.run

    def counted(self, *args, **kwargs):
        built.append(self)
        self.built_with = args, kwargs
        init(self, *args, **kwargs)

    monkeypatch.setattr(_Phase, "__init__", counted)
    reused = solver(objectives, graph, config, regularizer=regularizer)
    reused_phases = len(built)

    def rebuilt_run(self, label, seeds):
        if hasattr(self, "t0"):     # ran before: rebuild it from nothing
            args, kwargs = self.built_with
            self.__dict__.clear()
            counted(self, *args, **kwargs)
        return run(self, label, seeds)

    monkeypatch.setattr(_Phase, "run", rebuilt_run)
    rebuilt = solver(objectives, graph, config, regularizer=regularizer)
    assert len(built) - reused_phases == rebuilt.steps
    warmup = {"run_dadmm_fterc": 2, "run_fdadmm_ftdt": 1,
              "run_epsilon_baseline": 0}[solver.__name__]
    assert reused_phases == min(warmup + 1, rebuilt.steps)
    assert reused.steps == rebuilt.steps > 3
    for name in ("objective", "primal_res", "dual_res", "eps_pri", "eps_dual",
                 "consensus_rounds", "x_hist", "z_hist", "lam_hist"):
        assert getattr(reused, name).tobytes() == \
            getattr(rebuilt, name).tobytes(), name
    assert reused.schedule == rebuilt.schedule
    assert reused.log == rebuilt.log          # every entry, digests included


def test_a_finished_run_frees_its_phases(monkeypatch):
    # A phase keeps its engine, and through it the round log: it must hold
    # no reference cycle, so a dropped run frees both at once instead of at
    # the next full collection.
    refs = []
    init = _Phase.__init__

    def tracked(self, *args, **kwargs):
        refs.append(weakref.ref(self))
        init(self, *args, **kwargs)

    monkeypatch.setattr(_Phase, "__init__", tracked)
    objectives, graph = _instance()
    config = AdmmConfig(k_max=3, stop_on_tolerance=False)
    seeds = np.random.default_rng(1).uniform(-5, 5, size=graph.n)
    gc.disable()
    try:
        for solver in (run_dadmm_fterc, run_fdadmm_ftdt,
                       run_epsilon_baseline):
            solver(objectives, graph, config)
        for exact in (False, True):
            ftdt_run(graph, seeds, exact=exact)
        assert refs and all(ref() is None for ref in refs)
    finally:
        gc.enable()


@pytest.mark.parametrize("solver", [run_dadmm_fterc, run_fdadmm_ftdt])
def test_warmup_phases_are_freed_while_the_steady_phase_runs(monkeypatch,
                                                             solver):
    # A phase copies what the phase before it found and keeps no reference
    # to it, so the detection phase's (2n' + 1, n, p + 1) trajectory is not
    # held through the steady steps.
    refs, alive = [], []
    init, run = _Phase.__init__, _Phase.run

    def tracked(self, *args, **kwargs):
        refs.append(weakref.ref(self))
        init(self, *args, **kwargs)

    def counted(self, label, seeds):
        alive.append(sum(ref() is not None for ref in refs))
        return run(self, label, seeds)

    monkeypatch.setattr(_Phase, "__init__", tracked)
    monkeypatch.setattr(_Phase, "run", counted)
    objectives, graph = _instance()
    steps = 5
    gc.disable()
    try:
        record = solver(objectives, graph,
                        AdmmConfig(k_max=steps, stop_on_tolerance=False))
    finally:
        gc.enable()
    assert record.steps == steps
    assert len(refs) == len(_SCHEDULES[solver.__name__[4:]][0]) + 1
    assert alive == [1] * steps        # only the phase about to run


def test_exact_values_read_only_written_rows(monkeypatch):
    # Trajectories come from np.empty, and fterc_final reads every row
    # below the longest kernel: each of those rows must have been written
    # (the last node fires at round 2 d_max + 1 >= d_max). Filling every
    # new float array with NaN shows any row that was not.
    empty = np.empty

    def nan_empty(*args, **kwargs):
        out = empty(*args, **kwargs)
        if out.dtype.kind == "f":
            out.fill(np.nan)
        return out

    objectives, graph = _instance(n=6, p=3)
    config = AdmmConfig(k_max=6, stop_on_tolerance=False)
    cases = [(n, width, seed) for seed in range(8) for n in (2, 5, 9)
             for width in (1, 3)]
    solvers = (run_dadmm_fterc, run_fdadmm_ftdt)

    def outputs():
        for case in cases:
            phase, values = _detection_phase(*case)
            betas = phase.detector.beta
            assert np.isfinite(phase.traj[:max(map(len, betas))]).all()
            yield values.tobytes()
        for solver in solvers:
            yield solver(objectives, graph, config).z_hist.tobytes()

    expected = list(outputs())
    monkeypatch.setattr(np, "empty", nan_empty)
    assert list(outputs()) == expected


def test_stopping_residuals_equal_linalg_norm_bitwise():
    # The stopping test takes each norm as sqrt(r . r) over the ravelled
    # array, numpy's own path for np.linalg.norm of a real array; the
    # residual histories are pinned on that equality.
    rng = np.random.default_rng(7)
    norm = np.linalg.norm
    rho, eps_abs, eps_rel = 1.7, 1e-4, 1e-2
    for shape in ((6, 3), (5, 11), (1, 1), (13, 7)):
        scales = 10.0 ** rng.integers(-8, 8, size=(4, 1, 1))
        arrays = rng.standard_normal((4, *shape)) * scales
        # C-ordered rows, then transposed views of them
        for x, z, z_prev, lam in (arrays, arrays.transpose(0, 2, 1)):
            report = stopping_criterion(x, z, z_prev, lam, rho, eps_abs,
                                        eps_rel)
            scale = np.sqrt(x.size)
            assert report.primal_res == float(norm(x - z))
            assert report.dual_res == float(rho * norm(z - z_prev))
            assert report.eps_pri == float(
                scale * eps_abs + eps_rel * max(norm(x), norm(z)))
            assert report.eps_dual == float(
                scale * eps_abs + eps_rel * float(norm(lam)))


@pytest.mark.parametrize("graph, seeds", [
    # two disjoint directed 3-cycles: each averages alone, to 3 and 11
    (build_digraph(6, [(1, 0), (2, 1), (0, 2), (4, 3), (5, 4), (3, 5)]),
     [1.0, 2.0, 6.0, 10.0, 11.0, 12.0]),
    # a directed path: no certification window ever closes
    (build_digraph(20, [(i, i + 1) for i in range(19)]),
     np.arange(20.0)),
])
def test_digraphs_not_strongly_connected_are_refused_before_any_round(
        monkeypatch, graph, seeds):
    def no_round(*args, **kwargs):
        raise AssertionError("a round ran")

    monkeypatch.setattr(RoundEngine, "prime", no_round)
    monkeypatch.setattr(exact, "_exact_trajectories", no_round)
    objectives, _ = make_least_squares_instance(graph.n, 2, 4, seed=1)
    config = AdmmConfig(k_max=2)
    calls = [lambda: fterc_run(graph, seeds),
             lambda: ftdt_run(graph, seeds),
             lambda: ftdt_run(graph, seeds, exact=True),
             lambda: exact_consensus_run(graph, seeds)]
    calls += [lambda solver=solver: solver(objectives, graph, config)
              for solver in (run_dadmm_fterc, run_fdadmm_ftdt,
                             run_epsilon_baseline)]
    for call in calls:
        with pytest.raises(Disconnected, match="strongly connected"):
            call()
