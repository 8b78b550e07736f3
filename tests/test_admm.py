"""Solver runs: schedules, equivalence, stopping, and analysis helpers."""

import numpy as np
import pytest

from consensus_admm import (AdmmConfig, InsufficientData, L1Regularizer,
                            LogisticObjective, NonIntegerResult,
                            NumericBreakdown, PhaseFlags, RoundEngine,
                            build_digraph, centralized_least_squares,
                            check_o1k_bound, composite_objective,
                            compute_mu_max, ergodic_averages, ftdt_run,
                            fterc_final, make_least_squares_instance,
                            make_logistic_instance, minimal_poly_oracle,
                            random_strongly_connected, ratio_weights,
                            rlinear_probe, run_dadmm_fterc,
                            run_epsilon_baseline, run_fdadmm_ftdt,
                            split_rows, stopping_criterion)
from consensus_admm import admm
from consensus_admm.admm import _consensus_phase, _Phase
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
    record = run_dadmm_fterc(objectives, graph, config,
                             reference=reference)
    # the run attached both sides itself
    assert record.bound_lhs is not None and record.bound_lhs.size == 40
    report = check_o1k_bound(record, reference)
    assert report.holds(slack=1e-8)
    assert report.rhs[0] == pytest.approx(2.0 * report.rhs[1])
    assert np.array_equal(record.bound_lhs, report.lhs)


def test_rlinear_probe_geometric():
    errors = 3.0 * 0.5 ** np.arange(1, 41)
    report = rlinear_probe(errors)
    assert report.slope == pytest.approx(np.log10(0.5), abs=1e-12)
    with pytest.raises(InsufficientData):
        rlinear_probe(np.full(30, 1e-15))


def test_rlinear_probe_on_run():
    objectives, graph = _instance()
    reference = centralized_least_squares([o.mat for o in objectives],
                                          [o.rhs for o in objectives])
    record = run_dadmm_fterc(objectives, graph,
                             AdmmConfig(k_max=80, stop_on_tolerance=False))
    report = rlinear_probe(record, reference.x_star)
    assert report.slope < 0
    with pytest.raises(ValueError):
        rlinear_probe(record)


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


def _detection_phase(n, width, seed):
    g = random_strongly_connected(n, extra_edge_prob=0.3, seed=seed)
    seeds = np.random.default_rng(seed).uniform(-5, 5, size=(n, width))
    return _consensus_phase(RoundEngine(g, audit=False), seeds,
                            PhaseFlags(detect=True), "detect", n_prime=n)


def test_exact_values_match_per_node_contiguous_calls_bitwise():
    # Histories stay bitwise reproducible only while the whole trajectory
    # a phase hands fterc_final gives the values of one fresh
    # C-contiguous copy of each node's own [x, y] rows.
    cases = 0
    for seed in range(12):
        for width in (1, 3, 5):
            phase = _detection_phase(3 + seed % 7, width, seed)
            betas, traj = phase.detector.beta, phase.traj
            per_node = np.stack([
                fterc_final(np.ascontiguousarray(traj[:len(beta), i]), beta)
                for i, beta in enumerate(betas)])
            values = fterc_final(traj, pad_kernels(betas))
            assert values.shape == per_node.shape
            assert values.tobytes() == per_node.tobytes()
            cases += len({len(beta) for beta in betas}) > 1
    assert cases                           # kernels of unequal lengths met


def test_phase_that_outruns_its_trajectory_raises():
    g = random_strongly_connected(4, extra_edge_prob=0.3, seed=1)
    engine = RoundEngine(g, audit=False)
    seeds = np.random.default_rng(1).uniform(-5, 5, size=(4, 2))
    phase = _Phase(engine, seeds, PhaseFlags(), rounds=2, defect_sizes=None,
                   window=4, spread_eps=None)
    engine.prime(phase.wave(1), pad=phase.pad)
    engine.run_phase(phase.update, 2)
    with pytest.raises(IndexError):
        engine.run_round(phase.update)
    assert phase.traj.shape == (3, 4, 3)


def test_phase_trajectories_are_sized_by_their_readers():
    n = 6
    g = random_strongly_connected(n, extra_edge_prob=0.3, seed=2)
    seeds = np.random.default_rng(2).uniform(-5, 5, size=(n, 2))

    def phase(flags, **kw):
        return _consensus_phase(RoundEngine(g, audit=False), seeds, flags,
                                "p", n_prime=n, **kw)

    # a detecting phase keeps the detector's 2n' horizon, also when its
    # counters run on past it
    detect = phase(PhaseFlags(detect=True))
    assert detect.traj.shape == (2 * n + 1, n, 3)
    stopping = phase(PhaseFlags(detect=True, terminate=True))
    assert stopping.traj.shape == (2 * n + 1, n, 3)
    assert (stopping.counters.t_term > 2 * n).any()
    # the exact lane's counters read no trajectory: round 0 only
    exact = phase(PhaseFlags(terminate=True),
                  defect_sizes=detect.detector.defect)
    assert exact.traj.shape == (1, n, 3)
    assert exact.counters.t_term.tolist() == stopping.counters.t_term.tolist()
    certify = phase(PhaseFlags(certify=True), epsilon=1e-3)
    assert certify.traj.shape == (1, n, 3)
    piggy = phase(PhaseFlags(piggyback=True), defect_sizes=[3] * n)
    assert piggy.traj.shape == (n + 1, n, 3)
    assert phase(PhaseFlags(), t_max=4).traj.shape == (5, n, 3)


def test_tied_ring_fires_inside_the_terminating_phase():
    # Tied seeds on a 6-ring. A stopped node keeps mixing its ratio pair,
    # so node 4 fires with the defect a detect-only phase finds; the nodes'
    # stopping rounds then disagree on the largest defect index, and
    # ftdt_run refuses the run rather than guess.
    g = random_strongly_connected(6, extra_edge_prob=0.0, seed=5)
    seeds = np.array([[0.0], [0.0], [-2.0], [-2.0], [-2.0], [-2.0]])
    engine = RoundEngine(g, audit=False)
    phase = _consensus_phase(engine, seeds,
                             PhaseFlags(detect=True, terminate=True), "t",
                             n_prime=6)
    alone = _consensus_phase(RoundEngine(g, audit=False), seeds,
                             PhaseFlags(detect=True), "d", n_prime=6)
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
        _consensus_phase(engine, seeds, flags, "t", n_prime=2)
    assert engine.tick == 4


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
    # A run restarts one steady phase at every step after its warm-up; it
    # must leave nothing behind that a freshly built phase would not.
    if problem == "least_squares":
        (objectives, graph), regularizer = _instance(n=6, p=3), None
    else:
        objectives, graph, regularizer = _l1_logistic_problem()
    config = AdmmConfig(k_max=40, stop_on_tolerance=stop_on_tolerance)
    built = []
    init = _Phase.__init__

    def counted(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(_Phase, "__init__", counted)
    reused = solver(objectives, graph, config, regularizer=regularizer)
    reused_phases = len(built)
    run_phase = admm._consensus_phase
    monkeypatch.setattr(admm, "_consensus_phase",
                        lambda *args, reuse=None, **kw: run_phase(*args, **kw))
    rebuilt = solver(objectives, graph, config, regularizer=regularizer)
    assert len(built) - reused_phases == rebuilt.steps
    warmup = {"run_dadmm_fterc": 2, "run_fdadmm_ftdt": 1}.get(
        solver.__name__, rebuilt.steps - 1)
    assert reused_phases == min(warmup + 1, rebuilt.steps)
    assert reused.steps == rebuilt.steps > 3
    for name in ("objective", "primal_res", "dual_res", "eps_pri", "eps_dual",
                 "consensus_rounds", "x_hist", "z_hist", "lam_hist"):
        assert getattr(reused, name).tobytes() == \
            getattr(rebuilt, name).tobytes(), name
    assert reused.schedule == rebuilt.schedule
    assert reused.log == rebuilt.log          # every entry, digests included


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
            phase = _detection_phase(*case)
            betas = phase.detector.beta
            assert np.isfinite(phase.traj[:max(map(len, betas))]).all()
            yield fterc_final(phase.traj, pad_kernels(betas)).tobytes()
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
