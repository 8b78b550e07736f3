"""Solver runs: schedules, equivalence, stopping, and analysis helpers."""

import numpy as np
import pytest

from consensus_admm import (AdmmConfig, InsufficientData, L1Regularizer,
                            build_digraph, centralized_least_squares,
                            check_o1k_bound, composite_objective,
                            ergodic_averages, make_least_squares_instance,
                            minimal_poly_oracle, random_strongly_connected,
                            ratio_weights, rlinear_probe, run_dadmm_fterc,
                            run_epsilon_baseline, run_fdadmm_ftdt,
                            stopping_criterion)


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
    reg = L1Regularizer(mu=2.0)
    mask = np.array([True, False])
    with_penalty = composite_objective(objectives, point, reg, mask)
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
        return [rec.digests for rec in record.log]

    first = digests(0)
    assert len(first) > 3 and all(len(d) == graph.n for d in first)
    assert digests(0) == first
    # log[0] is step 1's seed wave, which carries x0 + lam0 / rho
    other = digests(1)
    assert all(a != b for a, b in zip(other[0], first[0]))


def test_record_messages_populates_log():
    objectives, graph = _instance()
    record = run_dadmm_fterc(objectives, graph,
                             AdmmConfig(k_max=2, stop_on_tolerance=False,
                                        record_messages=True))
    exchanges = [rec for rec in record.log if rec.kind == "exchange"]
    assert exchanges and all(rec.messages for rec in exchanges)


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
    with pytest.raises(ValueError):
        run_dadmm_fterc(objectives[:2], graph)
