"""End-to-end acceptance gate.

Each test prints one ``CRITERION <k>: PASS`` / ``FAIL`` line (visible under
``pytest -rA`` or in the captured output of a failing run). Tolerances are
pinned in the assertions themselves.

1. Exact averaging on 100 seeded digraphs (n = 2..20, scalar and width-3
   inputs): every node within 1e-8 relative of the true mean, detected
   defect index + 1 <= n, under 30 s total.
2. Self-termination on the same instances: every node stops exactly at the
   closed-form round, within the worst-case budget, and derives the same
   network-wide defect bound as the minimal-polynomial oracle.
3. The coordinated and fully distributed solvers match componentwise to
   1e-10 through 200 steps on a shared least-squares instance.
4. The distributed objective reaches the centralized optimum to 1e-6
   relative by step 500; the inexact-averaging baseline does no better.
5. The O(1/k) ergodic gap bound holds at every step from zero starts.
6. Round schedules: 2n' / n' / t_max for the coordinated warm-up and
   4(d_max+1)-1 / t_max for the fully distributed one, exactly as logged.
7. At n = 20 and n = 50 the steady-state exact phase uses strictly fewer
   rounds per step than the epsilon = 0.01 baseline ever does.
8. The l1-regularized logistic run lands within 1e-3 relative of the
   proximal-gradient reference with node-identical shared iterates (1e-8).
9. The iterate error decays R-linearly: negative tail slope and
   ||X_k - X*|| <= 1e-6 by step 200.
"""

import time
from contextlib import contextmanager
from fractions import Fraction

import numpy as np
import pytest

from consensus_admm import (AdmmConfig, L1Regularizer, LogisticObjective,
                            centralized_l1_logistic,
                            centralized_least_squares, check_o1k_bound,
                            compute_mu_max, exact_consensus_run, ftdt_run,
                            make_least_squares_instance,
                            make_logistic_instance, minimal_poly_oracle,
                            random_strongly_connected, ratio_weights,
                            rlinear_probe, run_dadmm_fterc,
                            run_epsilon_baseline, run_fdadmm_ftdt,
                            split_rows)

REL_MEAN = 1e-8        # criterion 1: relative error of every consensus value
FAMILY_BUDGET = 30.0   # criterion 1: seconds for all 100 instances
EQUIV_ATOL = 1e-10     # criterion 3: componentwise solver agreement
OPT_REL = 1e-6         # criterion 4: relative objective gap at step 500
BASELINE_SLACK = 1e-9  # criterion 4: baseline may not beat the exact run
BOUND_SLACK = 1e-8     # criterion 5: margin on both bound inequalities
L1_REL = 1e-3          # criterion 8: relative objective gap
Z_SPREAD = 1e-8        # criterion 8: cross-node spread of the shared iterate
ERR_AT_200 = 1e-6      # criterion 9: iterate error by step 200


@contextmanager
def _criterion(num: int):
    try:
        yield
    except BaseException:
        print(f"CRITERION {num}: FAIL")
        raise
    print(f"CRITERION {num}: PASS")


def _exact_means(values):
    mat = np.atleast_2d(np.asarray(values, dtype=float).T).T
    return [sum(Fraction(float(v)) for v in mat[:, c]) / mat.shape[0]
            for c in range(mat.shape[1])]


@pytest.fixture(scope="module")
def family():
    """100 seeded ring digraphs with scalar and width-3 inputs, solved once.

    The wall clock covers graph construction and both consensus runs; the
    oracle cross-checks of criterion 2 are referee work and timed out of
    the budget.
    """
    instances = []
    elapsed = 0.0
    for s in range(100):
        n = 2 + (s % 19)
        rng = np.random.default_rng(1000 + s)
        y_scalar = rng.uniform(-5.0, 5.0, size=n)
        y_vector = rng.uniform(-5.0, 5.0, size=(n, 3))
        start = time.perf_counter()
        graph = random_strongly_connected(n, extra_edge_prob=0.0, seed=s)
        term = ftdt_run(graph, y_scalar, exact=True)
        vector = exact_consensus_run(graph, y_vector)
        elapsed += time.perf_counter() - start
        instances.append({
            "n": n, "graph": graph, "term": term, "vector": vector,
            "scalar_truth": _exact_means(y_scalar)[0],
            "vector_truth": _exact_means(y_vector),
        })
    return instances, elapsed


@pytest.fixture(scope="module")
def ls6():
    objectives, _ = make_least_squares_instance(6, 3, 5, seed=11)
    graph = random_strongly_connected(6, extra_edge_prob=0.2, seed=1)
    reference = centralized_least_squares([o.mat for o in objectives],
                                          [o.rhs for o in objectives])
    return objectives, graph, reference


_CFG = dict(rho=1.0, eps_abs=1e-4, eps_rel=1e-2, stop_on_tolerance=False)


@pytest.fixture(scope="module")
def run_warm(ls6):
    objectives, graph, _ = ls6
    return run_dadmm_fterc(objectives, graph, AdmmConfig(k_max=500, **_CFG))


@pytest.fixture(scope="module")
def run_dist(ls6):
    objectives, graph, _ = ls6
    return run_fdadmm_ftdt(objectives, graph, AdmmConfig(k_max=200, **_CFG))


def test_criterion_1_exact_consensus_values(family):
    with _criterion(1):
        instances, elapsed = family
        assert len(instances) == 100
        for inst in instances:
            n = inst["n"]
            truth = float(inst["scalar_truth"])
            for value in np.atleast_1d(inst["term"].values):
                assert abs(value - truth) <= REL_MEAN * abs(truth)
            for m in inst["term"].defect_indices:
                assert m + 1 <= n
            truths = [float(t) for t in inst["vector_truth"]]
            for res in inst["vector"]:
                assert res.defect + 1 <= n
                for value, truth in zip(np.atleast_1d(res.mu), truths):
                    assert abs(value - truth) <= REL_MEAN * abs(truth)
        assert elapsed < FAMILY_BUDGET, f"family took {elapsed:.1f}s"


def test_criterion_2_termination_rounds(family):
    with _criterion(2):
        instances, _ = family
        for inst in instances:
            graph, term = inst["graph"], inst["term"]
            weights = ratio_weights(graph)
            oracle = [minimal_poly_oracle(weights, j, rank_tol=1e-12) - 1
                      for j in range(graph.n)]
            assert term.defect_indices == oracle
            max_defect = max(oracle)
            assert term.max_defect == max_defect
            budget = 4 * (max_defect + 1) - 1
            for m_i, t in zip(oracle, term.t_terms):
                assert t == 2 * (max_defect + 1) + 2 * (m_i + 1) - 1
                assert t <= budget


def test_criterion_3_solver_equivalence(run_warm, run_dist):
    with _criterion(3):
        assert run_dist.steps == 200
        for field in ("x_hist", "z_hist", "lam_hist"):
            a = getattr(run_warm, field)[:200]
            b = getattr(run_dist, field)
            assert np.max(np.abs(a - b)) <= EQUIV_ATOL
        assert np.max(np.abs(run_warm.objective[:200]
                             - run_dist.objective)) <= EQUIV_ATOL


def test_criterion_4_reaches_centralized_optimum(ls6, run_warm):
    with _criterion(4):
        objectives, graph, reference = ls6
        assert run_warm.steps == 500
        final = run_warm.final_objective()
        assert abs(final - reference.f_star) <= OPT_REL * abs(reference.f_star)
        baseline = run_epsilon_baseline(
            objectives, graph, AdmmConfig(k_max=500, epsilon=0.01, **_CFG))
        assert baseline.final_objective() >= final - BASELINE_SLACK


def test_criterion_5_ergodic_gap_bound(ls6):
    with _criterion(5):
        objectives, graph, reference = ls6
        record = run_dadmm_fterc(
            objectives, graph, AdmmConfig(k_max=500, init="zero", **_CFG))
        assert not record.lam0.any() and not record.z0.any()
        report = check_o1k_bound(record, reference)
        assert report.lhs.size == 500
        assert report.holds(slack=BOUND_SLACK), (
            f"margins {report.lower_margin:.2e}, {report.upper_margin:.2e}")


def test_criterion_6_round_schedules(run_warm, run_dist):
    with _criterion(6):
        n_prime = 6
        assert run_warm.schedule[0] == ("step-1", 2 * n_prime)
        assert run_warm.schedule[1] == ("step-2", n_prime)
        t_max = run_warm.max_defect + 1
        assert run_warm.t_max == t_max
        assert all(rounds == t_max for _, rounds in run_warm.schedule[2:])
        assert run_dist.schedule[0] == ("step-1",
                                        4 * (run_dist.max_defect + 1) - 1)
        assert run_dist.t1 == 4 * (run_dist.max_defect + 1) - 1
        assert all(rounds == run_dist.t_max
                   for _, rounds in run_dist.schedule[1:])


def test_criterion_7_round_advantage():
    with _criterion(7):
        for n in (20, 50):
            objectives, _ = make_least_squares_instance(n, 3, 5, seed=21)
            graph = random_strongly_connected(n, extra_edge_prob=0.15,
                                              seed=2)
            exact = run_dadmm_fterc(objectives, graph,
                                    AdmmConfig(k_max=3, **_CFG))
            baseline = run_epsilon_baseline(
                objectives, graph, AdmmConfig(k_max=3, epsilon=0.01, **_CFG))
            steady = exact.consensus_rounds[2:]
            assert steady.max() < baseline.consensus_rounds.min(), (
                f"n={n}: exact {exact.consensus_rounds.tolist()} vs baseline "
                f"{baseline.consensus_rounds.tolist()}")


def test_criterion_8_l1_logistic():
    with _criterion(8):
        features, labels = make_logistic_instance(200, 10, seed=2)
        mu = 0.1 * compute_mu_max(features, labels)
        reference = centralized_l1_logistic(features, labels, mu)
        objectives = [LogisticObjective(f, l)
                      for f, l in split_rows(features, labels, 5)]
        graph = random_strongly_connected(5, extra_edge_prob=0.2, seed=1)
        record = run_fdadmm_ftdt(objectives, graph,
                                 AdmmConfig(rho=1.0, k_max=500),
                                 regularizer=L1Regularizer(mu))
        final = record.final_objective()
        assert abs(final - reference.f_star) <= L1_REL * abs(reference.f_star)
        z_final = record.z_hist[-1]
        assert np.max(np.abs(z_final - z_final[0])) <= Z_SPREAD


def test_criterion_9_rlinear_decay(ls6, run_warm):
    with _criterion(9):
        _, _, reference = ls6
        diff = run_warm.x_hist[:200] - reference.x_star[None, None, :]
        errors = np.linalg.norm(diff.reshape(200, -1), axis=1)
        assert errors[-1] <= ERR_AT_200
        probe = rlinear_probe(errors)
        assert probe.slope < 0.0, f"tail slope {probe.slope:.4f}"
