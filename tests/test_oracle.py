"""Centralized reference solvers and the minimal-polynomial probe."""

from fractions import Fraction
from itertools import permutations

import numpy as np
import pytest

from consensus_admm import (LogisticObjective, MaxIterations, build_digraph,
                            centralized_l1_logistic,
                            centralized_least_squares, fterc_run,
                            make_logistic_instance, minimal_poly_oracle,
                            random_strongly_connected, ratio_weights)
from consensus_admm import oracle


def test_minimal_poly_degree_on_ring():
    g = build_digraph(3, [(1, 0), (2, 1), (0, 2)])
    w = ratio_weights(g)
    for j in range(3):
        assert minimal_poly_oracle(w, j) == 3


def test_minimal_poly_degree_on_complete_graph():
    # every node of K_4 with uniform weights sees just two modes: the mean
    # and one uniform-decay direction
    edges = [(i, j) for i, j in permutations(range(4), 2)]
    w = ratio_weights(build_digraph(4, edges))
    for j in range(4):
        assert minimal_poly_oracle(w, j) == 2


def test_minimal_poly_degree_at_the_default_tolerance():
    # A tolerance of 1e-8 capped every directed ring from n=19 on at 18,
    # and read 9 at nodes 1 and 9 of this dense digraph.
    ring = ratio_weights(random_strongly_connected(20, extra_edge_prob=0.0,
                                                   seed=1))
    assert [minimal_poly_oracle(ring, j) for j in range(20)] == [20] * 20
    dense = ratio_weights(random_strongly_connected(
        10, extra_edge_prob=0.49634330386001996, seed=7122))
    assert [minimal_poly_oracle(dense, j) for j in range(10)] == [10] * 10


@pytest.mark.parametrize("node", [-1, 3, 4, True, 1.5])
def test_minimal_poly_oracle_refuses_a_node_out_of_range(node):
    # -1 once answered for node n-1, True for a row of all ones, and n
    # escaped as an IndexError
    w = ratio_weights(build_digraph(3, [(1, 0), (2, 1), (0, 2)]))
    with pytest.raises(ValueError, match=f"node {node} out of range for n=3"):
        minimal_poly_oracle(w, node)
    assert minimal_poly_oracle(w, np.int64(2)) == 3


def test_detector_matches_minimal_poly_degree():
    for seed in range(10):
        n = 3 + (seed % 6)
        g = random_strongly_connected(n, extra_edge_prob=0.25, seed=seed)
        w = ratio_weights(g)
        y0 = np.random.default_rng(300 + seed).uniform(-5, 5, size=n)
        results = fterc_run(g, y0)
        for j, res in enumerate(results):
            assert res.defect + 1 == minimal_poly_oracle(w, j, rank_tol=1e-12)


def test_centralized_least_squares_reference():
    rng = np.random.default_rng(4)
    mats = [rng.standard_normal((5, 3)) for _ in range(4)]
    rhss = [rng.standard_normal(5) for _ in range(4)]
    ref = centralized_least_squares(mats, rhss)
    gram = sum(a.T @ a for a in mats)
    rhs = sum(a.T @ b for a, b in zip(mats, rhss))
    assert np.allclose(ref.x_star, np.linalg.solve(gram, rhs), atol=1e-10)
    assert ref.residual < 1e-10
    assert ref.method == "normal_equations"
    # the per-node multipliers certify optimality: they sum to zero and
    # each one is the negative local gradient at the shared optimum
    assert np.allclose(ref.lambda_star.sum(axis=0), 0.0, atol=1e-10)
    for a, b, lam in zip(mats, rhss, ref.lambda_star):
        assert np.allclose(a.T @ (a @ ref.x_star - b), -lam, atol=1e-12)
    value = sum(0.5 * np.sum((a @ ref.x_star - b) ** 2)
                for a, b in zip(mats, rhss))
    assert ref.f_star == pytest.approx(value)
    # any perturbation of the point can only increase the objective
    for trial in range(5):
        shift = 1e-3 * np.random.default_rng(trial).standard_normal(3)
        bumped = sum(0.5 * np.sum((a @ (ref.x_star + shift) - b) ** 2)
                     for a, b in zip(mats, rhss))
        assert bumped >= ref.f_star


def test_centralized_least_squares_ridge_fallback():
    # a singular Gram matrix takes the flagged 1e-12 ridge instead of failing
    ref = centralized_least_squares([np.zeros((3, 2))], [np.ones(3)])
    assert ref.method == "normal_equations+ridge"
    np.testing.assert_array_equal(ref.x_star, np.zeros(2))
    assert ref.f_star == pytest.approx(1.5)


def test_centralized_l1_logistic_refuses_past_its_step_cap(monkeypatch):
    monkeypatch.setattr(oracle, "_PROX_MAX_ITER", 1)
    features, labels = make_logistic_instance(60, 4, seed=3)
    with pytest.raises(MaxIterations, match="no convergence in 1 proximal"):
        centralized_l1_logistic(features, labels, 0.4)


def test_centralized_l1_logistic_kkt():
    features, labels = make_logistic_instance(60, 4, seed=3)
    mu = 0.4
    ref = centralized_l1_logistic(features, labels, mu)
    assert ref.residual <= 1e-8
    obj = LogisticObjective(features, labels)
    grad = obj.gradient(ref.x_star)
    # KKT for the composite problem: on active coordinates the gradient
    # exactly balances the penalty sign; on zero coordinates it stays in
    # the [-mu, mu] band; the intercept is free
    for i in range(4):
        if ref.x_star[i] != 0.0:
            assert grad[i] + mu * np.sign(ref.x_star[i]) == pytest.approx(
                0.0, abs=1e-7)
        else:
            assert abs(grad[i]) <= mu + 1e-7
    assert abs(grad[-1]) <= 1e-7
    value = obj.evaluate(ref.x_star) + mu * np.sum(np.abs(ref.x_star[:-1]))
    assert ref.f_star == pytest.approx(value)


def test_centralized_l1_logistic_beats_neighbors():
    features, labels = make_logistic_instance(60, 4, seed=3)
    mu = 0.4
    ref = centralized_l1_logistic(features, labels, mu)
    obj = LogisticObjective(features, labels)

    def total(x):
        return obj.evaluate(x) + mu * np.sum(np.abs(x[:-1]))

    rng = np.random.default_rng(8)
    for _ in range(20):
        probe = ref.x_star + 1e-3 * rng.standard_normal(5)
        assert total(probe) >= ref.f_star - 1e-12
