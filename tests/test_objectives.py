"""Local objective terms, proximal updates, and dataset utilities."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from consensus_admm import (AdmmConfig, L1Regularizer, LeastSquaresObjective,
                            LogisticObjective, SolverFailure,
                            centralized_l1_logistic,
                            compute_mu_max, l1_z_update, load_dataset,
                            make_least_squares_instance,
                            make_logistic_instance, random_strongly_connected,
                            run_dadmm_fterc, save_dataset, soft_threshold,
                            split_rows)
from consensus_admm import objectives
from consensus_admm.objectives import ObjectiveStacks


def _finite_diff_grad(fun, x, h=1e-6):
    grad = np.zeros_like(x)
    for i in range(x.size):
        step = np.zeros_like(x)
        step[i] = h
        grad[i] = (fun(x + step) - fun(x - step)) / (2 * h)
    return grad


def test_least_squares_value_and_gradient():
    rng = np.random.default_rng(0)
    mat = rng.standard_normal((7, 3))
    rhs = rng.standard_normal(7)
    obj = LeastSquaresObjective(mat, rhs)
    x = rng.standard_normal(3)
    assert obj.dim == 3
    assert obj.evaluate(x) == pytest.approx(0.5 * np.sum((mat @ x - rhs) ** 2))
    assert np.allclose(obj.gradient(x),
                       _finite_diff_grad(obj.evaluate, x), atol=1e-5)


def test_ls_x_update_solves_normal_system():
    rng = np.random.default_rng(1)
    mat = rng.standard_normal((6, 4))
    rhs = rng.standard_normal(6)
    z = rng.standard_normal(4)
    lam = rng.standard_normal(4)
    rho = 1.7
    x = LeastSquaresObjective(mat, rhs).solve_x_update(z, lam, rho)
    expected = np.linalg.solve(mat.T @ mat + rho * np.eye(4),
                               mat.T @ rhs - lam + rho * z)
    assert np.allclose(x, expected, atol=1e-12)
    # stationarity of the augmented local problem
    grad = mat.T @ (mat @ x - rhs) + lam + rho * (x - z)
    assert np.linalg.norm(grad) < 1e-10


def test_ls_solve_x_update_keeps_its_matrix_per_rho():
    rng = np.random.default_rng(3)
    mat = rng.standard_normal((6, 4))
    rhs = rng.standard_normal(6)
    obj = LeastSquaresObjective(mat, rhs)
    for rho in (1.7, 1.7, 0.4, 1.7):       # a hit, then a changed rho
        z, lam = rng.standard_normal((2, 4))
        fresh = LeastSquaresObjective(mat, rhs)
        assert np.array_equal(obj.solve_x_update(z, lam, rho),
                              fresh.solve_x_update(z, lam, rho))


def test_logistic_value_gradient_hessian():
    rng = np.random.default_rng(2)
    features = rng.standard_normal((12, 3))
    labels = np.where(rng.standard_normal(12) > 0, 1.0, -1.0)
    obj = LogisticObjective(features, labels)
    assert obj.dim == 4  # intercept column appended
    x = 0.3 * rng.standard_normal(4)
    assert np.allclose(obj.gradient(x),
                       _finite_diff_grad(obj.evaluate, x), atol=1e-5)
    hess_fd = np.stack([_finite_diff_grad(
        lambda v, i=i: obj.gradient(v)[i], x) for i in range(4)])
    assert np.allclose(obj.hessian(x), hess_fd, atol=1e-4)


def test_logistic_x_update_reaches_stationarity():
    rng = np.random.default_rng(3)
    features = rng.standard_normal((30, 4))
    labels = np.where(rng.standard_normal(30) > 0, 1.0, -1.0)
    obj = LogisticObjective(features, labels)
    z = rng.standard_normal(5)
    lam = rng.standard_normal(5)
    rho = 0.8
    x = obj.solve_x_update(z, lam, rho)
    grad = obj.gradient(x) + lam + rho * (x - z)
    assert np.linalg.norm(grad) <= 1e-6


def _newton_reference(obj, z, lam, rho, tol=1e-6, max_iter=200):
    """The node-by-node damped Newton loop, the bitwise reference."""
    x = z.copy()

    def composite_grad(xv):
        margins = obj.labels * (obj.design @ xv)
        sig = 1.0 / (1.0 + np.exp(margins))
        return obj.design.T @ (-obj.labels * sig) + lam + rho * (xv - z)

    def composite_value(xv):
        margins = obj.labels * (obj.design @ xv)
        d = xv - z
        return (float(np.sum(np.logaddexp(0.0, -margins)))
                + float(lam @ xv) + 0.5 * rho * float(d @ d))

    grad = composite_grad(x)
    for _ in range(max_iter):
        grad_norm = float(np.linalg.norm(grad))
        if grad_norm <= tol:
            return x
        sig = 1.0 / (1.0 + np.exp(obj.labels * (obj.design @ x)))
        hess = ((obj.design * (sig * (1.0 - sig))[:, None]).T @ obj.design
                + rho * np.eye(obj.dim))
        direction = np.linalg.solve(hess, grad)
        slope = float(grad @ direction)
        value = composite_value(x)
        step = 1.0
        for _ in range(60):
            if (composite_value(x - step * direction)
                    <= value - 1e-4 * step * slope):
                break
            step *= 0.5
        else:
            if grad_norm <= 1e3 * tol:
                return x
            raise SolverFailure(f"no representable decrease at "
                                f"|grad| = {grad_norm:.3e}")
        x = x - step * direction
        grad = composite_grad(x)
    if float(np.linalg.norm(grad)) <= tol:
        return x
    raise SolverFailure(f"Newton stalled after {max_iter} iterations "
                        f"(|grad| = {float(np.linalg.norm(grad)):.3e})")


def _reference_x_update(obj, z, lam, rho):
    if type(obj) is LeastSquaresObjective:
        return np.linalg.solve(obj.mat.T @ obj.mat + rho * np.eye(obj.dim),
                               obj.mat.T @ obj.rhs - lam + rho * z)
    return _newton_reference(obj, z, lam, rho)


def _reference_value(obj, x):
    if type(obj) is LeastSquaresObjective:
        r = obj.mat @ x - obj.rhs
        return 0.5 * float(r @ r)
    return float(np.sum(np.logaddexp(0.0, -obj.labels * (obj.design @ x))))


def _networks(seed):
    """Least-squares, logistic and mixed networks with unequal shards."""
    rng = np.random.default_rng(seed)
    ls = [LeastSquaresObjective(rng.standard_normal((q, 3)),
                                rng.standard_normal(q))
          for q in (5, 5, 6, 5, 6, 4, 5)]
    features, labels = make_logistic_instance(53, 3, seed=seed)
    logistic = [LogisticObjective(f, y)
                for f, y in split_rows(features, labels, 6)]
    mixed_ls = [LeastSquaresObjective(rng.standard_normal((7, 4)),
                                      rng.standard_normal(7))
                for _ in range(3)]
    mixed = [mixed_ls[0], logistic[0], logistic[1], mixed_ls[1], logistic[2],
             mixed_ls[2]]
    return {"least_squares": (ls, [1, 2, 4]), "logistic": (logistic, [1, 5]),
            "mixed": (mixed, [1, 2, 3])}


@pytest.mark.parametrize("seed", range(6))
def test_stacked_x_updates_equal_node_by_node_bitwise(seed):
    rng = np.random.default_rng(100 + seed)
    for name, (objs, sizes) in _networks(seed).items():
        rho = float(rng.uniform(0.3, 3.0))
        stacks = ObjectiveStacks(objs, rho)
        # one stack per kind and shape, no padding
        assert sorted(len(nodes) for nodes, _ in stacks.stacks) == sizes
        assert stacks.per_node == []
        p = objs[0].dim
        z = rng.uniform(-2.0, 2.0, (len(objs), p))
        lam = rng.uniform(-2.0, 2.0, (len(objs), p))
        x = stacks.x_update(z, lam)
        for i, obj in enumerate(objs):
            alone = obj.solve_x_update(z[i], lam[i], rho)
            assert np.array_equal(x[i], alone), (name, i)
            assert np.array_equal(alone,
                                  _reference_x_update(obj, z[i], lam[i], rho))
        assert stacks.total(x) == float(sum(_reference_value(obj, x[i])
                                            for i, obj in enumerate(objs)))


def _scaled_logistic_network(scales):
    features, labels = make_logistic_instance(62, 3, seed=1)
    shards = split_rows(features, labels, len(scales))
    return [LogisticObjective(f * s, y) for (f, y), s in zip(shards, scales)]


def _first_failure(objs, z, lam, rho):
    """The error a node-by-node loop raises: its first failing node's."""
    for i, obj in enumerate(objs):
        try:
            _newton_reference(obj, z[i], lam[i], rho)
        except (SolverFailure, np.linalg.LinAlgError) as exc:
            return i, exc
    return None


# Feature scales per node. Scaled-up rows overflow the margins, and the
# Newton solve of such a node fails: at 1e20 with no representable decrease,
# at 1e10 node by node in all three ways (stalled at node 1, a singular
# Hessian at node 2, no decrease at node 3).
@pytest.mark.parametrize("scales, node, kind", [
    ([1, 1, 1e20, 1, 1], 2, SolverFailure),
    ([1, 1e20, 1e20, 1, 1e20], 1, SolverFailure),
    ([1, 1, 1e10, 1e10, 1], 2, np.linalg.LinAlgError),
    ([1e10] * 5, 1, SolverFailure),
])
def test_stacked_x_update_raises_the_first_failing_node(scales, node, kind):
    objs = _scaled_logistic_network(scales)
    # shards of 12, 12, 13, 12 and 13 rows make two stacks
    assert [o.design.shape[0] for o in objs] == [12, 12, 13, 12, 13]
    rng = np.random.default_rng(4)
    z = rng.uniform(-1.0, 1.0, (5, 4))
    lam = rng.uniform(-1.0, 1.0, (5, 4))
    with np.errstate(all="ignore"):
        first, expected = _first_failure(objs, z, lam, 1.0)
        assert (first, type(expected)) == (node, kind)
        with pytest.raises(kind) as stacked:
            ObjectiveStacks(objs, 1.0).x_update(z, lam)
        with pytest.raises(kind) as alone:
            objs[node].solve_x_update(z[node], lam[node], 1.0)
    assert str(stacked.value) == str(alone.value) == str(expected)


def test_newton_takes_entry_values_only_of_terms_that_step(monkeypatch):
    # A term already at its optimum leaves at iteration 0 and never needs
    # the composite value of its entry point.
    objs = _scaled_logistic_network([1, 1, 1, 1])
    rng = np.random.default_rng(5)
    z = rng.uniform(-1.0, 1.0, (4, 4))
    at_optimum = -np.stack([o.gradient(z[i]) for i, o in enumerate(objs)])
    calls = []
    value = objectives._composite_value

    def spy(margins, *args):
        calls.append(len(margins))
        return value(margins, *args)

    monkeypatch.setattr(objectives, "_composite_value", spy)
    stacks = ObjectiveStacks(objs, 1.0)
    assert np.array_equal(stacks.x_update(z, at_optimum), z)
    assert calls == []
    # terms 1 and 3 step, each one as it does alone
    lam = at_optimum.copy()
    lam[[1, 3]] = rng.uniform(-1.0, 1.0, (2, 4))
    x = stacks.x_update(z, lam)
    assert calls[0] == 2
    for i, obj in enumerate(objs):
        assert np.array_equal(x[i], obj.solve_x_update(z[i], lam[i], 1.0))


def test_subclassed_terms_run_node_by_node_in_order():
    rng = np.random.default_rng(7)
    calls = []

    class Logged(LeastSquaresObjective):
        def solve_x_update(self, z, lam, rho):
            calls.append(self.node)
            return super().solve_x_update(z, lam, rho)

    plain = [LeastSquaresObjective(rng.standard_normal((5, 3)),
                                   rng.standard_normal(5)) for _ in range(5)]
    logged = list(plain)
    for i in (3, 1):
        logged[i] = Logged(plain[i].mat, plain[i].rhs)
        logged[i].node = i
    stacks = ObjectiveStacks(logged, 1.5)
    assert stacks.per_node == [1, 3]
    z = rng.standard_normal((5, 3))
    lam = rng.standard_normal((5, 3))
    x = stacks.x_update(z, lam)
    assert calls == [1, 3]
    assert np.array_equal(x, ObjectiveStacks(plain, 1.5).x_update(z, lam))

    calls.clear()
    graph = random_strongly_connected(5, 0.3, seed=2)
    config = AdmmConfig(k_max=4, stop_on_tolerance=False)
    record = run_dadmm_fterc(logged, graph, config)
    assert calls == [1, 3] * 4   # once per step, in node order
    reference = run_dadmm_fterc(plain, graph, config)
    for name in ("x_hist", "z_hist", "lam_hist", "objective"):
        assert np.array_equal(getattr(record, name), getattr(reference, name))


def test_soft_threshold_pins():
    assert np.allclose(soft_threshold([3.0, -3.0, 0.4, -0.4, 0.0], 1.0),
                       [2.0, -2.0, 0.0, 0.0, 0.0])


@given(st.floats(-50, 50), st.floats(0, 10))
def test_soft_threshold_properties(v, kappa):
    out = float(soft_threshold([v], kappa)[0])
    assert abs(out) <= max(abs(v) - kappa, 0.0) + 1e-12
    assert out * v >= 0.0
    if abs(v) <= kappa:
        assert out == 0.0
    else:
        assert out == pytest.approx(v - np.sign(v) * kappa)


def test_l1_z_update_spares_intercept():
    seed = np.array([0.5, -0.5, 2.0, 0.3])
    mask = np.array([True, True, True, False])
    out = l1_z_update(seed, 1.0, mask)
    assert np.allclose(out, [0.0, 0.0, 1.0, 0.3])
    assert np.allclose(l1_z_update(seed, 1.0), [0.0, 0.0, 1.0, 0.0])


def test_l1_regularizer_accessors():
    reg = L1Regularizer(mu=0.6)
    assert reg.kappa(n=3, rho=2.0) == pytest.approx(0.1)
    mask = reg.penalized_mask(5)
    assert mask.tolist() == [True, True, True, True, False]


@pytest.mark.parametrize("mu", [float("nan"), float("inf"), -float("inf"),
                                -1.0, -1e-300])
def test_l1_regularizer_refuses_a_bad_mu(mu):
    with pytest.raises(ValueError, match="mu must be finite and nonnegative"):
        L1Regularizer(mu)


def test_l1_regularizer_accepts_a_zero_mu():
    assert L1Regularizer(0.0).kappa(n=3, rho=2.0) == 0.0


@pytest.mark.parametrize("make, names", [
    (LeastSquaresObjective, "the matrix has 5 rows but the right-hand side "
                            "has 3"),
    (LogisticObjective, "features has 5 rows but labels has 3")])
def test_objectives_refuse_data_whose_row_counts_differ(make, names):
    with pytest.raises(ValueError, match=names):
        make(np.zeros((5, 2)), np.ones(3))
    make(np.zeros((5, 2)), np.ones(5))


def test_compute_mu_max_kills_all_features():
    features, labels = make_logistic_instance(80, 4, seed=3)
    mu_max = compute_mu_max(features, labels)
    above = centralized_l1_logistic(features, labels, 1.01 * mu_max)
    assert np.allclose(above.x_star[:-1], 0.0, atol=1e-7)
    below = centralized_l1_logistic(features, labels, 0.5 * mu_max)
    assert np.max(np.abs(below.x_star[:-1])) > 1e-4
    with pytest.raises(ValueError):
        compute_mu_max(features, np.ones(80))


def test_make_least_squares_instance_shapes():
    objectives, x_true = make_least_squares_instance(4, 3, 6, seed=5)
    assert len(objectives) == 4 and x_true.shape == (3,)
    for obj in objectives:
        assert obj.dim == 3
        assert obj.evaluate(x_true) < obj.evaluate(x_true + 10.0)
    redo, x_redo = make_least_squares_instance(4, 3, 6, seed=5)
    assert np.array_equal(x_true, x_redo)
    assert np.array_equal(objectives[2].gradient(x_true),
                          redo[2].gradient(x_true))


def test_make_logistic_instance_labels():
    features, labels = make_logistic_instance(50, 3, seed=9)
    assert features.shape == (50, 3)
    assert set(np.unique(labels)) == {-1.0, 1.0}


def test_split_rows_partitions():
    features = np.arange(22.0).reshape(11, 2)
    labels = np.arange(11.0)
    shards = split_rows(features, labels, 3)
    assert [s[0].shape[0] for s in shards] == [3, 4, 4]
    assert np.array_equal(np.vstack([s[0] for s in shards]), features)
    assert np.array_equal(np.concatenate([s[1] for s in shards]), labels)


def test_dataset_roundtrip(tmp_path):
    features, labels = make_logistic_instance(17, 4, seed=2)
    path = tmp_path / "data.csv"
    save_dataset(path, features, labels)
    loaded_f, loaded_l = load_dataset(path)
    assert np.array_equal(loaded_f, features)
    assert np.array_equal(loaded_l, labels)


def test_make_least_squares_instance_refuses_negative_seed():
    with pytest.raises(ValueError, match="seed must be nonnegative"):
        make_least_squares_instance(3, 2, 4, seed=-1)


def test_make_logistic_instance_refuses_negative_seed():
    with pytest.raises(ValueError, match="seed must be nonnegative"):
        make_logistic_instance(10, 2, seed=-1)


def test_l1_z_update_on_a_stack_equals_row_by_row_bitwise():
    # The solvers shrink every node's row in one call.
    values = np.random.default_rng(5).uniform(-3.0, 3.0, size=(6, 5))
    for mask in (np.array([True, True, False, True, False]), None):
        rows = np.stack([l1_z_update(v, 0.7, mask) for v in values])
        assert l1_z_update(values, 0.7, mask).tobytes() == rows.tobytes()
