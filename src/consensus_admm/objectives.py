"""Local objective terms and their proximal-style x-updates.

Each node owns one term of a sum ``F(x) = sum_i f_i(x)`` and must repeatedly
solve ``argmin_x f_i(x) + lam^T x + (rho/2)||x - z||^2``. Least squares gets a
closed form; the logistic loss gets a damped Newton solve. The l1 penalty
never touches the x-update: it is applied through shrinkage in the shared
z-update, with the intercept riding as a final unpenalized coordinate.

Each kind has one kernel, over a stack of same-shape terms: a solver run
holds its terms as :class:`ObjectiveStacks` and updates them whole-network,
while a single term's methods are the same kernel on one term. Only terms
whose class is exactly :class:`LeastSquaresObjective` or exactly
:class:`LogisticObjective` are stacked, one stack per kind and shape; any
other class, a subclass included, is called node by node through its own
methods. Stacked results equal node-by-node ones to the last bit.
"""

from __future__ import annotations

import csv
import math
from abc import ABC, abstractmethod
from dataclasses import dataclass
from numbers import Integral

import numpy as np

from .errors import SolverFailure


class LocalObjective(ABC):
    """One node's smooth term f_i."""

    @property
    @abstractmethod
    def dim(self) -> int: ...

    @abstractmethod
    def evaluate(self, x: np.ndarray) -> float: ...

    @abstractmethod
    def gradient(self, x: np.ndarray) -> np.ndarray: ...

    @abstractmethod
    def solve_x_update(self, z: np.ndarray, lam: np.ndarray,
                       rho: float) -> np.ndarray:
        """argmin_x f(x) + lam^T x + (rho/2) ||x - z||^2."""


def _check_rows(mat: np.ndarray, vec: np.ndarray, mat_name: str,
                vec_name: str) -> None:
    """ValueError naming both counts unless ``vec`` has one row per row of
    ``mat``."""
    if len(vec) != len(mat):
        raise ValueError(f"{mat_name} has {len(mat)} rows but {vec_name} "
                         f"has {len(vec)}")


class LeastSquaresObjective(LocalObjective):
    """f(x) = 0.5 ||A x - b||^2; the x-update keeps A^T A + rho I per rho."""

    def __init__(self, mat, rhs):
        self.mat = np.atleast_2d(np.asarray(mat, dtype=float))
        self.rhs = np.atleast_1d(np.asarray(rhs, dtype=float))
        _check_rows(self.mat, self.rhs, "the matrix", "the right-hand side")
        self._gram = self.mat.T @ self.mat
        self._atb = self.mat.T @ self.rhs
        self._lhs_rho, self._lhs = None, None

    @property
    def dim(self) -> int:
        return self.mat.shape[1]

    def evaluate(self, x) -> float:
        x = np.asarray(x, dtype=float)
        return float(_ls_values(self.mat, self.rhs, x))

    def gradient(self, x) -> np.ndarray:
        return self.mat.T @ (self.mat @ x - self.rhs)

    def solve_x_update(self, z, lam, rho) -> np.ndarray:
        if self._lhs_rho != rho:
            self._lhs_rho = rho
            self._lhs = self._gram + rho * np.eye(self.dim)
        return _ls_solve(self._lhs, self._atb, np.asarray(z, dtype=float),
                         np.asarray(lam, dtype=float), rho)


def _ls_values(mat, rhs, x):
    """0.5 ||A x - b||^2 of each term of a stack (or of a single term)."""
    r = (mat @ x[..., None])[..., 0] - rhs
    return 0.5 * np.vecdot(r, r)


def _ls_solve(lhs, atb, z, lam, rho):
    """Solve ``lhs x = A^T b - lam + rho z`` for each term of a stack."""
    return np.linalg.solve(lhs, (atb - lam + rho * z)[..., None])[..., 0]


class LogisticObjective(LocalObjective):
    """f(x) = sum_k log(1 + exp(-b_k * (a_k^T w + v))) over this node's rows.

    The decision variable is x = [w, v] with the intercept v appended, so the
    design matrix silently gains a column of ones.
    """

    def __init__(self, features, labels):
        features = np.atleast_2d(np.asarray(features, dtype=float))
        self.design = np.hstack([features, np.ones((features.shape[0], 1))])
        self.labels = np.atleast_1d(np.asarray(labels, dtype=float))
        _check_rows(features, self.labels, "features", "labels")

    @property
    def dim(self) -> int:
        return self.design.shape[1]

    def evaluate(self, x) -> float:
        x = np.asarray(x, dtype=float)
        return float(_logistic_loss(_margins(self.design, self.labels, x)))

    def gradient(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        sig = _sigmoid(_margins(self.design, self.labels, x))
        return _logistic_gradient(self.design, self.labels, sig)

    def hessian(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        sig = _sigmoid(_margins(self.design, self.labels, x))
        return _logistic_hessian(self.design, sig)

    def solve_x_update(self, z, lam, rho) -> np.ndarray:
        """Damped Newton solve of the x-update to gradient norm <= 1e-6.

        That tolerance sits above the float64 noise floor of the composite
        value (roughly 1e-8 gradient norm at a few hundred samples), where
        the line search can no longer resolve a decrease. If that floor is
        hit anyway while the gradient is within 1e3 times the tolerance, the
        iterate is returned as converged-to-precision. Raises
        :class:`SolverFailure` once the iteration budget is exhausted.
        """
        x, failures = _logistic_newton(
            self.design[None], self.labels[None],
            np.asarray(z, dtype=float)[None],
            np.asarray(lam, dtype=float)[None], rho)
        if failures:
            raise failures[0]
        return x[0]


# Logistic pieces over a stack of terms (or a single term): design
# ``(..., rows, p)``, labels and margins ``(..., rows)``, iterates
# ``(..., p)``. Every operation acts term by term.

def _margins(design, labels, x):
    """b_k * a_k^T x for every row."""
    return labels * (design @ x[..., None])[..., 0]


def _sigmoid(margins):
    """sigmoid(-margin) for every row."""
    return 1.0 / (1.0 + np.exp(margins))


def _logistic_loss(margins):
    return np.add.reduce(np.logaddexp(0.0, -margins), axis=-1)


def _logistic_gradient(design, labels, sig):
    return (design.mT @ (-labels * sig)[..., None])[..., 0]


def _logistic_hessian(design, sig):
    weights = sig * (1.0 - sig)
    return (design * weights[..., None]).mT @ design


def _solve_each(hess, grad):
    """Newton directions term by term, after a stacked solve failed.

    A singular term gets a NaN direction, which no line search accepts,
    and the error its own solve raised.
    """
    direction = np.full(grad.shape, np.nan)
    singular = {}
    for pos in range(grad.shape[0]):
        try:
            direction[pos] = np.linalg.solve(hess[pos], grad[pos])
        except np.linalg.LinAlgError as exc:
            singular[pos] = exc
    return direction, singular


def _composite_value(margins, z, lam, rho, x):
    """f(x) + lam^T x + (rho/2) ||x - z||^2, given the margins at x."""
    d = x - z
    return (_logistic_loss(margins) + np.vecdot(lam, x)
            + 0.5 * rho * np.vecdot(d, d))


_NEWTON_TOL = 1e-6       # gradient norm at which a logistic solve stops
_NEWTON_MAX_ITER = 200


def _logistic_newton(design, labels, z, lam, rho):
    """The Newton solve of :meth:`LogisticObjective.solve_x_update`, stacked.

    Every term keeps its own iterate, convergence test and Armijo halving,
    and each stack operation acts term by term, so a term's iterate is the
    one it gets solved alone, to the last bit. Returns the iterates and,
    for each term that failed, the error it raises when solved alone.
    """
    x = z.copy()  # the penalty anchors the solution near z
    eye = rho * np.eye(design.shape[-1])
    failures: dict[int, Exception] = {}
    # the terms still iterating, with their data and iterates aligned
    open_ = np.arange(x.shape[0])
    d, lab, zo, lo, xo = design, labels, z, lam, x
    margins = _margins(d, lab, xo)
    value = None   # taken at the entry point of the terms that step
    for it in range(_NEWTON_MAX_ITER + 1):
        sig = _sigmoid(margins)
        grad = _logistic_gradient(d, lab, sig) + lo + rho * (xo - zo)
        grad_norm = np.sqrt(np.vecdot(grad, grad))
        going = ~(grad_norm <= _NEWTON_TOL)
        if not going.any():
            break
        if it == _NEWTON_MAX_ITER:
            failures.update((int(t), SolverFailure(
                f"Newton stalled after {_NEWTON_MAX_ITER} iterations "
                f"(|grad| = {g:.3e})"))
                for t, g in zip(open_[going], grad_norm[going]))
            break
        if not going.all():
            x[open_] = xo
            open_, d, lab, zo, lo, xo, margins, sig, grad, grad_norm = (
                a[going] for a in (open_, d, lab, zo, lo, xo, margins, sig,
                                   grad, grad_norm))
            if value is not None:
                value = value[going]
        if value is None:
            value = _composite_value(margins, zo, lo, rho, xo)
        hess = _logistic_hessian(d, sig) + eye
        try:
            direction, singular = (
                np.linalg.solve(hess, grad[..., None])[..., 0], {})
        except np.linalg.LinAlgError:
            direction, singular = _solve_each(hess, grad)
        slope = np.vecdot(grad, direction)
        step = np.ones(open_.size)
        searching = np.ones(open_.size, dtype=bool)
        for _ in range(60):
            candidate = xo - step[:, None] * direction
            margins = _margins(d, lab, candidate)
            trial = _composite_value(margins, zo, lo, rho, candidate)
            searching &= ~(trial <= value - 1e-4 * step * slope)
            if not searching.any():
                break
            step[searching] *= 0.5
        else:
            for pos in np.flatnonzero(searching):
                if pos in singular:
                    failures[int(open_[pos])] = singular[pos]
                # a descent direction, but float64 is flat here: converged
                # to precision unless the gradient is still large
                elif not grad_norm[pos] <= 1e3 * _NEWTON_TOL:
                    failures[int(open_[pos])] = SolverFailure(
                        f"no representable decrease at "
                        f"|grad| = {grad_norm[pos]:.3e}")
            x[open_] = xo
            moved = ~searching
            open_, d, lab, zo, lo, candidate, margins, trial = (
                a[moved] for a in (open_, d, lab, zo, lo, candidate, margins,
                                   trial))
        # a term's last trial is its accepted step: the new iterate's value
        xo, value = candidate, trial
    x[open_] = xo
    return x, failures


class _LeastSquaresStack:
    """Least-squares terms of one shape, with ``A^T A + rho I`` cached."""

    def __init__(self, terms, rho: float):
        self.mat = np.stack([t.mat for t in terms])
        self.rhs = np.stack([t.rhs for t in terms])
        self.atb = np.stack([t._atb for t in terms])
        self.lhs = (np.stack([t._gram for t in terms])
                    + rho * np.eye(self.mat.shape[-1]))
        self.rho = rho

    def x_update(self, z, lam):
        return _ls_solve(self.lhs, self.atb, z, lam, self.rho), {}

    def values(self, x):
        return _ls_values(self.mat, self.rhs, x)


class _LogisticStack:
    """Logistic terms of one shape."""

    def __init__(self, terms, rho: float):
        self.design = np.stack([t.design for t in terms])
        self.labels = np.stack([t.labels for t in terms])
        self.rho = rho

    def x_update(self, z, lam):
        return _logistic_newton(self.design, self.labels, z, lam, self.rho)

    def values(self, x):
        return _logistic_loss(_margins(self.design, self.labels, x))


class ObjectiveStacks:
    """A network's local terms, held for whole-network x-updates and sums.

    Terms whose class is exactly :class:`LeastSquaresObjective`, or exactly
    :class:`LogisticObjective`, are stacked by kind and shape; unequal
    shards form separate stacks, unpadded. Any other term, subclasses
    included, is called through its own methods, node by node, before the
    stacks, so overrides keep working. Results equal the node-by-node calls
    to the last bit; ``rho`` is fixed for the life of the stacks.
    """

    _KINDS = {LeastSquaresObjective: (_LeastSquaresStack, "mat"),
              LogisticObjective: (_LogisticStack, "design")}

    def __init__(self, objectives, rho: float):
        self.objectives = list(objectives)
        self.rho = rho
        self.per_node: list[int] = []
        groups: dict[tuple, list[int]] = {}
        for i, obj in enumerate(self.objectives):
            kind = type(obj)
            if kind in self._KINDS:
                shape = getattr(obj, self._KINDS[kind][1]).shape
                groups.setdefault((kind, shape), []).append(i)
            else:
                self.per_node.append(i)
        self.stacks = [(np.array(nodes), self._KINDS[kind][0](
                            [self.objectives[i] for i in nodes], rho))
                       for (kind, _), nodes in groups.items()]

    def x_update(self, z, lam) -> np.ndarray:
        """Every node's x-update, one row per node.

        Raises the error of the lowest-index failing stacked node, as a
        node-by-node loop would.
        """
        x = np.empty(z.shape)
        for i in self.per_node:
            x[i] = self.objectives[i].solve_x_update(z[i], lam[i], self.rho)
        failures = {}
        for nodes, stack in self.stacks:
            x[nodes], failed = stack.x_update(z[nodes], lam[nodes])
            failures.update((nodes[pos], exc) for pos, exc in failed.items())
        if failures:
            raise failures[min(failures)]
        return x

    def total(self, x) -> float:
        """Sum of every node's value at its own row of ``x``, in node order."""
        values = [None] * len(self.objectives)
        for i in self.per_node:
            values[i] = self.objectives[i].evaluate(x[i])
        for nodes, stack in self.stacks:
            for i, v in zip(nodes.tolist(), stack.values(x[nodes]).tolist()):
                values[i] = v
        return float(sum(values))


def soft_threshold(values, kappa: float) -> np.ndarray:
    """Componentwise shrinkage toward zero by kappa (the l1 proximal map)."""
    values = np.asarray(values, dtype=float)
    return np.sign(values) * np.maximum(np.abs(values) - kappa, 0.0)


def l1_z_update(average_seed, kappa: float, penalized=None) -> np.ndarray:
    """Shared z-update for the l1-penalized problem.

    Applies shrinkage to the penalized coordinates of the seed average and
    passes the rest (the intercept) through unchanged. Every node computes
    this from the same average, so the results are identical across nodes.
    """
    average_seed = np.asarray(average_seed, dtype=float)
    if penalized is None:
        return soft_threshold(average_seed, kappa)
    shrunk = soft_threshold(average_seed, kappa)
    return np.where(np.asarray(penalized, dtype=bool), shrunk, average_seed)


@dataclass(frozen=True)
class L1Regularizer:
    """Weight mu on ||w||_1; the intercept coordinate stays unpenalized.

    ``mu`` must be finite and nonnegative; anything else raises ValueError.
    """

    mu: float

    def __post_init__(self):
        if not 0.0 <= self.mu < math.inf:     # also refuses NaN
            raise ValueError(f"mu must be finite and nonnegative, "
                             f"got {self.mu!r}")

    def kappa(self, n: int, rho: float) -> float:
        # the z-update solves argmin mu*||z||_1 + (n*rho/2)*||z - mean||^2
        return self.mu / (n * rho)

    def penalized_mask(self, dim: int) -> np.ndarray:
        mask = np.ones(dim, dtype=bool)
        mask[-1] = False
        return mask


def compute_mu_max(features, labels) -> float:
    """Smallest l1 weight that zeroes every feature coefficient.

    At the intercept-only optimum v* = log(m+/m-), the feature-block gradient
    is ``sum_k -b_k * sigmoid(-b_k v*) a_k``; its infinity norm is the
    threshold above which shrinkage kills all features.
    """
    features = np.atleast_2d(np.asarray(features, dtype=float))
    labels = np.atleast_1d(np.asarray(labels, dtype=float))
    pos = int(np.sum(labels > 0))
    neg = int(np.sum(labels < 0))
    if pos == 0 or neg == 0:
        raise ValueError("both classes must be present to size the penalty")
    v_star = float(np.log(pos / neg))
    sig = 1.0 / (1.0 + np.exp(labels * v_star))
    grad = features.T @ (-labels * sig)
    return float(np.max(np.abs(grad)))


def _seeded_rng(seed):
    if isinstance(seed, Integral) and seed < 0:
        raise ValueError(f"seed must be nonnegative, got {seed}")
    return np.random.default_rng(seed)


def make_least_squares_instance(n: int, p: int, q: int, seed: int,
                                noise: float = 1.0):
    """Seeded per-node least-squares terms around a shared ground truth."""
    rng = _seeded_rng(seed)
    x_true = rng.standard_normal(p)
    objectives = []
    for _ in range(n):
        mat = rng.standard_normal((q, p))
        rhs = mat @ x_true + noise * rng.standard_normal(q)
        objectives.append(LeastSquaresObjective(mat, rhs))
    return objectives, x_true


def make_logistic_instance(m: int, p: int, seed: int, noise: float = 0.1):
    """Seeded binary-labelled data: standard normal features, noisy margins."""
    rng = _seeded_rng(seed)
    features = rng.standard_normal((m, p))
    w_true = rng.standard_normal(p)
    v_true = float(rng.standard_normal())
    margins = features @ w_true + v_true + noise * rng.standard_normal(m)
    labels = np.where(margins >= 0.0, 1.0, -1.0)
    return features, labels


def split_rows(features, labels, n: int):
    """Deal rows into n near-equal contiguous shards."""
    features = np.atleast_2d(np.asarray(features, dtype=float))
    labels = np.atleast_1d(np.asarray(labels, dtype=float))
    bounds = np.linspace(0, features.shape[0], n + 1).astype(int)
    return [(features[a:b], labels[a:b]) for a, b in zip(bounds, bounds[1:])]


def save_dataset(path, features, labels) -> None:
    """Write one example per row, label column last, with a header."""
    features = np.atleast_2d(np.asarray(features, dtype=float))
    labels = np.atleast_1d(np.asarray(labels, dtype=float))
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow([f"f{i}" for i in range(features.shape[1])]
                        + ["label"])
        for row, label in zip(features, labels):
            writer.writerow([f"{v:.17g}" for v in row] + [f"{label:.17g}"])


def load_dataset(path):
    """Inverse of :func:`save_dataset`; returns (features, labels)."""
    with open(path, encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        next(reader)  # header
        rows = [[float(cell) for cell in row] for row in reader]
    data = np.asarray(rows, dtype=float)
    return data[:, :-1], data[:, -1]
