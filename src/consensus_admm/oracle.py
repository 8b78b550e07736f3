"""Centralized reference solutions used by tests and bound instrumentation.

Nothing in this module ever runs on the message path: the distributed
algorithms must work without any of these values. References verify their own
first-order optimality before they are handed out.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .consensus import RANK_TOL
from .errors import MaxIterations
from .objectives import soft_threshold


@dataclass
class Reference:
    """A checked optimizer: point, value, multipliers and how it was made."""

    x_star: np.ndarray
    f_star: float
    lambda_star: np.ndarray | None
    method: str
    residual: float


def exact_average(values) -> np.ndarray:
    """Arithmetic mean per coordinate of a stack of vectors (or scalars)."""
    return np.mean(np.asarray(values, dtype=float), axis=0)


def centralized_least_squares(mats, rhss) -> Reference:
    """Solve min_x sum_i 0.5*||A_i x - b_i||^2 by the normal equations.

    Returns the optimizer together with per-node multipliers
    ``lambda_i = -A_i^T (A_i x* - b_i)``, which sum to zero at the optimum.
    A 1e-12 ridge is added (and flagged in ``method``) if the Gram matrix is
    singular.
    """
    mats = [np.atleast_2d(np.asarray(a, dtype=float)) for a in mats]
    rhss = [np.atleast_1d(np.asarray(b, dtype=float)) for b in rhss]
    p = mats[0].shape[1]
    gram = sum(a.T @ a for a in mats)
    rhs = sum(a.T @ b for a, b in zip(mats, rhss))
    method = "normal_equations"
    try:
        x_star = np.linalg.solve(gram, rhs)
    except np.linalg.LinAlgError:
        x_star = np.linalg.solve(gram + 1e-12 * np.eye(p), rhs)
        method = "normal_equations+ridge"
    lam = np.stack([-(a.T @ (a @ x_star - b)) for a, b in zip(mats, rhss)])
    f_star = sum(0.5 * float(np.dot(a @ x_star - b, a @ x_star - b))
                 for a, b in zip(mats, rhss))
    residual = float(np.linalg.norm(gram @ x_star - rhs))
    return Reference(x_star, f_star, lam, method, residual)


def _logistic_value_grad(features: np.ndarray, labels: np.ndarray,
                         x: np.ndarray) -> tuple[float, np.ndarray]:
    # stable sum of log(1 + exp(-b * margin)) and its gradient
    margins = labels * (features @ x)
    value = float(np.sum(np.logaddexp(0.0, -margins)))
    sig = 1.0 / (1.0 + np.exp(margins))  # = sigmoid(-margins)
    grad = features.T @ (-labels * sig)
    return value, grad


def centralized_l1_logistic(features, labels, mu: float, *,
                            intercept: bool = True, tol: float = 1e-8,
                            max_iter: int = 200_000) -> Reference:
    """Proximal gradient for l1-penalized logistic loss, exact Lipschitz step.

    The logistic loss gradient is Lipschitz with constant ``||A||_2^2 / 4``,
    so the fixed inverse step descends monotonically — no line search that
    could stall in float noise near the optimum. The intercept rides as an
    appended, unpenalized coordinate. Iterates stop once both the composite
    gradient map norm and the direct subgradient residual are at most
    ``tol``.
    """
    features = np.asarray(features, dtype=float)
    labels = np.asarray(labels, dtype=float)
    design = np.hstack([features, np.ones((features.shape[0], 1))]) if intercept \
        else features
    p = design.shape[1]
    weight = np.full(p, mu)
    if intercept:
        weight[-1] = 0.0

    lipschitz = 0.25 * np.linalg.norm(design, 2) ** 2
    step = 1.0 / max(lipschitz, 1e-12)
    x = np.zeros(p)
    value, grad = _logistic_value_grad(design, labels, x)
    for _ in range(max_iter):
        candidate = soft_threshold(x - step * grad, step * weight)
        map_norm = float(np.linalg.norm(candidate - x)) / step
        x = candidate
        value, grad = _logistic_value_grad(design, labels, x)
        if map_norm <= tol and _l1_subgradient_residual(grad, x, weight) <= tol:
            break
    else:
        raise MaxIterations(f"no convergence in {max_iter} proximal steps")

    residual = _l1_subgradient_residual(grad, x, weight)
    f_star = value + float(weight @ np.abs(x))
    return Reference(x, f_star, None, "proximal_gradient", residual)


def _l1_subgradient_residual(grad: np.ndarray, x: np.ndarray,
                             weight: np.ndarray) -> float:
    """Distance of -grad from the l1 subdifferential scaled by ``weight``."""
    active = x != 0.0
    res = np.where(active, np.abs(grad + weight * np.sign(x)),
                   np.maximum(np.abs(grad) - weight, 0.0))
    return float(np.max(res)) if res.size else 0.0


def minimal_poly_oracle(weights: np.ndarray, node: int,
                        rank_tol: float = RANK_TOL) -> int:
    """Smallest d such that e_j^T W^0 .. e_j^T W^d are linearly dependent.

    This is the degree of the minimal polynomial of the pair (W, e_j); it is
    at most n by Cayley-Hamilton, and the finite-time consensus detector's
    defect index plus one must match it on generic inputs.
    """
    weights = np.asarray(weights, dtype=float)
    n = weights.shape[0]
    row = np.zeros(n)
    row[node] = 1.0
    rows = [row]
    for degree in range(1, n + 1):
        rows.append(rows[-1] @ weights)
        sigma = np.linalg.svd(np.stack(rows), compute_uv=False)
        rank = int(np.sum(sigma > rank_tol * sigma[0]))
        if rank <= degree:
            return degree
    return n
