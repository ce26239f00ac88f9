"""Dual box QP with one equality constraint, solved by a two-coordinate
working-set method (maximal violating pair).

The pair-update loop is the hot kernel. It is vectorized over the
coordinates with numpy and breaks ties by lowest index.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

DEFAULT_TOL = 1e-6
DEFAULT_MAX_ITER = 10_000_000


class QpError(ValueError):
    """Malformed QP instance."""


@dataclass(frozen=True)
class BoxQP:
    """maximize -1/2 a^T G a + a^T 1  s.t.  a^T y = 0, 0 <= a_i <= upper_i."""

    G: np.ndarray
    y: np.ndarray
    upper: np.ndarray

    def __post_init__(self):
        G = np.ascontiguousarray(np.asarray(self.G, dtype=np.float64))
        y = np.asarray(self.y, dtype=np.float64).ravel()
        upper = np.asarray(self.upper, dtype=np.float64).ravel()
        n = y.shape[0]
        if G.shape != (n, n):
            raise QpError(f"G shape {G.shape} does not match n={n}")
        if upper.shape[0] != n:
            raise QpError("upper bound vector length mismatch")
        scale = max(1.0, float(np.abs(G).max()))
        if np.abs(G - G.T).max() > 1e-10 * scale:
            raise QpError("G is not symmetric")
        if not np.isin(y, (-1.0, 1.0)).all():
            raise QpError("y entries must be +1 or -1")
        if (upper <= 0).any():
            raise QpError("all upper bounds must be positive")
        object.__setattr__(self, "G", G)
        object.__setattr__(self, "y", y)
        object.__setattr__(self, "upper", upper)

    @property
    def n(self) -> int:
        return self.y.shape[0]


@dataclass(frozen=True)
class DualSolution:
    alpha: np.ndarray
    objective: float
    kkt_residual: float
    iterations: int
    converged: bool
    # whether a cap could have shaped the solve (see solve_smo); a solution
    # that does not say is taken to be capped
    upper_active: bool = True


def objective(problem: BoxQP, alpha: np.ndarray) -> float:
    return float(-0.5 * alpha @ problem.G @ alpha + alpha.sum())


def solve_smo(
    problem: BoxQP,
    tol: float = DEFAULT_TOL,
    max_iter: int = DEFAULT_MAX_ITER,
) -> DualSolution:
    """Maximal-violating-pair ascent from alpha = 0. A solve capped at
    max_iter returns its max_iter-th iterate.

    The caps enter the loop only through the upper-side rooms, the
    ``alpha < upper`` masks and the clamp. ``upper_active`` is set when an
    upper-side room bounds a step or a coordinate reaches its cap. A solve
    that leaves it clear takes the same steps under any caps at least as
    large elementwise, since float rounding is monotone, and so returns the
    same alpha, iterations and gap bit for bit."""
    if not tol > 0:
        raise QpError("tol must be positive")
    G, y, upper = problem.G, problem.y, problem.upper
    n = y.shape[0]
    alpha = np.zeros(n)
    grad = -np.ones(n)
    it = 0
    upper_active = False
    while True:
        score = -y * grad
        up_mask = ((y > 0) & (alpha < upper)) | ((y < 0) & (alpha > 0.0))
        low_mask = ((y < 0) & (alpha < upper)) | ((y > 0) & (alpha > 0.0))
        if not up_mask.any() or not low_mask.any():
            gap = 0.0
            break
        i = int(np.argmax(np.where(up_mask, score, -np.inf)))
        j = int(np.argmin(np.where(low_mask, score, np.inf)))
        gap = score[i] - score[j]
        # the gap is of the current alpha, so a solve stopped by the cap
        # reports the residual of the iterate it returns
        if gap <= tol or it >= max_iter:
            break
        room_i = upper[i] - alpha[i] if y[i] > 0 else alpha[i]
        room_j = alpha[j] if y[j] > 0 else upper[j] - alpha[j]
        quad = G[i, i] + G[j, j] - 2.0 * y[i] * y[j] * G[i, j]
        if quad > 1e-12:
            step = min(gap / quad, room_i, room_j)
        else:
            step = min(room_i, room_j)
        if (y[i] > 0 and room_i <= step) or (y[j] < 0 and room_j <= step):
            upper_active = True
        alpha[i] += y[i] * step
        alpha[j] -= y[j] * step
        alpha[i] = min(max(alpha[i], 0.0), upper[i])
        alpha[j] = min(max(alpha[j], 0.0), upper[j])
        if alpha[i] == upper[i] or alpha[j] == upper[j]:
            upper_active = True
        grad += step * (y[i] * G[:, i] - y[j] * G[:, j])
        it += 1
    gap = max(float(gap), 0.0)
    return DualSolution(
        alpha=alpha,
        objective=objective(problem, alpha),
        kkt_residual=gap,
        iterations=it,
        converged=gap <= tol,
        upper_active=upper_active,
    )
