"""Dual box QP with one equality constraint, solved by a two-coordinate
working-set method (maximal violating pair).

The pair-update loop is the hot kernel. It carries the score -y * grad
and the two working-set masks from step to step and touches only the two
coordinates that move: a step costs two masked copies, an argmax, an argmin
and one rank-two score update over the coordinates, and does the pair's
scalar arithmetic on Python floats. Ties break by lowest index.
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
        if not np.isfinite(G).all():
            raise QpError("G has non-finite entries")
        scale = max(1.0, float(np.abs(G).max()))
        if np.abs(G - G.T).max() > 1e-10 * scale:
            raise QpError("G is not symmetric")
        if not ((y == 1.0) | (y == -1.0)).all():
            raise QpError("y entries must be +1 or -1")
        if not (upper > 0).all():  # also rejects NaN
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
    G = problem.G
    n = problem.n
    y, upper = problem.y.tolist(), problem.upper.tolist()
    diag = G.diagonal().tolist()
    alpha = [0.0] * n
    # score = -y * grad with grad = G alpha - 1, so it starts at y. Row i of
    # Q is -y_i * y * G[:, i]; a factor of -1 is exact and rounding is
    # symmetric in sign, so score += step * (Q[i] - Q[j]) rounds entry by
    # entry as grad += step * (y_i G[:, i] - y_j G[:, j]) does, up to the
    # sign of an exact zero, which compares equal
    score = problem.y.copy()
    Q = np.ascontiguousarray((np.outer(problem.y, -problem.y) * G).T)
    delta = np.empty(n)
    # up: alpha < upper if y > 0 else alpha > 0; low: the same with -y. The
    # masked scores hold -inf (up) or +inf (low) off their set, and take
    # the set's scores afresh each step
    up = (problem.y > 0) & (problem.upper > 0.0)
    low = (problem.y < 0) & (problem.upper > 0.0)
    up_score = np.full(n, -np.inf)
    low_score = np.full(n, np.inf)
    it = 0
    upper_active = False
    while True:
        np.putmask(up_score, up, score)
        np.putmask(low_score, low, score)
        i = int(up_score.argmax())
        j = int(low_score.argmin())
        # an empty side of the working set leaves its extreme infinite, so
        # the gap is -inf and reads as 0. The gap is of the current alpha,
        # so a solve stopped by the cap reports the residual of the iterate
        # it returns
        gap = up_score.item(i) - low_score.item(j)
        if gap <= tol or it >= max_iter:
            break
        y_i, y_j = y[i], y[j]
        room_i = upper[i] - alpha[i] if y_i > 0 else alpha[i]
        room_j = alpha[j] if y_j > 0 else upper[j] - alpha[j]
        quad = diag[i] + diag[j] - 2.0 * y_i * y_j * G.item(i, j)
        if quad > 1e-12:
            step = min(gap / quad, room_i, room_j)
        else:
            step = min(room_i, room_j)
        if (y_i > 0 and room_i <= step) or (y_j < 0 and room_j <= step):
            upper_active = True
        a_i = min(max(alpha[i] + y_i * step, 0.0), upper[i])
        a_j = min(max(alpha[j] - y_j * step, 0.0), upper[j])
        if a_i == upper[i] or a_j == upper[j]:
            upper_active = True
        alpha[i], alpha[j] = a_i, a_j
        for k, a_k, y_k in ((i, a_i, y_i), (j, a_j, y_j)):
            below, above = a_k < upper[k], a_k > 0.0
            up_k, low_k = (below, above) if y_k > 0 else (above, below)
            up[k], low[k] = up_k, low_k
            if not up_k:
                up_score[k] = -np.inf
            if not low_k:
                low_score[k] = np.inf
        np.subtract(Q[i], Q[j], out=delta)
        delta *= step
        score += delta
        it += 1
    alpha = np.array(alpha)
    gap = max(float(gap), 0.0)
    return DualSolution(
        alpha=alpha,
        objective=objective(problem, alpha),
        kkt_residual=gap,
        iterations=it,
        converged=gap <= tol,
        upper_active=upper_active,
    )
