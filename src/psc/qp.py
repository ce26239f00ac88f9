"""Dual box QP with one equality constraint, solved by a primal active-set
method.

Each step solves the equality-constrained subproblem of the free rows (a
face of the box) with the bound rows held at their bounds, and moves towards
its optimum until the first bound blocks. When a face's optimum is reached,
the bound row of the maximal violating pair is released. In high-dimension
low-sample-size duals nearly every multiplier is free, so most solves take
one step. The violating pair breaks ties by lowest index.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

DEFAULT_TOL = 1e-6
DEFAULT_MAX_ITER = 10_000_000
# a Cholesky pivot of the reduced Hessian whose square is at most FLAT times
# its largest diagonal entry reads as a zero curvature
FLAT = float(np.sqrt(np.finfo(np.float64).eps))


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
        if n == 0:
            raise QpError("the problem has no rows (n=0)")
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
    kkt_residual: float
    iterations: int
    converged: bool
    upper_active: bool  # whether a cap could have shaped the solve (see solve_smo)


def solve_smo(
    problem: BoxQP,
    tol: float = DEFAULT_TOL,
    max_iter: int = DEFAULT_MAX_ITER,
) -> DualSolution:
    """Primal active-set ascent from alpha = 0 with every row free. The
    name is kept from the pair-step (SMO) method this replaced, which
    tests/oracles.py keeps as smo_reference.

    A step works on the face of the free rows F, the bound rows held at
    their bounds. It takes the face's Newton step (see _face_direction)
    and shortens it to the first bound it crosses; every row that blocks at
    that length leaves F at its bound. A step of length 0 changes only F
    and is not counted. Once a step reaches its face's optimum, the bound
    row of the maximal violating pair joins F: of two bound rows, the one
    whose score is further from the free rows' score, and both when F is
    empty. The solve stops when the pair's gap is
    at most tol. It stops short of that, unconverged, when no bound row of
    the pair violates or when a face optimum repeats the working set of an
    earlier one (a cycle). ``iterations`` counts steps, and a solve capped
    at max_iter returns its max_iter-th iterate and that iterate's gap.

    The caps enter only through the ratio tests of the upper bounds and the
    clamp. ``upper_active`` is set when an upper-bound ratio is at most the
    step taken or a coordinate ends equal to its cap. A solve that leaves
    it clear takes the same steps under any caps at least as large
    elementwise, since float rounding is monotone, and so returns the same
    alpha, iterations and gap bit for bit."""
    if not tol > 0:
        raise QpError("tol must be positive")
    G, y, upper = problem.G, problem.y, problem.upper
    alpha = np.zeros(problem.n)
    free = np.ones(problem.n, dtype=bool)
    seen = set()
    at_optimum = False
    upper_active = False
    it = 0
    while True:
        grad = 1.0 - G @ alpha  # the objective's gradient
        score = y * grad
        gap, i, j = _violating_pair(score, alpha, y, upper)
        if gap <= tol or it >= max_iter:
            break
        f = np.flatnonzero(free)
        if at_optimum or not f.size:
            key = free.tobytes() + (alpha > 0.0).tobytes()
            if key in seen:
                break
            seen.add(key)
            if f.size:
                # the free rows share one score, the face's multiplier for y
                nu = score[f[0]]
                excess = [(score[i] - nu, i), (nu - score[j], j)]
                excess = [(e, k) for e, k in excess if e > 0 and not free[k]]
                if not excess:
                    break
                free[max(excess, key=lambda ek: ek[0])[1]] = True
            else:
                free[[i, j]] = True
            f = np.flatnonzero(free)
        p, length = _face_direction(G, y, alpha, grad, f)
        a_f, u_f = alpha[f], upper[f]
        ratio = np.full(f.size, np.inf)
        down, up = p < 0.0, p > 0.0
        ratio[down] = a_f[down] / -p[down]
        ratio[up] = (u_f[up] - a_f[up]) / p[up]
        b = int(ratio.argmin())
        step = min(length, ratio[b])
        if step == np.inf:
            raise QpError("the dual is unbounded: a zero-curvature ascent direction "
                          "meets no finite cap")
        if (ratio[up] <= step).any():
            upper_active = True
        a_f += step * p
        at_optimum = not ratio[b] < length
        if not at_optimum:  # every row that blocks at this length leaves F
            ties = ratio == ratio[b]
            a_f[ties] = np.where(p[ties] < 0.0, 0.0, u_f[ties])
            free[f[ties]] = False
        np.clip(a_f, 0.0, u_f, out=a_f)
        if (a_f == u_f).any():
            upper_active = True
        alpha[f] = a_f
        if step > 0.0:  # a step of length 0 changes only F
            it += 1
    gap = max(gap, 0.0)
    return DualSolution(
        alpha=alpha,
        kkt_residual=gap,
        iterations=it,
        converged=gap <= tol,
        upper_active=upper_active,
    )


def _violating_pair(score: np.ndarray, alpha: np.ndarray, y: np.ndarray,
                    upper: np.ndarray) -> tuple[float, int, int]:
    """The maximal violating pair (i, j) and its gap score[i] - score[j].
    i may grow along y (alpha < upper if y > 0 else alpha > 0) and j may
    shrink along it; an empty side reads as a gap of 0."""
    pos, below, above = y > 0, alpha < upper, alpha > 0.0
    up, low = np.where(pos, below, above), np.where(pos, above, below)
    if not (up.any() and low.any()):
        return 0.0, -1, -1
    i = int(np.where(up, score, -np.inf).argmax())
    j = int(np.where(low, score, np.inf).argmin())
    return float(score[i] - score[j]), i, j


def _face_direction(G: np.ndarray, y: np.ndarray, alpha: np.ndarray, grad: np.ndarray,
                    f: np.ndarray) -> tuple[np.ndarray, float]:
    """A direction p on the free rows f with y_f^T p = 0, and the length
    at which it reaches the face's optimum.

    With r = f[0] and R the rest, p_R = z and p_r = -y_r y_R^T z (p = Z z),
    so along z the objective has gradient h = grad_R - y_r grad_r y_R and
    Hessian H = Z^T G_ff Z. If H's least Cholesky pivot, squared, exceeds
    FLAT times its largest diagonal entry, p is the Newton step z = H^-1 h,
    of length 1. Otherwise the face is flat along H's eigenvector of least
    eigenvalue, and p follows it, signed so that h^T z >= 0, with no length
    of its own. A face of one row is the point where y^T alpha = 0."""
    r, R = f[0], f[1:]
    if R.size == 0:
        # y^T alpha summed exactly, so a row whose partners sit at their
        # bounds lands on its own bound when y^T alpha = 0 puts it there
        return np.array([-y[r] * math.fsum(y * alpha)]), 1.0
    y_r, y_R = y[r], y[R]
    v = y_r * G[r, R]
    H = G[np.ix_(R, R)] - np.outer(y_R, v) - np.outer(v, y_R) + G[r, r] * np.outer(y_R, y_R)
    h = grad[R] - (y_r * grad[r]) * y_R
    try:
        pivots = np.linalg.cholesky(H).diagonal()
        if pivots.min() ** 2 > FLAT * H.diagonal().max():
            z = np.linalg.solve(H, h)
            return np.concatenate(([-y_r * (y_R @ z)], z)), 1.0
    except np.linalg.LinAlgError:
        pass
    z = np.linalg.eigh(H)[1][:, 0]
    if h @ z < 0.0:
        z = -z
    return np.concatenate(([-y_r * (y_R @ z)], z)), np.inf
