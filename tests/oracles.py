"""Dense and exhaustive reference implementations the tests check the
library against: the KKT gap of a dual point, a grid search over tiny box
QPs, the vectorized SMO loop that qp.solve_smo must match bit for bit, the
per-candidate threshold loop that intercept.min_misclass_intercept must match
bit for bit, the per-lambda Gram assembly that smw.gram must match bit for
bit, and the explicit d x d scatter matrix."""

from itertools import product

import numpy as np

from psc.dataset import ClassStats, LabeledMatrix
from psc.intercept import Projections
from psc.qp import DEFAULT_MAX_ITER, DEFAULT_TOL, BoxQP, DualSolution, QpError, objective
from psc.scatter import beta
from psc.smw import SmwError, SmwOperator


def kkt_violation(problem: BoxQP, alpha: np.ndarray) -> float:
    """Max violating-pair gap at alpha; 0 at an exact optimum."""
    alpha = np.asarray(alpha, dtype=np.float64)
    y, upper = problem.y, problem.upper
    grad = problem.G @ alpha - 1.0
    score = -y * grad
    up_mask = ((y > 0) & (alpha < upper)) | ((y < 0) & (alpha > 0.0))
    low_mask = ((y < 0) & (alpha < upper)) | ((y > 0) & (alpha > 0.0))
    if not up_mask.any() or not low_mask.any():
        return 0.0
    hi = score[up_mask].max()
    lo = score[low_mask].min()
    return max(float(hi - lo), 0.0)


def brute_force_small(problem: BoxQP, grid_points: int = 201) -> DualSolution:
    """Exhaustive grid oracle for n <= 4: free coordinates on a grid, the
    first coordinate solved from the equality constraint."""
    n = problem.n
    if n > 4:
        raise QpError("brute force oracle limited to n <= 4")
    if grid_points > 401 or grid_points < 2:
        raise QpError("grid_points must be in [2, 401]")
    y, upper = problem.y, problem.upper
    grids = [np.linspace(0.0, upper[i], grid_points) for i in range(1, n)]
    slack = upper[0] * 1e-12
    best_alpha = np.zeros(n)
    best_obj = objective(problem, best_alpha)
    for tail in product(*grids) if n > 1 else [()]:
        tail = np.asarray(tail)
        a0 = -y[0] * float(tail @ y[1:]) if n > 1 else 0.0
        if a0 < -slack or a0 > upper[0] + slack:
            continue
        alpha = np.concatenate([[min(max(a0, 0.0), upper[0])], tail])
        obj = objective(problem, alpha)
        if obj > best_obj:
            best_obj = obj
            best_alpha = alpha
    return DualSolution(
        alpha=best_alpha,
        objective=best_obj,
        kkt_residual=kkt_violation(problem, best_alpha),
        iterations=grid_points ** max(n - 1, 0),
        converged=True,
    )


def smo_reference(
    problem: BoxQP,
    tol: float = DEFAULT_TOL,
    max_iter: int = DEFAULT_MAX_ITER,
) -> DualSolution:
    """qp.solve_smo's algorithm as a loop that rebuilds the gradient's score
    and both masks over every coordinate each step."""
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


def _misclassified(values: np.ndarray, labels: np.ndarray, threshold: float) -> np.ndarray:
    # predicted +1 iff value >= threshold (sign(0) = +1); a sample exactly on
    # the boundary counts as misclassified regardless of its label
    margin = labels * (values - threshold)
    return margin <= 0.0


def min_misclass_reference(p: Projections) -> float:
    """Threshold minimizing the misclassification count J over all reals.

    Candidates are midpoints between consecutive distinct projections plus
    one point beyond each extreme; ties are broken by widest enclosing gap,
    then higher minority-class recall, then smaller |b|.
    """
    values = np.concatenate([p.pos, p.neg])
    labels = np.concatenate([np.ones(p.pos.size), -np.ones(p.neg.size)])
    distinct = np.unique(values)
    candidates = [(distinct[0] - 1.0, np.inf)]
    for a, b in zip(distinct[:-1], distinct[1:]):
        candidates.append(((a + b) / 2.0, b - a))
    candidates.append((distinct[-1] + 1.0, np.inf))

    if p.pos.size < p.neg.size:
        minority = labels > 0
    elif p.neg.size < p.pos.size:
        minority = labels < 0
    else:
        minority = labels > 0  # balanced: break ties on the positive class

    best = None
    best_key = None
    for threshold, gap in candidates:
        mis = _misclassified(values, labels, threshold)
        j_score = 2 * int(mis.sum()) - values.size  # sum of +/-1 terms
        recall = float((~mis[minority]).sum()) / minority.sum()
        key = (j_score, -gap, -recall, abs(-threshold))
        if best_key is None or key < best_key:
            best_key = key
            best = -threshold
    return float(best)


def gram_reference(op: SmwOperator, data: LabeledMatrix) -> np.ndarray:
    """smw.gram with X X^T and X D^T basis formed from data at every call."""
    if data.d != op.factor.d:
        raise SmwError("operator was built for a different dimension")
    X = data.samples
    y = data.labels.astype(np.float64)
    P = (X @ op.factor.d_matrix.T) @ op.factor.basis
    G0 = X @ X.T + (P * op.weights) @ P.T
    G = y[:, None] * G0 * y[None, :]
    G = (G + G.T) / 2.0
    eigs = np.linalg.eigvalsh(G)
    scale = max(abs(eigs[0]), abs(eigs[-1]), 1e-300)
    if eigs[0] < -1e-8 * scale:
        raise SmwError(f"Gram matrix not PSD (min eig {eigs[0]:.3e}); lambda too large or numerical breakdown")
    return G


def dense_scatter(data: LabeledMatrix, stats: ClassStats) -> np.ndarray:
    """Explicit d x d matrix beta*S_B + S_W, for small d."""
    pos = data.labels == 1
    Q1 = data.samples[pos] - stats.u1
    Q2 = data.samples[~pos] - stats.u2
    s_w = Q1.T @ Q1 / stats.n1 + Q2.T @ Q2 / stats.n2
    diff = stats.u1 - stats.u2
    s_b = np.outer(diff, diff)
    out = beta(stats.n1, stats.n2) * s_b + s_w
    return (out + out.T) / 2.0
