"""Dense and exhaustive reference implementations the tests check the
library against: the objective and the KKT gap of a dual point, a grid
search over tiny box QPs, the SMO loop that qp.solve_smo must match within
stated bounds, the per-candidate threshold loop that
intercept.min_misclass_intercept must match bit for bit, the d-space scatter factor with the lambda cap and the Gram
formed from it, and the centred Gram in one d-space product, which
smw.build_factor's n-space path and dataset.centred_gram's column blocks
must match within stated bounds, the explicit d x d scatter matrix, and the Box-Muller draw and
the class means that dataset.standard_normal and dataset.class_stats must
match bit for bit, and the cell-by-cell CSV writer and reader whose bytes,
bits and errors dataset.write_csv and dataset.load_csv must match."""

import csv
import math
from itertools import product

import numpy as np

from psc.dataset import ClassStats, DatasetError, LabeledMatrix, class_stats
from psc.intercept import Projections
from psc.qp import DEFAULT_MAX_ITER, DEFAULT_TOL, BoxQP, DualSolution, QpError
from psc.smw import SmwError, SmwOperator, beta


def objective(problem: BoxQP, alpha: np.ndarray) -> float:
    """The dual's objective -1/2 a^T G a + a^T 1 at alpha."""
    return float(-0.5 * alpha @ problem.G @ alpha + alpha.sum())


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


def brute_force_small(problem: BoxQP, grid_points: int = 201) -> np.ndarray:
    """The feasible alpha of highest objective found by an exhaustive grid
    search for n <= 4: free coordinates on a grid, the first coordinate
    solved from the equality constraint."""
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
    return best_alpha


def smo_reference(
    problem: BoxQP,
    tol: float = DEFAULT_TOL,
    max_iter: int = DEFAULT_MAX_ITER,
) -> DualSolution:
    """The maximal-violating-pair (SMO) ascent that qp.solve_smo's
    active-set method replaced, as a loop that rebuilds the gradient's score
    and both masks over every coordinate each step. It stops on the same
    gap, at most tol."""
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


def scatter_rows(data: LabeledMatrix, stats: ClassStats) -> tuple[np.ndarray, np.ndarray]:
    """The (n+1) x d factor D of beta*S_B + S_W formed in d-space, with its
    row weights l_tau: x - u_class(x) for the +1 rows, then for the -1 rows
    (each class in data order), then u1 - u2."""
    pos = data.labels == 1
    D = np.vstack([data.samples[pos] - stats.u1, data.samples[~pos] - stats.u2,
                   stats.u1 - stats.u2])
    l_tau = np.concatenate([np.full(stats.n1, 1.0 / stats.n1), np.full(stats.n2, 1.0 / stats.n2),
                            [beta(stats.n1, stats.n2)]])
    return D, l_tau


def lambda_cap_reference(data: LabeledMatrix, stats: ClassStats) -> float:
    """1 / the largest eigenvalue of C C^T, C = diag(sqrt(l_tau)) D, from the
    d-space rows of scatter_rows."""
    D, l_tau = scatter_rows(data, stats)
    C = np.sqrt(l_tau)[:, None] * D
    return 1.0 / float(np.linalg.eigvalsh(C @ C.T)[-1])


def gram_reference(op: SmwOperator, data: LabeledMatrix) -> np.ndarray:
    """smw.gram with Xc Xc^T and Xc D^T basis formed at every call from the
    rows of data centred on their mean and the d-space rows of scatter_rows,
    and the operator's basis and weights."""
    if data.d != op.factor.d:
        raise SmwError("operator was built for a different dimension")
    X = data.samples - data.samples.mean(axis=0)
    y = data.labels.astype(np.float64)
    D, _ = scatter_rows(data, class_stats(data))
    P = (X @ D.T) @ op.factor.basis
    G0 = X @ X.T + (P * op.weights) @ P.T
    G = y[:, None] * G0 * y[None, :]
    G = (G + G.T) / 2.0
    eigs = np.linalg.eigvalsh(G)
    scale = max(abs(eigs[0]), abs(eigs[-1]), 1e-300)
    if eigs[0] < -1e-8 * scale:
        raise SmwError(f"Gram matrix not PSD (min eig {eigs[0]:.3e}); lambda too large or numerical breakdown")
    return G


def centred_gram_reference(data: LabeledMatrix) -> np.ndarray:
    """Xc Xc^T in one d-space product, Xc the rows of data centred on their
    mean."""
    X = data.samples - data.samples.mean(axis=0)
    return X @ X.T


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


def standard_normal_reference(rng: np.random.Generator, shape) -> np.ndarray:
    """Standard normals via Box-Muller over PCG64 uniforms (stream-stable)."""
    count = int(np.prod(shape))
    half = (count + 1) // 2
    u1 = rng.random(half)
    u2 = rng.random(half)
    radius = np.sqrt(-2.0 * np.log1p(-u1))  # 1-u1 in (0,1], log never hits 0
    angle = 2.0 * np.pi * u2
    z = np.concatenate([radius * np.cos(angle), radius * np.sin(angle)])[:count]
    return z.reshape(shape)


def class_stats_reference(data: LabeledMatrix) -> ClassStats:
    """Class means from a copy of each class's rows."""
    pos = data.labels == 1
    n1 = int(pos.sum())
    n2 = data.n - n1
    u1 = data.samples[pos].mean(axis=0)
    u2 = data.samples[~pos].mean(axis=0)
    return ClassStats(u1=u1, u2=u2, n1=n1, n2=n2)


def write_csv_reference(data: LabeledMatrix, path, label_column: str = "label") -> None:
    """csv.writer over each row's cells, each formatted by format(v, ".17g")."""
    names = data.feature_names or tuple(f"f{i}" for i in range(data.d))
    if label_column in names:
        raise DatasetError(f"label column {label_column!r} is also a feature name")
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(list(names) + [label_column])
        for row, label in zip(data.samples, data.labels):
            writer.writerow([format(v, ".17g") for v in row] + [str(int(label))])


def load_csv_reference(path, label_column: str, positive_labels) -> LabeledMatrix:
    """csv.reader row by row; a row's feature cells go through np.array,
    and through float() one at a time when that fails or holds a non-finite
    value."""
    positive_labels = set(positive_labels)
    try:
        fh = open(path, newline="", encoding="utf-8-sig")  # a leading BOM is not a header cell
    except FileNotFoundError:
        raise DatasetError(f"no such file: {path}") from None
    with fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise DatasetError(f"{path}: empty file") from None
        if label_column not in header:
            raise DatasetError(f"{path}: label column {label_column!r} not in header")
        if header.count(label_column) > 1:
            raise DatasetError(f"{path}: label column {label_column!r} appears more than once in header")
        label_idx = header.index(label_column)
        feature_names = tuple(h for i, h in enumerate(header) if i != label_idx)
        rows, labels = [], []
        for row_no, row in enumerate(reader, start=2):
            if len(row) != len(header):
                raise DatasetError(f"{path}: row {row_no} has {len(row)} cells, expected {len(header)}")
            labels.append(1 if row[label_idx] in positive_labels else -1)
            try:
                values = np.array(row[:label_idx] + row[label_idx + 1:], dtype=np.float64)
            except ValueError:
                values = None
            if values is None or not np.isfinite(values).all():
                values = _parse_row_reference(path, row_no, header, row, label_idx)
            rows.append(values)
    if not rows:
        raise DatasetError(f"{path}: no data rows")
    labels = np.asarray(labels, dtype=np.int64)
    if (labels == 1).all() or (labels == -1).all():
        raise DatasetError(f"{path}: binarization produced a single class")
    try:
        return LabeledMatrix(np.asarray(rows), labels, feature_names)
    except DatasetError as exc:  # a file that holds only its label column
        raise DatasetError(f"{path}: {exc}") from None


def _parse_row_reference(path, row_no: int, header: list[str], row: list[str],
                         label_idx: int) -> list[float]:
    values = []
    for i, cell in enumerate(row):
        if i == label_idx:
            continue
        try:
            v = float(cell)
        except ValueError:
            raise DatasetError(
                f"{path}: row {row_no}, column {header[i]!r}: cannot parse {cell!r}"
            ) from None
        if not math.isfinite(v):
            raise DatasetError(
                f"{path}: row {row_no}, column {header[i]!r}: non-finite value {cell!r}"
            )
        values.append(v)
    return values
