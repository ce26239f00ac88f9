"""Imbalance-adaptive intercept from projected training data.

Separable classes get an asymmetric split of the gap: the class with fewer
samples under-estimates its spread, so it receives the larger buffer.
Overlapping classes fall back to a minimum-misclassification threshold scan.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

DEFAULT_R = 2.0


class InterceptError(ValueError):
    pass


@dataclass(frozen=True)
class Projections:
    """w^T x values per class."""

    pos: np.ndarray
    neg: np.ndarray

    def __post_init__(self):
        pos = np.asarray(self.pos, dtype=np.float64).ravel()
        neg = np.asarray(self.neg, dtype=np.float64).ravel()
        if pos.size == 0 or neg.size == 0:
            raise InterceptError("both classes need at least one projection")
        if not (np.isfinite(pos).all() and np.isfinite(neg).all()):
            raise InterceptError("projections must be finite")
        object.__setattr__(self, "pos", pos)
        object.__setattr__(self, "neg", neg)


def is_separable(p: Projections) -> bool:
    return float(p.pos.min()) > float(p.neg.max())


def gap_intercept(p: Projections, R: float = DEFAULT_R) -> float:
    """Split the projection gap with ratio b-/b+ = (n_maj/n_min)^(-1/(2R)),
    counting each class by its number of projections."""
    if not R > 0:  # also rejects NaN
        raise InterceptError("R must be positive")
    if not is_separable(p):
        raise InterceptError("classes are not separable along this direction")
    lo = float(p.pos.min())
    hi = float(p.neg.max())
    b_gap = lo - hi
    n_pos, n_neg = p.pos.size, p.neg.size
    if n_neg >= n_pos:
        r = math.exp(-math.log(n_neg / n_pos) / (2.0 * R))
    else:
        r = math.exp(math.log(n_pos / n_neg) / (2.0 * R))
    # r is the buffer ratio b-/b+; with b- + b+ = b_gap the minority class
    # always receives the larger buffer
    b_plus = b_gap / (1.0 + r)
    return b_plus - lo


def min_misclass_intercept(p: Projections) -> float:
    """Threshold minimizing the misclassification count J over all reals.

    Candidates are midpoints between consecutive distinct projections plus
    one point beyond each extreme; ties are broken by widest enclosing gap,
    then higher minority-class recall, then smaller |b|. One sort of each
    class counts every candidate's errors, so the scan is O(n log n).
    """
    pos, neg = np.sort(p.pos), np.sort(p.neg)
    distinct = np.unique(np.concatenate([p.pos, p.neg]))
    lo, hi = distinct[:-1], distinct[1:]
    # near the float limit a sum or a gap can overflow: a gap then reads inf,
    # and a midpoint is re-formed as lo/2 + hi/2 (the others keep their bits)
    with np.errstate(over="ignore"):
        mids = (lo + hi) / 2.0
        gaps = np.concatenate([[np.inf], hi - lo, [np.inf]])
    over = ~np.isfinite(mids)
    mids[over] = lo[over] / 2.0 + hi[over] / 2.0
    thresholds = np.concatenate([[distinct[0] - 1.0], mids, [distinct[-1] + 1.0]])
    # predicted +1 iff value >= threshold (sign(0) = +1); a sample exactly on
    # the threshold counts as misclassified regardless of its label
    pos_errors = np.searchsorted(pos, thresholds, side="right")
    neg_errors = neg.size - np.searchsorted(neg, thresholds, side="left")
    if neg.size < pos.size:
        recall = (neg.size - neg_errors) / neg.size
    else:  # the positive class, also when balanced
        recall = (pos.size - pos_errors) / pos.size
    # lexsort's last key is primary and it is stable: the first minimum wins
    best = np.lexsort((np.abs(thresholds), -recall, -gaps, pos_errors + neg_errors))[0]
    return float(-thresholds[best])


def choose_intercept(p: Projections, R: float = DEFAULT_R) -> float:
    if is_separable(p):
        return gap_intercept(p, R)
    return min_misclass_intercept(p)
