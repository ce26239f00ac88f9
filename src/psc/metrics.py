"""Evaluation: confusion matrix, per-class and total CCR, MWE, the
disparity-penalized balanced rate (BCCR), ROC curve and AUC."""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, replace

import numpy as np


class MetricsError(ValueError):
    pass


@dataclass(frozen=True)
class ConfusionMatrix:
    tp: int  # class +1 classified correctly
    fn: int  # class +1 classified wrongly
    fp: int  # class -1 classified wrongly
    tn: int  # class -1 classified correctly

    def __post_init__(self):
        if min(self.tp, self.fn, self.fp, self.tn) < 0:
            raise MetricsError("confusion counts must be non-negative")

    @property
    def positives(self) -> int:
        return self.tp + self.fn

    @property
    def negatives(self) -> int:
        return self.tn + self.fp


@dataclass(frozen=True)
class EvalReport:
    confusion: ConfusionMatrix
    ccr1: float
    ccr2: float
    total_ccr: float
    mwe: float
    bccr: float
    roc: list[tuple[float, float]] | None  # (fpr, tpr), (0,0) .. (1,1)
    auc: float | None


def _check_rate(name: str, value: float) -> None:
    if not 0.0 <= value <= 1.0:
        raise MetricsError(f"{name} must be in [0,1], got {value}")


def bccr(ccr1: float, ccr2: float) -> float:
    """Mean per-class rate damped by the squared per-class disparity."""
    _check_rate("ccr1", ccr1)
    _check_rate("ccr2", ccr2)
    return (ccr1 + ccr2) / 2.0 * math.exp(-((ccr1 - ccr2) ** 2) / 2.0)


def mwe(ccr1: float, ccr2: float) -> float:
    """Mean within-group error 1 - (ccr1 + ccr2)/2."""
    _check_rate("ccr1", ccr1)
    _check_rate("ccr2", ccr2)
    return 1.0 - (ccr1 + ccr2) / 2.0


def report_from_confusion(confusion: ConfusionMatrix) -> EvalReport:
    """Scalar metrics from aggregate counts (no ROC information)."""
    if confusion.positives == 0 or confusion.negatives == 0:
        raise MetricsError("confusion matrix must cover both classes")
    ccr1 = confusion.tp / confusion.positives
    ccr2 = confusion.tn / confusion.negatives
    total = (confusion.tp + confusion.tn) / (confusion.positives + confusion.negatives)
    return EvalReport(
        confusion=confusion,
        ccr1=ccr1,
        ccr2=ccr2,
        total_ccr=total,
        mwe=mwe(ccr1, ccr2),
        bccr=bccr(ccr1, ccr2),
        roc=None,
        auc=None,
    )


def roc_curve(labels: np.ndarray, decisions: np.ndarray):
    """Tie-grouped ROC by sweeping thresholds over distinct decision values;
    AUC by trapezoidal integration."""
    pos = labels == 1
    P = int(pos.sum())
    N = labels.size - P
    order = np.argsort(-decisions, kind="stable")
    sorted_dec = decisions[order]
    sorted_pos = pos[order]
    # last index of each distinct decision value in descending order
    distinct_last = np.flatnonzero(np.diff(sorted_dec) != 0.0)
    distinct_last = np.append(distinct_last, labels.size - 1)
    tp_cum = np.cumsum(sorted_pos)
    fp_cum = np.cumsum(~sorted_pos)
    tpr = np.concatenate([[0.0], tp_cum[distinct_last] / P])
    fpr = np.concatenate([[0.0], fp_cum[distinct_last] / N])
    points = list(zip(fpr.tolist(), tpr.tolist()))
    auc = float(np.trapezoid(tpr, fpr))
    return points, auc


def evaluate(labels, decisions) -> EvalReport:
    """Full report from true labels and raw decision values.

    Predictions are sign(decision) with zero mapped to +1. Single-class
    labels still yield the defined scalar metrics; ROC and AUC are absent.
    """
    labels = np.asarray(labels, dtype=np.int64).ravel()
    decisions = np.asarray(decisions, dtype=np.float64).ravel()
    if labels.shape != decisions.shape:
        raise MetricsError("labels and decisions must have equal length")
    if not np.isin(labels, (-1, 1)).all():
        raise MetricsError("labels must be +1 or -1")
    preds = np.where(decisions >= 0.0, 1, -1)
    pos = labels == 1
    confusion = ConfusionMatrix(
        tp=int((pos & (preds == 1)).sum()),
        fn=int((pos & (preds == -1)).sum()),
        fp=int((~pos & (preds == 1)).sum()),
        tn=int((~pos & (preds == -1)).sum()),
    )
    if confusion.positives and confusion.negatives:
        roc, auc = roc_curve(labels, decisions)
        return replace(report_from_confusion(confusion), roc=roc, auc=auc)
    nan = float("nan")
    return EvalReport(
        confusion=confusion,
        ccr1=confusion.tp / confusion.positives if confusion.positives else nan,
        ccr2=confusion.tn / confusion.negatives if confusion.negatives else nan,
        total_ccr=(confusion.tp + confusion.tn) / labels.size,
        mwe=nan,
        bccr=nan,
        roc=None,
        auc=None,
    )


def save_roc_csv(report: EvalReport, path) -> None:
    if report.roc is None:
        raise MetricsError("report carries no ROC points")
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["fpr", "tpr"])
        for fpr, tpr in report.roc:
            writer.writerow([format(fpr, ".17g"), format(tpr, ".17g")])
