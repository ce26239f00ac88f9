"""Repeated nested cross-validation with grid tuning on the inner folds."""

from __future__ import annotations

import numbers
from dataclasses import asdict, dataclass, fields

import numpy as np

from . import classifier
from .classifier import FIT_ERRORS, Hyperparams, LinearModel
from .dataset import DatasetError, LabeledMatrix, gram_coordinates, stratified_kfold
from .metrics import confusion, evaluate, report_from_confusion

DEFAULT_GAMMA_GRID = (0.1, 0.3, 0.5, 0.7, 0.9)
DEFAULT_C0_GRID = (2.0**-5, 2.0**-3, 2.0**-1, 2.0, 2.0**3, 2.0**5)
SELECTION_METRICS = ("bccr", "total_ccr", "mwe")
# keyed by ExperimentConfig's annotations, which are strings under the __future__ import
_FIELD_TYPES = {"str": str, "int": numbers.Integral, "float": numbers.Real}


class ConfigError(ValueError):
    pass


def _is_a(value, kind) -> bool:
    return isinstance(value, kind) and not isinstance(value, bool)


@dataclass(frozen=True)
class ExperimentConfig:
    """The settings of one cv_run; once they are checked, grid holds the cells a search tries."""

    method: str = "psc"
    gamma_grid: tuple[float, ...] = DEFAULT_GAMMA_GRID
    c0_grid: tuple[float, ...] = DEFAULT_C0_GRID
    r_scale: float = Hyperparams.r_scale
    outer_folds: int = 5
    inner_folds: int = 4
    repeats: int = 18
    selection_metric: str = "bccr"
    seed: int = 0

    def __post_init__(self):
        for f in fields(self):
            value = getattr(self, f.name)
            if f.type == "tuple[float, ...]":
                if not isinstance(value, (tuple, list)) or not all(_is_a(v, numbers.Real) for v in value):
                    raise ConfigError(f"{f.name} must be a list of numbers, got {value!r}")
                object.__setattr__(self, f.name, tuple(value))
            elif not _is_a(value, _FIELD_TYPES[f.type]):
                raise ConfigError(f"{f.name} must be of type {f.type}, got {value!r}")
        if self.method not in classifier.METHODS:
            raise ConfigError(f"unknown method {self.method!r}")
        if self.selection_metric not in SELECTION_METRICS:
            raise ConfigError(f"unknown selection metric {self.selection_metric!r}")
        if not self.gamma_grid or not self.c0_grid:
            raise ConfigError("hyperparameter grids must be non-empty")
        if self.outer_folds < 2 or self.inner_folds < 2:
            raise ConfigError("fold counts must be at least 2")
        if self.repeats < 1:
            raise ConfigError("repeats must be at least 1")
        if self.seed < 0:
            raise ConfigError(f"seed must be a non-negative integer, got {self.seed}")
        try:  # every grid value, so that no cell fails for its settings alone
            rows = [[Hyperparams(gamma=gamma, c0=c0, r_scale=self.r_scale) for c0 in self.c0_grid]
                    for gamma in self.gamma_grid]
        except classifier.FitError as exc:
            raise ConfigError(str(exc)) from None
        # rmdd has no tunables; cssvm ignores gamma. c0 ascends, so that each
        # (training set, gamma) solves first at the c0 whose solve the larger
        # ones can reuse (classifier.TrainingSet), however the config lists it.
        grid = tuple(hp for row in (rows if self.method == "psc" else rows[:1])
                     for hp in sorted(row, key=lambda hp: hp.c0))
        # not a field, so not an argument, a config-file key, or part of ==, hash or repr
        object.__setattr__(self, "grid", grid[:1] if self.method == "rmdd" else grid)


def _validation_score(labels: np.ndarray, decisions: np.ndarray, metric: str) -> float:
    """evaluate(labels, decisions)'s metric, from the confusion counts alone
    (no ROC), turned so that higher is better throughout."""
    value = getattr(report_from_confusion(confusion(labels, decisions)), metric)
    return 1.0 - value if metric == "mwe" else value


def _score_inner_fold(train: LabeledMatrix, tr: np.ndarray, va: np.ndarray,
                      scores: dict, config: ExperimentConfig) -> None:
    """Fit every cell still in scores on one inner fold and append its
    validation score. The fold's training set is prepared once for all
    cells and dropped on return; a cell whose fit fails leaves scores.
    A fit that returns the last scored model's w (the same object) and an
    equal b makes the same decisions, so it gets that model's score."""
    sub = classifier.prepare(LabeledMatrix(train.samples[tr], train.labels[tr]))
    val_samples, val_labels = train.samples[va], train.labels[va]
    last = None  # (w, b, score) of the last model scored
    for hp in list(scores):
        try:
            model = classifier.fit(config.method, sub, hp)
        except FIT_ERRORS:
            del scores[hp]
            continue
        if last is None or model.w is not last[0] or model.b != last[1]:
            dec = classifier.decision(model, val_samples)
            last = (model.w, model.b, _validation_score(val_labels, dec, config.selection_metric))
        scores[hp].append(last[2])


def tune_and_fit(
    samples: np.ndarray,
    labels: np.ndarray,
    train_idx: np.ndarray,
    config: ExperimentConfig,
    fold_seed: int,
) -> tuple[LinearModel, tuple[float, float]]:
    """Grid-search on inner folds of train_idx, then refit on all of it.

    Only the train_idx rows of samples are ever materialized, so held-out
    rows stay unread during tuning and refitting, in whichever space cv_run
    gives the samples. A cell that fails on any inner fold is skipped.
    """
    train = classifier.prepare(LabeledMatrix(samples[train_idx], labels[train_idx]))
    grid = config.grid
    scores = {}
    if len(grid) > 1:
        inner = stratified_kfold(train.data.labels, config.inner_folds, seed=fold_seed)
        scores = {hp: [] for hp in grid}
        for f in range(config.inner_folds):
            _score_inner_fold(train.data, inner.train_indices(f), inner.test_indices(f), scores, config)
    # ties: smaller c0, then gamma, then the first cell in grid order
    best = min(scores, key=lambda hp: (-float(np.mean(scores[hp])), hp.c0, hp.gamma), default=grid[0])
    model = classifier.fit(config.method, train, best)
    return model, (best.gamma, best.c0)


def cv_run(data: LabeledMatrix, config: ExperimentConfig) -> dict:
    """Repeated outer CV; returns per-fold reports, per-repeat pooled
    reports, and a grand summary with pooled-confusion metrics.

    Every method here is linear and blind to a rotation of feature space
    and to a common shift of the rows. So at d > n the whole run, every
    fit and held-out decision, works on the rows' n coordinates Z, Z Z^T
    the Gram of all rows centred on their mean (dataset.gram_coordinates);
    at d <= n Z would be wider than the rows. Z reads every row's features,
    held-out rows included, but no label. In exact arithmetic no result
    depends on it; in floating point only the rounding does.
    """
    if data.d > data.n:
        data = LabeledMatrix(gram_coordinates(classifier.prepare(data).gram), data.labels)
    samples, labels = data.samples, data.labels
    repeats_out = []
    all_labels, all_decisions = [], []
    for rep in range(config.repeats):
        outer = stratified_kfold(labels, config.outer_folds, seed=config.seed + rep)
        fold_reports = []
        rep_labels, rep_decisions = [], []
        for f in range(config.outer_folds):
            train_idx = outer.train_indices(f)
            test_idx = outer.test_indices(f)
            fold_seed = config.seed + 100_003 * (rep + 1) + f
            try:
                model, (gamma, c0) = tune_and_fit(samples, labels, train_idx, config, fold_seed)
            except (*FIT_ERRORS, DatasetError) as exc:  # or too few rows for the inner folds
                fold_reports.append({"repeat": rep, "fold": f, "error": str(exc)})
                continue
            dec = classifier.decision(model, samples[test_idx])
            report = evaluate(labels[test_idx], dec)
            fold_reports.append({
                "repeat": rep,
                "fold": f,
                "gamma": gamma,
                "c0": c0,
                "converged": model.converged,
                "report": asdict(report),
            })
            rep_labels.append(labels[test_idx])
            rep_decisions.append(dec)
        if not rep_labels:
            raise classifier.FitError(f"repeat {rep}: every outer fold failed; "
                                      f"fold 0: {fold_reports[0]['error']}")
        pooled = evaluate(np.concatenate(rep_labels), np.concatenate(rep_decisions))
        repeats_out.append({
            "repeat": rep,
            "folds": fold_reports,
            "pooled": asdict(pooled),
        })
        all_labels.extend(rep_labels)
        all_decisions.extend(rep_decisions)
    grand = evaluate(np.concatenate(all_labels), np.concatenate(all_decisions))
    per_repeat = {k: [rep["pooled"][k] for rep in repeats_out] for k in SELECTION_METRICS}
    summary = {
        "method": config.method,
        "repeats": config.repeats,
        "outer_folds": config.outer_folds,
        "inner_folds": config.inner_folds,
        "selection_metric": config.selection_metric,
        "seed": config.seed,
        "pooled": asdict(grand),
        "per_repeat_mean": {k: float(np.mean(v)) for k, v in per_repeat.items()},
        "per_repeat_std": {k: float(np.std(v)) for k, v in per_repeat.items()},
    }
    return {"repeats": repeats_out, "summary": summary}
