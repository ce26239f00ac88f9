import itertools
import json
import os
import subprocess
import sys
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest

from psc import classifier, crossval, qp, smw
from psc.classifier import FitError, Hyperparams
from psc.crossval import (
    ConfigError,
    DEFAULT_C0_GRID,
    DEFAULT_GAMMA_GRID,
    SELECTION_METRICS,
    ExperimentConfig,
    cv_run,
    tune_and_fit,
)
from psc.dataset import LabeledMatrix, gram_coordinates, simulate_hdlss, stratified_kfold
from psc.intercept import InterceptError
from psc.metrics import evaluate


def small_config(**kw):
    base = dict(
        method="psc",
        gamma_grid=(0.3, 0.7),
        c0_grid=(0.5, 2.0),
        outer_folds=2,
        inner_folds=2,
        repeats=2,
        seed=0,
    )
    base.update(kw)
    return ExperimentConfig(**base)


class TestConfig:
    def test_defaults(self):
        cfg = ExperimentConfig()
        assert cfg.gamma_grid == DEFAULT_GAMMA_GRID
        assert cfg.c0_grid == DEFAULT_C0_GRID
        assert (cfg.outer_folds, cfg.inner_folds, cfg.repeats) == (5, 4, 18)
        assert cfg.selection_metric == "bccr"

    def test_rejections(self):
        with pytest.raises(ConfigError):
            ExperimentConfig(method="dwd")
        with pytest.raises(ConfigError):
            ExperimentConfig(selection_metric="f1")
        with pytest.raises(ConfigError):
            ExperimentConfig(gamma_grid=())
        with pytest.raises(ConfigError):
            ExperimentConfig(outer_folds=1)
        with pytest.raises(ConfigError):
            ExperimentConfig(repeats=0)
        with pytest.raises(ConfigError, match="c0_grid must be a list of numbers"):
            ExperimentConfig(c0_grid=(1.0, "2"))
        with pytest.raises(ConfigError, match="seed must be of type int"):
            ExperimentConfig(seed=True)
        with pytest.raises(ConfigError, match="seed must be a non-negative integer, got -1"):
            ExperimentConfig(seed=-1)
        with pytest.raises(ConfigError, match="r_scale must be of type float"):
            ExperimentConfig(r_scale=None)

    def test_fit_defaults_come_from_hyperparams(self):
        cfg, hp = ExperimentConfig(), Hyperparams()
        assert cfg.r_scale == hp.r_scale
        assert not {"tol", "max_iter"} & {f.name for f in fields(ExperimentConfig)}

    def test_rejects_gamma_grid_values_hyperparams_rejects(self):
        with pytest.raises(ConfigError, match="gamma must be in"):
            ExperimentConfig(gamma_grid=(0.5, 1.0))

    def test_rejects_c0_grid_values_hyperparams_rejects(self):
        with pytest.raises(ConfigError, match="positive"):
            ExperimentConfig(method="cssvm", c0_grid=(1.0, 0.0))

    @pytest.mark.parametrize("method", classifier.METHODS)
    @pytest.mark.parametrize("grids, message", [
        ({"gamma_grid": (0.5, 1.5)}, "gamma must be in"),
        ({"c0_grid": (1.0, -2.0)}, "positive"),
    ])
    def test_every_grid_value_is_checked_for_every_method(self, method, grids, message):
        # cssvm and rmdd search only part of the grid, but every value is checked
        with pytest.raises(ConfigError, match=message):
            ExperimentConfig(method=method, **grids)

    @pytest.mark.parametrize("method, cells", [
        ("psc", [(g, c0) for g in (0.7, 0.3) for c0 in (0.5, 2.0, 8.0)]),
        ("cssvm", [(0.7, 0.5), (0.7, 2.0), (0.7, 8.0)]),
        ("rmdd", [(0.7, 0.5)]),
    ])
    def test_grid_is_the_search_order(self, method, cells):
        cfg = ExperimentConfig(method=method, gamma_grid=(0.7, 0.3), c0_grid=(2.0, 8.0, 0.5),
                               r_scale=3.0)
        assert type(cfg.grid) is tuple
        assert [(hp.gamma, hp.c0) for hp in cfg.grid] == cells
        assert {hp.r_scale for hp in cfg.grid} == {3.0}

    def test_grid_is_not_a_field(self):
        cfg = ExperimentConfig(method="cssvm", c0_grid=(2.0, 0.5))
        assert "grid" not in {f.name for f in fields(ExperimentConfig)}
        assert repr(cfg) == "ExperimentConfig(%s)" % ", ".join(
            f"{f.name}={getattr(cfg, f.name)!r}" for f in fields(cfg))
        same = ExperimentConfig(method="cssvm", c0_grid=(2.0, 0.5))
        assert cfg == same and hash(cfg) == hash(same) and repr(cfg) == repr(same)
        assert cfg != replace(cfg, c0_grid=(0.5, 2.0))
        assert replace(cfg, method="psc").grid == ExperimentConfig(c0_grid=(2.0, 0.5)).grid
        with pytest.raises(TypeError):
            ExperimentConfig(grid=cfg.grid)

    def test_rejects_r_scale_hyperparams_rejects(self):
        with pytest.raises(ConfigError, match="positive"):
            ExperimentConfig(method="rmdd", r_scale=-1.0)

    @pytest.mark.parametrize("setting", [
        {"tol": float("nan")}, {"tol": 0.0}, {"max_iter": 0}, {"r_scale": float("nan")},
        {"c0_grid": (1.0, float("nan"))},
    ])
    def test_rejects_solver_settings_hyperparams_rejects(self, setting):
        # tol and max_iter are no longer settings, so they are refused by name
        error = TypeError if {"tol", "max_iter"} & set(setting) else ConfigError
        with pytest.raises(error):
            ExperimentConfig(**setting)


class TestCvRun:
    def test_trivial_separable_perfect(self):
        rng = np.random.default_rng(0)
        pos = rng.standard_normal((8, 4)) + 10.0
        neg = rng.standard_normal((8, 4)) - 10.0
        data = LabeledMatrix(np.vstack([pos, neg]), [1] * 8 + [-1] * 8)
        out = cv_run(data, small_config(repeats=1))
        assert out["summary"]["pooled"]["bccr"] == pytest.approx(1.0, abs=1e-12)

    def test_pooled_counts_cover_every_sample(self):
        data = simulate_hdlss(30, 14, 8, seed=1)
        cfg = small_config(repeats=3)
        out = cv_run(data, cfg)
        pooled = out["summary"]["pooled"]["confusion"]
        assert sum(pooled.values()) == 3 * data.n

    def test_deterministic(self):
        data = simulate_hdlss(25, 10, 6, seed=2)
        a = cv_run(data, small_config())
        b = cv_run(data, small_config())
        assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)

    def test_repeats_rerandomize_folds(self):
        data = simulate_hdlss(25, 10, 6, seed=3)
        out = cv_run(data, small_config())
        reps = out["repeats"]
        assert reps[0]["pooled"] != reps[1]["pooled"] or \
            reps[0]["folds"][0]["report"] != reps[1]["folds"][0]["report"]

    def test_fold_infeasible_raises(self):
        data = simulate_hdlss(10, 8, 2, seed=4)  # minority smaller than k
        with pytest.raises(Exception, match="fewer than k"):
            cv_run(data, small_config(outer_folds=3))

    def test_repeat_whose_folds_all_fail_names_repeat_and_error(self):
        # identical rows have zero scatter, so every psc fit raises
        data = LabeledMatrix(np.tile(np.arange(1.0, 7.0), (30, 1)), [1] * 10 + [-1] * 20)
        with pytest.raises(FitError, match="repeat 0: every outer fold failed; "
                                           "fold 0: degenerate data"):
            cv_run(data, small_config(repeats=1))

    @pytest.mark.parametrize("error", [FitError, smw.SmwError, qp.QpError, InterceptError])
    def test_a_fit_failure_fails_the_cell(self, monkeypatch, error):
        def failing_fit(train, hp):
            raise error("cannot fit")

        monkeypatch.setattr(classifier, "fit_psc", failing_fit)
        with pytest.raises(FitError, match="every outer fold failed; fold 0: cannot fit"):
            cv_run(simulate_hdlss(20, 8, 6, seed=5), small_config(repeats=1))

    def test_any_other_error_in_a_fit_propagates(self, monkeypatch):
        def broken_fit(train, hp):
            raise ValueError("shapes (3,) and (4,) not aligned")

        monkeypatch.setattr(classifier, "fit_psc", broken_fit)
        with pytest.raises(ValueError, match="not aligned") as caught:
            cv_run(simulate_hdlss(20, 8, 6, seed=5), small_config(repeats=1))
        assert type(caught.value) is ValueError  # not a failed-repeat FitError

    def test_rmdd_has_no_grid(self):
        data = simulate_hdlss(20, 8, 6, seed=5)
        out = cv_run(data, small_config(method="rmdd", repeats=1))
        assert all("error" not in f for r in out["repeats"] for f in r["folds"])

    def test_cssvm_runs(self):
        data = simulate_hdlss(20, 8, 6, seed=6)
        out = cv_run(data, small_config(method="cssvm", repeats=1))
        assert 0.0 <= out["summary"]["pooled"]["bccr"] <= 1.0


class TestSolveCount:
    """Every grid cell is still a classifier.fit call, but on a training set
    whose caps never bind at the smallest c0 there is one SMO solve per
    (training set, gamma): the c0 path reuses it (classifier.TrainingSet)."""

    @pytest.mark.parametrize("method", ["psc", "cssvm"])
    def test_one_solve_per_training_set_and_gamma(self, monkeypatch, method):
        data = simulate_hdlss(200, 12, 18, seed=1)
        config = ExperimentConfig(method=method, outer_folds=3, inner_folds=3, repeats=1, seed=1)
        fits, solves = [], []
        real_fit, real_solve = classifier.fit, qp.solve_smo

        def counting_fit(*args, **kwargs):
            fits.append(args[0])
            return real_fit(*args, **kwargs)

        def counting_solve(*args, **kwargs):
            solves.append(real_solve(*args, **kwargs))
            return solves[-1]

        monkeypatch.setattr(classifier, "fit", counting_fit)
        monkeypatch.setattr(classifier.qp, "solve_smo", counting_solve)
        cv_run(data, config)
        gammas = len(config.gamma_grid) if method == "psc" else 1
        cells = gammas * len(config.c0_grid)
        assert len(fits) == config.outer_folds * (config.inner_folds * cells + 1)
        assert not any(s.upper_active for s in solves)  # the shape this count needs
        assert len(solves) == config.outer_folds * (config.inner_folds * gammas + 1)


def counting_scorer(monkeypatch):
    """Record every inner validation score crossval computes."""
    scored = []
    real = crossval._validation_score

    def counting(*args):
        scored.append(args)
        return real(*args)

    monkeypatch.setattr(crossval, "_validation_score", counting)
    return scored


class TestEvaluateCount:
    """A grid cell whose fit returns the last scored model's w (the same
    object) and an equal b reuses that model's validation score: the inner
    scorer runs once per distinct model of an inner fold, evaluate only on
    the outer folds, and the choices are the cell-by-cell search's."""

    @pytest.mark.parametrize("method", ["psc", "cssvm"])
    def test_one_evaluate_per_distinct_model(self, monkeypatch, method):
        data = simulate_hdlss(200, 12, 18, seed=1)
        config = ExperimentConfig(method=method, outer_folds=3, inner_folds=3, repeats=1, seed=1)
        outer = stratified_kfold(data.labels, config.outer_folds, seed=config.seed)
        smallest_outer_set = min(len(outer.train_indices(f)) for f in range(config.outer_folds))
        inner_fits, evaluations = [], []
        real_fit = classifier.fit

        def recording_fit(method, train, hp, **kwargs):
            model = real_fit(method, train, hp, **kwargs)
            # an inner fold's cell: fewer rows than any outer training set the refits get
            if isinstance(train, classifier.TrainingSet) and train.data.n < smallest_outer_set:
                inner_fits.append((train, model.w.tobytes(), model.b))
            return model

        def counting_evaluate(*args, **kwargs):
            evaluations.append(args)
            return evaluate(*args, **kwargs)

        monkeypatch.setattr(classifier, "fit", recording_fit)
        monkeypatch.setattr(crossval, "evaluate", counting_evaluate)
        scored = counting_scorer(monkeypatch)
        out = cv_run(data, config)
        # the list holds every inner set, so no two share an id
        distinct = len({(id(ts), w, b) for ts, w, b in inner_fits})
        assert distinct < len(inner_fits)  # the shape has memo hits to reuse
        assert len(scored) == distinct
        assert len(evaluations) == config.outer_folds + config.repeats + 1

        for f, fold in enumerate(out["repeats"][0]["folds"]):
            idx = outer.train_indices(f)
            train = LabeledMatrix(data.samples[idx], data.labels[idx])
            expected = cell_by_cell_choice(train, config, config.seed + 100_003 + f)
            assert (fold["gamma"], fold["c0"]) == expected

    def test_a_shared_w_with_another_b_is_scored_anew(self, monkeypatch):
        data = simulate_hdlss(20, 8, 6, seed=5)
        va = np.concatenate([np.arange(0, 3), np.arange(10, 14)])
        tr = np.setdiff1d(np.arange(data.n), va)
        config = small_config(method="cssvm", c0_grid=(0.5, 1.0, 2.0, 4.0))
        base = classifier.fit_rmdd(LabeledMatrix(data.samples[tr], data.labels[tr]))
        dec = data.samples[va] @ base.w
        # every validation row +1, the base rule, the base rule again, and
        # every row -1: equal b's in a row share a score, the others do not
        b_by_c0 = {0.5: -dec.min(), 1.0: base.b, 2.0: base.b, 4.0: -dec.max() - 1.0}
        monkeypatch.setattr(classifier, "fit",
                            lambda method, train, hp: replace(base, b=b_by_c0[hp.c0]))
        scored = counting_scorer(monkeypatch)
        scores = {hp: [] for hp in config.grid}
        crossval._score_inner_fold(data, tr, va, scores, config)
        assert len(scored) == 3
        for hp, got in scores.items():
            want = evaluate(data.labels[va], dec + b_by_c0[hp.c0]).bccr
            assert got == [want]
        assert len({got[0] for got in scores.values()}) > 1

    @pytest.mark.parametrize("metric", SELECTION_METRICS)
    @pytest.mark.parametrize("seed", range(5))
    def test_the_inner_score_is_evaluates_bit_for_bit(self, metric, seed):
        # from the confusion counts alone, with a decision of exactly 0
        # (class +1), of -0.0 and of both infinities among them
        rng = np.random.default_rng(seed)
        labels = np.array([1, -1] * 10)
        decisions = rng.standard_normal(20)
        decisions[rng.permutation(20)[:4]] = [0.0, -0.0, np.inf, -np.inf]
        want = getattr(evaluate(labels, decisions), metric)
        got = crossval._validation_score(labels, decisions, metric)
        assert got == (1.0 - want if metric == "mwe" else want)


class TestTuneAndFit:
    def test_never_touches_held_out_rows(self):
        # poison the held-out rows; training must succeed without reading them
        data = simulate_hdlss(15, 10, 6, seed=7)
        samples = data.samples.copy()
        labels = data.labels.copy()
        train_idx = np.arange(12)
        samples[12:] = np.nan
        model, (gamma, c0) = tune_and_fit(samples, labels, train_idx,
                                          small_config(), fold_seed=99)
        assert np.isfinite(model.w).all() and np.isfinite(model.b)
        assert gamma in (0.3, 0.7) and c0 in (0.5, 2.0)

    @pytest.mark.parametrize("method", ["psc", "cssvm"])
    def test_searches_the_checked_cells_in_grid_order(self, monkeypatch, method):
        config = small_config(method=method, c0_grid=(2.0, 0.5))
        tried = []
        real = classifier.fit
        monkeypatch.setattr(classifier, "fit",
                            lambda method, train, hp: tried.append(hp) or real(method, train, hp))
        data = simulate_hdlss(15, 10, 6, seed=7)
        tune_and_fit(data.samples, data.labels, np.arange(data.n), config, fold_seed=99)
        cells = len(config.grid)
        assert len(tried) == config.inner_folds * cells + 1
        for f in range(config.inner_folds):
            assert all(a is b for a, b in zip(tried[f * cells:(f + 1) * cells], config.grid))
        assert any(tried[-1] is hp for hp in config.grid)

    def test_tie_break_prefers_smaller_c0(self):
        # perfectly separable data scores 1.0 everywhere -> smallest c0 wins
        rng = np.random.default_rng(8)
        pos = rng.standard_normal((8, 3)) + 10.0
        neg = rng.standard_normal((8, 3)) - 10.0
        samples = np.vstack([pos, neg])
        labels = np.array([1] * 8 + [-1] * 8)
        _, (gamma, c0) = tune_and_fit(samples, labels, np.arange(16),
                                      small_config(), fold_seed=1)
        assert c0 == 0.5 and gamma == 0.3


def cell_by_cell_choice(train, config, fold_seed):
    """The grid search written cell-outer: each cell fitted on every inner
    fold in turn, from the raw rows, and dropped at its first failure. Only
    psc reads gamma, so the other methods search the first gamma only."""
    score = {"bccr": lambda rep: rep.bccr, "total_ccr": lambda rep: rep.total_ccr,
             "mwe": lambda rep: 1.0 - rep.mwe}[config.selection_metric]
    inner = stratified_kfold(train.labels, config.inner_folds, seed=fold_seed)
    best_key, best = None, None
    gammas = config.gamma_grid if config.method == "psc" else config.gamma_grid[:1]
    for gamma in gammas:
        for c0 in config.c0_grid:
            hp = Hyperparams(gamma=gamma, c0=c0, r_scale=config.r_scale)
            scores = []
            for f in range(config.inner_folds):
                tr, va = inner.train_indices(f), inner.test_indices(f)
                try:
                    model = classifier.fit(config.method,
                                           LabeledMatrix(train.samples[tr], train.labels[tr]), hp)
                except FitError:
                    scores = None
                    break
                dec = train.samples[va] @ model.w + model.b
                scores.append(score(evaluate(train.labels[va], dec)))
            if scores is None:
                continue
            key = (-float(np.mean(scores)), c0, gamma)
            if best_key is None or key < best_key:
                best_key, best = key, (gamma, c0)
    return best


class TestFoldOuterGrid:
    """The choice is the cell-by-cell search's, at d = n and at d > n."""

    def test_matches_cell_outer_search_and_skips_a_cell_failing_on_one_fold(self, monkeypatch):
        for d in (40, 200):
            for method in ("psc", "cssvm"):
                with monkeypatch.context() as patch:
                    self.check_a_cell_failing_on_one_fold(patch, d, method)

    @staticmethod
    def check_a_cell_failing_on_one_fold(monkeypatch, d, method):
        data = simulate_hdlss(d, 16, 24, seed=9)
        config = small_config(method=method, gamma_grid=(0.1, 0.5, 0.9),
                              c0_grid=(2.0**-3, 2.0, 2.0**3), inner_folds=4)
        fold_seed = 17
        everything = np.arange(data.n)
        _, winner = tune_and_fit(data.samples, data.labels, everything, config, fold_seed)
        assert winner == cell_by_cell_choice(data, config, fold_seed)

        # the winning cell now fails on inner fold 1 only: the fold whose
        # validation rows hold the marked row, so its training set lacks it.
        # The mark is the row's first entry.
        inner = stratified_kfold(data.labels, config.inner_folds, seed=fold_seed)
        mark = data.samples[inner.test_indices(1)[0], 0]
        name = {"psc": "fit_psc", "cssvm": "fit_cssvm"}[method]
        real_fit = getattr(classifier, name)
        calls = []

        def fit_failing_once(train, *args, **kwargs):
            rows = train.data if isinstance(train, classifier.TrainingSet) else train
            hp = args[0] if args else Hyperparams(c0=kwargs["c0"], r_scale=kwargs["r_scale"])
            cell = (hp.gamma if method == "psc" else config.gamma_grid[0], hp.c0)
            calls.append(cell)
            if cell == winner and mark not in rows.samples[:, 0]:
                raise FitError("injected failure")
            return real_fit(train, *args, **kwargs)

        monkeypatch.setattr(classifier, name, fit_failing_once)
        _, chosen = tune_and_fit(data.samples, data.labels, everything, config, fold_seed)
        assert calls.count(winner) == 2  # folds 0 and 1; never scored on folds 2 and 3
        calls.clear()
        expected = cell_by_cell_choice(data, config, fold_seed)
        assert calls.count(winner) == 2
        assert chosen == expected != winner

    @pytest.mark.parametrize("metric", SELECTION_METRICS)
    def test_every_selection_metric_picks_the_cell_outer_choice(self, metric):
        for d in (40, 200):
            data = simulate_hdlss(d, 16, 24, seed=9)
            for method in ("psc", "cssvm"):
                config = small_config(method=method, gamma_grid=(0.1, 0.5, 0.9),
                                      c0_grid=(2.0**-3, 2.0, 2.0**3), inner_folds=4,
                                      selection_metric=metric)
                _, winner = tune_and_fit(data.samples, data.labels, np.arange(data.n), config, 17)
                assert winner == cell_by_cell_choice(data, config, 17), (d, method)


def offset(data, by):
    return LabeledMatrix(data.samples + by, data.labels)


def recorded_run(monkeypatch, data, config):
    """cv_run's result and the (rows, decisions) of every decision it
    made, inner and outer, in order."""
    decided = []
    real = classifier.decision

    def recording(model, x):
        decided.append((x, real(model, x)))
        return decided[-1][1]

    monkeypatch.setattr(classifier, "decision", recording)
    return cv_run(data, config), decided


# one repeat of psc and of cssvm at d > n, printed as JSON
BLAS_RUN = """
import json, sys
sys.path.insert(0, sys.argv[1])
from psc.crossval import ExperimentConfig, cv_run
from psc.dataset import simulate_hdlss
data = simulate_hdlss(2000, 22, 40, 1)
print(json.dumps([cv_run(data, ExperimentConfig(method=method, repeats=1, seed=1))
                  for method in ("psc", "cssvm")], sort_keys=True))
"""


class TestCoordinates:
    """cv_run at d > n: every fit and decision on the rows' n coordinates
    Z, with Z Z^T the Gram K of all rows centred on their mean."""

    @pytest.mark.parametrize("d", [39, 40, 41, 200])
    def test_inner_fits_get_n_columns_only_when_d_exceeds_n(self, monkeypatch, d):
        # and so do the refits and the held-out rows of every decision
        data = simulate_hdlss(d, 16, 24, seed=9)  # n = 40
        config = small_config(inner_folds=4, repeats=1)
        rows = gram_coordinates(classifier.prepare(data).gram) if d > data.n else data.samples
        real_fit = classifier.fit
        given = []

        def recording_fit(method, train, hp):
            given.append(train.data)
            return real_fit(method, train, hp)

        monkeypatch.setattr(classifier, "fit", recording_fit)
        _, decided = recorded_run(monkeypatch, data, config)

        outer = stratified_kfold(data.labels, config.outer_folds, seed=config.seed)
        fit_rows, decision_rows = [], []
        for f in range(config.outer_folds):
            train_idx = outer.train_indices(f)
            inner = stratified_kfold(data.labels[train_idx], config.inner_folds,
                                     seed=config.seed + 100_003 + f)
            for k in range(config.inner_folds):
                fit_rows += [train_idx[inner.train_indices(k)]] * 4  # one per grid cell
                decision_rows.append(train_idx[inner.test_indices(k)])
            fit_rows.append(train_idx)  # the refit
            decision_rows.append(outer.test_indices(f))
        assert len(given) == len(fit_rows) == 2 * (4 * 4 + 1)
        for got, idx in zip(given, fit_rows):
            assert got.samples.tobytes() == rows[idx].tobytes()
            assert np.array_equal(got.labels, data.labels[idx])
        # an inner fold decides once per distinct model, each time on its validation rows
        runs = [key for key, _ in itertools.groupby(x.tobytes() for x, _ in decided)]
        assert runs == [rows[idx].tobytes() for idx in decision_rows]

    @pytest.mark.parametrize("by", [0.0, 1e4])
    @pytest.mark.parametrize("shape", [(2000, 22, 40), (12533, 6, 10), (41, 16, 24)])
    def test_they_give_back_the_centred_gram(self, shape, by):
        data = offset(simulate_hdlss(*shape, seed=shape[0]), by)
        K = classifier.prepare(data).gram
        Z = gram_coordinates(K)
        assert Z.shape == (data.n, data.n)
        assert np.abs(Z @ Z.T - K).max() <= 1e-12 * np.abs(K).max()
        norms = np.linalg.norm(Z, axis=0)
        assert (norms[:-1] >= norms[1:]).all()  # largest eigenvalue first

    @pytest.mark.parametrize("by", [0.0, 1e4])
    @pytest.mark.parametrize("shape", [(12533, 6, 10), (41, 16, 24)])
    def test_the_gram_and_the_cssvm_dual_are_exactly_symmetric(self, shape, by):
        # fit_cssvm solves y o K o y as it stands, with no symmetrisation: a
        # Gram that is symmetric only up to rounding would move its bits
        data = offset(simulate_hdlss(*shape, seed=shape[0]), by)
        K = classifier.prepare(data).gram
        coordinates = LabeledMatrix(gram_coordinates(K), data.labels)
        for train in (data, coordinates):
            K = classifier.prepare(train).gram
            y = train.labels.astype(np.float64)
            dual = y[:, None] * K * y[None, :]
            assert np.array_equal(K, K.T) and np.array_equal(dual, dual.T)

    @pytest.mark.parametrize("method", ["psc", "cssvm"])
    @pytest.mark.parametrize("by, bound", [(0.0, 1e-12), (1e4, 1e-9)])
    def test_validation_decisions_match_the_raw_rows(self, monkeypatch, method, by, bound):
        # the run on Z against the same run on the d features, every inner
        # and outer decision in order: over the 10 seeds (1050 decisions for
        # psc, 250 for cssvm) the worst reads 1.6e-14 for psc and 1.0e-14
        # for cssvm, and 5.3e-11 and 4.0e-11 with the offset
        for seed in range(10):
            data = offset(simulate_hdlss(2000, 22, 40, seed), by)
            config = ExperimentConfig(method=method, repeats=1, seed=seed)
            with monkeypatch.context() as patch:
                rotated, got_all = recorded_run(patch, data, config)
            with monkeypatch.context() as patch:
                patch.setattr(crossval, "gram_coordinates", lambda gram: data.samples)
                raw, want_all = recorded_run(patch, data, config)
            for got, want in zip(rotated["repeats"][0]["folds"], raw["repeats"][0]["folds"], strict=True):
                assert (got["gamma"], got["c0"]) == (want["gamma"], want["c0"])
                assert got["report"]["confusion"] == want["report"]["confusion"]
            assert len(got_all) == len(want_all)
            for (_, got), (_, want) in zip(got_all, want_all):
                assert np.abs(got - want).max() <= bound * np.abs(want).max()
                assert np.array_equal(got >= 0.0, want >= 0.0)

    def test_a_run_is_the_same_bytes_at_one_and_two_blas_threads(self):
        src = Path(crossval.__file__).resolve().parent.parent
        outputs = []
        for threads in ("1", "2"):
            proc = subprocess.run([sys.executable, "-c", BLAS_RUN, str(src)],
                                  env={**os.environ, "OPENBLAS_NUM_THREADS": threads},
                                  capture_output=True, text=True, check=True, timeout=300)
            outputs.append(proc.stdout)
        assert outputs[0] == outputs[1]
        assert '"method": "cssvm"' in outputs[0]

    @pytest.mark.parametrize("row", [np.arange(1.0, 61.0),
                                     np.random.default_rng(7).standard_normal(60)])
    def test_identical_rows_still_fail_every_psc_cell(self, monkeypatch, row):
        # the second row's coordinates differ by 1e-8 of their size, and six
        # of 40 such rows fit, when eigenvalues within eigh's rounding of 0
        # are kept; gram_coordinates reads them as 0
        data = LabeledMatrix(np.tile(row, (30, 1)), [1] * 10 + [-1] * 20)  # d = 60 > n
        real_fit = classifier.fit_psc
        fits = []

        def recording_fit(train, hp):
            fits.append(train.data.samples.shape)
            try:
                real_fit(train, hp)
            except FitError as exc:
                assert "degenerate data" in str(exc)
                raise
            raise AssertionError("a psc fit on identical rows succeeded")

        monkeypatch.setattr(classifier, "fit_psc", recording_fit)
        with pytest.raises(FitError, match="repeat 0: every outer fold failed; "
                                           "fold 0: degenerate data"):
            cv_run(data, small_config(repeats=1))
        assert {width for _, width in fits} == {data.n}  # every fit on the coordinates
        # each outer fold's first inner fold, every cell, then each outer fold's refit
        assert [rows < data.n // 2 for rows, _ in fits] == ([True] * 4 + [False]) * 2
