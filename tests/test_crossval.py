import json
from dataclasses import replace

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
from psc.dataset import LabeledMatrix, simulate_hdlss, stratified_kfold
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
        with pytest.raises(ConfigError, match="r_scale must be of type float"):
            ExperimentConfig(r_scale=None)

    def test_fit_defaults_come_from_hyperparams(self):
        cfg, hp = ExperimentConfig(), Hyperparams()
        assert (cfg.r_scale, cfg.tol, cfg.max_iter) == (hp.r_scale, hp.tol, hp.max_iter)

    def test_rejects_gamma_grid_values_hyperparams_rejects(self):
        with pytest.raises(ConfigError, match="gamma must be in"):
            ExperimentConfig(gamma_grid=(0.5, 1.0))

    def test_rejects_c0_grid_values_hyperparams_rejects(self):
        with pytest.raises(ConfigError, match="positive"):
            ExperimentConfig(method="cssvm", c0_grid=(1.0, 0.0))

    def test_rejects_r_scale_hyperparams_rejects(self):
        with pytest.raises(ConfigError, match="positive"):
            ExperimentConfig(method="rmdd", r_scale=-1.0)

    @pytest.mark.parametrize("setting", [
        {"tol": float("nan")}, {"tol": 0.0}, {"max_iter": 0}, {"r_scale": float("nan")},
        {"c0_grid": (1.0, float("nan"))},
    ])
    def test_rejects_solver_settings_hyperparams_rejects(self, setting):
        with pytest.raises(ConfigError):
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

        def counting_solve(problem, tol, max_iter):
            solves.append(real_solve(problem, tol, max_iter))
            return solves[-1]

        monkeypatch.setattr(classifier, "fit", counting_fit)
        monkeypatch.setattr(classifier.qp, "solve_smo", counting_solve)
        cv_run(data, config)
        gammas = len(config.gamma_grid) if method == "psc" else 1
        cells = gammas * len(config.c0_grid)
        assert len(fits) == config.outer_folds * (config.inner_folds * cells + 1)
        assert not any(s.upper_active for s in solves)  # the shape this count needs
        assert len(solves) == config.outer_folds * (config.inner_folds * gammas + 1)


class TestEvaluateCount:
    """A grid cell whose fit returns the last scored model's w (the same
    object) and an equal b reuses that model's validation score: evaluate
    runs once per distinct model of an inner fold, and the choices are the
    cell-by-cell search's."""

    @pytest.mark.parametrize("method", ["psc", "cssvm"])
    def test_one_evaluate_per_distinct_model(self, monkeypatch, method):
        data = simulate_hdlss(200, 12, 18, seed=1)
        config = ExperimentConfig(method=method, outer_folds=3, inner_folds=3, repeats=1, seed=1)
        inner_fits, evaluations = [], []
        real_fit = classifier.fit

        def recording_fit(method, train, hp, **kwargs):
            model = real_fit(method, train, hp, **kwargs)
            if isinstance(train, classifier.TrainingSet):  # an inner fold's cell
                inner_fits.append((train, model.w.tobytes(), model.b))
            return model

        def counting_evaluate(*args, **kwargs):
            evaluations.append(args)
            return evaluate(*args, **kwargs)

        monkeypatch.setattr(classifier, "fit", recording_fit)
        monkeypatch.setattr(crossval, "evaluate", counting_evaluate)
        out = cv_run(data, config)
        # the list holds every inner set, so no two share an id
        distinct = len({(id(ts), w, b) for ts, w, b in inner_fits})
        assert distinct < len(inner_fits)  # the shape has memo hits to reuse
        assert len(evaluations) == distinct + config.outer_folds + config.repeats + 1

        outer = stratified_kfold(data.labels, config.outer_folds, seed=config.seed)
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
        evaluations = []

        def counting_evaluate(*args, **kwargs):
            evaluations.append(args)
            return evaluate(*args, **kwargs)

        monkeypatch.setattr(crossval, "evaluate", counting_evaluate)
        scores = {hp: [] for hp in crossval._candidate_grid(config)}
        crossval._score_inner_fold(data, tr, va, scores, config)
        assert len(evaluations) == 3
        for hp, got in scores.items():
            want = evaluate(data.labels[va], dec + b_by_c0[hp.c0]).bccr
            assert got == [want]
        assert len({got[0] for got in scores.values()}) > 1


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
            hp = Hyperparams(gamma=gamma, c0=c0, r_scale=config.r_scale,
                             tol=config.tol, max_iter=config.max_iter)
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
    def test_matches_cell_outer_search_and_skips_a_cell_failing_on_one_fold(self, monkeypatch):
        data = simulate_hdlss(40, 16, 24, seed=9)
        config = small_config(gamma_grid=(0.1, 0.5, 0.9), c0_grid=(2.0**-3, 2.0, 2.0**3),
                              inner_folds=4)
        fold_seed = 17
        everything = np.arange(data.n)
        _, winner = tune_and_fit(data.samples, data.labels, everything, config, fold_seed)
        assert winner == cell_by_cell_choice(data, config, fold_seed)

        # the winning cell now fails on inner fold 1 only: the fold whose
        # validation rows hold the marked row, so its training set lacks it
        inner = stratified_kfold(data.labels, config.inner_folds, seed=fold_seed)
        mark = data.samples[inner.test_indices(1)[0], 0]
        real_fit = classifier.fit_psc
        calls = []

        def fit_failing_once(train, hp):
            rows = train.data if isinstance(train, classifier.TrainingSet) else train
            calls.append((hp.gamma, hp.c0))
            if (hp.gamma, hp.c0) == winner and mark not in rows.samples[:, 0]:
                raise FitError("injected failure")
            return real_fit(train, hp)

        monkeypatch.setattr(classifier, "fit_psc", fit_failing_once)
        _, chosen = tune_and_fit(data.samples, data.labels, everything, config, fold_seed)
        assert calls.count(winner) == 2  # folds 0 and 1; never scored on folds 2 and 3
        calls.clear()
        expected = cell_by_cell_choice(data, config, fold_seed)
        assert calls.count(winner) == 2
        assert chosen == expected != winner

    @pytest.mark.parametrize("metric", SELECTION_METRICS)
    def test_every_selection_metric_picks_the_cell_outer_choice(self, metric):
        data = simulate_hdlss(40, 16, 24, seed=9)
        config = small_config(gamma_grid=(0.1, 0.5, 0.9), c0_grid=(2.0**-3, 2.0, 2.0**3),
                              inner_folds=4, selection_metric=metric)
        _, winner = tune_and_fit(data.samples, data.labels, np.arange(data.n), config, 17)
        assert winner == cell_by_cell_choice(data, config, 17)
