from dataclasses import replace

import numpy as np
import pytest

from psc import classifier, intercept
from psc.classifier import (
    FitError,
    Hyperparams,
    LinearModel,
    bayes_oracle,
    decision,
    fit_cssvm,
    fit_psc,
    fit_rmdd,
    load_model,
    model_to_dict,
    predict,
    prepare,
    save_model,
)
from psc.crossval import DEFAULT_C0_GRID, DEFAULT_GAMMA_GRID, ExperimentConfig, _candidate_grid
from psc.dataset import FIG1_MU, FIG1_SIGMA, LabeledMatrix, simulate_hdlss
from psc.intercept import Projections, choose_intercept

HP = Hyperparams(gamma=0.5, c0=1.0)


def separable_instance(seed, n1=6, n2=6, d=8, shift=4.0):
    rng = np.random.default_rng(seed)
    pos = rng.standard_normal((n1, d)) + shift
    neg = rng.standard_normal((n2, d)) - shift
    return LabeledMatrix(np.vstack([pos, neg]), [1] * n1 + [-1] * n2)


class TestHyperparams:
    def test_gamma_bounds(self):
        for bad in (0.0, 1.0, -0.3, 1.5):
            with pytest.raises(FitError, match="gamma"):
                Hyperparams(gamma=bad, c0=1.0)
        Hyperparams(gamma=1e-9, c0=1.0)

    def test_positive_scalars(self):
        with pytest.raises(FitError):
            Hyperparams(gamma=0.5, c0=0.0)
        with pytest.raises(FitError):
            Hyperparams(gamma=0.5, c0=1.0, r_scale=-1.0)

    @pytest.mark.parametrize("setting, message", [
        ({"c0": float("nan")}, "c0 and r_scale must be positive"),
        ({"r_scale": float("nan")}, "c0 and r_scale must be positive"),
        ({"tol": float("nan")}, "tol must be finite and positive"),
        ({"tol": float("inf")}, "tol must be finite and positive"),
        ({"tol": 0.0}, "tol must be finite and positive"),
        ({"max_iter": 0}, "max_iter must be at least 1"),
        ({"max_iter": -5}, "max_iter must be at least 1"),
    ])
    def test_rejects_settings_that_would_fail_late(self, setting, message):
        with pytest.raises(FitError, match=message):
            Hyperparams(**setting)
        if "gamma" not in setting:
            cssvm_setting = {"c0": 1.0, "r_scale": 1.0, "tol": 1e-6, "max_iter": 10, **setting}
            with pytest.raises(FitError, match=message):
                fit_cssvm(separable_instance(2), **cssvm_setting)

    def test_one_iteration_is_a_valid_cap(self):
        assert Hyperparams(max_iter=1).max_iter == 1


class TestFitPsc:
    def test_balanced_separable_midpoint(self):
        data = LabeledMatrix([[3.0], [4.0], [0.0], [1.0]], [1, 1, -1, -1])
        model = fit_psc(data, Hyperparams(gamma=0.5, c0=10.0))
        # the boundary point solves w*x + b = 0; must be the gap midpoint 2
        assert -model.b / model.w[0] == pytest.approx(2.0, abs=1e-8)
        assert model.converged

    def test_gamma_zero_limit_matches_cssvm(self):
        data = separable_instance(0)
        psc = fit_psc(data, Hyperparams(gamma=1e-9, c0=1.0))
        svm = fit_cssvm(data, c0=1.0)
        cos = psc.w @ svm.w / (np.linalg.norm(psc.w) * np.linalg.norm(svm.w))
        assert cos >= 1 - 1e-4

    def test_experiment1_scale_runs(self):
        data = simulate_hdlss(800, 100, 10, seed=3)
        model = fit_psc(data, HP)
        assert model.w.shape == (800,)
        assert np.isfinite(model.b)
        assert model.n1 == 100 and model.n2 == 10

    def test_trivial_dual_error(self, monkeypatch):
        # the SMO iterate can only be all-zero in degenerate arithmetic
        # (e.g. underflowed caps); the guard is exercised directly
        import psc.classifier as classifier
        from psc.qp import DualSolution

        def zero_solution(problem, tol, max_iter):
            return DualSolution(np.zeros(problem.n), 0.0, 0.0, 0, True)

        monkeypatch.setattr(classifier.qp, "solve_smo", zero_solution)
        with pytest.raises(FitError, match="trivial dual"):
            fit_psc(separable_instance(1), HP)

    def test_tiny_c0_still_fits(self):
        model = fit_psc(separable_instance(1), Hyperparams(gamma=0.5, c0=1e-300))
        assert np.isfinite(model.w).all() and model.w.any()

    def test_deterministic_bit_for_bit(self):
        data = simulate_hdlss(120, 20, 6, seed=8)
        a = fit_psc(data, HP)
        b = fit_psc(data, HP)
        assert np.array_equal(a.w, b.w) and a.b == b.b

    def test_dual_feasibility_metadata(self):
        data = simulate_hdlss(60, 15, 5, seed=4)
        model = fit_psc(data, HP)
        assert model.kkt_residual <= 1e-6
        assert model.lam > 0 and model.gamma == 0.5


class TestPreparedTrainingSet:
    def test_prepared_fit_matches_raw_fit_bit_for_bit(self):
        data = simulate_hdlss(300, 20, 8, seed=12)
        train = prepare(data)  # shared by every cell, as in the grid search
        for gamma, c0 in [(0.1, 2.0**-5), (0.5, 1.0), (0.9, 2.0**5), (0.3, 0.5)]:
            hp = Hyperparams(gamma=gamma, c0=c0)
            shared, raw = fit_psc(train, hp), fit_psc(data, hp)
            assert np.array_equal(shared.w, raw.w)
            assert (shared.b, shared.lam, shared.kkt_residual) == (raw.b, raw.lam, raw.kkt_residual)


def count_solves(monkeypatch):
    """Record every SMO solve the classifier makes."""
    solves = []
    real = classifier.qp.solve_smo

    def counting(problem, tol, max_iter):
        solves.append(real(problem, tol, max_iter))
        return solves[-1]

    monkeypatch.setattr(classifier.qp, "solve_smo", counting)
    return solves


class TestCPathReuse:
    """A prepared training set serves a fit at c0 from the solve of an
    earlier fit at a smaller c0 whose caps never bound. Every cell must
    equal a fresh fit on the raw matrix, bit for bit."""

    @pytest.mark.parametrize("method", ["psc", "cssvm"])
    @pytest.mark.parametrize("shape, solves_per_path", [
        ((300, 20, 8, 12), 1),  # HDLSS: the caps never bind on the default grid
        ((20, 40, 20, 3), 3),   # d < n: the caps bind at c0 = 2^-5 and 2^-3
    ])
    def test_every_default_grid_cell_matches_a_fresh_fit(self, monkeypatch, method, shape,
                                                         solves_per_path):
        data = simulate_hdlss(*shape)
        cells = _candidate_grid(ExperimentConfig(method=method))  # c0 ascending per gamma
        solves = count_solves(monkeypatch)
        train = prepare(data)
        shared = {hp: classifier.fit(method, train, hp) for hp in cells}
        paths = len(DEFAULT_GAMMA_GRID) if method == "psc" else 1  # cssvm ignores gamma
        assert len(cells) == paths * len(DEFAULT_C0_GRID)
        assert len(solves) == paths * solves_per_path
        assert sum(s.upper_active for s in solves) == paths * (solves_per_path - 1)
        train = prepare(data)
        order = np.random.default_rng(0).permutation(len(cells))
        shuffled = {cells[k]: classifier.fit(method, train, cells[k]) for k in order}
        for hp in cells:
            fresh = classifier.fit(method, data, hp)
            for got in (shared[hp], shuffled[hp]):
                assert got.w.tobytes() == fresh.w.tobytes()
                assert (got.b, got.lam, got.converged, got.kkt_residual) == (
                    fresh.b, fresh.lam, fresh.converged, fresh.kkt_residual)
                assert model_to_dict(got) == model_to_dict(fresh)

    def test_settings_outside_the_key_are_not_shared(self, monkeypatch):
        data = simulate_hdlss(300, 20, 8, seed=12)
        train = prepare(data)
        solves = count_solves(monkeypatch)
        for r_scale in (1.0, 2.0):  # psc keeps b, so r_scale is in its key
            for c0 in (1.0, 2.0):
                fit_psc(train, Hyperparams(gamma=0.5, c0=c0, r_scale=r_scale))
        assert len(solves) == 2
        models = [fit_cssvm(train, c0=1.0, r_scale=r_scale) for r_scale in (1.0, 2.0)]
        assert len(solves) == 3  # cssvm sets b anew at every fit
        for model, r_scale in zip(models, (1.0, 2.0)):
            fresh = fit_cssvm(data, c0=1.0, r_scale=r_scale)
            assert (model.w.tobytes(), model.b) == (fresh.w.tobytes(), fresh.b)

    @pytest.mark.parametrize("method", ["psc", "cssvm"])
    def test_the_memo_serves_the_stored_read_only_w_without_a_copy(self, monkeypatch, method):
        train = prepare(simulate_hdlss(300, 20, 8, seed=12))
        solves = count_solves(monkeypatch)
        stored = classifier.fit(method, train, Hyperparams(c0=1.0))
        served = classifier.fit(method, train, Hyperparams(c0=2.0))
        assert len(solves) == 1 and served.c0 == 2.0
        assert np.shares_memory(served.w, stored.w)
        assert not served.w.flags.writeable

    def test_cssvm_on_a_prepared_set_builds_no_scatter_factor(self, monkeypatch):
        def no_factor(*args):
            raise AssertionError("cssvm built the scatter factor")

        monkeypatch.setattr(classifier, "build_factor", no_factor)
        fit_cssvm(prepare(separable_instance(4)), c0=1.0)


class TestCssvmIntercept:
    @pytest.mark.parametrize("seed", range(5))
    def test_without_a_free_support_vector_b_is_the_adaptive_intercept(self, monkeypatch, seed):
        data = simulate_hdlss(5, 20, 20, seed)
        solves = count_solves(monkeypatch)
        for given in (data, prepare(data)):
            model = fit_cssvm(given, c0=1e-3)
            assert np.array_equal(solves[-1].alpha, np.full(data.n, 1e-3))  # every one at its cap
            proj = data.samples @ model.w
            labels = data.labels
            want = choose_intercept(Projections(pos=proj[labels == 1], neg=proj[labels == -1]),
                                    intercept.DEFAULT_R)
            assert model.b == want


class TestFitDispatch:
    def test_fit_matches_each_direct_call_bit_for_bit(self):
        data = simulate_hdlss(30, 12, 6, seed=4)
        hp = Hyperparams(gamma=0.3, c0=2.0, r_scale=1.5, tol=1e-7, max_iter=5000)
        direct = {
            "psc": fit_psc(data, hp),
            "cssvm": fit_cssvm(data, c0=2.0, tol=1e-7, max_iter=5000, r_scale=1.5),
            "rmdd": fit_rmdd(data, r_scale=1.5),
        }
        assert tuple(direct) == classifier.METHODS
        for method, want in direct.items():
            got = classifier.fit(method, data, hp)
            assert got.w.tobytes() == want.w.tobytes()
            assert got.b == want.b
            assert model_to_dict(got) == model_to_dict(want)

    def test_unknown_method(self):
        with pytest.raises(FitError, match="unknown method"):
            classifier.fit("dwd", separable_instance(3), HP)


class TestReadOnlyModel:
    @pytest.mark.parametrize("method", classifier.METHODS)
    def test_a_fitted_w_is_read_only(self, method):
        model = classifier.fit(method, simulate_hdlss(30, 12, 6, seed=4), HP)
        assert not model.w.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            model.w[0] = 0.0

    def test_an_array_passed_in_stays_writable(self):
        w = np.array([1.0, -2.0])
        model = LinearModel(w=w, b=0.0, method_tag="rmdd")
        assert w.flags.writeable and not model.w.flags.writeable

    def test_later_writes_to_the_array_passed_in_do_not_reach_the_model(self):
        w = np.array([1.0, 2.0])
        model = LinearModel(w=w, b=0.0, method_tag="rmdd")
        w[:] = 0.0
        assert np.array_equal(model.w, [1.0, 2.0])
        w[0] = np.nan
        assert np.array_equal(model.w, [1.0, 2.0])

    def test_a_read_only_1d_w_is_shared_as_the_same_object(self):
        # crossval reuses a validation score when a fit returns the same w
        w = np.array([1.0, -2.0])
        w.setflags(write=False)
        model = LinearModel(w=w, b=0.5, method_tag="psc", c0=1.0)
        assert model.w is w
        assert replace(model, c0=2.0).w is w
        assert replace(replace(model, c0=2.0), b=1.0).w is w

    @pytest.mark.parametrize("w, message", [
        ([1.0, np.nan], "non-finite"),
        ([0.0, 0.0], "all-zero"),
    ])
    def test_rejects_a_direction_it_cannot_use(self, w, message):
        with pytest.raises(FitError, match=message):
            LinearModel(w=np.array(w), b=0.0, method_tag="rmdd")

    @pytest.mark.parametrize("b", [np.nan, np.inf, -np.inf])
    def test_rejects_a_non_finite_intercept(self, b):
        with pytest.raises(FitError, match="intercept must be finite"):
            LinearModel(w=np.array([1.0]), b=b, method_tag="rmdd")


class TestFitRmddSettings:
    SEPARABLE = LabeledMatrix([[3.0], [4.0], [0.0], [1.0]], [1, 1, -1, -1])
    OVERLAPPING = LabeledMatrix([[3.0], [0.5], [0.0], [1.0]], [1, 1, -1, -1])

    @pytest.mark.parametrize("r_scale", [float("nan"), -1.0, 0.0])
    @pytest.mark.parametrize("data", [SEPARABLE, OVERLAPPING], ids=["separable", "overlapping"])
    def test_rejects_a_nan_or_non_positive_r_scale(self, data, r_scale):
        # NaN gave b = nan; -1 ran on overlapping data and raised an
        # InterceptError only on separable data
        with pytest.raises(FitError, match="r_scale must be positive"):
            fit_rmdd(data, r_scale=r_scale)


class TestDecision:
    def test_example(self):
        data = LabeledMatrix([[3.0, 0.0], [0.0, 1.0]], [1, -1])
        model = fit_rmdd(data)
        # w = (1,0) direction scaled; check the documented linear functional
        m = model.__class__(w=np.array([1.0, 0.0]), b=-2.0, method_tag="rmdd",
                            n1=1, n2=1)
        assert decision(m, np.array([3.0, 9.0])) == pytest.approx(1.0)
        assert predict(m, np.array([3.0, 9.0])) == 1

    def test_boundary_is_positive(self):
        from psc.classifier import LinearModel

        m = LinearModel(w=np.array([1.0]), b=-2.0, method_tag="rmdd", n1=1, n2=1)
        assert predict(m, np.array([2.0])) == 1

    def test_means_ordered(self):
        data = separable_instance(5)
        model = fit_psc(data, HP)
        u1 = data.samples[data.labels == 1].mean(axis=0)
        u2 = data.samples[data.labels == -1].mean(axis=0)
        assert decision(model, u1) > decision(model, u2)

    def test_dimension_mismatch(self):
        model = fit_psc(separable_instance(6), HP)
        with pytest.raises(FitError, match="dimension"):
            decision(model, np.zeros(3))


class TestFitCssvm:
    def test_two_point_analytic(self):
        data = LabeledMatrix([[1.0], [-1.0]], [1, -1])
        model = fit_cssvm(data, c0=100.0)
        assert model.w[0] == pytest.approx(1.0, abs=1e-8)
        assert model.b == pytest.approx(0.0, abs=1e-8)

    def test_balanced_caps_symmetric_boundary(self):
        data = LabeledMatrix([[3.0], [4.0], [0.0], [1.0]], [1, 1, -1, -1])
        model = fit_cssvm(data, c0=100.0)
        assert -model.b / model.w[0] == pytest.approx(2.0, abs=1e-6)


class TestFitRmdd:
    def test_hand_example(self):
        data = LabeledMatrix([[0.0], [2.0], [5.0], [7.0]], [1, 1, -1, -1])
        model = fit_rmdd(data)
        assert model.w[0] == -1.0
        # projections: pos {0,-2}, neg {-5,-7}; midpoint boundary at -3.5
        assert model.b == pytest.approx(3.5, abs=1e-12)

    def test_unit_norm(self):
        model = fit_rmdd(separable_instance(7))
        assert np.linalg.norm(model.w) == pytest.approx(1.0, abs=1e-12)

    def test_scale_invariant_predictions(self):
        data = separable_instance(8, shift=1.0)
        scaled = LabeledMatrix(5.0 * data.samples, data.labels)
        base = fit_rmdd(data)
        big = fit_rmdd(scaled)
        x = np.random.default_rng(1).standard_normal((20, data.d))
        assert np.array_equal(predict(base, x), predict(big, 5.0 * x))

    def test_equal_means_error(self):
        data = LabeledMatrix([[1.0], [-1.0], [1.0], [-1.0]], [1, 1, -1, -1])
        with pytest.raises(FitError, match="coincide"):
            fit_rmdd(data)


class TestBayesOracle:
    def test_fig1_parameters(self):
        model = bayes_oracle(FIG1_MU, -FIG1_MU, FIG1_SIGMA)
        assert np.allclose(model.w, [0.25, 3.25], atol=1e-12)
        assert model.b == pytest.approx(0.0, abs=1e-12)

    def test_identity_covariance(self):
        mu = np.array([1.0, -2.0, 0.5])
        model = bayes_oracle(mu, -mu, np.eye(3))
        assert np.allclose(model.w, 2 * mu, atol=1e-12)
        assert model.b == pytest.approx(0.0, abs=1e-12)

    def test_non_spd_rejected(self):
        with pytest.raises(FitError, match="positive definite"):
            bayes_oracle(np.ones(2), -np.ones(2), [[1.0, 2.0], [2.0, 1.0]])


class TestSerialization:
    def test_round_trip_lossless(self, tmp_path):
        model = fit_psc(simulate_hdlss(30, 8, 4, seed=2), HP)
        path = tmp_path / "model.json"
        save_model(model, path)
        again = load_model(path)
        assert np.array_equal(again.w, model.w)
        assert again.b == model.b
        assert model_to_dict(again) == model_to_dict(model)

    def test_dict_fields(self):
        d = model_to_dict(fit_psc(simulate_hdlss(10, 5, 3, seed=1), HP))
        for key in ("method_tag", "d", "w", "b", "n1", "n2", "gamma", "lambda",
                    "c0", "r_scale", "converged", "kkt_residual"):
            assert key in d

    @pytest.mark.parametrize("method", classifier.METHODS)
    def test_a_model_records_only_the_rule_and_its_settings(self, method):
        d = model_to_dict(classifier.fit(method, simulate_hdlss(10, 5, 3, seed=1), HP))
        assert set(d) == {"method_tag", "d", "w", "b", "n1", "n2", "gamma", "lambda",
                          "c0", "r_scale", "converged", "kkt_residual"}
