import numpy as np
import pytest

from psc.crossval import DEFAULT_GAMMA_GRID
from psc.dataset import LabeledMatrix, class_stats, simulate_hdlss, stratified_kfold
from psc.scatter import build_factor
from psc.smw import SmwError, SmwOperator, apply_inverse, build_operator, gram, lambda_cap
from tests.oracles import dense_scatter, gram_reference
from tests.test_scatter import random_instance

SCALAR_DATA = LabeledMatrix([[0.0], [2.0], [5.0], [7.0]], [1, 1, -1, -1])


def scalar_factor():
    return build_factor(SCALAR_DATA, class_stats(SCALAR_DATA))


def dense_m(data, lam):
    s = class_stats(data)
    a = np.eye(data.d) - lam * dense_scatter(data, s)
    return np.linalg.inv(a)


class TestLambdaCap:
    def test_scalar_example(self):
        assert lambda_cap(scalar_factor()) == pytest.approx(1.0 / 27.0, rel=1e-12)

    def test_feature_scaling(self):
        data = random_instance(7)
        scaled = LabeledMatrix(3.0 * data.samples, data.labels)
        c1 = lambda_cap(build_factor(data, class_stats(data)))
        c2 = lambda_cap(build_factor(scaled, class_stats(scaled)))
        assert c2 == pytest.approx(c1 / 9.0, rel=1e-9)

    def test_matches_dense_eigenvalue(self):
        for seed in range(15):
            data = random_instance(seed, d_max=50)
            s = class_stats(data)
            cap = lambda_cap(build_factor(data, s))
            lam_max = np.linalg.eigvalsh(dense_scatter(data, s)).max()
            assert cap == pytest.approx(1.0 / lam_max, rel=1e-9)

    def test_zero_matrix_sentinel(self):
        data = LabeledMatrix([[1.0], [1.0], [1.0], [1.0]], [1, 1, -1, -1])
        assert lambda_cap(build_factor(data, class_stats(data))) == np.inf


class TestBuildOperator:
    def test_scalar_inverse(self):
        op = build_operator(scalar_factor(), 1.0 / 54.0)
        # M = 1 / (1 - 27/54) = 2
        assert apply_inverse(op, np.array([[1.0]]))[0, 0] == pytest.approx(2.0, rel=1e-12)
        assert apply_inverse(op, np.array([[3.0]]))[0, 0] == pytest.approx(6.0, rel=1e-12)

    def test_lambda_bounds(self):
        f = scalar_factor()
        with pytest.raises(SmwError, match="lambda"):
            build_operator(f, 0.0)
        with pytest.raises(SmwError, match="lambda"):
            build_operator(f, 1.0 / 27.0)
        with pytest.raises(SmwError, match="lambda"):
            build_operator(f, 1.0)

    def test_lambda_just_below_the_cap_is_numerically_singular(self):
        f = scalar_factor()
        with pytest.raises(SmwError, match="numerically singular"):
            build_operator(f, lambda_cap(f) * (1.0 - 1e-14))

    def test_tiny_lambda_is_identity(self):
        data = random_instance(11)
        f = build_factor(data, class_stats(data))
        op = build_operator(f, 1e-12)
        v = np.random.default_rng(0).standard_normal((data.d, 1))
        out = apply_inverse(op, v)
        assert np.linalg.norm(out - v) <= 1e-6 * np.linalg.norm(v)

    def test_matches_dense_inverse(self):
        rng = np.random.default_rng(5)
        data = LabeledMatrix(rng.standard_normal((5, 20)), [1, 1, -1, -1, -1])
        f = build_factor(data, class_stats(data))
        lam = 0.3 * lambda_cap(f)
        op = build_operator(f, lam)
        m_smw = apply_inverse(op, np.eye(20))
        m_dense = dense_m(data, lam)
        assert np.abs(m_smw - m_dense).max() <= 1e-8 * np.abs(m_dense).max()


class TestApplyInverse:
    def test_zero_maps_to_zero(self):
        op = build_operator(scalar_factor(), 1e-3)
        assert np.all(apply_inverse(op, np.zeros((1, 3))) == 0.0)

    def test_inverse_consistency(self):
        for seed in range(10):
            data = random_instance(seed + 50, d_max=30)
            s = class_stats(data)
            f = build_factor(data, s)
            lam = 0.7 * lambda_cap(f)
            op = build_operator(f, lam)
            rng = np.random.default_rng(seed)
            v = rng.standard_normal((data.d, 2))
            forward = v - lam * dense_scatter(data, s) @ v
            back = apply_inverse(op, forward)
            assert np.linalg.norm(back - v) <= 1e-8 * np.linalg.norm(v)

    def test_dimension_mismatch(self):
        op = build_operator(scalar_factor(), 1e-3)
        with pytest.raises(SmwError, match="dimension"):
            apply_inverse(op, np.ones((2, 1)))


class TestGram:
    def test_two_point_identity(self):
        data = LabeledMatrix([[1.0], [-1.0]], [1, -1])
        f = build_factor(data, class_stats(data))
        op = build_operator(f, 1e-14)
        g = gram(op, data)
        assert np.allclose(g, [[1.0, 1.0], [1.0, 1.0]], atol=1e-10)

    def test_small_lambda_limit_is_svm_gram(self):
        data = random_instance(21)
        f = build_factor(data, class_stats(data))
        op = build_operator(f, min(1e-13, 1e-6 * lambda_cap(f)))
        y = data.labels.astype(float)
        svm_gram = (y[:, None] * y[None, :]) * (data.samples @ data.samples.T)
        g = gram(op, data)
        assert np.abs(g - svm_gram).max() <= 1e-6 * max(np.abs(svm_gram).max(), 1.0)

    def test_matches_dense_path(self):
        for seed in range(10):
            data = random_instance(seed + 200, d_max=25)
            f = build_factor(data, class_stats(data))
            lam = 0.5 * lambda_cap(f)
            op = build_operator(f, lam)
            y = data.labels.astype(float)
            x = data.samples
            g_dense = (y[:, None] * y[None, :]) * (x @ dense_m(data, lam) @ x.T)
            g = gram(op, data)
            assert np.abs(g - g_dense).max() <= 1e-8 * max(np.abs(g_dense).max(), 1.0)

    def test_symmetric_and_psd(self):
        data = random_instance(33, d_max=40)
        f = build_factor(data, class_stats(data))
        op = build_operator(f, 0.9 * lambda_cap(f))
        g = gram(op, data)
        assert np.array_equal(g, g.T)
        assert np.linalg.eigvalsh(g).min() >= -1e-8 * max(np.linalg.norm(g), 1.0)

    def test_dimension_mismatch(self):
        op = build_operator(scalar_factor(), 1e-3)
        with pytest.raises(SmwError, match="different dimension"):
            gram(op, LabeledMatrix([[1.0, 0.0], [0.0, 1.0]], [1, -1]))


def assert_same_gram(op, data):
    g, ref = gram(op, data), gram_reference(op, data)
    assert g.dtype == ref.dtype and g.shape == ref.shape
    assert g.tobytes() == ref.tobytes()


class TestGramMatchesReference:
    """The factor's X X^T and X D^T basis give the Gram bit for bit."""

    def test_criterion_2_random_families(self):
        # criterion 2's instances: n in [4, 20], d in [2, 50], every gamma
        gammas = (0.1, 0.3, 0.5, 0.7, 0.9)
        rng = np.random.default_rng(20240826)
        for case in range(200):
            n = int(rng.integers(4, 21))
            d = int(rng.integers(2, 51))
            n1 = int(rng.integers(2, n - 1))
            data = LabeledMatrix(rng.standard_normal((n, d)), [1] * n1 + [-1] * (n - n1))
            f = build_factor(data, class_stats(data))
            assert_same_gram(build_operator(f, gammas[case % 5] * lambda_cap(f)), data)

    def test_cv_psc_inner_set_at_every_default_gamma(self):
        # outer fold 0 and inner fold 0 of psc cv's first repeat on the
        # benchmark's 62 x 2000 data, rows in the order cv gives them
        data = simulate_hdlss(2000, 22, 40, seed=3)
        outer = stratified_kfold(data.labels, 5, seed=0).train_indices(0)
        train = LabeledMatrix(data.samples[outer], data.labels[outer])
        inner = stratified_kfold(train.labels, 4, seed=100_003).train_indices(0)
        sub = LabeledMatrix(train.samples[inner], train.labels[inner])
        f = build_factor(sub, class_stats(sub))
        for gamma in DEFAULT_GAMMA_GRID:
            assert_same_gram(build_operator(f, gamma * lambda_cap(f)), sub)

    def test_the_psd_guard_fires_as_in_the_reference(self):
        data = random_instance(33, d_max=40)
        f = build_factor(data, class_stats(data))
        op = SmwOperator(factor=f, weights=np.full(data.n + 1, -1e3))  # no lambda gives this
        with pytest.raises(SmwError, match="not PSD") as ref:
            gram_reference(op, data)
        with pytest.raises(SmwError, match="not PSD") as got:
            gram(op, data)
        assert str(got.value) == str(ref.value)

    def test_rows_other_than_the_factors_are_rejected(self):
        data = random_instance(5, d_max=10)
        op = build_operator(build_factor(data, class_stats(data)), 1e-3)
        fewer = LabeledMatrix(data.samples[1:], data.labels[1:])
        with pytest.raises(SmwError, match=f"built on {data.n} training rows, got {data.n - 1}"):
            gram(op, fewer)
        wider = LabeledMatrix(np.hstack([data.samples, data.samples]), data.labels)
        with pytest.raises(SmwError, match="different dimension"):
            gram(op, wider)
