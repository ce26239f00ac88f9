import numpy as np
import pytest

from psc.dataset import LabeledMatrix, class_stats
from psc.scatter import build_factor
from psc.smw import SmwError, apply_inverse, build_operator, gram, lambda_cap
from tests.oracles import dense_scatter
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
