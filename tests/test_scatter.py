import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from psc.classifier import prepare
from psc.dataset import LabeledMatrix, class_stats, simulate_hdlss
from psc.smw import beta
from tests.oracles import dense_scatter, scatter_rows


def random_instance(seed, n_min=4, n_max=12, d_max=6):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(n_min, n_max + 1))
    d = int(rng.integers(1, d_max + 1))
    n1 = int(rng.integers(2, n - 1))
    labels = np.array([1] * n1 + [-1] * (n - n1))
    rng.shuffle(labels)
    return LabeledMatrix(rng.standard_normal((n, d)), labels)


class TestBeta:
    def test_balanced_is_one(self):
        assert beta(7, 7) == 1.0

    def test_m16(self):
        assert beta(2, 32) == pytest.approx(0.5, abs=1e-15)

    def test_m_e4(self):
        n2 = 1
        m = math.exp(4.0)
        assert beta(1, 1) == 1.0
        # non-integer imbalance checked through the formula directly
        assert math.exp(-math.log(m) / 4.0) == pytest.approx(math.exp(-1), abs=1e-12)
        assert beta(55, 1) == pytest.approx((55 / n2) ** -0.25, abs=1e-12)

    def test_symmetric(self):
        assert beta(3, 12) == beta(12, 3)

    def test_rejects_an_empty_class(self):
        with pytest.raises(ValueError, match="class counts must be positive"):
            beta(0, 3)

    def test_range(self):
        for n1, n2 in [(1, 1), (1, 1000), (17, 3)]:
            assert 0.0 < beta(n1, n2) <= 1.0


class TestBuildFactor:
    def test_scalar_hand_example(self):
        # classes {0,2} and {5,7}: S_W = 2, S_B = 25, beta = 1 -> 27
        data = LabeledMatrix([[0.0], [2.0], [5.0], [7.0]], [1, 1, -1, -1])
        f = prepare(data).factor
        P = (f.e_matrix @ data.samples).T @ f.basis
        dense = P @ P.T
        assert dense[0, 0] == pytest.approx(27.0, abs=1e-12)
        assert dense_scatter(data, class_stats(data))[0, 0] == pytest.approx(27.0, abs=1e-12)

    def test_equal_means_zero_last_row(self):
        data = LabeledMatrix([[1.0, 0.0], [-1.0, 0.0], [0.0, 2.0], [0.0, -2.0]],
                             [1, 1, -1, -1])
        f = prepare(data).factor
        assert np.all((f.e_matrix @ data.samples)[-1] == 0.0)

    def test_centering_rows(self):
        data = random_instance(3)
        s = class_stats(data)
        f = prepare(data).factor
        D = f.e_matrix @ data.samples
        assert np.abs(D[: s.n1].sum(axis=0)).max() < 1e-12
        assert np.abs(D[s.n1: -1].sum(axis=0)).max() < 1e-12

    def test_l_tau_positive_and_layout(self):
        # basis = diag(sqrt(L_tau)) U with U orthogonal, so D^T basis carries
        # the row weights, and basis basis^T = diag(L_tau)
        data = random_instance(4)
        s = class_stats(data)
        f = prepare(data).factor
        P = (f.e_matrix @ data.samples).T @ f.basis
        assert np.allclose(P @ P.T, dense_scatter(data, s))
        assert np.allclose(P.T @ P, np.diag(f.spectrum))
        l_tau = np.concatenate([np.full(s.n1, 1.0 / s.n1), np.full(s.n2, 1.0 / s.n2),
                                [beta(s.n1, s.n2)]])
        assert np.allclose((f.basis ** 2).sum(axis=1), l_tau)

    def test_rows_match_the_d_space_rows(self):
        # D = E X: E's rows sum to zero and rebuild scatter_rows' D
        for seed in range(20):
            data = random_instance(seed)
            s = class_stats(data)
            f = prepare(data).factor
            D, l_tau = scatter_rows(data, s)
            assert np.abs(f.e_matrix.sum(axis=1)).max() < 1e-14
            assert np.abs(f.e_matrix @ data.samples - D).max() <= 1e-12 * max(np.abs(D).max(), 1.0)
            P = (f.e_matrix @ data.samples).T @ f.basis
            dense = dense_scatter(data, s)
            assert np.linalg.norm(P @ P.T - dense) <= 1e-10 * max(np.linalg.norm(dense), 1.0)
            spectrum = np.diag(f.spectrum)
            assert np.linalg.norm(P.T @ P - spectrum) <= 1e-10 * max(np.linalg.norm(spectrum), 1.0)

    def test_matches_dense_random(self):
        for seed in range(20):
            data = random_instance(seed)
            s = class_stats(data)
            f = prepare(data).factor
            P = (f.e_matrix @ data.samples).T @ f.basis
            dense = dense_scatter(data, s)
            scale = max(np.linalg.norm(dense), 1.0)
            assert np.linalg.norm(P @ P.T - dense) <= 1e-10 * scale
            spectrum = np.diag(f.spectrum)
            assert np.linalg.norm(P.T @ P - spectrum) <= 1e-10 * max(np.linalg.norm(spectrum), 1.0)


class TestDenseScatter:
    def test_single_sample_per_class(self):
        v = np.array([1.0, -2.0, 0.5])
        data = LabeledMatrix(np.vstack([v, -v]), [1, -1])
        out = dense_scatter(data, class_stats(data))
        assert np.allclose(out, 4.0 * np.outer(v, v), atol=1e-12)

    def test_exact_symmetry(self):
        data = random_instance(9)
        out = dense_scatter(data, class_stats(data))
        assert np.array_equal(out, out.T)

    def test_psd(self):
        for seed in range(10):
            data = random_instance(seed + 100)
            out = dense_scatter(data, class_stats(data))
            assert np.linalg.eigvalsh(out).min() >= -1e-10 * max(np.linalg.norm(out), 1.0)

    def test_rank_bound(self):
        data = simulate_hdlss(40, 4, 3, seed=5)
        out = dense_scatter(data, class_stats(data))
        assert np.linalg.matrix_rank(out, tol=1e-8) <= data.n + 1


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 10_000))
def test_factor_dense_equivalence_property(seed):
    data = random_instance(seed)
    s = class_stats(data)
    f = prepare(data).factor
    P = (f.e_matrix @ data.samples).T @ f.basis
    dense = dense_scatter(data, s)
    assert np.linalg.norm(P @ P.T - dense) <= 1e-10 * max(np.linalg.norm(dense), 1.0)
    spectrum = np.diag(f.spectrum)
    assert np.linalg.norm(P.T @ P - spectrum) <= 1e-10 * max(np.linalg.norm(spectrum), 1.0)
