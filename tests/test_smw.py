import numpy as np
import pytest

from psc.classifier import prepare
from psc.crossval import DEFAULT_GAMMA_GRID
from psc.dataset import LabeledMatrix, centred_gram, class_stats, simulate_fig1, simulate_hdlss, stratified_kfold
from psc.smw import SmwError, SmwOperator, apply_inverse, build_operator, gram, lambda_cap
from tests.oracles import centred_gram_reference, dense_scatter, gram_reference, lambda_cap_reference
from tests.test_qp import with_duplicates
from tests.test_scatter import random_instance

SCALAR_DATA = LabeledMatrix([[0.0], [2.0], [5.0], [7.0]], [1, 1, -1, -1])


def scalar_factor():
    return prepare(SCALAR_DATA).factor


def scaled(data, by):
    return LabeledMatrix(by * data.samples, data.labels)


def offset(data, by):
    return LabeledMatrix(data.samples + by, data.labels)


# data where the Gram's PSD property is easiest to lose to rounding: a
# large common offset, more rows than dimensions, equal rows, tiny and
# huge scales
PSD_FAMILIES = {
    "random": lambda: [random_instance(33, d_max=40)],
    "offset-1e4": lambda: [offset(simulate_hdlss(2000, 22, 40, seed=k), 1e4) for k in range(3)],
    "fig1": lambda: [simulate_fig1(n_pos, 65, n_pos) for n_pos in (5, 12, 32, 65)],
    "duplicate-rows": lambda: [with_duplicates(simulate_hdlss(200, 10, 12, 1), rows)
                               for rows in ([0, 1, 2, 15, 16], [0, 0, 0, 21])],
    "scaled-1e-3": lambda: [scaled(random_instance(33, d_max=40), 1e-3),
                            scaled(simulate_hdlss(200, 10, 12, 1), 1e-3)],
    "scaled-1e3": lambda: [scaled(random_instance(33, d_max=40), 1e3),
                           scaled(simulate_hdlss(200, 10, 12, 1), 1e3)],
}


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
        c1 = lambda_cap(prepare(data).factor)
        c2 = lambda_cap(prepare(scaled).factor)
        assert c2 == pytest.approx(c1 / 9.0, rel=1e-9)

    def test_matches_dense_eigenvalue(self):
        for seed in range(15):
            data = random_instance(seed, d_max=50)
            s = class_stats(data)
            cap = lambda_cap(prepare(data).factor)
            lam_max = np.linalg.eigvalsh(dense_scatter(data, s)).max()
            assert cap == pytest.approx(1.0 / lam_max, rel=1e-9)

    def test_zero_matrix_sentinel(self):
        data = LabeledMatrix([[1.0], [1.0], [1.0], [1.0]], [1, 1, -1, -1])
        assert lambda_cap(prepare(data).factor) == np.inf

    def test_equal_rows_at_any_value_read_as_zero_scatter(self):
        # the class means round (0.1 averaged over 3 rows is not 0.1), so the
        # factor's spectrum holds rounding noise, not exact zeros
        for v in np.linspace(-5.0, 5.0, 97):
            for n1, n2 in [(3, 5), (2, 2), (10, 4), (1, 6)]:
                data = LabeledMatrix(np.full((n1 + n2, 3), v), [1] * n1 + [-1] * n2)
                assert lambda_cap(prepare(data).factor) == np.inf


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
        f = prepare(data).factor
        op = build_operator(f, 1e-12)
        v = np.random.default_rng(0).standard_normal((data.d, 1))
        out = apply_inverse(op, v)
        assert np.linalg.norm(out - v) <= 1e-6 * np.linalg.norm(v)

    def test_matches_dense_inverse(self):
        rng = np.random.default_rng(5)
        data = LabeledMatrix(rng.standard_normal((5, 20)), [1, 1, -1, -1, -1])
        f = prepare(data).factor
        lam = 0.3 * lambda_cap(f)
        op = build_operator(f, lam)
        m_smw = apply_inverse(op, np.eye(20))
        m_dense = dense_m(data, lam)
        assert np.abs(m_smw - m_dense).max() <= 1e-8 * np.abs(m_dense).max()

    @pytest.mark.parametrize("bad", [
        lambda n: np.full(n + 1, -1e3),
        lambda n: np.r_[np.ones(n), np.nan],
        lambda n: np.r_[np.inf, np.ones(n)],
        lambda n: np.r_[np.ones(n // 2), 0.0, np.ones(n - n // 2)],
        lambda n: np.ones(n),
        lambda n: np.ones(n + 2),
        lambda n: np.ones((n + 1, 1)),
    ], ids=["negative", "nan", "inf", "zero", "short", "long", "column"])
    def test_weights_no_lambda_gives_are_rejected(self, bad):
        # the operator's weights are what make the dual Gram PSD, so an
        # operator that holds any other weights cannot be made
        data = random_instance(33, d_max=40)
        f = prepare(data).factor
        with pytest.raises(SmwError, match=f"weights must be {data.n + 1} finite positive values"):
            SmwOperator(factor=f, weights=bad(data.n))


class TestApplyInverse:
    def test_zero_maps_to_zero(self):
        op = build_operator(scalar_factor(), 1e-3)
        assert np.all(apply_inverse(op, np.zeros((1, 3))) == 0.0)

    def test_inverse_consistency(self):
        for seed in range(10):
            data = random_instance(seed + 50, d_max=30)
            s = class_stats(data)
            f = prepare(data).factor
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
        f = prepare(data).factor
        op = build_operator(f, 1e-14)
        g = gram(op, data)
        assert np.allclose(g, [[1.0, 1.0], [1.0, 1.0]], atol=1e-10)

    def test_small_lambda_limit_is_svm_gram(self):
        data = random_instance(21)
        f = prepare(data).factor
        op = build_operator(f, min(1e-13, 1e-6 * lambda_cap(f)))
        y = data.labels.astype(float)
        x = data.samples - data.samples.mean(axis=0)
        svm_gram = (y[:, None] * y[None, :]) * (x @ x.T)
        g = gram(op, data)
        assert np.abs(g - svm_gram).max() <= 1e-6 * max(np.abs(svm_gram).max(), 1.0)

    def test_matches_dense_path(self):
        for seed in range(10):
            data = random_instance(seed + 200, d_max=25)
            f = prepare(data).factor
            lam = 0.5 * lambda_cap(f)
            op = build_operator(f, lam)
            y = data.labels.astype(float)
            x = data.samples - data.samples.mean(axis=0)
            g_dense = (y[:, None] * y[None, :]) * (x @ dense_m(data, lam) @ x.T)
            g = gram(op, data)
            assert np.abs(g - g_dense).max() <= 1e-8 * max(np.abs(g_dense).max(), 1.0)

    @pytest.mark.parametrize("gamma", [0.1, 0.5, 0.9, 0.999999, 1.0 - 1e-10])
    @pytest.mark.parametrize("family", PSD_FAMILIES)
    def test_symmetric_and_psd(self, family, gamma):
        # positive operator weights make G PSD by construction; the bound
        # is the one gram_reference's guard applies
        for data in PSD_FAMILIES[family]():
            f = prepare(data).factor
            g = gram(build_operator(f, gamma * lambda_cap(f)), data)
            assert np.array_equal(g, g.T)
            eigs = np.linalg.eigvalsh(g)
            assert eigs.min() >= -1e-8 * np.abs(eigs).max()

    def test_dimension_mismatch(self):
        op = build_operator(scalar_factor(), 1e-3)
        with pytest.raises(SmwError, match="different dimension"):
            gram(op, LabeledMatrix([[1.0, 0.0], [0.0, 1.0]], [1, -1]))


class TestCentredGramBlocks:
    """centred_gram sums K = Xc Xc^T over blocks of at most 4096 columns. Up
    to 4096 columns that is one block, with the single product's bits;
    beyond, several blocks with a ragged last one stay within 1e-12 of the
    d-space Gram's largest entry, also with a 1e4 offset on every feature."""

    @pytest.mark.parametrize("d", [1, 2000, 4096])
    def test_one_block_is_the_single_product(self, d):
        data = simulate_hdlss(d, 20, 10, seed=d)
        s = class_stats(data)
        Xc = data.samples - (s.n1 * s.u1 + s.n2 * s.u2) / data.n
        assert centred_gram(data.samples, s.mean).tobytes() == (Xc @ Xc.T).tobytes()

    @pytest.mark.parametrize("by", [0.0, 1e4])
    @pytest.mark.parametrize("d", [4097, 20000])
    def test_several_blocks_match_the_d_space_gram(self, d, by):
        data = offset(simulate_hdlss(d, 20, 10, seed=d), by)
        kc = centred_gram(data.samples, class_stats(data).mean)
        ref = centred_gram_reference(data)
        assert np.abs(kc - ref).max() <= 1e-12 * np.abs(ref).max()


def assert_close_gram(op, data, bound=1e-12):
    g, ref = gram(op, data), gram_reference(op, data)
    assert g.dtype == ref.dtype and g.shape == ref.shape
    assert np.abs(g - ref).max() <= bound * np.abs(ref).max()


class TestGramMatchesReference:
    """The factor's n-space Xc Xc^T and Xc D^T basis, Xc the rows centred
    on their mean, give the Gram that the d-space rows give, within 1e-12
    of its largest entry."""

    def test_criterion_2_random_families(self):
        # criterion 2's instances: n in [4, 20], d in [2, 50], every gamma
        gammas = (0.1, 0.3, 0.5, 0.7, 0.9)
        rng = np.random.default_rng(20240826)
        for case in range(200):
            n = int(rng.integers(4, 21))
            d = int(rng.integers(2, 51))
            n1 = int(rng.integers(2, n - 1))
            data = LabeledMatrix(rng.standard_normal((n, d)), [1] * n1 + [-1] * (n - n1))
            f = prepare(data).factor
            assert_close_gram(build_operator(f, gammas[case % 5] * lambda_cap(f)), data)

    def test_cv_psc_inner_set_at_every_default_gamma(self):
        # outer fold 0 and inner fold 0 of psc cv's first repeat on the
        # benchmark's 62 x 2000 data, rows in the order cv gives them
        data = simulate_hdlss(2000, 22, 40, seed=3)
        outer = stratified_kfold(data.labels, 5, seed=0).train_indices(0)
        train = LabeledMatrix(data.samples[outer], data.labels[outer])
        inner = stratified_kfold(train.labels, 4, seed=100_003).train_indices(0)
        sub = LabeledMatrix(train.samples[inner], train.labels[inner])
        f = prepare(sub).factor
        for gamma in DEFAULT_GAMMA_GRID:
            assert_close_gram(build_operator(f, gamma * lambda_cap(f)), sub)

    @pytest.mark.parametrize("seed", range(20))
    def test_a_large_common_offset(self, seed):
        # every feature shifted by 1e4: the n-space products must not
        # cancel the offset away, as an uncentred X X^T would
        data = simulate_hdlss(2000, 22, 40, seed=seed)
        data = LabeledMatrix(data.samples + 1e4, data.labels)
        s = class_stats(data)
        f = prepare(data).factor
        assert lambda_cap(f) == pytest.approx(lambda_cap_reference(data, s), rel=1e-11, abs=0.0)
        assert_close_gram(build_operator(f, 0.5 * lambda_cap(f)), data, bound=1e-12)

    def test_rows_other_than_the_factors_are_rejected(self):
        data = random_instance(5, d_max=10)
        op = build_operator(prepare(data).factor, 1e-3)
        fewer = LabeledMatrix(data.samples[1:], data.labels[1:])
        with pytest.raises(SmwError, match=f"built on {data.n} training rows, got {data.n - 1}"):
            gram(op, fewer)
        wider = LabeledMatrix(np.hstack([data.samples, data.samples]), data.labels)
        with pytest.raises(SmwError, match="different dimension"):
            gram(op, wider)
