import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from psc.intercept import (
    InterceptError,
    Projections,
    choose_intercept,
    gap_intercept,
    is_separable,
    min_misclass_intercept,
)
from tests.oracles import min_misclass_reference


def misclass_count(p, b):
    pos = np.asarray(p.pos)
    neg = np.asarray(p.neg)
    # sign(0) = +1: a positive on the boundary is correct, a negative is not
    return int((pos + b < 0).sum()) + int((neg + b >= 0).sum())


class TestProjections:
    @pytest.mark.parametrize("pos, neg, message", [
        ([], [0.0, 1.0], "both classes need at least one projection"),
        ([1.0, np.inf], [0.0], "projections must be finite"),
    ], ids=["empty-class", "non-finite"])
    def test_rejects_a_malformed_input(self, pos, neg, message):
        with pytest.raises(InterceptError, match=message):
            Projections(pos, neg)


class TestIsSeparable:
    def test_separated(self):
        assert is_separable(Projections([3, 4], [0, 1]))

    def test_interleaved(self):
        assert not is_separable(Projections([1, -0.5], [-1, 0.2]))

    def test_touching_is_not_separable(self):
        assert not is_separable(Projections([1, 2], [1, 0]))


class TestGapIntercept:
    def test_balanced_midpoint(self):
        b = gap_intercept(Projections([3, 4], [0, 1]), 2.0)
        assert b == pytest.approx(-2.0, abs=1e-15)

    def test_m16_minority_positive(self):
        # n-/n+ = 16, R = 2: r = 16^(-1/4) = 0.5, gap [1,3] of width 2,
        # buffer 4/3 on the minority (+) side -> boundary at 3 - 4/3 = 5/3
        p = Projections([3, 4], np.linspace(0, 1, 32))
        b = gap_intercept(p, 2.0)
        assert b == pytest.approx(-(3 - 4.0 / 3.0), abs=1e-10)

    def test_gap_identity(self):
        for n_pos, n_neg in [(2, 2), (2, 32), (32, 2), (5, 7)]:
            p = Projections(np.linspace(3.0, 4.0, n_pos), np.linspace(0.0, 1.0, n_neg))
            b = gap_intercept(p, 2.0)
            b_plus = 3.0 + b
            b_minus = -(1.0 + b)
            assert b_plus + b_minus == pytest.approx(2.0, abs=1e-12)
            assert b_plus > 0 and b_minus > 0

    def test_minority_gets_larger_buffer_both_directions(self):
        minority_pos = gap_intercept(Projections([3, 4], np.linspace(0, 1, 32)), 2.0)
        assert 3.0 + minority_pos > -(1.0 + minority_pos)
        minority_neg = gap_intercept(Projections(np.linspace(3, 4, 32), [0, 1]), 2.0)
        assert 3.0 + minority_neg < -(1.0 + minority_neg)

    def test_split_monotone_in_imbalance(self):
        shares = []
        for n_neg in [2, 4, 16, 256, 65536]:
            b = gap_intercept(Projections([3, 4], np.linspace(0, 1, n_neg)), 2.0)
            shares.append((3.0 + b) / 2.0)
        assert all(a <= b_ for a, b_ in zip(shares, shares[1:]))
        assert shares[-1] > 0.9

    @pytest.mark.parametrize("R", [0.0, -1.0, float("nan")])
    def test_rejects_a_nan_or_non_positive_r(self, R):
        with pytest.raises(InterceptError, match="R must be positive"):
            gap_intercept(Projections([3, 4], [0, 1]), R)

    def test_not_separable_raises(self):
        with pytest.raises(InterceptError, match="separable"):
            gap_intercept(Projections([1, -0.5], [-1, 0.2]), 2.0)


class TestMinMisclass:
    def test_separable_widest_gap(self):
        b = min_misclass_intercept(Projections([3, 4], [0, 1]))
        assert b == pytest.approx(-2.0, abs=1e-15)

    def test_interleaved_example(self):
        # one misclassification minimum; intervals (-1,-0.5) and (0.2,1) tie
        # on count, the wider (0.2,1) wins
        b = min_misclass_intercept(Projections([1, -0.5], [-1, 0.2]))
        assert b == pytest.approx(-0.6, abs=1e-12)
        assert misclass_count(Projections([1, -0.5], [-1, 0.2]), b) == 1

    def test_all_equal_imbalanced_takes_exact_minimum(self):
        # misclassifying the lone positive gives strictly fewer errors than
        # misclassifying three negatives, so the exact minimum wins out over
        # any minority preference (tie-breaks only apply on equal counts)
        p = Projections([5.0], [5.0, 5.0, 5.0])
        b = min_misclass_intercept(p)
        assert misclass_count(p, b) == 1
        assert 5.0 + b < 0

    def test_all_equal_balanced(self):
        p = Projections([5.0, 5.0], [5.0, 5.0])
        b = min_misclass_intercept(p)
        assert 5.0 + b >= 0

    def test_smaller_threshold_breaks_a_full_tie(self):
        # -2e17 - 1 and 1e17 + 1 round onto the samples, so both end
        # candidates misclassify everything with infinite gaps and zero
        # recall; the smaller |threshold| wins
        assert min_misclass_intercept(Projections([-2e17], [1e17])) == -1e17

    def test_a_midpoint_past_the_float_limit_stays_finite(self):
        # (1e308 + 1.7e308) / 2 overflowed to a threshold of inf with a warning
        assert min_misclass_intercept(Projections([1e308], [1.7e308])) == -1e308
        b = min_misclass_intercept(Projections([1.7e308], [1e308]))  # the midpoint wins
        assert b == -(1e308 / 2.0 + 1.7e308 / 2.0)

    def test_achieves_exhaustive_minimum(self):
        rng = np.random.default_rng(6)
        for _ in range(100):
            pos = rng.standard_normal(rng.integers(1, 8)) + 0.3
            neg = rng.standard_normal(rng.integers(1, 8))
            p = Projections(pos, neg)
            b = min_misclass_intercept(p)
            grid = np.linspace(-10.0, 10.0, 4001)
            best = min(misclass_count(p, g) for g in grid)
            assert misclass_count(p, b) <= best


def assert_same_bits(a, b):
    assert a == b and np.signbit(a) == np.signbit(b), (a, b)


def each_class(draw):
    """A family that draws both classes alike, 1 to 29 values each."""
    def family(rng):
        n_pos, n_neg = rng.integers(1, 30, 2)
        return draw(rng, n_pos), draw(rng, n_neg)
    return family


def ulps_apart(rng, k):
    # consecutive floats, so that some midpoints round onto a sample
    base = rng.standard_normal() * 10.0 ** rng.integers(-4, 5)
    return base + rng.integers(-3, 4, k) * np.spacing(base)


def all_equal(rng):
    v = rng.choice([rng.standard_normal(), 0.0, -0.0])
    n_pos, n_neg = rng.integers(1, 6, 2)
    return np.full(n_pos, v), np.full(n_neg, v)


def one_point_class(rng):
    one, many = rng.standard_normal(1), rng.standard_normal(rng.integers(1, 10))
    return (one, many) if rng.random() < 0.5 else (many, one)


def shared_values(rng):
    pool = rng.standard_normal(rng.integers(1, 6))
    n_pos, n_neg = rng.integers(1, 30, 2)
    return rng.choice(pool, n_pos), rng.choice(pool, n_neg)


def up_to_300(rng):
    n_pos, n_neg = rng.integers(1, 151, 2)
    return rng.standard_normal(n_pos) + 0.3, rng.standard_normal(n_neg)


# name -> (draw (pos, neg) from a generator, number of cases)
SCAN_FAMILIES = {
    "normal": (each_class(lambda rng, k: rng.standard_normal(k)), 300),
    "integer_ties": (each_class(lambda rng, k: rng.integers(-3, 4, k).astype(np.float64)), 300),
    "ulps_apart": (each_class(ulps_apart), 300),
    "signed_zeros": (each_class(lambda rng, k: rng.choice([0.0, -0.0, 1.0, -1.0], k)), 300),
    # beyond 2**53 the end candidates v -/+ 1 land on the extreme samples
    "beyond_2_53": (each_class(lambda rng, k: rng.integers(-3, 4, k) * 2.0**60), 300),
    "all_equal": (all_equal, 100),
    "one_point_class": (one_point_class, 200),
    "shared_values": (shared_values, 200),
    "up_to_300": (up_to_300, 20),
    # both signs near 1e308, where no sum, gap or difference overflows yet
    "near_1e308": (each_class(lambda rng, k: rng.choice([-1.0, 1.0], k)
                              * rng.choice(rng.uniform(0.5, 0.85, 4), k) * 1e308), 300),
}


def same_sign_near_the_limit(rng):
    sign = rng.choice([-1.0, 1.0])
    pool = rng.uniform(0.9, 1.79, rng.integers(1, 8)) * 1e308
    n_pos, n_neg = rng.integers(1, 12, 2)
    return sign * rng.choice(pool, n_pos), sign * rng.choice(pool, n_neg)


def test_min_misclass_near_the_float_limit_is_the_reference_at_half_scale():
    """Past 0.9e308 a midpoint can overflow; it is re-formed as a/2 + b/2.
    Halving every value is exact there and so is the scan's choice, so the
    threshold must be twice the reference's on the halved values."""
    rng = np.random.default_rng(1308)
    for _ in range(300):
        pos, neg = same_sign_near_the_limit(rng)
        got = min_misclass_intercept(Projections(pos, neg))
        assert_same_bits(got, 2.0 * min_misclass_reference(Projections(pos / 2.0, neg / 2.0)))


def test_min_misclass_of_huge_values_of_both_signs_is_finite():
    rng = np.random.default_rng(2308)
    for _ in range(200):
        pos, neg = each_class(lambda rng, k: rng.choice([-1.0, 1.0], k)
                              * rng.uniform(0.9, 1.79, k) * 1e308)(rng)
        assert np.isfinite(min_misclass_intercept(Projections(pos, neg)))


@pytest.mark.parametrize("seed, name", enumerate(SCAN_FAMILIES))
def test_min_misclass_matches_reference_on_seeded_family(seed, name):
    """The sorted scan equals the per-candidate loop of tests/oracles.py bit
    for bit, sign of zero included."""
    family, cases = SCAN_FAMILIES[name]
    rng = np.random.default_rng(seed)
    for _ in range(cases):
        p = Projections(*family(rng))
        assert_same_bits(min_misclass_intercept(p), min_misclass_reference(p))


# beyond about 1e300 the reference's values - threshold can overflow, and
# the RuntimeWarning fails the run
scan_values = st.lists(st.floats(-1e300, 1e300, allow_nan=False), min_size=1, max_size=25)


@settings(max_examples=300, deadline=None)
@given(pos=scan_values, neg=scan_values)
def test_min_misclass_matches_reference_on_finite_floats(pos, neg):
    p = Projections(pos, neg)
    assert_same_bits(min_misclass_intercept(p), min_misclass_reference(p))


class TestChooseIntercept:
    def test_dispatch_gap(self):
        p = Projections([3, 4], [0, 1])
        assert choose_intercept(p, 2.0) == gap_intercept(p, 2.0)

    def test_dispatch_overlap(self):
        p = Projections([1, -0.5], [-1, 0.2])
        assert choose_intercept(p, 2.0) == min_misclass_intercept(p)


@settings(max_examples=60, deadline=None)
@given(
    t=st.floats(-50, 50, allow_nan=False),
    seed=st.integers(0, 1000),
    separable=st.booleans(),
)
def test_shift_equivariance(t, seed, separable):
    rng = np.random.default_rng(seed)
    if separable:
        pos = rng.uniform(2.0, 4.0, 4)
        neg = rng.uniform(-1.0, 1.0, 6)
    else:
        pos = rng.standard_normal(4)
        neg = rng.standard_normal(6)
    b0 = choose_intercept(Projections(pos, neg), 2.0)
    b1 = choose_intercept(Projections(pos + t, neg + t), 2.0)
    assert b1 == pytest.approx(b0 - t, abs=1e-9 * (1 + abs(t)))
