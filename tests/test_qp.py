import numpy as np
import pytest

from psc.qp import BoxQP, QpError, objective, solve_smo
from tests.oracles import brute_force_small, kkt_violation

I2 = np.eye(2)
Y2 = np.array([1.0, -1.0])


def random_psd(n, rng):
    a = rng.standard_normal((n, n))
    return a @ a.T + 1e-3 * np.eye(n)


def random_small_problem(seed, n=3):
    rng = np.random.default_rng(seed)
    g = random_psd(n, rng)
    y = np.array([1.0] * (n - 1) + [-1.0])
    rng.shuffle(y)
    upper = rng.uniform(0.2, 2.0, n)
    return BoxQP(g, y, upper)


def separable_wide_problem(seed, n=10, d=200):
    """The dual of separable HDLSS data: its multipliers are of order 1/d,
    far below caps in [0.5, 2]."""
    rng = np.random.default_rng(seed)
    y = np.array([1.0] * (n // 2) + [-1.0] * (n - n // 2))
    rng.shuffle(y)
    x = rng.standard_normal((n, d)) + 0.3 * y[:, None]
    g = y[:, None] * (x @ x.T) * y[None, :]
    return BoxQP((g + g.T) / 2.0, y, rng.uniform(0.5, 2.0, n)), rng


def assert_same_solve(a, b):
    assert np.array_equal(a.alpha, b.alpha)
    assert (a.iterations, a.kkt_residual, a.objective, a.converged) == (
        b.iterations, b.kkt_residual, b.objective, b.converged)


class TestBoxQP:
    def test_rejects_asymmetric(self):
        with pytest.raises(QpError, match="symmetric"):
            BoxQP([[1.0, 0.5], [0.0, 1.0]], Y2, [1.0, 1.0])

    def test_rejects_bad_labels(self):
        with pytest.raises(QpError, match=r"\+1 or -1"):
            BoxQP(I2, [1.0, 0.0], [1.0, 1.0])

    def test_rejects_zero_caps(self):
        with pytest.raises(QpError, match="positive"):
            BoxQP(I2, Y2, [1.0, 0.0])


class TestSolveSmo:
    def test_analytic_clipped(self):
        # equality forces a1 = a2 = a; optimum a = 1 clipped to cap 0.5
        sol = solve_smo(BoxQP(I2, Y2, [0.5, 0.5]))
        assert np.allclose(sol.alpha, [0.5, 0.5], atol=1e-12)
        assert sol.converged

    def test_analytic_interior(self):
        sol = solve_smo(BoxQP(I2, Y2, [2.0, 2.0]))
        assert np.allclose(sol.alpha, [1.0, 1.0], atol=1e-8)
        assert sol.objective == pytest.approx(1.0, abs=1e-10)

    def test_one_class_exits_through_the_empty_working_set(self):
        sol = solve_smo(BoxQP(I2, [1.0, 1.0], [1.0, 1.0]))
        assert np.array_equal(sol.alpha, [0.0, 0.0])
        assert sol.converged and sol.kkt_residual == 0.0 and sol.iterations == 0

    def test_tiny_caps(self):
        eps = 1e-6
        sol = solve_smo(BoxQP(I2, Y2, [eps, eps]))
        assert np.allclose(sol.alpha, [eps, eps], atol=1e-12)

    def test_feasibility_exact(self):
        for seed in range(25):
            p = random_small_problem(seed, n=3)
            sol = solve_smo(p)
            assert np.all(sol.alpha >= 0.0)
            assert np.all(sol.alpha <= p.upper)
            assert abs(sol.alpha @ p.y) <= 1e-10 * p.upper.sum()

    def test_matches_grid_oracle(self):
        p = random_small_problem(2024, n=3)
        smo = solve_smo(p)
        grid = brute_force_small(p, 201)
        assert smo.objective >= grid.objective - 1e-9
        assert np.abs(smo.alpha - grid.alpha).max() <= 1e-2
        assert smo.kkt_residual <= 1e-6

    def test_objective_monotone(self):
        # a solve capped at k iterations returns the k-th iterate
        rng = np.random.default_rng(7)
        n = 12
        p = BoxQP(random_psd(n, rng), np.repeat([1.0, -1.0], n // 2),
                  rng.uniform(0.2, 2.0, n))
        steps = solve_smo(p, 1e-6).iterations
        values = [objective(p, solve_smo(p, 1e-6, k).alpha) for k in range(steps + 1)]
        assert len(values) > 3
        diffs = np.diff(values)
        assert diffs.min() >= -1e-12

    def test_iteration_cap(self):
        # the residual is that of the returned alpha: seed 11 is solved by
        # its one step, so a cap of 1 still converges
        p = random_small_problem(11, n=3)
        sol = solve_smo(p, max_iter=1)
        assert sol.converged
        assert sol.iterations == 1
        assert sol.kkt_residual == kkt_violation(p, sol.alpha)
        p = random_small_problem(3, n=3)  # 8 iterations uncapped
        assert solve_smo(p).iterations > 1
        for cap in (0, 1):
            sol = solve_smo(p, max_iter=cap)
            assert not sol.converged
            assert sol.iterations == cap
            assert sol.kkt_residual == pytest.approx(kkt_violation(p, sol.alpha), rel=1e-12)

    def test_degenerate_zero_curvature(self):
        # G = 0 has zero curvature along every pair; ascent runs to the walls
        g = np.zeros((2, 2))
        sol = solve_smo(BoxQP(g, Y2, [1.0, 0.25]))
        assert np.allclose(sol.alpha, [0.25, 0.25], atol=1e-12)


class TestUpperActive:
    def test_analytic(self):
        assert solve_smo(BoxQP(I2, Y2, [0.5, 0.5])).upper_active  # clipped at the caps
        assert not solve_smo(BoxQP(I2, Y2, [2.0, 2.0])).upper_active  # interior optimum

    def test_an_unbound_solve_repeats_bit_for_bit_under_larger_caps(self):
        for seed in range(10):
            p, rng = separable_wide_problem(seed)
            sol = solve_smo(p)
            assert not sol.upper_active
            for larger in (2.0 * p.upper, p.upper + rng.uniform(0.0, 5.0, p.n)):
                assert_same_solve(sol, solve_smo(BoxQP(p.G, p.y, larger)))

    def test_binding_caps_report_it(self):
        for seed in range(10):
            p, _ = separable_wide_problem(seed)
            tight = BoxQP(p.G, p.y, 1e-3 * p.upper)
            sol = solve_smo(tight)
            assert sol.upper_active
            # the flag matters: the larger caps give another solve
            assert not np.array_equal(sol.alpha, solve_smo(BoxQP(p.G, p.y, 4e-3 * p.upper)).alpha)

    def test_caps_near_the_largest_free_multiplier(self):
        # a cap equal to the free solve's largest multiplier is reached, one
        # below it binds, and whenever the flag is clear the solve is the
        # free one, down to caps one rounding step above that multiplier
        problems = [separable_wide_problem(seed)[0] for seed in range(10)]
        problems += [random_small_problem(seed, n=4) for seed in range(25)]
        for p in problems:
            free = solve_smo(BoxQP(p.G, p.y, np.full(p.n, 1e6)))
            assert not free.upper_active
            top = free.alpha.max()
            for scale in (0.5, 1.0, 1.0 + 2.0**-52, 1.0 + 1e-9, 1.5, 10.0):
                sol = solve_smo(BoxQP(p.G, p.y, np.full(p.n, scale * top)))
                if scale <= 1.0:
                    assert sol.upper_active
                if not sol.upper_active:
                    assert_same_solve(sol, free)


class TestBruteForce:
    def test_analytic_case(self):
        sol = brute_force_small(BoxQP(I2, Y2, [0.5, 0.5]), 201)
        assert np.allclose(sol.alpha, [0.5, 0.5], atol=1e-12)

    def test_zero_g_maximizes_sum(self):
        sol = brute_force_small(BoxQP(np.zeros((2, 2)), Y2, [1.0, 0.5]), 201)
        assert np.allclose(sol.alpha, [0.5, 0.5], atol=1e-12)

    def test_grid_refinement_monotone(self):
        p = random_small_problem(5, n=3)
        coarse = brute_force_small(p, 101)
        fine = brute_force_small(p, 201)
        assert fine.objective >= coarse.objective - 1e-15

    def test_rejects_large_n(self):
        rng = np.random.default_rng(0)
        g = random_psd(5, rng)
        p = BoxQP(g, [1, 1, 1, -1, -1], np.ones(5))
        with pytest.raises(QpError, match="n"):
            brute_force_small(p, 51)


class TestKktViolation:
    def test_zero_at_optimum(self):
        p = BoxQP(I2, Y2, [2.0, 2.0])
        assert kkt_violation(p, np.array([1.0, 1.0])) <= 1e-12

    def test_initial_gap_is_two(self):
        p = BoxQP(I2, Y2, [2.0, 2.0])
        assert kkt_violation(p, np.zeros(2)) == pytest.approx(2.0, abs=1e-15)

    def test_permutation_invariant(self):
        p = random_small_problem(13, n=3)
        sol = solve_smo(p)
        perm = np.array([2, 0, 1])
        p2 = BoxQP(p.G[np.ix_(perm, perm)], p.y[perm], p.upper[perm])
        assert kkt_violation(p2, sol.alpha[perm]) == pytest.approx(
            kkt_violation(p, sol.alpha), abs=1e-12
        )

