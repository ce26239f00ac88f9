import inspect
import math
import sys

import numpy as np
import pytest

from psc import classifier, qp
from psc.crossval import ExperimentConfig, cv_run
from psc.dataset import LabeledMatrix, simulate_fig1, simulate_hdlss
from psc.qp import DEFAULT_MAX_ITER, DEFAULT_TOL, BoxQP, QpError, solve_smo
from tests.oracles import brute_force_small, kkt_violation, objective, smo_reference

I2 = np.eye(2)
Y2 = np.array([1.0, -1.0])
# read once, beside the import of the code that runs: a qp.py edited on disk
# during a run would otherwise shift the lines that the traced code reports
SOLVE_SMO_LINES, SOLVE_SMO_START = inspect.getsourcelines(solve_smo)


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
    assert a.alpha.dtype == b.alpha.dtype and a.alpha.tobytes() == b.alpha.tobytes()
    assert (a.iterations, a.kkt_residual, a.converged, a.upper_active) == (
        b.iterations, b.kkt_residual, b.converged, b.upper_active)


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

    def test_rejects_a_nan_cap(self):
        # it solved to alpha = 0 with converged and upper_active both set
        # wrongly, which the c0 memo reads as valid at every larger cap
        with pytest.raises(QpError, match="positive"):
            solve_smo(BoxQP(I2, Y2, [np.nan, 1.0]), max_iter=10)

    @pytest.mark.parametrize("g, upper, message", [
        (np.eye(3), [1.0, 1.0], r"G shape \(3, 3\) does not match n=2"),
        (I2, [1.0, 1.0, 1.0], "upper bound vector length mismatch"),
    ], ids=["G", "caps"])
    def test_rejects_a_wrong_size(self, g, upper, message):
        with pytest.raises(QpError, match=message):
            BoxQP(g, Y2, upper)

    def test_rejects_an_empty_problem(self):
        # numpy's "zero-size array to reduction operation maximum" escaped
        with pytest.raises(QpError, match="no rows"):
            BoxQP(np.zeros((0, 0)), [], [])

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_rejects_a_non_finite_g(self, bad):
        # a NaN off-diagonal passed the symmetry test and then ran to
        # max_iter, to an objective of nan
        with pytest.raises(QpError, match="non-finite"):
            solve_smo(BoxQP([[1.0, bad], [bad, 1.0]], Y2, [1.0, 1.0]), max_iter=10)


class TestSolveSmo:
    def test_analytic_clipped(self):
        # equality forces a1 = a2 = a; optimum a = 1 clipped to cap 0.5
        sol = solve_smo(BoxQP(I2, Y2, [0.5, 0.5]))
        assert np.allclose(sol.alpha, [0.5, 0.5], atol=1e-12)
        assert sol.converged

    def test_analytic_interior(self):
        p = BoxQP(I2, Y2, [2.0, 2.0])
        sol = solve_smo(p)
        assert np.allclose(sol.alpha, [1.0, 1.0], atol=1e-8)
        assert objective(p, sol.alpha) == pytest.approx(1.0, abs=1e-10)

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
        assert objective(p, smo.alpha) >= objective(p, grid) - 1e-9
        assert np.abs(smo.alpha - grid).max() <= 1e-2
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
        # the residual is that of the returned alpha. A problem solved by its
        # one step converges under a cap of 1; one that needs more steps
        # returns alpha = 0 under a cap of 0 and its first iterate under 1
        problems = [random_small_problem(seed, n=4) for seed in range(20)]
        steps = [solve_smo(p).iterations for p in problems]
        p = problems[steps.index(1)]
        sol = solve_smo(p, max_iter=1)
        assert sol.converged
        assert sol.iterations == 1
        assert sol.kkt_residual == kkt_violation(p, sol.alpha)
        p = problems[next(k for k, s in enumerate(steps) if s > 1)]
        for cap in (0, 1):
            sol = solve_smo(p, max_iter=cap)
            assert not sol.converged
            assert sol.iterations == cap
            assert sol.kkt_residual == pytest.approx(kkt_violation(p, sol.alpha), rel=1e-12)
        assert np.array_equal(solve_smo(p, max_iter=0).alpha, np.zeros(p.n))

    def test_degenerate_zero_curvature(self):
        # G = 0 has zero curvature along every pair; ascent runs to the walls
        g = np.zeros((2, 2))
        sol = solve_smo(BoxQP(g, Y2, [1.0, 0.25]))
        assert np.allclose(sol.alpha, [0.25, 0.25], atol=1e-12)

    def test_an_unbounded_dual_is_an_error(self):
        # infinite caps and zero curvature: the objective grows without end
        with pytest.raises(QpError, match="unbounded"):
            solve_smo(BoxQP(np.zeros((2, 2)), Y2, [np.inf, np.inf]))


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
        alpha = brute_force_small(BoxQP(I2, Y2, [0.5, 0.5]), 201)
        assert np.allclose(alpha, [0.5, 0.5], atol=1e-12)

    def test_zero_g_maximizes_sum(self):
        alpha = brute_force_small(BoxQP(np.zeros((2, 2)), Y2, [1.0, 0.5]), 201)
        assert np.allclose(alpha, [0.5, 0.5], atol=1e-12)

    def test_grid_refinement_monotone(self):
        p = random_small_problem(5, n=3)
        coarse = brute_force_small(p, 101)
        fine = brute_force_small(p, 201)
        assert objective(p, fine) >= objective(p, coarse) - 1e-15

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



@pytest.fixture(scope="module")
def repeat_duals():
    """Every dual that one cv repeat of psc and of cssvm solves on the
    criterion-7 data, and the duals of eight psc fits at n=30, d=20000,
    collected with the reference solving them."""
    captured = []

    def record(problem, tol=DEFAULT_TOL, max_iter=DEFAULT_MAX_ITER):
        captured.append((problem, tol, max_iter))
        return smo_reference(problem, tol, max_iter)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(qp, "solve_smo", record)
        data = simulate_hdlss(2000, 22, 40, seed=1)
        for method in ("psc", "cssvm"):
            cv_run(data, ExperimentConfig(method=method, repeats=1, seed=1))
        for seed in range(8):
            classifier.fit("psc", simulate_hdlss(20000, 20, 10, seed=1000 + seed),
                           classifier.Hyperparams(gamma=0.5, c0=1.0))
    return captured


def assert_near_reference(problem, tol=DEFAULT_TOL, max_iter=DEFAULT_MAX_ITER, alpha_rel=None):
    """The solve meets the reference's stopping rule, its objective is no
    lower than the reference's beyond rounding, and, where alpha_rel is
    given, its alpha is within alpha_rel * max(alpha_ref) of the reference's."""
    ref = smo_reference(problem, tol, max_iter)
    sol = solve_smo(problem, tol, max_iter)
    assert sol.converged and ref.converged
    assert kkt_violation(problem, sol.alpha) <= tol
    ref_objective = objective(problem, ref.alpha)
    assert objective(problem, sol.alpha) >= ref_objective - 1e-12 * abs(ref_objective)
    if alpha_rel is not None:
        assert np.abs(sol.alpha - ref.alpha).max() <= alpha_rel * ref.alpha.max()
    return sol


class TestMatchesReference:
    """solve_smo is an exact method and smo_reference stops at a gap of tol,
    so the two agree within bounds, not bit for bit: the KKT gap at most tol,
    the objective no lower than the reference's less 1e-12 relative, and
    alpha within a bound set 7-9 times above the largest difference
    measured on each family (1.1e-6 and 1.3e-6 of max alpha on the repeat
    and random duals, 1.3e-5 around the caps, where the reference stops
    further from the optimum)."""

    def test_the_duals_of_a_cv_repeat_and_of_wide_fits(self, repeat_duals):
        assert len(repeat_duals) > 100
        for problem, tol, max_iter in repeat_duals:
            assert_near_reference(problem, tol, max_iter, alpha_rel=1e-5)

    @pytest.mark.parametrize("max_iter", [0, 1, 3, 7, DEFAULT_MAX_ITER])
    def test_random_problems_under_every_iteration_cap(self, max_iter):
        for n in range(2, 21):
            for seed in range(5):
                p = random_small_problem(100 * n + seed, n=n)
                if max_iter == DEFAULT_MAX_ITER:
                    assert_near_reference(p, alpha_rel=1e-5)
                    continue
                # a capped solve returns a feasible iterate with its own gap,
                # no better than the uncapped optimum
                sol = solve_smo(p, max_iter=max_iter)
                assert sol.iterations == max_iter or sol.converged
                assert sol.kkt_residual == pytest.approx(kkt_violation(p, sol.alpha), rel=1e-12)
                assert np.all((sol.alpha >= 0.0) & (sol.alpha <= p.upper))
                assert abs(sol.alpha @ p.y) <= 1e-12 * p.upper.sum()
                assert objective(p, sol.alpha) <= objective(p, solve_smo(p).alpha) + 1e-12

    def test_caps_around_the_largest_free_multiplier(self):
        problems = [separable_wide_problem(seed)[0] for seed in range(10)]
        problems += [random_small_problem(seed, n=4) for seed in range(25)]
        for p in problems:
            top = smo_reference(BoxQP(p.G, p.y, np.full(p.n, 1e6))).alpha.max()
            for scale in (0.3, 0.5, 0.8, 1.0, 1.0 + 2.0**-52, 1.0 + 1e-9, 1.2, 1.5):
                assert_near_reference(BoxQP(p.G, p.y, np.full(p.n, scale * top)), alpha_rel=1e-4)

    @pytest.mark.parametrize("problem, unique", [
        (BoxQP(I2, [1.0, 1.0], [1.0, 1.0]), True),  # one class: the working set is empty
        (BoxQP(I2, [-1.0, -1.0], [1.0, 2.0]), True),
        (BoxQP(np.zeros((2, 2)), Y2, [1.0, 0.25]), True),  # zero curvature
        (BoxQP(np.zeros((4, 4)), [1.0, -1.0, -1.0, 1.0], [0.5, 1.0, 0.25, 2.0]), False),
        (BoxQP(I2, Y2, [0.5, 0.5]), True),  # clipped at the caps
        (BoxQP(I2, Y2, [2.0, 2.0]), True),  # interior optimum
    ], ids=["one-class-pos", "one-class-neg", "zero-G", "zero-G-4", "clipped", "interior"])
    def test_edge_cases(self, problem, unique):
        # zero-G-4's optimum is a segment (alpha_0 + alpha_3 = 1.25), so only
        # its objective is held to the reference
        sol = assert_near_reference(problem, alpha_rel=1e-12 if unique else None)
        assert objective(problem, sol.alpha) == pytest.approx(
            objective(problem, smo_reference(problem).alpha), rel=1e-12, abs=0.0)

    def test_rejects_a_nonpositive_tol(self):
        with pytest.raises(QpError, match="tol must be positive"):
            solve_smo(BoxQP(I2, Y2, [1.0, 1.0]), tol=0.0)


def duals_of(fits):
    """The duals that running fits() hands to the solver."""
    captured = []
    real = qp.solve_smo

    def record(problem, tol=DEFAULT_TOL, max_iter=DEFAULT_MAX_ITER):
        captured.append(problem)
        return real(problem, tol, max_iter)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(qp, "solve_smo", record)
        fits()
    return captured


def with_duplicates(data, rows):
    return LabeledMatrix(np.vstack([data.samples, data.samples[rows]]),
                         np.concatenate([data.labels, data.labels[rows]]))


def fig1_fits():
    for n_pos, n_neg in ((5, 65), (12, 65), (32, 65), (65, 65)):
        data = simulate_fig1(n_pos, n_neg, n_pos)
        for method in ("psc", "cssvm"):
            for c0 in (2.0**-5, 1.0, 32.0):
                classifier.fit(method, data, classifier.Hyperparams(c0=c0))


def duplicate_row_fits():
    base = simulate_hdlss(200, 10, 12, 1)
    for rows in ([0, 1, 2, 15, 16], [0, 0, 0, 21]):
        for method in ("psc", "cssvm"):
            classifier.fit(method, with_duplicates(base, rows), classifier.Hyperparams())


def exit_line(condition: str) -> int:
    """The line number of the break that follows the line condition in
    solve_smo."""
    stripped = [line.strip() for line in SOLVE_SMO_LINES]
    k = stripped.index(condition)
    assert stripped[k + 1] == "break"
    return SOLVE_SMO_START + k + 1


def lines_run(fn, *args, **kwargs):
    """fn(*args, **kwargs) and the set of fn's own line numbers it ran.

    A trace function installed before the call, such as a coverage tool's,
    still sees every frame and event of the call: each frame's events go
    to it, and to the local function it returns, as well as to this one.
    """
    ran = set()
    previous = sys.gettrace()

    def tracer(frame, event, arg):
        own = frame.f_code is fn.__code__
        chained = previous(frame, event, arg) if previous is not None else None
        if not own and chained is None:
            return None

        def local(frame, event, arg):
            nonlocal chained
            if own and event == "line":
                ran.add(frame.f_lineno)
            if chained is not None:
                chained = chained(frame, event, arg)
            return local if own or chained is not None else None

        return local

    sys.settrace(tracer)
    try:
        result = fn(*args, **kwargs)
    finally:
        sys.settrace(previous)
    return result, ran


def one_feature_dual(x, y):
    """G = (y y^T) o (X X^T) for one feature column x, with caps of 1."""
    x, y = np.asarray(x, dtype=np.float64), np.asarray(y, dtype=np.float64)
    return BoxQP(np.outer(y, y) * np.outer(x, x), y, np.ones(y.size))


class TestUnconvergedExits:
    """With tol below the Gram's rounding, a face optimum still leaves a
    gap above tol, and the solve stops at one of its two unconverged exits.
    It returns the default-tol solve's alpha and gap, bit for bit."""

    @pytest.mark.parametrize("x, y, condition, steps", [
        ([-2560, 420, -570, -450, -220], [1, -1, -1, 1, 1], "if not excess:", 8),
        ([1400, 50, 500, -1600, -70], [1, -1, 1, 1, 1], "if key in seen:", 7),
    ], ids=["no-bound-row-violates", "a-working-set-repeats"])
    def test_a_tol_below_rounding(self, x, y, condition, steps):
        problem = one_feature_dual(x, y)
        sol, ran = lines_run(solve_smo, problem, tol=1e-12)
        assert exit_line(condition) in ran
        assert not sol.converged and sol.iterations == steps
        assert sol.kkt_residual > 1e-12
        default = solve_smo(problem)
        assert default.converged
        assert sol.alpha.tobytes() == default.alpha.tobytes()
        assert sol.kkt_residual == default.kkt_residual


class TestInexactFaceSteps:
    """The two unconverged exits guard against a face solve that misses its
    face's optimum. A _face_direction that scales the Newton step fires
    each: a short step stops with every row free and none to release, and
    an overshoot blocks rows at their bounds until a working set repeats."""

    @pytest.mark.parametrize("scale, seed, condition", [
        (0.9, 0, "if not excess:"),
        (1.5, 36, "if key in seen:"),
    ], ids=["short-step", "overshoot"])
    def test_a_scaled_newton_step(self, monkeypatch, scale, seed, condition):
        exact = qp._face_direction

        def inexact(*args):
            p, length = exact(*args)
            return scale * p, length

        monkeypatch.setattr(qp, "_face_direction", inexact)
        sol, ran = lines_run(solve_smo, random_small_problem(seed, n=6))
        assert exit_line(condition) in ran
        assert not sol.converged
        assert math.isfinite(sol.kkt_residual) and sol.kkt_residual > DEFAULT_TOL


def binding_cap_fits():
    data = simulate_hdlss(20, 40, 20, 3)
    for method in ("psc", "cssvm"):
        classifier.fit(method, data, classifier.Hyperparams(c0=2.0**-5))


class TestDegenerateDuals:
    """Duals whose faces are singular (more rows than dimensions, equal
    rows, a zero Gram) or whose caps bind: each solve converges, raises
    nothing, and reaches the reference's objective."""

    @pytest.mark.parametrize("fits, count", [
        (fig1_fits, 24), (duplicate_row_fits, 4), (binding_cap_fits, 2),
    ], ids=["fig1", "duplicate-rows", "binding-caps"])
    def test_the_duals_of_degenerate_fits(self, fits, count):
        problems = duals_of(fits)
        assert len(problems) == count
        for problem in problems:
            assert_near_reference(problem)

    def test_binding_caps_bind(self):
        assert all(solve_smo(p).upper_active for p in duals_of(binding_cap_fits))

    @pytest.mark.parametrize("problem", [
        BoxQP(np.zeros((6, 6)), [1.0, -1.0, 1.0, -1.0, -1.0, 1.0], [0.5, 1.0, 0.25, 2.0, 1.0, 1.0]),
        BoxQP(np.zeros((3, 3)), [1.0, 1.0, 1.0], [1.0, 2.0, 3.0]),
        BoxQP(np.ones((3, 3)), [-1.0, -1.0, -1.0], [1.0, 2.0, 3.0]),
    ], ids=["zero-G", "zero-G-one-class", "one-class"])
    def test_a_zero_gram_and_one_class(self, problem):
        assert_near_reference(problem)
