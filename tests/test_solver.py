import dataclasses

import numpy as np
import pytest

import hankelpath as hp

from conftest import FIXTURE_BANDS, FIXTURE_K_MAX
from oracles import plain_admm, simplex_sort_loop, solve_k3_oracle, theta_scan_simplex

#: Nuclear-norm slack allowed on a converged solution.
FEAS_SLACK = 1e-6


class TestProjectSimplexL1:
    def test_already_inside(self):
        np.testing.assert_array_equal(
            hp.project_simplex_l1(np.array([0.5, 0.2]), 1.0), [0.5, 0.2]
        )

    def test_threshold_one(self):
        np.testing.assert_allclose(
            hp.project_simplex_l1(np.array([2.0, 0.0]), 1.0), [1.0, 0.0], atol=1e-14
        )

    def test_zeroing_entry(self):
        np.testing.assert_allclose(
            hp.project_simplex_l1(np.array([3.0, 1.0]), 2.0), [2.0, 0.0], atol=1e-14
        )

    def test_against_theta_scan(self):
        rng = np.random.RandomState(10)
        for _ in range(20):
            s = np.abs(rng.randn(rng.randint(1, 8)))
            radius = rng.uniform(0.1, 1.5)
            got = hp.project_simplex_l1(s, radius)
            ref = theta_scan_simplex(s, radius)
            np.testing.assert_allclose(got, ref, atol=5e-6)
            if s.sum() > radius:
                assert abs(got.sum() - radius) < 1e-12
            assert np.all(got >= 0)

    def test_against_sort_loop_with_ties_and_zeros(self):
        rng = np.random.RandomState(15)
        for _ in range(200):
            n = rng.randint(1, 40)
            s = np.abs(rng.randn(n)) * rng.uniform(0.01, 10)
            s[rng.rand(n) < 0.2] = 0.0
            if rng.rand() < 0.5:
                s = np.round(s, 1)  # ties
            radius = rng.uniform(0.1, 3.0)
            np.testing.assert_allclose(
                hp.project_simplex_l1(s, radius), simplex_sort_loop(s, radius), rtol=0, atol=1e-12
            )

    def test_rejects_negative_entries(self):
        with pytest.raises(ValueError):
            hp.project_simplex_l1(np.array([-0.1, 0.5]), 1.0)

    def test_rejects_nonpositive_radius(self):
        with pytest.raises(ValueError):
            hp.project_simplex_l1(np.array([0.5]), 0.0)


def _svd_projection(M, radius):
    """Reference nuclear-ball projection through the SVD."""
    U, S, Vh = np.linalg.svd(M)
    if S.sum() <= radius:
        return M
    return (U * hp.project_simplex_l1(S, radius)) @ Vh


def _symmetric(rng, eigenvalues):
    """Bit-symmetric matrix with the given spectrum and a random eigenbasis."""
    n = len(eigenvalues)
    Q, _ = np.linalg.qr(rng.randn(n, n))
    M = (Q * np.asarray(eigenvalues, dtype=float)) @ Q.T
    return 0.5 * (M + M.T)


def _symmetric_cases(seed):
    """Indefinite, rank-deficient, repeated-eigenvalue and inside-the-ball
    symmetric matrices."""
    rng = np.random.RandomState(seed)
    cases = []
    for _ in range(20):
        n = rng.randint(2, 9)
        scale = rng.uniform(0.5, 5.0)
        indefinite = rng.randn(n) * scale
        deficient = indefinite.copy()
        deficient[rng.choice(n, size=n // 2, replace=False)] = 0.0
        repeated = np.repeat(rng.uniform(-1.0, 1.0, size=2) * scale, [n - n // 2, n // 2])
        inside = rng.randn(n)
        inside *= rng.uniform(0.1, 0.9) / np.abs(inside).sum()
        cases += [_symmetric(rng, lam) for lam in (indefinite, deficient, repeated, inside)]
    return cases


class TestProjectNuclearBall:
    def test_inside_unchanged(self):
        M = np.diag([0.4, 0.3])
        np.testing.assert_allclose(hp.project_nuclear_ball(M, 1.0), M, atol=1e-12)

    def test_single_direction(self):
        np.testing.assert_allclose(
            hp.project_nuclear_ball(np.diag([2.0, 0.0]), 1.0), np.diag([1.0, 0.0]), atol=1e-12
        )

    def test_uniform_shrink(self):
        np.testing.assert_allclose(
            hp.project_nuclear_ball(np.diag([2.0, 2.0]), 2.0), np.diag([1.0, 1.0]), atol=1e-12
        )

    def test_idempotent(self):
        rng = np.random.RandomState(11)
        for _ in range(50):
            n = rng.randint(1, 7)
            M = rng.randn(n, n) * rng.uniform(0.1, 5)
            P1 = hp.project_nuclear_ball(M, 1.0)
            P2 = hp.project_nuclear_ball(P1, 1.0)
            assert np.linalg.norm(P2 - P1) <= 1e-12
        for M in _symmetric_cases(24):
            P1 = hp.project_nuclear_ball(M, 1.0)
            assert np.linalg.norm(hp.project_nuclear_ball(P1, 1.0) - P1) <= 1e-12

    def test_non_expansive(self):
        rng = np.random.RandomState(12)
        for _ in range(100):
            n = rng.randint(1, 7)
            A = rng.randn(n, n) * rng.uniform(0.1, 4)
            B = rng.randn(n, n) * rng.uniform(0.1, 4)
            dist = np.linalg.norm(
                hp.project_nuclear_ball(A, 1.0) - hp.project_nuclear_ball(B, 1.0)
            )
            assert dist <= np.linalg.norm(A - B) + 1e-10
        cases = _symmetric_cases(25)
        for A, B in zip(cases, cases[1:]):
            if A.shape == B.shape:
                dist = np.linalg.norm(
                    hp.project_nuclear_ball(A, 1.0) - hp.project_nuclear_ball(B, 1.0)
                )
                assert dist <= np.linalg.norm(A - B) + 1e-10


class TestSymmetricProjection:
    def test_cases_are_symmetric_and_mostly_outside(self):
        cases = _symmetric_cases(20)
        assert all(np.array_equal(M, M.T) for M in cases)
        outside = sum(np.linalg.norm(M, "nuc") > 1.0 for M in cases)
        assert 40 <= outside < len(cases)

    def test_matches_svd_projection(self):
        for M in _symmetric_cases(21):
            P = hp.project_nuclear_ball(M, 1.0)
            assert np.max(np.abs(P - _svd_projection(M, 1.0))) <= 1e-12

    def test_inside_returned_unchanged(self):
        for M in _symmetric_cases(22):
            if np.linalg.norm(M, "nuc") < 1.0 - 1e-12:
                assert np.array_equal(hp.project_nuclear_ball(M, 1.0), M)

    def test_output_bit_symmetric(self):
        for M in _symmetric_cases(23):
            P = hp.project_nuclear_ball(M, 1.0)
            assert np.array_equal(P, P.T)
            assert np.linalg.norm(P, "nuc") <= 1.0 + 1e-12


class TestSolveConstrained:
    def test_rejects_nonpositive_t(self):
        with pytest.raises(ValueError):
            hp.solve_constrained([1.0, 0.5, 0.25], 0.0)
        with pytest.raises(ValueError):
            hp.solve_constrained([1.0, 0.5, 0.25], -1.0)

    def test_perfect_fit_beyond_t_max(self):
        g_o = hp.ImpulseResponse(np.array([1.0, 0.5, 0.25]))
        t_max = hp.compute_t_max(g_o)  # 1.25
        for t in (t_max, 2.0, 10.0):
            res = hp.solve_constrained(g_o, t)
            assert res.converged and res.iterations == 0
            np.testing.assert_allclose(res.g_tilde.values, g_o.values / t, rtol=1e-15)
            assert res.objective <= 1e-28

    def test_t_max_takes_closed_form_branch(self, rank1_impulse, order100_spec):
        # t_max and the solver's feasibility test sum the same singular values,
        # so at t = t_max the unconstrained optimum is taken with no iteration
        cases = [rank1_impulse, hp.impulse_response(order100_spec, 51)]
        cases += [
            hp.impulse_response(hp.random_system(6, seed, bands=FIXTURE_BANDS), FIXTURE_K_MAX)
            for seed in range(20)
        ]
        for g_o in cases:
            res = hp.solve_constrained(g_o, hp.compute_t_max(g_o))
            assert res.iterations == 0 and res.admm_state is None

    def test_scalar_clamp(self):
        tight = hp.SolverOptions(primal_tol=1e-13, dual_tol=1e-13, max_iters=20000)
        res = hp.solve_constrained([2.0], 1.0, tight)
        assert abs(res.g_tilde.values[0] - 1.0) < 1e-10
        assert abs(res.objective - 1.0) < 1e-9
        # defaults land within their own (looser) tolerance regime
        loose = hp.solve_constrained([2.0], 1.0)
        assert abs(loose.g_tilde.values[0] - 1.0) < 1e-7

    def test_scalar_clamp_random(self):
        rng = np.random.RandomState(13)
        opts = hp.SolverOptions(primal_tol=1e-13, dual_tol=1e-13, max_iters=20000)
        for _ in range(50):
            g = rng.uniform(-3, 3)
            t = rng.uniform(0.05, 3.0)
            res = hp.solve_constrained([g], t, opts)
            exact = np.clip(g / t, -1.0, 1.0)
            assert abs(res.g_tilde.values[0] - exact) < 1e-10

    def test_k3_matches_independent_oracle(self):
        rng = np.random.RandomState(14)
        cases = [(np.array([1.0, 0.5, 0.25]), 0.5)]
        cases += [(rng.randn(3), rng.uniform(0.1, 2.0)) for _ in range(5)]
        for g_o, t in cases:
            res = hp.solve_constrained(g_o, t)
            _, obj_ref = solve_k3_oracle(g_o, t)
            assert res.objective <= obj_ref * (1 + 1e-4) + 1e-12
            assert obj_ref <= res.objective * (1 + 1e-4) + 1e-12

    def test_feasibility_and_recompute(self, sixth_order_impulse):
        g_o = sixth_order_impulse
        t_max = hp.compute_t_max(g_o)
        for t in np.linspace(0.05, 1.0, 8) * t_max:
            res = hp.solve_constrained(g_o, t)
            assert res.converged
            assert res.nuclear_norm_value <= 1.0 + FEAS_SLACK
            recomputed = float(np.sum((res.t * res.g_tilde.values - g_o.values) ** 2))
            assert abs(recomputed - res.objective) <= 1e-12 * max(1.0, res.objective)

    def test_inactive_constraint_returns_scaled_data(self, rank1_impulse):
        g_o = rank1_impulse
        t = 2.0 * hp.compute_t_max(g_o)
        res = hp.solve_constrained(g_o, t)
        np.testing.assert_allclose(res.g_tilde.values, g_o.values / t, rtol=1e-12)
        assert res.objective <= 1e-10 * g_o.norm() ** 2

    def test_objective_monotone_in_t(self, sixth_order_impulse):
        g_o = sixth_order_impulse
        t_max = hp.compute_t_max(g_o)
        objs = [
            hp.solve_constrained(g_o, t).objective
            for t in np.linspace(0.1, 1.0, 6) * t_max
        ]
        assert all(a >= b - 1e-9 for a, b in zip(objs, objs[1:]))

    def test_residual_parallel_to_certificate(self, sixth_order_impulse):
        g_o = sixth_order_impulse
        t_max = hp.compute_t_max(g_o)
        for t in (0.2 * t_max, 0.5 * t_max, 0.8 * t_max):
            res = hp.solve_constrained(g_o, t)
            if res.nuclear_norm_value < 1.0 - 1e-6:
                continue
            cert = hp.subgradient_vector(res.g_tilde, t, g_o=g_o)
            r = t * res.g_tilde.values - g_o.values
            if np.linalg.norm(r) <= 1e-8 * g_o.norm():
                continue
            cosine = abs(np.dot(r, cert.h)) / (np.linalg.norm(r) * np.linalg.norm(cert.h))
            assert 1.0 - cosine <= 1e-4

    def test_non_convergence_is_flagged_not_raised(self, sixth_order_impulse):
        opts = hp.SolverOptions(max_iters=2)
        res = hp.solve_constrained(sixth_order_impulse, 0.1, opts)
        assert not res.converged
        assert res.iterations == 2
        assert max(res.primal_residual, res.dual_residual) > 0

    def test_deterministic(self, sixth_order_impulse):
        a = hp.solve_constrained(sixth_order_impulse, 0.3)
        b = hp.solve_constrained(sixth_order_impulse, 0.3)
        assert np.array_equal(a.g_tilde.values, b.g_tilde.values)
        assert a.objective == b.objective and a.iterations == b.iterations


class TestSolverOptions:
    def test_validation(self):
        for bad in (
            dict(rho=0.0),
            dict(max_iters=0),
            dict(max_iters=2.5),
            dict(max_iters=np.inf),
            dict(primal_tol=-1.0),
            dict(rho=np.nan),
            dict(rho=np.inf),
            dict(primal_tol=np.nan),
            dict(dual_tol=np.inf),
            dict(rank_tol=np.nan),
            dict(rank_tol=1.0),
        ):
            with pytest.raises(ValueError):
                hp.SolverOptions(**bad)

    def test_frozen(self):
        opts = hp.SolverOptions()
        with pytest.raises(dataclasses.FrozenInstanceError):
            opts.rho = 2.0


class TestWarmStart:
    def test_reaches_cold_solution(self, sixth_order_impulse):
        g_o = sixth_order_impulse
        t_max = hp.compute_t_max(g_o)
        budget = 1e-6 * (1 + g_o.norm() ** 2)
        for t_from, t_to in ((0.3, 0.35), (0.2, 0.6), (0.5, 0.45)):
            start = hp.solve_constrained(g_o, t_from * t_max)
            warm = hp.solve_constrained(g_o, t_to * t_max, warm_start=start.admm_state)
            cold = hp.solve_constrained(g_o, t_to * t_max)
            assert warm.converged and cold.converged
            assert np.linalg.norm(warm.g_tilde.values - cold.g_tilde.values) <= 1e-6
            assert abs(warm.objective - cold.objective) <= budget

    def test_state_is_bit_symmetric_and_start_untouched(self, sixth_order_impulse):
        g_o = sixth_order_impulse
        t_max = hp.compute_t_max(g_o)
        start = hp.solve_constrained(g_o, 0.3 * t_max)
        X, U, rho = start.admm_state
        assert np.array_equal(X, X.T) and np.array_equal(U, U.T) and rho > 0
        before = (X.copy(), U.copy())
        hp.solve_constrained(g_o, 0.4 * t_max, warm_start=start.admm_state)
        assert np.array_equal(X, before[0]) and np.array_equal(U, before[1])

    def test_closed_form_branch_has_no_state(self, rank1_impulse):
        res = hp.solve_constrained(rank1_impulse, 2.0 * hp.compute_t_max(rank1_impulse))
        assert res.admm_state is None

    def test_wrong_shape_rejected(self, sixth_order_impulse):
        n = sixth_order_impulse.n
        good = np.zeros((n, n))
        for start in (
            (np.zeros((3, 3)), good, 1.0),
            (good, np.zeros((n, n + 1)), 1.0),
            (good.ravel(), good, 1.0),
        ):
            with pytest.raises(ValueError):
                hp.solve_constrained(sixth_order_impulse, 0.1, warm_start=start)
        with pytest.raises(ValueError):
            hp.solve_constrained(sixth_order_impulse, 0.1, warm_start=(good, good, 0.0))

    def test_path_solves_start_from_previous_breakpoint(self, sixth_order_impulse, sixth_order_path):
        pr = sixth_order_path
        assert pr.m == 5
        first, second = pr.exact_solutions[:2]
        again = hp.solve_constrained(
            sixth_order_impulse, pr.breakpoints[1], warm_start=first.admm_state
        )
        assert np.array_equal(again.g_tilde.values, second.g_tilde.values)
        assert again.iterations == second.iterations

    def test_rank1_path_solve_count(self, rank1_impulse):
        assert hp.compute_path(rank1_impulse, eps=1e-4).m == 44


def _stopping_threshold(g_o, t):
    """The residual threshold solve_constrained stops on at default options
    (primal and dual alike)."""
    norm_go = np.linalg.norm(g_o.values)
    floor = 4e-15 * g_o.n * (1 + norm_go)
    return max(1e-9 * (1 + norm_go) * g_o.n * min(1.0, 2.0 * t * t), floor)


class TestAndersonAcceleration:
    FRACTIONS = (0.1, 0.3, 0.6, 0.9)

    @pytest.fixture(params=["sixth_order_impulse", "rank1_impulse"])
    def g_o(self, request):
        return request.getfixturevalue(request.param)

    def test_matches_plain_admm(self, g_o):
        budget = 1e-6 * (1 + g_o.norm() ** 2)  # acceptance criterion 3
        t_max = hp.compute_t_max(g_o)
        accelerated = plain = 0
        for frac in self.FRACTIONS:
            t = frac * t_max
            res = hp.solve_constrained(g_o, t)
            g_ref, obj_ref, ref_iters, ref_converged = plain_admm(g_o, t)
            assert res.converged and ref_converged
            assert np.linalg.norm(res.g_tilde.values - g_ref) <= 1e-6
            assert abs(res.objective - obj_ref) <= budget
            accelerated += res.iterations
            plain += ref_iters
        assert accelerated < plain

    def test_residuals_meet_stopping_thresholds(self, g_o):
        t_max = hp.compute_t_max(g_o)
        for frac in self.FRACTIONS:
            t = frac * t_max
            res = hp.solve_constrained(g_o, t)
            threshold = _stopping_threshold(g_o, t)
            assert res.converged
            assert 0.0 <= res.primal_residual <= threshold
            assert 0.0 <= res.dual_residual <= threshold

    def test_rank1_small_t_within_default_budget(self, rank1_impulse):
        # this solve ran out of the default budget under over-relaxation
        assert hp.solve_constrained(rank1_impulse, 4.3e-5).converged

    @pytest.mark.parametrize("rho", [1e-6, 1e6])
    def test_cold_solves_from_extreme_rho(self, sixth_order_impulse, rho):
        # residual balancing moves rho many times here, and each move restarts
        # the acceleration history
        g_o = sixth_order_impulse
        t_max = hp.compute_t_max(g_o)
        for frac in self.FRACTIONS:
            res = hp.solve_constrained(g_o, frac * t_max, hp.SolverOptions(rho=rho))
            ref = hp.solve_constrained(g_o, frac * t_max)
            assert res.converged
            assert res.admm_state[2] != rho
            assert np.linalg.norm(res.g_tilde.values - ref.g_tilde.values) <= 1e-6

    def test_wide_held_out_solve_within_default_budget(self, wide_held_out_impulse):
        # a held-out breakpoint that needs most of the default budget: with
        # rho steps of 2 or 1/2 the Anderson history is dropped too often
        # for the solve to converge in 5,000 iterations
        res = hp.solve_constrained(wide_held_out_impulse, 63.47)
        assert res.converged

    def test_order100_path_iteration_total(self, order100_path):
        _, path = order100_path
        assert path.m == 10
        assert sum(r.iterations for r in path.exact_solutions) <= 3000


class TestResidualBalancing:
    def test_zero_dual_residual_scales_rho_by_the_cap(self):
        # scalar H(g): once X sits on the ball's boundary X_new == X exactly,
        # so balancing fires with r_dual == 0 and multiplies rho by 10
        res = hp.solve_constrained([2.0], 1.0)
        assert res.converged and res.dual_residual == 0.0
        assert res.admm_state[2] == 1e4
        np.testing.assert_allclose(res.g_tilde.values, [1.0], atol=1e-8)

    def test_rho_capped_at_upper_bound(self):
        # one step of 10 from 3e7 would overshoot 1e8
        cold = hp.solve_constrained([2.0], 1.0)
        X, U, _ = cold.admm_state
        res = hp.solve_constrained([2.0], 1.0, warm_start=(X, U, 3e7))
        assert res.converged
        assert res.admm_state[2] == 1e8
