import dataclasses
import functools
import math
import sys
import warnings

import numpy as np
import pytest

import hankelpath as hp
from hankelpath import cli

from conftest import FIXTURE_BANDS, FIXTURE_K_MAX, ORDER100_BANDS, path_solves
from oracles import (
    plain_admm,
    project_nuclear_ball_eigh,
    project_nuclear_ball_frozen,
    simplex_cumsum_frozen,
    simplex_scan_frozen,
    simplex_sort_loop,
    solve_constrained_cadence_frozen,
    solve_k3_oracle,
    theta_scan_simplex,
)

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
        # NaN and inf are rejected like negative entries, not by an IndexError
        for s in ([-0.1, 0.5], [1.0, np.nan, 2.0], [1.0, np.inf], [np.nan, np.nan]):
            with pytest.raises(ValueError):
                hp.project_simplex_l1(np.array(s), 1.0)

    def test_rejects_nonpositive_radius(self):
        with pytest.raises(ValueError):
            hp.project_simplex_l1(np.array([0.5]), 0.0)

    @pytest.mark.parametrize("radius", [np.nan, 0.0, -1.0])
    def test_rejects_nan_zero_and_negative_radius(self, radius):
        # a NaN radius used to reach flatnonzero(...)[-1] and raise IndexError
        for s in ([0.5], [3.0, 1.0, 2.0], []):
            with pytest.raises(ValueError):
                hp.project_simplex_l1(np.array(s), radius)

    def test_infinite_radius_returns_input(self):
        s = np.array([3.0, 0.0, 1e300])
        assert hp.project_simplex_l1(s, np.inf) is s

    def test_matches_cumsum_kernel_bit_for_bit(self):
        # random, tied, zero-laden and single-entry inputs, radii on both
        # sides of the sum: the scan reproduces the cumsum/flatnonzero kernel
        rng = np.random.RandomState(16)
        for trial in range(400):
            n = 1 if trial % 10 == 0 else rng.randint(2, 201)
            s = np.abs(rng.randn(n)) * 10.0 ** rng.uniform(-3, 3)
            if trial % 4 == 1:
                s = np.round(s, 1)  # ties
            elif trial % 4 == 2:
                s[rng.rand(n) < 0.6] = 0.0
            elif trial % 4 == 3:
                s = np.repeat(s[:3], n)[:n]  # long runs of equal entries
            radius = s.sum() * rng.uniform(0.001, 1.2) if s.any() else 1.0
            got = hp.project_simplex_l1(s, radius)
            ref = simplex_cumsum_frozen(s, radius)
            assert got.dtype == ref.dtype and np.array_equal(got, ref), (trial, n, radius)

    def test_property_matches_full_scan_bit_for_bit(self):
        # the scan stops at the first entry that drops out, where the full
        # scan went on to the end: runs of tied and near-tied entries (a few
        # ulps apart), zeros, scales and radii on both sides of the sum
        hypothesis = pytest.importorskip("hypothesis")
        st = hypothesis.strategies

        @hypothesis.settings(derandomize=True, max_examples=1000, deadline=None)
        @hypothesis.given(
            runs=st.lists(
                st.tuples(st.floats(0.0, 1.0), st.integers(1, 5), st.integers(-3, 3)),
                min_size=1,
                max_size=40,
            ),
            log_scale=st.floats(-6.0, 6.0),
            frac=st.floats(1e-6, 1.2),
        )
        def check(runs, log_scale, frac):
            s = np.array([v + i * ulps * np.spacing(v) for v, count, ulps in runs
                          for i in range(count)])
            s = np.maximum(s, 0.0) * 10.0**log_scale
            radius = frac * s.sum()
            if not radius > 0:
                radius = 1.0
            got = hp.project_simplex_l1(s, radius)
            ref = simplex_scan_frozen(s, radius)
            assert np.array_equal(got, ref)

        check()

    def test_largest_entry_stays_in_support_under_rounding(self):
        # d[0] - radius rounds to d[0]: no entry is strictly above its
        # candidate, and the threshold is the largest entry's own candidate
        s = np.array([1e20, 1e20])
        np.testing.assert_array_equal(hp.project_simplex_l1(s, 1.0), [0.0, 0.0])


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

    @pytest.mark.parametrize("n", [1, 2, 5, 16, 26, 41])
    def test_matches_eigh_reference(self, n):
        rng = np.random.RandomState(300 + n)
        for nuc in (0.3, 0.9, 1.5, 4.0, 40.0):
            lam = rng.randn(n)
            for sign in (1.0, -1.0):
                # one sign of a definite spectrum, then an indefinite one
                for spectrum in (sign * np.abs(lam), sign * lam):
                    M = _symmetric(rng, spectrum * nuc / np.abs(spectrum).sum())
                    P = hp.project_nuclear_ball(M, 1.0)
                    ref = project_nuclear_ball_eigh(M, 1.0)
                    assert np.array_equal(P, ref)

    @pytest.mark.parametrize("n", [1, 2, 16, 26, 41, 100, 200])
    def test_matches_frozen_kernel_bit_for_bit(self, n):
        # random, repeated-eigenvalue and rank-deficient spectra: the
        # simplex scan leaves every bit of the projection as the cumsum
        # simplex had it
        rng = np.random.RandomState(700 + n)
        lam = rng.randn(n)
        tied = np.round(lam, 1)
        deficient = lam * (rng.rand(n) < 0.3)
        for spectrum in (lam, tied, deficient):
            if not spectrum.any():
                continue
            for nuc in (0.5, 1.5, 40.0):
                M = _symmetric(rng, spectrum * nuc / np.abs(spectrum).sum())
                assert np.array_equal(
                    hp.project_nuclear_ball(M, 1.0), project_nuclear_ball_frozen(M, 1.0)
                )

    @pytest.mark.parametrize("radius", [np.nan, 0.0, -1.0])
    def test_rejects_nan_zero_and_negative_radius(self, radius):
        rng = np.random.RandomState(32)
        for M in (_symmetric(rng, rng.randn(4)), rng.randn(3, 3)):
            with pytest.raises(ValueError):
                hp.project_nuclear_ball(M, radius)

    def test_infinite_radius_returns_input(self):
        rng = np.random.RandomState(33)
        for M in (_symmetric(rng, 10.0 * rng.randn(5)), rng.randn(3, 3)):
            assert np.array_equal(hp.project_nuclear_ball(M, np.inf), M)

    @pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
    def test_non_finite_input_raises(self, bad):
        # a symmetric and a non-symmetric input are both rejected before
        # their decomposition: the eigendecomposition gufunc would return
        # NaNs with a RuntimeWarning, and the SVD can loop forever on inf
        rng = np.random.RandomState(31)
        for n in (1, 3, 8, 26):
            for _ in range(5):
                M = _symmetric(rng, rng.randn(n))
                i, j = rng.randint(n, size=2)
                M[i, j] = M[j, i] = bad
                with pytest.raises(np.linalg.LinAlgError):
                    hp.project_nuclear_ball(M, 1.0)
                M = rng.randn(n, n)
                M[i, j] = bad
                with pytest.raises(np.linalg.LinAlgError):
                    hp.project_nuclear_ball(M, 1.0)


class TestSolveConstrained:
    def test_nuclear_norm_is_the_sum_of_the_spectrum(self):
        # closed-form solves of fixture systems 0-119 at and above t_max; the
        # stored value, sigma(H(g_o)) summed and divided by t, missed the sum
        # of the solve's own spectrum in the last digits in 149 of them
        for seed in range(120):
            g_o = hp.impulse_response(hp.random_system(6, seed, bands=FIXTURE_BANDS), FIXTURE_K_MAX)
            t_max = hp.compute_t_max(g_o)
            for t in (t_max, 1.5 * t_max, 3.0 * t_max):
                res = hp.solve_constrained(g_o, t)
                assert res.iterations == 0
                assert res.nuclear_norm_value == float(res.singular_values.sum())
        with pytest.raises(TypeError):
            dataclasses.replace(res, nuclear_norm_value=1.0)

    def test_rejects_nonpositive_t(self):
        with pytest.raises(ValueError):
            hp.solve_constrained([1.0, 0.5, 0.25], 0.0)
        with pytest.raises(ValueError):
            hp.solve_constrained([1.0, 0.5, 0.25], -1.0)

    @pytest.mark.parametrize("scale", [1e-154, 1e-200, 1e-300, 1e-310])
    def test_tiny_t_rejected_before_any_arithmetic(self, sixth_order_impulse, scale):
        # the fit curvature 2 t^2 / ||g_o||^2, or 1e-8 times it, is not a
        # normal float, and the solve refuses t before the cold start's
        # H(g_o / t) can overflow
        g_o = sixth_order_impulse
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="normal float"):
                hp.solve_constrained(g_o, scale * g_o.norm())

    def test_small_t_above_the_floor_still_solves(self, sixth_order_impulse):
        g_o = sixth_order_impulse
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            res = hp.solve_constrained(g_o, 1e-8 * g_o.norm())
            assert res.converged and res.iterations == 41
            # the smallest t whose rho floor is normal starts without warning
            t = math.sqrt(sys.float_info.min / 2e-8) * g_o.norm() * (1 + 1e-12)
            assert hp.solve_constrained(g_o, t, hp.SolverOptions(max_iters=20)).iterations == 20

    @pytest.mark.parametrize("scale", [1e-170, 1e160])
    def test_data_norm_outside_float_range_rejected(self, scale):
        # the loop divides by ||g_o||^2, which is 0 or inf here
        g_o = scale * np.array([1.0, 0.5, 0.25])
        with pytest.raises(ValueError, match="positive finite"):
            hp.solve_constrained(g_o, 0.1 * scale)

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
            cert = hp.subgradient_vector(res.g_tilde, t, g_o=g_o, h=res.dual_direction)
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
            dict(max_iters=0),
            dict(max_iters=2.5),
            dict(max_iters=True),
            dict(max_iters=np.inf),
            dict(primal_tol=-1.0),
            dict(primal_tol=np.nan),
            dict(dual_tol=np.inf),
            dict(primal_tol=None),
            dict(dual_tol=None),
            dict(primal_tol="1e-3"),
            dict(dual_tol=[1e-9]),
            dict(primal_tol=True),
            dict(dual_tol=10**400),
        ):
            with pytest.raises(ValueError):
                hp.SolverOptions(**bad)
        assert hp.SolverOptions().primal_tol == hp.SolverOptions().dual_tol == 2e-9
        # the starting penalty is no option: a cold start begins at the fit
        # curvature, and warm_start carries the penalty of an earlier solve
        with pytest.raises(TypeError):
            hp.SolverOptions(rho=1.0)

    def test_frozen(self):
        opts = hp.SolverOptions()
        with pytest.raises(dataclasses.FrozenInstanceError):
            opts.max_iters = 2


def _stop_test_lower_bound(g_o, t, res):
    """The lower bound every loop exit prices the returned state with, as a
    stop_above check does: dual_bounds' lower bound with the free dual norm
    in place of ||U_dual||_2; the bit-symmetric U_dual is its own symmetric
    part, so its adjoint prices h."""
    X, U_dual, _ = res.admm_state
    nu = hp.solver._dual_norm(X, U_dual)
    return hp.certificates._half_space_bound(g_o.values, t, hp.hankel.adjoint_fast(U_dual) / nu)


def _assert_loop_exit_arrays(res):
    """A loop exit returns its spectrum as one read-only contiguous array
    whose sum is nuclear_norm_value, and its splitting state read-only."""
    sv = res.singular_values
    assert not sv.flags.writeable and sv.flags.c_contiguous
    assert res.nuclear_norm_value == float(sv.sum())
    assert not any(a.flags.writeable for a in res.admm_state[:2])


class TestStopInside:
    """stop_above: a solve stops inside [stop_above, inf), at its first
    state whose certified lower bound clears stop_above."""

    def test_certified_exit_encloses_and_stops_early(self, sixth_order_impulse):
        g_o = sixth_order_impulse
        t = 0.5 * hp.compute_t_max(g_o)
        full = hp.solve_constrained(g_o, t)
        slack = 1e-6 * (1 + g_o.norm() ** 2)
        lo = full.objective - 100 * slack
        early = hp.solve_constrained(g_o, t, stop_above=lo)
        assert early.converged
        assert early.iterations < full.iterations
        assert lo <= early.bounds[0] <= early.bounds[1]
        # the residual test did not pass, so only the bounds vouch for the iterate
        assert early.primal_residual > 0 or early.dual_residual > 0

    def test_interval_without_the_optimum_runs_to_the_residual_test(self, sixth_order_impulse):
        # a lower target above the optimum is never reached: the solve runs
        # exactly as without one
        g_o = sixth_order_impulse
        t = 0.5 * hp.compute_t_max(g_o)
        plain = hp.solve_constrained(g_o, t)
        f = plain.objective
        checked = hp.solve_constrained(g_o, t, stop_above=f + 1.0)
        assert checked.converged
        assert checked.iterations == plain.iterations
        assert np.array_equal(checked.g_tilde.values, plain.g_tilde.values)
        assert checked.bounds == plain.bounds

    @pytest.mark.parametrize("early", [True, False], ids=["early-exit", "full-solve"])
    def test_bounds_equal_dual_bounds_of_returned_state(self, sixth_order_impulse, early):
        # a full solve prices its state as an early exit does: the upper
        # bound is dual_bounds' own, recomputed from what the solve returns,
        # and the lower bound takes the free dual norm of that state, at
        # most a rounding allowance below dual_bounds' lower bound
        g_o = sixth_order_impulse
        for frac in (0.1, 0.5, 0.9):
            t = frac * hp.compute_t_max(g_o)
            full = hp.solve_constrained(g_o, t)
            res = full
            if early:
                slack = 1e-6 * (1 + g_o.norm() ** 2)
                res = hp.solve_constrained(g_o, t, stop_above=full.objective - 100 * slack)
                assert res.converged and res.iterations < full.iterations
            U_dual = res.admm_state[1]
            lower, upper = hp.dual_bounds(g_o.values, t, res.g_tilde.values, U_dual)
            assert res.bounds == (_stop_test_lower_bound(g_o, t, res), upper)
            assert lower - 1e-12 * (1 + g_o.norm() ** 2) <= res.bounds[0] <= lower
            assert res.nuclear_norm_value == float(hp.hankel_singular_values(res.g_tilde).sum())
            _assert_loop_exit_arrays(res)

    def test_budget_exit_and_closed_form_price_by_the_same_rule(self, sixth_order_impulse):
        # a solve that runs out of budget, with or without a lower target it
        # never reaches, prices its state as every other loop exit; the
        # closed form reports (0, objective), which is dual_bounds' value
        g_o = sixth_order_impulse
        t = 0.5 * hp.compute_t_max(g_o)
        f = hp.solve_constrained(g_o, t).objective
        for iters in (1, 2, 3, 7):
            for lo in (None, f):
                res = hp.solve_constrained(g_o, t, hp.SolverOptions(max_iters=iters),
                                           stop_above=lo)
                assert not res.converged and res.iterations == iters
                upper = hp.dual_bounds(g_o.values, t, res.g_tilde.values)[1]
                assert res.bounds == (_stop_test_lower_bound(g_o, t, res), upper)
                _assert_loop_exit_arrays(res)
        t = 2.0 * hp.compute_t_max(g_o)
        closed = hp.solve_constrained(g_o, t)
        assert closed.iterations == 0
        assert closed.bounds == (0.0, closed.objective)
        assert closed.bounds == hp.dual_bounds(g_o.values, t, closed.g_tilde.values)
        sv = closed.singular_values
        assert not sv.flags.writeable and sv.flags.c_contiguous
        assert closed.admm_state is None

    def test_each_state_is_priced_once(self, sixth_order_impulse, monkeypatch):
        # the stop test and the exit share one pricing: a state the stop test
        # took through to its spectrum is not decomposed again at the exit
        g_o = sixth_order_impulse
        t_max = hp.compute_t_max(g_o)
        real = hp.solver.symmetric_singular_values
        calls = []

        def counting(A):
            calls.append(1)
            return real(A)

        monkeypatch.setattr(hp.solver, "symmetric_singular_values", counting)

        def count(t, max_iters=5000, stop_above=None):
            calls.clear()
            res = hp.solve_constrained(g_o, t, hp.SolverOptions(max_iters=max_iters),
                                       stop_above=stop_above)
            return res, len(calls)

        # every lower bound clears 0: the first state is priced in full, by
        # the stop test alone, and returned
        res, n = count(0.5 * t_max, 3, 0.0)
        assert res.converged and res.iterations == 1 and n == 1
        res, n = count(0.5 * t_max)
        assert res.converged and res.iterations > 3 and n == 1
        res, n = count(0.5 * t_max, 3)
        assert not res.converged and n == 1
        res, n = count(2.0 * t_max)
        assert res.iterations == 0 and n == 0

    def test_exit_on_a_skipped_plain_step(self, sixth_order_impulse):
        # the exit iteration projects only z_aa: its state is an extrapolated
        # one, priced with that iteration's coefficients and its own U_dual
        g_o = sixth_order_impulse
        t = 0.5 * hp.compute_t_max(g_o)
        f = hp.solve_constrained(g_o, t).objective
        slack = 1e-6 * (1 + g_o.norm() ** 2)
        res = hp.solve_constrained(g_o, t, stop_above=f - 100 * slack)
        assert res.converged and res.iterations % hp.solver.TEST_EVERY != 0
        upper = hp.dual_bounds(g_o.values, t, res.g_tilde.values, res.admm_state[1])[1]
        assert res.bounds == (_stop_test_lower_bound(g_o, t, res), upper)

    def test_exit_on_a_cadence_step(self, sixth_order_impulse, monkeypatch):
        # a TEST_EVERY-th iteration whose test is out of reach projects T(z)
        # alone and leaves the plain state (Pi(T(z)), U_dual + H(g) - Pi(T(z)))
        g_o = sixth_order_impulse
        t = 0.5 * hp.compute_t_max(g_o)
        f = hp.solve_constrained(g_o, t).objective
        slack = 1e-6 * (1 + g_o.norm() ** 2)
        project = hp.solver.project_nuclear_ball
        calls = []

        def recording(M, radius):
            # the loop's iteration, whether its test could pass, and H(g) and
            # U_dual as the projection found them (the cold start has none)
            loop = sys._getframe(1).f_locals
            X = project(M, radius)
            if "near" in loop:
                calls.append((loop["it"], loop["near"], M.copy(), loop["Hg"].copy(),
                              loop["U_dual"].copy(), X))
            return X

        monkeypatch.setattr(hp.solver, "project_nuclear_ball", recording)
        res = hp.solve_constrained(g_o, t, stop_above=f - 1000 * slack)
        assert res.converged and res.iterations % hp.solver.TEST_EVERY == 0
        last = [c for c in calls if c[0] == res.iterations]
        assert len(last) == 1
        _, near, Tz, Hg, U_dual, X = last[0]
        assert not near and np.array_equal(Tz, Hg + U_dual)
        assert np.array_equal(res.admm_state[0], X)
        assert np.array_equal(res.admm_state[1], U_dual + (Hg - X))
        upper = hp.dual_bounds(g_o.values, t, res.g_tilde.values, res.admm_state[1])[1]
        assert res.bounds == (_stop_test_lower_bound(g_o, t, res), upper)

    def test_uncertified_budget_reports_unconverged(self, sixth_order_impulse):
        g_o = sixth_order_impulse
        t = 0.5 * hp.compute_t_max(g_o)
        f = hp.solve_constrained(g_o, t).objective
        res = hp.solve_constrained(g_o, t, hp.SolverOptions(max_iters=3), stop_above=f)
        assert not res.converged
        assert res.iterations == 3


class TestFreeDualNorm:
    """The stop test's nu = max(<U_dual, X>, 0) + delta bounds ||U_dual||_2
    from above, for X = Pi(w) and U_dual = c (w - X), and overshoots it by at
    most delta and 1e-8 relative."""

    @staticmethod
    def _assert_sound(X, U):
        nu = hp.solver._dual_norm(X, U)
        norm = np.abs(np.linalg.eigvalsh(0.5 * (U + U.T))).max()
        x_fro, u_fro = np.linalg.norm(X), np.linalg.norm(U)
        delta = hp.solver.NORM_ROUNDING * X.shape[0] * (1.0 + x_fro) * (x_fro + u_fro)
        assert nu >= norm
        assert nu <= norm * (1 + 1e-8) + delta

    def test_property_scale_size_and_rescale(self):
        # both ways the solver leaves a state: an Anderson step's
        # U = z - Pi(z), and a plain step's U = B + (A - Pi(A + B)), the
        # update of U by H(g) = A; each times a rho rescale factor c
        hypothesis = pytest.importorskip("hypothesis")
        st = hypothesis.strategies

        @hypothesis.settings(derandomize=True, max_examples=300, deadline=None)
        @hypothesis.given(
            n=st.integers(1, 30),
            seed=st.integers(0, 2**16),
            log_scale=st.floats(-6.0, 6.0),
            rank=st.integers(1, 30),
            c=st.sampled_from([0.1, 0.37, 1.0, 3.1, 10.0]),
            plain=st.booleans(),
        )
        def check(n, seed, log_scale, rank, c, plain):
            rng = np.random.RandomState(seed)
            V = rng.normal(size=(n, min(rank, n)))
            A = (V * rng.normal(size=V.shape[1])) @ V.T
            A = 10.0**log_scale * (A + A.T) / np.linalg.norm(A + A.T)
            B = rng.normal(scale=10.0**log_scale, size=(n, n))
            B = 0.5 * (B + B.T)
            w = A + B if plain else A
            X = hp.project_nuclear_ball(w, 1.0)
            U = B + (A - X) if plain else w - X
            self._assert_sound(X, c * U)

        check()

    def test_stop_check_states(self):
        # every state a stop test priced in the --verify re-solves of fixture
        # systems 0-179, order-100 systems 4-8 and wide systems 4-5, rho
        # rescales and states inside the ball among them (systems 120-179
        # keep the count above 3,000)
        systems = [(hp.random_system(6, s, bands=FIXTURE_BANDS), FIXTURE_K_MAX, 0.01)
                   for s in range(180)]
        systems += [(hp.random_system(100, s, bands=ORDER100_BANDS), 51, 12.0)
                    for s in range(4, 9)]
        systems += [(hp.random_system(100, s, bands=ORDER100_BANDS), 81, 40.0) for s in (4, 5)]
        real = hp.solver._dual_norm
        states = []

        def recording(X, U_dual):
            # the solve's iteration and rho at this check, to tell rescales
            # apart, read in the solve's frame, which calls _price
            loop = sys._getframe(2).f_locals
            states.append((loop["it"], loop["rho"], X.copy(), U_dual.copy()))
            return real(X, U_dual)

        with pytest.MonkeyPatch.context() as m:
            m.setattr(hp.solver, "_dual_norm", recording)
            for spec, k_max, eps in systems:
                g_o = hp.impulse_response(spec, k_max)
                cli._verify_path(hp.compute_path(g_o, eps), g_o, hp.SolverOptions())
            # a cold start at the projected fit begins on the ball's boundary
            # and here never comes back inside; started from zeros, the first
            # states of fixture systems 0-19 lie inside
            m.setattr(cli, "solve_constrained", _zero_start(hp.solve_constrained))
            for spec, k_max, eps in systems[:20]:
                g_o = hp.impulse_response(spec, k_max)
                cli._verify_path(hp.compute_path(g_o, eps), g_o, hp.SolverOptions())
        rescaled = inside = 0
        prev = None
        for it, rho, X, U in states:
            self._assert_sound(X, U)
            rescaled += prev is not None and it == prev[0] + 1 and rho != prev[1]
            inside += np.abs(np.linalg.eigvalsh(X)).sum() < 1.0 - 1e-9
            prev = (it, rho)
        assert len(states) > 3000 and rescaled > 0 and inside > 0


class TestDecompositionsAfterTheLoop:
    """Outside its projections a loop solve decomposes one matrix, H(g_tilde),
    whose spectrum prices bounds and singular_values; the path's certificate
    takes the solve's dual_direction and decomposes nothing: one eigvalsh per
    loop solve.  A closed form reads the cached eigendecomposition of H(g_o)
    and decomposes nothing."""

    def test_one_eigvalsh_per_loop_solve(self, monkeypatch, sixth_order_spec, order100_spec):
        counts = {"eigvalsh_lo": 0, "eigh_lo": 0}

        def counting(name, fn):
            def counted(a):
                counts[name] += 1
                return fn(a)
            return counted

        for name in counts:
            monkeypatch.setattr(hp.hankel, name, counting(name, getattr(hp.hankel, name)))
        # 4 and 9 loop solves, each path ending in a closed form at t_max;
        # with the eigh of H(g_o), the order-100 path takes 10
        # decompositions besides its projections
        for spec, k_max, eps in [(sixth_order_spec, FIXTURE_K_MAX, 0.01),
                                 (order100_spec, 51, 12.0)]:
            g_o = hp.impulse_response(spec, k_max)
            counts.update(eigvalsh_lo=0, eigh_lo=0)
            _, solves = path_solves(monkeypatch, g_o, eps)
            loop = sum(res.iterations > 0 for res in solves)
            assert solves[-1].iterations == 0 and loop == len(solves) - 1
            assert counts == {"eigvalsh_lo": loop, "eigh_lo": 1}
            counts.update(eigvalsh_lo=0)
            closed = hp.solve_constrained(g_o, 2.0 * hp.compute_t_max(g_o))
            hp.subgradient_vector(closed.g_tilde, closed.t, g_o=g_o, h=closed.dual_direction)
            assert closed.iterations == 0 and counts == {"eigvalsh_lo": 0, "eigh_lo": 1}


class TestColdStart:
    """A cold solve starts at the projected unconstrained fit: X0 = Pi(z0)
    for z0 = H(g_o / t), and U0 = c (z0 - X0) with c >= 0."""

    @staticmethod
    def _start(g, t):
        n = (len(g) + 1) // 2
        return hp.solver._cold_start(
            hp.as_impulse(g), t, hp.hankel.embed_indices(n), hp.multiplicities(n)
        )

    def test_property_consistent_state_at_every_scale(self):
        # U0 lies in the normal cone of the ball at X0, so the projection
        # leaves X0 + U0 at X0; and the start depends on g_o / t alone
        hypothesis = pytest.importorskip("hypothesis")
        st = hypothesis.strategies

        @hypothesis.settings(derandomize=True, max_examples=200, deadline=None)
        @hypothesis.given(
            order=st.integers(1, 30),
            seed=st.integers(0, 2**16),
            n=st.integers(1, 30),
            frac=st.floats(0.01, 0.99),
            log_scale=st.floats(-6.0, 6.0),
        )
        def check(order, seed, n, frac, log_scale):
            g = hp.impulse_response(hp.random_system(order, seed), 2 * n - 1).values
            t_max = hp.compute_t_max(g)
            hypothesis.assume(t_max > 0)
            scale = 10.0**log_scale
            X0, U0, c = self._start(scale * g, scale * frac * t_max)
            assert c >= 0
            assert np.array_equal(X0, X0.T) and np.array_equal(U0, U0.T)
            moved = np.abs(hp.project_nuclear_ball(X0 + U0, 1.0) - X0).max()
            assert moved <= 1e-13 * (1.0 + np.abs(U0).max())
            X1, U1, c1 = self._start(g, frac * t_max)
            np.testing.assert_allclose(X0, X1, rtol=0, atol=1e-10)
            np.testing.assert_allclose(U0, U1, rtol=0, atol=1e-10 * (1.0 + np.abs(U1).max()))

        check()

    def test_cold_solve_is_the_solve_from_the_start(self, sixth_order_impulse):
        # bit for bit, iteration by iteration; a scalar warm start is the
        # constant matrix
        g_o = sixth_order_impulse
        t = 0.4 * hp.compute_t_max(g_o)
        X0, U0, _ = self._start(g_o.values, t)
        zeros = np.zeros((g_o.n, g_o.n))
        for iters in (1, 3, 5000):
            opts = hp.SolverOptions(max_iters=iters)
            cold = hp.solve_constrained(g_o, t, opts)
            started = hp.solve_constrained(g_o, t, opts, warm_start=(X0, U0, 2.0 * t * t))
            assert np.array_equal(cold.g_tilde.values, started.g_tilde.values)
            assert cold.iterations == started.iterations and cold.bounds == started.bounds
            scalar = hp.solve_constrained(g_o, t, opts, warm_start=(0, 0, 2.0 * t * t))
            matrix = hp.solve_constrained(g_o, t, opts, warm_start=(zeros, zeros, 2.0 * t * t))
            assert np.array_equal(scalar.g_tilde.values, matrix.g_tilde.values)

    def test_fixture_verify_iterations_and_outcomes(self):
        # the --verify re-solves of fixture systems 0-119 take 1,527
        # iterations (2,132 when each re-solve also certified the sample's
        # upper end itself, 3,404 from the zero start), and system 61, whose
        # samples over-claim (ROADMAP item 1), is still the only failure
        real = cli.solve_constrained
        iterations = []

        def counting(*args, **kwargs):
            res = real(*args, **kwargs)
            iterations.append(res.iterations)
            return res

        failing = []
        with pytest.MonkeyPatch.context() as m:
            m.setattr(cli, "solve_constrained", counting)
            for seed in range(120):
                g_o = hp.impulse_response(
                    hp.random_system(6, seed, bands=FIXTURE_BANDS), FIXTURE_K_MAX
                )
                if cli._verify_path(hp.compute_path(g_o, 0.01), g_o, hp.SolverOptions()):
                    failing.append(seed)
        assert failing == [61]
        assert len(iterations) == 600 and sum(iterations) <= 1600


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

    def test_iterates_stay_bit_symmetric(self, sixth_order_impulse, order100_path, monkeypatch):
        # a symmetric iterate is what keeps every solver projection on the
        # eigendecomposition branch
        t_max = hp.compute_t_max(sixth_order_impulse)
        states = [hp.solve_constrained(sixth_order_impulse, f * t_max).admm_state
                  for f in (0.05, 0.3, 0.7, 0.95)]
        _, solves = path_solves(monkeypatch, order100_path[0], 12.0)
        late = [r.admm_state for r in solves
                if r.admm_state is not None
                and np.sum(np.abs(np.linalg.eigvalsh(r.admm_state[0])) > 1e-9) >= 7]
        assert late
        for X, U, _ in states + late:
            assert np.array_equal(X, X.T) and np.array_equal(U, U.T)

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

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("which", [0, 1], ids=["X", "U_dual"])
    def test_non_finite_warm_start_rejected(self, sixth_order_impulse, which, bad):
        # rejected at entry: the loop used to raise LinAlgError in its first
        # projection, after RuntimeWarnings from the arithmetic before it
        n = sixth_order_impulse.n
        start = [np.zeros((n, n)), np.zeros((n, n)), 1.0]
        start[which][1, 2] = start[which][2, 1] = bad
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="finite"):
                hp.solve_constrained(sixth_order_impulse, 0.1, warm_start=tuple(start))

    @pytest.mark.parametrize("value", [1e308, 1e200, 5e152])
    def test_overflowing_warm_start_rejected(self, sixth_order_impulse, value):
        # finite, but a sum of squares overflows: that of X and U_dual at
        # 1e308 and 1e200, that of X + U_dual alone at 5e152 (n = 16).  The
        # loop stopped on "overflow encountered in add" at 1e308 and "in dot"
        # at 1e200 instead of raising ValueError
        n = sixth_order_impulse.n
        start = (np.full((n, n), value), np.full((n, n), value), 1.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="finite sums of squares"):
                hp.solve_constrained(sixth_order_impulse, 0.5, warm_start=start)

    def test_huge_warm_start_still_runs(self, sixth_order_impulse):
        # entries of 1e150 square to finite sums: the start is taken, and its
        # iterations run without a RuntimeWarning
        n = sixth_order_impulse.n
        start = (np.full((n, n), 1e150), np.full((n, n), 1e150), 1.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            res = hp.solve_constrained(
                sixth_order_impulse, 0.5, hp.SolverOptions(max_iters=50), warm_start=start
            )
        assert res.iterations == 50

    @pytest.mark.parametrize("which", [0, 1], ids=["X", "U_dual"])
    def test_asymmetric_warm_start_rejected(self, sixth_order_impulse, which):
        # the loop vouches for its iterates' symmetry to the projection, which
        # holds only from a symmetric start: one ulp off is rejected at entry
        g_o = sixth_order_impulse
        start = list(hp.solve_constrained(g_o, 0.3 * hp.compute_t_max(g_o)).admm_state)
        M = start[which].copy()
        M[0, 1] = np.nextafter(M[0, 1], np.inf)
        start[which] = M
        with pytest.raises(ValueError, match="symmetric"):
            hp.solve_constrained(g_o, 0.1, warm_start=tuple(start))

    def test_path_solves_start_from_previous_breakpoint(self, sixth_order_impulse, monkeypatch):
        pr, solves = path_solves(monkeypatch, sixth_order_impulse, 0.01)
        assert pr.m == 5
        first, second = solves[:2]
        assert np.array_equal(pr.exact_solutions[1].g_tilde.values, second.g_tilde.values)
        again = hp.solve_constrained(
            sixth_order_impulse, pr.breakpoints[1], warm_start=first.admm_state
        )
        assert np.array_equal(again.g_tilde.values, second.g_tilde.values)
        assert again.iterations == second.iterations

    def test_rank1_path_solve_count(self, rank1_impulse):
        assert hp.compute_path(rank1_impulse, eps=1e-4).m == 44


def _stopping_thresholds(g_o, t):
    """The (primal, dual) residual thresholds solve_constrained stops on at
    default options: one threshold for the fit divided by s^2 = ||g_o||^2,
    and the dual residual is reported in the original units, s^2 times its
    normalized value."""
    s2 = float(g_o.values @ g_o.values)
    threshold = max(2e-9 * g_o.n * min(1.0, 2.0 * t * t / s2), 8e-15 * g_o.n)
    return threshold, threshold * s2


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
            primal, dual = _stopping_thresholds(g_o, t)
            assert res.converged
            assert 0.0 <= res.primal_residual <= primal
            assert 0.0 <= res.dual_residual <= dual

    def test_rank1_small_t_within_default_budget(self, rank1_impulse):
        # this solve ran out of the default budget under over-relaxation
        assert hp.solve_constrained(rank1_impulse, 4.3e-5).converged

    @pytest.mark.parametrize("rho", [1e-6, 1e6])
    def test_cold_solves_from_extreme_rho(self, sixth_order_impulse, rho):
        # residual balancing moves rho many times here, and each move restarts
        # the acceleration history; a zero warm start is a cold start at rho
        g_o = sixth_order_impulse
        t_max = hp.compute_t_max(g_o)
        zeros = np.zeros((g_o.n, g_o.n))
        for frac in self.FRACTIONS:
            res = hp.solve_constrained(g_o, frac * t_max, warm_start=(zeros, zeros, rho))
            ref = hp.solve_constrained(g_o, frac * t_max)
            assert res.converged
            assert res.admm_state[2] != rho
            assert np.linalg.norm(res.g_tilde.values - ref.g_tilde.values) <= 1e-6

    @pytest.mark.parametrize("t", [5e-8, 5e-9])
    def test_tiny_t_cold_solve_converges(self, t):
        # unit-norm fixture data at about the first breakpoint of eps = 2t:
        # with rho starting at 1 and clipped at 1e-8, far above the fit
        # curvature 2 t^2 (5e-15 and 5e-17), these ran out of the default
        # budget of 5,000 iterations
        g_o = hp.impulse_response(hp.random_system(6, 3, bands=FIXTURE_BANDS), FIXTURE_K_MAX)
        res = hp.solve_constrained(g_o.values / g_o.norm(), t)
        assert res.converged and res.iterations <= 200

    def test_wide_held_out_solve_within_default_budget(self, wide_held_out_impulse):
        # a held-out breakpoint that needs most of the default budget: with
        # rho steps of 2 or 1/2 the Anderson history is dropped too often
        # for the solve to converge in 5,000 iterations
        res = hp.solve_constrained(wide_held_out_impulse, 63.47)
        assert res.converged

    def test_order100_path_iteration_total(self, order100_path):
        _, path = order100_path
        assert path.m == 10
        # 552 iterations (523 when a cadence iteration also projected the
        # extrapolated point; 2,717 before the solver normalized the problem)
        assert sum(r.iterations for r in path.exact_solutions) <= 690


def _zero_start(solve):
    """solve, with every cold solve started from zeros at the fit curvature,
    warm_start=(0, 0, 2 t^2): the start of solves before the projected
    unconstrained fit."""

    def solve_from_zeros(g_o, t, opts=None, *, warm_start=None, **kwargs):
        if warm_start is None:
            warm_start = (0.0, 0.0, 2.0 * t * t)
        return solve(g_o, t, opts, warm_start=warm_start, **kwargs)

    return solve_from_zeros


class TestPlainStepOnlyWhenTested:
    """The plain step's projection, read only by the residual test and
    residual balancing, runs when no extrapolation is at hand, every
    TEST_EVERY-th iteration and when the test could pass; a TEST_EVERY-th
    iteration whose test is out of reach takes that plain step as its step
    and projects no extrapolated point."""

    def test_every_iteration_tested_is_plain_admm(self, monkeypatch, sixth_order_impulse,
                                                  rank1_impulse, order100_path):
        # with a cadence step on every iteration, the loop started from
        # zeros at the fit curvature extrapolates only once the test comes
        # within reach, from iteration 40 on in these solves; before that it
        # is the unaccelerated loop, balancing included, bit for bit
        monkeypatch.setattr(hp.solver, "TEST_EVERY", 1)
        cases = [(g_o, frac, iters) for g_o in (sixth_order_impulse, rank1_impulse)
                 for frac in (0.1, 0.3, 0.6, 0.9) for iters in (1, 5, 30)]
        cases.append((order100_path[0], 0.3, 300))
        for g_o, frac, iters in cases:
            t = frac * hp.compute_t_max(g_o)
            opts = hp.SolverOptions(max_iters=iters)
            res = hp.solve_constrained(g_o, t, opts, warm_start=(0, 0, 2.0 * t * t))
            g_ref, _, ref_iters, ref_converged = plain_admm(g_o, t, opts)
            assert not (res.converged or ref_converged)
            assert res.iterations == ref_iters == iters
            assert np.array_equal(res.g_tilde.values, g_ref)

    def test_no_cadence_step_reproduces_the_frozen_loop(self, monkeypatch, order100_spec):
        # with TEST_EVERY beyond the iteration budget no cadence step ever
        # runs, and the loop is the earlier one that discarded a cadence
        # step's plain state, every bit of path.json included
        never = hp.SolverOptions().max_iters + 1
        frozen = functools.partial(solve_constrained_cadence_frozen, test_every=never)
        cases = [
            (hp.impulse_response(hp.random_system(6, seed, bands=FIXTURE_BANDS), FIXTURE_K_MAX),
             0.01)
            for seed in range(20)
        ]
        cases.append((hp.impulse_response(order100_spec, 51), 12.0))
        monkeypatch.setattr(hp.solver, "TEST_EVERY", never)
        for g_o, eps in cases:
            current = hp.compute_path(g_o, eps).to_json()
            with monkeypatch.context() as m:
                m.setattr(hp.path, "solve_constrained", frozen)
                assert hp.compute_path(g_o, eps).to_json() == current

    def test_order100_path_projection_count(self, monkeypatch, order100_path):
        # 565 projections over 552 iterations (645 over 523 when a cadence
        # iteration also projected the extrapolated point)
        g_o, path = order100_path
        project = hp.solver.project_nuclear_ball
        calls = []

        def counted(M, radius):
            calls.append(1)
            return project(M, radius)

        monkeypatch.setattr(hp.solver, "project_nuclear_ball", counted)
        assert hp.compute_path(g_o, eps=12.0).to_json() == path.to_json()
        assert len(calls) <= 620


class TestVouchedIterates:
    """The loop passes each iterate to project_nuclear_ball as an _Iterate,
    which skips the projection's finiteness and symmetry checks: T(z) is
    vouched for by a finite ||T(z) - z||, the extrapolated z_aa by a finite
    ||z_aa||^2, and a non-finite value raises LinAlgError from the
    entrywise test before any arithmetic on it."""

    @staticmethod
    def _from_iteration(monkeypatch, name, bad, first=3):
        """Make solver.<name> return `bad` everywhere when the loop calls it
        at iteration `first` or later; returns the iterations it was called
        at."""
        real = getattr(hp.solver, name)
        seen = []

        def poisoned(*args):
            out = real(*args)
            caller = sys._getframe(1)
            loop = caller.f_locals
            if caller.f_code.co_name == "solve_constrained" and "it" in loop:
                seen.append(loop["it"])
                if loop["it"] >= first:
                    out = np.full_like(out, bad)
            return out

        monkeypatch.setattr(hp.solver, name, poisoned)
        return seen

    @staticmethod
    def _finite_decompositions(monkeypatch):
        real = hp.solver.eigh_lo
        seen = []

        def checked(a):
            assert np.isfinite(a).all()
            seen.append(1)
            return real(a)

        monkeypatch.setattr(hp.solver, "eigh_lo", checked)
        return seen

    @pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
    def test_non_finite_plain_step_raises(self, monkeypatch, sixth_order_impulse, bad):
        # a non-finite adjoint makes H(g), so T(z), non-finite: the loop
        # rejects it at ||f||, before eigh_lo or the Anderson update sees it
        g_o = sixth_order_impulse
        seen = self._from_iteration(monkeypatch, "adjoint_fast", bad)
        decompositions = self._finite_decompositions(monkeypatch)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(np.linalg.LinAlgError, match="non-finite"):
                hp.solve_constrained(g_o, 0.5 * hp.compute_t_max(g_o))
        assert seen == [1, 2, 3] and decompositions

    def test_non_finite_extrapolation_raises(self, monkeypatch, sixth_order_impulse):
        # a NaN Anderson coefficient makes z_aa NaN with a finite T(z): the
        # one check on ||z_aa||^2 rejects it before eigh_lo sees it
        g_o = sixth_order_impulse
        seen = self._from_iteration(monkeypatch, "solve1", np.nan)
        decompositions = self._finite_decompositions(monkeypatch)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(np.linalg.LinAlgError, match="non-finite"):
                hp.solve_constrained(g_o, 0.5 * hp.compute_t_max(g_o))
        assert seen and seen[-1] >= 3 and decompositions

    def test_checked_projection_is_bit_identical(self, monkeypatch, sixth_order_impulse,
                                                 order100_path):
        # stripping the marker sends every loop projection through both
        # checks; the solves at the breakpoints of both paths, cold and
        # warm, return the same bits either way
        real = hp.solver.project_nuclear_ball
        marked = []

        def checked(M, radius):
            marked.append(type(M) is hp.solver._Iterate)
            return real(M.view(np.ndarray), radius)

        def fields(res):
            X, U, rho = res.admm_state
            return (res.g_tilde.values.tobytes(), res.t, res.objective, res.nuclear_norm_value,
                    res.iterations, res.primal_residual, res.dual_residual, res.converged,
                    res.bounds, res.singular_values.tobytes(), X.tobytes(), U.tobytes(), rho)

        for g_o, eps in ((sixth_order_impulse, 0.01), (order100_path[0], 12.0)):
            _, warm = path_solves(monkeypatch, g_o, eps)
            loop = [(res, prev) for res, prev in zip(warm[1:], warm) if res.iterations]
            assert len(loop) >= 3
            runs = []
            for strip in (False, True):
                with monkeypatch.context() as m:
                    if strip:
                        m.setattr(hp.solver, "project_nuclear_ball", checked)
                    runs.append([
                        fields(hp.solve_constrained(g_o, res.t, warm_start=prev.admm_state))
                        for res, prev in loop
                    ] + [fields(hp.solve_constrained(g_o, res.t)) for res, _ in loop])
            assert runs[0] == runs[1]
            assert runs[0][:len(loop)] == [fields(res) for res, _ in loop]
        assert marked and all(marked)


class TestResidualBalancing:
    def test_zero_dual_residual_scales_rho_by_the_cap(self):
        # scalar H(g): once X sits on the ball's boundary X_new == X exactly,
        # so balancing fires with r_dual == 0 and multiplies rho by 10, four
        # times from the zero start at the fit curvature 2 t^2 = 2 (the cold
        # start at the projected fit is already optimal here)
        res = hp.solve_constrained([2.0], 1.0, warm_start=(0.0, 0.0, 2.0))
        assert res.converged and res.dual_residual == 0.0
        assert res.admm_state[2] == 2.0 * 1e4
        np.testing.assert_allclose(res.g_tilde.values, [1.0], atol=1e-8)

    def test_rho_capped_at_upper_bound(self):
        # the cap is 1e8 times the fit curvature 2 t^2 = 2; one step of 10
        # from 3e7 would overshoot it
        cold = hp.solve_constrained([2.0], 1.0)
        X, U, _ = cold.admm_state
        res = hp.solve_constrained([2.0], 1.0, warm_start=(X, U, 3e7))
        assert res.converged
        assert res.admm_state[2] == 1e8 * 2.0
