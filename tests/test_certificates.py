import subprocess
import sys
import tracemalloc

import numpy as np
import pytest

import hankelpath as hp
from hankelpath.certificates import _match_subgradient
from hankelpath.hankel import embed_indices

from conftest import FIXTURE_BANDS, FIXTURE_K_MAX
from oracles import bisect_gap_crossing, match_subgradient_reference


def _gap_fn(cert, g_o):
    return lambda t: hp.duality_gap(cert, g_o, t)


class TestSubgradientVector:
    def test_scalar_case(self):
        cert = hp.subgradient_vector([1.0], t_star=1.0)
        np.testing.assert_allclose(cert.h, [1.0], atol=1e-14)
        assert cert.residual_dir_norm == 0.0

    def test_exchange_matrix_case(self):
        # H([0,1,0]) is the 2x2 exchange matrix; full rank, so W = 0 applies
        cert = hp.subgradient_vector([0.0, 1.0, 0.0], t_star=1.0)
        np.testing.assert_allclose(cert.h, [0.0, 2.0, 0.0], atol=1e-12)

    def test_unit_nuclear_rank_one_inner_product(self):
        # <h, g> recovers the trace of Sigma for any valid W choice
        rng = np.random.RandomState(20)
        for _ in range(20):
            pole = rng.uniform(-0.9, 0.9)
            g = pole ** np.arange(7)
            g = g / hp.compute_t_max(g)
            cert = hp.subgradient_vector(g, t_star=0.5)
            assert abs(np.dot(cert.h, g) - 1.0) <= 1e-8

    def test_degenerate_for_zero_solution(self):
        cert = hp.subgradient_vector(np.zeros(5), t_star=0.5)
        assert cert.degenerate
        assert cert.residual_dir_norm == 0.0
        with pytest.raises(hp.DegenerateCertificateError):
            hp.duality_gap(cert, np.ones(5), 1.0)

    def test_matched_certificate_fields(self, sixth_order_impulse):
        g_o = sixth_order_impulse
        t = 0.3 * hp.compute_t_max(g_o)
        res = hp.solve_constrained(g_o, t)
        cert = hp.subgradient_vector(res.g_tilde, t, g_o=g_o)
        assert cert.t_star == t
        assert not cert.degenerate
        assert cert.residual_dir_norm >= 0.0
        # a is the norm of the component of g* orthogonal to h
        h = cert.h
        proj = h * np.dot(h, res.g_tilde.values) / np.dot(h, h)
        a_ref = np.linalg.norm(res.g_tilde.values - proj)
        assert abs(cert.residual_dir_norm - a_ref) < 1e-12


class TestMatchSubgradient:
    """The anti-diagonal-tensor construction against the n^2 x m^2 build."""

    @staticmethod
    def _assert_matches_reference(g, res):
        g = hp.as_impulse(g)
        U, S, Vh = np.linalg.svd(hp.hankel_embed(g).entries)
        h, gap = _match_subgradient(U, S, Vh, res, g.k_max)
        h_ref, gap_ref = match_subgradient_reference(
            U, S, Vh, res, embed_indices(g.n), g.k_max
        )
        assert abs(gap - gap_ref) <= 1e-12 * np.sum(res**2)
        assert np.linalg.norm(h - h_ref) <= 1e-6 * np.linalg.norm(h_ref)

    def _check_path(self, g_o, path):
        g_o = hp.as_impulse(g_o)
        checked = 0
        for t, sol in zip(path.breakpoints, path.exact_solutions):
            res = t * sol.g_tilde.values - g_o.values
            # a perfect fit (t = t_max) has no residual to match
            if np.linalg.norm(res) > 1e-15:
                self._assert_matches_reference(sol.g_tilde, res)
                checked += 1
        assert checked >= path.m - 1

    def test_fixture_path(self, sixth_order_impulse, sixth_order_path):
        self._check_path(sixth_order_impulse, sixth_order_path)

    def test_rank1_path(self, rank1_impulse):
        self._check_path(rank1_impulse, hp.compute_path(rank1_impulse, eps=1e-4))

    def test_order100_path(self, order100_path):
        self._check_path(*order100_path)

    @pytest.mark.parametrize("n", [2, 5, 16])
    def test_random_low_rank(self, n):
        # g is a sum of r exponentials, so H(g) has rank r and the cuts run
        # to r; at n = 2 and 5 some cuts leave a discarded block with
        # m^2 <= k_max entries, at n = 16 every cut leaves more.  The residual is a KKT residual -lam*adjoint(U_r
        # V_r^T + U_2 W V_2^T) with ||W||_2 < 1, exact or perturbed.
        rng = np.random.RandomState(40 + n)
        k_max = 2 * n - 1
        for trial in range(12):
            r = int(rng.randint(1, min(n, 4) + 1)) if n > 2 else 1
            poles = rng.uniform(-0.95, 0.95, r)
            g = (rng.normal(size=r)[:, None] * poles[:, None] ** np.arange(k_max)).sum(0)
            g = g / hp.compute_t_max(g)
            U, S, Vh = np.linalg.svd(hp.hankel_embed(g).entries)
            rank = int(np.sum(S > 1e-10 * S[0]))
            W = rng.normal(size=(n - rank, n - rank))
            W = W + W.T
            W *= rng.uniform(0.0, 0.9) / np.linalg.norm(W, 2)
            h = hp.hankel_adjoint(U[:, :rank] @ Vh[:rank] + U[:, rank:] @ W @ Vh[rank:])
            res = -rng.uniform(0.1, 2.0) * h
            if trial % 2:
                res = res + 1e-4 * np.linalg.norm(res) * rng.normal(size=k_max) / np.sqrt(k_max)
            self._assert_matches_reference(g, res)

    def test_peak_memory_wide_system(self, order100_spec):
        # one certificate at n = 41 took 81 MB with the n^2 x m^2 build
        g_o = hp.impulse_response(order100_spec, 81)
        t = 0.3 * hp.compute_t_max(g_o)
        sol = hp.solve_constrained(g_o, t)
        tracemalloc.start()
        try:
            hp.subgradient_vector(sol.g_tilde, t, g_o=g_o)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16e6


class TestDualityGap:
    def test_zero_at_own_breakpoint(self, sixth_order_impulse):
        g_o = sixth_order_impulse
        budget = 1e-8 * g_o.norm() ** 2
        t_max = hp.compute_t_max(g_o)
        for t in (0.1 * t_max, 0.4 * t_max, 0.7 * t_max):
            res = hp.solve_constrained(g_o, t)
            cert = hp.subgradient_vector(res.g_tilde, t, g_o=g_o)
            assert hp.duality_gap(cert, g_o, t) <= budget

    def test_scalar_gap_identically_zero(self):
        # one-dimensional projections onto span(h) are the identity
        rng = np.random.RandomState(21)
        for _ in range(30):
            g = rng.uniform(-2, 2)
            t = rng.uniform(0.1, 2.0)
            res = hp.solve_constrained([g], t)
            if not np.any(res.g_tilde.values):
                continue
            cert = hp.subgradient_vector(res.g_tilde, t, g_o=[g])
            for dt in (0.0, 0.1, 0.5):
                assert hp.duality_gap(cert, [g], t + dt) <= 1e-12

    def test_quadratic_growth_from_breakpoint(self, sixth_order_impulse):
        g_o = sixth_order_impulse
        t = 0.35 * hp.compute_t_max(g_o)
        res = hp.solve_constrained(g_o, t)
        cert = hp.subgradient_vector(res.g_tilde, t, g_o=g_o)
        a = cert.residual_dir_norm
        for delta in (0.01, 0.05, 0.1):
            gap = hp.duality_gap(cert, g_o, t + delta)
            assert abs(gap - delta**2 * a**2) <= 1e-6 * max(1.0, delta**2 * a**2)

    def test_nonnegative_and_preclamp_bounded(self, sixth_order_impulse):
        g_o = sixth_order_impulse
        t = 0.5 * hp.compute_t_max(g_o)
        res = hp.solve_constrained(g_o, t)
        cert = hp.subgradient_vector(res.g_tilde, t, g_o=g_o)
        for tt in np.linspace(t, hp.compute_t_max(g_o), 17):
            gap = hp.duality_gap(cert, g_o, float(tt))
            assert gap >= 0.0
            r = tt * cert.g_tilde_star.values - g_o.values
            raw = float(np.sum(r**2) - np.dot(cert.h, r) ** 2 / np.dot(cert.h, cert.h))
            assert raw >= -1e-8 * g_o.norm() ** 2


class TestApproxObjective:
    def test_perfect_model(self):
        g_o = np.array([1.0, 0.5, 0.25])
        assert hp.approx_objective(g_o / 2.0, g_o, 2.0) <= 1e-30

    def test_zero_model(self):
        g_o = np.array([1.0, 0.5, 0.25])
        assert abs(hp.approx_objective(np.zeros(3), g_o, 1.0) - np.sum(g_o**2)) < 1e-15

    def test_t_zero(self):
        g_o = np.array([1.0, 0.5, 0.25])
        assert abs(hp.approx_objective(g_o, g_o, 0.0) - np.sum(g_o**2)) < 1e-15


class TestNextBreakpoint:
    def _synthetic_cert(self):
        # h = [1,0,0], g* = [c,2,0]: component of g* orthogonal to h has norm 2
        g_star = np.array([0.5, 2.0, 0.0])
        h = np.array([1.0, 0.0, 0.0])
        return hp.GapCertificate(
            h=h, t_star=1.0, g_tilde_star=hp.ImpulseResponse(g_star), residual_dir_norm=2.0
        )

    def test_closed_form_step(self):
        cert = self._synthetic_cert()
        # g_o chosen so the residual at t* is parallel to h (tight certificate)
        g_o = 1.0 * cert.g_tilde_star.values + 0.3 * cert.h
        t_next = hp.next_breakpoint(cert, g_o, eps=0.04, t_max=10.0)
        assert abs(t_next - 1.1) < 1e-9
        ref = bisect_gap_crossing(_gap_fn(cert, g_o), 0.04, 1.0, 10.0)
        assert abs(t_next - ref) < 1e-8

    def test_zero_growth_returns_t_max(self):
        g_star = np.array([0.5, 0.0, 0.0])
        cert = hp.GapCertificate(
            h=np.array([1.0, 0.0, 0.0]),
            t_star=1.0,
            g_tilde_star=hp.ImpulseResponse(g_star),
            residual_dir_norm=0.0,
        )
        assert hp.next_breakpoint(cert, np.ones(3), eps=0.01, t_max=5.0) == 5.0

    def test_cap_when_gap_small_at_t_max(self):
        cert = self._synthetic_cert()
        g_o = 1.0 * cert.g_tilde_star.values + 0.3 * cert.h
        # eps larger than the gap can ever get before t_max
        assert hp.next_breakpoint(cert, g_o, eps=100.0, t_max=1.5) == 1.5

    def test_rejects_bad_eps(self):
        cert = self._synthetic_cert()
        with pytest.raises(ValueError):
            hp.next_breakpoint(cert, np.ones(3), eps=0.0, t_max=2.0)

    @pytest.mark.parametrize("sign", [1.0, -1.0], ids=["b-positive", "b-negative"])
    def test_untight_certificate_vs_bisection(self, sign):
        # the residual at t* has an orthogonal part r with <p, r> = sign * 0.1,
        # so the gap is ||s p + r||^2 and not (s a)^2
        cert = self._synthetic_cert()
        r = np.array([0.0, sign * 0.05, 0.03])
        g_o = cert.g_tilde_star.values - (-0.3 * cert.h + r)
        t_next = hp.next_breakpoint(cert, g_o, eps=0.04, t_max=10.0)
        ref = bisect_gap_crossing(_gap_fn(cert, g_o), 0.04, 1.0, 10.0)
        assert abs(t_next - ref) <= 1e-12 * ref
        assert abs(t_next - 1.1) > 1e-3  # off the tight step t* + sqrt(eps)/a

    def test_gap_at_own_breakpoint_above_eps_raises(self):
        cert = self._synthetic_cert()
        g_o = cert.g_tilde_star.values - np.array([0.3, 0.2, 0.1])
        with pytest.raises(RuntimeError, match="already"):
            hp.next_breakpoint(cert, g_o, eps=0.04, t_max=10.0)

    def test_fixture_breakpoint_vs_bisection(self, sixth_order_impulse):
        g_o = sixth_order_impulse
        t_max = hp.compute_t_max(g_o)
        t = 0.3 * t_max
        res = hp.solve_constrained(g_o, t)
        cert = hp.subgradient_vector(res.g_tilde, t, g_o=g_o)
        eps = 0.01
        t_next = hp.next_breakpoint(cert, g_o, eps, t_max)
        ref = bisect_gap_crossing(_gap_fn(cert, g_o), eps, t, t_max)
        assert abs(t_next - ref) < 1e-8
        assert 0.95 * eps <= hp.duality_gap(cert, g_o, t_next) <= 1.05 * eps


def test_import_leaves_scipy_optimize_out():
    # the breakpoint step is closed-form, and the solver's LAPACK calls go
    # through numpy's own linalg gufuncs; importing scipy made up about two
    # thirds of the package's import time
    code = (
        "import sys, hankelpath; "
        "print('scipy.optimize' in sys.modules); "
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    optimize, scipy_modules = proc.stdout.split("\n")[:2]
    assert optimize == "False"
    assert scipy_modules == "[]"


class TestSandwich:
    def test_fresh_solves_inside_certified_interval(self, rank1_impulse):
        g_o = rank1_impulse
        slack = 1e-6 * (1 + g_o.norm() ** 2)
        t_max = hp.compute_t_max(g_o)
        t_star = 0.3 * t_max
        res = hp.solve_constrained(g_o, t_star)
        cert = hp.subgradient_vector(res.g_tilde, t_star, g_o=g_o)
        t_next = hp.next_breakpoint(cert, g_o, 0.01, t_max)
        for t in np.linspace(t_star, t_next, 9):
            f_ap = hp.approx_objective(res.g_tilde, g_o, float(t))
            gap = hp.duality_gap(cert, g_o, float(t))
            fresh = hp.solve_constrained(g_o, float(t)).objective
            assert f_ap - gap - slack <= fresh <= f_ap + slack
            assert gap <= 1.05 * 0.01


def _tight_reference(g_o, t):
    """f*(t) from a solve at 1e-13 (1 + ||g_o||) tolerances."""
    tol = 1e-13 * (1 + hp.as_impulse(g_o).norm())
    ref = hp.solve_constrained(
        g_o, t, hp.SolverOptions(primal_tol=tol, dual_tol=tol, max_iters=50000)
    )
    assert ref.converged
    return ref.objective


def _assert_encloses(bounds, f_ref, g_o):
    lower, upper = bounds
    slack = 1e-9 * (1 + hp.as_impulse(g_o).norm() ** 2)
    assert lower - slack <= f_ref <= upper + slack, (lower, f_ref, upper)
    assert 0.0 <= lower <= upper + slack


def _fixture_family():
    return [hp.impulse_response(hp.random_system(6, s, bands=FIXTURE_BANDS), FIXTURE_K_MAX)
            for s in range(20)]


class TestDualBounds:
    """Every solve's bounds enclose the optimum, however far it got."""

    @staticmethod
    def _check_states(g_o, t):
        f_ref = _tight_reference(g_o, t)
        warm = hp.solve_constrained(g_o, 0.8 * t, hp.SolverOptions(max_iters=30)).admm_state
        for k in (1, 2, 5, 20):
            opts = hp.SolverOptions(max_iters=k)
            _assert_encloses(hp.solve_constrained(g_o, t, opts).bounds, f_ref, g_o)
            if warm is not None:
                res = hp.solve_constrained(g_o, t, opts, warm_start=warm)
                _assert_encloses(res.bounds, f_ref, g_o)

    def test_acceptance_fixtures(self, sixth_order_impulse, rank1_impulse):
        for g_o in (sixth_order_impulse, rank1_impulse):
            t_max = hp.compute_t_max(g_o)
            for frac in (0.1, 0.5, 0.9):
                self._check_states(g_o, frac * t_max)

    def test_fixture_seeds(self):
        for g_o in _fixture_family():
            t_max = hp.compute_t_max(g_o)
            for frac in (0.2, 0.7):
                self._check_states(g_o, frac * t_max)

    def test_scalar_inputs(self):
        # the optimum of the scalar problem is max(0, |g0| - t)^2
        for g0 in (1.0, -2.5, 1e-4, 3e3):
            for t in (0.1, 0.5 * abs(g0), abs(g0) + 0.3):
                f_ref = max(0.0, abs(g0) - t) ** 2
                for k in (1, 2, 5, 20):
                    res = hp.solve_constrained([g0], t, hp.SolverOptions(max_iters=k))
                    _assert_encloses(res.bounds, f_ref, [g0])

    def test_closed_form_branch(self, sixth_order_impulse, rank1_impulse):
        for g_o in (sixth_order_impulse, rank1_impulse):
            t_max = hp.compute_t_max(g_o)
            for t in (t_max, 1.5 * t_max):
                res = hp.solve_constrained(g_o, t)
                assert res.iterations == 0
                assert res.bounds[0] == 0.0
                _assert_encloses(res.bounds, 0.0, g_o)

    def test_tight_at_a_converged_solve(self, sixth_order_impulse):
        g_o = sixth_order_impulse
        res = hp.solve_constrained(g_o, 0.5 * hp.compute_t_max(g_o))
        lower, upper = res.bounds
        assert upper - lower <= 1e-6 * (1 + g_o.norm() ** 2)

    def test_any_dual_matrix_gives_a_valid_bound(self, sixth_order_impulse):
        # the lower bound needs no relation between U and the solve
        g_o = sixth_order_impulse
        n = g_o.n
        t = 0.5 * hp.compute_t_max(g_o)
        f_ref = _tight_reference(g_o, t)
        rng = np.random.RandomState(3)
        for _ in range(20):
            U = rng.standard_normal((n, n))
            g = rng.standard_normal(g_o.k_max)
            _assert_encloses(hp.dual_bounds(g_o, t, g, U), f_ref, g_o)

    def test_non_symmetric_dual_is_priced_by_its_symmetric_part(self, sixth_order_impulse):
        g_o = sixth_order_impulse
        t = 0.5 * hp.compute_t_max(g_o)
        res = hp.solve_constrained(g_o, t)
        _, U, _ = res.admm_state
        # same symmetric part as U, but half of U's off-diagonal in the lower triangle
        skewed = np.tril(0.5 * U, -1) + np.diag(np.diag(U)) + np.triu(1.5 * U, 1)
        g = res.g_tilde.values
        lower, _ = hp.dual_bounds(g_o, t, g, skewed)
        assert lower == pytest.approx(hp.dual_bounds(g_o, t, g, U)[0], rel=1e-9)
        _assert_encloses((lower, np.inf), _tight_reference(g_o, t), g_o)

    def test_zero_dual_gives_zero_lower_bound(self, sixth_order_impulse):
        g_o = sixth_order_impulse
        n = g_o.n
        g = np.zeros(g_o.k_max)
        assert hp.dual_bounds(g_o, 0.3, g, np.zeros((n, n))) == (0.0, g_o.norm() ** 2)
        assert hp.dual_bounds(g_o, 0.3, g)[0] == 0.0

    def test_upper_prices_the_rescaled_point(self, sixth_order_impulse):
        g_o = sixth_order_impulse
        g = 3.0 * g_o.values / hp.compute_t_max(g_o)  # nuclear norm 3
        _, upper = hp.dual_bounds(g_o, 0.4, g)
        assert upper == pytest.approx(np.sum((0.4 * g / 3.0 - g_o.values) ** 2), rel=1e-12)

    def test_property_order_scale_and_t(self):
        hypothesis = pytest.importorskip("hypothesis")
        st = hypothesis.strategies

        @hypothesis.settings(derandomize=True, max_examples=40, deadline=None)
        @hypothesis.given(
            order=st.integers(1, 12),
            seed=st.integers(0, 2**16),
            log_scale=st.floats(-3.0, 3.0),
            frac=st.floats(0.02, 1.3),
            iters=st.sampled_from([1, 2, 5, 20]),
        )
        def check(order, seed, log_scale, frac, iters):
            spec = hp.random_system(order, seed, residue_scale=10.0**log_scale)
            g_o = hp.impulse_response(spec, 15)
            t = frac * hp.compute_t_max(g_o)
            f_ref = 0.0 if frac >= 1.0 else _tight_reference(g_o, t)
            res = hp.solve_constrained(g_o, t, hp.SolverOptions(max_iters=iters))
            _assert_encloses(res.bounds, f_ref, g_o)

        check()
