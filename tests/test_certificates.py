import math
import subprocess
import sys
import warnings

import numpy as np
import pytest

import hankelpath as hp
from hankelpath import solver

from conftest import FIXTURE_BANDS, FIXTURE_K_MAX, path_solves
from oracles import bisect_gap_crossing


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

    def test_no_snap_onto_an_underflowed_residual(self):
        # at residue scale 1e-150 the fit residual of the closed-form solve
        # at t_max is about 1e-167, and its squared norm underflows to 0
        bands = [(count, radii, 1e-150 * scale) for count, radii, scale in FIXTURE_BANDS]
        g_o = hp.impulse_response(hp.random_system(6, 3, bands=bands), FIXTURE_K_MAX)
        pr = hp.compute_path(g_o, 1e-2 * g_o.norm() ** 2)
        assert pr.m == 9
        for cert in pr.certificates:
            assert np.isfinite(cert.h).all() and np.isfinite(cert.residual_dir_norm)

    def test_w0_form_matches_the_svd(self, sixth_order_impulse, rank1_impulse):
        # adjoint(Q_r sign(lam_r) Q_r^T) from the cached eigendecomposition is
        # adjoint(U_r V_r^T) of the SVD, cut at the same noise floor: at t_max
        # of the fixture (the closed-form solve), rank one and n = 1.  Both
        # carry a backward error of about u sigma_1 (u the unit roundoff),
        # which the singular vectors of sigma_r amplify by 1 / sigma_r; at
        # t_max, sigma_6 / sigma_1 = 3e-9 and the forms differ by 4e-9
        g_o = sixth_order_impulse
        cases = [hp.solve_constrained(g_o, hp.compute_t_max(g_o)).g_tilde, rank1_impulse,
                 [1.0, 0.5, 0.25], [0.7], [-0.3]]
        eps = np.finfo(float).eps
        for g in cases:
            U, S, Vh = np.linalg.svd(hp.hankel_embed(g).entries)
            rank = int(np.sum(S > eps * S.size * S[0]))
            ref = hp.hankel_adjoint(U[:, :rank] @ Vh[:rank])
            h = hp.subgradient_vector(g, 1.0).h
            tol = 1e-12 + S.size * eps * S[0] / S[rank - 1]
            assert np.linalg.norm(h - ref) <= tol * np.linalg.norm(ref)

    def test_w0_form_of_an_overflowing_spectrum_raises(self):
        # H(g) has finite entries 1e308 and the eigenvalue 2e308; the SVD
        # form returned h = 0 for it, with RuntimeWarnings from a = 0 / 0
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(np.linalg.LinAlgError):
                hp.subgradient_vector(np.full(3, 1e308), 1.0)

    def test_matched_certificate_fields(self, sixth_order_impulse):
        g_o = sixth_order_impulse
        t = 0.3 * hp.compute_t_max(g_o)
        res = hp.solve_constrained(g_o, t)
        cert = hp.subgradient_vector(res.g_tilde, t, g_o=g_o, h=res.dual_direction)
        assert cert.t_star == t
        assert not cert.degenerate
        assert cert.residual_dir_norm >= 0.0
        # a is the norm of the component of g* orthogonal to h
        h = cert.h
        proj = h * np.dot(h, res.g_tilde.values) / np.dot(h, h)
        a_ref = np.linalg.norm(res.g_tilde.values - proj)
        assert abs(cert.residual_dir_norm - a_ref) < 1e-12


class TestGapCertificate:
    """A certificate is fixed by (h, t_star, g*): the growth rate a is
    derived from them, and h is a checked copy of the caller's array."""

    def test_growth_rate_is_not_a_parameter(self):
        with pytest.raises(TypeError):
            hp.GapCertificate(h=np.array([1.0, 0.0, 0.0]), t_star=1.0,
                              g_tilde_star=hp.ImpulseResponse([0.5, 2.0, 0.0]),
                              residual_dir_norm=1.0)

    def test_rebuilt_path_certificates_match(self, order100_path):
        # every certificate of the fixture 0-19 and order-100 seed-4 paths,
        # rebuilt from its three arrays, has the growth rate and the next
        # breakpoint of the original, bit for bit
        paths = [(g_o, hp.compute_path(g_o, 0.01), 0.01) for g_o in _fixture_family()]
        paths.append((*order100_path, 12.0))
        for g_o, pr, eps in paths:
            t_max = hp.compute_t_max(g_o)
            for c in pr.certificates:
                rebuilt = hp.GapCertificate(c.h, c.t_star, c.g_tilde_star)
                assert rebuilt.residual_dir_norm == c.residual_dir_norm
                if c.t_star < t_max:
                    assert (hp.next_breakpoint(rebuilt, g_o, eps, t_max)
                            == hp.next_breakpoint(c, g_o, eps, t_max))

    def test_caller_array_stays_writable_and_detached(self):
        a = np.array([1.0, 0.0, 0.0])
        cert = hp.GapCertificate(h=a, t_star=1.0, g_tilde_star=[0.5, 2.0, 0.0])
        assert a.flags.writeable and not cert.h.flags.writeable
        a[0] = 2.0
        assert cert.h[0] == 1.0
        # a list g* is coerced, and prices gaps: ||(0, 2 s, 0)||^2 at t = 1 + s
        assert isinstance(cert.g_tilde_star, hp.ImpulseResponse)
        assert cert.residual_dir_norm == 2.0
        g_o = np.array([0.5, 2.0, 0.0])
        assert hp.duality_gap(cert, g_o, 1.5) == 1.0

    @pytest.mark.parametrize("h", [[1e-200, 0.0, 0.0], [1e200, 0.0, 0.0], [1e-160, 3e-161, 0.0]])
    def test_tiny_and_huge_directions(self, h):
        # ||h||^2 underflows to 0, overflows, or is subnormal; the certificate
        # prices exactly as a power-of-two multiple of h at unit scale does
        h = np.array(h)
        unit = np.ldexp(h, 2 - math.frexp(np.abs(h).max())[1])
        g_star, g_o = np.array([0.5, 2.0, 0.0]), np.array([0.4, 1.0, 0.3])
        builds = (lambda d: hp.GapCertificate(d, 1.0, g_star),
                  lambda d: hp.subgradient_vector(g_star, 1.0, g_o=g_o, h=d))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for build in builds:
                cert, ref = build(h), build(unit)
                assert not cert.degenerate
                assert cert.residual_dir_norm == ref.residual_dir_norm
                assert hp.duality_gap(cert, g_o, 1.5) == hp.duality_gap(ref, g_o, 1.5)
                assert hp.next_breakpoint(cert, g_o, 2.0, 10.0) == hp.next_breakpoint(
                    ref, g_o, 2.0, 10.0)


class TestDualCertificate:
    """Z = U_dual / nu, with U_dual the solver's bit-symmetric dual and
    nu = solver._dual_norm(X, U_dual) >= ||U_dual||_2, is a nuclear-norm
    subgradient at X = admm_state[0] scaled into the unit spectral ball, and
    the certificate's h is dual_direction = adjoint(Z)."""

    @staticmethod
    def _assert_subgradient(res):
        # exactly, <U, X> = ||U||_2 ||X||_* and ||U||_2 = <U, X> (||X||_* = 1
        # outside the ball, U = 0 inside it); the computed state misses both
        # by at most _dual_norm's allowance delta
        X, U, _ = res.admm_state
        assert np.array_equal(U, U.T)
        nu = solver._dual_norm(X, U)
        x_fro, u_fro = np.linalg.norm(X), np.linalg.norm(U)
        delta = solver.NORM_ROUNDING * X.shape[0] * (1.0 + x_fro) * (x_fro + u_fro)
        norm = np.linalg.norm(U, 2)
        nuc = np.abs(np.linalg.eigvalsh(X)).sum()
        assert norm <= nu <= norm + 2.0 * delta
        assert abs(np.sum(U * X) - norm * nuc) <= delta
        cert = hp.subgradient_vector(res.g_tilde, res.t, h=res.dual_direction)
        h = hp.hankel_adjoint(U / nu)
        assert np.linalg.norm(cert.h - h) <= 1e-13 * np.linalg.norm(h)

    @staticmethod
    def _prefix_states(g_o, t, iters, monkeypatch, warm_start=None):
        """Solves stopped after 1..iters iterations, each tagged with what its
        last iteration did: a plain step, an Anderson extrapolation (a second
        projection) or a rho rescale."""
        calls = [0]
        real = solver.project_nuclear_ball

        def counting(z, radius):
            calls[0] += 1
            return real(z, radius)

        monkeypatch.setattr(solver, "project_nuclear_ball", counting)
        states, prev_calls, prev_rho = [], 0, None
        for k in range(1, iters + 1):
            calls[0] = 0
            res = hp.solve_constrained(
                g_o, t, hp.SolverOptions(max_iters=k), warm_start=warm_start
            )
            rho = res.admm_state[2]
            if prev_rho is not None and rho != prev_rho:
                kind = "rescale"
            else:
                kind = "anderson" if calls[0] - prev_calls == 2 else "plain"
            states.append((kind, res))
            prev_calls, prev_rho = calls[0], rho
        monkeypatch.undo()
        return states

    def test_cold_and_warm_converged_solves(self, sixth_order_impulse, rank1_impulse):
        for g_o in (sixth_order_impulse, rank1_impulse):
            t_max = hp.compute_t_max(g_o)
            for frac in (0.1, 0.4, 0.8):
                cold = hp.solve_constrained(g_o, frac * t_max)
                assert cold.converged
                self._assert_subgradient(cold)
                warm = hp.solve_constrained(
                    g_o, (frac + 0.05) * t_max, warm_start=cold.admm_state
                )
                assert warm.converged
                self._assert_subgradient(warm)

    def _check_path(self, monkeypatch, g_o, eps):
        pr, solves = path_solves(monkeypatch, g_o, eps)
        states = [r for r in solves if r.admm_state is not None]
        assert len(solves) == pr.m
        assert len(states) >= pr.m - 1  # only a solve at t_max is closed-form
        for res in states:
            self._assert_subgradient(res)

    def test_fixture_path(self, sixth_order_impulse, monkeypatch):
        self._check_path(monkeypatch, sixth_order_impulse, 0.01)

    def test_rank1_path(self, rank1_impulse, monkeypatch):
        self._check_path(monkeypatch, rank1_impulse, 1e-4)

    def test_order100_path(self, order100_path, monkeypatch):
        self._check_path(monkeypatch, order100_path[0], 12.0)

    @pytest.mark.parametrize("n", [2, 5, 16])
    def test_random_low_rank(self, n):
        # g_o is a sum of r exponentials, so H(g_o) has rank r; converged
        # and 20-iteration solves at two levels of t
        rng = np.random.RandomState(40 + n)
        k_max = 2 * n - 1
        for _ in range(6):
            r = int(rng.randint(1, min(n, 4) + 1))
            poles = rng.uniform(-0.95, 0.95, r)
            g_o = (rng.normal(size=r)[:, None] * poles[:, None] ** np.arange(k_max)).sum(0)
            t_max = hp.compute_t_max(g_o)
            for frac in (0.3, 0.7):
                for iters in (20, 5000):
                    opts = hp.SolverOptions(max_iters=iters)
                    self._assert_subgradient(hp.solve_constrained(g_o, frac * t_max, opts))

    def test_states_after_each_kind_of_iteration(self, sixth_order_impulse, monkeypatch):
        g_o = sixth_order_impulse
        t_max = hp.compute_t_max(g_o)
        start = hp.solve_constrained(g_o, 0.3 * t_max).admm_state
        # the cold solve at 0.5 t_max rescales rho within its 25 iterations
        states = self._prefix_states(g_o, 0.5 * t_max, 60, monkeypatch)
        states += self._prefix_states(g_o, 0.35 * t_max, 30, monkeypatch, warm_start=start)
        kinds = set()
        for kind, res in states:
            if np.any(res.admm_state[1]):
                self._assert_subgradient(res)
                kinds.add(kind)
        assert kinds == {"plain", "anderson", "rescale"}

    def test_unconverged_solve(self, sixth_order_impulse):
        g_o = sixth_order_impulse
        for frac in (0.2, 0.6):
            res = hp.solve_constrained(
                g_o, frac * hp.compute_t_max(g_o), hp.SolverOptions(max_iters=20)
            )
            assert not res.converged
            self._assert_subgradient(res)

    def test_one_cut_per_solve(self, sixth_order_impulse, order100_path, monkeypatch):
        # every loop solve of a path prices bounds[0] and hands its certificate
        # the same h, whose divisor is at or above ||U_dual||_2
        for g_o, eps in ((sixth_order_impulse, 0.01), (order100_path[0], 12.0)):
            pr, solves = path_solves(monkeypatch, g_o, eps)
            loop = [r for r in solves if r.iterations > 0]
            assert len(loop) == pr.m - 1
            for res in loop:
                h = res.dual_direction
                assert not h.flags.writeable
                assert res.bounds[0] == hp.certificates._half_space_bound(g_o.values, res.t, h)
                cert = hp.subgradient_vector(res.g_tilde, res.t, h=h)
                assert np.array_equal(cert.h, h)
                X, U, _ = res.admm_state
                assert np.linalg.norm(U, 2) <= solver._dual_norm(X, U)

    def test_every_solve_returns_its_cut(self, sixth_order_impulse, order100_path, monkeypatch):
        # a closed-form, cold, warm and stop_above solve each return a
        # read-only cut of length k_max, and a path's last certificate, at
        # t_max, takes the closed form's
        for g_o, eps in ((sixth_order_impulse, 0.01), (order100_path[0], 12.0)):
            t_max = hp.compute_t_max(g_o)
            cold = hp.solve_constrained(g_o, 0.5 * t_max)
            solves = [
                hp.solve_constrained(g_o, t_max),
                cold,
                hp.solve_constrained(g_o, 0.6 * t_max, warm_start=cold.admm_state),
                hp.solve_constrained(g_o, 0.5 * t_max, stop_above=0.0),
            ]
            assert [res.iterations > 0 for res in solves] == [False, True, True, True]
            for res in solves:
                h = res.dual_direction
                assert h.shape == (g_o.k_max,) and not h.flags.writeable
            pr, recorded = path_solves(monkeypatch, g_o, eps)
            closed = recorded[-1]
            assert closed.iterations == 0 and closed.t == pr.t_max
            ref = hp.subgradient_vector(closed.g_tilde, pr.t_max, g_o=g_o, h=closed.dual_direction)
            last = pr.certificates[-1]
            assert np.array_equal(last.h, ref.h) and last.t_star == ref.t_star
            assert last.residual_dir_norm == ref.residual_dir_norm

    def test_zero_dual_falls_back_to_plain_form(self, sixth_order_impulse):
        g_o = sixth_order_impulse
        t = 0.4 * hp.compute_t_max(g_o)
        res = hp.solve_constrained(g_o, t)
        for data in (None, g_o):
            fallback = hp.subgradient_vector(res.g_tilde, t, g_o=data, h=np.zeros(g_o.k_max))
            plain = hp.subgradient_vector(res.g_tilde, t, g_o=data)
            np.testing.assert_array_equal(fallback.h, plain.h)
            assert fallback.residual_dir_norm == plain.residual_dir_norm


class TestDualityGap:
    def test_zero_at_own_breakpoint(self, sixth_order_impulse):
        g_o = sixth_order_impulse
        budget = 1e-8 * g_o.norm() ** 2
        t_max = hp.compute_t_max(g_o)
        for t in (0.1 * t_max, 0.4 * t_max, 0.7 * t_max):
            res = hp.solve_constrained(g_o, t)
            cert = hp.subgradient_vector(res.g_tilde, t, g_o=g_o, h=res.dual_direction)
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
        cert = hp.subgradient_vector(res.g_tilde, t, g_o=g_o, h=res.dual_direction)
        a = cert.residual_dir_norm
        for delta in (0.01, 0.05, 0.1):
            gap = hp.duality_gap(cert, g_o, t + delta)
            assert abs(gap - delta**2 * a**2) <= 1e-6 * max(1.0, delta**2 * a**2)

    def test_nonnegative_and_preclamp_bounded(self, sixth_order_impulse):
        g_o = sixth_order_impulse
        t = 0.5 * hp.compute_t_max(g_o)
        res = hp.solve_constrained(g_o, t)
        cert = hp.subgradient_vector(res.g_tilde, t, g_o=g_o, h=res.dual_direction)
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
            h=h, t_star=1.0, g_tilde_star=hp.ImpulseResponse(g_star)
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

    @pytest.mark.parametrize("eps", [np.inf, np.nan])
    def test_rejects_non_finite_eps(self, eps):
        # an infinite eps used to give a nan breakpoint
        cert = self._synthetic_cert()
        with pytest.raises(ValueError, match="finite"):
            hp.next_breakpoint(cert, np.ones(3), eps=eps, t_max=2.0)

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
        cert = hp.subgradient_vector(res.g_tilde, t, g_o=g_o, h=res.dual_direction)
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
        cert = hp.subgradient_vector(res.g_tilde, t_star, g_o=g_o, h=res.dual_direction)
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

    def test_non_finite_dual_raises_before_any_arithmetic(self, sixth_order_impulse):
        # +inf and -inf at mirrored entries sum to NaN in the symmetric part,
        # with a RuntimeWarning, unless the dual is checked first
        g_o = sixth_order_impulse
        n = g_o.n
        for bad in [(np.inf, -np.inf), (np.nan, 0.0), (np.inf, np.inf)]:
            U = np.zeros((n, n))
            U[0, 1], U[1, 0] = bad
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                with pytest.raises(np.linalg.LinAlgError):
                    hp.dual_bounds(g_o, 0.3, g_o.values, U)
        # the certificate's h is checked as outside input: finite, length k_max,
        # by the constructor and by subgradient_vector alike
        k_max = g_o.k_max
        for h in (np.full(k_max, np.nan), np.r_[np.inf, np.zeros(k_max - 1)],
                  np.ones(k_max - 1), np.ones(k_max + 1), np.ones((1, k_max))):
            for g in (g_o.values, np.zeros(k_max)):
                with pytest.raises(ValueError, match="finite vector of length"):
                    hp.subgradient_vector(g, 0.3, h=h)
                with pytest.raises(ValueError, match="finite vector of length"):
                    hp.GapCertificate(h, 0.3, g)

    def test_dual_of_the_wrong_side_is_rejected(self, sixth_order_impulse):
        # the side of U sets the length of h, so a U that is not n-by-n for
        # g_o is refused rather than priced as a bound for another problem
        g_o = sixth_order_impulse
        n = g_o.n
        rng = np.random.RandomState(5)
        for side in (n - 6, n + 1):
            U = rng.standard_normal((side, side))
            with pytest.raises(ValueError):
                hp.dual_bounds(g_o, 0.3, g_o.values, U)

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
