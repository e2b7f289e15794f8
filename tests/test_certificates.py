import tracemalloc

import numpy as np
import pytest

import hankelpath as hp
from hankelpath.certificates import _match_subgradient
from hankelpath.hankel import embed_indices

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
