import dataclasses
import json
import math
import os
import tracemalloc
import warnings

import numpy as np
import pytest

import hankelpath as hp

from conftest import FIXTURE_BANDS, FIXTURE_K_MAX, ORDER100_BANDS, ORDER100_SEED, path_solves
from hankelpath._textio import fmt17
from oracles import svd_2x2_singular_values


class TestTMax:
    def test_unit_impulse(self):
        assert abs(hp.compute_t_max([1.0, 0.0, 0.0]) - 1.0) < 1e-14

    def test_rank_one(self):
        assert abs(hp.compute_t_max([1.0, 0.5, 0.25]) - 1.25) < 1e-12

    def test_zero(self):
        assert hp.compute_t_max(np.zeros(5)) == 0.0

    def test_cached_value_is_the_singular_value_sum(self):
        # t_max sums the cached eigh of H(g_o), hankel_singular_values an
        # eigvalsh: the two round the eigenvalues differently, so they agree
        # to rounding, not bit for bit (fixture systems 3 and 5 differ by 3
        # and 4 ulps with OpenBLAS 0.3.31, system 10 agrees).  A fresh
        # instance and a plain array give the cached value's bits.
        for seed in (3, 5, 10):
            g_o = hp.impulse_response(hp.random_system(6, seed, bands=FIXTURE_BANDS),
                                      FIXTURE_K_MAX)
            expected = float(hp.hankel_singular_values(g_o).sum())
            t_max = hp.compute_t_max(g_o)
            lam = g_o.hankel_eigh[0]
            assert t_max == float(np.abs(lam).sum()) == hp.compute_t_max(g_o.values)
            assert abs(t_max - expected) <= g_o.n * np.finfo(float).eps * expected


class TestHankelSingularValues:
    def test_zero(self):
        np.testing.assert_array_equal(hp.hankel_singular_values(np.zeros(5)), np.zeros(3))

    def test_rank_one(self):
        np.testing.assert_allclose(
            hp.hankel_singular_values([1.0, 0.5, 0.25]), [1.25, 0.0], atol=1e-12
        )

    def test_exchange(self):
        np.testing.assert_allclose(
            hp.hankel_singular_values([0.0, 1.0, 0.0]), [1.0, 1.0], atol=1e-12
        )

    @staticmethod
    def _cases():
        """Random Hankel vectors, then indefinite (+/- lambda pairs),
        rank-deficient and zero ones, at each size."""
        rng = np.random.RandomState(6)
        for n in (1, 2, 5, 16, 26, 41):
            k = np.arange(2 * n - 1)
            for _ in range(5):
                yield rng.randn(k.size) * np.exp(rng.uniform(-6, 6))
            # g_k = a^(k-1) - (-a)^(k-1): H(g) = v v^T - w w^T, eigenvalues +/-
            a = rng.uniform(0.3, 0.9)
            yield a**k - (-a) ** k
            # a sum of r geometric modes has rank min(r, n)
            r = max(1, n // 3)
            poles = rng.uniform(-0.9, 0.9, r)
            yield (rng.randn(r)[:, None] * poles[:, None] ** k).sum(axis=0)
            yield np.zeros(k.size)

    def test_matches_svd_reference(self):
        for g in self._cases():
            H = hp.hankel_embed(g).entries
            ref = np.linalg.svd(H, compute_uv=False)
            got = hp.hankel_singular_values(g)
            assert got.shape == ref.shape
            assert np.all(np.diff(got) <= 0)
            assert np.max(np.abs(got - ref)) <= 1e-12 * ref[0]
            if H.shape == (2, 2):
                assert np.max(np.abs(got - svd_2x2_singular_values(H))) <= 1e-12 * ref[0]


class TestComputePath:
    def test_singular_values_are_t_times_the_solves(self, sixth_order_impulse, monkeypatch):
        # each record is t times the spectrum the solve took, not a fresh
        # decomposition of H(t g~); the two agree to rounding.  A loop
        # solve's spectrum is that of the H(g~) its bounds price, the
        # closed-form one (the last) that of H(g_o) over t
        g_o = sixth_order_impulse
        pr, solves = path_solves(monkeypatch, g_o, 0.01)
        assert solves[-1].iterations == 0
        for t, sig, res in zip(pr.breakpoints, pr.singular_values, solves):
            assert np.array_equal(sig, t * res.singular_values)
            fresh = hp.hankel_singular_values(t * res.g_tilde.values)
            assert np.abs(sig - fresh).max() <= 1e-14 * sig[0]
            if res.iterations:
                own = hp.hankel_singular_values(res.g_tilde)
                assert np.array_equal(res.singular_values, own)
                assert res.nuclear_norm_value == float(own.sum())
        lam = g_o.hankel_eigh[0]
        assert np.array_equal(solves[-1].singular_values, np.sort(np.abs(lam))[::-1] / pr.t_max)

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            hp.compute_path(np.zeros(5), eps=0.01)
        with pytest.raises(ValueError):
            hp.compute_path([1.0, 0.5, 0.25], eps=0.0)
        with pytest.raises(ValueError):
            hp.compute_path([1.0, 0.5, 0.25], eps=0.01, grid_points_per_segment=1)

    @pytest.mark.parametrize("eps", [1e-300, 0.01])
    @pytest.mark.parametrize("big", [1e300, 1.4e154])
    def test_overflowing_data_rejected(self, big, eps):
        # ||g_o||^2 overflows: refused as solve_constrained refuses it, before
        # any arithmetic warns (the norm, t_first or the solve cap's int())
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=r"\|\|g_o\|\|\^2"):
                hp.compute_path([big, 0.0, 0.0], eps)

    @pytest.mark.parametrize("eps", [1e-300, 5e-324])
    def test_eps_too_small_for_the_data_rejected(self, eps):
        # t1 = eps / (||g_o|| + sqrt(||g_o||^2 - eps)) underflows to 0: the
        # first solve got t = 0 ("t must be positive"), and at 5e-324 the
        # solve cap's int(inf) raised OverflowError before it
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="eps is too small"):
                hp.compute_path([1e150, 0.0, 0.0], eps)

    @pytest.mark.parametrize("eps", [np.inf, np.nan])
    def test_non_finite_eps_rejected(self, eps):
        # an infinite eps used to run and write "epsilon": inf, which is not JSON
        with pytest.raises(ValueError, match="finite"):
            hp.compute_path([1.0, 0.5, 0.25], eps=eps)

    @pytest.mark.parametrize("grid", [2.5, 1e9, 20.0, True, "20", None, np.nan])
    def test_non_integer_grid_points_rejected(self, grid):
        # a TypeError from np.linspace would break compute_path's contract of
        # raising only ValueError or PathAborted
        with pytest.raises(ValueError, match="grid_points_per_segment"):
            hp.compute_path([1.0, 0.5, 0.25], eps=0.01, grid_points_per_segment=grid)

    def test_numpy_integer_grid_points_accepted(self):
        g_o = [1.0, 0.5, 0.25]
        pr = hp.compute_path(g_o, eps=0.01, grid_points_per_segment=np.int64(3))
        assert pr.to_json() == hp.compute_path(g_o, eps=0.01, grid_points_per_segment=3).to_json()

    def test_huge_eps_gives_single_solve(self):
        g_o = hp.ImpulseResponse(np.array([1.0, 0.5, 0.25]))
        pr = hp.compute_path(g_o, eps=2.0 * g_o.norm() ** 2)
        assert pr.m == 1
        assert pr.breakpoints == [pr.t_max]
        assert all(s.gap <= 2.0 * g_o.norm() ** 2 * 1.05 for s in pr.samples)

    def test_scalar_closed_form_path(self):
        g_o = hp.ImpulseResponse(np.array([2.0]))
        eps = 0.04
        grid = 20
        pr = hp.compute_path(g_o, eps=eps, grid_points_per_segment=grid)
        assert pr.t_max == 2.0
        # after the bootstrap grid, every sample follows f_t = (min(t,2) - 2)^2
        for s in pr.samples[grid:]:
            expected = (min(s.t, 2.0) - 2.0) ** 2
            assert abs(s.f_approx - expected) < 1e-9
            assert s.gap <= 1e-12
        # bootstrap plus the t_max cap govern the solve count
        assert pr.m == 2

    def test_breakpoints_strictly_increasing_and_capped(self, sixth_order_path):
        bps = sixth_order_path.breakpoints
        assert all(a < b for a, b in zip(bps, bps[1:]))
        assert bps[-1] <= sixth_order_path.t_max * (1 + 1e-12)

    def test_segments_cover_range(self, sixth_order_path):
        pr = sixth_order_path
        ts = [s.t for s in pr.samples]
        assert ts[0] == 0.0
        assert abs(max(ts) - pr.t_max) < 1e-12
        # segment grids abut: sample times never decrease across the path
        assert all(b >= a for a, b in zip(ts, ts[1:]))
        assert pr.m == len(pr.exact_solutions) == len(pr.singular_values)

    def test_eps_guarantee_on_samples(self, sixth_order_path):
        assert all(s.gap <= 1.05 * sixth_order_path.epsilon for s in sixth_order_path.samples)

    def test_segment_samples_use_owner_solution(self, sixth_order_path, sixth_order_impulse):
        # samples come in grid-sized blocks: bootstrap first, then one block
        # per certificate segment, each priced at its owning solution made
        # exactly feasible
        pr = sixth_order_path
        g_o = sixth_order_impulse
        grid = 20
        assert len(pr.samples) == grid * pr.m
        for seg in range(pr.m - 1):
            block = pr.samples[grid * (seg + 1) : grid * (seg + 2)]
            owner = pr.exact_solutions[seg]
            assert block[0].t == pr.breakpoints[seg]
            assert block[-1].t == pr.breakpoints[seg + 1]
            for s in block:
                upper = hp.certificates.feasible_upper_bound(
                    g_o.values, s.t, owner.g_tilde.values, owner.nuclear_norm_value)
                assert abs(upper - s.f_approx) <= 1e-12

    def test_segment_tables_price_as_the_per_sample_calls(self, order100_path):
        # each segment's samples come from one residual table; at every
        # sample f_approx equals feasible_upper_bound of the owner, and the
        # gap duality_gap plus what that pricing adds over approx_objective,
        # bit for bit
        cases = [(hp.impulse_response(hp.random_system(6, seed, bands=FIXTURE_BANDS),
                                      FIXTURE_K_MAX), 0.01) for seed in range(40)]
        cases.append((order100_path[0], 12.0))
        grid = 20
        for g_o, eps in cases:
            pr = hp.compute_path(g_o, eps)
            for seg in range(pr.m - 1):
                owner = pr.exact_solutions[seg]
                cert = pr.certificates[seg]
                for s in pr.samples[grid * (seg + 1) : grid * (seg + 2)]:
                    assert s.f_approx == hp.certificates.feasible_upper_bound(
                        g_o.values, s.t, owner.g_tilde.values, owner.nuclear_norm_value)
                    f_star = hp.approx_objective(owner.g_tilde, g_o, s.t)
                    assert s.gap == hp.duality_gap(cert, g_o, s.t) + (s.f_approx - f_star)

    def test_breakpoint_rows_bound_the_optimum_from_above(self):
        # the first row of every certified segment, at its breakpoint, where
        # g* is the solve's own iterate and f(g*) can dip below the optimum:
        # its f_approx, the objective of a feasible point, stays at or above
        # a tight solve's lower bound.  Priced at g* itself, 18 of these 50
        # rows fell below it, in 14 of the 20 systems
        tight = hp.SolverOptions(primal_tol=1e-12, dual_tol=1e-12)
        grid = 20
        rows = []
        for seed in range(20):
            g_o = hp.impulse_response(hp.random_system(6, seed, bands=FIXTURE_BANDS),
                                      FIXTURE_K_MAX)
            pr = hp.compute_path(g_o, 0.01)
            for seg in range(pr.m - 1):
                t, f_approx, _ = pr.samples[grid * (seg + 1)]
                assert t == pr.breakpoints[seg]
                lower = hp.solve_constrained(g_o, t, tight).bounds[0]
                rows.append((seed, t, f_approx >= lower))
        assert len(rows) == 50
        assert [(seed, t) for seed, t, ok in rows if not ok] == []

    def test_fresh_gap_tiny_at_breakpoints(self, sixth_order_path, sixth_order_impulse):
        pr = sixth_order_path
        g_o = sixth_order_impulse
        budget = 1e-6 * (1 + g_o.norm() ** 2)
        for t, cert in zip(pr.breakpoints, pr.certificates):
            assert hp.duality_gap(cert, g_o, t) <= budget

    def test_final_breakpoint_is_perfect_fit(self, sixth_order_path, sixth_order_impulse):
        pr = sixth_order_path
        last = pr.exact_solutions[-1]
        assert pr.breakpoints[-1] == pr.t_max
        assert last.objective <= 1e-8 * sixth_order_impulse.norm() ** 2

    def test_sigma3_drop_prefix(self, sixth_order_path):
        # small-t solutions are (numerically) rank-two: third singular value drops
        pr = sixth_order_path
        ratios = [s[2] / s[0] for s in pr.singular_values]
        assert ratios[0] <= 0.05
        prefix = 0
        for v in ratios:
            if v <= 0.05:
                prefix += 1
            else:
                break
        assert prefix >= 1

    def test_bootstrap_segment_certified(self, sixth_order_path, sixth_order_impulse):
        pr = sixth_order_path
        g_o = sixth_order_impulse
        f_zero = g_o.norm() ** 2
        block = pr.samples[:20]  # the zero-model segment
        assert block[0].t == 0.0
        assert block[-1].t == pr.bootstrap_t
        for s in block:
            # the zero model is feasible as it is, and prices its own objective
            assert s.f_approx == f_zero
            assert s.gap == hp.bootstrap_gap(g_o, s.t)
        # the bound reaches exactly eps at the first breakpoint
        assert abs(block[-1].gap - pr.epsilon) < 1e-12

    def test_abort_carries_partial_path(self, sixth_order_impulse):
        opts = hp.SolverOptions(max_iters=2)
        with pytest.raises(hp.PathAborted) as err:
            hp.compute_path(sixth_order_impulse, eps=0.01, solver_opts=opts)
        assert err.value.partial.partial is True
        assert err.value.partial.m == 0

    def test_untight_certificate_aborts_with_partial_path(self, sixth_order_impulse, monkeypatch):
        # a certificate whose h is orthogonal to the residual at t* prices the
        # whole residual as gap, far above eps at the first breakpoint; h is
        # built from g* because the real h is snapped onto the residual, so
        # its orthogonal part is roundoff
        real = hp.path.subgradient_vector

        def untight(g_tilde, t_star, g_o, h=None):
            cert = real(g_tilde, t_star, g_o=g_o, h=h)
            g_star = cert.g_tilde_star.values
            res = t_star * g_star - hp.as_impulse(g_o).values
            h = g_star - res * np.dot(g_star, res) / np.dot(res, res)
            return dataclasses.replace(cert, h=h)

        monkeypatch.setattr(hp.path, "subgradient_vector", untight)
        with pytest.raises(hp.PathAborted, match="already") as err:
            hp.compute_path(sixth_order_impulse, eps=0.01)
        partial = err.value.partial
        assert partial.partial is True
        assert partial.m == 1 and len(partial.certificates) == 1
        assert len(partial.samples) == 20  # the zero-model segment only

    def test_degenerate_breakpoint_aborts_with_partial_path(self):
        # the first solve of g_o = [2] at eps = 1e-16 ||g_o||^2 (t = 1e-16)
        # stops after one iteration at g~ = 0, which has no certificate: the
        # path ends in the documented PathAborted, and its partial path
        # keeps no solve without a certificate
        with pytest.raises(hp.PathAborted, match="h = 0") as err:
            hp.compute_path([2.0], 4e-16)
        partial = err.value.partial
        assert partial.partial is True
        assert partial.m == 0 and partial.certificates == []
        assert len(partial.samples) == 20  # the zero-model segment only

    def test_wide_system_sample_gaps_stay_within_eps(self, wide_path):
        # the n = 41 path of the order-100 system: a step off the exact gap
        # crossing showed up here as a sample gap of 1.029 eps
        _, pr = wide_path
        assert max(s.gap for s in pr.samples) <= pr.epsilon * (1 + 1e-9)

    def test_deterministic(self, sixth_order_impulse):
        a = hp.compute_path(sixth_order_impulse, eps=0.01)
        b = hp.compute_path(sixth_order_impulse, eps=0.01)
        assert a.to_json() == b.to_json()


def _worst_breakpoint_ratio(g_o, pr):
    """Largest gap at a breakpoint over the path, in units of the
    criterion-3 budget 1e-6 (1 + ||g_o||^2)."""
    budget = 1e-6 * (1 + hp.as_impulse(g_o).norm() ** 2)
    return max(hp.duality_gap(c, g_o, t) / budget for t, c in zip(pr.breakpoints, pr.certificates))


def _order100_family_path(seed, k_max, eps):
    g_o = hp.impulse_response(hp.random_system(100, seed, bands=ORDER100_BANDS), k_max)
    return g_o, hp.compute_path(g_o, eps=eps)


class TestZeroModel:
    """The zero model's bound ||g_o||^2 - max(0, ||g_o|| - t)^2 as
    t (2 ||g_o|| - t), and its level t1 as eps / (||g_o|| + sqrt(||g_o||^2 - eps)):
    neither form cancels at small eps.  The subtractive forms read
    bootstrap_gap(g_o, t1) = 1.019 eps at k = 14 and 1.116 eps at k = 15 on
    the fixture, rounded t1 to 0 at k = 16, and read 2.22 eps on g_o = [2]
    at k = 16."""

    @pytest.mark.parametrize("k", range(1, 18))
    def test_gap_at_t1_is_eps(self, k, sixth_order_impulse):
        for g_o in (sixth_order_impulse, hp.ImpulseResponse([2.0])):
            norm = g_o.norm()
            eps = 10.0**-k * norm**2
            t1 = hp.path._bootstrap_t(norm, eps)
            assert t1 > 0
            assert abs(hp.bootstrap_gap(g_o, t1) / eps - 1) <= 4 * np.finfo(float).eps

    def test_gap_saturates_at_the_norm(self, sixth_order_impulse):
        norm = sixth_order_impulse.norm()
        assert hp.path._bootstrap_t(norm, norm**2) == math.inf
        for t in (norm, 2 * norm, math.inf):
            assert hp.bootstrap_gap(sixth_order_impulse, t) == norm * norm

    @pytest.mark.parametrize("t", [-1.0, -math.inf, math.nan])
    def test_rejects_a_negative_or_nan_level(self, t):
        # at t = -1 the zero model's excess read -5.0 on g_o = [2]
        with pytest.raises(ValueError):
            hp.bootstrap_gap([2.0], t)


class TestHeldOutTightness:
    """Criterion 3, each certificate's gap vanishing at its own breakpoint,
    on paths outside the acceptance fixtures.  A certificate that searched
    for W over truncation cuts missed it on fixture seeds 81 and 89 (up to
    28.6 budgets) and on order-100 seeds 5-8 (up to 1,900)."""

    def test_fixture_family(self):
        worst = {}
        for seed in range(120):
            spec = hp.random_system(6, seed, bands=FIXTURE_BANDS)
            g_o = hp.impulse_response(spec, FIXTURE_K_MAX)
            worst[seed] = _worst_breakpoint_ratio(g_o, hp.compute_path(g_o, eps=0.01))
        seed = max(worst, key=worst.get)
        assert worst[seed] <= 1.0, f"seed {seed}: gap {worst[seed]:.3g} budgets"

    @pytest.mark.parametrize("seed", range(4, 9))
    def test_order100_family(self, seed, order100_path):
        if seed == ORDER100_SEED:
            g_o, pr = order100_path
        else:
            g_o, pr = _order100_family_path(seed, 51, 12.0)
        assert _worst_breakpoint_ratio(g_o, pr) <= 1.0

    @pytest.mark.parametrize("seed", [4, 5])
    def test_wide_family(self, seed, wide_path):
        if seed == ORDER100_SEED:
            g_o, pr = wide_path
        else:
            g_o, pr = _order100_family_path(seed, 81, 40.0)
        assert _worst_breakpoint_ratio(g_o, pr) <= 1.0

    def test_n100_path(self):
        # the largest path of the held-out table, n = 100 (k_max = 199, eps = 40)
        g_o, pr = _order100_family_path(ORDER100_SEED, 199, 40.0)
        assert all(r.converged for r in pr.exact_solutions)
        assert _worst_breakpoint_ratio(g_o, pr) <= 1.0


class TestFinePaths:
    """The paper's O(1/sqrt(eps)) law: each certified segment advances t by
    at least about sqrt(eps), since the gap's growth rate a <= ||g*||_2 <=
    ||H(g*)||_* <= 1, so m <= (t_max - bootstrap_t) / sqrt(eps) + 2 (the
    first solve and the one at t_max)."""

    @staticmethod
    def _assert_law(g_o, ks, opts=None):
        grid = 20
        for k in ks:
            eps = 10.0**-k * g_o.norm() ** 2
            pr = hp.compute_path(g_o, eps, solver_opts=opts)
            assert not pr.partial
            assert pr.m <= (pr.t_max - pr.bootstrap_t) / np.sqrt(eps) + 2
            # criteria 2 and 3 on every such path.  A sample's gap is the
            # certificate's plus f(g_hat) - f(g*), what pricing f_approx at
            # the owner's feasible point g_hat adds.  The certificate part
            # meets eps to rounding: a breakpoint steps to the exact
            # crossing of eps, and its samples price the same gap, so the
            # last sample of a segment reads eps to about
            # u ||t g* - g_o|| / sqrt(eps) (u the unit roundoff): 1.9e-13
            # relative at k = 6, against 1.2e-9 when the samples took the
            # gap as ||res||^2 - <h, res>^2 / ||h||^2.  The reported gap
            # meets criterion 2's 1.05 eps (at most 1.0247 eps, at k = 6 on
            # the fixture)
            s = pr.samples
            f_star = np.concatenate([s.f_approx[:grid]] + [
                np.sum((s.t[grid * (i + 1) : grid * (i + 2), None] * sol.g_tilde.values
                        - g_o.values) ** 2, axis=-1)
                for i, sol in enumerate(pr.exact_solutions[:-1])
            ])
            assert np.max(s.gap - (s.f_approx - f_star)) <= (1 + 1e-11) * eps
            assert np.max(s.gap) <= 1.05 * eps
            assert _worst_breakpoint_ratio(g_o, pr) <= 1.0

    def test_solve_count_law(self, sixth_order_impulse):
        # m / bound measured 0.43 at k = 1, falling to 0.34 at k = 5 and
        # 0.343 at k = 6 (m = 1,066, about 2 s)
        self._assert_law(sixth_order_impulse, range(1, 7))

    def test_solve_count_law_order100(self, order100_spec):
        # the order-100 system at n = 26 with the bench's iteration budget:
        # m = 8, 22, 64, 196 and 615, so m / bound falls from 0.362 to 0.304,
        # and the largest sample gap is eps to rounding (1 + 6.5e-14 at
        # k = 5, whose path takes about 26,000 iterations)
        g_o = hp.impulse_response(order100_spec, 51)
        self._assert_law(g_o, range(1, 6), hp.SolverOptions(max_iters=200000))


class TestScaleCovariance:
    """One system at residue scales 1e-6 to 1e6, eps relative to ||g_o||^2:
    the same path in units of ||g_o||.  With the solver's constants in the
    data's units, the scales 1e-6, 1e-3 and 1e6 aborted."""

    @pytest.mark.parametrize("rel_eps, m", [(1e-4, 76), (1e-2, 9)])
    def test_same_path_at_every_scale(self, rel_eps, m):
        base = hp.random_system(6, 3, bands=FIXTURE_BANDS)
        ref = None
        for scale in (1.0, 1e-6, 1e-3, 1e3, 1e6):
            spec = dataclasses.replace(base, residues=tuple(scale * r for r in base.residues))
            g_o = hp.impulse_response(spec, FIXTURE_K_MAX)
            pr = hp.compute_path(g_o, rel_eps * g_o.norm() ** 2)
            assert pr.m == m
            unit = np.array(pr.breakpoints) / g_o.norm()
            if ref is None:
                ref = unit
            np.testing.assert_allclose(unit, ref, rtol=1e-6)


class TestLeanPathResult:
    """A PathResult holds what the path reports: one solve per breakpoint,
    with no splitting state, and the samples as one record array."""

    @staticmethod
    def _assert_stateless(pr):
        # each solve keeps its spectrum, one read-only array of its own (a
        # reversed view would hold a second array object), and the path
        # reports t times it
        assert pr.exact_solutions
        assert all(r.admm_state is None and r.dual_direction is None for r in pr.exact_solutions)
        assert pr.breakpoints == [r.t for r in pr.exact_solutions]
        for r, sig in zip(pr.exact_solutions, pr.singular_values):
            sv = r.singular_values
            assert sv.flags.c_contiguous and sv.base is None and not sv.flags.writeable
            assert np.array_equal(sig, r.t * sv)

    def test_completed_paths_hold_no_state(self, sixth_order_path, order100_path):
        for pr in (sixth_order_path, order100_path[1]):
            self._assert_stateless(pr)

    def test_partial_path_holds_no_state(self, order100_path):
        # the seventh solve needs more than 80 iterations, the six before fewer
        g_o, _ = order100_path
        with pytest.raises(hp.PathAborted) as err:
            hp.compute_path(g_o, 12.0, solver_opts=hp.SolverOptions(max_iters=80))
        partial = err.value.partial
        assert partial.m >= 2
        self._assert_stateless(partial)

    def test_partial_samples_are_the_full_paths_prefix(self, order100_path):
        # six priced segments after the bootstrap one: 7 x 20 rows, the same
        # bits as the first 140 of the finished path
        g_o, full = order100_path
        with pytest.raises(hp.PathAborted) as err:
            hp.compute_path(g_o, 12.0, solver_opts=hp.SolverOptions(max_iters=80))
        partial = err.value.partial
        assert partial.partial and partial.m == 6
        assert partial.breakpoints == full.breakpoints[:6]
        samples = partial.samples
        assert samples.shape == (140,)
        assert np.array_equal(samples, full.samples[:140])
        assert not samples.flags.writeable
        with pytest.raises(ValueError):
            samples[0] = (1.0, 1.0, 1.0)
        with pytest.raises(ValueError):
            samples.t[0] = 1.0

    def test_table_serializes_as_the_sample_list(self, sixth_order_path, tmp_path):
        pr = sixth_order_path
        rows = pr.samples.tolist()
        assert all(type(s) is tuple and type(s[2]) is float for s in rows)
        listed = dataclasses.replace(pr, samples=rows)
        assert type(listed.samples) is np.recarray
        assert listed.to_json() == pr.to_json()
        # the samples part of to_json and samples.csv, written from the list
        fields = ("t", "f_approx", "gap")
        doc = ", ".join(
            "{%s}" % ", ".join('"%s": %s' % (k, fmt17(v)) for k, v in zip(fields, s)) for s in rows
        )
        assert '"samples": [%s]}' % doc in pr.to_json()
        csv = "t,f_approx,gap\n" + "".join(",".join(map(fmt17, s)) + "\n" for s in rows)
        pr.write_samples_csv(tmp_path / "samples.csv")
        assert (tmp_path / "samples.csv").read_text() == csv
        # rows by index, by negative index, by slice and by iteration
        assert len(pr.samples) == len(rows)
        assert [pr.samples[i].tolist() for i in range(len(rows))] == rows
        assert [tuple(s) for s in pr.samples] == rows
        assert pr.samples[-1].tolist() == rows[-1]
        assert pr.samples[3:45:2].tolist() == rows[3:45:2]
        # each column is the field read off the rows, and is read-only too
        for k, name in enumerate(fields):
            column = getattr(pr.samples, name)
            assert column.tolist() == [s[k] for s in rows]
            assert column.tolist() == [getattr(s, name) for s in pr.samples]
            with pytest.raises(ValueError):
                column[0] = 1.0

    def test_table_takes_only_rows_of_three(self, sixth_order_path):
        # a reshape to (-1, 3) split a six-wide row into two samples
        pr = sixth_order_path
        for bad in ([[1, 2, 3, 4, 5, 6]], np.zeros((2, 6)), [1.0, 2.0, 3.0], [[1, 2]],
                    np.zeros((2, 3, 1))):
            with pytest.raises(ValueError, match=r"\(N, 3\) rows"):
                dataclasses.replace(pr, samples=bad)
        for empty in ((), [], np.zeros((0, 3)), pr.samples[:0]):
            assert dataclasses.replace(pr, samples=empty).samples.shape == (0,)
        one = dataclasses.replace(pr, samples=[(0.5, 1.0, 2.0)]).samples
        assert one.tolist() == [(0.5, 1.0, 2.0)]
        t, f_approx, gap = one[0]
        assert (t, f_approx, gap) == (one.t[0], one.f_approx[0], one.gap[0]) == (0.5, 1.0, 2.0)
        # a record array passed in is kept, read-only
        kept = dataclasses.replace(pr, samples=pr.samples[pr.samples.t > 0]).samples
        assert np.array_equal(kept, pr.samples[1:]) and not kept.flags.writeable

    def test_order100_path_is_small(self, order100_path):
        # 156 KB with every solve's splitting state and a list of samples
        g_o, _ = order100_path
        hp.compute_path(g_o, 12.0)  # caches filled outside the measurement
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            pr = hp.compute_path(g_o, 12.0)
            held = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert pr.m == 10
        assert held < 40_000


class TestSerialization:
    def test_json_schema_and_roundtrip(self, sixth_order_path, tmp_path):
        pr = sixth_order_path
        path = tmp_path / "path.json"
        pr.write_json(path)
        doc = json.loads(path.read_text())
        for key in ("epsilon", "t_max", "breakpoints", "objectives", "singular_values", "samples"):
            assert key in doc
        assert doc["m"] == pr.m
        assert doc["partial"] is False
        np.testing.assert_array_equal(doc["breakpoints"], pr.breakpoints)
        np.testing.assert_array_equal(doc["objectives"], pr.objectives)
        assert len(doc["samples"]) == len(pr.samples)
        s0 = doc["samples"][0]
        assert set(s0) == {"t", "f_approx", "gap"}
        # 17 significant digits round-trip exactly
        assert doc["t_max"] == pr.t_max

    def test_samples_csv(self, sixth_order_path, tmp_path):
        pr = sixth_order_path
        path = tmp_path / "samples.csv"
        pr.write_samples_csv(path)
        lines = path.read_text().strip().split("\n")
        assert lines[0] == "t,f_approx,gap"
        assert len(lines) == 1 + len(pr.samples)
        t, f, gap = (float(x) for x in lines[1].split(","))
        assert (t, f, gap) == (pr.samples[0].t, pr.samples[0].f_approx, pr.samples[0].gap)

    def test_write_to_a_device(self, sixth_order_impulse):
        # a device is written as a stream, never cut to length
        hp.write_impulse_csv(sixth_order_impulse, os.devnull)

    def test_writers_match_per_float_fmt17(self, sixth_order_path, tmp_path):
        # the writers format one "%.17g" pattern per row; every float must
        # come out as fmt17 renders it alone, signed zeros, subnormals and
        # the ends of the float range among them
        edge = [-0.0, 0.0, 5e-324, -1e-310, 2.2250738585072014e-308, 1e-300, 0.1,
                1.0 / 3.0, -2.5e-17, 123456789012345678.0, 1e308, -1.7976931348623157e308,
                1.7976931348623157e308, 1.0, -7.0]
        rows = [edge[i : i + 3] for i in range(0, len(edge), 3)]
        # each breakpoint's row is t times its solve's spectrum: every edge
        # float as a t over the spectrum [1] and in a spectrum at t = 1, both
        # products exact
        ts = edge + [1.0]
        sigmas = [[1.0]] * len(edge) + [edge]
        reported = [[t] for t in edge] + [edge]
        solve = sixth_order_path.exact_solutions[0]
        pr = dataclasses.replace(sixth_order_path, samples=rows, exact_solutions=[
            dataclasses.replace(solve, t=t, singular_values=np.array(sig))
            for t, sig in zip(ts, sigmas)
        ])
        doc = ", ".join(
            '{"t": %s, "f_approx": %s, "gap": %s}' % tuple(map(fmt17, row)) for row in rows
        )
        assert pr.to_json().endswith('"samples": [%s]}\n' % doc)
        assert '"breakpoints": [%s]' % ", ".join(map(fmt17, ts)) in pr.to_json()
        assert '"singular_values": [%s]' % ", ".join(
            "[%s]" % ", ".join(map(fmt17, sig)) for sig in reported
        ) in pr.to_json()
        pr.write_samples_csv(tmp_path / "samples.csv")
        assert (tmp_path / "samples.csv").read_text() == "t,f_approx,gap\n" + "".join(
            ",".join(map(fmt17, row)) + "\n" for row in rows
        )
        pr.write_singular_values_csv(tmp_path / "sv.csv")
        assert (tmp_path / "sv.csv").read_text() == "t," + ",".join(
            f"sigma_{j + 1}" for j in range(len(edge))
        ) + "\n" + "".join(
            fmt17(t) + "," + ",".join(map(fmt17, sig)) + "\n"
            for t, sig in zip(ts, reported)
        )

    def test_singular_values_csv(self, sixth_order_path, tmp_path):
        pr = sixth_order_path
        path = tmp_path / "sv.csv"
        pr.write_singular_values_csv(path)
        lines = path.read_text().strip().split("\n")
        n = len(pr.singular_values[0])
        assert lines[0] == "t," + ",".join(f"sigma_{j+1}" for j in range(n))
        assert len(lines) == 1 + pr.m
        row = [float(x) for x in lines[1].split(",")]
        assert row[0] == pr.breakpoints[0]
        np.testing.assert_array_equal(row[1:], pr.singular_values[0])
