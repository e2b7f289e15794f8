import json

import numpy as np
import pytest

import hankelpath as hp

from oracles import svd_2x2_singular_values


class TestTMax:
    def test_unit_impulse(self):
        assert abs(hp.compute_t_max([1.0, 0.0, 0.0]) - 1.0) < 1e-14

    def test_rank_one(self):
        assert abs(hp.compute_t_max([1.0, 0.5, 0.25]) - 1.25) < 1e-12

    def test_zero(self):
        assert hp.compute_t_max(np.zeros(5)) == 0.0


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
    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            hp.compute_path(np.zeros(5), eps=0.01)
        with pytest.raises(ValueError):
            hp.compute_path([1.0, 0.5, 0.25], eps=0.0)
        with pytest.raises(ValueError):
            hp.compute_path([1.0, 0.5, 0.25], eps=0.01, grid_points_per_segment=1)

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
        # per certificate segment, each evaluated with its owning solution
        pr = sixth_order_path
        g_o = sixth_order_impulse
        grid = 20
        assert len(pr.samples) == grid * pr.m
        for seg in range(pr.m - 1):
            block = pr.samples[grid * (seg + 1) : grid * (seg + 2)]
            owner = pr.exact_solutions[seg].g_tilde
            assert block[0].t == pr.breakpoints[seg]
            assert block[-1].t == pr.breakpoints[seg + 1]
            for s in block:
                assert abs(hp.approx_objective(owner, g_o, s.t) - s.f_approx) <= 1e-12

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
            assert abs(s.f_approx - f_zero) < 1e-12
            assert abs(s.gap - hp.bootstrap_gap(g_o, s.t)) < 1e-15
        # the bound reaches exactly eps at the first breakpoint
        assert abs(block[-1].gap - pr.epsilon) < 1e-12

    def test_abort_carries_partial_path(self, sixth_order_impulse):
        opts = hp.SolverOptions(max_iters=2)
        with pytest.raises(hp.PathAborted) as err:
            hp.compute_path(sixth_order_impulse, eps=0.01, solver_opts=opts)
        assert err.value.partial.partial is True
        assert err.value.partial.m == 0

    def test_deterministic(self, sixth_order_impulse):
        a = hp.compute_path(sixth_order_impulse, eps=0.01)
        b = hp.compute_path(sixth_order_impulse, eps=0.01)
        assert a.to_json() == b.to_json()


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
