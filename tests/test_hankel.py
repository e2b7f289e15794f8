import warnings

import numpy as np
import pytest

import hankelpath as hp
from hankelpath.hankel import symmetric_singular_values

from oracles import adjoint_double_sum, inner_product_pair


class TestImpulseResponse:
    def test_odd_length_kept(self):
        g = hp.ImpulseResponse(np.array([1.0, 2.0, 3.0]))
        assert g.k_max == 3 and g.n == 2

    def test_even_length_padded_with_trailing_zero(self):
        g = hp.ImpulseResponse(np.array([1.0, 2.0]))
        assert g.k_max == 3
        assert g.values[-1] == 0.0
        np.testing.assert_array_equal(g.values[:2], [1.0, 2.0])

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            hp.ImpulseResponse(np.array([1.0, np.nan, 2.0]))

    @pytest.mark.parametrize("values, defect", [(np.ones((2, 2)), "1-d"), ([], "at least one")],
                             ids=["matrix", "empty"])
    def test_rejects_other_shapes(self, values, defect):
        with pytest.raises(ValueError, match=defect):
            hp.ImpulseResponse(values)

    def test_no_multiplicities_below_n_1(self):
        with pytest.raises(ValueError):
            hp.multiplicities(0)

    def test_values_read_only(self):
        g = hp.ImpulseResponse(np.array([1.0, 2.0, 3.0]))
        with pytest.raises(ValueError):
            g.values[0] = 5.0


class TestSymmetricSpectrum:
    """ImpulseResponse.hankel_eigh and symmetric_singular_values call the
    LAPACK gufuncs of np.linalg.eigh and np.linalg.eigvalsh directly."""

    @staticmethod
    def _symmetric(rng, n):
        M = rng.randn(n, n)
        return M + M.T

    def test_same_bits_as_np_linalg(self):
        rng = np.random.RandomState(8)
        for n in (1, 2, 5, 16, 26):
            g = rng.randn(2 * n - 1)
            lam, Q = hp.ImpulseResponse(g).hankel_eigh
            ref_lam, ref_Q = np.linalg.eigh(hp.hankel_embed(g).entries)
            assert np.array_equal(lam, ref_lam) and np.array_equal(Q, ref_Q)
            H = self._symmetric(rng, n)
            ref = np.sort(np.abs(np.linalg.eigvalsh(H)))[::-1]
            assert np.array_equal(symmetric_singular_values(H), ref)

    @pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
    def test_non_finite_entry_raises_without_warning(self, bad):
        # the gufuncs would return NaNs, with a RuntimeWarning from n = 3 on
        rng = np.random.RandomState(9)
        for n in (1, 3, 8, 26):
            H = self._symmetric(rng, n)
            i, j = rng.randint(n, size=2)
            H[i, j] = H[j, i] = bad
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                with pytest.raises(np.linalg.LinAlgError):
                    symmetric_singular_values(H)

    def test_overflowing_spectrum_raises_without_warning(self):
        # H(g) has finite entries 1e308 and the eigenvalue 2e308
        g = np.full(3, 1e308)
        for read in (hp.hankel_singular_values, hp.compute_t_max):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                with pytest.raises(np.linalg.LinAlgError):
                    read(g)

    def test_cached_decomposition(self, sixth_order_impulse):
        g = sixth_order_impulse
        lam, Q = g.hankel_eigh
        assert g.hankel_eigh[0] is lam
        assert not (lam.flags.writeable or Q.flags.writeable)
        H = hp.hankel_embed(g).entries
        assert np.abs((Q * lam) @ Q.T - H).max() <= 1e-14 * np.abs(lam).max()
        assert hp.compute_t_max(g) == float(np.abs(lam).sum())


class TestEmbed:
    def test_basic_pattern(self):
        H = hp.hankel_embed([1.0, 2.0, 3.0])
        np.testing.assert_array_equal(H.entries, [[1.0, 2.0], [2.0, 3.0]])

    def test_zero_vector(self):
        H = hp.hankel_embed(np.zeros(5))
        np.testing.assert_array_equal(H.entries, np.zeros((3, 3)))

    def test_geometric_vector(self):
        H = hp.hankel_embed([1.0, 0.5, 0.25])
        np.testing.assert_array_equal(H.entries, [[1.0, 0.5], [0.5, 0.25]])

    def test_even_raw_input_rejected(self):
        with pytest.raises(ValueError, match="even-length"):
            hp.hankel_embed([1.0, 2.0])

    def test_even_input_allowed_via_impulse_response(self):
        H = hp.hankel_embed(hp.ImpulseResponse(np.array([1.0, 2.0])))
        np.testing.assert_array_equal(H.entries, [[1.0, 2.0], [2.0, 0.0]])

    def test_caller_array_stays_writable_and_detached(self):
        g = np.ones(5)
        H = hp.hankel_embed(g)
        g /= 2
        np.testing.assert_array_equal(H.entries, np.ones((3, 3)))
        M = np.ones((3, 3))
        H = hp.HankelMatrix(entries=M)
        M[0, 0] = 7.0
        assert H.entries[0, 0] == 1.0
        with pytest.raises(ValueError):
            H.entries[0, 0] = 2.0

    def test_side_length_is_read_off_the_entries(self):
        assert hp.HankelMatrix(np.eye(2)).n == 2
        assert hp.hankel_embed(np.ones(7)).n == 4
        with pytest.raises(TypeError):
            hp.HankelMatrix(entries=np.eye(2), n=5)
        with pytest.raises(ValueError, match="square"):
            hp.HankelMatrix(np.ones((2, 3)))

    def test_symmetry_and_linearity(self):
        rng = np.random.RandomState(0)
        for _ in range(50):
            n = rng.randint(1, 8)
            g1 = rng.randn(2 * n - 1)
            g2 = rng.randn(2 * n - 1)
            a, b = rng.randn(2)
            H1 = hp.hankel_embed(g1).entries
            np.testing.assert_array_equal(H1, H1.T)
            np.testing.assert_array_equal(
                hp.hankel_embed(a * g1 + b * g2).entries, a * H1 + b * hp.hankel_embed(g2).entries
            )


class TestAdjoint:
    def test_unit_corner(self):
        np.testing.assert_array_equal(
            hp.hankel_adjoint([[1.0, 0.0], [0.0, 0.0]]), [1.0, 0.0, 0.0]
        )

    def test_ones(self):
        np.testing.assert_array_equal(hp.hankel_adjoint(np.ones((2, 2))), [1.0, 2.0, 1.0])

    def test_cached_indices_read_only_and_repeatable(self):
        # embed_indices is the one index table: hankel_embed gathers and
        # adjoint_fast scatters through the same cached, read-only array
        from hankelpath.hankel import embed_indices

        idx = embed_indices(5)
        assert embed_indices(5) is idx
        with pytest.raises(ValueError):
            idx[2, 0] = 0
        with pytest.raises(ValueError):
            idx.ravel()[0] = 1
        np.testing.assert_array_equal(idx, np.add.outer(np.arange(5), np.arange(5)))

    def test_both_adjoints_match_double_sum_on_views(self):
        # n and k_max come from M alone, for any memory layout of M
        from hankelpath.hankel import adjoint_fast

        rng = np.random.RandomState(4)
        for n in range(1, 31):
            base = rng.randn(2 * n, 2 * n)
            for M in (base[:n, :n], base[:n, :n].T, base[::-1, ::-1][:n, :n],
                      base[::2, 1::2], base[:n, :n].copy()):
                want = adjoint_double_sum(M)
                assert hp.hankel_adjoint(M).shape == want.shape == (2 * n - 1,)
                np.testing.assert_allclose(hp.hankel_adjoint(M), want, rtol=0, atol=1e-12)
                np.testing.assert_allclose(adjoint_fast(M), want, rtol=0, atol=1e-12)

    def test_matches_double_sum_oracle(self):
        rng = np.random.RandomState(1)
        for _ in range(100):
            n = rng.randint(1, 9)
            M = rng.randn(n, n)
            np.testing.assert_allclose(
                hp.hankel_adjoint(M), adjoint_double_sum(M), rtol=0, atol=1e-12
            )

    def test_adjoint_identity(self):
        rng = np.random.RandomState(2)
        for _ in range(200):
            n = rng.randint(1, 9)
            g = rng.randn(2 * n - 1)
            M = rng.randn(n, n)
            lhs = inner_product_pair(g, M)
            rhs = float(np.dot(g, hp.hankel_adjoint(M)))
            assert abs(lhs - rhs) <= 1e-10 * (np.linalg.norm(g) * np.linalg.norm(M))

    def test_rejects_non_square(self):
        with pytest.raises(ValueError):
            hp.hankel_adjoint(np.ones((2, 3)))


class TestMultiplicities:
    @pytest.mark.parametrize(
        "n,expected",
        [(1, [1.0]), (2, [1.0, 2.0, 1.0]), (3, [1.0, 2.0, 3.0, 2.0, 1.0])],
    )
    def test_values(self, n, expected):
        np.testing.assert_array_equal(hp.multiplicities(n), expected)

    def test_cached_and_read_only(self):
        # every solve reads it, so it is computed once per n and shared
        w = hp.multiplicities(7)
        assert hp.multiplicities(7) is w and not w.flags.writeable
        with pytest.raises(ValueError):
            w[0] = 2.0

    def test_composition_is_exact(self):
        # adjoint(embed(g)) must equal multiplicities * g bit for bit
        rng = np.random.RandomState(3)
        for _ in range(300):
            n = rng.randint(1, 20)
            g = rng.randn(2 * n - 1) * np.exp(rng.uniform(-8, 8))
            lhs = hp.hankel_adjoint(hp.hankel_embed(g).entries)
            rhs = hp.multiplicities(n) * g
            assert np.array_equal(lhs, rhs)


class TestFileFormats:
    def test_csv_round_trip(self, tmp_path):
        g = hp.ImpulseResponse(np.array([1.0, -0.1234567890123456789, 3e-17]))
        path = tmp_path / "g.csv"
        hp.write_impulse_csv(g, path)
        back = hp.read_impulse_csv(path)
        np.testing.assert_array_equal(back.values, g.values)

    def test_json_round_trip(self, tmp_path):
        g = hp.ImpulseResponse(np.array([0.1, 0.2, 0.3, 0.4, 0.5]))
        path = tmp_path / "g.json"
        hp.write_impulse_json(g, path)
        back = hp.read_impulse_json(path)
        np.testing.assert_array_equal(back.values, g.values)

    def test_json_k_max_mismatch_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"k_max": 5, "values": [1.0, 2.0, 3.0]}')
        with pytest.raises(ValueError):
            hp.read_impulse_json(path)

    def test_json_values_not_numbers_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"values": [{}]}')
        with pytest.raises(ValueError, match='"values"'):
            hp.read_impulse_json(path)
