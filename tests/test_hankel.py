import numpy as np
import pytest

import hankelpath as hp

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

    def test_values_read_only(self):
        g = hp.ImpulseResponse(np.array([1.0, 2.0, 3.0]))
        with pytest.raises(ValueError):
            g.values[0] = 5.0


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
        H = hp.HankelMatrix(entries=M, n=3)
        M[0, 0] = 7.0
        assert H.entries[0, 0] == 1.0
        with pytest.raises(ValueError):
            H.entries[0, 0] = 2.0

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
        from hankelpath.hankel import _antidiagonal_flat_indices

        rng = np.random.RandomState(3)
        M = rng.randn(5, 5)
        first = hp.hankel_adjoint(M)
        assert _antidiagonal_flat_indices(5) is _antidiagonal_flat_indices(5)
        with pytest.raises(ValueError):
            _antidiagonal_flat_indices(5)[2][0] = 0
        np.testing.assert_array_equal(hp.hankel_adjoint(M), first)
        np.testing.assert_allclose(first, adjoint_double_sum(M), rtol=0, atol=1e-12)

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
