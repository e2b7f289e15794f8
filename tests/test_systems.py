import dataclasses
import json
import warnings

import numpy as np
import pytest

import hankelpath as hp


class TestSystemSpec:
    def test_rejects_unstable_pole(self):
        with pytest.raises(ValueError, match="unstable"):
            hp.SystemSpec(poles=(1.0,), residues=(1.0,))
        with pytest.raises(ValueError, match="unstable"):
            hp.SystemSpec(poles=(0.8 + 0.7j, 0.8 - 0.7j), residues=(1.0, 1.0))

    def test_rejects_unpaired_complex_pole(self):
        with pytest.raises(ValueError, match="conjugate"):
            hp.SystemSpec(poles=(0.5 + 0.2j,), residues=(1.0,))

    def test_rejects_non_conjugate_residues(self):
        with pytest.raises(ValueError, match="conjugate"):
            hp.SystemSpec(
                poles=(0.5 + 0.2j, 0.5 - 0.2j), residues=(1.0 + 1.0j, 1.0 + 1.0j)
            )

    def test_rejects_length_mismatch(self):
        with pytest.raises(ValueError):
            hp.SystemSpec(poles=(0.5,), residues=(1.0, 2.0))

    @pytest.mark.parametrize(
        "poles, residues, defect",
        [((), (), "at least one pole"),
         ((np.nan,), (1.0,), "non-finite"),
         ((0.5,), (1 + 1j,), "complex residue")],
        ids=["no-poles", "nan-pole", "real-pole-complex-residue"],
    )
    def test_rejects_malformed_spec_without_warning(self, poles, residues, defect):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=defect):
                hp.SystemSpec(poles=poles, residues=residues)

    @pytest.mark.parametrize("residue", [np.nan, np.inf, -np.inf, complex(0.5, np.nan)],
                             ids=["nan", "inf", "-inf", "nan-imag"])
    def test_rejects_non_finite_residue(self, tmp_path, residue):
        # such a spec used to construct, tail_energy priced it NaN and
        # write_system_json wrote "re": nan, which is not JSON; each way in
        # is now refused: the constructor, replace, the JSON reader and a
        # random draw at a non-finite residue scale
        spec = hp.SystemSpec(poles=(0.5,), residues=(1.0,))
        path = tmp_path / "system.json"
        c = complex(residue)
        # json writes NaN and Infinity, which its reader takes
        path.write_text(json.dumps({"poles": [{"re": 0.5, "im": 0.0}],
                                    "residues": [{"re": c.real, "im": c.imag}]}))
        scale = abs(c)  # nan or inf
        entries = (
            lambda: hp.SystemSpec(poles=(0.5,), residues=(residue,)),
            lambda: dataclasses.replace(spec, residues=(residue,)),
            lambda: hp.read_system_json(path),
            lambda: hp.random_system(2, 0, residue_scale=scale),
            lambda: hp.random_system(3, 0, bands=[(1, (0.2, 0.5), 1.0), (2, (0.2, 0.5), scale)]),
        )
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for build in entries:
                with pytest.raises(ValueError, match="non-finite pole or residue"):
                    build()


class TestImpulseResponseOp:
    def test_single_pole_geometric(self):
        spec = hp.SystemSpec(poles=(0.5,), residues=(1.0,))
        g = hp.impulse_response(spec, 3)
        np.testing.assert_allclose(g.values, [1.0, 0.5, 0.25], rtol=1e-15)

    def test_zero_residues(self):
        spec = hp.SystemSpec(poles=(0.5, -0.2), residues=(0.0, 0.0))
        g = hp.impulse_response(spec, 5)
        np.testing.assert_array_equal(g.values, np.zeros(5))

    def test_complex_pair_matches_complex_arithmetic(self):
        pole = 0.5 * np.exp(1j * np.pi / 3)
        spec = hp.SystemSpec(poles=(pole, pole.conjugate()), residues=(0.5, 0.5))
        g = hp.impulse_response(spec, 5)
        expected = [
            complex(0.5) * pole ** k + complex(0.5) * pole.conjugate() ** k
            for k in range(5)
        ]
        assert max(abs(e.imag) for e in expected) < 1e-15
        np.testing.assert_allclose(g.values, [e.real for e in expected], atol=1e-12)

    def test_imaginary_part_beyond_the_conjugate_tolerance_rejected(self):
        # the residues are conjugate to within the closure check's 1e-9, but
        # the response they sum to keeps an imaginary part of about 1e-10
        pole = 0.5 + 0.5j
        spec = hp.SystemSpec(poles=(pole, pole.conjugate()),
                             residues=(1 + 1j, 1 - 1j + 1e-10j))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="non-negligible imaginary part"):
                hp.impulse_response(spec, 5)

    def test_even_k_max_rejected(self):
        spec = hp.SystemSpec(poles=(0.5,), residues=(1.0,))
        with pytest.raises(ValueError):
            hp.impulse_response(spec, 4)

    def test_realness_of_random_systems(self):
        for seed in range(10):
            spec = hp.random_system(5, seed)
            g = hp.impulse_response(spec, 21)
            assert np.all(np.isreal(g.values))


@pytest.mark.parametrize("bad", [3.0, True, -1, "3", None, np.float64(3.0)],
                         ids=["float", "True", "negative", "str", "None", "np-float"])
@pytest.mark.parametrize("fn", [hp.impulse_response, hp.tail_energy, hp.check_truncation],
                         ids=lambda fn: fn.__name__)
def test_k_max_checked_as_a_count(fn, bad):
    # hankel._require_count's rule at each entry: 3.0 and True ended in
    # NumPy's TypeError and tail_energy(spec, -1) returned a number; a NumPy
    # integer counts as the int it equals
    spec = hp.SystemSpec(poles=(0.5, -0.2), residues=(1.0, 0.3))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="k_max must be an integer"):
            fn(spec, bad)
    counted, plain = fn(spec, np.int64(5)), fn(spec, 5)
    if fn is hp.impulse_response:
        counted, plain = counted.values, plain.values
    assert np.array_equal(counted, plain)


class TestCheckTruncation:
    def test_fast_pole_is_negligible(self):
        spec = hp.SystemSpec(poles=(0.5,), residues=(1.0,))
        assert hp.check_truncation(spec, 31, tail_tol=1e-6)

    def test_slow_pole_is_not(self):
        spec = hp.SystemSpec(poles=(0.999,), residues=(1.0,))
        assert not hp.check_truncation(spec, 31, tail_tol=1e-6)

    def test_zero_system(self):
        spec = hp.SystemSpec(poles=(0.5,), residues=(0.0,))
        assert hp.check_truncation(spec, 31)

    def test_tail_energy_matches_direct_sum(self):
        spec = hp.SystemSpec(poles=(0.6, -0.3), residues=(1.0, 0.5))
        k_max = 11
        direct = 0.0
        for k in range(k_max, 3000):
            direct += (1.0 * 0.6**k + 0.5 * (-0.3) ** k) ** 2
        assert abs(hp.tail_energy(spec, k_max) - direct) < 1e-14


class TestRandomSystem:
    def test_deterministic_in_seed(self):
        a = hp.random_system(6, 42)
        b = hp.random_system(6, 42)
        assert a.poles == b.poles and a.residues == b.residues
        c = hp.random_system(6, 43)
        assert a.poles != c.poles

    def test_order_one_is_single_real_pole(self):
        spec = hp.random_system(1, 5)
        assert spec.order == 1
        assert abs(spec.poles[0].imag) == 0.0

    def test_radius_band_respected(self):
        for seed in range(20):
            spec = hp.random_system(4, seed, pole_radius_range=(0.3, 0.5))
            for p in spec.poles:
                assert 0.3 - 1e-12 <= abs(p) <= 0.5 + 1e-12

    def test_stability_and_decay(self):
        for seed in range(10):
            spec = hp.random_system(6, seed)
            assert max(abs(p) for p in spec.poles) < 1.0
            g = hp.impulse_response(spec, 41).values
            rho = max(abs(p) for p in spec.poles)
            bound = 10 * sum(abs(c) for c in spec.residues)
            for k in range(41):
                assert abs(g[k]) <= bound * rho**k + 1e-12

    def test_two_band_dominant_cluster(self):
        # two strong poles near the unit circle, four weak ones: the third
        # Hankel singular value collapses relative to the first
        bands = [(2, (0.88, 0.92), 0.1), (4, (0.15, 0.3), 0.002)]
        spec = hp.random_system(6, 10, bands=bands)
        g = hp.impulse_response(spec, 31)
        sig = hp.hankel_singular_values(g)
        assert sig[2] / sig[0] <= 0.1

    def test_band_counts_must_sum(self):
        with pytest.raises(ValueError):
            hp.random_system(6, 0, bands=[(2, (0.1, 0.2), 1.0)])

    @pytest.mark.parametrize(
        "order, bands",
        [(2.5, None), (True, None), (0, None),
         (3, [(1.5, (0.1, 0.2), 1.0), (1.5, (0.3, 0.4), 1.0)]),
         (2, [(-1, (0.1, 0.2), 1.0), (3, (0.3, 0.4), 1.0)])],
        ids=["fractional-order", "bool-order", "zero-order", "fractional-bands",
             "negative-band"],
    )
    def test_counts_must_be_integers(self, order, bands):
        # the draw rounds a fractional count up and a negative band draws
        # nothing, so each nonzero one would build a system of another order
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="must be an integer"):
                hp.random_system(order, 0, bands=bands)

    def test_numpy_integer_counts_accepted(self):
        spec = hp.random_system(np.int64(3), 0)
        assert spec.order == 3 and spec == hp.random_system(3, 0)
        bands = [(np.int64(1), (0.1, 0.2), 1.0), (np.int64(2), (0.3, 0.4), 1.0)]
        assert hp.random_system(3, 0, bands=bands) == hp.random_system(
            3, 0, bands=[(1, (0.1, 0.2), 1.0), (2, (0.3, 0.4), 1.0)]
        )

    def test_unstable_radius_range_rejected(self):
        with pytest.raises(ValueError, match="pole radius range"):
            hp.random_system(2, 0, pole_radius_range=(0.5, 1.2))


class TestRankConnection:
    def test_numerical_rank_equals_order(self):
        # finite Hankel matrices of exact order-r responses have rank <= r
        rng = np.random.RandomState(30)
        for _ in range(50):
            r = rng.randint(1, 5)
            spec = hp.random_system(r, int(rng.randint(0, 10_000)), pole_radius_range=(0.2, 0.6))
            k_max = max(2 * r + 1, 21)
            g = hp.impulse_response(spec, k_max)
            sig = hp.hankel_singular_values(g)
            if sig[0] == 0.0:
                continue
            assert sig[r] / sig[0] <= 1e-8


class TestSystemJson:
    def test_round_trip(self, tmp_path):
        spec = hp.random_system(6, 77)
        path = tmp_path / "system.json"
        hp.write_system_json(spec, path)
        back = hp.read_system_json(path)
        assert back.poles == spec.poles
        assert back.residues == spec.residues

    def test_schema(self, tmp_path):
        spec = hp.SystemSpec(poles=(0.5 + 0.25j, 0.5 - 0.25j), residues=(1.0 + 2.0j, 1.0 - 2.0j))
        path = tmp_path / "system.json"
        hp.write_system_json(spec, path)
        doc = json.loads(path.read_text())
        assert set(doc) == {"poles", "residues"}
        assert doc["poles"][0] == {"re": 0.5, "im": 0.25}

    @pytest.mark.parametrize(
        "doc, defect",
        [
            ([], "must be an object"),
            ({}, 'no "poles" list'),
            ({"poles": [{"re": 0.5}], "residues": [{"re": 1.0, "im": 0.0}]}, "not an"),
            ({"poles": [0.5], "residues": [1.0]}, "not an"),
            ({"poles": [{"re": "half", "im": 0.0}], "residues": [{"re": 1.0, "im": 0.0}]},
             "non-number"),
        ],
        ids=["top-level-list", "empty-object", "entry-without-im", "bare-numbers",
             "non-numeric-re"],
    )
    def test_malformed_document_is_value_error(self, tmp_path, doc, defect):
        # each used to end in a TypeError or KeyError
        path = tmp_path / "system.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(ValueError, match=defect):
            hp.read_system_json(path)
