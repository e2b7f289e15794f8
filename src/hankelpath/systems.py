"""Stable SISO test systems in pole/residue form.

The modal parameterization keeps everything closed form: impulse responses
are sums of geometric terms, and the energy discarded by truncation at k_max
has an exact expression, so "large enough to be negligible" is a checkable
predicate instead of an eyeball judgement.
"""

from __future__ import annotations

import cmath
import json
from dataclasses import dataclass

import numpy as np

from ._textio import fmt17, write_text
from .hankel import ImpulseResponse, _require_count

_CONJ_TOL = 1e-9


@dataclass(frozen=True)
class SystemSpec:
    """Poles strictly inside the unit disc plus matching finite residues.

    Complex poles must come in conjugate pairs with conjugate residues so the
    impulse response is real.
    """

    poles: tuple[complex, ...]
    residues: tuple[complex, ...]

    def __post_init__(self):
        poles = tuple(complex(p) for p in self.poles)
        residues = tuple(complex(c) for c in self.residues)
        if len(poles) != len(residues):
            raise ValueError("poles and residues must have equal length")
        if not poles:
            raise ValueError("system must have at least one pole")
        if not all(map(cmath.isfinite, poles + residues)):
            raise ValueError("non-finite pole or residue")
        for p in poles:
            if abs(p) >= 1.0:
                raise ValueError(f"unstable pole {p!r}: |pole| must be < 1")
        _check_conjugate_closure(poles, residues)
        object.__setattr__(self, "poles", poles)
        object.__setattr__(self, "residues", residues)

    @property
    def order(self) -> int:
        return len(self.poles)


def _check_conjugate_closure(poles, residues):
    unmatched = list(range(len(poles)))
    while unmatched:
        i = unmatched.pop(0)
        p, c = poles[i], residues[i]
        if abs(p.imag) <= _CONJ_TOL * (1 + abs(p.real)):
            if abs(c.imag) > _CONJ_TOL * (1 + abs(c.real)):
                raise ValueError(f"real pole {p!r} has complex residue {c!r}")
            continue
        for j in unmatched:
            if (
                abs(poles[j] - p.conjugate()) <= _CONJ_TOL * (1 + abs(p))
                and abs(residues[j] - c.conjugate()) <= _CONJ_TOL * (1 + abs(c))
            ):
                unmatched.remove(j)
                break
        else:
            raise ValueError(
                f"complex pole {p!r} lacks a conjugate partner with conjugate residue"
            )


def _modal_sum(spec: SystemSpec, k_max: int) -> np.ndarray:
    """Complex coefficients g_k = sum_j c_j p_j^(k-1), k = 1..k_max."""
    powers = np.arange(k_max)
    acc = np.zeros(k_max, dtype=complex)
    for p, c in zip(spec.poles, spec.residues):
        acc += c * np.power(p, powers)
    return acc


def impulse_response(spec: SystemSpec, k_max: int) -> ImpulseResponse:
    """First k_max impulse-response coefficients g_k = sum_j c_j p_j^(k-1).

    k_max must be a positive odd integer (the Hankel embedding needs 2n - 1
    coefficients), else ValueError.
    """
    _require_count("k_max", k_max, 1)
    if k_max % 2 == 0:
        raise ValueError("k_max must be a positive odd integer")
    acc = _modal_sum(spec, k_max)
    scale = 1.0 + float(np.max(np.abs(acc.real)))
    if np.max(np.abs(acc.imag)) > 1e-12 * scale:
        raise ValueError("impulse response has non-negligible imaginary part")
    return ImpulseResponse(acc.real)


def tail_energy(spec: SystemSpec, k_max: int) -> float:
    """Exact energy sum_{k > k_max} g_k^2 discarded by truncation.

    Expands g_k^2 into cross terms c_j c_l (p_j p_l)^(k-1) and sums the
    geometric tails in closed form; |p_j p_l| < 1 guarantees convergence.
    k_max must be an integer >= 0, else ValueError.
    """
    _require_count("k_max", k_max, 0)
    total = 0.0 + 0.0j
    for pj, cj in zip(spec.poles, spec.residues):
        for pl, cl in zip(spec.poles, spec.residues):
            q = pj * pl
            total += cj * cl * q**k_max / (1.0 - q)
    return max(float(total.real), 0.0)


def check_truncation(spec: SystemSpec, k_max: int, tail_tol: float = 1e-8) -> bool:
    """True iff the discarded tail energy is <= tail_tol times the kept energy.
    k_max must be an integer >= 0 (tail_energy checks it), else ValueError."""
    tail = tail_energy(spec, k_max)
    return tail <= tail_tol * float(np.sum(_modal_sum(spec, k_max).real ** 2))


# ---------------------------------------------------------------------------
# Deterministic random systems (portable stream, version 1)
# ---------------------------------------------------------------------------

_MASK64 = (1 << 64) - 1


class SplitMix64:
    """splitmix64 integer stream mapped to uniforms in [0, 1).

    The exact update is documented so fixtures regenerate identically
    anywhere: state += 0x9E3779B97F4A7C15; z = state; z = (z ^ (z >> 30)) *
    0xBF58476D1CE4E5B9; z = (z ^ (z >> 27)) * 0x94D049BB133111EB; z ^= z >> 31;
    uniform = (z >> 11) / 2^53.
    """

    def __init__(self, seed: int):
        self._state = seed & _MASK64

    def next_u64(self) -> int:
        self._state = (self._state + 0x9E3779B97F4A7C15) & _MASK64
        z = self._state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
        z ^= z >> 31
        return z

    def uniform(self) -> float:
        return (self.next_u64() >> 11) / float(1 << 53)


def _draw_band(stream: SplitMix64, count: int, radius_range, residue_scale: float):
    """Draw `count` poles in the radius band; complex poles appear as pairs.

    Stream consumption order (fixed, version 1): pair? -> radius -> angle ->
    residue magnitude -> residue phase for a pair; pole sign -> radius ->
    residue sign -> residue magnitude for a real pole.  Residue magnitudes sit
    in [0.3, 1.0] * residue_scale so no mode is ever negligible by accident.
    """
    lo, hi = radius_range
    if not 0.0 <= lo <= hi < 1.0:
        raise ValueError("pole radius range must satisfy 0 <= lo <= hi < 1")
    poles: list[complex] = []
    residues: list[complex] = []
    remaining = count
    while remaining > 0:
        make_pair = remaining >= 2 and stream.uniform() < 0.6
        radius = lo + (hi - lo) * stream.uniform()
        if make_pair:
            angle = np.pi * (0.1 + 0.8 * stream.uniform())
            mag = residue_scale * (0.3 + 0.7 * stream.uniform())
            phase = 2.0 * np.pi * stream.uniform()
            pole = radius * cmath.exp(1j * angle)
            residue = mag * cmath.exp(1j * phase)
            poles += [pole, pole.conjugate()]
            residues += [residue, residue.conjugate()]
            remaining -= 2
        else:
            sign = 1.0 if stream.uniform() < 0.5 else -1.0
            rsign = 1.0 if stream.uniform() < 0.5 else -1.0
            mag = residue_scale * (0.3 + 0.7 * stream.uniform())
            poles.append(complex(sign * radius))
            residues.append(complex(rsign * mag))
            remaining -= 1
    return poles, residues


def random_system(
    order: int,
    seed: int,
    pole_radius_range=(0.25, 0.7),
    residue_scale: float = 1.0,
    bands=None,
) -> SystemSpec:
    """Deterministic random stable system of the given order.

    Parameters
    ----------
    order : int
        Number of poles, an integer >= 1.
    seed : int
        Seed of the splitmix64 stream; equal seeds give equal specs.
    pole_radius_range : (float, float)
        Moduli band for the single-band draw.
    residue_scale : float
        Residue magnitude scale for the single-band draw.
    bands : sequence of (count, (lo, hi), residue_scale), optional
        Overrides the single band, e.g. two bands with a couple of dominant
        poles near the unit circle and weak small-residue poles further in;
        counts, integers >= 0, must add up to `order`.

    Returns
    -------
    SystemSpec
    """
    _require_count("order", order, 1)
    if bands is None:
        bands = [(order, tuple(pole_radius_range), residue_scale)]
    for b in bands:
        _require_count("band count", b[0], 0)
    if sum(b[0] for b in bands) != order:
        raise ValueError("band counts must sum to the requested order")
    stream = SplitMix64(seed)
    poles: list[complex] = []
    residues: list[complex] = []
    for count, radius_range, scale in bands:
        p, c = _draw_band(stream, count, radius_range, scale)
        poles += p
        residues += c
    return SystemSpec(poles=tuple(poles), residues=tuple(residues))


# ---------------------------------------------------------------------------
# JSON form {"poles": [{"re", "im"}], "residues": [{"re", "im"}]}
# ---------------------------------------------------------------------------

def _complex_json(values) -> str:
    return "[" + ", ".join(
        '{"re": %s, "im": %s}' % (fmt17(v.real), fmt17(v.imag)) for v in values
    ) + "]"


def write_system_json(spec: SystemSpec, path) -> None:
    write_text(
        path,
        '{"poles": %s, "residues": %s}\n' % (_complex_json(spec.poles), _complex_json(spec.residues)),
    )


def _complex_list(doc: dict, key: str) -> tuple[complex, ...]:
    entries = doc.get(key)
    if not isinstance(entries, list):
        raise ValueError(f'system JSON has no "{key}" list')
    values = []
    for e in entries:
        if not (isinstance(e, dict) and "re" in e and "im" in e):
            raise ValueError(f'system JSON "{key}" entry {e!r} is not an {{"re", "im"}} object')
        try:
            values.append(complex(e["re"], e["im"]))
        except TypeError:
            raise ValueError(f'system JSON "{key}" entry {e!r} holds a non-number') from None
    return tuple(values)


def read_system_json(path) -> SystemSpec:
    """Read the form write_system_json writes; a document of any other shape
    raises ValueError naming the defect."""
    with open(path, "r", encoding="utf-8") as fh:
        doc = json.load(fh)
    if not isinstance(doc, dict):
        raise ValueError(f"system JSON must be an object, got {type(doc).__name__}")
    return SystemSpec(poles=_complex_list(doc, "poles"), residues=_complex_list(doc, "residues"))
