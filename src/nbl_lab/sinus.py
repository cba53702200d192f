"""Sinusoidal (harmonic) bit-value representations and their degeneracies.

Frequencies are exact integer multiples of the base frequency f0 (with
f0 = 1), so collision analysis is integer arithmetic with no tolerances:
the product of complex-exponential factors sums their integer exponents.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

from ._numpy import np
from .hyperspace import PRODUCT_STRING_CAP, ProductString, _enumeration_bits, _product_strings
from .rtw import _bit_index, _index

__all__ = [
    "LINEAR",
    "EXPONENTIAL",
    "SinusRepresentation",
    "CollisionGroup",
    "DegeneracyReport",
    "value_frequency",
    "product_frequency",
    "find_degeneracies",
    "max_system_frequency",
    "readout_sample_count",
    "realize_sinus_product",
]

LINEAR = "linear"
EXPONENTIAL = "exponential"


@dataclass(frozen=True)
class SinusRepresentation:
    """Assignment of integer harmonics to the 2N bit values.

    linear: L_r -> (2r-1) f0, H_r -> 2r f0 (consecutive harmonics).
    exponential: L_r -> 2^(2r-2) f0, H_r -> 2^(2r-1) f0 (powers of two).
    """

    kind: str
    n_bits: int

    def __post_init__(self) -> None:
        if self.kind not in (LINEAR, EXPONENTIAL):
            raise ValueError(f"kind must be {LINEAR!r} or {EXPONENTIAL!r}, got {self.kind!r}")
        object.__setattr__(self, "n_bits", _index(self.n_bits, "n_bits", 0))


def value_frequency(rep: SinusRepresentation, r: int, value: str) -> int:
    """Harmonic index (multiple of f0) assigned to bit r's L or H value."""
    r = _bit_index(r, rep.n_bits)
    if value not in ("L", "H"):
        raise ValueError(f"value must be 'L' or 'H', got {value!r}")
    if rep.kind == LINEAR:
        return 2 * r - 1 if value == "L" else 2 * r
    return 1 << (2 * r - 2) if value == "L" else 1 << (2 * r - 1)


def product_frequency(rep: SinusRepresentation, ps: ProductString) -> int:
    """Frequency of the realized product string: the sum of its factors'
    harmonics (multiplying complex exponentials adds exponents)."""
    if ps.n_bits != rep.n_bits:
        raise ValueError(f"product string has {ps.n_bits} bits, representation has {rep.n_bits}")
    return sum(value_frequency(rep, r, ps.selection(r)) for r in range(1, rep.n_bits + 1))


@dataclass(frozen=True)
class CollisionGroup:
    """Product strings sharing one product frequency, held as their masks
    in ascending order."""

    frequency: int
    n_bits: int
    masks: tuple[int, ...]

    @property
    def members(self) -> tuple[ProductString, ...]:
        """The group's N-bit product strings, built on demand in mask order."""
        return tuple(_product_strings(self.n_bits, self.masks))


@dataclass(frozen=True)
class DegeneracyReport:
    """All frequency collisions among the 2^N product strings."""

    kind: str
    n_bits: int
    groups: tuple[CollisionGroup, ...]

    @property
    def total_collided(self) -> int:
        return sum(len(g.masks) for g in self.groups)


def find_degeneracies(rep: SinusRepresentation) -> DegeneracyReport:
    """Group all 2^N product strings by product frequency and report every
    frequency carrying two or more strings.  N is capped at
    PRODUCT_STRING_CAP.

    The 2^N frequencies come from N doubling steps: step r appends a copy
    shifted from f(L_r) to f(H_r), so index i holds the frequency of mask i.
    A stable sort then keeps each group's masks ascending.  Groups hold
    masks, so the scan builds no ProductString.  product_frequency is the
    per-string oracle.
    """
    n_bits = _enumeration_bits(rep.n_bits, "product-string enumeration", PRODUCT_STRING_CAP)
    frequencies = np.zeros(1, dtype=np.int64)
    for r in range(1, n_bits + 1):
        frequencies = np.concatenate((frequencies + value_frequency(rep, r, "L"),
                                      frequencies + value_frequency(rep, r, "H")))
    masks = np.argsort(frequencies, kind="stable")
    distinct, starts, counts = np.unique(frequencies[masks], return_index=True, return_counts=True)
    collided = counts >= 2
    groups = tuple(
        CollisionGroup(frequency, n_bits, tuple(masks[start:start + count].tolist()))
        for frequency, start, count in zip(distinct[collided].tolist(), starts[collided].tolist(),
                                           counts[collided].tolist())
    )
    return DegeneracyReport(rep.kind, n_bits, groups)


def _collision_counts(rep: SinusRepresentation) -> tuple[int, int]:
    """The group count and ``total_collided`` of ``find_degeneracies(rep)``,
    its oracle in the tests for both assignments up to N = 16, on Python
    ints alone: the 2^N product frequencies come from the same N doubling
    steps, and a Counter counts the strings at each frequency."""
    n_bits = _enumeration_bits(rep.n_bits, "product-string enumeration", PRODUCT_STRING_CAP)
    frequencies = [0]
    for r in range(1, n_bits + 1):
        low, high = value_frequency(rep, r, "L"), value_frequency(rep, r, "H")
        frequencies = [f + low for f in frequencies] + [f + high for f in frequencies]
    collided = [count for count in Counter(frequencies).values() if count >= 2]
    return len(collided), sum(collided)


def max_system_frequency(rep: SinusRepresentation) -> int:
    """Highest frequency in the system: N(2N+1) linear, 2^(2N)-1 exponential.

    A product may combine every one of the 2N reference signals, so the
    highest achievable frequency is the sum of all assigned harmonics;
    both closed forms equal that sum."""
    n = rep.n_bits
    if rep.kind == LINEAR:
        return n * (2 * n + 1)
    return (1 << (2 * n)) - 1


def readout_sample_count(rep: SinusRepresentation) -> int:
    """Samples needed over one 1/f0 window to resolve every product
    frequency at the Nyquist rate: 2 * f_max + 1 (including the DC bin).

    Any constant factor here preserves the scaling conclusion; the
    factor-2-plus-DC choice is this package's convention."""
    return 2 * max_system_frequency(rep) + 1


def realize_sinus_product(rep: SinusRepresentation, ps: ProductString, samples: int) -> np.ndarray:
    """Complex-exponential realization of a product string over one window
    of length 1/f0: s[k] = exp(j 2π F k / samples), F = product frequency."""
    samples = _index(samples, "samples", 1)
    frequency = product_frequency(rep, ps)
    k = np.arange(samples)
    return np.exp(2j * np.pi * frequency * k / samples)
