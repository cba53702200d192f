"""Hyperspace product states: basis product strings, binary superpositions,
and the low-cost product-form synthesis of the full-universe superposition.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator

import numpy as np

from .rtw import ClockedWave, IntegerWave, ReferenceSystem, _index

__all__ = [
    "EnumerationCapError",
    "ProductString",
    "Superposition",
    "realize_product",
    "realize_superposition",
    "synthesize_universe",
    "expand_universe",
    "enumerate_superpositions",
    "PRODUCT_STRING_CAP",
    "SUPERPOSITION_COUNT_CAP",
]

# Desk-scale enumeration limits: 2^N product strings and 2^(2^N) superpositions.
PRODUCT_STRING_CAP = 16
SUPERPOSITION_COUNT_CAP = 4


class EnumerationCapError(ValueError):
    """Raised when a request would exceed an explicit enumeration cap."""

    def __init__(self, what: str, requested: int, cap: int):
        super().__init__(f"{what}: N={requested} exceeds cap {cap}")


def _enumeration_bits(n_bits, what: str, cap: int) -> int:
    """*n_bits* as an int in 0..cap; refused before anything is built."""
    n_bits = _index(n_bits, "n_bits")
    if n_bits < 0:
        raise ValueError(f"{what}: N={n_bits} is negative")
    if n_bits > cap:
        raise EnumerationCapError(what, n_bits, cap)
    return n_bits


@dataclass(frozen=True, order=True)
class ProductString:
    """One hyperspace basis vector: an L/H selection for each of N bits.

    Bit r of *mask* (0-indexed r-1 for bit index r) selects H_r when set,
    L_r when clear.  Canonical ordering is by mask value.
    """

    n_bits: int
    mask: int

    def __post_init__(self) -> None:
        # Plain ints skip the conversion: 2^N of these are built per scan.
        if type(self.n_bits) is not int:
            object.__setattr__(self, "n_bits", _index(self.n_bits, "n_bits"))
        if type(self.mask) is not int:
            object.__setattr__(self, "mask", _index(self.mask, "mask"))
        if self.n_bits < 0:
            raise ValueError("bit count must be non-negative")
        if not 0 <= self.mask < (1 << self.n_bits):
            raise ValueError(f"mask {self.mask} out of range for {self.n_bits} bits")

    @classmethod
    def from_string(cls, text: str) -> "ProductString":
        """Parse "LHH"-style notation (position 1 first)."""
        mask = 0
        for r, ch in enumerate(text):
            if ch == "H":
                mask |= 1 << r
            elif ch != "L":
                raise ValueError(f"selection characters must be 'L' or 'H', got {ch!r}")
        return cls(len(text), mask)

    @classmethod
    def all_strings(cls, n_bits: int) -> Iterator["ProductString"]:
        """All 2^N product strings in canonical (mask) order.

        A non-integer, negative or above-PRODUCT_STRING_CAP N is refused
        at the call, before any string is built.
        """
        n_bits = _enumeration_bits(n_bits, "product-string enumeration", PRODUCT_STRING_CAP)
        return (cls(n_bits, mask) for mask in range(1 << n_bits))

    def selection(self, r: int) -> str:
        """'L' or 'H' for bit index r in 1..N."""
        if not 1 <= r <= self.n_bits:
            raise ValueError(f"bit index {r} out of range 1..{self.n_bits}")
        return "H" if (self.mask >> (r - 1)) & 1 else "L"

    def __str__(self) -> str:
        return "".join(self.selection(r) for r in range(1, self.n_bits + 1))


@dataclass(frozen=True)
class Superposition:
    """A set of product strings, each with an on/off coefficient fixed to on."""

    n_bits: int
    members: frozenset[ProductString] = field(default_factory=frozenset)

    def __post_init__(self) -> None:
        # Plain ints skip the conversion: 2^(2^N) of these are built per count.
        if type(self.n_bits) is not int:
            object.__setattr__(self, "n_bits", _index(self.n_bits, "n_bits"))
        if self.n_bits < 0:
            raise ValueError("bit count must be non-negative")
        object.__setattr__(self, "members", frozenset(self.members))
        for ps in self.members:
            if ps.n_bits != self.n_bits:
                raise ValueError(f"member {ps} does not have {self.n_bits} bits")

    def sorted_members(self) -> list[ProductString]:
        return sorted(self.members)

    def __len__(self) -> int:
        return len(self.members)


def realize_product(ps: ProductString, refsys: ReferenceSystem) -> ClockedWave:
    """Samplewise product of the selected reference wave for each bit.

    Gathers the selected L_r or H_r row of every bit and multiplies the
    rows together; N = 0 yields the all-ones wave (the empty product).
    """
    if ps.n_bits != refsys.n_bits:
        raise ValueError(f"product string has {ps.n_bits} bits, system has {refsys.n_bits}")
    n_bits = ps.n_bits
    mask_bytes = np.frombuffer(ps.mask.to_bytes((n_bits + 7) // 8, "little"), dtype=np.uint8)
    select = np.unpackbits(mask_bytes, bitorder="little")[:n_bits]
    product = refsys.samples[select, np.arange(n_bits)].prod(axis=0, dtype=np.int8)
    return ClockedWave._wrap(product)


def realize_superposition(s: Superposition, refsys: ReferenceSystem) -> IntegerWave:
    """Samplewise sum of the realized members; empty superposition is all zeros."""
    if s.n_bits != refsys.n_bits:
        raise ValueError(f"superposition has {s.n_bits} bits, system has {refsys.n_bits}")
    acc = np.zeros(refsys.clocks, dtype=np.int64)
    for ps in s.sorted_members():
        acc = acc + realize_product(ps, refsys).samples
    return IntegerWave._wrap(acc)


def synthesize_universe(refsys: ReferenceSystem) -> IntegerWave:
    """Product-form synthesis of the uniform superposition of all 2^N strings.

    Evaluates the per-clock product over r of (L_r + H_r): exactly N
    additions and N-1 multiplications per clock period, yet samplewise
    equal to summing all 2^N realized product strings.
    """
    n_bits = refsys.n_bits
    # Factor samples lie in {-2, 0, +2}; the running product can reach
    # ±2^N, so fall back to Python integers beyond the int64 range.
    dtype = np.int64 if n_bits <= 62 else object
    low, high = refsys.samples
    universe = (low.astype(dtype) + high).prod(axis=0, dtype=dtype)
    return IntegerWave._wrap(universe)


def expand_universe(n_bits: int) -> Superposition:
    """The superposition of all 2^N product strings (explicit enumeration)."""
    return Superposition(n_bits, ProductString.all_strings(n_bits))


def enumerate_superpositions(n_bits: int) -> int:
    """Exhaustively build every superposition over N bits and count them.

    The count equals 2^(2^N): every subset of the 2^N product strings is a
    distinct logic value.  The subsets are built by doubling: each string
    joins a copy of every subset built so far.
    """
    n_bits = _enumeration_bits(n_bits, "superposition enumeration", SUPERPOSITION_COUNT_CAP)
    subsets = [frozenset()]
    for ps in ProductString.all_strings(n_bits):
        subsets += [subset | {ps} for subset in subsets]
    return len({Superposition(n_bits, members) for members in subsets})
