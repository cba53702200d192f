"""Hyperspace product states: basis product strings, binary superpositions,
and the low-cost product-form synthesis of the full-universe superposition.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import islice
from typing import Iterable, Iterator

from ._numpy import np
from .rtw import ClockedWave, IntegerWave, ReferenceSystem, _bit_index, _index

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
    """*n_bits* as an int in 0..cap; refused before anything is built.  A
    negative N keeps its own message, which names the enumeration."""
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
        # Valid plain ints skip the _index call: CollisionGroup.members and
        # Superposition.members build up to 2^N of these from their masks,
        # and the call would add about half again to each build.
        if type(self.n_bits) is not int or self.n_bits < 0:
            object.__setattr__(self, "n_bits", _index(self.n_bits, "n_bits", 0))
        if type(self.mask) is not int:
            object.__setattr__(self, "mask", _index(self.mask, "mask"))
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
        return "H" if (self.mask >> (_bit_index(r, self.n_bits) - 1)) & 1 else "L"

    def __str__(self) -> str:
        return "".join(self.selection(r) for r in range(1, self.n_bits + 1))


@dataclass(frozen=True, init=False)
class Superposition:
    """A set of product strings, each with an on/off coefficient fixed to on.

    Held as N and the members' masks, so equality and hashing never touch
    a ProductString; *members* builds the strings on demand.  The
    constructor checks every member: one that is not a ProductString is a
    TypeError naming *members*, one of another width a ValueError.
    expand_universe, which builds no ProductString, uses the trusted _wrap.
    """

    n_bits: int
    masks: frozenset[int]

    def __init__(self, n_bits: int, members: Iterable[ProductString] = ()) -> None:
        n_bits = _index(n_bits, "n_bits", 0)
        masks = set()
        for ps in members:
            if not isinstance(ps, ProductString):
                raise TypeError(f"members must be ProductStrings, got {ps!r}")
            if ps.n_bits != n_bits:
                raise ValueError(f"member {ps} does not have {n_bits} bits")
            masks.add(ps.mask)
        object.__setattr__(self, "n_bits", n_bits)
        object.__setattr__(self, "masks", frozenset(masks))

    @classmethod
    def _wrap(cls, n_bits: int, masks: frozenset[int]) -> "Superposition":
        # Trusted constructor: a plain int N and a frozenset of ints in 0..2^N-1.
        s = object.__new__(cls)
        object.__setattr__(s, "n_bits", n_bits)
        object.__setattr__(s, "masks", masks)
        return s

    @property
    def members(self) -> frozenset[ProductString]:
        """The member product strings, built on demand from the masks."""
        return frozenset(ProductString(self.n_bits, m) for m in self.masks)

    def __len__(self) -> int:
        return len(self.masks)


# Target size, in bytes, of each temporary array in realize_superposition.
_CHUNK_BYTES = 1 << 20


def _selections(masks: list[int], n_bits: int) -> np.ndarray:
    """(len(masks), N) uint8 array whose row i, column r-1 is bit r of
    masks[i] (1 selects H_r); masks are read by bytes, so any N works."""
    width = (n_bits + 7) // 8
    packed = np.frombuffer(b"".join([m.to_bytes(width, "little") for m in masks]), dtype=np.uint8)
    return np.unpackbits(packed, bitorder="little").reshape(len(masks), 8 * width)[:, :n_bits]


def realize_product(ps: ProductString, refsys: ReferenceSystem) -> ClockedWave:
    """Samplewise product of the selected reference wave for each bit.

    Gathers the selected L_r or H_r row of every bit and multiplies the
    rows together; N = 0 yields the all-ones wave (the empty product).
    """
    if ps.n_bits != refsys.n_bits:
        raise ValueError(f"product string has {ps.n_bits} bits, system has {refsys.n_bits}")
    n_bits = ps.n_bits
    select = _selections([ps.mask], n_bits)[0]
    product = refsys.samples[select, np.arange(n_bits)].prod(axis=0, dtype=np.int8)
    return ClockedWave._wrap(product)


def realize_superposition(s: Superposition, refsys: ReferenceSystem) -> IntegerWave:
    """Samplewise sum of the realized members; empty superposition is all zeros.

    Still the expanded sum, N factors per member: each block of member
    masks gathers its selected L_r/H_r rows as realize_product does, takes
    their int8 product over the N factors and adds the block's column sum.
    Blocks of members and of clocks keep every temporary near
    _CHUNK_BYTES, whatever N, K and the member count.  The per-member sum
    of realize_product is its oracle.
    """
    if s.n_bits != refsys.n_bits:
        raise ValueError(f"superposition has {s.n_bits} bits, system has {refsys.n_bits}")
    n_bits, clocks = refsys.n_bits, refsys.clocks
    # Per block: members x N x span int8 rows, members x N intp indices and
    # a span-long int64 column sum.  Sums of ±1 samples are exact in int64,
    # so the member order does not matter.
    span = max(1, min(clocks, _CHUNK_BYTES // max(n_bits, 8)))
    per_block = max(1, _CHUNK_BYTES // (max(n_bits, 1) * max(span, 8)))
    bits = np.arange(n_bits)
    acc = np.zeros(clocks, dtype=np.int64)
    pending = iter(s.masks)
    while masks := list(islice(pending, per_block)):
        select = _selections(masks, n_bits)
        for start in range(0, clocks, span):
            rows = refsys.samples[:, :, start:start + span][select, bits]
            acc[start:start + span] += rows.prod(axis=1, dtype=np.int8).sum(axis=0, dtype=np.int64)
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


def _universe_sign_planes(rows: list[int], n_bits: int) -> list[int]:
    """The per-clock count of -1 terms among the 2^N terms of the full
    universe, from the product form, as N + 1 bit planes: plane j holds bit
    j of each clock's count, over the 2N rows L_1..L_N, H_1..H_N of
    ``rtw._reference_rows``.

    The product over r of (L_r + H_r) is 0 at a clock where some l_r != h_r,
    so half of its 2^N terms are -1 there, and ±2^N elsewhere, with every
    term -1 where an odd number of the L_r are -1.  The per-clock value is
    2^N - 2 * count, as from ``synthesize_universe``.
    """
    differ = odd = 0
    for low, high in zip(rows[:n_bits], rows[n_bits:]):
        differ |= low ^ high
        odd ^= low
    planes = [0] * (n_bits + 1)
    if n_bits:
        planes[n_bits - 1] = differ
    planes[n_bits] = odd & ~differ
    return planes


def _expanded_sign_planes(rows: list[int], n_bits: int) -> list[int]:
    """The planes of :func:`_universe_sign_planes`, from the expanded sum.

    Each of the 2^N members folds its N selected sign rows by XOR (a product
    of N ±1 factors is -1 where an odd number of them are), and a
    ripple-carry counter over the planes adds the member's row.  The
    per-clock value is that of ``realize_superposition(expand_universe(N))``.
    """
    planes = [0] * (n_bits + 1)
    factors = [(1 << r, rows[r], rows[n_bits + r]) for r in range(n_bits)]
    for mask in range(1 << n_bits):
        carry = 0
        for bit, low, high in factors:
            carry ^= high if mask & bit else low
        j = 0
        while carry:
            planes[j], carry = planes[j] ^ carry, planes[j] & carry
            j += 1
    return planes


def expand_universe(n_bits: int) -> Superposition:
    """The superposition of all 2^N product strings (explicit enumeration)."""
    n_bits = _enumeration_bits(n_bits, "product-string enumeration", PRODUCT_STRING_CAP)
    return Superposition._wrap(n_bits, frozenset(range(1 << n_bits)))


def enumerate_superpositions(n_bits: int) -> int:
    """Exhaustively build every superposition over N bits and count them.

    The count equals 2^(2^N): every subset of the 2^N product strings is a
    distinct logic value.  Each superposition is built as its 2^N-bit
    membership word, whose bit m is set iff ProductString(N, m) is a
    member, so two superpositions are equal iff their words are.  The
    words are built by doubling: each string joins a copy of every word
    built so far.  All 2^(2^N) are built and deduplicated; the count is
    not a closed form.
    """
    n_bits = _enumeration_bits(n_bits, "superposition enumeration", SUPERPOSITION_COUNT_CAP)
    words = [0]
    for m in range(1 << n_bits):
        words += [w | 1 << m for w in words]
    return len(set(words))
