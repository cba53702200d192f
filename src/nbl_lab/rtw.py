"""Random telegraph waves: deterministic generation and waveform algebra.

A random telegraph wave (RTW) holds a fresh fair draw from {-1, +1} for
each clock period.  Everything downstream (product strings, universes,
readout experiments) is built from the immutable wave types defined here.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Iterable, Union

import numpy as np

__all__ = [
    "SeedSpec",
    "ClockedWave",
    "IntegerWave",
    "ReferenceSystem",
    "generate_rtw",
    "make_reference_system",
    "multiply",
    "time_average_product",
    "save_wave_file",
    "load_wave_file",
]

_STREAM_DOMAIN = b"nbl-lab/rtw-stream/v1"
_BLOCK_BYTES = 64  # blake2b max digest; 512 wave samples per block

PathElement = Union[int, str]


def _encode_path_element(element: PathElement) -> bytes:
    if isinstance(element, bool):  # bool is an int subclass; reject explicitly
        raise TypeError("path elements must be int or str, not bool")
    if isinstance(element, int):
        if not -2**63 <= element < 2**63:
            raise ValueError(f"int path element {element} is outside the signed 64-bit range")
        return b"i" + element.to_bytes(8, "big", signed=True)
    if isinstance(element, str):
        raw = element.encode("utf-8")
        return b"s" + len(raw).to_bytes(4, "big") + raw
    raise TypeError(f"path elements must be int or str, got {type(element).__name__}")


@dataclass(frozen=True)
class SeedSpec:
    """Addressable substream of a master seed.

    Identical (master_seed, path) pairs always produce the identical
    sample stream; distinct paths produce independent streams.  Streams
    are counter-based (keyed blake2b over a block counter), so a shorter
    draw is always a prefix of a longer one.
    """

    master_seed: int
    path: tuple[PathElement, ...] = ()

    def __post_init__(self) -> None:
        if isinstance(self.master_seed, bool):  # bool is an int subclass; reject explicitly
            raise TypeError("master_seed must be an int, not bool")
        if not 0 <= self.master_seed < 2**64:
            raise ValueError("master_seed must be a 64-bit unsigned integer")
        object.__setattr__(self, "path", tuple(self.path))
        for element in self.path:
            _encode_path_element(element)

    def child(self, *elements: PathElement) -> "SeedSpec":
        """Extend the derivation path."""
        return SeedSpec(self.master_seed, self.path + elements)

    def stream_key(self) -> bytes:
        """32-byte key identifying this substream."""
        h = hashlib.blake2b(digest_size=32)
        h.update(_STREAM_DOMAIN)
        h.update(self.master_seed.to_bytes(8, "big"))
        for element in self.path:
            h.update(_encode_path_element(element))
        return h.digest()

    def derive_seed(self) -> int:
        """Collapse this substream to a fresh 64-bit master seed."""
        return int.from_bytes(self.stream_key()[:8], "big")

    def bits(self, count: int) -> np.ndarray:
        """First *count* bits of the substream as a uint8 0/1 array."""
        if count < 0:
            raise ValueError("bit count must be non-negative")
        if count == 0:
            return np.zeros(0, dtype=np.uint8)
        key = self.stream_key()
        n_blocks = -(-count // (_BLOCK_BYTES * 8))
        buf = b"".join(
            hashlib.blake2b(i.to_bytes(8, "big"), key=key, digest_size=_BLOCK_BYTES).digest()
            for i in range(n_blocks)
        )
        return np.unpackbits(np.frombuffer(buf, dtype=np.uint8))[:count]


def _frozen_bipolar(raw: np.ndarray, what: str) -> np.ndarray:
    """*raw* as a read-only int8 copy, refusing any value other than ±1
    before the narrowing cast (int8 would wrap 255 to -1)."""
    if raw.size and not np.all((raw == 1) | (raw == -1)):
        raise ValueError(f"every {what} sample must be -1 or +1")
    arr = raw.astype(np.int8)
    arr.setflags(write=False)
    return arr


class _Wave:
    """Read-only one-dimensional sample array.  Equal only to a wave of the
    same type with equal samples; the hash reads sample values, not bytes,
    so it agrees with equality for int8, int64 and object arrays alike."""

    __slots__ = ("_samples",)

    @classmethod
    def _wrap(cls, arr: np.ndarray):
        # Trusted constructor for arrays already valid for this type.
        wave = object.__new__(cls)
        arr.setflags(write=False)
        wave._samples = arr
        return wave

    @property
    def samples(self) -> np.ndarray:
        return self._samples

    def __len__(self) -> int:
        return self._samples.size

    def __eq__(self, other: object) -> bool:
        if type(other) is not type(self):
            return NotImplemented
        return np.array_equal(self._samples, other._samples)

    def __hash__(self) -> int:
        return hash((type(self), tuple(self._samples.tolist())))

    def __repr__(self) -> str:
        return f"{type(self).__name__}(K={len(self)})"


class ClockedWave(_Wave):
    """Immutable sequence of bipolar unit samples, one per clock period."""

    __slots__ = ()

    def __init__(self, samples: Iterable[int]):
        raw = np.asarray(samples)
        if raw.ndim != 1:
            raise ValueError("samples must be one-dimensional")
        self._samples = _frozen_bipolar(raw, "ClockedWave")

    def __mul__(self, other: "ClockedWave") -> "ClockedWave":
        return multiply(self, other)


class IntegerWave(_Wave):
    """Immutable integer-valued waveform (sums of clocked waves)."""

    __slots__ = ()

    def __init__(self, samples: Iterable[int]):
        arr = np.asarray(samples)
        if arr.ndim != 1:
            raise ValueError("samples must be one-dimensional")
        if arr.size == 0:
            arr = np.zeros(0, dtype=np.int64)
        elif arr.dtype == object:
            arr = arr.copy()
            if not all(isinstance(s, (int, np.integer)) for s in arr):
                raise ValueError("samples must be integers")
        elif np.issubdtype(arr.dtype, np.integer):
            arr = arr.astype(np.int64)
        else:
            raise ValueError(f"samples must be integers, got dtype {arr.dtype}")
        arr.setflags(write=False)
        self._samples = arr


def generate_rtw(seed: SeedSpec, clocks: int) -> ClockedWave:
    """Generate a random telegraph wave of *clocks* fair ±1 samples.

    Bit-reproducible for equal (seed, clocks); a shorter call returns a
    prefix of a longer call with the same seed.
    """
    if clocks < 0:
        raise ValueError("clock count must be non-negative")
    bits = seed.bits(clocks)
    samples = (2 * bits.astype(np.int8) - 1)
    return ClockedWave._wrap(samples)


class ReferenceSystem:
    """The 2N independent reference waves {L_r, H_r} for N noise-bits, held
    as one read-only (2, N, K) int8 array of ±1 samples."""

    __slots__ = ("_samples",)

    def __init__(self, samples: np.ndarray):
        raw = np.asarray(samples)
        if raw.ndim != 3 or raw.shape[0] != 2:
            raise ValueError(f"samples must have shape (2, N, K), got {raw.shape}")
        self._samples = _frozen_bipolar(raw, "reference")

    @property
    def samples(self) -> np.ndarray:
        """samples[0] holds L_1..L_N and samples[1] holds H_1..H_N, as (N, K) rows."""
        return self._samples

    @property
    def n_bits(self) -> int:
        return self._samples.shape[1]

    @property
    def clocks(self) -> int:
        return self._samples.shape[2]

    def low(self, r: int) -> ClockedWave:
        """A read-only view of L_r, for bit index r in 1..N."""
        return ClockedWave._wrap(self._samples[0, self._row(r)])

    def high(self, r: int) -> ClockedWave:
        """A read-only view of H_r, for bit index r in 1..N."""
        return ClockedWave._wrap(self._samples[1, self._row(r)])

    def _row(self, r: int) -> int:
        if not 1 <= r <= self.n_bits:
            raise ValueError(f"bit index {r} out of range 1..{self.n_bits}")
        return r - 1

    def __repr__(self) -> str:
        return f"ReferenceSystem(N={self.n_bits}, K={self.clocks})"


def make_reference_system(master_seed: int, n_bits: int, clocks: int) -> ReferenceSystem:
    """Build the 2N reference waves from distinct substreams of one seed."""
    if n_bits < 0 or clocks < 0:
        raise ValueError("bit and clock counts must be non-negative")
    root = SeedSpec(master_seed)
    bits = np.empty((2, n_bits, clocks), dtype=np.int8)
    for half, r in np.ndindex(2, n_bits):
        bits[half, r] = root.child("bit", r + 1, "LH"[half]).bits(clocks)
    return ReferenceSystem(2 * bits - 1)


def multiply(a: ClockedWave, b: ClockedWave) -> ClockedWave:
    """Samplewise product of two equal-length waves (again bipolar)."""
    if len(a) != len(b):
        raise ValueError(f"length mismatch: {len(a)} vs {len(b)}")
    return ClockedWave._wrap(a.samples * b.samples)


def time_average_product(a: ClockedWave, b: ClockedWave) -> float:
    """(1/K)·Σ a(t)b(t); exactly 1.0 for identical waves, -1.0 for a and -a."""
    if len(a) != len(b):
        raise ValueError(f"length mismatch: {len(a)} vs {len(b)}")
    if len(a) == 0:
        raise ValueError("time average undefined for empty waves")
    total = int(np.dot(a.samples.astype(np.int64), b.samples.astype(np.int64)))
    return total / len(a)


def save_wave_file(path, wave: ClockedWave) -> None:
    """Write one "+1"/"-1" line per sample, newline-terminated."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for sample in wave.samples:
            fh.write("+1\n" if sample == 1 else "-1\n")


def load_wave_file(path) -> ClockedWave:
    """Read a wave file written by :func:`save_wave_file`."""
    samples = []
    with open(path, "r", encoding="utf-8") as fh:
        for line_no, line in enumerate(fh, start=1):
            token = line.strip()
            if token == "+1":
                samples.append(1)
            elif token == "-1":
                samples.append(-1)
            else:
                raise ValueError(f"{path}:{line_no}: expected '+1' or '-1', got {token!r}")
    return ClockedWave(samples)
