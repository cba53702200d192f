"""Random telegraph waves: deterministic generation and waveform algebra.

A random telegraph wave (RTW) holds a fresh fair draw from {-1, +1} for
each clock period.  Everything downstream (product strings, universes,
readout experiments) is built from the immutable wave types defined here.
"""

from __future__ import annotations

import functools
import hashlib
import operator
from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence, Union

from ._numpy import np

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
_BLOCK_BITS = _BLOCK_BYTES * 8

PathElement = Union[int, str]


def _index(value, name: str, minimum: int | None = None) -> int:
    """*value* as an int (numpy integers included), the package's one
    integer rule.  A bool or any non-integer is refused with a TypeError
    naming *name*; a value below *minimum*, when one is given, with a
    ValueError naming both."""
    if type(value) is not int:  # plain ints skip the conversion
        try:
            if isinstance(value, bool):  # an int subclass, but not a count
                raise TypeError
            value = operator.index(value)
        except TypeError:
            raise TypeError(f"{name} must be an integer, got {value!r}") from None
    if minimum is not None and value < minimum:
        raise ValueError(f"{name} must be at least {minimum}, got {value}")
    return value


def _bit_index(r, n_bits: int) -> int:
    """*r* as a bit index: an integer in 1..*n_bits*."""
    r = _index(r, "bit index")
    if not 1 <= r <= n_bits:
        raise ValueError(f"bit index {r} out of range 1..{n_bits}")
    return r


def _master_seed(value) -> int:
    """*value* as a master seed: an integer in [0, 2^64), with one message
    for both ends of the range."""
    value = _index(value, "master_seed")
    if not 0 <= value < 2**64:
        raise ValueError("master_seed must be a 64-bit unsigned integer")
    return value


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
        object.__setattr__(self, "master_seed", _master_seed(self.master_seed))
        if isinstance(self.path, (str, bytes)):  # tuple() would split it into characters
            raise TypeError(f"path must be a tuple of elements, got {self.path!r}")
        object.__setattr__(self, "path", tuple(self.path))
        for element in self.path:
            _encode_path_element(element)

    def child(self, *elements: PathElement) -> "SeedSpec":
        """Extend the derivation path."""
        return SeedSpec(self.master_seed, self.path + elements)

    def stream_key(self) -> bytes:
        """32-byte key identifying this substream (the slow oracle for
        :func:`_derive_keys`)."""
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
        count = _index(count, "count", 0)
        buf = _stream_bytes((self.stream_key(),), -(-count // _BLOCK_BITS))
        return np.unpackbits(np.frombuffer(buf, dtype=np.uint8))[:count]


def _stream_bytes(keys: Sequence[bytes], n_blocks: int) -> bytes:
    """The first *n_blocks* blocks of each key's stream, key after key: block
    i is the keyed blake2b digest of the 8-byte big-endian counter i."""
    if not keys:
        return b""
    counters = [i.to_bytes(8, "big") for i in range(n_blocks)]
    return b"".join(hashlib.blake2b(counter, key=key, digest_size=_BLOCK_BYTES).digest()
                    for key in keys for counter in counters)


def _cut_rows(data: bytes, count: int, stride: int, clocks: int) -> list[int]:
    """The rows of *count* waves from records *stride* bytes apart in *data*,
    each record's bits set where a sample is +1, as in a stream.

    A row is a K-bit int with clock 1 as its most significant bit and a bit
    set where the sample is -1, so the row of a product of waves is the XOR
    of their rows.  Every int path reads rows in this one format."""
    width = -(-clocks // 8)
    pad = 8 * width - clocks
    ones = (1 << 8 * width) - 1
    return [(ones ^ int.from_bytes(data[j * stride:j * stride + width], "big")) >> pad
            for j in range(count)]


def _stream_rows(keys: Sequence[bytes], clocks: int) -> list[int]:
    """The row of each key's first *clocks* stream samples (the waves of
    ``generate_rtw``), all cut from one :func:`_stream_bytes` call.  The
    count is taken as already checked."""
    n_blocks = -(-clocks // _BLOCK_BITS)
    return _cut_rows(_stream_bytes(keys, n_blocks), len(keys), n_blocks * _BLOCK_BYTES, clocks)


def _sign_rows(samples: np.ndarray) -> list[int]:
    """The row of each line of an (R, K) array of ±1 samples."""
    packed = np.packbits(samples == 1, axis=1)
    return _cut_rows(packed.tobytes(), len(packed), packed.shape[1], samples.shape[1])


def _encode_path(path: Iterable[PathElement]) -> bytes:
    return b"".join(_encode_path_element(element) for element in path)


def _derive_keys(master_seed: int, prefix: bytes, suffixes: Iterable[bytes]) -> Iterator[bytes]:
    """The stream key of each path *prefix* ‖ *suffix* under *master_seed*,
    with prefix and suffixes already encoded by :func:`_encode_path`.  The
    hash of domain ‖ master ‖ prefix is taken once and copied per child, so
    each key equals ``SeedSpec(master_seed, path).stream_key()``."""
    state = hashlib.blake2b(_STREAM_DOMAIN, digest_size=32)
    state.update(_master_seed(master_seed).to_bytes(8, "big"))
    state.update(prefix)
    for suffix in suffixes:
        child = state.copy()
        child.update(suffix)
        yield child.digest()


def _all_bipolar(samples: np.ndarray) -> bool:
    """Whether every sample is -1 or +1 (vacuously true for none)."""
    return bool(np.all((samples == 1) | (samples == -1)))


def _frozen_bipolar(raw: np.ndarray, what: str) -> np.ndarray:
    """*raw* as a read-only int8 copy, refusing any value other than ±1
    before the narrowing cast (int8 would wrap 255 to -1)."""
    if not _all_bipolar(raw):
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
    bits = seed.bits(_index(clocks, "clocks", 0))
    samples = (2 * bits.astype(np.int8) - 1)
    return ClockedWave._wrap(samples)


class ReferenceSystem:
    """The 2N independent reference waves {L_r, H_r} for N noise-bits, held
    as one read-only (2, N, K) int8 array of ±1 samples."""

    __slots__ = ("_samples",)

    @classmethod
    def _wrap(cls, samples: np.ndarray) -> "ReferenceSystem":
        # Trusted constructor for a (2, N, K) int8 array of ±1 samples.
        refsys = object.__new__(cls)
        samples.setflags(write=False)
        refsys._samples = samples
        return refsys

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
        return ClockedWave._wrap(self._samples[0, _bit_index(r, self.n_bits) - 1])

    def high(self, r: int) -> ClockedWave:
        """A read-only view of H_r, for bit index r in 1..N."""
        return ClockedWave._wrap(self._samples[1, _bit_index(r, self.n_bits) - 1])

    def __repr__(self) -> str:
        return f"ReferenceSystem(N={self.n_bits}, K={self.clocks})"


_BIT_PREFIX = _encode_path(("bit",))


@functools.lru_cache(maxsize=16)
def _bit_suffixes(n_bits: int) -> tuple[bytes, ...]:
    """The encoded path suffixes (r, "L") for r = 1..N, then (r, "H")."""
    return tuple(_encode_path((r, half)) for half in "LH" for r in range(1, n_bits + 1))


def _reference_keys(master_seed: int, n_bits: int) -> list[bytes]:
    """The stream keys of L_1..L_N, then H_1..H_N."""
    return list(_derive_keys(master_seed, _BIT_PREFIX, _bit_suffixes(n_bits)))


def make_reference_system(master_seed: int, n_bits: int, clocks: int) -> ReferenceSystem:
    """Build the 2N reference waves from distinct substreams of one seed:
    L_r is the stream at path ("bit", r, "L") and H_r at ("bit", r, "H")."""
    n_bits, clocks = _index(n_bits, "n_bits", 0), _index(clocks, "clocks", 0)
    keys = _reference_keys(master_seed, n_bits)
    n_blocks = -(-clocks // _BLOCK_BITS)
    bits = np.unpackbits(np.frombuffer(_stream_bytes(keys, n_blocks), dtype=np.uint8))
    bits = bits.reshape(2, n_bits, n_blocks * _BLOCK_BITS)[..., :clocks].view(np.int8)
    return ReferenceSystem._wrap(2 * bits - 1)


def _reference_rows(master_seed: int, n_bits: int, clocks: int) -> list[int]:
    """The rows of the 2N waves of ``make_reference_system(master_seed,
    n_bits, clocks)``, L_1..L_N then H_1..H_N."""
    return _stream_rows(_reference_keys(master_seed, n_bits), clocks)


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
    # numpy sums int8 products in int64; object samples stay Python ints.
    return int((a.samples * b.samples).sum()) / len(a)


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
