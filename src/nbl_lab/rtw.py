"""Random telegraph waves: deterministic generation and waveform algebra.

A random telegraph wave (RTW) holds a fresh fair draw from {-1, +1} for
each clock period.  Everything downstream (product strings, universes,
readout experiments) is built from the immutable wave types defined here.
"""

from __future__ import annotations

import functools
import hashlib
import math
import operator
from dataclasses import dataclass
from numbers import Real
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
_FIRST_COUNTER = bytes(8)  # block 0's counter

PathElement = Union[int, str]


def _index(value, name: str, minimum: int | None = None) -> int:
    """*value* as an int (numpy integers included), the package's one
    integer rule.  A bool or any non-integer is refused with a TypeError
    naming *name*; a value below *minimum*, when one is given, with a
    ValueError naming both."""
    try:
        if isinstance(value, bool):  # an int subclass, but not a count
            raise TypeError
        value = operator.index(value)
    except TypeError:
        raise TypeError(f"{name} must be an integer, got {value!r}") from None
    if minimum is not None and value < minimum:
        raise ValueError(f"{name} must be at least {minimum}, got {value}")
    return value


def _real(value, name: str) -> float:
    """*value* as a finite float (numpy floats included), the package's one
    real-number rule.  A bool or any non-real is refused with a TypeError
    naming *name*; a NaN, an infinity or an int past the float range with
    a ValueError naming it."""
    if isinstance(value, bool) or not isinstance(value, Real):  # a bool is not a real
        raise TypeError(f"{name} must be a real number, got {value!r}")
    try:
        number = float(value)
    except OverflowError:  # an int past the float range
        number = math.inf
    if not math.isfinite(number):
        raise ValueError(f"{name} must be finite, got {value!r}")
    return number


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


def _path_element(element) -> PathElement:
    """*element* as stored in a path: a str as it is, or an int under the
    integer rule (numpy integers included) in the signed 64-bit range."""
    if type(element) is not int:  # plain ints skip the conversion
        if isinstance(element, str):
            return element
        try:
            element = _index(element, "path element")  # refuses bool
        except TypeError:
            raise TypeError(f"path elements must be int or str, "
                            f"got {type(element).__name__}") from None
    if not -2**63 <= element < 2**63:
        raise ValueError(f"int path element {element} is outside the signed 64-bit range")
    return element


def _encode_path_element(element: PathElement) -> bytes:
    element = _path_element(element)
    if type(element) is int:
        return b"i" + element.to_bytes(8, "big", signed=True)
    raw = element.encode("utf-8")
    return b"s" + len(raw).to_bytes(4, "big") + raw


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
        object.__setattr__(self, "path", tuple(map(_path_element, self.path)))

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
        return _stream_bits((self.stream_key(),), _index(count, "count", 0))[0]


def _stream_bytes(keys: Sequence[bytes], n_blocks: int) -> bytearray:
    """The first *n_blocks* blocks of each key's stream, key after key: block
    i is the keyed blake2b digest of the 8-byte big-endian counter i.  A
    longer stream absorbs its key once into a state that is copied per
    block, except for the last block, which is hashed on the state itself.
    Digests are appended to the one buffer returned, so a call holds about
    the bytes it returns."""
    data = bytearray()
    if n_blocks:
        last = n_blocks - 1
        for key in keys:
            state = hashlib.blake2b(key=key, digest_size=_BLOCK_BYTES)
            for i in range(last):
                block = state.copy()
                block.update(i.to_bytes(8, "big"))
                data += block.digest()
            state.update(last.to_bytes(8, "big"))
            data += state.digest()
    return data


def _stream_bits(keys: Sequence[bytes], count: int) -> np.ndarray:
    """Each key's first *count* stream bits, as a (len(keys), count) uint8 array."""
    n_blocks = -(-count // _BLOCK_BITS)
    bits = np.unpackbits(np.frombuffer(_stream_bytes(keys, n_blocks), dtype=np.uint8))
    return bits.reshape(len(keys), n_blocks * _BLOCK_BITS)[:, :count]


def _cut_rows(data: bytes, count: int, stride: int, clocks: int) -> list[int]:
    """The rows of *count* waves from records *stride* bytes apart in *data*,
    each record's bits set where a sample is +1, as in a stream.

    A row is a K-bit int with clock 1 as its most significant bit and a bit
    set where the sample is -1, so the row of a product of waves is the XOR
    of their rows.  Every int path reads rows in this one format: the Monte
    Carlo engine, ``gf2_fast_readout``, universe-check's sign planes and
    orthogonality's popcount."""
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
    """The row of each line of an (R, K) array of ±1 samples (checked in the
    tests against the rows of the same waves read from their streams)."""
    packed = np.packbits(samples == 1, axis=1)
    return _cut_rows(packed.tobytes(), len(packed), packed.shape[1], samples.shape[1])


def _encode_path(path: Iterable[PathElement]) -> bytes:
    return b"".join(_encode_path_element(element) for element in path)


def _prefix_state(master_seed: int, prefix: bytes) -> "hashlib.blake2b":
    """The hash state of domain ‖ master ‖ *prefix*, which the key of every
    path under *prefix* copies and finishes with its encoded suffix."""
    state = hashlib.blake2b(_STREAM_DOMAIN, digest_size=32)
    state.update(_master_seed(master_seed).to_bytes(8, "big"))
    state.update(prefix)
    return state


def _derive_keys(master_seed: int, prefix: bytes, suffixes: Iterable[bytes]) -> Iterator[bytes]:
    """The stream key of each path *prefix* ‖ *suffix* under *master_seed*,
    with prefix and suffixes already encoded by :func:`_encode_path`.  The
    prefix state is taken once and copied per child, so each key equals
    ``SeedSpec(master_seed, path).stream_key()``."""
    state = _prefix_state(master_seed, prefix)
    for suffix in suffixes:
        child = state.copy()
        child.update(suffix)
        yield child.digest()


def _all_bipolar(samples: np.ndarray) -> bool:
    """Whether every sample is -1 or +1 (vacuously true for none)."""
    return bool(np.all((samples == 1) | (samples == -1)))


def _frozen_samples(samples, bipolar: str | None = None) -> np.ndarray:
    """*samples* as a read-only copy under the one sample rule: every sample
    is an integer, kept as int64 or, where int64 cannot hold it, as a Python
    int.  A numpy array of a non-object dtype is read by its dtype, which
    must be an integer one unless the array is empty.  Any other input (a
    list, nested list, object array, or an iterator, read as a list first)
    is read element by element, refusing a bool or non-integer element as
    :func:`_index` does; rows that numpy cannot stack are refused as
    ragged.  Samples that *bipolar* names must be ±1 before the int8
    narrowing."""
    if isinstance(samples, np.ndarray) and samples.dtype != object:
        if samples.size and samples.dtype.kind not in "iu":
            raise ValueError(f"samples must be integers, got dtype {samples.dtype}")
        arr = samples.astype(np.int64) if samples.size else np.zeros(samples.shape, np.int64)
        if samples.dtype.kind == "u" and np.any(arr < 0):  # uint64 past 2^63 - 1 wrapped
            arr = samples.astype(object)
    else:
        if isinstance(samples, Iterable) and not isinstance(samples, (Sequence, np.ndarray)):
            samples = list(samples)  # numpy would hold an iterator as one object
        try:
            arr = np.array(samples, dtype=object)
        except ValueError:  # numpy's "could not broadcast" for rows of unlike shapes
            raise ValueError("samples have ragged rows, which differ in shape") from None
        if not {int}.issuperset(map(type, arr.flat)):  # plain ints skip the conversion
            try:
                arr = np.array([_index(v, "sample") for v in arr.flat], object).reshape(arr.shape)
            except TypeError as exc:
                raise ValueError(str(exc)) from None
        try:
            arr = arr.astype(np.int64)
        except OverflowError:  # a value past int64 keeps Python ints
            pass
    if bipolar is not None:
        if not _all_bipolar(arr):
            raise ValueError(f"every {bipolar} sample must be -1 or +1")
        arr = arr.astype(np.int8)
    arr.setflags(write=False)
    return arr


class _Wave:
    """Read-only one-dimensional sample array.  Equal only to a wave of the
    same type with equal samples; the hash reads sample values, not bytes,
    so it agrees with equality for int8, int64 and object arrays alike."""

    __slots__ = ("_samples",)
    _bipolar: str | None = None  # names the samples when they must be ±1

    def __init__(self, samples: Iterable[int]):
        arr = _frozen_samples(samples, self._bipolar)
        if arr.ndim != 1:
            raise ValueError("samples must be one-dimensional")
        self._samples = arr

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
    _bipolar = "ClockedWave"

    def __mul__(self, other: "ClockedWave") -> "ClockedWave":
        return multiply(self, other)


class IntegerWave(_Wave):
    """Immutable integer-valued waveform (sums of clocked waves)."""

    __slots__ = ()


def generate_rtw(seed: SeedSpec, clocks: int) -> ClockedWave:
    """Generate a random telegraph wave of *clocks* fair ±1 samples.

    Bit-reproducible for equal (seed, clocks); a shorter call returns a
    prefix of a longer call with the same seed.
    """
    return ClockedWave._wrap(2 * seed.bits(_index(clocks, "clocks", 0)).view(np.int8) - 1)


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
        arr = _frozen_samples(samples, "reference")
        if arr.ndim != 3 or arr.shape[0] != 2:
            raise ValueError(f"samples must have shape (2, N, K), got {arr.shape}")
        self._samples = arr

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
    L_r is the stream at path ("bit", r, "L") and H_r at ("bit", r, "H").
    The 2N keys are derived from one ("bit",) prefix state, and all 2N
    streams are unpacked in one call."""
    n_bits, clocks = _index(n_bits, "n_bits", 0), _index(clocks, "clocks", 0)
    bits = _stream_bits(_reference_keys(master_seed, n_bits), clocks).reshape(2, n_bits, clocks)
    return ReferenceSystem._wrap(2 * bits.view(np.int8) - 1)


def _reference_rows(master_seed: int, n_bits: int, clocks: int) -> list[int]:
    """The rows of the 2N waves of ``make_reference_system(master_seed,
    n_bits, clocks)``, L_1..L_N then H_1..H_N; that function is its oracle
    in the tests."""
    return _stream_rows(_reference_keys(master_seed, n_bits), clocks)


def _pair_rows(master_seed: int, n_bits: int, clocks: int) -> Iterator[int]:
    """row(L_r) ^ row(H_r) of the waves of ``make_reference_system(master_seed,
    n_bits, clocks)`` for r = 1..N, hashing the keys and streams of pair r
    only when its row is asked for.  The complements of :func:`_cut_rows`
    cancel in the XOR, so each pair XORs its two streams' bits and takes one
    shift to K bits.  A one-block stream, every stream at K <= 512, is
    hashed here in one keyed call, under the counter :func:`_stream_bytes`
    gives block 0: calling ``_stream_bytes`` per pair instead made the
    Monte Carlo benchmark about a quarter slower.  The XOR of the two
    halves of :func:`_reference_rows` is its oracle in the tests."""
    n_blocks = -(-clocks // _BLOCK_BITS)
    shift = n_blocks * _BLOCK_BITS - clocks
    suffixes = _bit_suffixes(n_bits)
    state = _prefix_state(master_seed, _BIT_PREFIX)
    blake2b, from_bytes = hashlib.blake2b, int.from_bytes
    for low_suffix, high_suffix in zip(suffixes[:n_bits], suffixes[n_bits:]):
        low_key = state.copy()
        low_key.update(low_suffix)
        high_key = state.copy()
        high_key.update(high_suffix)
        if n_blocks == 1:
            low = blake2b(_FIRST_COUNTER, key=low_key.digest(), digest_size=_BLOCK_BYTES).digest()
            high = blake2b(_FIRST_COUNTER, key=high_key.digest(), digest_size=_BLOCK_BYTES).digest()
        else:
            low = _stream_bytes((low_key.digest(),), n_blocks)
            high = _stream_bytes((high_key.digest(),), n_blocks)
        yield (from_bytes(low, "big") ^ from_bytes(high, "big")) >> shift


def multiply(a: ClockedWave, b: ClockedWave) -> ClockedWave:
    """Samplewise product of two equal-length waves (again bipolar)."""
    for wave in (a, b):  # the product of other waves is not ±1
        if not isinstance(wave, ClockedWave):
            raise TypeError(f"multiply takes ClockedWaves, got {type(wave).__name__}")
    if len(a) != len(b):
        raise ValueError(f"length mismatch: {len(a)} vs {len(b)}")
    return ClockedWave._wrap(a.samples * b.samples)


def time_average_product(a: ClockedWave, b: ClockedWave) -> float:
    """(1/K)·Σ a(t)b(t); exactly 1.0 for identical waves, -1.0 for a and -a."""
    for wave in (a, b):
        if not isinstance(wave, _Wave):
            raise TypeError(f"time_average_product takes waves, got {type(wave).__name__}")
    if len(a) != len(b):
        raise ValueError(f"length mismatch: {len(a)} vs {len(b)}")
    if len(a) == 0:
        raise ValueError("time average undefined for empty waves")
    if a.samples.dtype == b.samples.dtype == np.int8:  # ±1 products, summed in int64
        return int((a.samples * b.samples).sum()) / len(a)
    # Larger products would wrap in int64, so they are summed as Python ints.
    return sum(map(operator.mul, a.samples.tolist(), b.samples.tolist())) / len(a)


def save_wave_file(path, wave: ClockedWave) -> None:
    """Write one "+1"/"-1" line per sample, newline-terminated."""
    if not isinstance(wave, ClockedWave):  # the format holds only ±1 samples
        raise TypeError(f"save_wave_file writes a ClockedWave, got {type(wave).__name__}")
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for sample in wave.samples:
            fh.write("+1\n" if sample == 1 else "-1\n")


def load_wave_file(path) -> ClockedWave:
    """Read a wave file written by :func:`save_wave_file`.  Blanks around a
    sample are ignored, so a line may read " +1 " or end in CRLF; any other
    line, an empty one included, is refused with its line number."""
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
