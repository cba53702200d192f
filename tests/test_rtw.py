"""Wave generation determinism, algebra identities, and finite-clock
orthogonality statistics."""

import hashlib
import re
import statistics
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from nbl_lab import (
    ClockedWave,
    IntegerWave,
    ReferenceSystem,
    SeedSpec,
    generate_rtw,
    load_wave_file,
    make_reference_system,
    multiply,
    save_wave_file,
    time_average_product,
)
from nbl_lab.rtw import (_derive_keys, _encode_path, _frozen_samples, _pair_rows, _reference_rows,
                         _sign_rows, _stream_bytes, _stream_rows)

SEED = 0xD1CEBA5E

bipolar_lists = st.lists(st.sampled_from([-1, 1]), min_size=0, max_size=64)
# Small samples, so that many draws fit in int64, and samples past it at both ends.
sample_ints = st.one_of(st.integers(-4, 4), st.integers(-2**70, 2**70))
sample_lists = st.one_of(
    st.lists(sample_ints, max_size=8),
    st.tuples(st.integers(0, 3), st.integers(0, 4)).flatmap(
        lambda shape: st.lists(st.lists(sample_ints, min_size=shape[1], max_size=shape[1]),
                               min_size=shape[0], max_size=shape[0])))
paths = st.lists(st.one_of(st.integers(-2**63, 2**63 - 1), st.text(max_size=8)),
                 max_size=4).map(tuple)


def fixed_wave(tag, clocks, seed=SEED):
    return generate_rtw(SeedSpec(seed, ("test", tag)), clocks)


class TestSeedSpec:
    def test_master_seed_range(self):
        SeedSpec(0)
        SeedSpec(2**64 - 1)
        with pytest.raises(ValueError):
            SeedSpec(-1)
        with pytest.raises(ValueError):
            SeedSpec(2**64)
        with pytest.raises(TypeError):
            SeedSpec(True)

    @pytest.mark.parametrize("seed", [5.0, 5.5, True, "5"])
    def test_master_seed_must_be_an_integer(self, seed):
        with pytest.raises(TypeError, match="^master_seed must be an integer"):
            SeedSpec(seed)

    def test_reference_system_refuses_float_seed(self):
        with pytest.raises(TypeError, match="^master_seed must be an integer, got 5.0$"):
            make_reference_system(5.0, 2, 4)

    def test_numpy_master_seed_is_stored_as_int(self):
        spec = SeedSpec(np.uint64(5), ("a",))
        assert type(spec.master_seed) is int
        assert spec == SeedSpec(5, ("a",))
        assert spec.stream_key() == SeedSpec(5, ("a",)).stream_key()

    def test_path_elements_typed(self):
        SeedSpec(1, ("bit", 3, "L"))
        with pytest.raises(TypeError):
            SeedSpec(1, (3.5,))
        with pytest.raises(TypeError):
            SeedSpec(1, (True,))

    @pytest.mark.parametrize("path", ["bit", b"bit"])
    def test_path_must_not_be_a_string(self, path):
        # tuple("bit") would be the path ("b", "i", "t"), a different stream.
        with pytest.raises(TypeError, match="path must be a tuple"):
            SeedSpec(5, path)

    def test_numpy_path_integers_are_stored_as_int(self):
        spec = SeedSpec(1, ("pair", np.int32(0), np.int64(3)))
        assert [type(element) for element in spec.path] == [str, int, int]
        assert spec == SeedSpec(1, ("pair", 0, 3))
        assert spec.stream_key() == SeedSpec(1, ("pair", 0, 3)).stream_key()

    def test_path_integers_limited_to_signed_64_bit(self):
        SeedSpec(1, (2**63 - 1, -2**63))
        for element in (2**63, -2**63 - 1):
            with pytest.raises(ValueError, match="signed 64-bit range"):
                SeedSpec(1, (element,))

    def test_child_extends_path(self):
        spec = SeedSpec(1, ("a",)).child("b", 2)
        assert spec.path == ("a", "b", 2)

    def test_distinct_paths_distinct_keys(self):
        keys = {
            SeedSpec(1, ()).stream_key(),
            SeedSpec(1, ("a",)).stream_key(),
            SeedSpec(1, ("b",)).stream_key(),
            SeedSpec(1, ("a", "b")).stream_key(),
            SeedSpec(2, ("a",)).stream_key(),
        }
        assert len(keys) == 5

    @given(st.integers(0, 2**64 - 1), paths, st.lists(paths, max_size=5))
    @settings(max_examples=200)
    def test_prefix_derived_keys_equal_stream_keys(self, master_seed, prefix, suffixes):
        keys = _derive_keys(master_seed, _encode_path(prefix), map(_encode_path, suffixes))
        assert list(keys) == [SeedSpec(master_seed, prefix + suffix).stream_key()
                              for suffix in suffixes]

    def test_derive_seed_is_u64_and_stable(self):
        derived = SeedSpec(99, ("trial", 7)).derive_seed()
        assert 0 <= derived < 2**64
        assert derived == SeedSpec(99, ("trial", 7)).derive_seed()

    @pytest.mark.parametrize("count", [1, 511, 512, 513, 1030, 1536])
    def test_bits_are_keyed_blake2b_of_the_block_counter(self, count):
        # Block i of a stream is blake2b(i as 8 big-endian bytes) keyed by the
        # stream key; blocks 1 and 2 tell the counter's byte order.
        spec = SeedSpec(SEED, ("stream", 3))
        blocks = b"".join(
            hashlib.blake2b(i.to_bytes(8, "big"), key=spec.stream_key(), digest_size=64).digest()
            for i in range(3))
        expected = np.unpackbits(np.frombuffer(blocks, dtype=np.uint8))[:count]
        assert np.array_equal(spec.bits(count), expected)

    def test_no_keys_hash_nothing_and_hold_nothing(self):
        # 2^18 eight-byte counters would take about 12.5 MiB for no stream.
        tracemalloc.start()
        try:
            assert _stream_bytes([], 2**18) == b""
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 64 * 1024

    @pytest.mark.parametrize("n_blocks", [0, 1, 2, 3])
    def test_stream_bytes_are_each_keys_blocks_key_after_key(self, n_blocks):
        keys = [SeedSpec(SEED, ("stream", side)).stream_key() for side in range(3)]
        expected = b"".join(
            hashlib.blake2b(i.to_bytes(8, "big"), key=key, digest_size=64).digest()
            for key in keys for i in range(n_blocks))
        assert _stream_bytes(keys, n_blocks) == expected

    def test_a_long_stream_peaks_near_the_bytes_it_returns(self):
        # One buffer of digests: no per-block bytes objects or counters held.
        key = SeedSpec(SEED, ("stream", 0)).stream_key()
        tracemalloc.start()
        try:
            data = _stream_bytes([key], 2**16)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(data) == 2**16 * 64
        assert peak <= 1.5 * len(data)

    @pytest.mark.parametrize("count", [True, 2.5, "4"])
    def test_bit_count_must_be_an_integer(self, count):
        message = f"count must be an integer, got {count!r}"
        with pytest.raises(TypeError, match=f"^{re.escape(message)}$"):
            SeedSpec(SEED).bits(count)

    def test_numpy_bit_count_accepted(self):
        assert np.array_equal(SeedSpec(SEED).bits(np.uint16(20)), SeedSpec(SEED).bits(20))


class TestGenerateRtw:
    def test_deterministic(self):
        a = fixed_wave("det", 8)
        b = fixed_wave("det", 8)
        assert a == b

    def test_samples_bipolar(self):
        wave = fixed_wave("bipolar", 1000)
        assert set(np.unique(wave.samples)) <= {-1, 1}

    def test_empty_wave(self):
        assert len(generate_rtw(SeedSpec(SEED), 0)) == 0

    def test_negative_clocks_rejected(self):
        with pytest.raises(ValueError):
            generate_rtw(SeedSpec(SEED), -1)

    @pytest.mark.parametrize("clocks", [True, 2.5, "4"])
    def test_clocks_must_be_an_integer(self, clocks):
        message = f"clocks must be an integer, got {clocks!r}"
        with pytest.raises(TypeError, match=f"^{re.escape(message)}$"):
            generate_rtw(SeedSpec(SEED), clocks)

    def test_numpy_clocks_accepted(self):
        assert generate_rtw(SeedSpec(SEED), np.int64(20)) == generate_rtw(SeedSpec(SEED), 20)

    @pytest.mark.parametrize("short,long", [(5, 8), (100, 700), (512, 513), (1, 2048)])
    def test_prefix_stability(self, short, long):
        # 512 samples per stream block; the pairs straddle block boundaries.
        spec = SeedSpec(SEED, ("prefix",))
        prefix = generate_rtw(spec, short)
        full = generate_rtw(spec, long)
        assert np.array_equal(prefix.samples, full.samples[:short])

    def test_distinct_paths_differ(self):
        a = fixed_wave("x", 256)
        b = fixed_wave("y", 256)
        assert a != b

    def test_sample_mean_within_four_sigma(self):
        # Binomial 4-sigma bound: all but ~6e-5 of waves should satisfy it.
        clocks = 10_000
        bound = 4 / clocks**0.5
        root = SeedSpec(SEED)
        passed = sum(
            1
            for i in range(100)
            if abs(generate_rtw(root.child("mean-check", i), clocks).samples.mean()) <= bound
        )
        assert passed >= 95


class TestClockedWave:
    def test_validation(self):
        ClockedWave([1, -1, 1])
        ClockedWave([])
        with pytest.raises(ValueError):
            ClockedWave([1, 0, -1])
        with pytest.raises(ValueError):
            ClockedWave([2])
        with pytest.raises(ValueError):
            ClockedWave([[1, -1]])
        with pytest.raises(ValueError):
            ClockedWave([255])  # must not wrap through int8 to -1
        with pytest.raises(ValueError):
            ClockedWave([1.5])  # must not truncate to 1
        # The integer rule, as IntegerWave states it: no bool, float or complex samples.
        for samples, dtype in ((np.array([True, True]), "bool"),
                               (np.array([1.0, -1.0]), "float64"),
                               (np.array([1 + 0j]), "complex128")):
            with pytest.raises(ValueError, match=f"^samples must be integers, got dtype {dtype}$"):
                ClockedWave(samples)
        # An object array follows the same rule, element by element.
        for value in (1.0, True):
            with pytest.raises(ValueError, match=f"^sample must be an integer, got {value!r}$"):
                ClockedWave(np.array([value, -1], dtype=object))
        assert ClockedWave(np.array([1, -1], dtype=object)) == ClockedWave([1, -1])
        for dtype in (bool, np.float64, np.complex128, object, np.uint64, str):
            assert ClockedWave(np.zeros(0, dtype=dtype)) == ClockedWave([])

    def test_a_list_follows_the_element_rule(self):
        # numpy alone would read this list as int64, with True as 1.
        with pytest.raises(ValueError, match="^sample must be an integer, got True$"):
            ClockedWave([True, -1])
        with pytest.raises(ValueError, match="^sample must be an integer, got True$"):
            ReferenceSystem([[[True, -1]], [[1, 1]]])
        assert ClockedWave([1, -1]).samples.dtype == np.int8

    def test_only_a_numpy_array_is_read_by_its_dtype(self):
        # numpy alone would read these lists as a bool and a str dtype, and
        # refuse the ragged one with its own text.
        with pytest.raises(ValueError, match="^sample must be an integer, got True$"):
            ClockedWave([True, True])
        with pytest.raises(ValueError, match="^sample must be an integer, got 'a'$"):
            ClockedWave(["a"])
        with pytest.raises(ValueError, match=r"^sample must be an integer, got \[1, -1\]$"):
            ReferenceSystem([[[1, -1]], [[1]]])

    def test_an_iterator_is_read_as_a_list(self):
        assert ClockedWave(iter([1, -1])) == ClockedWave([1, -1])
        assert ClockedWave(s for s in (1, -1)) == ClockedWave([1, -1])
        with pytest.raises(ValueError, match="^sample must be an integer, got True$"):
            ClockedWave(iter([1, True]))

    def test_repr(self):
        assert repr(ClockedWave([1, -1])) == "ClockedWave(K=2)"
        assert repr(IntegerWave([5])) == "IntegerWave(K=1)"

    def test_samples_read_only(self):
        wave = ClockedWave([1, -1])
        with pytest.raises(ValueError):
            wave.samples[0] = -1

    def test_equality_and_hash(self):
        assert ClockedWave([1, -1]) == ClockedWave([1, -1])
        assert ClockedWave([1, -1]) != ClockedWave([-1, 1])
        assert hash(ClockedWave([1, -1])) == hash(ClockedWave([1, -1]))


class TestIntegerWave:
    def test_accepts_any_integers(self):
        wave = IntegerWave([0, -3, 7])
        assert list(wave.samples) == [0, -3, 7]

    def test_accepts_beyond_int64(self):
        big = 2**100
        wave = IntegerWave(np.array([big, -big], dtype=object))
        assert wave.samples[0] == big
        # uint64 past 2^63 - 1 must not wrap through int64.
        wave = IntegerWave(np.array([2**63, 2**64 - 1, 5], dtype=np.uint64))
        assert wave.samples.tolist() == [2**63, 2**64 - 1, 5]
        same = IntegerWave(np.array([2**63, 2**64 - 1, 5], dtype=object))
        assert wave == same and hash(wave) == hash(same)
        assert IntegerWave(np.array([5], dtype=np.uint64)).samples.dtype == np.int64

    def test_an_object_array_is_read_as_a_list(self):
        assert IntegerWave(np.array([5], dtype=object)).samples.dtype == np.int64
        assert IntegerWave(np.array([2**63, 5], dtype=object)).samples.tolist() == [2**63, 5]

    def test_a_list_follows_the_element_rule(self):
        # numpy alone would read the first list as int64 with True as 1, and
        # the second as float64.
        with pytest.raises(ValueError, match="^sample must be an integer, got True$"):
            IntegerWave([True, 2])
        wave = IntegerWave([2**63, -1])
        assert wave.samples.tolist() == [2**63, -1]
        assert type(wave.samples[0]) is int
        assert wave == IntegerWave(np.array([2**63, -1], dtype=object))
        assert IntegerWave([2**63 - 1, -2**63]).samples.dtype == np.int64
        # Plain ints that numpy reads as uint64, and bools among numpy ints.
        assert IntegerWave([2**63, 1]).samples.tolist() == [2**63, 1]
        with pytest.raises(ValueError, match="^sample must be an integer, got "):
            IntegerWave([np.int64(3), np.True_])

    def test_rejects_non_integers(self):
        with pytest.raises(ValueError):
            IntegerWave([0.5])
        with pytest.raises(ValueError):
            IntegerWave(np.zeros(4))  # float dtype
        with pytest.raises(ValueError):
            IntegerWave(np.array(["a"], dtype=object))
        with pytest.raises(ValueError, match="^sample must be an integer, got True$"):
            IntegerWave(np.array([True, 2], dtype=object))
        with pytest.raises(ValueError, match="one-dimensional"):
            IntegerWave([[1, 2]])

    def test_empty(self):
        assert len(IntegerWave([])) == 0
        for dtype in (bool, np.float64, np.complex128, object, np.uint64, str):
            assert IntegerWave(np.zeros(0, dtype=dtype)) == IntegerWave([])

    def test_equality(self):
        assert IntegerWave([1, 2]) == IntegerWave([1, 2])
        assert IntegerWave([1, 2]) != IntegerWave([1, 3])
        assert IntegerWave([1]) != IntegerWave([1, 1])

    def test_never_equals_a_clocked_wave(self):
        samples = np.array([1, -1, 1], dtype=np.int8)
        assert IntegerWave(samples) != ClockedWave(samples)
        assert ClockedWave(samples) != IntegerWave(samples)
        assert len({IntegerWave(samples), ClockedWave(samples)}) == 2

    def test_object_samples_hash_like_equal_waves(self):
        big = 2**100
        a = IntegerWave(np.array([big, -3], dtype=object))
        b = IntegerWave(np.array([big, -3], dtype=object))
        assert a == b and hash(a) == hash(b)
        small = IntegerWave(np.array([5, -3], dtype=object))
        assert small == IntegerWave([5, -3]) and hash(small) == hash(IntegerWave([5, -3]))


def list_forms(samples):
    """*samples*, a flat or nested list, in each form the element rule reads."""
    as_tuples = tuple(tuple(x) if isinstance(x, list) else x for x in samples)
    return [samples, as_tuples, iter(samples), np.array(samples, dtype=object)]


class TestSampleRule:
    @given(sample_lists)
    def test_a_list_its_tuples_an_iterator_and_an_object_array_read_alike(self, samples):
        values = [v for x in samples for v in (x if isinstance(x, list) else [x])]
        fits = all(-2**63 <= v < 2**63 for v in values)
        for form in list_forms(samples):
            arr = _frozen_samples(form)
            assert arr.dtype == (np.int64 if fits else object)
            assert arr.tolist() == samples
        if not samples or not isinstance(samples[0], list):
            assert len({IntegerWave(form) for form in list_forms(samples)}) == 1

    @given(st.lists(sample_ints, max_size=6), st.integers(0, 6),
           st.one_of(st.booleans(), st.floats(), st.text(max_size=3)))
    def test_a_bool_float_or_str_element_is_refused_naming_it(self, samples, position, element):
        samples.insert(position, element)
        with pytest.raises(ValueError,
                           match=f"^sample must be an integer, got {re.escape(repr(element))}$"):
            IntegerWave(samples)

    # numpy alone raises "could not broadcast input array from shape (2,2)
    # into shape (2,)" for the first.
    @pytest.mark.parametrize("rows", [
        [np.ones((2, 2), int), np.ones((2, 3), int)],
        [np.ones((1, 2), int), np.ones((1, 3), int)],
        (np.ones((2, 2, 1), int), np.ones((2, 2, 2), int)),
    ])
    def test_array_rows_of_unlike_shapes_are_refused_as_ragged(self, rows):
        with pytest.raises(ValueError, match="^samples have ragged rows, which differ in shape$"):
            ReferenceSystem(rows)


class TestMultiply:
    @given(bipolar_lists)
    def test_square_is_all_ones(self, samples):
        wave = ClockedWave(samples)
        assert multiply(wave, wave) == ClockedWave(np.ones(len(samples), dtype=np.int8))

    @given(bipolar_lists)
    def test_all_ones_is_identity(self, samples):
        wave = ClockedWave(samples)
        assert multiply(wave, ClockedWave(np.ones(len(samples), dtype=np.int8))) == wave

    @given(st.integers(0, 2**32), st.integers(1, 64))
    @settings(max_examples=30)
    def test_commutative_associative(self, seed, clocks):
        a = generate_rtw(SeedSpec(seed, ("a",)), clocks)
        b = generate_rtw(SeedSpec(seed, ("b",)), clocks)
        c = generate_rtw(SeedSpec(seed, ("c",)), clocks)
        assert multiply(a, b) == multiply(b, a)
        assert multiply(multiply(a, b), c) == multiply(a, multiply(b, c))

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            multiply(ClockedWave([1]), ClockedWave([1, 1]))

    def test_operator_form(self):
        a = fixed_wave("op", 32)
        b = fixed_wave("op2", 32)
        assert a * b == multiply(a, b)

    def test_refuses_a_wave_that_is_not_clocked(self):
        # The samplewise product of 2, 3 with itself is 4, 9: not a ClockedWave.
        for a, b in ((IntegerWave([2, 3]), IntegerWave([2, 3])),
                     (ClockedWave([1, -1]), IntegerWave([1, -1])),
                     (IntegerWave([1, -1]), ClockedWave([1, -1]))):
            with pytest.raises(TypeError, match="^multiply takes ClockedWaves, got IntegerWave$"):
                multiply(a, b)


class TestTimeAverageProduct:
    def test_identical_is_exactly_one(self):
        wave = fixed_wave("tap", 1000)
        assert time_average_product(wave, wave) == 1.0

    def test_negated_is_exactly_minus_one(self):
        wave = fixed_wave("tap-neg", 1000)
        assert time_average_product(wave, ClockedWave(-wave.samples)) == -1.0

    def test_empty_is_error(self):
        empty = ClockedWave([])
        with pytest.raises(ValueError):
            time_average_product(empty, empty)

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            time_average_product(ClockedWave([1]), ClockedWave([1, 1]))

    @pytest.mark.parametrize("a,b,shown", [
        ([1, -1], ClockedWave([1, 1]), "list"),
        (ClockedWave([1, 1]), np.array([1, 1]), "ndarray"),
    ])
    def test_a_non_wave_is_a_type_error_naming_its_type(self, a, b, shown):
        with pytest.raises(TypeError, match=f"^time_average_product takes waves, got {shown}$"):
            time_average_product(a, b)

    @pytest.mark.parametrize("make", [
        lambda values: ClockedWave([1 if v % 2 else -1 for v in values]),
        lambda values: IntegerWave(np.array(values, dtype=np.int64) - 500),
        # Products near 2^80 would wrap in int64; object samples stay exact.
        lambda values: IntegerWave(np.array([(v - 500) << 40 for v in values], dtype=object)),
    ], ids=["clocked", "int64", "object"])
    def test_equals_the_exact_python_sum(self, make):
        rng = np.random.default_rng(7)
        a = make(rng.integers(0, 1000, 257).tolist())
        b = make(rng.integers(0, 1000, 257).tolist())
        exact = sum(int(x) * int(y) for x, y in zip(a.samples, b.samples))
        assert time_average_product(a, b) == exact / 257

    @pytest.mark.parametrize("values", [[1 << 40, 1 << 40], [3037000500, 1], [-(2**62), 2**62]])
    @pytest.mark.parametrize("dtype", [np.int64, object])
    def test_products_past_int64_do_not_wrap(self, values, dtype):
        wave = IntegerWave(np.array(values, dtype=dtype))
        exact = sum(v * v for v in values)
        assert exact >= 2**63
        assert time_average_product(wave, wave) == exact / len(values)

    def test_independent_references_nearly_orthogonal(self):
        clocks = 10_000
        passed = 0
        for seed in range(100):
            system = make_reference_system(seed, 1, clocks)
            if abs(time_average_product(system.low(1), system.high(1))) <= 4 / clocks**0.5:
                passed += 1
        assert passed >= 95

    def test_sqrt_clock_convergence(self):
        # |<ab>| shrinks like K^(-1/2): medians 100 clocks apart in K
        # should sit an order of magnitude apart.
        root = SeedSpec(SEED)

        def median_abs(clocks):
            values = []
            for i in range(100):
                a = generate_rtw(root.child("pair", i, 0), clocks)
                b = generate_rtw(root.child("pair", i, 1), clocks)
                values.append(abs(time_average_product(a, b)))
            return statistics.median(values)

        ratio = median_abs(10_000) / median_abs(1_000_000)
        assert 3.3 <= ratio <= 33


class TestReferenceSystem:
    def test_empty_system(self):
        system = make_reference_system(SEED, 0, 16)
        assert system.n_bits == 0
        assert system.clocks == 16
        assert system.samples.shape == (2, 0, 16)

    def test_wave_count_and_length(self):
        system = make_reference_system(SEED, 3, 16)
        assert system.samples.shape == (2, 3, 16)

    @pytest.mark.parametrize("seed", [SEED, 42, 1])
    def test_pairwise_non_identical(self, seed):
        system = make_reference_system(seed, 3, 16)
        rows = system.samples.reshape(6, 16)
        assert len(np.unique(rows, axis=0)) == 6

    def test_deterministic(self):
        a = make_reference_system(SEED, 3, 16)
        b = make_reference_system(SEED, 3, 16)
        assert np.array_equal(a.samples, b.samples)

    def test_accessors(self):
        system = make_reference_system(SEED, 2, 8)
        assert system.low(1) == ClockedWave(system.samples[0, 0])
        assert system.high(2) == ClockedWave(system.samples[1, 1])
        with pytest.raises(ValueError):
            system.low(0)
        with pytest.raises(ValueError):
            system.high(3)

    @pytest.mark.parametrize("r", [1.5, 1.0, True])
    def test_bit_index_must_be_an_integer(self, r):
        system = make_reference_system(SEED, 2, 8)
        message = f"^bit index must be an integer, got {re.escape(repr(r))}$"
        for accessor in (system.low, system.high):
            with pytest.raises(TypeError, match=message):
                accessor(r)

    def test_numpy_bit_index_is_accepted(self):
        system = make_reference_system(SEED, 2, 8)
        assert system.low(np.int64(2)) == system.low(2)
        assert system.high(np.uint8(1)) == system.high(1)

    @pytest.mark.parametrize("shape", [(3, 8), (3, 3, 8)])
    def test_refuses_wrong_shape(self, shape):
        with pytest.raises(ValueError, match="shape"):
            ReferenceSystem(np.ones(shape, dtype=np.int8))

    @pytest.mark.parametrize("bad", [0, 255])
    def test_refuses_non_bipolar_sample(self, bad):
        # 255 would wrap to -1 under an int8 cast, so it must be refused first.
        samples = np.ones((2, 3, 8), dtype=np.int64)
        samples[1, 2, 5] = bad
        with pytest.raises(ValueError, match="-1 or \\+1"):
            ReferenceSystem(samples)

    @pytest.mark.parametrize("dtype", [bool, np.float64, np.complex128])
    def test_refuses_non_integer_samples(self, dtype):
        with pytest.raises(ValueError, match="^samples must be integers, got dtype "):
            ReferenceSystem(np.ones((2, 3, 8), dtype=dtype))
        assert ReferenceSystem(np.ones((2, 3, 0), dtype=dtype)).clocks == 0

    @pytest.mark.parametrize("value", [1.0, True])
    def test_refuses_non_integer_object_samples(self, value):
        samples = np.ones((2, 3, 8), dtype=object)
        assert np.array_equal(ReferenceSystem(samples).samples, np.ones((2, 3, 8)))
        samples[1, 2, 5] = value
        with pytest.raises(ValueError, match=f"^sample must be an integer, got {value!r}$"):
            ReferenceSystem(samples)

    def test_repr(self):
        assert repr(make_reference_system(SEED, 2, 8)) == "ReferenceSystem(N=2, K=8)"

    def test_samples_are_a_read_only_copy(self):
        source = np.ones((2, 2, 4), dtype=np.int8)
        system = ReferenceSystem(source)
        source[:] = -1
        assert system.samples.shape == (2, 2, 4)
        assert np.all(system.samples == 1)
        with pytest.raises(ValueError):
            system.samples[0, 0, 0] = -1
        with pytest.raises(ValueError):
            system.high(2).samples[0] = -1

    def test_negative_bits_rejected(self):
        with pytest.raises(ValueError):
            make_reference_system(SEED, -1, 8)

    @pytest.mark.parametrize("clocks", [0, 1, 511, 512, 513, 1030])
    @pytest.mark.parametrize("n_bits", [0, 1, 12])
    def test_samples_are_the_bit_substreams(self, n_bits, clocks):
        # 512 samples per stream block; K straddles the block edges.
        expected = np.array([[2 * SeedSpec(SEED, ("bit", r, half)).bits(clocks).astype(np.int8) - 1
                              for r in range(1, n_bits + 1)] for half in "LH"], dtype=np.int8)
        samples = make_reference_system(SEED, n_bits, clocks).samples
        assert samples.dtype == np.int8
        assert np.array_equal(samples, expected.reshape(2, n_bits, clocks))

    @pytest.mark.parametrize("args,message", [
        ((SEED, True, 4), "n_bits must be an integer, got True"),
        ((SEED, 2.0, 4), "n_bits must be an integer, got 2.0"),
        ((SEED, 2, True), "clocks must be an integer, got True"),
        ((SEED, 2, 4.0), "clocks must be an integer, got 4.0"),
        ((SEED, 2, "4"), "clocks must be an integer, got '4'"),
    ])
    def test_counts_must_be_integers(self, args, message):
        with pytest.raises(TypeError, match=f"^{re.escape(message)}$"):
            make_reference_system(*args)

    def test_numpy_counts_accepted(self):
        system = make_reference_system(SEED, np.int64(3), np.uint16(16))
        assert np.array_equal(system.samples, make_reference_system(SEED, 3, 16).samples)

    # K = 0, K % 8 != 0, and the 512-clock block edges.
    @given(st.integers(0, 12), st.integers(0, 2**64 - 1),
           st.one_of(st.sampled_from([0, 7, 511, 512, 513, 1024, 1025]), st.integers(0, 1100)))
    @example(12, SEED, 0)
    @example(5, SEED, 7)
    @example(3, SEED, 511)
    @example(3, SEED, 512)
    @example(3, SEED, 513)
    @example(2, SEED, 1024)
    @example(2, SEED, 1025)
    @settings(max_examples=100, deadline=None)
    def test_reference_row_halves_xor_to_the_rows_of_the_products(self, n_bits, master_seed,
                                                                  clocks):
        low, high = make_reference_system(master_seed, n_bits, clocks).samples
        rows = _reference_rows(master_seed, n_bits, clocks)
        assert [l ^ h for l, h in zip(rows[:n_bits], rows[n_bits:])] == _sign_rows(low * high)

    # K = 0, K % 8 != 0, and the 512-clock block edges.
    @given(st.integers(0, 12), st.integers(0, 2**64 - 1),
           st.one_of(st.sampled_from([0, 1, 7, 8, 511, 512, 513, 1030]), st.integers(0, 1100)))
    @example(12, SEED, 0)
    @example(5, SEED, 7)
    @example(3, SEED, 511)
    @example(3, SEED, 512)
    @example(3, SEED, 513)
    @example(2, SEED, 1030)
    @settings(max_examples=100, deadline=None)
    def test_reference_rows_are_the_rows_of_the_samples(self, n_bits, master_seed, clocks):
        samples = make_reference_system(master_seed, n_bits, clocks).samples
        assert _reference_rows(master_seed, n_bits, clocks) == _sign_rows(
            samples.reshape(2 * n_bits, clocks))


class TestRows:
    # K = 0, K % 8 != 0, and the 512-clock block edges.
    @given(st.integers(0, 2**64 - 1), st.one_of(
        st.sampled_from([0, 1, 7, 8, 9, 511, 512, 513]), st.integers(0, 1100)))
    @example(SEED, 0)
    @example(SEED, 1)
    @example(SEED, 7)
    @example(SEED, 8)
    @example(SEED, 9)
    @example(SEED, 511)
    @example(SEED, 512)
    @example(SEED, 513)
    @settings(max_examples=100, deadline=None)
    def test_the_row_of_a_product_is_the_xor_of_the_rows(self, master_seed, clocks):
        a, b = (SeedSpec(master_seed, ("row", side)) for side in (0, 1))
        wave_a, wave_b = generate_rtw(a, clocks), generate_rtw(b, clocks)
        (row_a,), (row_b,) = _sign_rows(wave_a.samples[None]), _sign_rows(wave_b.samples[None])
        assert _sign_rows((wave_a.samples * wave_b.samples)[None]) == [row_a ^ row_b]
        assert _stream_rows([a.stream_key()], clocks) == [row_a]
        assert row_a < 1 << clocks

    @given(st.integers(0, 2**64 - 1), st.integers(0, 6),
           st.one_of(st.sampled_from([0, 1, 7, 8, 9, 511, 512, 513, 1030]),
                     st.integers(0, 1100)))
    @example(SEED, 3, 0)
    @example(SEED, 3, 9)
    @example(SEED, 3, 513)
    @settings(max_examples=100, deadline=None)
    def test_pair_rows_are_the_xor_of_the_reference_rows(self, master_seed, n_bits, clocks):
        rows = _reference_rows(master_seed, n_bits, clocks)
        expected = [low ^ high for low, high in zip(rows[:n_bits], rows[n_bits:])]
        assert list(_pair_rows(master_seed, n_bits, clocks)) == expected

    def test_clock_1_is_the_most_significant_bit(self):
        assert _sign_rows(np.array([[-1, 1, 1], [1, 1, -1], [1, 1, 1]])) == [0b100, 0b001, 0]
        assert _sign_rows(np.zeros((2, 0), dtype=np.int8)) == [0, 0]


class TestWaveFiles:
    def test_round_trip(self, tmp_path):
        wave = fixed_wave("file", 64)
        path = tmp_path / "wave.txt"
        save_wave_file(path, wave)
        assert load_wave_file(path) == wave

    def test_format_is_one_signed_sample_per_line(self, tmp_path):
        path = tmp_path / "wave.txt"
        save_wave_file(path, ClockedWave([1, -1, 1]))
        assert path.read_bytes() == b"+1\n-1\n+1\n"

    def test_save_refuses_a_wave_that_is_not_clocked(self, tmp_path):
        # Writing +1/-1 lines would turn 5, 0, 1 into -1, -1, +1.
        path = tmp_path / "wave.txt"
        message = "^save_wave_file writes a ClockedWave, got IntegerWave$"
        with pytest.raises(TypeError, match=message):
            save_wave_file(path, IntegerWave([5, 0, 1]))
        assert not path.exists()

    def test_load_ignores_blanks_around_a_sample(self, tmp_path):
        path = tmp_path / "wave.txt"
        path.write_bytes(b" +1 \n\t-1\r\n+1\n")
        assert load_wave_file(path) == ClockedWave([1, -1, 1])

    @pytest.mark.parametrize("text,token", [("+1\n\n-1\n", "''"), ("+1\n+ 1\n", "'+ 1'")])
    def test_load_refuses_an_empty_or_split_sample(self, tmp_path, text, token):
        path = tmp_path / "wave.txt"
        path.write_text(text)
        with pytest.raises(ValueError, match=re.escape(f":2: expected '+1' or '-1', got {token}") + "$"):
            load_wave_file(path)

    def test_load_rejects_garbage(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("+1\n0\n")
        with pytest.raises(ValueError):
            load_wave_file(path)

    def test_generator_golden_wave(self, golden):
        system = make_reference_system(42, 1, 64)
        lines = "".join("+1\n" if s == 1 else "-1\n" for s in system.low(1).samples)
        golden("wave_seed42_L1_K64.txt", lines)

    def test_product_golden_wave(self, golden):
        system = make_reference_system(42, 1, 64)
        product = multiply(system.low(1), system.high(1))
        lines = "".join("+1\n" if s == 1 else "-1\n" for s in product.samples)
        golden("product_seed42_L1H1_K64.txt", lines)
