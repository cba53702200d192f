"""Wave generation determinism, algebra identities, and finite-clock
orthogonality statistics."""

import statistics

import numpy as np
import pytest
from hypothesis import given, settings
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

SEED = 0xD1CEBA5E

bipolar_lists = st.lists(st.sampled_from([-1, 1]), min_size=0, max_size=64)


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

    def test_path_elements_typed(self):
        SeedSpec(1, ("bit", 3, "L"))
        with pytest.raises(TypeError):
            SeedSpec(1, (3.5,))
        with pytest.raises(TypeError):
            SeedSpec(1, (True,))

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

    def test_derive_seed_is_u64_and_stable(self):
        derived = SeedSpec(99, ("trial", 7)).derive_seed()
        assert 0 <= derived < 2**64
        assert derived == SeedSpec(99, ("trial", 7)).derive_seed()


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

    def test_rejects_non_integers(self):
        with pytest.raises(ValueError):
            IntegerWave([0.5])
        with pytest.raises(ValueError):
            IntegerWave(np.zeros(4))  # float dtype
        with pytest.raises(ValueError):
            IntegerWave(np.array(["a"], dtype=object))

    def test_empty(self):
        assert len(IntegerWave([])) == 0

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
