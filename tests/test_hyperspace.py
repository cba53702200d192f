"""Product strings, superpositions, and the two universe synthesis routes."""

import dataclasses
import random
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from nbl_lab import hyperspace
from nbl_lab import (
    ClockedWave,
    EnumerationCapError,
    ExperimentConfig,
    IntegerWave,
    ProductString,
    ReferenceSystem,
    Superposition,
    enumerate_superpositions,
    expand_universe,
    make_reference_system,
    multiply,
    realize_product,
    realize_superposition,
    run_universe_check,
    synthesize_universe,
)
from nbl_lab.rtw import _sign_rows

SEED = 0xD1CEBA5E


@st.composite
def member_sets(draw, max_bits=6):
    """(N, frozenset of N-bit ProductStrings)."""
    n_bits = draw(st.integers(0, max_bits))
    masks = draw(st.frozensets(st.integers(0, (1 << n_bits) - 1)))
    return n_bits, frozenset(ProductString(n_bits, m) for m in masks)


def per_member_sum(superposition, system):
    """The slow oracle: realize_product of each member, summed in int64."""
    acc = np.zeros(system.clocks, dtype=np.int64)
    for ps in superposition.members:
        acc += realize_product(ps, system).samples
    return IntegerWave(acc)


class TestProductString:
    def test_string_round_trip(self):
        ps = ProductString.from_string("LHH")
        assert ps.n_bits == 3
        assert ps.mask == 0b110
        assert str(ps) == "LHH"

    def test_selection_is_one_based(self):
        ps = ProductString.from_string("LH")
        assert ps.selection(1) == "L"
        assert ps.selection(2) == "H"
        with pytest.raises(ValueError):
            ps.selection(0)
        with pytest.raises(ValueError):
            ps.selection(3)

    @pytest.mark.parametrize("r", [1.5, True])
    def test_selection_index_must_be_an_integer(self, r):
        with pytest.raises(TypeError, match=f"^bit index must be an integer, got {r!r}$"):
            ProductString(2, 0b10).selection(r)

    def test_selection_takes_a_numpy_index(self):
        ps = ProductString(2, 0b10)
        assert (ps.selection(np.int64(1)), ps.selection(np.uint8(2))) == ("L", "H")

    def test_empty_string(self):
        ps = ProductString(0, 0)
        assert str(ps) == ""

    def test_validation(self):
        with pytest.raises(ValueError):
            ProductString(2, 4)
        with pytest.raises(ValueError):
            ProductString(-1, 0)
        with pytest.raises(ValueError):
            ProductString.from_string("LX")

    @pytest.mark.parametrize("n_bits,mask,field", [
        (2, 1.0, "mask"), (True, 1, "n_bits"), (2, True, "mask"), (2.0, 1, "n_bits"),
    ])
    def test_counts_must_be_integers(self, n_bits, mask, field):
        with pytest.raises(TypeError, match=f"^{field} must be an integer"):
            ProductString(n_bits, mask)

    def test_numpy_integers_are_stored_as_int(self):
        ps = ProductString(np.int64(3), np.uint8(5))
        assert (type(ps.n_bits), type(ps.mask)) == (int, int)
        assert ps == ProductString(3, 5)
        assert hash(ps) == hash(ProductString(3, 5))
        assert str(ps) == "HLH"

    def test_canonical_order_is_mask_order(self):
        strings = list(ProductString.all_strings(2))
        assert [str(ps) for ps in strings] == ["LL", "HL", "LH", "HH"]
        assert strings == sorted(strings)

    def test_all_strings_cap(self):
        with pytest.raises(EnumerationCapError):
            list(ProductString.all_strings(17))

    def test_all_strings_refuses_negative_count(self):
        with pytest.raises(ValueError, match=r"^product-string enumeration: N=-1 is negative$"):
            ProductString.all_strings(-1)

    @pytest.mark.parametrize("n_bits", [2.5, 2.0, True, "2"])
    def test_all_strings_refuses_non_integer_count(self, n_bits):
        with pytest.raises(TypeError, match="^n_bits must be an integer"):
            ProductString.all_strings(n_bits)

    def test_all_strings_takes_numpy_count(self):
        assert list(ProductString.all_strings(np.int8(2))) == list(ProductString.all_strings(2))


class TestSuperposition:
    def test_set_semantics(self):
        ps = ProductString(2, 1)
        assert len(Superposition(2, [ps, ps])) == 1
        assert len(Superposition(2, [ps, ProductString(2, 2), ps])) == 2

    def test_member_dimension_checked(self):
        with pytest.raises(ValueError):
            Superposition(2, [ProductString(3, 0)])
        with pytest.raises(ValueError, match="does not have 2 bits"):
            Superposition(2, [ProductString(2, 1), ProductString(3, 1)])

    @pytest.mark.parametrize("n_bits", [2.0, True, 2.5])
    def test_bit_count_must_be_an_integer(self, n_bits):
        with pytest.raises(TypeError, match="^n_bits must be an integer"):
            Superposition(n_bits, [])

    def test_bit_count_must_be_non_negative(self):
        with pytest.raises(ValueError, match=r"^n_bits must be at least 0, got -1$"):
            Superposition(-1)

    def test_numpy_bit_count_is_stored_as_int(self):
        s = Superposition(np.int64(2), [ProductString(2, 1)])
        assert type(s.n_bits) is int
        assert s == Superposition(2, [ProductString(2, 1)])
        assert hash(s) == hash(Superposition(2, [ProductString(2, 1)]))

    @pytest.mark.parametrize("members", [[1, 2], "ab", [ProductString(2, 1), 3]])
    def test_members_must_be_product_strings(self, members):
        with pytest.raises(TypeError, match="^members must be ProductStrings, got "):
            Superposition(2, members)

    @given(member_sets())
    @settings(max_examples=100, deadline=None)
    def test_trusted_constructor_agrees(self, n_and_members):
        n_bits, members = n_and_members
        trusted = Superposition._wrap(n_bits, frozenset(ps.mask for ps in members))
        checked = Superposition(n_bits, members)
        assert trusted == checked
        assert hash(trusted) == hash(checked)
        assert (trusted.n_bits, trusted.members, len(trusted)) == (n_bits, members, len(members))

    @given(member_sets())
    @settings(max_examples=100, deadline=None)
    def test_holds_the_member_masks(self, n_and_members):
        n_bits, members = n_and_members
        assert Superposition(n_bits, members).masks == {ps.mask for ps in members}

    @given(member_sets())
    @settings(max_examples=100, deadline=None)
    def test_rebuilt_from_its_members(self, n_and_members):
        n_bits, members = n_and_members
        s = Superposition(n_bits, members)
        rebuilt = Superposition(n_bits, s.members)
        assert rebuilt == s
        assert hash(rebuilt) == hash(s)

    @given(member_sets())
    @settings(max_examples=100, deadline=None)
    def test_members_are_n_bit_strings(self, n_and_members):
        n_bits, members = n_and_members
        for ps in Superposition(n_bits, members).members:
            assert type(ps) is ProductString
            assert ps.n_bits == n_bits

    @pytest.mark.parametrize("name,value", [("n_bits", 3), ("masks", frozenset({0}))])
    def test_fields_cannot_be_assigned(self, name, value):
        s = Superposition(2, [ProductString(2, 1)])
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(s, name, value)


class TestRealizeProduct:
    def test_empty_product_is_all_ones(self):
        system = make_reference_system(SEED, 0, 16)
        wave = realize_product(ProductString(0, 0), system)
        assert wave == ClockedWave(np.ones(16, dtype=np.int8))

    def test_single_factor(self):
        system = make_reference_system(SEED, 1, 16)
        assert realize_product(ProductString.from_string("L"), system) == system.low(1)
        assert realize_product(ProductString.from_string("H"), system) == system.high(1)

    def test_two_factors_unfold_to_multiply(self):
        system = make_reference_system(SEED, 2, 32)
        wave = realize_product(ProductString.from_string("HL"), system)
        assert wave == multiply(system.high(1), system.low(2))

    def test_dimension_mismatch(self):
        system = make_reference_system(SEED, 2, 8)
        with pytest.raises(ValueError):
            realize_product(ProductString(3, 0), system)

    def test_bipolar_closure(self):
        system = make_reference_system(SEED, 4, 64)
        for ps in ProductString.all_strings(4):
            wave = realize_product(ps, system)
            ClockedWave(wave.samples)  # re-validates the ±1 invariant

    @given(st.integers(0, 10), st.integers(0, 2**10 - 1), st.integers(0, 48),
           st.integers(0, 2**32))
    @settings(max_examples=100, deadline=None)
    def test_matches_per_bit_fold(self, n_bits, mask, clocks, seed):
        # Reference: fold the selected L_r/H_r waves one bit at a time.
        mask &= (1 << n_bits) - 1
        system = make_reference_system(seed, n_bits, clocks)
        expected = ClockedWave(np.ones(clocks, dtype=np.int8))
        for r in range(1, n_bits + 1):
            expected = multiply(expected, system.high(r) if (mask >> (r - 1)) & 1 else system.low(r))
        assert realize_product(ProductString(n_bits, mask), system) == expected


class TestRealizeSuperposition:
    def test_empty_is_zero_wave(self):
        system = make_reference_system(SEED, 2, 16)
        wave = realize_superposition(Superposition(2), system)
        assert wave == IntegerWave(np.zeros(16, dtype=np.int64))

    def test_singleton_equals_product(self):
        system = make_reference_system(SEED, 2, 16)
        ps = ProductString.from_string("LH")
        sup = realize_superposition(Superposition(2, [ps]), system)
        assert np.array_equal(sup.samples, realize_product(ps, system).samples)

    def test_samples_bounded_by_member_count(self):
        system = make_reference_system(SEED, 3, 128)
        members = [ProductString(3, m) for m in (0, 3, 5)]
        wave = realize_superposition(Superposition(3, members), system)
        assert np.all(np.abs(wave.samples) <= 3)

    def test_dimension_mismatch(self):
        system = make_reference_system(SEED, 2, 8)
        with pytest.raises(ValueError):
            realize_superposition(Superposition(3), system)

    @given(n_bits=st.integers(0, 12), clocks=st.sampled_from([0, 1, 127, 128, 129, 1000]),
           density=st.sampled_from([0.0, 0.1, 0.5, 1.0]), seed=st.integers(0, 2**32))
    @settings(max_examples=40, deadline=None)
    @example(n_bits=12, clocks=1000, density=0.5, seed=1)
    @example(n_bits=12, clocks=128, density=1.0, seed=2)
    def test_matches_per_member_sum(self, n_bits, clocks, density, seed):
        # K = 1000 at N = 12 puts 87 members in a block, so blocks end
        # inside most superpositions drawn here.
        rng = random.Random(seed)
        members = [ProductString(n_bits, m) for m in range(1 << n_bits) if rng.random() < density]
        superposition = Superposition(n_bits, members)
        system = make_reference_system(seed, n_bits, clocks)
        assert realize_superposition(superposition, system) == per_member_sum(superposition, system)

    @given(high=st.lists(st.integers(2**64, 2**70 - 1), min_size=1, max_size=4),
           low=st.lists(st.integers(0, 2**64 - 1), max_size=4),
           clocks=st.sampled_from([1, 129, 1000]), seed=st.integers(0, 2**32))
    @settings(max_examples=20, deadline=None)
    def test_matches_per_member_sum_past_64_bits(self, high, low, clocks, seed):
        superposition = Superposition(70, [ProductString(70, m) for m in high + low])
        system = make_reference_system(seed, 70, clocks)
        assert realize_superposition(superposition, system) == per_member_sum(superposition, system)

    @pytest.mark.parametrize("budget", [1, 64, 4096])
    @pytest.mark.parametrize("n_bits,clocks", [(0, 9), (5, 0), (5, 1), (5, 129), (70, 33)])
    def test_block_size_does_not_change_the_sum(self, budget, n_bits, clocks):
        # Budgets far below one block's natural size split both the
        # members and the clocks into many blocks.
        system = make_reference_system(SEED, n_bits, clocks)
        masks = {(m * 0x9E3779B97F4A7C15) % (1 << n_bits) for m in range(32)}
        superposition = Superposition(n_bits, [ProductString(n_bits, m) for m in masks])
        with mock.patch.object(hyperspace, "_CHUNK_BYTES", budget):
            wave = realize_superposition(superposition, system)
        assert wave == per_member_sum(superposition, system)


class TestSynthesizeUniverse:
    def test_single_bit_values(self):
        system = make_reference_system(SEED, 1, 64)
        universe = synthesize_universe(system)
        assert set(np.unique(universe.samples)) <= {-2, 0, 2}

    def test_zero_bits_is_all_ones(self):
        system = make_reference_system(SEED, 0, 16)
        assert np.array_equal(synthesize_universe(system).samples, np.ones(16))

    @pytest.mark.parametrize("n_bits", range(0, 13))
    def test_matches_expanded_sum_oracle(self, n_bits):
        system = make_reference_system(SEED, n_bits, 128)
        direct = synthesize_universe(system)
        oracle = realize_superposition(expand_universe(n_bits), system)
        assert direct == oracle

    def test_instrumented_op_counts(self):
        config = ExperimentConfig("universe-check", bits=(8,), clocks=(256,),
                                  trials=1, master_seed=SEED)
        record = run_universe_check(config).records[0]
        assert record["equal"] is True
        assert (record["direct_adds_per_clock"], record["direct_muls_per_clock"]) == (8, 7)

    @pytest.mark.parametrize("n_bits", [4, 6, 8, 10])
    def test_cost_model_slopes(self, n_bits):
        # Product form is linear in N; the expanded oracle pays N*2^N
        # multiplications (plus 2^N accumulations) per clock.
        config = ExperimentConfig("universe-check", bits=(n_bits,), clocks=(16,),
                                  trials=1, master_seed=SEED)
        record = run_universe_check(config).records[0]
        assert record["equal"] is True
        assert record["direct_adds_per_clock"] == n_bits
        assert record["direct_muls_per_clock"] == n_bits - 1
        assert record["oracle_muls_per_clock"] == n_bits * 2**n_bits
        assert record["oracle_adds_per_clock"] == 2**n_bits

    def test_beyond_int64_uses_exact_integers(self):
        # 70 factors of magnitude up to 2 overflow int64; the samplewise
        # Python-int recomputation must agree exactly.
        system = make_reference_system(SEED, 70, 4)
        universe = synthesize_universe(system)
        for t in range(4):
            expected = 1
            for r in range(1, 71):
                expected *= int(system.low(r).samples[t]) + int(system.high(r).samples[t])
            assert universe.samples[t] == expected

    def test_chunked_evaluation_matches_sequential(self):
        # Samples are independent across clocks, so evaluating the
        # universe on clock slices must reproduce the whole-wave result.
        full = make_reference_system(SEED, 5, 96)
        whole = synthesize_universe(full)
        pieces = [synthesize_universe(ReferenceSystem(full.samples[:, :, start:stop])).samples
                  for start, stop in ((0, 17), (17, 64), (64, 96))]
        assert np.array_equal(np.concatenate(pieces), whole.samples)


def plane_values(planes, n_bits, clocks):
    """Per clock, 2^N - 2 * count, with the count read from its bit planes."""
    width = -(-clocks // 8)
    counts = np.zeros(clocks, dtype=np.int64)
    for j, plane in enumerate(planes):
        bits = np.unpackbits(np.frombuffer(plane.to_bytes(width, "big"), dtype=np.uint8))
        counts += bits[8 * width - clocks:].astype(np.int64) << j
    return (1 << n_bits) - 2 * counts


class TestSignPlanes:
    # K % 8 != 0 and the 512-clock block edges.
    @given(st.integers(0, 10), st.sampled_from([1, 7, 8, 511, 512, 513, 1030]),
           st.integers(0, 2**64 - 1))
    @example(0, 1, SEED)
    @example(1, 7, SEED)
    @example(10, 1030, SEED)
    @settings(max_examples=60, deadline=None)
    def test_plane_values_are_the_universe_waves(self, n_bits, clocks, master_seed):
        system = make_reference_system(master_seed, n_bits, clocks)
        rows = _sign_rows(system.samples.reshape(2 * n_bits, clocks))
        product = hyperspace._universe_sign_planes(rows, n_bits)
        expanded = hyperspace._expanded_sign_planes(rows, n_bits)
        assert len(product) == len(expanded) == n_bits + 1
        assert np.array_equal(plane_values(product, n_bits, clocks),
                              synthesize_universe(system).samples)
        assert np.array_equal(plane_values(expanded, n_bits, clocks),
                              realize_superposition(expand_universe(n_bits), system).samples)

    @pytest.mark.parametrize("planes", [hyperspace._universe_sign_planes,
                                        hyperspace._expanded_sign_planes])
    def test_hand_worked_counts(self, planes):
        # Clock 1 is the high bit.  Clock 1: every sample -1, so the universe
        # is (-2)(-2) = 4 and no term is -1.  Clock 2: (-2)(+2) = -4, all four
        # terms -1.  Clocks 3 and 4: one bit differs, 0, two terms -1.
        low, high = [0b1100, 0b1010], [0b1100, 0b1001]
        assert planes([*low, *high], 2) == [0b0000, 0b0011, 0b0100]


class TestExpandUniverse:
    def test_zero_bits(self):
        universe = expand_universe(0)
        assert len(universe) == 1
        assert list(universe.members) == [ProductString(0, 0)]

    def test_two_bits(self):
        universe = expand_universe(2)
        assert [str(ps) for ps in sorted(universe.members)] == ["LL", "HL", "LH", "HH"]

    def test_ten_bits_count(self):
        assert len(expand_universe(10)) == 1024

    def test_cap_named_in_error(self):
        with pytest.raises(EnumerationCapError, match="16"):
            expand_universe(17)

    def test_negative_count_named_in_error(self):
        with pytest.raises(ValueError, match="N=-1 is negative"):
            expand_universe(-1)

    @pytest.mark.parametrize("n_bits", range(0, 11))
    def test_equals_checked_construction(self, n_bits):
        universe = expand_universe(n_bits)
        checked = Superposition(n_bits, ProductString.all_strings(n_bits))
        assert universe == checked
        assert hash(universe) == hash(checked)

    @pytest.mark.parametrize("n_bits", range(0, 11))
    def test_masks_are_every_mask(self, n_bits):
        assert expand_universe(n_bits).masks == frozenset(range(1 << n_bits))

    def test_numpy_bit_count_is_stored_as_int(self):
        universe = expand_universe(np.int64(3))
        assert type(universe.n_bits) is int
        assert universe == expand_universe(3)


class TestEnumerateSuperpositions:
    @pytest.mark.parametrize("n_bits,count", [(0, 2), (1, 4), (2, 16), (3, 256)])
    def test_counts(self, n_bits, count):
        assert enumerate_superpositions(n_bits) == count

    def test_cap(self):
        with pytest.raises(EnumerationCapError, match="4"):
            enumerate_superpositions(5)

    def test_negative_count_named_in_error(self):
        with pytest.raises(ValueError, match=r"^superposition enumeration: N=-1 is negative$"):
            enumerate_superpositions(-1)

    def test_non_integer_count_refused(self):
        with pytest.raises(TypeError, match="^n_bits must be an integer, got 2.5$"):
            enumerate_superpositions(2.5)

    @pytest.mark.parametrize("n_bits", range(0, 4))
    def test_count_equals_checked_construction(self, n_bits):
        strings = list(ProductString.all_strings(n_bits))
        checked = {Superposition(n_bits, [ps for i, ps in enumerate(strings) if subset >> i & 1])
                   for subset in range(1 << len(strings))}
        assert enumerate_superpositions(n_bits) == len(checked)


class TestDistinguishability:
    @pytest.mark.parametrize("seed", range(10))
    def test_all_16_superpositions_realize_distinctly(self, seed):
        system = make_reference_system(seed, 2, 64)
        realizations = set()
        for subset in range(16):
            members = [ProductString(2, m) for m in range(4) if (subset >> m) & 1]
            wave = realize_superposition(Superposition(2, members), system)
            realizations.add(wave.samples.tobytes())
        assert len(realizations) == 16
