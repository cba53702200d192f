"""Harmonic assignments, degeneracy scans, bandwidth formulas, and the
complex-exponential realization."""

import re
from collections import Counter

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from nbl_lab import (
    EXPONENTIAL,
    LINEAR,
    CollisionGroup,
    DegeneracyReport,
    EnumerationCapError,
    ProductString,
    SinusRepresentation,
    find_degeneracies,
    max_system_frequency,
    product_frequency,
    readout_sample_count,
    realize_sinus_product,
    value_frequency,
)
from nbl_lab.sinus import _collision_counts


def rep(kind, n_bits):
    return SinusRepresentation(kind, n_bits)


def per_string_degeneracies(representation):
    """The slow oracle: product_frequency of every string, grouped in a dict."""
    by_frequency = {}
    for ps in ProductString.all_strings(representation.n_bits):
        by_frequency.setdefault(product_frequency(representation, ps), []).append(ps)
    groups = tuple(
        CollisionGroup(frequency, representation.n_bits, tuple(sorted(ps.mask for ps in members)))
        for frequency, members in sorted(by_frequency.items())
        if len(members) >= 2
    )
    return DegeneracyReport(representation.kind, representation.n_bits, groups)


class TestValueFrequency:
    def test_linear_first_two_bits(self):
        r2 = rep(LINEAR, 2)
        assert [value_frequency(r2, r, v) for r in (1, 2) for v in "LH"] == [1, 2, 3, 4]

    def test_exponential_first_two_bits(self):
        r2 = rep(EXPONENTIAL, 2)
        assert [value_frequency(r2, r, v) for r in (1, 2) for v in "LH"] == [1, 2, 4, 8]

    @pytest.mark.parametrize("n_bits", [1, 2, 5, 16])
    def test_last_bit_closed_forms(self, n_bits):
        linear = rep(LINEAR, n_bits)
        exponential = rep(EXPONENTIAL, n_bits)
        assert value_frequency(linear, n_bits, "L") == 2 * n_bits - 1
        assert value_frequency(linear, n_bits, "H") == 2 * n_bits
        assert value_frequency(exponential, n_bits, "L") == 2 ** (2 * n_bits - 2)
        assert value_frequency(exponential, n_bits, "H") == 2 ** (2 * n_bits - 1)

    def test_all_assignments_distinct(self):
        for kind in (LINEAR, EXPONENTIAL):
            r8 = rep(kind, 8)
            values = [value_frequency(r8, r, v) for r in range(1, 9) for v in "LH"]
            assert len(set(values)) == 16

    def test_domain_errors(self):
        r2 = rep(LINEAR, 2)
        with pytest.raises(ValueError):
            value_frequency(r2, 0, "L")
        with pytest.raises(ValueError):
            value_frequency(r2, 3, "L")
        with pytest.raises(ValueError):
            value_frequency(r2, 1, "M")
        with pytest.raises(ValueError):
            SinusRepresentation("cubic", 2)

    @pytest.mark.parametrize("n_bits", [2.5, 2.0, True])
    def test_bit_count_must_be_an_integer(self, n_bits):
        with pytest.raises(TypeError, match="^n_bits must be an integer"):
            SinusRepresentation(LINEAR, n_bits)

    @pytest.mark.parametrize("r", [1.5, True])
    def test_bit_index_must_be_an_integer(self, r):
        with pytest.raises(TypeError, match=f"^bit index must be an integer, got {r!r}$"):
            value_frequency(rep(LINEAR, 2), r, "L")

    def test_numpy_bit_index_is_accepted(self):
        r2 = rep(EXPONENTIAL, 2)
        assert value_frequency(r2, np.int64(2), "H") == value_frequency(r2, 2, "H") == 8
        assert type(value_frequency(r2, np.uint8(1), "L")) is int

    def test_numpy_bit_count_is_stored_as_int(self):
        r3 = SinusRepresentation(LINEAR, np.int32(3))
        assert type(r3.n_bits) is int
        assert r3 == rep(LINEAR, 3)
        assert (max_system_frequency(r3), readout_sample_count(r3)) == (21, 43)


class TestProductFrequency:
    def test_linear_collision_witness(self):
        r2 = rep(LINEAR, 2)
        assert product_frequency(r2, ProductString.from_string("LH")) == 5
        assert product_frequency(r2, ProductString.from_string("HL")) == 5

    def test_exponential_splits_the_witness(self):
        r2 = rep(EXPONENTIAL, 2)
        assert product_frequency(r2, ProductString.from_string("LH")) == 9
        assert product_frequency(r2, ProductString.from_string("HL")) == 6

    def test_empty_product(self):
        assert product_frequency(rep(LINEAR, 0), ProductString(0, 0)) == 0

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            product_frequency(rep(LINEAR, 2), ProductString(3, 0))


class TestFindDegeneracies:
    def test_linear_two_bits_single_group(self):
        report = find_degeneracies(rep(LINEAR, 2))
        assert len(report.groups) == 1
        group = report.groups[0]
        assert group.frequency == 5
        assert {str(ps) for ps in group.members} == {"LH", "HL"}
        assert report.total_collided == 2

    def test_linear_three_bits_has_triple_at_ten(self):
        report = find_degeneracies(rep(LINEAR, 3))
        by_frequency = {g.frequency: g for g in report.groups}
        assert {str(ps) for ps in by_frequency[10].members} == {"HLL", "LHL", "LLH"}

    @pytest.mark.parametrize("n_bits", range(0, 11))
    def test_exponential_has_no_collisions(self, n_bits):
        assert find_degeneracies(rep(EXPONENTIAL, n_bits)).groups == ()

    @pytest.mark.parametrize("n_bits", range(2, 9))
    def test_linear_always_collides(self, n_bits):
        report = find_degeneracies(rep(LINEAR, n_bits))
        assert report.groups
        # the two-bit witness survives with L padding on bits 3..N
        padded_lh = "LH" + "L" * (n_bits - 2)
        padded_hl = "HL" + "L" * (n_bits - 2)
        witness_frequency = product_frequency(rep(LINEAR, n_bits),
                                              ProductString.from_string(padded_lh))
        group = next(g for g in report.groups if g.frequency == witness_frequency)
        members = {str(ps) for ps in group.members}
        assert {padded_lh, padded_hl} <= members

    def test_group_invariants(self):
        report = find_degeneracies(rep(LINEAR, 6))
        frequencies = [g.frequency for g in report.groups]
        assert len(set(frequencies)) == len(frequencies)
        all_members = [ps for g in report.groups for ps in g.members]
        assert len(set(all_members)) == len(all_members)
        assert all(len(g.members) >= 2 for g in report.groups)
        for group in report.groups:
            for ps in group.members:
                assert product_frequency(rep(LINEAR, 6), ps) == group.frequency

    def test_cap_named_in_error(self):
        with pytest.raises(EnumerationCapError, match="16"):
            find_degeneracies(rep(LINEAR, 17))

    def test_members_built_from_masks(self):
        group = CollisionGroup(10, 3, (1, 2, 4))
        assert group.members == (ProductString(3, 1), ProductString(3, 2), ProductString(3, 4))
        assert [str(ps) for ps in group.members] == ["HLL", "LHL", "LLH"]

    @pytest.mark.parametrize("n_bits", range(2, 11))
    def test_members_are_n_bit_strings_in_mask_order(self, n_bits):
        for group in find_degeneracies(rep(LINEAR, n_bits)).groups:
            members = group.members
            assert all(type(ps) is ProductString and ps.n_bits == n_bits for ps in members)
            assert [ps.mask for ps in members] == list(group.masks) == sorted(set(group.masks))

    @pytest.mark.parametrize("kind", [LINEAR, EXPONENTIAL])
    @pytest.mark.parametrize("n_bits", range(0, 11))
    def test_total_collided_counts_masks(self, kind, n_bits):
        representation = rep(kind, n_bits)
        report = find_degeneracies(representation)
        assert report.total_collided == sum(len(g.masks) for g in report.groups)
        # The per-string count: strings whose product frequency another string shares.
        strings_at = Counter(product_frequency(representation, ps)
                             for ps in ProductString.all_strings(n_bits))
        assert report.total_collided == sum(n for n in strings_at.values() if n >= 2)

    @settings(max_examples=30, deadline=None)
    @given(kind=st.sampled_from([LINEAR, EXPONENTIAL]), n_bits=st.integers(0, 10))
    def test_matches_per_string_oracle(self, kind, n_bits):
        representation = rep(kind, n_bits)
        assert find_degeneracies(representation) == per_string_degeneracies(representation)

    @settings(max_examples=40, deadline=None)
    @given(kind=st.sampled_from([LINEAR, EXPONENTIAL]), n_bits=st.integers(0, 12))
    @example(kind=LINEAR, n_bits=16)
    @example(kind=EXPONENTIAL, n_bits=16)
    def test_collision_counts_are_the_report_totals(self, kind, n_bits):
        report = find_degeneracies(rep(kind, n_bits))
        assert _collision_counts(rep(kind, n_bits)) == (len(report.groups), report.total_collided)

    def test_collision_counts_cap_named_in_error(self):
        with pytest.raises(EnumerationCapError, match="16"):
            _collision_counts(rep(LINEAR, 17))

    def test_linear_sixteen_bits_matches_closed_form(self, bench_oracles):
        # A string with k H selections sits at N^2 + k; bench/oracles.py
        # lists the groups k = 1..N-1 with their masks ascending.
        report = find_degeneracies(rep(LINEAR, 16))
        groups = [(g.frequency, [ps.mask for ps in g.members]) for g in report.groups]
        assert groups == bench_oracles.linear_degeneracy_groups(16)
        assert all(ps.n_bits == 16 for g in report.groups for ps in g.members)
        assert report.total_collided == 2**16 - 2


class TestBandwidth:
    @pytest.mark.parametrize("n_bits", range(0, 17))
    def test_closed_forms(self, n_bits):
        assert max_system_frequency(rep(LINEAR, n_bits)) == n_bits * (2 * n_bits + 1)
        assert max_system_frequency(rep(EXPONENTIAL, n_bits)) == 2 ** (2 * n_bits) - 1

    @pytest.mark.parametrize("kind", [LINEAR, EXPONENTIAL])
    @pytest.mark.parametrize("n_bits", range(0, 17))
    def test_equals_sum_of_all_assignments(self, kind, n_bits):
        representation = rep(kind, n_bits)
        total = sum(
            value_frequency(representation, r, v) for r in range(1, n_bits + 1) for v in "LH"
        )
        assert max_system_frequency(representation) == total

    def test_scaling_laws(self):
        # linear f_max/N^2 = 2 + 1/N exactly; exponential log2(f_max)/(2N) -> 1
        for n_bits in (4, 8, 12, 16):
            linear_ratio = max_system_frequency(rep(LINEAR, n_bits)) / n_bits**2
            assert linear_ratio == 2 + 1 / n_bits
            exponential_ratio = np.log2(max_system_frequency(rep(EXPONENTIAL, n_bits))) / (2 * n_bits)
            assert abs(exponential_ratio - 1) <= 0.1
        for n_bits in (8, 12, 16):
            linear_ratio = max_system_frequency(rep(LINEAR, n_bits)) / n_bits**2
            assert abs(linear_ratio - 2) / 2 <= 0.1

    def test_sample_counts(self):
        assert readout_sample_count(rep(EXPONENTIAL, 2)) == 31
        assert readout_sample_count(rep(LINEAR, 2)) == 21
        assert readout_sample_count(rep(LINEAR, 0)) == 1
        assert readout_sample_count(rep(EXPONENTIAL, 0)) == 1


class TestRealizeSinusProduct:
    def test_zero_frequency_is_constant_one(self):
        samples = realize_sinus_product(rep(LINEAR, 0), ProductString(0, 0), 8)
        assert np.allclose(samples, 1.0, atol=1e-15)

    def test_degenerate_pair_realizes_identically(self):
        r2 = rep(LINEAR, 2)
        lh = realize_sinus_product(r2, ProductString.from_string("LH"), 32)
        hl = realize_sinus_product(r2, ProductString.from_string("HL"), 32)
        assert np.max(np.abs(lh - hl)) <= 1e-12

    def test_exponential_pair_realizes_differently(self):
        r2 = rep(EXPONENTIAL, 2)
        lh = realize_sinus_product(r2, ProductString.from_string("LH"), 64)
        hl = realize_sinus_product(r2, ProductString.from_string("HL"), 64)
        assert np.max(np.abs(lh - hl)) > 0.1

    @pytest.mark.parametrize("kind,text", [(LINEAR, "LH"), (LINEAR, "HH"), (EXPONENTIAL, "HL")])
    def test_dft_peak_sits_on_product_frequency(self, kind, text):
        representation = rep(kind, 2)
        ps = ProductString.from_string(text)
        frequency = product_frequency(representation, ps)
        n_samples = 2 * frequency + 1
        spectrum = np.abs(np.fft.fft(realize_sinus_product(representation, ps, n_samples)))
        assert int(np.argmax(spectrum)) == frequency
        others = np.delete(spectrum, frequency)
        assert np.max(others) < 1e-9 * n_samples

    def test_factorwise_product_matches_summed_exponent(self):
        representation = rep(LINEAR, 3)
        ps = ProductString.from_string("HLH")
        n_samples = 64
        k = np.arange(n_samples)
        factors = np.ones(n_samples, dtype=complex)
        for r in (1, 2, 3):
            f = value_frequency(representation, r, ps.selection(r))
            factors = factors * np.exp(2j * np.pi * f * k / n_samples)
        combined = realize_sinus_product(representation, ps, n_samples)
        assert np.max(np.abs(factors - combined)) <= 1e-9

    def test_needs_a_sample(self):
        with pytest.raises(ValueError):
            realize_sinus_product(rep(LINEAR, 1), ProductString(1, 0), 0)

    @pytest.mark.parametrize("samples", [True, 2.5, "4"])
    def test_sample_count_must_be_an_integer(self, samples):
        message = f"samples must be an integer, got {samples!r}"
        with pytest.raises(TypeError, match=f"^{re.escape(message)}$"):
            realize_sinus_product(rep(LINEAR, 1), ProductString(1, 0), samples)

    def test_numpy_sample_count_accepted(self):
        ps = ProductString(1, 1)
        assert np.array_equal(realize_sinus_product(rep(LINEAR, 1), ps, np.int32(8)),
                              realize_sinus_product(rep(LINEAR, 1), ps, 8))
