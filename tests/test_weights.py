from __future__ import annotations

import random
from itertools import accumulate

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from oracles import (
    conjugate,
    descends,
    dual_weight,
    greedy_decomposition,
    monoid_members_up_to,
    scan_basis,
    weight_of,
    weight_size,
)
from schern.partitions import partition
from schern.weights import (
    GroupSpec,
    generator_heights,
    hilbert_basis,
    is_monoid_irreducible,
    partition_of,
    weight_str,
)

# Bundled reference generator table for SL(8)/mu_2: 13 weights.
TABLE_SL8_MU2_WEIGHTS = {
    (2, 0, 0, 0, 0, 0, 0),
    (0, 1, 0, 0, 0, 0, 0),
    (0, 0, 2, 0, 0, 0, 0),
    (0, 0, 0, 1, 0, 0, 0),
    (0, 0, 0, 0, 2, 0, 0),
    (0, 0, 0, 0, 0, 1, 0),
    (0, 0, 0, 0, 0, 0, 2),
    (1, 0, 1, 0, 0, 0, 0),
    (1, 0, 0, 0, 1, 0, 0),
    (1, 0, 0, 0, 0, 0, 1),
    (0, 0, 1, 0, 1, 0, 0),
    (0, 0, 1, 0, 0, 0, 1),
    (0, 0, 0, 0, 1, 0, 1),
}

# Bundled reference generator table for SL(9)/mu_3: 23 weights.
TABLE_SL9_MU3_WEIGHTS = {
    (3, 0, 0, 0, 0, 0, 0, 0),
    (0, 3, 0, 0, 0, 0, 0, 0),
    (0, 0, 1, 0, 0, 0, 0, 0),
    (0, 0, 0, 3, 0, 0, 0, 0),
    (0, 0, 0, 0, 3, 0, 0, 0),
    (0, 0, 0, 0, 0, 1, 0, 0),
    (0, 0, 0, 0, 0, 0, 3, 0),
    (0, 0, 0, 0, 0, 0, 0, 3),
    (1, 1, 0, 0, 0, 0, 0, 0),
    (1, 0, 0, 0, 1, 0, 0, 0),
    (1, 0, 0, 0, 0, 0, 0, 1),
    (2, 0, 0, 1, 0, 0, 0, 0),
    (2, 0, 0, 0, 0, 0, 1, 0),
    (0, 1, 0, 1, 0, 0, 0, 0),
    (0, 1, 0, 0, 0, 0, 1, 0),
    (0, 2, 0, 0, 1, 0, 0, 0),
    (0, 2, 0, 0, 0, 0, 0, 1),
    (0, 0, 0, 1, 1, 0, 0, 0),
    (0, 0, 0, 1, 0, 0, 0, 1),
    (0, 0, 0, 2, 0, 0, 1, 0),
    (0, 0, 0, 0, 1, 0, 1, 0),
    (0, 0, 0, 0, 2, 0, 0, 1),
    (0, 0, 0, 0, 0, 0, 1, 1),
}

# Monoid-irreducible weights of SL(9)/mu_3 absent from the bundled reference table.
# Each is the dual of a reference row except the last two, which are dual to
# each other.  See tests below: the minimal generating set has 31 elements.
SL9_MU3_EXTRA_GENERATORS = {
    (1, 0, 0, 2, 0, 0, 0, 0),
    (1, 0, 0, 0, 0, 0, 2, 0),
    (0, 0, 0, 1, 0, 0, 2, 0),
    (0, 1, 0, 0, 2, 0, 0, 0),
    (0, 1, 0, 0, 0, 0, 0, 2),
    (0, 0, 0, 0, 1, 0, 0, 2),
    (1, 0, 0, 1, 0, 0, 1, 0),
    (0, 1, 0, 0, 1, 0, 0, 1),
}

weights_st = st.lists(st.integers(0, 3), min_size=1, max_size=8).map(tuple)


class TestGroupSpec:
    def test_valid(self):
        GroupSpec(8, 2)
        GroupSpec(9, 3)
        GroupSpec(7, 7)

    def test_d_must_divide_n(self):
        with pytest.raises(ValueError):
            GroupSpec(8, 3)

    def test_rejects_tiny_n(self):
        with pytest.raises(ValueError):
            GroupSpec(1, 1)

    @pytest.mark.parametrize("n, d, message", [
        (9, 2, "d must divide n, got n=9 d=2"),
        (1, 1, "n must be at least 2, got 1"),
        (4, 0, "d must be positive, got 0"),
    ])
    def test_rejection_messages(self, n, d, message):
        with pytest.raises(ValueError) as info:
            GroupSpec(n, d)
        assert str(info.value) == message

    def test_replace_runs_the_checks(self):
        assert GroupSpec(9, 3)._replace(d=9) == GroupSpec(9, 9)
        with pytest.raises(ValueError, match="d must divide n"):
            GroupSpec(9, 3)._replace(d=2)

    def test_is_an_immutable_value(self):
        spec = GroupSpec(9, 3)
        with pytest.raises(AttributeError):
            spec.d = 2
        assert spec == GroupSpec(9, 3) and hash(spec) == hash(GroupSpec(9, 3))
        assert spec != GroupSpec(9, 9)
        assert repr(spec) == "GroupSpec(n=9, d=3)"


class TestWeightPartitionBridge:
    def test_partition_of_examples(self):
        assert partition_of((2, 0, 0, 0, 0, 0, 0)) == (2,)
        assert partition_of((1, 0, 1, 0, 0, 0, 0)) == (2, 1, 1)
        assert partition_of((0, 0, 0, 0, 1, 0, 1)) == (2, 2, 2, 2, 2, 1, 1)
        assert partition_of((0, 2, 0, 0, 1, 0, 0, 0)) == (3, 3, 1, 1, 1)
        assert partition_of((0,) * 7) == ()

    @given(st.lists(st.integers(0, 4), max_size=8), st.integers(0, 4))
    def test_partition_of_matches_partial_sums(self, coeffs, zeros):
        w = tuple(coeffs) + (0,) * zeros  # trailing zero coefficients
        lam = partition_of(w)
        assert lam == partition(list(accumulate(reversed(w)))[::-1])
        heights = conjugate(lam)
        for k, a in enumerate(w, start=1):
            assert heights.count(k) == a

    @pytest.mark.parametrize("w, message", [
        ((1, -1, 2), "nonnegative"),
        ((1, 2.5, 0), "integers"),
        ((1, "2"), "integers"),
    ], ids=["negative", "float", "str"])
    def test_partition_of_rejects_bad_coefficients(self, w, message):
        with pytest.raises(ValueError, match=message):
            partition_of(w)

    def test_weight_of_examples(self):
        assert weight_of((2, 1, 1), 8) == (1, 0, 1, 0, 0, 0, 0)
        assert weight_of((3, 3, 3, 3, 3, 3, 3, 3), 9) == (0, 0, 0, 0, 0, 0, 0, 3)
        assert weight_of((), 4) == (0, 0, 0)

    def test_weight_of_reduces_a_full_column(self):
        assert weight_of((4, 3, 3), 3) == weight_of((1,), 3) == (1, 0)
        assert weight_of((1, 1, 1, 1), 4) == (0, 0, 0)

    def test_weight_of_rejects_too_many_rows(self):
        with pytest.raises(ValueError):
            weight_of((1, 1, 1, 1, 1), 4)

    @given(weights_st)
    def test_round_trip(self, w):
        n = len(w) + 1
        assert weight_of(partition_of(w), n) == w

    @given(weights_st)
    def test_weight_size_is_partition_size(self, w):
        assert weight_size(w) == sum(partition_of(w))

    def test_weight_str(self):
        assert weight_str((2, 0, 0)) == "2a1"
        assert weight_str((1, 0, 1)) == "a1+a3"
        assert weight_str((0, 0, 0)) == "0"

    def test_dual_weight_is_an_involution(self):
        assert dual_weight((1, 0, 2)) == (2, 0, 1)
        assert dual_weight(dual_weight((1, 0, 2))) == (1, 0, 2)


class TestDescent:
    def test_examples(self):
        assert not descends((1,), GroupSpec(8, 2))
        assert descends((1, 1), GroupSpec(8, 2))
        assert descends((2, 1), GroupSpec(9, 3))
        assert not descends((2, 2), GroupSpec(9, 3))
        assert descends((), GroupSpec(8, 2))

    @given(weights_st)
    def test_partition_of_any_weight_descends_iff_size_divisible(self, w):
        n = len(w) + 1
        for d in (x for x in range(1, n + 1) if n % x == 0):
            spec = GroupSpec(n, d)
            assert descends(partition_of(w), spec) == (weight_size(w) % d == 0)


class TestHilbertBasis:
    def test_sl8_mu2_matches_reference_table(self):
        basis = hilbert_basis(GroupSpec(8, 2))
        assert len(basis) == 13
        assert set(basis) == TABLE_SL8_MU2_WEIGHTS

    def test_trivial_quotient_gives_fundamental_weights(self):
        basis = hilbert_basis(GroupSpec(5, 1))
        assert set(basis) == {
            (1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1)
        }

    def test_sl9_mu3_has_31_minimal_generators(self):
        # The bundled reference table stops at 23 rows, but eight further weights are
        # monoid-irreducible (no proper nonzero sub-weight has size divisible
        # by 3), so any generating set must contain all 31.
        basis = set(hilbert_basis(GroupSpec(9, 3)))
        assert len(basis) == 31
        assert TABLE_SL9_MU3_WEIGHTS < basis
        assert basis - TABLE_SL9_MU3_WEIGHTS == SL9_MU3_EXTRA_GENERATORS

    def test_extra_sl9_generators_are_irreducible(self):
        for w in sorted(SL9_MU3_EXTRA_GENERATORS):
            assert is_monoid_irreducible(w, 3), w

    def test_output_is_lex_sorted_without_duplicates(self):
        basis = hilbert_basis(GroupSpec(9, 3))
        assert list(basis) == sorted(set(basis))

    @pytest.mark.parametrize("n,d", [
        (n, d) for n in range(2, 11) for d in range(1, n + 1) if n % d == 0
    ] + [(12, 2), (12, 3), (12, 4), (12, 6)])
    def test_search_matches_the_candidate_scan(self, n, d):
        assert hilbert_basis(GroupSpec(n, d)) == scan_basis(GroupSpec(n, d))

    @pytest.mark.parametrize("n,d", [
        (n, d) for n in range(2, 17) for d in range(1, n + 1) if n % d == 0
    ] + [(25, 5)])
    def test_search_heights_are_the_generators_column_heights(self, n, d):
        spec = GroupSpec(n, d)
        heights = generator_heights(spec)
        assert sorted(heights) == sorted(
            conjugate(partition_of(w)) for w in hilbert_basis(spec)
        )
        assert max(map(len, heights)) <= d  # the Davenport bound

    def test_sl49_mu7_is_closed_under_duality(self):
        # 2.0e8 scan candidates; the search visits only zero-sum-free prefixes
        basis = hilbert_basis(GroupSpec(49, 7))
        assert len(basis) == 66_407
        assert all(sum(w) <= 7 and weight_size(w) % 7 == 0 for w in basis)
        assert {dual_weight(w) for w in basis} == set(basis)

    @pytest.mark.parametrize("n,d", [(4, 2), (6, 2), (6, 3), (8, 2), (9, 3)])
    def test_minimality_by_exhaustive_splitting(self, n, d):
        for w in hilbert_basis(GroupSpec(n, d)):
            assert is_monoid_irreducible(w, d), w

    @pytest.mark.parametrize("n,d,bound", [(8, 2, 2), (6, 3, 3), (9, 3, 2)])
    def test_completeness_members_decompose_greedily(self, n, d, bound):
        spec = GroupSpec(n, d)
        basis = hilbert_basis(spec)
        for m in monoid_members_up_to(spec, bound):
            total = [0] * (n - 1)
            for b in greedy_decomposition(m, basis):
                total = [x + y for x, y in zip(total, b)]
            assert tuple(total) == m

    @given(st.sampled_from([(4, 2), (6, 2), (6, 3), (8, 2), (9, 3)]),
           st.data())
    @settings(max_examples=80, deadline=None)
    def test_token_bound_members_with_more_than_d_tokens_split(self, nd, data):
        n, d = nd
        tokens = data.draw(
            st.lists(st.integers(1, n - 1), min_size=d + 1, max_size=d + 1)
        )
        assume(sum(tokens) % d == 0)
        w = tuple(tokens.count(i) for i in range(1, n))
        assert not is_monoid_irreducible(w, d)


class TestMonoidMembers:
    def test_zero_bound_gives_zero_weight(self):
        assert monoid_members_up_to(GroupSpec(8, 2), 0) == {(0,) * 7}

    def test_sl4_mu2_bound_one(self):
        # exhaustive over the 2^3 candidate grid
        assert monoid_members_up_to(GroupSpec(4, 2), 1) == {
            (0, 0, 0),
            (0, 1, 0),
            (1, 0, 1),
            (1, 1, 1),
        }

    def test_sl9_mu3_bound_one_contains_small_generators(self):
        members = monoid_members_up_to(GroupSpec(9, 3), 1)
        assert (0, 0, 1, 0, 0, 0, 0, 0) in members
        assert (0, 0, 0, 0, 0, 1, 0, 0) in members
        assert (1, 1, 0, 0, 0, 0, 0, 0) in members
        assert (1, 0, 0, 0, 0, 0, 0, 0) not in members

    def test_refuses_oversized_grids(self):
        with pytest.raises(ValueError):
            monoid_members_up_to(GroupSpec(25, 5), 2)

    def test_random_members_are_sums_of_basis_elements(self):
        rng = random.Random(97)
        spec = GroupSpec(8, 2)
        basis = hilbert_basis(spec)
        for _ in range(200):
            while True:
                w = tuple(rng.randint(0, 3) for _ in range(7))
                if weight_size(w) % spec.d == 0:
                    break
            greedy_decomposition(w, basis)
