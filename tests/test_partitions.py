from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache
from itertools import combinations_with_replacement
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import schern.partitions as partitions_mod
from oracles import conjugate, ssyt_count
from schern.partitions import PartitionError, partition, schur_dimension, ssyt_stream


def interlacings(row):
    """All weakly decreasing rows mu with row[i+1] <= mu[i] <= row[i]."""
    m = len(row) - 1
    out = []

    def rec(i, acc):
        if i == m:
            out.append(tuple(acc))
            return
        hi = row[i] if i == 0 else min(row[i], acc[-1])
        for v in range(row[i + 1], hi + 1):
            rec(i + 1, acc + [v])

    if m == 0:
        return [()]
    rec(0, [])
    return out


@lru_cache(maxsize=None)
def branching_dimension(n, lam):
    """Weyl module dimension via the GL(n) -> GL(n-1) branching rule.

    Counts Gelfand-Tsetlin patterns directly; shares nothing with the hook
    content formula or the column-wise tableau enumerator, so it serves as an
    independent oracle for both.
    """
    if len(lam) > n:
        return 0
    row = tuple(lam) + (0,) * (n - len(lam))
    if n == 1:
        return 1
    return sum(branching_dimension(n - 1, mu) for mu in interlacings(row))


def weyl_dimension(n, lam):
    """Weyl's dimension formula: the product over pairs of rows i < j of
    (lam_i - lam_j + j - i) / (j - i).  Never looks at the columns."""
    row = tuple(lam) + (0,) * (n - len(lam))
    num = den = 1
    for i in range(n):
        for j in range(i + 1, n):
            num *= row[i] - row[j] + j - i
            den *= j - i
    assert num % den == 0
    return num // den


def tableaux(n, lam):
    """Every SSYT of shape lam with entries in 1..n, as a tuple of rows.

    Fills row by row (weakly increasing along a row, strictly down a
    column); shares nothing with the column-wise stream in the package.
    """
    def rows_from(i, above):
        if i == len(lam):
            yield ()
            return
        for row in fill_row(i, above, 0, 1, ()):
            for rest in rows_from(i + 1, row):
                yield (row,) + rest

    def fill_row(i, above, j, prev, acc):
        if j == lam[i]:
            yield acc
            return
        lo = max(prev, above[j] + 1 if above else 1)
        for v in range(lo, n + 1):
            yield from fill_row(i, above, j + 1, v, acc + (v,))

    return rows_from(0, None)


def content(n, tableau):
    counts = [0] * n
    for row in tableau:
        for v in row:
            counts[v - 1] += 1
    return tuple(counts)


def ssyt_substreams(n, lam, prefix_len):
    """Split the tableau contents by the first prefix_len entries of the top
    row: (prefix, contents) pairs that cover all tableaux disjointly.  Some
    prefixes are infeasible and carry no contents."""
    if len(lam) > n or not lam:
        return [((), [content(n, t) for t in tableaux(n, lam)])]
    prefix_len = min(prefix_len, lam[0])
    split = {
        pre: []
        for pre in combinations_with_replacement(range(1, n + 1), prefix_len)
    }
    for t in tableaux(n, lam):
        split[t[0][:prefix_len]].append(content(n, t))
    return list(split.items())


partitions_small = st.lists(st.integers(1, 4), min_size=0, max_size=5).map(
    lambda xs: tuple(sorted(xs, reverse=True))
)


class TestPartitionBasics:
    def test_canonicalization_strips_trailing_zeros(self):
        assert partition((3, 1, 0, 0)) == (3, 1)
        assert partition(()) == ()
        assert partition((0,)) == ()

    def test_rejects_increasing_parts(self):
        with pytest.raises(PartitionError):
            partition((1, 2))

    def test_rejects_negative_parts(self):
        with pytest.raises(PartitionError):
            partition((2, -1))

    @pytest.mark.parametrize(
        "parts",
        [(2.5, 2), (2.0, 2), ("2", 1), (Fraction(5, 2), 2), (Fraction(2), 1)],
        ids=["float", "integral-float", "str", "fraction", "integral-fraction"],
    )
    def test_rejects_non_integral_parts(self, parts):
        # these used to be truncated by int(): (2.5, 2) -> (2, 2)
        with pytest.raises(PartitionError, match="integers"):
            partition(parts)
        with pytest.raises(PartitionError):
            schur_dimension(8, parts)

    def test_bools_count_as_integers(self):
        # bool is a subclass of int and has __index__
        assert partition((True, True, False)) == (1, 1)

    def test_conjugate_examples(self):
        assert conjugate((2, 2, 2)) == (3, 3)
        assert conjugate((3, 1)) == (2, 1, 1)
        assert conjugate(()) == ()

    @given(partitions_small)
    def test_conjugate_is_an_involution(self, lam):
        assert conjugate(conjugate(lam)) == lam

    @given(partitions_small)
    def test_conjugate_preserves_size(self, lam):
        assert sum(conjugate(lam)) == sum(lam)


class TestSchurDimension:
    def test_defining_representation(self):
        assert schur_dimension(8, (1,)) == 8

    def test_example_values(self):
        # frozen after checking against the branching-rule oracle below
        assert schur_dimension(8, (2, 2, 2)) == 1176
        assert schur_dimension(9, (3, 3, 3, 3, 3)) == 116424
        assert schur_dimension(6, (2, 1)) == 70

    def test_too_many_rows_gives_zero(self):
        assert schur_dimension(2, (1, 1, 1)) == 0

    def test_empty_partition(self):
        assert schur_dimension(5, ()) == 1

    def test_oracle_agrees_on_large_shape(self):
        assert branching_dimension(8, (2, 2, 2)) == 1176
        assert branching_dimension(9, (3, 3, 3, 3, 3)) == 116424

    @given(st.integers(1, 6), partitions_small)
    @settings(max_examples=60, deadline=None)
    def test_matches_branching_oracle(self, n, lam):
        assert schur_dimension(n, lam) == branching_dimension(n, lam)

    @given(
        st.integers(2, 50).flatmap(
            lambda n: st.tuples(
                st.just(n),
                st.lists(st.integers(1, 7), max_size=n).map(
                    lambda xs: tuple(sorted(xs, reverse=True))
                ),
            )
        )
    )
    @settings(max_examples=150, deadline=None)
    def test_matches_weyl_product_for_up_to_seven_columns(self, case):
        # the shape class of the conjecture rows: many rows, few columns
        n, lam = case
        assert schur_dimension(n, lam) == weyl_dimension(n, lam)

    def test_inexact_hook_division_raises(self, monkeypatch):
        # comb / perm stubbed so that the hook product no longer divides
        monkeypatch.setattr(partitions_mod, "math",
                            SimpleNamespace(comb=lambda a, b: 1,
                                            perm=lambda a, b: 2))
        with pytest.raises(ArithmeticError, match="not exact"):
            schur_dimension(4, (2, 1))

    def test_symmetric_power_dimensions(self):
        # one row, many columns: the hook product runs over the one row
        for n in (2, 3, 9):
            for k in (1, 300, 5000):
                assert schur_dimension(n, (k,)) == math.comb(n + k - 1, k)

    def test_exterior_power_dimensions(self):
        for n in range(2, 9):
            for k in range(1, n + 1):
                assert schur_dimension(n, (1,) * k) == math.comb(n, k)


class TestSsytStream:
    def test_single_box(self):
        assert list(ssyt_stream(2, (1,))) == [(1, 0), (0, 1)]

    def test_vertical_strip(self):
        contents = list(ssyt_stream(4, (1, 1)))
        assert len(contents) == 6
        for c in contents:
            assert sorted(c) == [0, 0, 1, 1]

    def test_empty_shape_yields_zero_vector(self):
        assert list(ssyt_stream(8, ())) == [(0,) * 8]

    def test_too_many_rows_is_empty(self):
        assert list(ssyt_stream(2, (1, 1, 1))) == []

    def test_counts(self):
        assert ssyt_count(8, (1, 1)) == 28
        assert ssyt_count(6, (2, 1)) == 70

    def test_count_matches_dimension_on_big_shape(self):
        assert ssyt_count(8, (2, 2, 2)) == schur_dimension(8, (2, 2, 2))

    @given(st.integers(1, 5), partitions_small)
    @settings(max_examples=40, deadline=None)
    def test_count_matches_dimension(self, n, lam):
        assert ssyt_count(n, lam) == schur_dimension(n, lam)

    @given(st.integers(1, 5), partitions_small)
    @settings(max_examples=30, deadline=None)
    def test_contents_sum_to_partition_size(self, n, lam):
        for c in ssyt_stream(n, lam):
            assert sum(c) == sum(lam)
            assert len(c) == n

    def test_stream_is_deterministic(self):
        a = list(ssyt_stream(5, (2, 2, 1)))
        b = list(ssyt_stream(5, (2, 2, 1)))
        assert a == b

    @given(st.integers(2, 5), partitions_small, st.integers(1, 3))
    @settings(max_examples=30, deadline=None)
    def test_substreams_partition_the_stream(self, n, lam, k):
        whole = sorted(ssyt_stream(n, lam))
        split = sorted(c for _, sub in ssyt_substreams(n, lam, k) for c in sub)
        assert split == whole
