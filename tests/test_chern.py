from __future__ import annotations

import math
from fractions import Fraction
from types import SimpleNamespace

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import schern.chern as chern_mod
from oracles import casimir, dual_partition, dual_weight
from schern.chern import (
    ChernResult,
    CrossCheckError,
    c2,
    c2_closed_form,
    c2_enumeration,
    c2_subshape,
    reduce_full_columns,
)
from schern.partitions import schur_dimension, ssyt_stream
from schern.weights import GroupSpec, hilbert_basis, partition_of

partitions_small = st.lists(st.integers(1, 3), min_size=0, max_size=5).map(
    lambda xs: tuple(sorted(xs, reverse=True))
)


def _at_most_ten_boxes(parts):
    kept, size = [], 0
    for p in parts:
        if size + p <= 10:
            kept.append(p)
            size += p
    return tuple(sorted(kept, reverse=True))


partitions_up_to_ten = st.lists(st.integers(1, 10), max_size=10).map(
    _at_most_ten_boxes
)


class TruncatedQuadratic:
    """Polynomial in n commuting variables truncated to total degree <= 2."""

    __slots__ = ("n", "const", "lin", "quad")

    def __init__(self, n: int, const: int = 1):
        self.n = n
        self.const = const
        self.lin = [0] * n
        self.quad = [0] * (n * (n + 1) // 2)

    def _qi(self, i: int, j: int) -> int:
        if i > j:
            i, j = j, i
        return i * self.n - i * (i - 1) // 2 + (j - i)

    def times_one_plus_linear(self, m) -> "TruncatedQuadratic":
        """Multiply by (1 + m1*x1 + ... + mn*xn), discarding degree > 2."""
        out = TruncatedQuadratic(self.n, self.const)
        out.quad = list(self.quad)
        lin = self.lin
        for i, mi in enumerate(m):
            out.lin[i] = lin[i] + self.const * mi
            if mi:
                for j in range(self.n):
                    out.quad[self._qi(i, j)] += lin[j] * mi
        return out

    def coefficient(self, i: int, j: int) -> int:
        """Coefficient of xi*xj (or of xi^2 when i == j)."""
        return self.quad[self._qi(i, j)]


def polynomial_route(n, lam):
    """The splitting-principle product over tableau contents kept in full
    (truncated at degree 2); the index is [x1*x2] - 2*[x1^2]."""
    lam = reduce_full_columns(n, lam)
    q = TruncatedQuadratic(n)
    for c in ssyt_stream(n, lam):
        q = q.times_one_plus_linear(c)
    return q.coefficient(0, 1) - 2 * q.coefficient(0, 0)


class TestCasimir:
    def test_examples(self):
        assert casimir(8, (2,)) == Fraction(35, 2)
        assert casimir(5, ()) == 0
        assert casimir(9, (3, 3, 3, 3, 3)) == 80 == 9 * 9 - 1

    def test_defining_representation(self):
        for n in range(2, 10):
            assert casimir(n, (1,)) == Fraction(n * n - 1, n)

    def test_rejects_too_many_rows(self):
        with pytest.raises(ValueError):
            casimir(2, (1, 1, 1))

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
    def test_matches_the_row_formula_for_up_to_seven_columns(self, case):
        # (lam, lam + 2 rho) = sum lam_i (lam_i + n + 1 - 2i) - |lam|^2 / n
        n, lam = case
        rows = sum(p * (p + n + 1 - 2 * i) for i, p in enumerate(lam, start=1))
        assert casimir(n, lam) == rows - Fraction(sum(lam) ** 2, n)


class TestClosedForm:
    def test_reference_values(self):
        assert c2_closed_form(6, (2, 1)).n_lambda == 33
        assert c2_closed_form(9, (3, 3)).n_lambda == 3465
        assert c2_closed_form(8, (1, 1)).n_lambda == 6
        assert c2_closed_form(8, (2, 1, 1, 1, 1, 1, 1)).n_lambda == 16

    def test_casimir_equal_to_adjoint_forces_index_equal_to_dimension(self):
        res = c2_closed_form(9, (3, 3, 3, 3, 3))
        assert res.dim == 116424
        assert res.n_lambda == 116424

    def test_determinant_powers_are_trivial(self):
        res = c2_closed_form(8, (2, 2, 2, 2, 2, 2, 2, 2))
        assert res.n_lambda == 0
        assert res.dim == 1

    def test_n_equal_one(self):
        assert c2_closed_form(1, (5,)).n_lambda == 0

    def test_result_metadata(self):
        res = c2_closed_form(6, (2, 1))
        assert res.method == "closed-form"
        assert not res.cross_checked
        assert res.dim == 70

    def test_result_is_an_immutable_value(self):
        res = c2_closed_form(6, (2, 1))
        with pytest.raises(AttributeError):
            res.n_lambda = 34
        same = ChernResult(33, "closed-form", False, 70)
        assert res == same and hash(res) == hash(same)
        assert res != same._replace(cross_checked=True)

    # n = 1 would divide by n^2 - 1 = 0; test_n_equal_one pins it
    @given(st.integers(2, 12), partitions_up_to_ten)
    @settings(max_examples=150, deadline=None)
    def test_integer_quotient_matches_the_rational_route(self, n, lam):
        assume(len(lam) <= n)
        rational = schur_dimension(n, lam) * casimir(n, lam) / (n * n - 1)
        assert c2_closed_form(n, lam).n_lambda == rational

    def test_inexact_division_raises(self, monkeypatch):
        real = chern_mod._hook_dimension
        monkeypatch.setattr(chern_mod, "_hook_dimension",
                            lambda n, lam, heights: real(n, lam, heights) + 1)
        with pytest.raises(ArithmeticError, match="non-integral index 5/4"):
            c2_closed_form(4, (1,))


class TestEnumeration:
    def test_reference_values(self):
        assert c2_enumeration(8, (1, 1)).n_lambda == 6
        assert c2_enumeration(2, (1,)).n_lambda == 1
        assert c2_enumeration(4, (1, 1)).n_lambda == 2
        assert c2_enumeration(8, (2, 2, 2)).n_lambda == 700

    def test_flagged_row_computes_as_its_dual(self):
        # the symmetric square of the defining representation of SL(8)
        assert c2_enumeration(8, (2,)).n_lambda == 10
        assert c2_enumeration(8, (2, 2, 2, 2, 2, 2, 2)).n_lambda == 10

    def test_rejects_too_many_rows(self):
        with pytest.raises(ValueError):
            c2_enumeration(3, (1, 1, 1, 1))

    def test_polynomial_route_on_example(self):
        assert polynomial_route(8, (2, 2, 2)) == 700

    @given(st.integers(2, 5), partitions_small)
    @settings(max_examples=40, deadline=None)
    def test_polynomial_route_matches_streaming(self, n, lam):
        if len(lam) > n:
            return
        a = c2_enumeration(n, lam).n_lambda
        b = polynomial_route(n, lam)
        assert a == b

    @given(st.integers(2, 6), partitions_small)
    @settings(max_examples=60, deadline=None)
    def test_matches_closed_form(self, n, lam):
        if len(lam) > n:
            return
        assert c2_enumeration(n, lam).n_lambda == c2_closed_form(n, lam).n_lambda


class TestSubshape:
    def test_reference_values(self):
        assert c2_subshape(8, (2, 2, 2)) == 700
        assert c2_subshape(6, (2, 1)) == 33
        assert c2_subshape(9, (3, 3, 3, 3, 3)) == 116424
        assert c2_subshape(8, (2, 2, 2, 2, 2, 2, 2, 2)) == 0

    def test_small_n(self):
        assert c2_subshape(1, (5,)) == 0
        assert c2_subshape(2, (1,)) == 1
        assert c2_subshape(2, (3,)) == c2_closed_form(2, (3,)).n_lambda == 10
        assert c2_subshape(5, ()) == 0

    def test_rejects_too_many_rows(self):
        with pytest.raises(ValueError):
            c2_subshape(3, (1, 1, 1, 1))

    @given(st.integers(1, 12), partitions_up_to_ten)
    @settings(max_examples=150, deadline=None)
    def test_matches_closed_form(self, n, lam):
        assume(len(lam) <= n)
        assert c2_subshape(n, lam) == c2_closed_form(n, lam).n_lambda

    @given(st.integers(1, 12), partitions_up_to_ten)
    @settings(max_examples=60, deadline=None)
    def test_matches_enumeration_when_small(self, n, lam):
        assume(len(lam) <= n and schur_dimension(n, lam) <= 20_000)
        assert c2_subshape(n, lam) == c2_enumeration(n, lam).n_lambda

    @given(st.integers(1, 12), partitions_up_to_ten)
    @settings(max_examples=100, deadline=None)
    def test_duality_invariance(self, n, lam):
        assume(len(lam) <= n)
        assert c2_subshape(n, dual_partition(n, lam)) == c2_subshape(n, lam)

    @pytest.mark.parametrize("n, lam", [
        (2, (5000,)), (3, (300,)), (4, (60, 30)), (12, (40, 40, 3)),
        (30, (1,) * 29), (25, (5, 4, 4, 3, 3, 2, 2, 1, 1, 1, 1, 1)),
    ])
    def test_determinants_run_over_the_shorter_side(self, monkeypatch, n, lam):
        # a one-row shape has one row and lam_1 columns: 1 x 1 determinants
        sizes = []
        real = chern_mod._bareiss_determinant

        def spy(a):
            sizes.append(len(a))
            return real(a)

        monkeypatch.setattr(chern_mod, "_bareiss_determinant", spy)
        assert c2_subshape(n, lam) == c2_closed_form(n, lam).n_lambda
        assert sizes and max(sizes) <= min(lam[0], len(lam))

    def test_tall_shapes_take_only_the_binomials_they_read(self, monkeypatch):
        # the column form reads e_k only for k < lam_1 + len(lam'), not all
        # n - 1 of them: c2 n 1 used to take seconds at n = 5,000
        # (a stand-in binomial keeps the old 19,999 calls fast)
        calls = []
        monkeypatch.setattr(chern_mod, "math", SimpleNamespace(
            comb=lambda a, b: calls.append((a, b)) or 1))
        c2_subshape(20000, (1,))
        assert len(calls) < 10

    def test_defining_representation_of_a_large_group_is_cross_checked(self):
        assert c2(100000, (1,)) == ChernResult(1, "both", True, 100000)

    def test_wide_shapes_are_cross_checked(self):
        # dimensions 5001 and 45451, under CROSS_CHECK_CEILING
        for n, lam in [(2, (5000,)), (3, (300,))]:
            res = c2(n, lam)
            assert res.cross_checked
            assert res.dim == math.comb(n + lam[0] - 1, lam[0])


def test_subshape_matches_closed_form_on_every_conjecture_5_row():
    # all 1,558 generators of SL(25)/mu_5: at most 5 columns, up to 24 rows
    rows = [partition_of(w) for w in hilbert_basis(GroupSpec(25, 5))]
    assert len(rows) == 1558
    mismatched = [
        lam for lam in rows
        if c2_subshape(25, lam) != c2_closed_form(25, lam).n_lambda
    ]
    assert mismatched == []


class TestTruncatedQuadratic:
    def test_truncation(self):
        q = TruncatedQuadratic(3)
        q = q.times_one_plus_linear((1, 2, 0))
        q = q.times_one_plus_linear((0, 1, 1))
        # (1 + x + 2y)(1 + y + z) = 1 + x + 3y + z + xy + xz + 2y^2 + 2yz + ...
        assert q.const == 1
        assert q.lin == [1, 3, 1]
        assert q.coefficient(0, 1) == 1
        assert q.coefficient(0, 2) == 1
        assert q.coefficient(1, 1) == 2
        assert q.coefficient(1, 2) == 2
        assert q.coefficient(0, 0) == 0


class TestFrontDoor:
    def test_both_examples(self):
        res = c2(8, (1, 1, 1, 1))
        assert res.n_lambda == 20
        assert res.method == "both"
        assert res.cross_checked
        assert c2(9, (2, 1, 1, 1, 1, 1, 1, 1)).n_lambda == 18

    def test_auto_cross_checks_small_dimensions(self):
        res = c2(8, (2, 2, 2))
        assert res.method == "both"
        assert res.cross_checked
        assert res.n_lambda == 700

    def test_auto_skips_cross_check_above_ceiling(self):
        res = c2(9, (3, 3, 3, 3))
        assert res.method == "closed-form"
        assert not res.cross_checked
        assert res.n_lambda == 116424

    def test_cross_check_runs_the_subshape_sum(self, monkeypatch):
        def no_tableaux(*args, **kwargs):
            raise AssertionError("the cross-check must not stream tableaux")

        monkeypatch.setattr(chern_mod, "c2_enumeration", no_tableaux)
        monkeypatch.setattr(chern_mod, "c2_subshape", lambda n, lam: 701)
        with pytest.raises(CrossCheckError) as info:
            c2(8, (2, 2, 2))
        assert (info.value.closed, info.value.subshape) == (700, 701)

    def test_exterior_power_identity(self):
        for n in range(2, 11):
            for k in range(1, n):
                assert c2(n, (1,) * k).n_lambda == math.comb(n - 2, k - 1)

    def test_adjoint_identity(self):
        for n in range(4, 10):
            assert c2(n, (2,) + (1,) * (n - 2)).n_lambda == 2 * n

    @given(st.integers(2, 6), partitions_small, st.integers(0, 2))
    @settings(max_examples=40, deadline=None)
    def test_determinant_reduction_invariance(self, n, lam, k):
        if len(lam) > n:
            return
        padded = tuple(p + k for p in lam) + (k,) * (n - len(lam))
        assert c2(n, padded).n_lambda == c2(n, lam).n_lambda

    @given(st.integers(2, 7), partitions_small)
    @settings(max_examples=60, deadline=None)
    def test_duality_invariance(self, n, lam):
        if len(lam) > n:
            return
        dual = dual_partition(n, lam)
        assert c2_closed_form(n, dual).n_lambda == c2_closed_form(n, lam).n_lambda


class TestDualPartition:
    def test_examples(self):
        assert dual_partition(8, (2,)) == (2, 2, 2, 2, 2, 2, 2)
        assert dual_partition(9, (3, 3, 1, 1, 1)) == (3, 3, 3, 3, 2, 2, 2)
        assert dual_partition(5, ()) == ()

    def test_involution_after_reduction(self):
        lam = (3, 1, 1)
        assert dual_partition(6, dual_partition(6, lam)) == lam

    @given(st.lists(st.integers(0, 3), min_size=1, max_size=7).map(tuple))
    def test_agrees_with_reversed_weight(self, w):
        n = len(w) + 1
        lam = partition_of(w)
        assert dual_partition(n, lam) == partition_of(dual_weight(w))


class TestReduction:
    def test_reduce_full_columns(self):
        assert reduce_full_columns(4, (3, 2, 2, 2)) == (1,)
        assert reduce_full_columns(4, (2, 1)) == (2, 1)
        assert reduce_full_columns(3, (2, 2, 2)) == ()

    def test_rejects_too_many_rows(self):
        with pytest.raises(ValueError):
            reduce_full_columns(2, (1, 1, 1))
