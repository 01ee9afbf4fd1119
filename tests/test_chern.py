from __future__ import annotations

import math
from fractions import Fraction
from types import SimpleNamespace

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import schern.chern as chern_mod
from oracles import (_bareiss_determinant, c2_subshape, casimir, conjugate,
                     dual_partition, dual_weight, ssyt_count, weyl_dimension)
from schern import __version__
from schern.cache import ResultCache
from schern.chern import (
    ChernResult,
    CrossCheckError,
    c2,
    c2_closed_form,
    c2_enumeration,
    column_rows,
    reduce_full_columns,
    schur_dimension,
)
from schern.partitions import ssyt_stream
from schern.weights import GroupSpec, generator_heights, hilbert_basis, partition_of

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
        st.integers(1, 50).flatmap(
            lambda n: st.tuples(
                st.just(n),
                st.lists(st.integers(1, 60), max_size=n).map(
                    lambda xs: tuple(sorted(xs, reverse=True))
                ),
            )
        )
    )
    @settings(max_examples=150, deadline=None)
    def test_program_casimir_is_the_oracle_from_either_side(self, case):
        # the rows and the column heights of one lam, full columns included:
        # adding a column of height n leaves the SL(n) Casimir unchanged.
        # The kernel's index times n^2 - 1 is dim times its Casimir, which
        # n = 1 (index 0, Casimir 0) also satisfies
        n, lam = case
        dim = weyl_dimension(n, lam)
        for lines, by_columns in [(lam, False), (conjugate(lam), True)]:
            (_, value, kernel_dim), = chern_mod._line_indices(n, [lines], by_columns)
            assert kernel_dim == dim
            assert value * (n * n - 1) == dim * casimir(n, lam)


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
        assert res._fields == ("n_lambda", "cross_checked", "dim")
        assert not res.cross_checked
        assert res.dim == 70

    def test_result_is_an_immutable_value(self):
        res = c2_closed_form(6, (2, 1))
        with pytest.raises(AttributeError):
            res.n_lambda = 34
        same = ChernResult(33, False, 70)
        assert res == same and hash(res) == hash(same)
        assert res != same._replace(cross_checked=True)

    # n = 1 would divide by n^2 - 1 = 0; test_n_equal_one pins it
    @given(st.integers(2, 12), partitions_up_to_ten)
    @settings(max_examples=150, deadline=None)
    def test_integer_quotient_matches_the_rational_route(self, n, lam):
        assume(len(lam) <= n)
        rational = weyl_dimension(n, lam) * casimir(n, lam) / (n * n - 1)
        assert c2_closed_form(n, lam).n_lambda == rational

    def test_inexact_division_raises(self, monkeypatch):
        # C(4, 1) + 1 = 5 read as the dimension of the one column (1,)
        monkeypatch.setattr(chern_mod, "math", SimpleNamespace(
            comb=lambda a, b: math.comb(a, b) + 1, perm=math.perm, gcd=math.gcd))
        with pytest.raises(ArithmeticError, match="non-integral index 5/4"):
            c2_closed_form(4, (1,))

    @pytest.mark.parametrize("n, lam", [
        (10**6, (1,) * 5000), (3, (10**20,)), (10**30, (3, 3, 3, 2, 2)),
    ], ids=["tall-column", "wide-row", "three-columns"])
    def test_a_shape_of_k_lines_takes_at_most_k_binomials(self, monkeypatch, n, lam):
        # each binomial is built on first use: the column of height 5,000
        # reads C(10^6, 5000) alone, not the 5,001 of a table up to m = 5000,
        # and a Pascal row of n + 2 entries at n = 10^30 would never finish
        calls = []
        monkeypatch.setattr(chern_mod, "math", SimpleNamespace(
            comb=lambda a, b: calls.append((a, b)) or math.comb(a, b),
            perm=math.perm, gcd=math.gcd))
        c2_closed_form(n, lam)
        assert 0 < len(calls) <= min(lam[0], len(lam))


def _oracle_indices(n, shapes):
    # Weyl's product times the rational Casimir over n^2 - 1: exact
    # Fractions that share nothing with the kernel's hook content loop
    return [weyl_dimension(n, lam) * casimir(n, lam) / (n * n - 1) for lam in shapes]


def column_indices(n, rows):
    # the indices alone, which is what the oracle below gives
    return [value for _, value, _, _ in column_rows(n, rows)]


_GROUPS_TO_16 = [
    (n, d) for n in range(2, 17) for d in range(1, n + 1) if n % d == 0
] + [(25, 5)]


class TestColumnIndices:
    @pytest.mark.parametrize("n, d", _GROUPS_TO_16)
    def test_rows_are_what_c2_gives_each_shape(self, n, d):
        # the batch settles each row by the rule c2 uses: the same
        # (n_lam, cross_checked, dim) behind its heights
        rows = generator_heights(GroupSpec(n, d))
        assert list(column_rows(n, rows)) == [(h, *c2(n, conjugate(h))) for h in rows]

    def test_a_disputed_row_raises_only_when_it_is_drawn(self, monkeypatch):
        # the rows stream: with the determinant planted to disagree on the
        # fifth row under the ceiling, the four before it come out and only
        # drawing the fifth raises
        n, rows = 8, generator_heights(GroupSpec(8, 2))
        expected = [(h, *c2(n, conjugate(h))) for h in rows]
        k = [i for i, (_, _, checked, _) in enumerate(expected) if checked][4]
        disputed, real = conjugate(rows[k]), chern_mod._jacobi_trudi
        monkeypatch.setattr(chern_mod, "_jacobi_trudi", lambda n, lam: (
            (0, 0) if lam == disputed else real(n, lam)))
        stream = column_rows(n, rows)
        assert [next(stream) for _ in range(k)] == expected[:k]
        with pytest.raises(CrossCheckError) as info:
            next(stream)
        assert (info.value.lam, info.value.determinant) == (disputed, (0, 0))

    @pytest.mark.parametrize("n, d", _GROUPS_TO_16)
    def test_matches_the_closed_form_on_every_generator_row(self, n, d):
        # every d | n <= 16 (ell = 3 is (9, 3)) and ell = 5
        rows = generator_heights(GroupSpec(n, d))
        assert column_indices(n, rows) == _oracle_indices(n, map(conjugate, rows))

    def test_matches_the_closed_form_on_a_slice_of_ell_7(self):
        rows = generator_heights(GroupSpec(49, 7))[::22][:3000]
        assert len(rows) == 3000 and max(map(len, rows)) == 7
        assert column_indices(49, rows) == _oracle_indices(49, map(conjugate, rows))

    @given(st.integers(2, 30).flatmap(lambda n: st.tuples(
        st.just(n),
        st.lists(st.lists(st.integers(1, n - 1), max_size=8).map(
            lambda hs: tuple(sorted(hs, reverse=True))), max_size=6))))
    @settings(max_examples=150, deadline=None)
    def test_matches_the_closed_form_on_random_heights(self, case):
        # several rows per call, so tables built for one k serve later rows
        n, rows = case
        assert column_indices(n, rows) == _oracle_indices(n, map(conjugate, rows))

    def test_empty_shape_and_n_equal_one(self):
        assert column_indices(1, [()]) == [0]
        assert column_indices(2, [(), (1,), (1, 1)]) == [0, 1, 4]  # Sym^2: 4

    @pytest.mark.parametrize("n, d, count", [(8, 2, 13), (25, 5, 1558), (40, None, 2)])
    def test_a_stream_of_heights_gives_the_rows_of_its_list(self, n, d, count):
        # the heights are read once, so an iterator over them gives what the
        # list gives; at n = 40 both shapes lie above the ceiling
        rows = generator_heights(GroupSpec(n, d)) if d else [(30,) * 15, (29,) * 14]
        expected = list(column_rows(n, rows))
        assert len(expected) == len(rows) == count
        assert list(column_rows(n, iter(rows))) == expected
        if d is None:
            assert not any(checked for _, _, checked, _ in expected)

    def test_each_row_carries_the_heights_it_was_handed(self):
        # the first field is the very object handed in, in the order handed
        # in, under the ceiling and above it
        handed = [tuple(list(h)) for h in generator_heights(GroupSpec(9, 3))]
        rows = list(column_rows(9, iter(handed)))
        assert len(rows) == len(handed) == 31
        assert all(row[0] is h for row, h in zip(rows, handed))
        assert {checked for _, _, checked, _ in rows} == {True, False}

    @given(st.integers(2, 30).flatmap(lambda n: st.tuples(
        st.just(n),
        st.lists(st.lists(st.integers(1, 12), max_size=min(n, 10)).map(
            lambda xs: tuple(sorted(xs, reverse=True))), max_size=6))))
    @settings(max_examples=150, deadline=None)
    def test_one_batch_from_either_side_matches_the_oracle(self, case):
        # a batch mixes shapes whose shorter side is the columns and shapes
        # whose shorter side is the rows, and the kernel reads each batch
        # whole by rows or whole by column heights
        n, shapes = case
        expected = [(index, weyl_dimension(n, lam))
                    for index, lam in zip(_oracle_indices(n, shapes), shapes)]
        assert list(chern_mod._line_indices(n, shapes, False)) == [
            (lam, *row) for lam, row in zip(shapes, expected)]
        heights = [conjugate(lam) for lam in shapes]
        assert list(chern_mod._line_indices(n, heights, True)) == [
            (h, *row) for h, row in zip(heights, expected)]


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


jacobi_trudi = chern_mod._jacobi_trudi


def _closed(n, lam):
    res = c2_closed_form(n, lam)
    return res.n_lambda, res.dim


def _binomials_read(monkeypatch, n, lam):
    """The (top, bottom) of every math.comb call that the determinant makes
    for (n, lam), after checking its (n_lam, dim) against the closed form."""
    expected = _closed(n, lam)  # before the spy
    calls = []
    real = math.comb
    with monkeypatch.context() as patch:
        patch.setattr(chern_mod, "math", SimpleNamespace(
            comb=lambda a, b: calls.append((a, b)) or real(a, b)))
        assert jacobi_trudi(n, lam) == expected
    return calls


def _assert_reads_at_most_two_binomials_per_entry(monkeypatch, n, lam):
    # k lines on the shorter side: a k x k matrix, two binomials an entry
    k = min(lam[0], len(lam))
    assert 0 < len(_binomials_read(monkeypatch, n, lam)) <= 2 * k * k


def _leading_minors_and_dimensions(n, lam):
    """Each leading c x c minor of the integer Jacobi-Trudi matrix over the
    shorter side of the reduced lam, C(n, t) over the column heights or
    C(n + t - 1, t) over the rows, with the dimension of the shape made of
    the first c lines; the pivots of the determinant's elimination."""
    if len(lam) == n:
        lam = tuple(p - lam[-1] for p in lam if p > lam[-1])
    by_columns = bool(lam) and lam[0] <= len(lam)
    lines = conjugate(lam) if by_columns else lam
    k = len(lines)

    def entry(t):
        return 0 if t < 0 else math.comb(n, t) if by_columns else math.comb(n + t - 1, t)

    pairs = []
    for c in range(k + 1):
        block = [[entry(lines[i] - i + j) for j in range(c)] for i in range(c)]
        shape = conjugate(lines[:c]) if by_columns else lines[:c]
        pairs.append((_bareiss_determinant(block), weyl_dimension(n, shape)))
    return pairs


class TestLeadingMinors:
    """The determinant eliminates with no row exchange because each leading
    minor of its integer part is a dimension, so positive (Macdonald I.3)."""

    @given(st.integers(1, 14), st.lists(st.integers(1, 9), max_size=14).map(
        lambda xs: tuple(sorted(xs, reverse=True))))
    @settings(max_examples=150, deadline=None)
    @example(4, (3, 1))        # rows
    @example(5, (2, 1, 1))     # columns
    @example(14, (9,) * 14)    # reduced to (); its conjugate by 9 rows
    def test_every_leading_minor_is_a_positive_dimension(self, n, lam):
        for shape in (lam, conjugate(lam)):
            if len(shape) <= n:
                for minor, dim in _leading_minors_and_dimensions(n, shape):
                    assert minor == dim > 0


class TestSubshape:
    """The second route: one Jacobi-Trudi determinant over Z[eps]/(eps^2),
    which gives (n_lam, dim)."""

    def test_reference_values(self):
        assert jacobi_trudi(8, (2, 2, 2)) == (700, 1176)
        assert jacobi_trudi(6, (2, 1)) == (33, 70)
        assert jacobi_trudi(9, (3, 3, 3, 3, 3)) == (116424, 116424)
        assert jacobi_trudi(8, (2, 2, 2, 2, 2, 2, 2, 2)) == (0, 1)

    def test_small_n(self):
        assert jacobi_trudi(1, (5,)) == (0, 1)
        assert jacobi_trudi(2, (1,)) == (1, 2)
        assert jacobi_trudi(2, (3,)) == _closed(2, (3,)) == (10, 4)
        assert jacobi_trudi(5, ()) == (0, 1)

    def test_rejects_too_many_rows(self):
        with pytest.raises(ValueError):
            jacobi_trudi(3, (1, 1, 1, 1))

    @given(st.integers(1, 14), st.lists(st.integers(1, 9), max_size=14).map(
        lambda xs: tuple(sorted(xs, reverse=True))))
    @settings(max_examples=150, deadline=None)
    @example(4, (3, 1))        # rows: 3 > 2
    @example(5, (2, 1, 1))     # columns: 2 <= 3
    @example(14, (9,) * 14)    # reduced to (); its conjugate by 9 rows
    def test_matches_closed_form(self, n, lam):
        # lam and its conjugate run on opposite sides, one by its columns
        # and one by its rows, unless lam is as wide as it is tall
        for shape in (lam, conjugate(lam)):
            if len(shape) <= n:
                assert jacobi_trudi(n, shape) == _closed(n, shape)

    @given(st.integers(1, 12), partitions_up_to_ten)
    @settings(max_examples=60, deadline=None)
    # exactly n - 1 rows, the most that a reduced shape has
    @example(2, (7,))
    @example(3, (4, 2))
    @example(3, (5, 5))
    @example(4, (3, 2, 1))
    @example(5, (4, 3, 3, 2))
    @example(6, (3, 3, 2, 2, 2))
    @example(7, (2, 2, 2, 1, 1, 1))
    def test_matches_enumeration_when_small(self, n, lam):
        assume(len(lam) <= n and schur_dimension(n, lam) <= 20_000)
        assert jacobi_trudi(n, lam) == (c2_enumeration(n, lam).n_lambda,
                                        ssyt_count(n, lam))

    @pytest.mark.parametrize("n, lam", [
        (3, (10**20,)), (121, (2**60, 1)), (10**6, (1,) * 5000)])
    def test_extreme_shapes_match_the_closed_form(self, n, lam):
        assert jacobi_trudi(n, lam) == _closed(n, lam)

    def test_two_equal_rows_read_at_most_eight_binomials(self, monkeypatch):
        # c2 3 445,445: dimension 99,681, a 2 x 2 determinant by the rows
        _assert_reads_at_most_two_binomials_per_entry(monkeypatch, 3, (445, 445))

    @given(st.integers(1, 12), partitions_up_to_ten)
    @settings(max_examples=100, deadline=None)
    def test_duality_invariance(self, n, lam):
        assume(len(lam) <= n)
        assert jacobi_trudi(n, dual_partition(n, lam)) == jacobi_trudi(n, lam)

    @pytest.mark.parametrize("n, lam", [
        (2, (5000,)), (3, (300,)), (4, (60, 30)), (12, (40, 40, 3)),
        (30, (1,) * 29), (25, (5, 4, 4, 3, 3, 2, 2, 1, 1, 1, 1, 1)),
    ])
    def test_determinants_run_over_the_shorter_side(self, monkeypatch, n, lam):
        # the matrix is min(rows, columns) square: its integer parts are
        # C(n, t) over the k column heights or C(n + t - 1, t) over the k
        # rows, read for the t = l_i - i + j > 0 of that k x k matrix only
        by_columns = lam[0] <= len(lam)
        lines = conjugate(lam) if by_columns else lam
        k = len(lines)
        assert k == min(lam[0], len(lam))
        read = _binomials_read(monkeypatch, n, lam)
        integer_parts = {b for a, b in read if a == (n if by_columns else n - 1 + b)}
        assert integer_parts == {t for i, p in enumerate(lines)
                                 for j in range(k) if (t := p - i + j) > 0}

    def test_tall_shapes_take_only_the_binomials_they_read(self, monkeypatch):
        # c2 20000 1: one column, so E(1) alone, not all n - 1 entries
        _assert_reads_at_most_two_binomials_per_entry(monkeypatch, 20000, (1,))

    def test_one_row_at_n_2_takes_no_zero_binomials(self, monkeypatch):
        # c2 2 99999: one row, so H(99999) alone (dimension 100000)
        _assert_reads_at_most_two_binomials_per_entry(monkeypatch, 2, (99999,))

    def test_defining_representation_of_a_large_group_is_cross_checked(self):
        assert c2(100000, (1,)) == ChernResult(1, True, 100000)

    def test_wide_shapes_are_cross_checked(self):
        # dimensions 5001 and 45451, under CROSS_CHECK_CEILING
        for n, lam in [(2, (5000,)), (3, (300,))]:
            res = c2(n, lam)
            assert res.cross_checked
            assert res.dim == math.comb(n + lam[0] - 1, lam[0])


def test_subshape_matches_closed_form_on_every_conjecture_5_row():
    # all 1,558 generators of SL(25)/mu_5: at most 5 columns, up to 24 rows;
    # the determinant gives the sub-shape oracle's index and the closed
    # form's dimension on each
    rows = [partition_of(w) for w in hilbert_basis(GroupSpec(25, 5))]
    assert len(rows) == 1558
    mismatched = [
        lam for lam in rows
        if jacobi_trudi(25, lam) != (c2_subshape(25, lam), schur_dimension(25, lam))
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
        assert res.cross_checked
        assert c2(9, (2, 1, 1, 1, 1, 1, 1, 1)).n_lambda == 18

    def test_auto_cross_checks_small_dimensions(self):
        res = c2(8, (2, 2, 2))
        assert res.cross_checked
        assert res.n_lambda == 700

    def test_auto_skips_cross_check_above_ceiling(self):
        res = c2(9, (3, 3, 3, 3))
        assert not res.cross_checked
        assert res.n_lambda == 116424

    def test_cross_check_runs_the_determinant(self, monkeypatch):
        def no_tableaux(*args, **kwargs):
            raise AssertionError("the cross-check must not stream tableaux")

        monkeypatch.setattr(chern_mod, "c2_enumeration", no_tableaux)
        monkeypatch.setattr(chern_mod, "_jacobi_trudi", lambda n, lam: (701, 1176))
        with pytest.raises(CrossCheckError) as info:
            c2(8, (2, 2, 2))
        assert (info.value.closed, info.value.determinant) == ((700, 1176), (701, 1176))
        assert "(701, 1176) by the dual-number Jacobi-Trudi determinant" in str(info.value)

    def test_a_recorded_sum_stands_in_only_when_it_equals_the_closed_form(
            self, monkeypatch, tmp_path):
        calls = []
        real = chern_mod._jacobi_trudi
        monkeypatch.setattr(chern_mod, "_jacobi_trudi",
                            lambda n, lam: calls.append(lam) or real(n, lam))
        certified = ChernResult(700, True, 1176)
        path = tmp_path / "F"

        def recorded(value):
            path.write_bytes(b"")
            ResultCache(path).put(8, (2, 2, 2), value)
            return ResultCache(path), path.read_bytes()

        cache, before = recorded(700)
        assert c2(8, (2, 2, 2), cache=cache) == certified
        assert calls == [] and path.read_bytes() == before
        confirmed = (f'{{"n":8,"partition":[2,2,2],"subshape":700,'
                     f'"version":"{__version__}"}}\n').encode()
        for runs, other in enumerate((699, 701, 0, -700), 1):
            cache, before = recorded(other)
            assert c2(8, (2, 2, 2), cache=cache) == certified
            assert len(calls) == runs
            assert path.read_bytes() == before + confirmed
        # above the ceiling no determinant runs, a recorded index certifies
        # nothing and nothing is appended
        path.write_bytes(b"")
        ResultCache(path).put(9, (3, 3, 3, 3), 116424)
        before = path.read_bytes()
        above = c2(9, (3, 3, 3, 3), cache=ResultCache(path))
        assert above == ChernResult(116424, False, schur_dimension(9, (3, 3, 3, 3)))
        assert len(calls) == 4 and path.read_bytes() == before

    def test_a_wrong_recorded_sum_cannot_hide_a_disagreement(
            self, monkeypatch, tmp_path):
        monkeypatch.setattr(chern_mod, "_jacobi_trudi", lambda n, lam: (701, 1176))
        for recorded in (None, 701, 699):
            path = tmp_path / f"F{recorded}"
            if recorded is not None:
                ResultCache(path).put(8, (2, 2, 2), recorded)
            before = path.read_bytes() if path.exists() else b""
            with pytest.raises(CrossCheckError):
                c2(8, (2, 2, 2), cache=ResultCache(path))
            assert (path.read_bytes() if path.exists() else b"") == before

    def test_the_cache_is_keyword_only(self, tmp_path):
        # a third positional argument is what perfbench/tracer.py reads as
        # the method of an older front door
        with pytest.raises(TypeError):
            c2(8, (2, 2, 2), ResultCache(tmp_path / "F"))

    def test_exterior_power_identity(self):
        cases = [(n, k) for n in range(2, 14) for k in range(1, n)]
        for n, k in cases + [(10**6, 3)]:
            assert schur_dimension(n, (1,) * k) == math.comb(n, k)
            assert c2(n, (1,) * k).n_lambda == math.comb(n - 2, k - 1)

    def test_symmetric_power_identity(self):
        # dim C(n + k - 1, k) and index dim * k (n + k) / (n (n + 1)),
        # compared without dividing; a 20-digit row walks one line
        cases = [(n, k) for n in range(2, 14) for k in range(1, 41)]
        for n, k in cases + [(3, 10**20 - 1), (7, 10**20 - 1)]:
            dim = math.comb(n + k - 1, k)
            assert schur_dimension(n, (k,)) == dim
            assert c2(n, (k,)).n_lambda * n * (n + 1) == dim * k * (n + k)

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


class _Index:
    """An integer whose one integer method is __index__."""

    def __init__(self, value):
        self.value = value

    def __index__(self):
        return self.value


@pytest.mark.parametrize("n, lam", [(8, (2, 2, 2)), (8, (3,) + (1,) * 7), (30, (15,) * 15)])
def test_an_n_with_only_index_gives_what_the_int_gives(n, lam):
    # every entry point computes with the int its check returned; the
    # enumeration walks every tableau, so it skips the large shape
    heights = conjugate(reduce_full_columns(n, lam))
    routes = [c2, c2_closed_form, schur_dimension, chern_mod._jacobi_trudi,
              lambda n, lam: list(column_rows(n, [heights]))]
    if n < 30:
        routes.append(c2_enumeration)
    for route in routes:
        assert route(_Index(n), lam) == route(n, lam)


class TestReduction:
    def test_reduce_full_columns(self):
        assert reduce_full_columns(4, (3, 2, 2, 2)) == (1,)
        assert reduce_full_columns(4, (2, 1)) == (2, 1)
        assert reduce_full_columns(3, (2, 2, 2)) == ()

    def test_rejects_too_many_rows(self):
        with pytest.raises(ValueError):
            reduce_full_columns(2, (1, 1, 1))
