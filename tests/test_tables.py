from __future__ import annotations

import math
import random
import sys
from fractions import Fraction

import pytest

import schern.chern as chern_mod
import schern.partitions as partitions_mod
import schern.tables as tables_mod
from oracles import (descends, dual_weight, h4_lattice_multiplier,
                     monoid_members_up_to)
from schern.chern import (CROSS_CHECK_CEILING, CrossCheckError, c2_closed_form,
                          column_rows)
from schern.cli import COMMANDS
from schern.partitions import InputError
from schern.tables import (
    CASES,
    explore_conjecture,
    generator_table,
    h4_multiplier,
    image_index,
    table_against_reference,
    verify_case,
)
from schern.weights import GroupSpec, generator_heights, hilbert_basis, partition_of


class TestReferenceData:
    def test_row_counts(self):
        assert len(CASES["sl8-mu2"].reference) == 13
        assert len(CASES["sl9-mu3"].reference) == 23

    def test_weights_and_partitions_are_consistent(self):
        for case in CASES.values():
            for w, lam, _ in case.reference:
                assert partition_of(w) == lam
                assert descends(lam, case.spec)

    def test_rows_are_lex_sorted(self):
        for case in CASES.values():
            weights = [w for w, _, _ in case.reference]
            assert weights == sorted(weights)

    def test_table_choices_are_the_cases_with_a_reference(self):
        with_reference = tuple(sorted(k for k, c in CASES.items() if c.reference))
        assert with_reference == ("sl8-mu2", "sl9-mu3")
        assert COMMANDS["table"][2]["--case"] == with_reference

    def test_a_case_without_a_reference_is_an_unknown_table(self):
        with pytest.raises(InputError) as info:
            table_against_reference("sl4-mu2")
        assert str(info.value) == (
            "unknown table 'sl4-mu2'; known: ['sl8-mu2', 'sl9-mu3']")


class TestTableAgainstReference:
    def test_sl8_mu2(self):
        t = table_against_reference("sl8-mu2")
        assert t.gcd == 2
        assert len(t.rows) == 13
        flagged = [r for r in t.rows if r.flagged]
        assert [r.weight for r in flagged] == [(2, 0, 0, 0, 0, 0, 0)]
        # the recomputed value must equal the printed value of the dual row
        assert flagged[0].n_lambda == 10
        assert flagged[0].reference_value == 16
        for r in t.rows:
            if not r.flagged:
                assert r.n_lambda == r.reference_value

    def test_sl9_mu3(self):
        t = table_against_reference("sl9-mu3")
        assert t.gcd == 3
        assert len(t.rows) == 23
        flagged = [r for r in t.rows if r.flagged]
        assert [r.weight for r in flagged] == [(3, 0, 0, 0, 0, 0, 0, 0)]
        assert flagged[0].n_lambda == 66
        assert flagged[0].reference_value == 165
        for r in t.rows:
            if not r.flagged:
                assert r.n_lambda == r.reference_value

    def test_rows_cross_checked_up_to_ceiling(self):
        t = table_against_reference("sl9-mu3")
        for r in t.rows:
            from schern.chern import schur_dimension
            expect = schur_dimension(9, r.partition) <= CROSS_CHECK_CEILING
            assert r.cross_checked == expect, r

    def test_unknown_case(self):
        with pytest.raises(ValueError):
            table_against_reference("sl10-mu5")


class TestGeneratorTable:
    def test_sl8_mu2_full_basis_equals_reference_rows(self):
        t = generator_table(GroupSpec(8, 2))
        assert len(t.rows) == 13
        assert t.gcd == 2
        assert all(r.reference_value is not None for r in t.rows)

    def test_sl9_mu3_full_basis_extends_the_reference(self):
        t = generator_table(GroupSpec(9, 3))
        assert len(t.rows) == 31
        assert t.gcd == 3
        extras = [r for r in t.rows if r.reference_value is None]
        assert len(extras) == 8
        # the reference rows already force gcd 3; the eight weights the
        # reference table omits keep it
        for r in extras:
            assert r.n_lambda % 3 == 0, r

    def test_rows_are_immutable_values(self):
        row = generator_table(GroupSpec(8, 2)).rows[0]
        with pytest.raises(AttributeError):
            row.n_lambda = 0
        again = generator_table(GroupSpec(8, 2)).rows[0]
        assert row == again and hash(row) == hash(again)
        assert row != again._replace(flagged=not row.flagged)

    def test_rows_in_lex_weight_order(self):
        t = generator_table(GroupSpec(6, 3))
        assert [r.weight for r in t.rows] == sorted(r.weight for r in t.rows)

    def test_cross_check_failure_aborts_the_table(self, monkeypatch):
        # no table, and so no gcd over the rows that passed, comes back
        real = tables_mod.column_rows
        original = CrossCheckError(4, (1, 1), (4, 6), (5, 6))

        def broken(n, heights):
            if (2,) in heights:  # lam = (1, 1)
                raise original
            return real(n, heights)

        monkeypatch.setattr(tables_mod, "column_rows", broken)
        with pytest.raises(CrossCheckError) as info:
            generator_table(GroupSpec(4, 2))
        assert info.value is original


class TestImageIndex:
    def test_failed_row_raises_with_the_values_that_disagree(self, monkeypatch):
        real = tables_mod.column_rows
        original = CrossCheckError(4, (1, 1), (4, 6), (5, 6))

        def broken(n, heights):
            if (2,) in heights:  # lam = (1, 1)
                raise original
            return real(n, heights)

        monkeypatch.setattr(tables_mod, "column_rows", broken)
        with pytest.raises(CrossCheckError) as info:
            image_index(GroupSpec(4, 2))
        assert (info.value.lam, info.value.closed, info.value.determinant) == (
            (1, 1), (4, 6), (5, 6)
        )
        assert info.value is original

    def test_equals_the_gcd_of_the_table_for_every_group_up_to_20(self):
        groups = [GroupSpec(n, d) for n in range(2, 21)
                  for d in range(1, n + 1) if n % d == 0]
        assert len(groups) == 65
        assert ([image_index(spec) for spec in groups]
                == [generator_table(spec).gcd for spec in groups])

    def test_builds_no_table_row_weight_or_partition(self, monkeypatch):
        built = []

        def spy(name, real):
            monkeypatch.setattr(tables_mod, name,
                                lambda *args: built.append(name) or real(*args))

        for name in ("TableRow", "partition_of", "weight_of"):
            spy(name, getattr(tables_mod, name))
        assert image_index(GroupSpec(9, 3)) == 3
        assert verify_case("sl8-mu2").computed_index == 2
        assert built == []
        assert generator_table(GroupSpec(9, 3)).gcd == 3
        assert built.count("TableRow") == 31

    def test_headline_values(self):
        assert image_index(GroupSpec(8, 2)) == 2
        assert image_index(GroupSpec(9, 3)) == 3

    def test_trivial_quotient(self):
        assert image_index(GroupSpec(5, 1)) == 1

    def test_small_quotients(self):
        assert image_index(GroupSpec(4, 2)) == 2
        assert image_index(GroupSpec(6, 2)) == 4
        assert image_index(GroupSpec(6, 3)) == 3

    def test_index_divides_every_member_up_to_bound_two(self):
        for n, d in [(8, 2), (9, 3)]:
            spec = GroupSpec(n, d)
            idx = image_index(spec)
            for w in monoid_members_up_to(spec, 2):
                val = c2_closed_form(n, partition_of(w)).n_lambda
                assert val % idx == 0, (w, val)

    def test_gcd_invariant_under_redundant_generators(self):
        spec = GroupSpec(8, 2)
        table = generator_table(spec)
        values = [r.n_lambda for r in table.rows]
        rng = random.Random(11)
        basis = hilbert_basis(spec)
        for _ in range(25):
            a, b = rng.choice(basis), rng.choice(basis)
            combined = tuple(x + y for x, y in zip(a, b))
            values.append(c2_closed_form(8, partition_of(combined)).n_lambda)
        assert math.gcd(*values) == table.gcd


class TestVerifyCase:
    @pytest.mark.parametrize(
        "case_id,index,verdict",
        [
            ("sl4-mu2", 2, "holds"),
            ("sl6-mu2", 4, "holds"),
            ("sl6-mu3", 3, "holds"),
            ("sl8-mu2", 2, "counterexample"),
            ("sl9-mu3", 3, "counterexample"),
            ("pgl2", 4, "holds"),
            ("pgl3", 3, "holds"),
            ("pgl4", 8, "holds"),
            ("pgl5", 5, "holds"),
        ],
    )
    def test_known_cases(self, case_id, index, verdict):
        rep = verify_case(case_id)
        assert rep.computed_index == index
        assert rep.verdict == verdict
        assert rep.matches_expected

    @pytest.mark.parametrize("case_id,index", [("pgl6", 12), ("pgl7", 7)])
    def test_larger_projective_cases_closed_form(self, case_id, index):
        rep = verify_case(case_id)
        assert rep.computed_index == index
        assert rep.verdict == "holds"

    def test_unknown_case(self):
        with pytest.raises(ValueError):
            verify_case("sl12-mu4")

    def test_case_ids_cover_documented_set(self):
        assert set(CASES) == {
            "sl4-mu2", "sl6-mu2", "sl6-mu3", "sl8-mu2", "sl9-mu3",
            "pgl2", "pgl3", "pgl4", "pgl5", "pgl6", "pgl7",
        }


class TestH4Multiplier:
    # H^4(BG, Z) = Z . m c2, m as reference H^4 computations give it
    STORED = {
        "sl4-mu2": 2, "sl6-mu2": 4, "sl6-mu3": 3, "sl8-mu2": 1, "sl9-mu3": 1,
        "pgl2": 4, "pgl3": 3, "pgl4": 8, "pgl5": 5, "pgl6": 12, "pgl7": 7,
    }

    def test_formula_gives_the_stored_multipliers(self):
        assert {case: h4_multiplier(CASES[case].spec)
                for case in self.STORED} == self.STORED

    def test_index_is_a_multiple_and_differs_only_at_four_groups(self):
        # all 49 groups SL(n)/mu_d with d | n <= 16, SL(n) itself included
        groups = [GroupSpec(n, d) for n in range(2, 17)
                  for d in range(1, n + 1) if n % d == 0]
        assert len(groups) == 49
        ratios = {(g.n, g.d): divmod(image_index(g), h4_multiplier(g))
                  for g in groups}
        assert all(rest == 0 for _, rest in ratios.values())
        assert sorted(k for k, (q, _) in ratios.items() if q != 1) == [
            (8, 2), (9, 3), (16, 2), (16, 4)]

    def test_formula_is_the_lattice_multiplier_for_every_group_up_to_60(self):
        # a second route: the least multiple of the basic form that is
        # integral on the scaled cocharacter lattice, computed pair by pair
        groups = [GroupSpec(n, d) for n in range(2, 61)
                  for d in range(1, n + 1) if n % d == 0]
        assert len(groups) == 260
        assert [g for g in groups if h4_lattice_multiplier(g) != h4_multiplier(g)] == []


def _valuation(p: int, k: int) -> int:
    v = 0
    while k % p == 0:
        k, v = k // p, v + 1
    return v


class TestIndexFormula:
    """A tested hypothesis, not a certificate: the image index of
    SL(n)/mu_d is m * prod over primes p | d of p^e_p, with m the
    denominator of n(n - 1)/(2 d^2) and
    e_p = max(0, min(v_p(d), v_p(n/d) - [p = 2])).  src/ does not use it."""

    def test_formula_gives_the_row_gcd_for_every_group_up_to_20(self):
        groups = [GroupSpec(n, d) for n in range(2, 21)
                  for d in range(2, n + 1) if n % d == 0]
        assert len(groups) == 46
        mismatches = []
        for n, d in groups:
            predicted = Fraction(n * (n - 1), 2 * d * d).denominator
            for p in range(2, d + 1):
                if d % p == 0 and all(p % q for q in range(2, p)):
                    predicted *= p ** max(0, min(_valuation(p, d),
                                                 _valuation(p, n // d) - (p == 2)))
            rows = column_rows(n, generator_heights(GroupSpec(n, d)))
            index = math.gcd(*(value for _, value, _, _ in rows))
            if index != predicted:
                mismatches.append((n, d, index, predicted))
        assert mismatches == []


class TestExploreConjecture:
    def test_ell_three_reduces_to_the_sl9_case(self):
        rep = explore_conjecture(3)
        assert rep.spec == GroupSpec(9, 3)
        assert rep.basis_size == 31
        assert rep.image_index == 3
        assert rep.matches_ell
        assert rep.all_rows_divisible
        assert rep.duality_invariant

    @pytest.mark.parametrize("ell, checked", [(3, 27), (5, 6)])
    def test_rows_under_the_ceiling_are_cross_checked(self, monkeypatch, ell,
                                                       checked):
        # each row whose dimension is at most the ceiling, and only those
        real = chern_mod._jacobi_trudi
        shapes = []
        monkeypatch.setattr(chern_mod, "_jacobi_trudi",
                            lambda n, lam: shapes.append(lam) or real(n, lam))
        explore_conjecture(ell)
        assert len(shapes) == len(set(shapes)) == checked
        n = ell * ell
        dims = {c2_closed_form(n, lam).dim for lam in shapes}
        assert max(dims) <= CROSS_CHECK_CEILING

    def test_closed_form_rows_validate_their_partition_at_most_twice(
        self, monkeypatch
    ):
        # The rows are the column heights of the basis search, so no
        # partition is built or validated; two per row is the bound.
        original = partitions_mod.partition
        calls = 0

        def counting(parts):
            nonlocal calls
            calls += 1
            return original(parts)

        patched = [
            name for name, mod in list(sys.modules.items())
            if name.split(".")[0] == "schern"
            and getattr(mod, "partition", None) is original
        ]
        for name in patched:
            monkeypatch.setattr(sys.modules[name], "partition", counting)
        assert "schern.partitions" in patched and "schern.chern" in patched
        rows = explore_conjecture(5).basis_size
        assert rows == 1558
        assert calls <= 2 * rows

    def test_ell_five_agrees_with_the_closed_form_over_the_weights(self):
        # the partition round trip the search heights replace, as an oracle
        basis = hilbert_basis(GroupSpec(25, 5))
        index_of = {w: c2_closed_form(25, partition_of(w)).n_lambda
                    for w in basis}
        rep = explore_conjecture(5)
        assert rep.basis_size == len(basis) == 1558
        assert rep.image_index == math.gcd(*index_of.values()) == 5
        assert rep.all_rows_divisible == all(
            v % 5 == 0 for v in index_of.values()
        )
        assert rep.duality_invariant == all(
            index_of.get(dual_weight(w)) == v for w, v in index_of.items()
        )

    def test_row_disagreeing_with_its_dual_row_breaks_duality(self, monkeypatch):
        real = tables_mod.column_rows

        def skewed(n, rows):
            # lam = (1,1,1); dual (6,) keeps its value 21
            return ((heights, value + 3, *rest) if heights == (3,)
                    else (heights, value, *rest)
                    for heights, value, *rest in real(n, rows))

        monkeypatch.setattr(tables_mod, "column_rows", skewed)
        rep = explore_conjecture(3)
        assert rep.image_index == 3 and rep.all_rows_divisible
        assert not rep.duality_invariant

    def test_missing_dual_row_breaks_duality(self, monkeypatch):
        real = tables_mod.generator_heights
        gone = (3,)  # lam = (1,1,1); its dual (6,) stays
        monkeypatch.setattr(
            tables_mod, "generator_heights",
            lambda spec: [h for h in real(spec) if h != gone],
        )
        rep = explore_conjecture(3)
        assert rep.basis_size == 30
        assert not rep.duality_invariant

    def test_rejects_two(self):
        with pytest.raises(ValueError):
            explore_conjecture(2)

    def test_rejects_composites(self):
        with pytest.raises(ValueError):
            explore_conjecture(9)

    def test_rejects_above_ceiling(self):
        with pytest.raises(ValueError):
            explore_conjecture(11)
