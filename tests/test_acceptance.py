"""End-to-end acceptance gate.

Every test here states an externally checkable promise of the package:
the two certified image indices, reproduction of the bundled reference
tables, the small closed-form values, oracle agreement on a seeded
sample, the combinatorial identities, the generating-set contracts, and
the prime-5 exploration.  Budgets are wall-clock seconds measured on one
core.
"""
import math
import random
import time
from fractions import Fraction
from functools import lru_cache

import pytest

from oracles import casimir, dual_partition, ssyt_count
from schern import (
    CASES,
    GroupSpec,
    c2,
    c2_closed_form,
    explore_conjecture,
    generator_table,
    hilbert_basis,
    schur_dimension,
    table_against_reference,
)
from schern.chern import c2_enumeration
from schern.cli import run
from schern.weights import is_monoid_irreducible

CROSS_CHECK_BOUND = 100_000


def cli(capsys, *argv):
    code = run(list(argv))
    return code, capsys.readouterr().out


@lru_cache(maxsize=None)
def oracle_sample(count=200, seed=20260825):
    """Seeded (n, partition) pairs with n <= 9, size <= 8, dim <= 1e5."""
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        n = rng.randint(2, 9)
        k = rng.randint(1, min(n, 8))
        lam = tuple(sorted((rng.randint(1, 4) for _ in range(k)), reverse=True))
        if sum(lam) > 8:
            continue
        if not 0 < schur_dimension(n, lam) <= CROSS_CHECK_BOUND:
            continue
        out.append((n, lam))
    return tuple(out)


# 1. certified image indices through the CLI ------------------------------

@pytest.mark.parametrize("n,d,expected", [(8, 2, "2\n"), (9, 3, "3\n")])
def test_image_index_certificate(capsys, n, d, expected):
    t0 = time.perf_counter()
    code, out = cli(capsys, "image-index", str(n), str(d), "--no-cache")
    elapsed = time.perf_counter() - t0
    assert code == 0
    assert out == expected
    assert elapsed < 60


@pytest.mark.parametrize("n,d", [(8, 2), (9, 3)])
def test_index_rows_cross_checked_when_small(n, d):
    table = generator_table(GroupSpec(n, d))
    for row in table.rows:
        assert row.n_lambda is not None
        if schur_dimension(n, row.partition) <= CROSS_CHECK_BOUND:
            assert row.cross_checked


# 2. reference table reproduction -----------------------------------------

@pytest.mark.parametrize(
    "case_id,rows,flagged_weight,computed,printed",
    [
        ("sl8-mu2", 13, (2, 0, 0, 0, 0, 0, 0), 10, 16),
        ("sl9-mu3", 23, (3, 0, 0, 0, 0, 0, 0, 0), 66, 165),
    ],
)
def test_reference_table_reproduction(case_id, rows, flagged_weight, computed, printed):
    table = table_against_reference(case_id)
    assert len(table.rows) == rows
    flagged = [r for r in table.rows if r.flagged]
    assert [(r.weight, r.n_lambda, r.reference_value) for r in flagged] == [
        (flagged_weight, computed, printed)
    ]
    for r in table.rows:
        if not r.flagged:
            assert r.n_lambda == r.reference_value
    # the recomputed value matches the printed value of the dual row
    ref = {w: v for w, _, v in CASES[case_id].reference}
    dual = tuple(reversed(flagged_weight))
    assert ref[dual] == computed


# 3. small closed-form values ---------------------------------------------

def test_small_index_values():
    assert c2(4, (1, 1)).n_lambda == 2
    assert c2(6, (1, 1)).n_lambda == 4
    assert c2(6, (1, 1, 1)).n_lambda == 6
    assert c2(6, (2, 1)).n_lambda == 33


@pytest.mark.parametrize("n", range(4, 10))
def test_adjoint_index_is_2n(n):
    adjoint = (2,) + (1,) * (n - 2)
    assert c2(n, adjoint).n_lambda == 2 * n


# 4. oracle equivalence on a seeded sample --------------------------------

def test_enumeration_matches_closed_form_on_sample():
    for n, lam in oracle_sample():
        assert c2_enumeration(n, lam).n_lambda == c2_closed_form(n, lam).n_lambda


def test_duality_on_sample():
    for n, lam in oracle_sample():
        dual = dual_partition(n, lam)
        assert c2_closed_form(n, dual).n_lambda == c2_closed_form(n, lam).n_lambda


# 5. combinatorial oracles -------------------------------------------------

def test_tableau_count_equals_dimension_on_sample():
    for n, lam in oracle_sample():
        assert ssyt_count(n, lam) == schur_dimension(n, lam)


def test_exterior_power_identity():
    for n in range(2, 11):
        for k in range(1, n):
            assert c2(n, (1,) * k).n_lambda == math.comb(n - 2, k - 1)


# 6. generating-set contracts ---------------------------------------------

def test_generating_set_8_2_is_the_13_reference_weights():
    basis = hilbert_basis(GroupSpec(8, 2))
    ref = {w for w, _, _ in CASES["sl8-mu2"].reference}
    assert len(basis) == 13
    assert set(basis) == ref


def test_generating_set_9_3_is_the_23_reference_weights():
    # The bundled 23-row table omits eight irreducible weights (see
    # tests/test_weights.py for the full 31-element set and the proof
    # obligations); this strict form is kept as the stated contract and
    # is expected to fail until the reference table itself is amended.
    basis = hilbert_basis(GroupSpec(9, 3))
    ref = {w for w, _, _ in CASES["sl9-mu3"].reference}
    assert len(basis) == 23
    assert set(basis) == ref


@pytest.mark.parametrize("n,d", [(8, 2), (9, 3)])
def test_generating_set_minimal_by_exhaustive_splitting(n, d):
    spec = GroupSpec(n, d)
    for w in hilbert_basis(spec):
        assert is_monoid_irreducible(w, d)


def test_token_bound_on_random_monoid_elements():
    """Irreducible elements carry at most d tokens: sum of coefficients
    weighted by nothing exceeds d only for decomposable weights."""
    rng = random.Random(97)
    checked = 0
    while checked < 1000:
        n = rng.choice([4, 6, 8, 9])
        d = rng.choice([q for q in (2, 3) if n % q == 0])
        w = tuple(rng.randint(0, 3) for _ in range(n - 1))
        if sum((i + 1) * a for i, a in enumerate(w)) % d or not any(w):
            continue
        if is_monoid_irreducible(w, d):
            assert sum(w) <= d
        checked += 1


# 7. prime-5 exploration ---------------------------------------------------

def test_prime_five_scan_completes_and_reports():
    t0 = time.perf_counter()
    report = explore_conjecture(5)
    elapsed = time.perf_counter() - t0
    assert elapsed < 1800
    assert report.image_index >= 1  # reported, not asserted against a target
    assert report.duality_invariant
    assert report.basis_size == len(hilbert_basis(GroupSpec(25, 5)))


# guard: the values above assume this exact arithmetic backbone ------------

def test_fraction_backbone_suffers_no_rounding():
    assert casimir(8, (2,)) == Fraction(35, 2)
    assert casimir(9, (3, 3, 3, 3, 3)) == 80
