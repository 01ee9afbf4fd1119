"""Generator tables for SL(n)/mu_d and the gcd of their c2 indices.

The image of the second Chern class map on representations of G = SL(n)/mu_d
is the subgroup of Z.c2 generated by the indices n_lam of a generating set of
the representation ring.  Sums and tensor products only produce integer
combinations of existing indices (first Chern classes vanish), so the gcd
over the monoid generators equals the gcd over all descending weights.

CASES is the one registry of bundled cases: each names its group, its
expected image index and, for SL(8)/mu_2 and SL(9)/mu_3, the printed
reference table as plain data.  :func:`generator_table` recomputes every
row and flags disagreements instead of silently trusting either side.
Every index comes from one :func:`chern.column_rows` stream over column
heights, each row carrying its own, with c2's cross-check and no cache:
the determinant itself checks every row under the ceiling.  Only printed
tables build weights or keep rows.
"""
from collections import namedtuple
from functools import reduce
from math import gcd

from .chern import column_rows
from .partitions import InputError, InvariantError, Partition, integer
from .weights import GroupSpec, generator_heights, partition_of, weight_of


# weight: Weight, partition: Partition, n_lambda: int, flagged: bool,
# cross_checked: bool, reference_value: int | None
TableRow = namedtuple("TableRow", "weight partition n_lambda flagged "
                      "cross_checked reference_value")

# spec: GroupSpec, rows: tuple[TableRow, ...], gcd: int
GeneratorTable = namedtuple("GeneratorTable", "spec rows gcd")


# spec: GroupSpec, expected_gcd: int, reference: the printed rows, if any
Case = namedtuple("Case", "spec expected_gcd reference", defaults=((),))
CaseReport = namedtuple("CaseReport", "case_id spec computed_index expected_gcd "
                        "h4_multiplier verdict matches_expected source")
ConjectureReport = namedtuple("ConjectureReport", "ell spec basis_size image_index "
                              "matches_ell all_rows_divisible duality_invariant")


def h4_multiplier(spec: GroupSpec) -> int:
    """The m with H^4(BG, Z) = Z . m c2 for G = SL(n)/mu_d: the denominator
    of n(n - 1)/(2 d^2), the least multiple of the basic form that is
    integral on the cocharacter lattice, the coroot lattice plus
    (n/d) omega_1 (A. Henriques, The classification of chiral WZW models by
    H^4_+(BG, Z)).  The image of c2 holds all of H^4 exactly when the
    image index equals m."""
    n, den = spec.n, 2 * spec.d * spec.d
    return den // gcd(n * (n - 1), den)


# Each bundled case: its group, its expected image index and, for the two
# counterexamples, the printed reference table.  Reference rows are
# (weight, partition, printed index), lex sorted by weight.  Two printed
# entries, (2) for SL(8)/mu_2 and (3) for SL(9)/mu_3, disagree with their
# own dual rows (2^7) and (3^8); duals always share an index, so the
# recomputation flags those rows and reports the dual value.
CASES: dict[str, Case] = {
    "sl4-mu2": Case(GroupSpec(4, 2), 2),
    "sl6-mu2": Case(GroupSpec(6, 2), 4),
    "sl6-mu3": Case(GroupSpec(6, 3), 3),
    "sl8-mu2": Case(GroupSpec(8, 2), 2, reference=(
        ((0, 0, 0, 0, 0, 0, 2), (2, 2, 2, 2, 2, 2, 2), 10),
        ((0, 0, 0, 0, 0, 1, 0), (1, 1, 1, 1, 1, 1), 6),
        ((0, 0, 0, 0, 1, 0, 1), (2, 2, 2, 2, 2, 1, 1), 156),
        ((0, 0, 0, 0, 2, 0, 0), (2, 2, 2, 2, 2), 700),
        ((0, 0, 0, 1, 0, 0, 0), (1, 1, 1, 1), 20),
        ((0, 0, 1, 0, 0, 0, 1), (2, 2, 2, 1, 1, 1, 1), 170),
        ((0, 0, 1, 0, 1, 0, 0), (2, 2, 2, 1, 1), 1344),
        ((0, 0, 2, 0, 0, 0, 0), (2, 2, 2), 700),
        ((0, 1, 0, 0, 0, 0, 0), (1, 1), 6),
        ((1, 0, 0, 0, 0, 0, 1), (2, 1, 1, 1, 1, 1, 1), 16),
        ((1, 0, 0, 0, 1, 0, 0), (2, 1, 1, 1, 1), 170),
        ((1, 0, 1, 0, 0, 0, 0), (2, 1, 1), 156),
        ((2, 0, 0, 0, 0, 0, 0), (2,), 16),
    )),
    "sl9-mu3": Case(GroupSpec(9, 3), 3, reference=(
        ((0, 0, 0, 0, 0, 0, 0, 3), (3, 3, 3, 3, 3, 3, 3, 3), 66),
        ((0, 0, 0, 0, 0, 0, 1, 1), (2, 2, 2, 2, 2, 2, 2, 1), 78),
        ((0, 0, 0, 0, 0, 0, 3, 0), (3, 3, 3, 3, 3, 3, 3), 3465),
        ((0, 0, 0, 0, 0, 1, 0, 0), (1, 1, 1, 1, 1, 1), 21),
        ((0, 0, 0, 0, 1, 0, 1, 0), (2, 2, 2, 2, 2, 1, 1), 1701),
        ((0, 0, 0, 0, 2, 0, 0, 1), (3, 3, 3, 3, 3, 1, 1, 1), 29106),
        ((0, 0, 0, 0, 3, 0, 0, 0), (3, 3, 3, 3, 3), 116424),
        ((0, 0, 0, 1, 0, 0, 0, 1), (2, 2, 2, 2, 1, 1, 1, 1), 420),
        ((0, 0, 0, 1, 1, 0, 0, 0), (2, 2, 2, 2, 1), 5292),
        ((0, 0, 0, 2, 0, 0, 1, 0), (3, 3, 3, 3, 1, 1, 1), 117810),
        ((0, 0, 0, 3, 0, 0, 0, 0), (3, 3, 3, 3), 116424),
        ((0, 0, 1, 0, 0, 0, 0, 0), (1, 1, 1), 21),
        ((0, 1, 0, 0, 0, 0, 1, 0), (2, 2, 1, 1, 1, 1, 1), 486),
        ((0, 1, 0, 1, 0, 0, 0, 0), (2, 2, 1, 1), 1701),
        ((0, 2, 0, 0, 0, 0, 0, 1), (3, 3, 1, 1, 1, 1, 1, 1), 2541),
        ((0, 2, 0, 0, 1, 0, 0, 0), (3, 3, 1, 1, 1), 37125),
        ((0, 3, 0, 0, 0, 0, 0, 0), (3, 3), 3465),
        ((1, 0, 0, 0, 0, 0, 0, 1), (2, 1, 1, 1, 1, 1, 1, 1), 18),
        ((1, 0, 0, 0, 1, 0, 0, 0), (2, 1, 1, 1, 1), 420),
        ((1, 1, 0, 0, 0, 0, 0, 0), (2, 1), 78),
        ((2, 0, 0, 0, 0, 0, 1, 0), (3, 1, 1, 1, 1, 1, 1), 693),
        ((2, 0, 0, 1, 0, 0, 0, 0), (3, 1, 1, 1), 2541),
        ((3, 0, 0, 0, 0, 0, 0, 0), (3,), 165),
    )),
}
# For PGL(n) the expected index is the multiplier.
for _n in range(2, 8):
    _spec = GroupSpec(_n, _n)
    CASES[f"pgl{_n}"] = Case(_spec, h4_multiplier(_spec))

# The printed index of each reference row, by group then weight.
_PRINTED = {c.spec: {w: v for w, _, v in c.reference}
            for c in CASES.values() if c.reference}


def _compute_table(spec: GroupSpec, heights: list[Partition]) -> GeneratorTable:
    printed = _PRINTED.get(spec, {})
    rows = []
    for h, value, checked, _ in column_rows(spec.n, heights):
        w = weight_of(spec.n, h)
        flag = w in printed and printed[w] != value
        rows.append(TableRow(w, partition_of(w), value, flag, checked, printed.get(w)))
    rows.sort(key=lambda r: r.weight)
    return GeneratorTable(spec, tuple(rows), gcd(*(r.n_lambda for r in rows)))


def generator_table(spec: GroupSpec) -> GeneratorTable:
    """Index table over the minimal generating set of the descent monoid,
    lex sorted by weight.

    A row is flagged when a bundled reference value exists for its weight and
    disagrees with the recomputation.  A row whose cross-check fails raises
    its CrossCheckError, so no table, and no gcd, is returned.  The rows come
    from one :func:`column_rows` stream.
    """
    return _compute_table(spec, generator_heights(spec))


def table_against_reference(case_id: str) -> GeneratorTable:
    """Recompute exactly the printed rows of a bundled case,
    ``CASES[case_id].reference``.

    This is a diff against the bundled reference rows, not a re-derivation of the
    generating set; use :func:`generator_table` for the full minimal basis.
    """
    case = CASES.get(case_id)
    if case is None or not case.reference:
        known = sorted(k for k, c in CASES.items() if c.reference)
        raise InputError(f"unknown table {case_id!r}; known: {known}")
    # a_i columns of height i, tallest first
    heights = [tuple(i for i in range(len(w), 0, -1) for _ in range(w[i - 1]))
               for w, _, _ in case.reference]
    return _compute_table(case.spec, heights)


def image_index(spec: GroupSpec) -> int:
    """gcd of the indices n_lam over the generating set: the image of the
    degree-2 Chern class map is this multiple of c2, a running gcd over the
    rows as they stream: no row is kept, nor any weight or partition."""
    rows = column_rows(spec.n, generator_heights(spec))
    return reduce(gcd, (value for _, value, _, _ in rows), 0)


def verify_case(case_id: str) -> CaseReport:
    """Compare the computed image index against a stored expectation and
    against the H^4 multiplier of the case's group."""
    if case_id not in CASES:
        raise InputError(f"unknown case {case_id!r}; known: {sorted(CASES)}")
    spec, expected, _ = CASES[case_id]
    n, d = spec.n, spec.d
    idx, mult = image_index(spec), h4_multiplier(spec)
    if idx % mult:
        raise InvariantError(
            f"index {idx} is not a multiple of the H^4 generator "
            f"{mult} for {case_id}; table data or engine broken"
        )
    group = f"BPGL({n})" if d == n else f"B(SL({n})/mu_{d})"
    return CaseReport(
        case_id=case_id,
        spec=spec,
        computed_index=idx,
        expected_gcd=expected,
        h4_multiplier=mult,
        verdict="holds" if idx == mult else "counterexample",
        matches_expected=idx == expected,
        source=f"reference H^4 computation for {group}",
    )


# ell = 11 has 83,907,107 generators, far beyond a closed form per row.
MAX_CONJECTURE_ELL = 7


def explore_conjecture(ell: int) -> ConjectureReport:
    """Image index of SL(ell^2)/mu_ell.

    Every generator's index, cross-checked as in :func:`image_index`, is
    kept in one dict by heights and looked up against its dual row, whose
    heights are n - h reversed.  Reports whether the computed gcd equals
    ell; it never asserts that it must.  Only odd primes up to
    MAX_CONJECTURE_ELL are accepted: for ell = 2 the relevant quotients are
    already settled, and composite ell is outside the pattern probed.
    Trial division stops at the ceiling: an ell below 3 or with a factor up
    to it is not an odd prime, and any other ell above it exceeds the
    ceiling, prime or not, so no ell takes long to refuse.
    """
    ell = integer(ell, "ell", None)
    if ell < 3 or any(ell % p == 0
                      for p in range(2, min(ell, MAX_CONJECTURE_ELL + 1))):
        raise InputError(f"ell must be an odd prime, got {ell}")
    if ell > MAX_CONJECTURE_ELL:
        raise InputError(f"ell={ell} exceeds the ceiling {MAX_CONJECTURE_ELL}")
    spec = GroupSpec(ell * ell, ell)
    n = spec.n
    heights = generator_heights(spec)
    index_of = {h: value for h, value, _, _ in column_rows(n, heights)}
    duality_ok = all(index_of.get(tuple([n - c for c in h[::-1]])) == value
                     for h, value in index_of.items())
    g = reduce(gcd, index_of.values(), 0)
    # ell divides every row exactly when it divides their gcd
    return ConjectureReport(ell, spec, len(heights), g, g == ell, g % ell == 0, duality_ok)
