"""Second Chern class indices of irreducible SL(n) representations.

For an irreducible of highest weight lam, c2 of the associated bundle is an
integer multiple n_lam of the second Chern class of the defining
representation (first Chern classes vanish on SL(n)).  Three routes compute
n_lam:

* closed form: dimension times Casimir eigenvalue divided by n^2 - 1, both
  taken in one loop over the lines of lam, its rows or its column heights.
  :func:`c2` and the unchecked :func:`c2_closed_form` run it on the shorter
  side of one shape, so the longer side is never walked;
  :func:`column_rows` streams it over the generator rows by the column
  heights that the basis search yields (at most d, by the Davenport bound);
* determinant: one Jacobi-Trudi determinant over the shorter side of lam
  with entries in Z[eps]/(eps^2), the elementary or complete symmetric
  functions at diag(e^s, e^-s, 1, ..., 1) with eps = s^2; its integer part
  is the dimension and its eps part n_lam, and it never touches the hook
  content formula or the Casimir;
* enumeration: stream every semistandard tableau content and read off the
  quadratic part of the splitting-principle product modulo (x1+...+xn).

The front door :func:`c2`, one shape, and :func:`column_rows`, a lazy
stream of plain (n_lam, cross_checked, dim) tuples, both run the closed form
and one private rule, :func:`_settle`, which alone cross-checks by the
determinant while the dimension is at most CROSS_CHECK_CEILING and alone
reads and writes, under that ceiling only, the records of a cache it is
handed; :func:`schur_dimension` is c2's dimension.  Only the single-shape
routes build a ChernResult.  Enumeration costs time linear in the
dimension; no command reaches it, and it serves the tests as an oracle.
No route leaves the integers: the closed form divides n times the Casimir
eigenvalue exactly, and the determinant only by pivots whose integer part
is a dimension.
"""
import math
from collections import namedtuple
from collections.abc import Iterable, Iterator

from .partitions import (
    InputError,
    InvariantError,
    Partition,
    _conjugate,
    _shorter_side,
    integer,
    partition,
    ssyt_stream,
)

# Dimension up to which c2 recomputes the index and the dimension by the
# Jacobi-Trudi determinant.
CROSS_CHECK_CEILING = 100_000


class CrossCheckError(Exception):
    def __init__(self, n: int, lam: Partition, closed: tuple[int, int],
                 determinant: tuple[int, int]):
        # (n_lam, dim) by each route
        self.n = n
        self.lam = lam
        self.closed = closed
        self.determinant = determinant
        super().__init__(
            f"methods disagree for n={n} lam={lam}: (n_lam, dim) is "
            f"{closed} by the closed form, {determinant} by the dual-number "
            "Jacobi-Trudi determinant"
        )


# n_lambda: int, cross_checked: bool (by the determinant), dim: int
ChernResult = namedtuple("ChernResult", "n_lambda cross_checked dim")


def reduce_full_columns(n: int, lam: Partition) -> Partition:
    """Canonical lam, checked to be an SL(n) highest weight (n a positive
    integer, at most n rows), less its determinant factors: lam_n off each."""
    n, lam = integer(n, "n"), partition(lam)
    if len(lam) > n:
        raise InputError(f"partition {lam} has more than n={n} rows")
    if len(lam) == n and lam[-1] > 0:
        lam = partition(p - lam[-1] for p in lam)
    return lam


def _line_indices(n: int, batch: Iterable[Partition],
                  by_columns: bool) -> Iterator[tuple[int, int]]:
    """Yield (n_lam, dim) of each shape in ``batch``, each given by its column
    heights (by_columns) or its rows l_0 >= l_1 >= ... >= l_(k-1), at most n
    rows; the one evaluation of the closed form
    n_lam = dim * casimir / (n^2 - 1).

    With m_j = l_j + k - 1 - j, the hook content formula reads
    dim = prod_(i<j) (m_i - m_j) * prod_j B(m_j) / E_k (Macdonald, Symmetric
    Functions and Hall Polynomials, I.1), where B(m) = C(n + k - 1, m) and
    E_k = prod_(i<k) perm(n + k - 1, i) for columns, B(m) = C(n - k + m, m)
    and E_k = prod_(i<k) perm(n - k + i, i) for rows.  The same pass sums
    |lam| and twice the content sum c: line j adds l_j (l_j - 1 - 2j),
    which is 2c for rows and -2c for columns, as conjugation negates every
    content.  n times the Casimir eigenvalue is then the integer
    n (n|lam| + 2c) - |lam|^2, and n_lam = dim * (n * casimir) /
    (n * (n^2 - 1)).  E_k is built once per line count k and each B(m) on
    first use, so a row costs k lookups and its Vandermonde product; the
    intermediate products grow with the square of k, so a generator's few
    columns and a symmetric power's one row are both cheap.  Both exact
    divisions are checked on every row.
    """
    # n = 1 leaves only the empty shape, whose numerator 0 needs no divisor
    den = n * (n * n - 1) or 1
    # B(m) = C(top + step * m, m) and E_k = prod perm(top + step * i, i)
    step, sign = (0, -1) if by_columns else (1, 1)
    tables = {}
    for lines in batch:
        k = len(lines)
        table = tables.get(k)
        if table is None:
            top = n + k - 1 if by_columns else n - k
            e_k = 1
            for i in range(k):
                e_k *= math.perm(top + step * i, i)
            table = tables[k] = {}, e_k, top
        binom, e_k, top = table
        num, vandermonde, size, twice_content, ms = 1, 1, 0, 0, []
        for j, p in enumerate(lines):
            m = p + k - 1 - j
            b = binom.get(m)
            if b is None:
                b = binom[m] = math.comb(top + step * m, m)
            num *= b
            for prev in ms:
                vandermonde *= prev - m
            ms.append(m)
            size += p
            twice_content += p * (p - 1 - 2 * j)
        dim, rest = divmod(num * vandermonde, e_k)
        if rest:
            raise InvariantError(
                f"hook content division is not exact for n={n} "
                f"lam={_conjugate(lines) if by_columns else lines}"
            )
        num = dim * (n * (n * size + sign * twice_content) - size * size)
        value, rest = divmod(num, den)
        if rest:
            g = math.gcd(num, den)
            raise InvariantError(
                f"non-integral index {num // g}/{den // g} for n={n} "
                f"lam={_conjugate(lines) if by_columns else lines}; "
                "formula misapplied"
            )
        yield value, dim


def c2_closed_form(n: int, lam: Partition) -> ChernResult:
    """n_lam = dim * casimir / (n^2 - 1), computed as the integer quotient
    dim * (n * casimir) / (n * (n^2 - 1)) over the shorter side of the
    reduced lam; the division is always exact.  Never cross-checked."""
    lines, by_columns = _shorter_side(reduce_full_columns(n, lam))
    (value, dim), = _line_indices(n, [lines], by_columns)
    return ChernResult(value, False, dim)


def _jacobi_trudi(n: int, lam: Partition) -> tuple[int, int]:
    """(n_lam, dim) of the reduced lam from one Jacobi-Trudi determinant
    over Z[eps]/(eps^2) (Macdonald, Symmetric Functions and Hall
    Polynomials, I.3).

    The character of lam at diag(e^s, e^-s, 1, ..., 1) is
    dim + n_lam s^2 + O(s^4): the weights mu of lam satisfy
    sum mult(mu) (mu_1 - mu_2)^2 = 2 n_lam.  With eps = s^2, the elementary
    and complete symmetric functions there are
    E(t) = C(n, t) + eps C(n - 2, t - 1) and
    H(t) = C(n + t - 1, t) + eps C(n + t, t - 1), both 0 for t < 0, so
    det[E(lam'_i - i + j)] over the k columns, or det[H(lam_i - i + j)] over
    the k rows, is dim + eps n_lam; k = min(rows, columns), by the shorter
    side, and each entry is computed on first use.  Bareiss elimination
    (Bareiss, Math. Comp. 22, 1968) keeps every intermediate a minor, since
    Sylvester's identity holds over any commutative ring: with no row
    exchange, the pivot after c steps is the leading (c + 1)-square minor,
    whose integer part p0 is the dimension of the shape made of the first
    c + 1 lines of lam, so positive, and dividing by p0 + eps p1 is exact:
    a0 / p0, then (a1 p0 - a0 p1) / p0^2.  A pivot p0 <= 0 or a remainder
    raises InvariantError.  Neither the hook content formula nor the Casimir
    is used.
    """
    lines, by_columns = _shorter_side(reduce_full_columns(n, lam))
    k = len(lines)
    if not k:
        return 0, 1
    entries = {}

    def entry(t: int) -> tuple[int, int]:
        value = entries.get(t)
        if value is None:
            if t <= 0:
                value = (int(t == 0), 0)
            elif by_columns:
                value = (math.comb(n, t), math.comb(n - 2, t - 1))
            else:
                value = (math.comb(n + t - 1, t), math.comb(n + t, t - 1))
            entries[t] = value
        return value

    rows = [[entry(p - i + j) for j in range(k)] for i, p in enumerate(lines)]
    a0 = [[e[0] for e in row] for row in rows]
    a1 = [[e[1] for e in row] for row in rows]
    q0, q1 = 1, 0
    for c in range(k - 1):
        top0, top1 = a0[c], a1[c]
        p0, p1 = top0[c], top1[c]
        if p0 <= 0:
            raise InvariantError(
                f"Jacobi-Trudi pivot {p0} is not positive for n={n} lam={lam}")
        for row0, row1 in zip(a0[c + 1:], a1[c + 1:]):
            l0, l1 = row0[c], row1[c]
            for j in range(c + 1, k):
                v0, r0 = divmod(row0[j] * p0 - l0 * top0[j], q0)
                v1, r1 = divmod(row1[j] * p0 + row0[j] * p1 - l1 * top0[j]
                                - l0 * top1[j] - v0 * q1, q0)
                if r0 or r1:
                    raise InvariantError(
                        f"Bareiss division is not exact for n={n} lam={lam}")
                row0[j], row1[j] = v0, v1
        q0, q1 = p0, p1
    return a1[-1][-1], a0[-1][-1]


def c2_enumeration(n: int, lam: Partition) -> ChernResult:
    """Splitting principle over tableau contents: each tableau contributes a
    Chern root with multiplicities m = content; the product of (1 + m.x)
    truncated at degree 2, reduced modulo the vanishing first Chern class,
    has e2-coefficient sum over tableaux of m1^2 - m1*m2.  The dimension is
    the tableau count, so neither part touches the closed form."""
    lam = reduce_full_columns(n, lam)
    total = dim = 0
    for c in ssyt_stream(n, lam):
        dim += 1
        m1 = c[0]
        if m1:
            total += m1 * (m1 - c[1])
    return ChernResult(total, False, dim)


def _settle(n: int, shapes: list[Partition], by_columns: bool,
            cache) -> Iterator[tuple[int, bool, int]]:
    """Yield (n_lam, cross_checked, dim) of each reduced shape in ``shapes``,
    given by its column heights (by_columns) or rows, by the closed form, and
    the one cross-check rule: while the dimension is at most
    CROSS_CHECK_CEILING, the Jacobi-Trudi determinant recomputes the index
    and the dimension, and a disagreement raises CrossCheckError as that row
    is drawn.  Only under the ceiling is lam built and ``cache`` consulted,
    any object with ``get(n, lam)`` and ``put(n, lam, index)`` keyed by the
    reduced lam: a record equal to the closed form stands in for the
    determinant, each index the determinant confirms is put, and the later
    record wins."""
    for lines, (value, dim) in zip(shapes, _line_indices(n, shapes, by_columns)):
        checked = dim <= CROSS_CHECK_CEILING
        if checked:
            lam = _conjugate(lines) if by_columns else lines
            if cache is None or cache.get(n, lam) != value:
                determinant = _jacobi_trudi(n, lam)
                if determinant != (value, dim):
                    raise CrossCheckError(n, lam, (value, dim), determinant)
                if cache is not None:
                    cache.put(n, lam, value)
        yield value, checked, dim


def column_rows(n: int, heights: list[Partition], cache=None) -> Iterator[tuple]:
    """Lazily, what :func:`c2` gives each shape in ``heights``, given by its
    column heights, all below n, as a plain (n_lam, cross_checked, dim)
    tuple, handed ``cache``: the generator rows of the basis search, in one
    pass, so each line count builds its tables once."""
    return _settle(n, heights, True, cache)


def c2(n: int, lam: Partition, *, cache=None) -> ChernResult:
    """Front door: the closed form over the shorter side of the reduced lam,
    settled by :func:`_settle`, handed ``cache``."""
    lines, by_columns = _shorter_side(reduce_full_columns(n, lam))
    return ChernResult(*next(_settle(n, [lines], by_columns, cache)))


def schur_dimension(n: int, lam: Partition) -> int:
    """Dimension of the irreducible GL(n) (equivalently SL(n)) module of
    shape lam, 0 when lam has more than n rows: else the dimension of
    :func:`c2`, cross-checked by the determinant up to the ceiling."""
    n, lam = integer(n, "n"), partition(lam)
    return 0 if len(lam) > n else c2(n, lam).dim
