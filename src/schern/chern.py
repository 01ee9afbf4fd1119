"""Second Chern class indices of irreducible SL(n) representations.

For an irreducible of highest weight lam, c2 of the associated bundle is an
integer multiple n_lam of the second Chern class of the defining
representation (first Chern classes vanish on SL(n)).  Three routes compute
n_lam:

* closed form: dimension times Casimir eigenvalue divided by n^2 - 1, both
  taken in one loop over the lines of lam, its rows or its column heights.
  :func:`c2_closed_form` and :func:`schur_dimension` run it on the shorter
  side of one shape, so the longer side is never walked;
  :func:`column_indices` runs it on a batch of generator rows by the column
  heights that the basis search yields (at most d, by the Davenport bound);
* sub-shape sum: group the tableaux by the two-row sub-shape nu that their
  entries 1 and 2 fill, and count the fillings of lam/nu by entries 3..n
  with a Jacobi-Trudi determinant (Macdonald, Symmetric Functions and Hall
  Polynomials, I.5) over the shorter side of lam: the column (dual) form in
  elementary symmetric functions for a generator, the row form in complete
  ones for a wide shape; it never touches the Casimir;
* enumeration: stream every semistandard tableau content and read off the
  quadratic part of the splitting-principle product modulo (x1+...+xn).

The front door :func:`c2` runs the closed form and, while the dimension is
at most CROSS_CHECK_CEILING, recomputes the index by the sub-shape sum as a
cross-check; it alone decides whether an index was cross-checked.
Enumeration costs time linear in the dimension; no command reaches it, and
it serves the tests as an oracle.  No route leaves the integers: the
closed form divides n times the Casimir eigenvalue exactly.
"""
import math
from collections import namedtuple
from collections.abc import Iterable

from .partitions import (
    InputError,
    InvariantError,
    Partition,
    _conjugate,
    _shorter_side,
    partition,
    ssyt_stream,
)

# Dimension up to which c2 recomputes the index by the sub-shape sum.
CROSS_CHECK_CEILING = 100_000


class CrossCheckError(Exception):
    def __init__(self, n: int, lam: Partition, closed: int, subshape: int):
        self.n = n
        self.lam = lam
        self.closed = closed
        self.subshape = subshape
        super().__init__(
            f"methods disagree for n={n} lam={lam}: "
            f"closed form {closed}, sub-shape sum {subshape}"
        )


# n_lambda: int, cross_checked: bool (by the sub-shape sum), dim: int
ChernResult = namedtuple("ChernResult", "n_lambda cross_checked dim")


def reduce_full_columns(n: int, lam: Partition) -> Partition:
    """Canonical lam, checked to be an SL(n) highest weight (n positive, at
    most n rows), less its determinant factors: lam_n off every part."""
    if n < 1:
        raise InputError(f"n must be positive, got {n}")
    lam = partition(lam)
    if len(lam) > n:
        raise InputError(f"partition {lam} has more than n={n} rows")
    if len(lam) == n and lam[-1] > 0:
        lam = partition(p - lam[-1] for p in lam)
    return lam


def _line_indices(n: int, batch: Iterable[Partition],
                  by_columns: bool) -> list[tuple[int, int]]:
    """(n_lam, dim) of each shape in ``batch``, each given by its column
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
    values = []
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
        values.append((value, dim))
    return values


def c2_closed_form(n: int, lam: Partition) -> ChernResult:
    """n_lam = dim * casimir / (n^2 - 1), computed as the integer quotient
    dim * (n * casimir) / (n * (n^2 - 1)) over the shorter side of the
    reduced lam; the division is always exact."""
    lines, by_columns = _shorter_side(reduce_full_columns(n, lam))
    (value, dim), = _line_indices(n, [lines], by_columns)
    return ChernResult(value, False, dim)


def column_indices(n: int, rows: Iterable[Partition]) -> list[int]:
    """Closed-form n_lam of each shape in ``rows``, each given by its column
    heights, all below n: the generator rows of the basis search, in one
    batch, so each line count builds its tables once."""
    return [value for value, _ in _line_indices(n, rows, True)]


def schur_dimension(n: int, lam: Partition) -> int:
    """Dimension of the irreducible GL(n) (equivalently SL(n)) module of shape lam.

    Returns 0 when lam has more than n rows.
    """
    if n < 1:
        raise InputError(f"n must be positive, got {n}")
    lam = partition(lam)
    if len(lam) > n:
        return 0
    lines, by_columns = _shorter_side(lam)
    (_, dim), = _line_indices(n, [lines], by_columns)
    return dim


def _bareiss_determinant(a: list[list[int]]) -> int:
    """Determinant of a square integer matrix by fraction-free (Bareiss)
    elimination; every division is exact, so no rationals appear.  The rows
    of ``a`` are overwritten."""
    size = len(a)
    sign, prev = 1, 1
    for k in range(size - 1):
        if a[k][k] == 0:
            swap = next((r for r in range(k + 1, size) if a[r][k]), None)
            if swap is None:
                return 0
            a[k], a[swap] = a[swap], a[k]
            sign = -sign
        pivot, row_k = a[k][k], a[k]
        for row in a[k + 1:]:
            lead = row[k]
            for j in range(k + 1, size):
                row[j] = (row[j] * pivot - lead * row_k[j]) // prev
        prev = pivot
    return sign * a[-1][-1] if size else 1


def _skew_count(outer: Partition, inner: tuple[int, ...], entry: list[int]) -> int:
    """Jacobi-Trudi determinant det[entry(outer_i - inner_j - i + j)] over
    len(outer) x len(outer), with inner padded by zeros and entry(k) = 0
    outside 0 <= k < len(entry)."""
    size = len(outer)
    inner = inner + (0,) * (size - len(inner))
    top = len(entry)
    return _bareiss_determinant([
        [entry[k] if 0 <= (k := outer[i] - inner[j] - i + j) < top else 0
         for j in range(size)]
        for i in range(size)
    ])


def c2_subshape(n: int, lam: Partition) -> int:
    """n_lam summed over the sub-shape nu that the entries 1 and 2 fill.

    The streaming sum over tableau contents, sum of m1 * (m1 - m2), depends
    only on the tableau's {1, 2} part: an SSYT of a shape nu within lam with
    at most two rows and m1 ones, one for each m1 in nu2..nu1.  Their terms
    m1 * (2 * m1 - nu1 - nu2) sum to C(nu1 - nu2 + 2, 3), which is zero when
    nu1 = nu2.  The entries 3..n fill lam/nu in s_{lam/nu}(1^(n-2)) ways,
    zero when lam/nu has a column taller than n - 2, so nu1 starts at
    lam_(n-1), the number of columns of height n - 1; that count is a
    Jacobi-Trudi determinant (Macdonald, Symmetric Functions and Hall
    Polynomials, I.5) over the shorter side of lam.  When lam has at most as
    many columns as rows, that is the column (dual) form
    det[e(lam'_i - nu'_j - i + j)] over lam_1 x lam_1, with
    nu' = (2^nu2, 1^(nu1 - nu2)) and e(k) = e_k(1^(n-2)) = C(n - 2, k);
    otherwise the row form det[h(lam_i - nu_j - i + j)] over
    len(lam) x len(lam), with h(k) = h_k(1^(n-2)) = C(n - 3 + k, k).  A
    generator has few columns and a symmetric power one row, so both stay
    small.  Exact integer arithmetic throughout; neither the Casimir nor the
    tableaux are used.
    """
    outer, by_columns = _shorter_side(reduce_full_columns(n, lam))
    m = n - 2
    if by_columns:
        # lam_1, lam_2 and lam_(n-1) count the columns of heights >= 1,
        # >= 2 and n - 1; e_k(1^m) = C(m, k); e_0 = 1 also when m = 0, and
        # e_k = 0 past m; the determinant reads no k past lam'_1 + lam_1
        lam1, lam2 = len(outer), sum(h > 1 for h in outer)
        tall = sum(h >= n - 1 for h in outer)
        entry = [math.comb(m, k) for k in range(min(m, outer[0] + lam1) + 1)]
    else:
        # h_k(1^m) = C(m + k - 1, k); h_0 = 1 also when m = 0, and every
        # later h_k is then 0, so the tail is built only when m > 0
        lam1, lam2 = (outer + (0, 0))[:2]
        tall = outer[n - 2] if 0 <= n - 2 < len(outer) else 0
        top = lam1 + len(outer) if m > 0 else 1
        entry = [1] + [math.comb(m + k - 1, k) for k in range(1, top)]
    total = 0
    for nu1 in range(max(1, tall), lam1 + 1):
        for nu2 in range(min(nu1 - 1, lam2) + 1):  # nu2 = nu1 weighs 0
            inner = (2,) * nu2 + (1,) * (nu1 - nu2) if by_columns else (nu1, nu2)
            total += math.comb(nu1 - nu2 + 2, 3) * _skew_count(outer, inner, entry)
    return total


def c2_enumeration(n: int, lam: Partition) -> ChernResult:
    """Splitting principle over tableau contents.

    Each tableau contributes a Chern root with multiplicities m = content;
    the product of (1 + m.x) truncated at degree 2, reduced modulo the
    vanishing first Chern class, has e2-coefficient
    sum over tableaux of m1^2 - m1*m2.
    """
    lam = reduce_full_columns(n, lam)
    dim = schur_dimension(n, lam)
    total = 0
    for c in ssyt_stream(n, lam):
        m1 = c[0]
        if m1:
            total += m1 * (m1 - c[1])
    return ChernResult(total, False, dim)


def c2(n: int, lam: Partition, *, subshape: int | None = None) -> ChernResult:
    """Front door: the closed form, cross-checked by the sub-shape sum when
    the dimension is at most CROSS_CHECK_CEILING; a disagreement raises
    CrossCheckError.

    ``subshape`` is a sum recorded earlier for (n, lam).  It stands in for
    the sub-shape sum only when the dimension is at most the ceiling and it
    equals the closed form; any other value is ignored and the sum runs.
    """
    closed = c2_closed_form(n, lam)
    if closed.dim > CROSS_CHECK_CEILING:
        return closed
    checked = subshape if subshape == closed.n_lambda else c2_subshape(n, lam)
    if checked != closed.n_lambda:
        raise CrossCheckError(n, partition(lam), closed.n_lambda, checked)
    return ChernResult(closed.n_lambda, True, closed.dim)
