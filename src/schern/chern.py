"""Second Chern class indices of irreducible SL(n) representations.

For an irreducible of highest weight lam, c2 of the associated bundle is an
integer multiple n_lam of the second Chern class of the defining
representation (first Chern classes vanish on SL(n)).  Three routes compute
n_lam:

* closed form: dimension times Casimir eigenvalue divided by n^2 - 1, from
  column heights that a generator row takes from the basis search (at most
  d, by the Davenport bound) and another shape from one conjugation of lam;
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
cross-check.  Enumeration costs time linear in the dimension; no command
reaches it, and it serves the tests as an oracle.  No route leaves the
integers: the closed form divides n times the Casimir eigenvalue exactly.
"""
import math
from typing import NamedTuple

from .partitions import (
    InputError,
    InvariantError,
    Partition,
    _conjugate,
    _hook_dimension,
    partition,
    schur_dimension,
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


class ChernResult(NamedTuple):
    n_lambda: int
    method: str
    cross_checked: bool
    dim: int


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


def _n_casimir(n: int, heights: Partition) -> int:
    """n times the Casimir eigenvalue of the partition with column heights
    c_1 >= c_2 >= ...: an integer.

    With |lam| = sum c_j, sum lam_i^2 = sum (2j - 1) c_j and
    sum i lam_i = sum c_j (c_j + 1) / 2, the row sum
    sum lam_i (lam_i + n + 1 - 2i) is (n + 1)|lam| + sum c_j (2j - 2 - c_j).
    """
    size = sum(heights)
    total = (n + 1) * size
    for j, c in enumerate(heights, start=1):
        total += c * (2 * j - 2 - c)
    return n * total - size * size


def c2_closed_form(n: int, lam: Partition) -> ChernResult:
    """n_lam = dim * casimir / (n^2 - 1), computed as the integer quotient
    dim * (n * casimir) / (n * (n^2 - 1)); the division is always exact."""
    lam = reduce_full_columns(n, lam)
    if not lam:
        return ChernResult(0, "closed-form", False, 1)
    heights = _conjugate(lam)
    dim = _hook_dimension(n, lam, heights)
    return ChernResult(_closed_form_index(n, heights, dim),
                       "closed-form", False, dim)


def _closed_form_index(n: int, heights: Partition, dim: int) -> int:
    """n_lam of the nonempty shape with these column heights (each < n)."""
    num, den = dim * _n_casimir(n, heights), n * (n * n - 1)
    value, rest = divmod(num, den)
    if rest:
        g = math.gcd(num, den)
        raise InvariantError(
            f"non-integral index {num // g}/{den // g} for n={n} "
            f"lam={_conjugate(heights)}; formula misapplied"
        )
    return value


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
    nu1 = nu2.  The entries 3..n fill lam/nu in s_{lam/nu}(1^(n-2)) ways, a
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
    lam = reduce_full_columns(n, lam)
    if not lam:
        return 0
    heights = _conjugate(lam)
    m = n - 2
    by_columns = len(heights) <= len(lam)
    if by_columns:
        # e_k(1^m) = C(m, k); e_0 = 1 also when m = 0, and e_k = 0 past m;
        # the determinant reads no k past heights[0] + len(heights)
        top = min(m, heights[0] + len(heights))
        outer, entry = heights, [math.comb(m, k) for k in range(top + 1)]
    else:
        # h_k(1^m) = C(m + k - 1, k); h_0 = 1 also when m = 0
        top = lam[0] + len(lam)
        outer, entry = lam, [1] + [math.comb(m + k - 1, k) for k in range(1, top)]
    lam2 = lam[1] if len(lam) > 1 else 0
    total = 0
    for nu1 in range(1, lam[0] + 1):
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
    return ChernResult(total, "enumeration", False, dim)


def c2(n: int, lam: Partition) -> ChernResult:
    """Front door: the closed form, cross-checked by the sub-shape sum when
    the dimension is at most CROSS_CHECK_CEILING; a disagreement raises
    CrossCheckError."""
    closed = c2_closed_form(n, lam)
    if closed.dim > CROSS_CHECK_CEILING:
        return closed
    checked = c2_subshape(n, lam)
    if checked != closed.n_lambda:
        raise CrossCheckError(n, partition(lam), closed.n_lambda, checked)
    return ChernResult(closed.n_lambda, "both", True, closed.dim)
