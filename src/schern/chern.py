"""Second Chern class indices of irreducible SL(n) representations.

For an irreducible of highest weight lam, c2 of the associated bundle is an
integer multiple n_lam of the second Chern class of the defining
representation (first Chern classes vanish on SL(n)).  Three routes compute
n_lam:

* closed form: dimension times Casimir eigenvalue divided by n^2 - 1;
* sub-shape sum: group the tableaux by the two-row sub-shape nu that their
  entries 1 and 2 fill, and count the fillings of lam/nu by entries 3..n
  with Jacobi-Trudi determinants; it never touches the Casimir;
* enumeration: stream every semistandard tableau content and read off the
  quadratic part of the splitting-principle product modulo (x1+...+xn).

The front door :func:`c2` runs the closed form and, while the dimension stays
under a configurable ceiling, recomputes the index by the sub-shape sum as a
cross-check.  Enumeration costs time linear in the dimension; it is reached
only by an explicit ``method="enumeration"`` and serves tests as an oracle.
"""
from __future__ import annotations

import math
from typing import TYPE_CHECKING, NamedTuple

from .partitions import Partition, partition, schur_dimension, ssyt_stream

if TYPE_CHECKING:
    from fractions import Fraction

DEFAULT_ENUMERATION_CEILING = 100_000

METHOD_ENUMERATION = "enumeration"
METHOD_CLOSED_FORM = "closed-form"
METHOD_BOTH = "both"


class EnumerationCeilingError(ValueError):
    """Dimension above the ceiling for enumeration or a demanded cross-check;
    use the closed form instead."""


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
    """Strip determinant factors: subtract lam_n from every part."""
    lam = partition(lam)
    if len(lam) > n:
        raise ValueError(f"partition {lam} has more than n={n} rows")
    if len(lam) == n and lam[-1] > 0:
        lam = partition(p - lam[-1] for p in lam)
    return lam


def dual_partition(n: int, lam: Partition) -> Partition:
    """Highest weight of the dual: complement of lam in a lam_1 x n box."""
    lam = partition(lam)
    if len(lam) > n:
        raise ValueError(f"partition {lam} has more than n={n} rows")
    if not lam:
        return ()
    padded = lam + (0,) * (n - len(lam))
    return partition(lam[0] - p for p in reversed(padded))


def _n_casimir(n: int, lam: Partition) -> int:
    """n times the Casimir eigenvalue of lam: an integer."""
    if len(lam) > n:
        raise ValueError(f"partition {lam} has more than n={n} rows")
    size = sum(lam)
    total = sum(p * (p + n + 1 - 2 * i) for i, p in enumerate(lam, start=1))
    return n * total - size * size


def casimir(n: int, lam: Partition) -> Fraction:
    """Casimir eigenvalue (lam, lam + 2 rho) in the normalization where the
    defining representation of SL(n) has eigenvalue (n^2 - 1) / n."""
    from fractions import Fraction

    return Fraction(_n_casimir(n, partition(lam)), n)


def c2_closed_form(n: int, lam: Partition) -> ChernResult:
    """n_lam = dim * casimir / (n^2 - 1), computed as the integer quotient
    dim * (n * casimir) / (n * (n^2 - 1)); the division is always exact."""
    lam = reduce_full_columns(n, lam)
    if not lam:
        return ChernResult(0, METHOD_CLOSED_FORM, False, 1)
    dim = schur_dimension(n, lam)
    num, den = dim * _n_casimir(n, lam), n * (n * n - 1)
    value, rest = divmod(num, den)
    if rest:
        g = math.gcd(num, den)
        raise ArithmeticError(
            f"non-integral index {num // g}/{den // g} for n={n} lam={lam}; "
            "formula misapplied"
        )
    return ChernResult(value, METHOD_CLOSED_FORM, False, dim)


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


def c2_subshape(n: int, lam: Partition) -> int:
    """n_lam summed over the sub-shape nu that the entries 1 and 2 fill.

    The streaming sum over tableau contents, sum of m1 * (m1 - m2), depends
    only on the tableau's {1, 2} part: an SSYT of a shape nu within lam with
    at most two rows and m1 ones in nu2..nu1.  The entries 3..n fill lam/nu
    in s_{lam/nu}(1^(n-2)) ways, the Jacobi-Trudi determinant
    det[h(lam_i - nu_j - i + j)] with h(k) = C(n - 3 + k, k) (Macdonald,
    Symmetric Functions and Hall Polynomials, I.5).  Exact integer
    arithmetic throughout; neither the Casimir nor the tableaux are used.
    """
    lam = reduce_full_columns(n, lam)
    if not lam:
        return 0
    rows = len(lam)
    m = n - 2
    # h[k] = h_k(1^m) = C(m + k - 1, k); h_0 = 1 also when m = 0
    h = [1] + [math.comb(m + k - 1, k) for k in range(1, lam[0] + rows)]
    lam2 = lam[1] if rows > 1 else 0
    total = 0
    for nu1 in range(lam[0] + 1):
        for nu2 in range(min(nu1, lam2) + 1):
            size = nu1 + nu2
            weight = sum(m1 * (2 * m1 - size) for m1 in range(nu2, nu1 + 1))
            if not weight:
                continue
            nu = (nu1, nu2) + (0,) * rows
            skew = [
                [h[k] if (k := lam[i] - nu[j] - i + j) >= 0 else 0
                 for j in range(rows)]
                for i in range(rows)
            ]
            total += weight * _bareiss_determinant(skew)
    return total


def c2_enumeration(
    n: int,
    lam: Partition,
    ceiling: int = DEFAULT_ENUMERATION_CEILING,
) -> ChernResult:
    """Splitting principle over tableau contents.

    Each tableau contributes a Chern root with multiplicities m = content;
    the product of (1 + m.x) truncated at degree 2, reduced modulo the
    vanishing first Chern class, has e2-coefficient
    sum over tableaux of m1^2 - m1*m2.
    """
    lam = reduce_full_columns(n, lam)
    dim = schur_dimension(n, lam)
    if dim > ceiling:
        raise EnumerationCeilingError(
            f"dimension {dim} exceeds the enumeration ceiling {ceiling} "
            f"for n={n} lam={lam}; use the closed form"
        )
    if n == 1:
        return ChernResult(0, METHOD_ENUMERATION, False, dim)
    total = 0
    for c in ssyt_stream(n, lam):
        m1 = c[0]
        if m1:
            total += m1 * (m1 - c[1])
    return ChernResult(total, METHOD_ENUMERATION, False, dim)


def c2(
    n: int,
    lam: Partition,
    method: str = "auto",
    ceiling: int = DEFAULT_ENUMERATION_CEILING,
) -> ChernResult:
    """Front door.  method is one of auto, closed-form, enumeration, both.

    auto runs the closed form and adds the sub-shape cross-check whenever
    the dimension is at most ``ceiling``; both demands the cross-check,
    refuses above the ceiling, and fails loudly on disagreement.
    """
    if method == METHOD_CLOSED_FORM:
        return c2_closed_form(n, lam)
    if method == METHOD_ENUMERATION:
        return c2_enumeration(n, lam, ceiling)
    if method not in ("auto", METHOD_BOTH):
        raise ValueError(f"unknown method {method!r}")
    closed = c2_closed_form(n, lam)
    if closed.dim > ceiling:
        if method == "auto":
            return closed
        raise EnumerationCeilingError(
            f"dimension {closed.dim} exceeds the cross-check ceiling {ceiling} "
            f"for n={n} lam={partition(lam)}; use the closed form"
        )
    checked = c2_subshape(n, lam)
    if checked != closed.n_lambda:
        raise CrossCheckError(n, partition(lam), closed.n_lambda, checked)
    return ChernResult(closed.n_lambda, METHOD_BOTH, True, closed.dim)
