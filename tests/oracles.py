"""Oracles used only by the tests: brute-force scans over the descent
monoid, the sub-shape sum of n_lam (one integer Jacobi-Trudi determinant
per two-row sub-shape), and helpers that no command runs (conjugation,
tableau counts, duals, Weyl's dimension product, the rational Casimir
eigenvalue, weight arithmetic, a json reader of cache lines, the H^4
multiplier from the cocharacter lattice, the basis size counted by
residues).  Bad input raises the package's InputError, checked by
reduce_full_columns or partition."""
from __future__ import annotations

import json
import math
import operator
from fractions import Fraction
from itertools import product
from typing import Iterator

from schern import __version__
from schern.chern import reduce_full_columns
from schern.partitions import (Partition, _conjugate, _shorter_side, partition,
                               ssyt_stream)
from schern.weights import GroupSpec, Weight, is_monoid_irreducible

MEMBER_ENUMERATION_CEILING = 4_000_000


def conjugate(lam: Partition) -> Partition:
    """Transpose the Young diagram: column lengths become row lengths."""
    return _conjugate(partition(lam))


def ssyt_count(n: int, lam: Partition) -> int:
    """Count the tableau stream.  Diagnostic: must agree with schur_dimension."""
    return sum(1 for _ in ssyt_stream(n, lam))


def dual_partition(n: int, lam: Partition) -> Partition:
    """Highest weight of the dual: complement of lam in a lam_1 x n box.
    Full columns are stripped first, which changes neither the dual nor the
    Casimir of an SL(n) weight."""
    lam = reduce_full_columns(n, lam)
    if not lam:
        return ()
    padded = lam + (0,) * (n - len(lam))
    return partition(lam[0] - p for p in reversed(padded))


def weyl_dimension(n: int, lam: Partition) -> int:
    """Weyl's dimension formula: the product over pairs of rows i < j of
    (lam_i - lam_j + j - i) / (j - i).  Never looks at the columns."""
    row = tuple(lam) + (0,) * (n - len(lam))
    num = den = 1
    for i in range(n):
        num *= math.prod(row[i] - row[j] + j - i for j in range(i + 1, n))
        den *= math.factorial(n - 1 - i)  # prod of j - i over j > i
    assert num % den == 0
    return num // den


def casimir(n: int, lam: Partition) -> Fraction:
    """Casimir eigenvalue (lam, lam + 2 rho) in the normalization where the
    defining representation of SL(n) has eigenvalue (n^2 - 1) / n, from the
    rows: sum lam_i (lam_i + n + 1 - 2i) - |lam|^2 / n."""
    lam = reduce_full_columns(n, lam)
    rows = sum(p * (p + n + 1 - 2 * i) for i, p in enumerate(lam, start=1))
    return rows - Fraction(sum(lam) ** 2, n)


def json_decode(line: bytes) -> tuple[tuple[int, Partition], int] | None:
    """A cache line read with json: any JSON object with exactly the keys of
    a record, the package version and int fields, whatever its spacing or
    key order.  The cache's own reader must accept a subset of these lines
    and agree on each."""
    try:
        rec = json.loads(line.decode())
    except ValueError:  # not UTF-8, or not JSON
        return None
    if not isinstance(rec, dict) or rec.keys() != {"n", "partition", "subshape", "version"}:
        return None
    if rec["version"] != __version__:
        return None
    n, lam, subshape = rec["n"], rec["partition"], rec["subshape"]
    # exact types only: True == 1, 2.0 == 2 and "11" iterates to (1, 1)
    if type(lam) is not list or any(type(v) is not int for v in [n, subshape, *lam]):
        return None
    return (n, tuple(lam)), subshape


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


def weight_of(lam: Partition, n: int) -> Weight:
    """Inverse of partition_of: a_j = lam_j - lam_(j+1).

    A partition with n rows is first reduced by its full column (subtract
    lam_n from every part); more than n rows is rejected.
    """
    lam = reduce_full_columns(n, lam)
    padded = lam + (0,) * (n - len(lam))
    return tuple(padded[j] - padded[j + 1] for j in range(n - 1))


def weight_size(w: Weight) -> int:
    """|partition_of(w)| = sum of i * a_i."""
    return sum(i * a for i, a in enumerate(w, start=1))


def dual_weight(w: Weight) -> Weight:
    """Highest weight of the dual representation: reversed coefficients."""
    return tuple(reversed(w))


def descends(lam: Partition, spec: GroupSpec) -> bool:
    """True when the irreducible of highest weight lam is a representation
    of SL(n)/mu_d, i.e. when |lam| is divisible by d."""
    return sum(partition(lam)) % spec.d == 0


def monoid_members_up_to(
    spec: GroupSpec, bound: int, ceiling: int = MEMBER_ENUMERATION_CEILING
) -> set[Weight]:
    """Brute-force oracle: all members with every coefficient <= bound.

    Includes the zero weight.  Refuses when the candidate grid is larger than
    ``ceiling``.
    """
    count = (bound + 1) ** (spec.n - 1)
    if count > ceiling:
        raise ValueError(
            f"{count} candidates exceed the enumeration ceiling {ceiling}"
        )
    return {
        w
        for w in product(range(bound + 1), repeat=spec.n - 1)
        if weight_size(w) % spec.d == 0
    }


def greedy_decomposition(w: Weight, basis: tuple[Weight, ...]) -> list[Weight]:
    """Split a monoid member into basis elements by repeated subtraction."""
    parts = []
    rest = w
    while any(rest):
        for b in basis:
            if all(x <= y for x, y in zip(b, rest)):
                parts.append(b)
                rest = tuple(y - x for x, y in zip(b, rest))
                break
        else:
            raise ValueError(f"{w} does not decompose over the given basis")
    return parts


def _bounded_vectors(length: int, budget: int) -> Iterator[Weight]:
    """All nonnegative vectors with coefficient sum <= budget, in lex order."""
    vec = [0] * length

    def rec(i: int, left: int) -> Iterator[Weight]:
        if i == length:
            yield tuple(vec)
            return
        for v in range(left + 1):
            vec[i] = v
            yield from rec(i + 1, left - v)
        vec[i] = 0

    yield from rec(0, budget)


def h4_lattice_multiplier(spec: GroupSpec) -> int:
    """The H^4 multiplier m of SL(n)/mu_d straight from its cocharacter
    lattice, in integers only: the least m for which m times the basic form
    is integral on the coroot lattice plus (n/d) omega_1^v.  The basis is
    scaled by n, so the coroots are n(e_i - e_(i+1)) and (n/d) omega_1^v is
    (n/d)(n - 1, -1, ..., -1); m is then the lcm of the reduced
    denominators of x.x / (2 n^2) and x.y / n^2 over the basis.  The form
    is even on the coroots, so x.x / 2 over every lattice vector x is
    integral once it is on the basis and x.y is on each pair."""
    n, d = spec.n, spec.d
    basis = [[n * ((j == i) - (j == i + 1)) for j in range(n)] for i in range(n - 1)]
    basis.append([n // d * (n * (j == 0) - 1) for j in range(n)])
    m = 1
    for a, x in enumerate(basis):
        for y in basis[a:]:
            dot, den = sum(map(operator.mul, x, y)), n * n * (2 if x is y else 1)
            m = math.lcm(m, den // math.gcd(dot, den))
    return m


def scan_basis(spec: GroupSpec) -> tuple[Weight, ...]:
    """Brute-force oracle for hilbert_basis, lex sorted.

    Every monoid member with more than d fundamental-weight tokens is a sum of
    two members: among the d+1 prefix sums of its token multiset, two agree
    mod d, and the tokens between them form a proper sub-member.  Candidates
    are therefore the vectors with coefficient sum at most d, and minimality
    is decided by exhaustive splitting of each candidate.
    """
    return tuple(
        w
        for w in _bounded_vectors(spec.n - 1, spec.d)
        if any(w)
        and weight_size(w) % spec.d == 0
        and is_monoid_irreducible(w, spec.d)
    )


def generator_count(n: int, d: int) -> int:
    """Size of the minimal generating set of SL(n)/mu_d, counted by residues
    and not listed; it reads nothing from schern.

    A generator is a minimal zero-sum multiset of labels 1..n-1 read mod d.
    Its residues form a minimal zero-sum sequence T over Z/d, and T with no
    0 is S.g with S zero-sum-free and g = -sigma(S) >= max(S); S grows in
    non-decreasing order with its subsequence sums as a set.  Each T with t_r
    copies of residue r is filled by prod_r C(m_r + t_r - 1, t_r) label
    multisets, m_r = #{1 <= i < n : i = r mod d}, and each label of residue
    0 is a generator alone.
    """
    m = [0] * d
    for i in range(1, n):
        m[i % d] += 1
    count = m[0]
    stack = [((), frozenset())]
    while stack:
        seq, sums = stack.pop()
        if seq and (g := -sum(seq) % d) >= seq[-1]:
            t = seq + (g,)
            count += math.prod(math.comb(m[r] + t.count(r) - 1, t.count(r))
                               for r in set(t))
        for r in range(seq[-1] if seq else 1, d):
            if -r % d not in sums:  # else r closes a zero-sum
                stack.append((seq + (r,),
                              sums | {r} | {(s + r) % d for s in sums}))
    return count
