"""Oracles used only by the tests: brute-force scans over the descent
monoid, and helpers that no command runs (conjugation, tableau counts,
duals, Weyl's dimension product, the rational Casimir eigenvalue, weight
arithmetic, a json reader of cache lines).  Bad input raises the package's
InputError, checked by reduce_full_columns or partition."""
from __future__ import annotations

import json
import math
from fractions import Fraction
from itertools import product
from typing import Iterator

from schern import __version__
from schern.chern import reduce_full_columns
from schern.partitions import Partition, _conjugate, partition, ssyt_stream
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
