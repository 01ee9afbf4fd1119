"""Dominant weights of SL(n), descent to SL(n)/mu_d, and monoid generators.

A weight is a tuple of n-1 nonnegative coefficients over the fundamental
weights a1..a(n-1).  The partition attached to a weight has parts
lam_j = a_j + a_(j+1) + ... + a_(n-1), so |lam| = sum(i * a_i).

A representation with highest weight lam descends to the quotient by mu_d
exactly when |lam| is divisible by d.  The dominant weights that descend form
a monoid under addition; :func:`hilbert_basis` returns its unique minimal
generating set.
"""
from __future__ import annotations

from dataclasses import dataclass
from itertools import product
from typing import Iterator

from .chern import reduce_full_columns
from .partitions import Partition, partition

Weight = tuple[int, ...]


@dataclass(frozen=True)
class GroupSpec:
    """Quotient SL(n)/mu_d; d must divide n."""

    n: int
    d: int

    def __post_init__(self) -> None:
        if self.n < 2:
            raise ValueError(f"n must be at least 2, got {self.n}")
        if self.d < 1:
            raise ValueError(f"d must be positive, got {self.d}")
        if self.n % self.d:
            raise ValueError(f"d must divide n, got n={self.n} d={self.d}")


def partition_of(w: Weight) -> Partition:
    """Partition with parts lam_j = sum of coefficients a_j..a_(n-1)."""
    parts = []
    total = 0
    for a in reversed(w):
        if a < 0:
            raise ValueError(f"weight coefficients must be nonnegative, got {w}")
        total += a
        parts.append(total)
    return partition(reversed(parts))


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


def weight_str(w: Weight) -> str:
    terms = []
    for i, a in enumerate(w, start=1):
        if a == 1:
            terms.append(f"a{i}")
        elif a > 1:
            terms.append(f"{a}a{i}")
    return "+".join(terms) if terms else "0"


def dual_weight(w: Weight) -> Weight:
    """Highest weight of the dual representation: reversed coefficients."""
    return tuple(reversed(w))


def descends(lam: Partition, spec: GroupSpec) -> bool:
    """True when the irreducible of highest weight lam is a representation
    of SL(n)/mu_d, i.e. when |lam| is divisible by d."""
    return sum(partition(lam)) % spec.d == 0


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


def is_monoid_irreducible(w: Weight, d: int) -> bool:
    """No proper nonzero sub-weight of w has size divisible by d.

    Sub-weights of a monoid member automatically stay in the monoid, so this
    is exactly the condition for w not to split as a sum of two members.
    """
    support = [(i, a) for i, a in enumerate(w, start=1) if a]
    full = tuple(a for _, a in support)
    for combo in product(*(range(a + 1) for _, a in support)):
        if not any(combo) or combo == full:
            continue
        if sum(i * b for (i, _), b in zip(support, combo)) % d == 0:
            return False
    return True


def hilbert_basis(spec: GroupSpec) -> tuple[Weight, ...]:
    """Minimal generating set of the descending dominant weights, lex sorted.

    Every monoid member with more than d fundamental-weight tokens is a sum of
    two members: among the d+1 prefix sums of its token multiset, two agree
    mod d, and the tokens between them form a proper sub-member.  Candidates
    are therefore the vectors with coefficient sum at most d, and minimality
    is decided by exhaustive splitting of each candidate.
    """
    out = []
    for w in _bounded_vectors(spec.n - 1, spec.d):
        if not any(w):
            continue
        if weight_size(w) % spec.d:
            continue
        if is_monoid_irreducible(w, spec.d):
            out.append(w)
    return tuple(out)
