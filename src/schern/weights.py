"""Dominant weights of SL(n), descent to SL(n)/mu_d, and monoid generators.

A weight is a tuple of n-1 nonnegative coefficients over the fundamental
weights a1..a(n-1).  The partition attached to a weight has parts
lam_j = a_j + a_(j+1) + ... + a_(n-1), so |lam| = sum(i * a_i).

A representation with highest weight lam descends to the quotient by mu_d
exactly when |lam| is divisible by d.  The dominant weights that descend form
a monoid under addition; :func:`hilbert_basis` returns its unique minimal
generating set.
"""
from itertools import accumulate, product
from operator import index
from typing import NamedTuple

from .partitions import InputError, Partition

Weight = tuple[int, ...]


class _GroupFields(NamedTuple):
    n: int
    d: int


# typing.NamedTuple refuses a __new__ in its own body, so the checks live on
# a subclass; _make is routed through them so that _replace checks too.
class GroupSpec(_GroupFields):
    """Quotient SL(n)/mu_d; d must divide n."""

    __slots__ = ()

    def __new__(cls, n: int, d: int) -> "GroupSpec":
        if n < 2:
            raise InputError(f"n must be at least 2, got {n}")
        if d < 1:
            raise InputError(f"d must be positive, got {d}")
        if n % d:
            raise InputError(f"d must divide n, got n={n} d={d}")
        return super().__new__(cls, n, d)

    @classmethod
    def _make(cls, iterable) -> "GroupSpec":
        return cls(*iterable)


def partition_of(w: Weight) -> Partition:
    """Partition with parts lam_j = sum of coefficients a_j..a_(n-1).

    Partial sums of non-negative coefficients never increase, so the tuple
    is canonical once its zero parts, those of the trailing zero
    coefficients, are dropped.
    """
    try:
        sums = list(accumulate(map(index, reversed(w))))
    except TypeError:
        raise InputError(
            f"weight coefficients must be integers, got {w}"
        ) from None
    if min(w, default=0) < 0:
        raise InputError(f"weight coefficients must be nonnegative, got {w}")
    del sums[:sums.count(0)]
    sums.reverse()
    return tuple(sums)


def weight_str(w: Weight) -> str:
    terms = []
    for i, a in enumerate(w, start=1):
        if a == 1:
            terms.append(f"a{i}")
        elif a > 1:
            terms.append(f"{a}a{i}")
    return "+".join(terms) if terms else "0"


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


def generator_heights(spec: GroupSpec) -> list[Partition]:
    """Column heights, tallest first, of each minimal generator's partition.

    With a_i tokens i of residue i mod d, a generator is a minimal zero-sum
    sequence over Z/d, and T is one exactly when T = S.g with S zero-sum-free
    and g = -sigma(S) (Geroldinger and Halter-Koch, *Non-Unique
    Factorizations*, ch. 5).  S grows in non-decreasing label order with its
    subsequence sums as a d-bit mask, pruned once 0 is a sum, and is closed by
    each label g >= max(S) of residue -sigma(S), so T arises once: g = max(T).
    Token i is a column of height i: T from g down is the column form of
    partition_of(w), short since T has at most d tokens (Davenport bound).
    """
    n, d = spec.n, spec.d
    full = (1 << d) - 1
    out = []

    def grow(lo: int, total: int, sums: int, below: Partition) -> None:
        for g in range(lo + (-total - lo) % d, n, d):
            out.append((g,) + below)
        for i in range(lo, n):
            r = i % d
            grown = sums | ((sums << r | sums >> (d - r)) & full) | 1 << r
            if grown & 1:  # a zero-sum subsequence; residue-0 tokens end here
                continue
            grow(i, total + r, grown, (i,) + below)

    grow(1, 0, 0, ())
    return out


def hilbert_basis(spec: GroupSpec) -> tuple[Weight, ...]:
    """Minimal generating set of the descending dominant weights, lex sorted;
    a_i counts the height-i columns of a :func:`generator_heights` entry, the
    column form that generator rows run in, as it has at most d columns."""
    out = []
    for heights in generator_heights(spec):
        counts = [0] * (spec.n - 1)
        for c in heights:
            counts[c - 1] += 1
        out.append(tuple(counts))
    return tuple(sorted(out))
