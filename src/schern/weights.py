"""Dominant weights of SL(n), descent to SL(n)/mu_d, and monoid generators.

A weight is a tuple of n-1 nonnegative coefficients over the fundamental
weights a1..a(n-1).  The partition attached to a weight has parts
lam_j = a_j + a_(j+1) + ... + a_(n-1), so |lam| = sum(i * a_i).

A representation with highest weight lam descends to the quotient by mu_d
exactly when |lam| is divisible by d.  The dominant weights that descend form
a monoid under addition; :func:`hilbert_basis` returns its unique minimal
generating set.
"""
from collections import namedtuple
from itertools import accumulate, product
from operator import index

from .partitions import InputError, Partition, integer

Weight = tuple[int, ...]


class GroupSpec(namedtuple("GroupSpec", "n d")):
    """Quotient SL(n)/mu_d; d must divide n.  _make is routed through the
    checks of __new__ so that _replace checks too."""

    __slots__ = ()

    def __new__(cls, n: int, d: int) -> "GroupSpec":
        n, d = integer(n, "n", 2), integer(d, "d")
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
    S takes labels of non-zero residue from one table, from the first >= max(S).
    Token i is a column of height i: T from g down is the column form of
    partition_of(w), short since T has at most d tokens (Davenport bound).
    A d that overflows the interpreter's stack raises InputError.
    """
    n, d = spec.n, spec.d
    full = (1 << d) - 1
    labels = [(i, r, d - r) for i in range(1, n) if (r := i % d)]
    at = [lo - 1 - (lo - 1) // d for lo in range(n)]  # first entry >= lo
    out = []

    def grow(lo: int, total: int, sums: int, below: Partition) -> None:
        for g in range(lo + (-total - lo) % d, n, d):
            out.append((g,) + below)
        for i, r, s in labels[at[lo]:]:
            if sums >> s & 1:  # i would close a zero-sum
                continue
            grown = sums | ((sums << r | sums >> s) & full) | 1 << r
            grow(i, total + r, grown, (i,) + below)

    try:
        grow(1, 0, 0, ())
    except RecursionError:
        raise InputError(f"d={d} is too large for the basis search") from None
    return out


def weight_of(n: int, heights: Partition) -> Weight:
    """The SL(n) weight whose partition has these column heights, all below
    n: a_i counts the columns of height i."""
    counts = [0] * (n - 1)
    for c in heights:
        counts[c - 1] += 1
    return tuple(counts)


def hilbert_basis(spec: GroupSpec) -> tuple[Weight, ...]:
    """Minimal generating set of the descending dominant weights, lex sorted:
    the :func:`weight_of` of each :func:`generator_heights` entry."""
    return tuple(sorted(weight_of(spec.n, h) for h in generator_heights(spec)))
