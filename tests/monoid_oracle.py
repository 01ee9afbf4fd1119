"""Brute-force oracles over the descent monoid, used only by the tests."""
from __future__ import annotations

from itertools import product
from typing import Iterator

from schern.weights import GroupSpec, Weight, is_monoid_irreducible, weight_size

MEMBER_ENUMERATION_CEILING = 4_000_000


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
