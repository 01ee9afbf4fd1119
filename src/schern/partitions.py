"""Partitions, hook lengths, and semistandard tableau enumeration.

A partition is a tuple of weakly decreasing positive integers.  The empty
partition is ().  Trailing zeros are stripped by :func:`partition`, and all
functions here expect (or produce) that canonical form.
"""
from __future__ import annotations

from collections.abc import Iterable, Iterator

Partition = tuple[int, ...]
TableauContent = tuple[int, ...]


class PartitionError(ValueError):
    pass


def partition(parts: Iterable[int]) -> Partition:
    """Canonicalize a part sequence: strip trailing zeros, validate monotonicity."""
    out = tuple(int(p) for p in parts)
    while out and out[-1] == 0:
        out = out[:-1]
    for a, b in zip(out, out[1:]):
        if a < b:
            raise PartitionError(f"parts must be weakly decreasing, got {out}")
    if out and out[-1] < 0:
        raise PartitionError(f"parts must be nonnegative, got {out}")
    return out


def conjugate(lam: Partition) -> Partition:
    """Transpose the Young diagram: column lengths become row lengths."""
    lam = partition(lam)
    if not lam:
        return ()
    return tuple(sum(1 for p in lam if p > j) for j in range(lam[0]))


def schur_dimension(n: int, lam: Partition) -> int:
    """Dimension of the irreducible GL(n) (equivalently SL(n)) module of shape lam.

    Hook content formula: product over cells (i, j) of (n + j - i) / hook(i, j).
    Returns 0 when lam has more than n rows.
    """
    if n < 1:
        raise ValueError(f"n must be positive, got {n}")
    lam = partition(lam)
    if len(lam) > n:
        return 0
    conj = conjugate(lam)
    num = 1
    den = 1
    for i, row in enumerate(lam):
        for j in range(row):
            num *= n + j - i
            den *= (row - j) + (conj[j] - i) - 1
    assert num % den == 0, "hook content division must be exact"
    return num // den


def ssyt_stream(n: int, lam: Partition) -> Iterator[TableauContent]:
    """Yield the content vector of every SSYT of shape lam with entries in 1..n.

    Contents are length-n count vectors; a content is emitted once per tableau,
    so repeats encode Kostka multiplicities.  Cells are filled column by column
    with the row-weak / column-strict constraints checked as each cell is set,
    which keeps memory at O(|lam| + n).  The iteration order is fixed (entries
    tried in increasing order), so two traversals agree element for element.
    """
    if n < 1:
        raise ValueError(f"n must be positive, got {n}")
    lam = partition(lam)
    if len(lam) > n:
        return
    if not lam:
        yield (0,) * n
        return
    heights = conjugate(lam)
    ncols = lam[0]
    counts = [0] * n
    columns = [[0] * h for h in heights]

    def fill(j: int, i: int) -> Iterator[TableauContent]:
        if j == ncols:
            yield tuple(counts)
            return
        col = columns[j]
        h = heights[j]
        lo = col[i - 1] + 1 if i > 0 else 1
        if j > 0:
            left = columns[j - 1][i]
            if left > lo:
                lo = left
        hi = n - (h - 1 - i)
        if i + 1 < h:
            nj, ni = j, i + 1
        else:
            nj, ni = j + 1, 0
        for v in range(lo, hi + 1):
            col[i] = v
            counts[v - 1] += 1
            yield from fill(nj, ni)
            counts[v - 1] -= 1

    yield from fill(0, 0)


def ssyt_count(n: int, lam: Partition) -> int:
    """Count the tableau stream.  Diagnostic: must agree with schur_dimension."""
    return sum(1 for _ in ssyt_stream(n, lam))
