"""Partitions, conjugation, and semistandard tableau enumeration.

A partition is a tuple of weakly decreasing positive integers.  The empty
partition is ().  The public functions check a part sequence once through
:func:`partition`, which strips trailing zeros, and an integer through
:func:`integer`; the private helpers behind them trust what they checked.
The dimension of a shape is taken in :mod:`schern.chern`, by the loop that
also takes its index, over the side that :func:`_shorter_side` picks.
"""
from collections.abc import Iterable, Iterator
from operator import index, lt

Partition = tuple[int, ...]
TableauContent = tuple[int, ...]


class InputError(ValueError):
    """An argument outside what the computation accepts: the caller's fault,
    which the command line reports with exit code 2."""


class InvariantError(ArithmeticError):
    """An exact division that the mathematics guarantees left a remainder,
    or a pivot it guarantees positive was not: the engine or its data is
    broken, which the command line reports with exit code 1."""


class PartitionError(InputError):
    pass


def integer(value, name: str, least: int | None = 1) -> int:
    """``value`` as an int of at least ``least`` (None: any), never truncated."""
    try:
        value = index(value)
    except TypeError:
        raise InputError(f"{name} must be an integer, got {value!r}") from None
    if least is not None and value < least:
        bound = "positive" if least == 1 else f"at least {least}"
        raise InputError(f"{name} must be {bound}, got {value}")
    return value


def partition(parts: Iterable[int]) -> Partition:
    """Canonicalize a part sequence: strip trailing zeros, validate monotonicity.

    Parts must be integers (anything with ``__index__``); a float, string or
    fraction is rejected rather than truncated.
    """
    try:
        out = tuple(map(index, parts))
    except TypeError as exc:
        raise PartitionError(f"parts must be integers: {exc}") from None
    end = len(out)
    while end and not out[end - 1]:
        end -= 1
    out = out[:end]
    if any(map(lt, out, out[1:])):
        raise PartitionError(f"parts must be weakly decreasing, got {out}")
    if out and out[-1] < 0:
        raise PartitionError(f"parts must be nonnegative, got {out}")
    return out


def _conjugate(lam: Partition) -> Partition:
    """Column heights of a canonical partition.  One pointer walks up from
    the bottom row, so the rows are passed once in all, not once per column."""
    heights = []
    i = len(lam)
    for j in range(lam[0] if lam else 0):
        while lam[i - 1] <= j:
            i -= 1
        heights.append(i)
    return tuple(heights)


def _shorter_side(lam: Partition) -> tuple[Partition, bool]:
    """The shorter side of a canonical lam and whether it is the columns:
    the column heights when lam_1 <= len(lam), else the rows.  The longer
    side is never built, so the routes over the result walk min(rows,
    columns) lines, never lam_1 columns of a wide shape."""
    if lam and lam[0] <= len(lam):
        return _conjugate(lam), True
    return lam, False


def ssyt_stream(n: int, lam: Partition) -> Iterator[TableauContent]:
    """Yield the content vector of every SSYT of shape lam with entries in 1..n.

    Contents are length-n count vectors; a content is emitted once per tableau,
    so repeats encode Kostka multiplicities.  Cells are filled column by column
    with the row-weak / column-strict constraints checked as each cell is set,
    which keeps memory at O(|lam| + n).  The iteration order is fixed (entries
    tried in increasing order), so two traversals agree element for element.
    """
    n, lam = integer(n, "n"), partition(lam)
    if len(lam) > n:
        return
    if not lam:
        yield (0,) * n
        return
    heights = _conjugate(lam)
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
