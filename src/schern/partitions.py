"""Partitions, hook lengths, and semistandard tableau enumeration.

A partition is a tuple of weakly decreasing positive integers.  The empty
partition is ().  The public functions accept any part sequence and validate
it once through :func:`partition`, which strips trailing zeros; the private
helpers behind them trust that canonical form and do not check it again.
"""
import math
from collections.abc import Iterable, Iterator
from operator import index, lt

Partition = tuple[int, ...]
TableauContent = tuple[int, ...]


class InputError(ValueError):
    """An argument outside what the computation accepts: the caller's fault,
    which the command line reports with exit code 2."""


class InvariantError(ArithmeticError):
    """An exact division that the mathematics guarantees left a remainder:
    the engine or its data is broken, which the command line reports with
    exit code 1."""


class PartitionError(InputError):
    pass


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


def schur_dimension(n: int, lam: Partition) -> int:
    """Dimension of the irreducible GL(n) (equivalently SL(n)) module of shape lam.

    Returns 0 when lam has more than n rows.
    """
    if n < 1:
        raise InputError(f"n must be positive, got {n}")
    lam = partition(lam)
    if len(lam) > n:
        return 0
    return _hook_dimension(n, lam, _conjugate(lam))


def _hook_dimension(n: int, lam: Partition, heights: Partition) -> int:
    """Dimension over the shorter of the rows lam and their column heights."""
    by_columns = len(heights) <= len(lam)
    return _line_dimension(n, heights if by_columns else lam, by_columns)


def _line_dimension(n: int, lines: Partition, by_columns: bool) -> int:
    """Dimension of the shape with columns (by_columns) or rows ``lines``.

    Hook content formula, line by line over the lines l_0 >= ... >= l_(k-1):
    column j contributes the contents (n + j)! / (n + j - l_j)!, row j the
    contents (n - 1 - j + l_j)! / (n - 1 - j)!, and with
    m_j = l_j + k - 1 - j the hook lengths multiply to
    prod m_j! / prod_(i<j) (m_i - m_j) in either case, as lam and its
    conjugate have the same hooks (Macdonald, Symmetric Functions and Hall
    Polynomials, I.1).  Both sides carry prod l_j!, which is cancelled:
    comb(n + j, l_j) or comb(n - 1 - j + l_j, l_j) over perm(m_j, k - 1 - j).
    The intermediate products grow with the square of k, so a generator's
    few columns and a symmetric power's one row are both cheap.
    """
    k = len(lines)
    num = 1
    den = 1
    ms = []
    for j, c in enumerate(lines):
        num *= math.comb(n + j if by_columns else n - 1 - j + c, c)
        m = c + k - 1 - j
        den *= math.perm(m, k - 1 - j)
        for prev in ms:
            num *= prev - m
        ms.append(m)
    dim, rest = divmod(num, den)
    if rest:
        lam = _conjugate(lines) if by_columns else lines
        raise InvariantError(
            f"hook content division is not exact for n={n} lam={lam}"
        )
    return dim


def ssyt_stream(n: int, lam: Partition) -> Iterator[TableauContent]:
    """Yield the content vector of every SSYT of shape lam with entries in 1..n.

    Contents are length-n count vectors; a content is emitted once per tableau,
    so repeats encode Kostka multiplicities.  Cells are filled column by column
    with the row-weak / column-strict constraints checked as each cell is set,
    which keeps memory at O(|lam| + n).  The iteration order is fixed (entries
    tried in increasing order), so two traversals agree element for element.
    """
    if n < 1:
        raise InputError(f"n must be positive, got {n}")
    lam = partition(lam)
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
