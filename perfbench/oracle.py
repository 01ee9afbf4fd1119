"""Exact-integer oracle for the `c2` and `dim` answers the benchmark checks.

Written independently of `schern`: the dimension comes from Weyl's product
formula over pairs of rows (the program uses the hook-content formula), and
the index from the Casimir eigenvalue scaled by n so that every step stays
in integers (the program uses `fractions.Fraction`).
"""
from __future__ import annotations


def dim(n: int, lam: tuple[int, ...]) -> int:
    """Dimension of the SL(n) irreducible of shape lam (at most n rows)."""
    if len(lam) > n:
        raise ValueError(f"{lam} has more than {n} rows")
    rows = list(lam) + [0] * (n - len(lam))
    num = den = 1
    for i in range(n):
        for j in range(i + 1, n):
            num *= rows[i] - rows[j] + j - i
            den *= j - i
    value, rest = divmod(num, den)
    if rest:
        raise ArithmeticError(f"Weyl product not integral for n={n} lam={lam}")
    return value


def c2_index(n: int, lam: tuple[int, ...]) -> int:
    """n_lam = dim * casimir / (n^2 - 1), where n * casimir =
    n * sum lam_i (lam_i + n + 1 - 2i) - |lam|^2."""
    size = sum(lam)
    n_casimir = n * sum(p * (p + n + 1 - 2 * i) for i, p in enumerate(lam, 1)) - size * size
    value, rest = divmod(dim(n, lam) * n_casimir, n * (n * n - 1))
    if rest:
        raise ArithmeticError(f"index not integral for n={n} lam={lam}")
    return value
