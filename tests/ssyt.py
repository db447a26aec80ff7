"""The classical Schur polynomial as the generating function of
semistandard tableaux, kept for the tests as an oracle independent of the
double Schur machinery."""

from itertools import combinations_with_replacement

from doubleschur.poly import Poly
from doubleschur.schur import partition


def _ssyt_fillings(shape, n):
    """Semistandard fillings (rows weakly increase, columns strictly
    increase, entries 1..n) as row tuples, built row by row: each row is a
    weakly increasing tuple of 1..n, kept when each of its entries exceeds
    the entry above it."""
    fillings = [()]
    for width in shape:
        fillings = [f + (row,) for f in fillings
                    for row in combinations_with_replacement(range(1, n + 1), width)
                    if not f or all(a > b for a, b in zip(row, f[-1]))]
    return fillings


def classical_schur_ssyt(lam, n):
    """The classical Schur polynomial in x1..xn as the generating function
    of semistandard tableaux of shape lam with entries at most n."""
    lam = partition(lam)
    if n < 1:
        raise ValueError("need at least one variable")
    if len(lam) > n:
        return Poly.zero(n)
    counts = {}
    for filling in _ssyt_fillings(lam, n):
        content = [0] * n
        for row in filling:
            for v in row:
                content[v - 1] += 1
        key = tuple(content)
        counts[key] = counts.get(key, 0) + 1
    acc = Poly.zero(n)
    for content, mult in counts.items():
        mono = Poly.const(mult, n)
        for i, e in enumerate(content, 1):
            if e:
                mono = mono * Poly.x(i, n) ** e
        acc = acc + mono
    return acc
