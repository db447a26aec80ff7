"""Brute-force combinatorial oracles.

Deliberately naive and fully independent of the polynomial machinery:
Littlewood-Richardson coefficients by skew-tableau enumeration, and
standard-tableau counts by the hook length formula cross-checked against
exhaustive enumeration.  Used by `verify` and by tests to pin down expected
values.
"""

import math

from .schur import partition

__all__ = [
    "lr_coefficient",
    "syt_count",
    "syt_count_hook",
    "enumerate_syt",
    "LR_ENUMERATION_LIMIT",
    "SYT_ENUMERATION_LIMIT",
]

LR_ENUMERATION_LIMIT = 10
SYT_ENUMERATION_LIMIT = 12


def lr_coefficient(lam, mu, nu):
    """Number of Littlewood-Richardson skew tableaux of shape nu/lam and
    content mu: semistandard fillings of the skew diagram whose reverse
    reading word is a ballot sequence.  Returns 0 when the size or
    containment preconditions fail."""
    lam, mu, nu = partition(lam), partition(mu), partition(nu)
    if sum(nu) > LR_ENUMERATION_LIMIT:
        raise ValueError(
            f"|nu| = {sum(nu)} exceeds the enumeration guard of "
            f"{LR_ENUMERATION_LIMIT}")
    if sum(nu) != sum(lam) + sum(mu):
        return 0
    if len(lam) > len(nu) or any(lam[i] > nu[i] for i in range(len(lam))):
        return 0
    inner = lam + (0,) * (len(nu) - len(lam))
    # cells in reverse reading order: rows top to bottom, right to left,
    # so the ballot condition can be enforced as values are placed
    cells = [(r, c) for r in range(len(nu))
             for c in range(nu[r] - 1, inner[r] - 1, -1)]
    k = len(mu)
    grid = {}
    counts = [0] * (k + 1)

    def place(idx):
        if idx == len(cells):
            return 1
        r, c = cells[idx]
        total = 0
        for v in range(1, k + 1):
            if counts[v] >= mu[v - 1]:
                continue
            if v > 1 and counts[v] >= counts[v - 1]:
                continue  # ballot: every prefix has #v <= #(v-1)
            right = grid.get((r, c + 1))
            if right is not None and v > right:
                continue  # row weakly increasing left to right
            if r > 0 and c >= inner[r - 1]:
                up = grid.get((r - 1, c))
                if up is not None and v <= up:
                    continue  # column strictly increasing downward
            grid[(r, c)] = v
            counts[v] += 1
            total += place(idx + 1)
            counts[v] -= 1
            del grid[(r, c)]
        return total

    return place(0)


def _hooks(lam):
    conj = [0] * (lam[0] if lam else 0)
    for part in lam:
        for c in range(part):
            conj[c] += 1
    for r, part in enumerate(lam):
        for c in range(part):
            yield (part - c) + (conj[c] - r) - 1


def syt_count_hook(lam):
    """Standard tableau count by the hook length formula."""
    lam = partition(lam)
    size = sum(lam)
    denom = math.prod(_hooks(lam))
    count, rem = divmod(math.factorial(size), denom)
    if rem:
        raise RuntimeError(f"hook product of {lam} does not divide {size}!")
    return count


def enumerate_syt(lam):
    """Yield every standard tableau of shape lam as a tuple of row tuples,
    built by placing 1..|lam| at addable corners."""
    lam = partition(lam)
    size = sum(lam)
    rows = [[] for _ in lam]

    def extend(value):
        if value > size:
            yield tuple(tuple(row) for row in rows)
            return
        for r, part in enumerate(lam):
            filled = len(rows[r])
            if filled >= part:
                continue
            if r > 0 and len(rows[r - 1]) <= filled:
                continue
            rows[r].append(value)
            yield from extend(value + 1)
            rows[r].pop()

    yield from extend(1)


def syt_count(lam):
    """Number of standard tableaux of shape lam, computed by the hook
    length formula; exhaustively cross-checked for small shapes."""
    lam = partition(lam)
    count = syt_count_hook(lam)
    if sum(lam) <= SYT_ENUMERATION_LIMIT and \
            count != sum(1 for _ in enumerate_syt(lam)):
        raise RuntimeError(f"hook formula disagrees with enumeration for {lam}")
    return count
