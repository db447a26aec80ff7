"""Grassmann duality G(n,m) <-> G(m-n,m) on partitions and on constants,
kept apart from the pytest modules so that a plain script (the CI duality
loop) can import it without loading pytest or hypothesis."""

from doubleschur.poly import F, FIELD, Poly


def _conjugate(lam):
    return tuple(sum(p > j for p in lam) for j in range(lam[0] if lam else 0))


def _reflected(c, m):
    """omega: t_i -> -t_{m+1-i} on a constant of Z[t1..tm].  On a packed key
    it reverses the m t-fields, and negates a term of odd t-degree."""
    out = {}
    for key, coeff in c._widened(m).items():
        degree, fields, flipped = key >> F * m, key, 0
        for _ in range(m):
            flipped, fields = flipped << F | fields & FIELD, fields >> F
        out[degree << F * m | flipped] = -coeff if degree & 1 else coeff
    return Poly(0, m, out)
