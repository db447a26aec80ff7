"""Per-x-exponent queries on a Poly, read off the packed keys: the lex-leading
x-exponent, the coefficient of one x-monomial, a swap of two x-variables and
symmetry under all of them.  The library works on x-orbit groups instead;
these plain forms serve the tests and their reference routes."""

from doubleschur.poly import F, FIELD, ArityMismatch, Poly


def coefficient_of_x(p, xe):
    """The t-only (arity 0) coefficient of the x-monomial with exponent
    tuple xe."""
    if len(xe) != p.nx:
        raise ArityMismatch(f"expected {p.nx} x-exponents, got {len(xe)}")
    target = 0
    for e in xe:
        target = (target << F) | e
    dsub = sum(xe)
    tw = p.tw
    xshift = F * tw
    xmask = (1 << (F * p.nx)) - 1
    tmask = (1 << (F * tw)) - 1
    out = {}
    for k, c in p.terms.items():
        if (k >> xshift) & xmask == target:
            deg = (k >> (F * (p.nx + tw))) - dsub
            out[(deg << (F * tw)) | (k & tmask)] = c
    return Poly(0, tw, out)


def leading_x(p):
    """Lexicographically largest x-exponent tuple present, or None."""
    if not p.terms:
        return None
    sh = F * p.tw
    xmask = (1 << (F * p.nx)) - 1
    best = max((k >> sh) & xmask for k in p.terms)
    xe = [0] * p.nx
    for i in range(p.nx - 1, -1, -1):
        xe[i] = best & FIELD
        best >>= F
    return tuple(xe)


def swap_x(p, i, j):
    """Exchange the variables x_i and x_j (1-based)."""
    nx, tw = p.nx, p.tw
    if not (1 <= i <= nx and 1 <= j <= nx):
        raise ArityMismatch(f"cannot swap x{i}, x{j} at arity {nx}")
    if i == j:
        return p
    pi = F * (tw + nx - i)
    pj = F * (tw + nx - j)
    out = {}
    for k, c in p.terms.items():
        vi = (k >> pi) & FIELD
        vj = (k >> pj) & FIELD
        if vi != vj:
            k += (vj - vi) << pi
            k += (vi - vj) << pj
        out[k] = c
    return Poly(nx, tw, out)


def is_symmetric(p):
    """Invariance under all adjacent transpositions of the x-variables
    (these generate the full symmetric group)."""
    return all(swap_x(p, i, i + 1) == p for i in range(1, p.nx))
