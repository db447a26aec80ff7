"""Per-x-exponent queries on a Poly, read off the packed keys: the lex-leading
x-exponent, the coefficient of one x-monomial, a swap of two x-variables and
symmetry under all of them.  The library works on x-orbit groups instead;
these plain forms serve the tests and their reference routes.  Also the
general exact division by any nonzero polynomial, the oracle of
Poly.exact_div, which divides by a linear form only."""

import heapq
from functools import lru_cache

from doubleschur.poly import F, FIELD, ArityMismatch, NotDivisible, Poly


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


@lru_cache(maxsize=None)
def _high_bits(nfields):
    h = 0
    for i in range(nfields):
        h |= 1 << (F * i + F - 1)
    return h


def heap_exact_div(p, d):
    """Exact quotient p / d in the polynomial ring.

    Runs ordinary leading-term division under the canonical graded
    lexicographic order; the loop draining the remainder to zero is
    itself the verification that d divides exactly.  Raises
    NotDivisible otherwise and ZeroDivisionError for d = 0.
    """
    if isinstance(d, int):
        d = Poly.const(d, p.nx)
    if d.is_zero():
        raise ZeroDivisionError("exact_div by the zero polynomial")
    tw, r, dterms = p._aligned(d)
    r = dict(r)
    high = _high_bits(1 + p.nx + tw)
    ltd = max(dterms)
    cd = dterms[ltd]
    tail = [(k, c) for k, c in dterms.items() if k != ltd]
    quotient = {}
    heap = [-k for k in r]
    heapq.heapify(heap)
    push, pop = heapq.heappush, heapq.heappop
    while heap:
        k = -pop(heap)
        c = r.get(k)
        if c is None:
            continue
        qk = k - ltd
        if qk < 0 or qk & high:
            raise NotDivisible("leading term not divisible")
        qc, rem = divmod(c, cd)
        if rem:
            raise NotDivisible("leading coefficient not divisible")
        quotient[qk] = qc
        del r[k]
        for dk, dc in tail:
            nk = qk + dk
            v = r.get(nk)
            if v is None:
                r[nk] = -qc * dc
                push(heap, -nk)
            else:
                v -= qc * dc
                if v:
                    r[nk] = v
                else:
                    del r[nk]
    if r:
        raise NotDivisible("nonzero remainder")
    return Poly(p.nx, tw, quotient)
