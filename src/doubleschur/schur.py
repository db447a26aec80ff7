"""Double Schur polynomials and the bases around them.

Double monomials (x|t)^k = (x + t1)...(x + tk) generate a basis of the
polynomial ring in one variable over Z[t1, t2, ...]; alternants (the
skew-symmetric determinants det((x_i|t)^{nu_j})) give a basis of the
skew-symmetric polynomials indexed by strictly decreasing sequences nu.
The double Schur polynomial of a partition is built by branching on the
last variable; the alternant ratio it equals is its test oracle.  This
module also provides the expansion in the double Schur basis and the Pieri
rule for multiplication by x1 + ... + xn.

Sign convention: double monomials use (x + t_i), not (x - t_i).
"""

from __future__ import annotations

from collections import Counter, defaultdict
from functools import lru_cache
from itertools import combinations, permutations, product
from math import factorial, prod

from .poly import (DEG_LIMIT, F, FIELD, DegreeOverflow, Poly, _multiply_into,
                   _poly_obj, _sums_of_products, poly_from_obj)

__all__ = [
    "partition",
    "strict_sequence",
    "staircase",
    "add_staircase",
    "remove_staircase",
    "x_sum",
    "double_monomial",
    "alternant",
    "double_schur",
    "expand_in_double_schur",
    "pieri_multiply",
    "SchurExpansion",
    "expansion_to_poly",
]


def partition(parts):
    """Normalize to a weakly decreasing tuple of positive integers."""
    parts = tuple(int(p) for p in parts)
    if any(p < 0 for p in parts):
        raise ValueError(f"negative part in {parts}")
    if any(parts[i] < parts[i + 1] for i in range(len(parts) - 1)):
        raise ValueError(f"parts not weakly decreasing: {parts}")
    while parts and parts[-1] == 0:
        parts = parts[:-1]
    return parts


def strict_sequence(parts, n=None):
    """Validate a strictly decreasing tuple of nonnegative integers."""
    parts = tuple(int(p) for p in parts)
    if n is not None and len(parts) != n:
        raise ValueError(f"expected length {n}, got {parts}")
    if any(p < 0 for p in parts):
        raise ValueError(f"negative entry in {parts}")
    if any(parts[i] <= parts[i + 1] for i in range(len(parts) - 1)):
        raise ValueError(f"entries not strictly decreasing: {parts}")
    return parts


def staircase(n):
    """(n-1, n-2, ..., 1, 0)."""
    return tuple(range(n - 1, -1, -1))


def add_staircase(lam, n):
    """Pad lam with zeros to length n and add the staircase."""
    lam = partition(lam)
    if len(lam) > n:
        raise ValueError(f"partition {lam} has more than {n} parts")
    padded = lam + (0,) * (n - len(lam))
    return tuple(padded[i] + n - 1 - i for i in range(n))


def remove_staircase(nu):
    """Inverse of add_staircase: subtract the staircase, trim zeros."""
    n = len(nu)
    nu = strict_sequence(nu, n)
    return partition(tuple(nu[i] - (n - 1 - i) for i in range(n)))


def x_sum(n):
    """x1 + ... + xn."""
    acc = Poly.zero(n)
    for i in range(1, n + 1):
        acc = acc + Poly.x(i, n)
    return acc


@lru_cache(maxsize=None)
def double_monomial(k, var=1, nvars=1):
    """The double monomial (x_var|t)^k = (x_var + t1)...(x_var + tk),
    expanded; (x|t)^0 = 1.  Monic of degree k in x_var."""
    if k < 0:
        raise ValueError("double monomial exponent must be nonnegative")
    acc = Poly.one(nvars)
    xi = Poly.x(var, nvars)
    for j in range(1, k + 1):
        acc = acc * (xi + Poly.t(j, nvars))
    return acc


@lru_cache(maxsize=None)
def alternant(nu, n):
    """The skew-symmetric basis element indexed by a strictly decreasing
    sequence: the n x n determinant det( (x_i|t)^{nu_j} ).

    Computed by cofactor expansion over row subsets, consuming columns
    left to right; no division is performed.
    """
    if n < 1:
        raise ValueError("arity must be at least 1")
    nu = strict_sequence(nu, n)
    minors = {(): Poly.one(n)}
    for col in range(n):
        exp = nu[col]
        entries = [double_monomial(exp, i, n) for i in range(1, n + 1)]
        new = {}
        for rows in combinations(range(1, n + 1), col + 1):
            # cofactors along the last column of the sub-block
            new[rows] = Poly.sum_of_products(
                (-1 if (pos + col) % 2 else 1,
                 entries[r - 1],
                 minors[tuple(rr for rr in rows if rr != r)])
                for pos, r in enumerate(rows))
        minors = new
    return minors[tuple(range(1, n + 1))]


@lru_cache(maxsize=None)
def _orbit(x, n):
    """S_n-orbit data of a packed x-exponent x (n fields, x_n lowest): its
    sorted (dominant) form, its degree, its number of members
    n!/prod(m_i!) (m_i the multiplicities of the parts, zeros included),
    and its number of members with x1..x_{n-1} weakly decreasing, one per
    distinct part (the part left to x_n)."""
    parts = sorted((x >> F * i) & FIELD for i in range(n))
    mult = Counter(parts)
    return (sum(e << F * i for i, e in enumerate(parts)), sum(parts),
            factorial(n) // prod(map(factorial, mult.values())), len(mult))


@lru_cache(maxsize=None)
def _orbit_members(x, n):
    """Every packed x-exponent whose parts rearrange those of x."""
    parts = [(x >> F * i) & FIELD for i in range(n)]
    return tuple({sum(e << F * i for i, e in enumerate(perm))
                  for perm in permutations(parts)})


def _dominant(groups, n, representatives=False):
    """The groups of a polynomial in x1..xn, given as a map from packed
    x-exponents to their coefficients, that have a weakly decreasing
    ("dominant") exponent; None if the polynomial is not symmetric (some
    group differs from its sorted exponent's, or an orbit lacks some of its
    n!/prod(m_i!) members).

    With `representatives`, the groups are only those with x1..x_{n-1}
    weakly decreasing of a polynomial already symmetric in x1..x_{n-1}.
    Every group of that polynomial is then the group of an
    S_{n-1}-rearrangement of one given, and each orbit has one such member
    per distinct part, so the same two checks with that count in place of
    n!/prod(m_i!) are symmetry under all of S_n."""
    dominant, members, sizes = {}, {}, {}
    for x, g in groups.items():
        d, _, size, distinct = _orbit(x, n)
        if d == x:
            dominant[d] = g
            sizes[d] = distinct if representatives else size
        elif groups.get(d) != g:
            return None
        members[d] = members.get(d, 0) + 1
    return dominant if members == sizes else None


def _peel_width(p, x):
    """The t-width of the peel of p whose largest x-exponent is x (packed,
    x_n lowest): wide enough for every s_lam with lam_1 at most x1's
    exponent, whose largest t-index is n + lam_1 - 1."""
    n = p.nx
    return max(p.tw, n - 1 + (x >> F * (n - 1)))


def _dominant_groups(p):
    """The dominant groups of p (`_dominant`) as elements of Z[t]: the
    coefficient of x^a, an arity-0 term dict at the peel's t-width
    (`_peel_width`), keyed by the packed exponent a at bit 0.  None if p is
    not symmetric.

    One pass groups every term by x-exponent with the x-fields cleared, so
    that the groups of one orbit compare equal; only the dominant groups are
    then rewritten, their degree fields lowered by the x-degree.  The
    largest x-exponent of a symmetric polynomial is dominant, so the
    largest key among the groups gives the peel's width."""
    n, sh = p.nx, F * p.tw
    hi, tmask = sh + F * n, (1 << sh) - 1
    xmask = ((1 << F * n) - 1) << sh
    flat = defaultdict(dict)
    for k, c in p.terms.items():
        x = k & xmask
        flat[x][k ^ x] = c
    dominant = _dominant({x >> sh: g for x, g in flat.items()}, n)
    if dominant is None:
        return None
    up = F * (_peel_width(p, max(dominant, default=0)) - p.tw)
    return {x: {(((k >> hi) - deg) << sh | k & tmask) << up: c for k, c in g.items()}
            for x, g in dominant.items() for deg in [_orbit(x, n)[1]]}


def _strip_indices(lam, mu, n):
    """The t-indices n + j - i of the boxes (i, j) of the horizontal strip
    lam/mu, lam padded to n parts and mu to n - 1.  No two boxes of a
    horizontal strip lie on one diagonal, so the indices are distinct."""
    return [n + j - i for i, (lo, hi) in enumerate(zip(mu + (0,), lam), 1)
            for j in range(lo + 1, hi + 1)]


def _strip_coefficients(indices, tw):
    """The coefficients of x_n^0, x_n^1, ..., x_n^r in the product over the
    r distinct `indices` c of (x_n + t_c): the elementary symmetric
    polynomials e_r, ..., e_0 of those t_c, as arity-0 term dicts at t-width
    tw."""
    units = [1 << F * (tw - c) for c in indices]
    r = len(units)
    return [{(r - k) << F * tw | sum(s): 1 for s in combinations(units, r - k)}
            for k in range(r + 1)]


@lru_cache(maxsize=None)
def _schur_groups(lam, n):
    """The double Schur polynomial of a partition lam with at most n parts,
    as its t-width and its dominant groups: the Z[t] coefficient of each
    dominant x^a, an arity-0 term dict at that t-width keyed by the packed
    a (`_dominant_groups`).  Built by branching on x_n (Macdonald 1992, 6th
    variation; Molev-Sagan, Trans. AMS 351, 1999): s_lam = sum over mu with
    lam_{i+1} <= mu_i <= lam_i of s_mu(x1..x_{n-1}) times the product over
    the boxes (i,j) of lam/mu of (x_n + t_{n+j-i}); at n = 0 only the empty
    partition, s = 1.

    Only the groups with x1..x_{n-1} weakly decreasing are formed.  The
    group of x^a x_n^k gathers, over mu, s_mu's dominant group of x^a times
    the x_n^k-coefficient of mu's strip (`_strip_coefficients`), all in one
    `_multiply_into` batch.  Each s_mu was checked symmetric when it was
    built and the strip involves x_n and t only, so the sum is symmetric in
    x1..x_{n-1}, and `_dominant` on these representatives checks symmetry
    under all of S_n.  Every product has degree at most |lam|."""
    if n == 0:
        return 0, {0: {0: 1}}
    if sum(lam) >= DEG_LIMIT:
        raise DegreeOverflow("product degree exceeds the packed monomial bound")
    padded = lam + (0,) * (n - len(lam))
    parents = [(_schur_groups(partition(mu), n - 1), _strip_indices(padded, mu, n))
               for mu in product(*(range(padded[i + 1], padded[i] + 1) for i in range(n - 1)))]
    tw = max(max([stw, *indices]) for (stw, _), indices in parents)
    groups = defaultdict(dict)
    products = []
    for (stw, parent), indices in parents:
        strip = _strip_coefficients(indices, tw)
        up = F * (tw - stw)
        for a, g in parent.items():
            if up:
                g = {k << up: c for k, c in g.items()}
            products += [(groups[a << F | k], 1, g, e) for k, e in enumerate(strip)]
    _multiply_into(products)
    dominant = _dominant(groups, n, representatives=True)
    if dominant is None:
        raise RuntimeError(f"double Schur polynomial of {lam} came out asymmetric")
    return tw, dominant


@lru_cache(maxsize=2)
def double_schur(lam, n):
    """The double Schur polynomial of lam in x1..xn, written out from the
    dominant groups of `_schur_groups`: the Z[t] coefficient of x^a goes to
    every rearrangement of a.  The build and `expand_in_double_schur` read
    the groups alone; this flat form is written out for its caller and is
    not retained.  The memo keeps the last two results only, so a caller
    that alternates between a fixed shape and others (lam against every mu)
    writes the fixed one once."""
    if n < 1:
        raise ValueError("arity must be at least 1")
    lam = partition(lam)
    if len(lam) > n:
        raise ValueError(f"partition {lam} has more than {n} parts")
    tw, dominant = _schur_groups(lam, n)
    sh, size = F * tw, sum(lam)
    # s_lam is homogeneous of degree |lam|, so the group of x^a holds t-degree
    # |lam| - |a| in every key; adding `off` sets the degree to |lam| and the
    # x-fields to the rearrangement y of a
    top = size << sh + F * n
    return Poly(n, tw, {k + off: c for x, g in dominant.items()
                        for off in [top + ((y - size + _orbit(x, n)[1]) << sh)
                                    for y in _orbit_members(x, n)]
                        for k, c in g.items()})


def expand_in_double_schur(p, n):
    """Expand a symmetric polynomial in the double Schur basis.

    Under lexicographic order on the x-exponents the leading x-monomial of
    the double Schur polynomial of lam is x^lam with coefficient 1, so the
    leading term of p determines one summand at a time: subtract it and
    recurse.  The leading x-monomial strictly decreases and the total
    x-degree never grows, so this terminates.

    Only the dominant groups of p are kept (`_dominant_groups`): dropping
    the others is linear, the leading exponent of a symmetric polynomial is
    dominant, and one with no dominant term is zero.  The remainder and each
    s_lam (`_schur_groups`) are then maps from dominant x-exponents to Z[t]
    coefficients.  A step pops the leading group, which is the coefficient
    of s_lam as it stands; s_lam's own group of x^lam is 1, so every other
    group of s_lam is subtracted times it.  No x-exponent of s_lam exceeds
    lam_1 <= p's largest x1-exponent, so every s_lam fits p's t-width
    widened to n + lam_1 - 1 (`_peel_width`), the width the groups of p are
    written at, and no product exceeds p's degree.
    """
    if n < 1:
        raise ValueError("arity must be at least 1")
    if p.nx != n:
        raise ValueError(f"expected a polynomial in x1..x{n}, got arity {p.nx}")
    rem = _dominant_groups(p)
    if rem is None:
        raise ValueError("polynomial is not symmetric")
    if p.terms and max(p.terms) >> F * (n + p.tw) >= DEG_LIMIT:
        raise DegreeOverflow("product degree exceeds the packed monomial bound")
    tw = _peel_width(p, max(rem, default=0))
    out = {}
    while rem:
        x = max(rem)
        lam = partition((x >> F * (n - i)) & FIELD for i in range(1, n + 1))
        c = rem.pop(x)
        out[lam] = Poly(0, tw, c)
        stw, groups = _schur_groups(lam, n)
        up = F * (tw - stw)
        products = []
        for sx, sg in groups.items():
            if sx != x:
                if up:
                    sg = {k << up: v for k, v in sg.items()}
                products.append((rem.setdefault(sx, {}), -1, c, sg))
        _multiply_into(products)
        for sx in groups:
            if sx in rem and not rem[sx]:
                del rem[sx]
    return SchurExpansion._trusted(n, out)


def _addable(lam, n):
    """Partitions obtained from lam by adding one box, at most n rows."""
    row = lam + (0,)
    return [lam[:r] + (row[r] + 1,) + lam[r + 1:]
            for r in range(min(len(lam) + 1, n)) if r == 0 or row[r - 1] > row[r]]


def _pieri_diagonal(lam, n):
    """d(lam) = -(t_{lam_1+n} + t_{lam_2+n-1} + ... + t_{lam_n+1}), the
    coefficient of s_lam in (x1 + ... + xn) * s_lam."""
    diag = Poly.zero(0)
    for a in add_staircase(lam, n):
        diag = diag - Poly.t(a + 1)
    return diag


@lru_cache(maxsize=None)
def _pieri_step(lam, n):
    """`pieri_multiply` of a normalized partition lam, memoized per (lam, n)."""
    coeffs = {lam: _pieri_diagonal(lam, n)}
    for grown in _addable(lam, n):
        coeffs[grown] = Poly.one()
    return SchurExpansion._trusted(n, coeffs)


def pieri_multiply(lam, n):
    """Expansion of (x1 + ... + xn) times the double Schur polynomial of lam:
    coefficient `_pieri_diagonal` d(lam) on lam itself and coefficient 1 on
    each of the `_addable` partitions, lam plus one box in at most n rows.

    Memoized per normalized (lam, n): the result is shared between callers
    and must not be mutated (copy `.coeffs` before editing it)."""
    return _pieri_step(partition(lam), n)


class SchurExpansion:
    """A finite map from partitions to t-only coefficients: the coordinates
    of a symmetric polynomial in the double Schur basis."""

    __slots__ = ("n", "coeffs")

    def __init__(self, n, coeffs):
        if n < 1:
            raise ValueError("arity must be at least 1")
        self.n = n
        clean = {}
        for lam, c in coeffs.items():
            lam = partition(lam)
            if len(lam) > n:
                raise ValueError(f"partition {lam} has more than {n} parts")
            if isinstance(c, int):
                c = Poly.const(c)
            if c.nx != 0:
                c = c.t_only()
            if c:
                clean[lam] = c
        self.coeffs = clean

    @classmethod
    def _trusted(cls, n, coeffs):
        """An expansion whose map the caller built already clean: normalized
        partitions of at most n parts to nonzero arity-0 coefficients.  The
        constructor of the internal producers, which checks the arity only."""
        if n < 1:
            raise ValueError("arity must be at least 1")
        self = object.__new__(cls)
        self.n = n
        self.coeffs = coeffs
        return self

    @classmethod
    def unit(cls, lam, n):
        return cls(n, {partition(lam): Poly.one()})

    def get(self, lam):
        return self.coeffs.get(partition(lam), Poly.zero(0))

    def items(self):
        """(partition, coefficient) pairs in lexicographic partition order."""
        return [(lam, self.coeffs[lam]) for lam in sorted(self.coeffs)]

    def is_zero(self):
        return not self.coeffs

    def __bool__(self):
        return bool(self.coeffs)

    def __eq__(self, other):
        if not isinstance(other, SchurExpansion):
            return NotImplemented
        return self.n == other.n and self.coeffs == other.coeffs

    __hash__ = None

    def __repr__(self):
        body = ", ".join(f"{lam}: {c}" for lam, c in self.items())
        return f"SchurExpansion(n={self.n}, {{{body}}})"

    def to_obj(self):
        """JSON form, partitions in lexicographic order.  The coefficients
        share one memo (`poly._term_objs`), so terms within the returned
        tree share their exponent objects: treat it as read-only."""
        memo = {}
        return {
            "n": self.n,
            "terms": [{"lambda": list(lam), "coeff": _poly_obj(c, memo)}
                      for lam, c in self.items()],
        }

    @classmethod
    def from_obj(cls, obj):
        return cls(obj["n"], {tuple(item["lambda"]): poly_from_obj(item["coeff"], nx=0)
                              for item in obj["terms"]})


def expansion_to_poly(e):
    """Evaluate a SchurExpansion back to the symmetric polynomial it names."""
    out = _sums_of_products(e.n, ((0, 1, c.as_arity(e.n), double_schur(lam, e.n))
                                  for lam, c in e.coeffs.items()))
    return out.get(0, Poly.zero(e.n))
