"""Double Schur polynomials and the bases around them.

Double monomials (x|t)^k = (x + t1)...(x + tk) generate a basis of the
polynomial ring in one variable over Z[t1, t2, ...]; alternants (the
skew-symmetric determinants det((x_i|t)^{nu_j})) give a basis of the
skew-symmetric polynomials indexed by strictly decreasing sequences nu.
The double Schur polynomial of a partition is built by branching on the
last variable or, for a partition of n parts, as its first column
(x1 + t1)...(xn + t1) times the polynomial of the rest at t-indices
raised by one; the alternant ratio it equals is its test oracle.  This
module also provides the expansion in the double Schur basis and the Pieri
rule for multiplication by x1 + ... + xn.  A double Schur polynomial,
x1 + ... + xn and their products are a private subclass of `Poly` that
also holds its dominant groups, a format no other module reads.

Sign convention: double monomials use (x + t_i), not (x - t_i).
"""

from collections import Counter, defaultdict
from functools import lru_cache
from itertools import combinations, groupby, product
from math import factorial, prod
from operator import itemgetter, lt

from .poly import (F, FIELD, Poly, _bounded, _degree, _multiply_into, _pooled,
                   _sums_of_products, _whole, poly_from_obj, poly_to_obj)

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
    """Normalize to a weakly decreasing tuple of positive integers.  Each
    part must equal its int: ints, bools and integral floats are read as
    ints, while 2.5, or the characters of a string, raise ValueError."""
    raw = tuple(parts)
    parts = tuple(map(int, raw))
    if parts != raw:
        raise ValueError(f"non-integral part in {raw}")
    if min(parts, default=0) < 0:
        raise ValueError(f"negative part in {parts}")
    if any(map(lt, parts, parts[1:])):
        raise ValueError(f"parts not weakly decreasing: {parts}")
    while parts and parts[-1] == 0:
        parts = parts[:-1]
    return parts


def _arity(n):
    """The arity n, the number of x-variables, as a plain int >= 1 (`_whole`)."""
    return _whole(n, 1)


def strict_sequence(parts, n=None):
    """Validate a strictly decreasing tuple of nonnegative integers.  Each
    entry must equal its int, as in `partition`."""
    raw = tuple(parts)
    parts = tuple(map(int, raw))
    if parts != raw:
        raise ValueError(f"non-integral entry in {raw}")
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
    """x1 + ... + xn, a `_Symmetric` with its one dominant group (x1,
    coefficient 1), so that its product with s_lam is formed from the
    groups; its terms are written on first read.  The arity-0 zero
    polynomial at n = 0."""
    n = _whole(n, 0)
    if not n:
        return Poly.zero(0)
    return _Symmetric(n, 0, {1 << F * (n - 1): {0: 1}}, 1)


def double_monomial(k, var=1, nvars=1):
    """The double monomial (x_var|t)^k = (x_var + t1)...(x_var + tk),
    expanded; (x|t)^0 = 1.  Monic of degree k in x_var.  k and nvars are
    read by `_whole` before the memo, so True and 1 share an entry."""
    return _double_monomial(_whole(k, 0, "exponent"), var, _arity(nvars))


@lru_cache(maxsize=None)
def _double_monomial(k, var, nvars):
    """`double_monomial` of plain ints, memoized per (k, var, nvars)."""
    acc = Poly.one(nvars)
    xi = Poly.x(var, nvars)
    for j in range(1, k + 1):
        acc = acc * (xi + Poly.t(j, nvars))
    return acc


double_monomial.cache_info = _double_monomial.cache_info
double_monomial.cache_clear = _double_monomial.cache_clear


def alternant(nu, n):
    """The skew-symmetric basis element indexed by a strictly decreasing
    sequence: the n x n determinant det( (x_i|t)^{nu_j} ).

    Computed by cofactor expansion over row subsets, consuming columns
    left to right; no division is performed.  nu is validated before the
    memo is read, so any sequence type is accepted.
    """
    n = _arity(n)
    return _alternant(strict_sequence(nu, n), n)


@lru_cache(maxsize=None)
def _alternant(nu, n):
    """`alternant` of a validated tuple nu, memoized per (nu, n)."""
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


alternant.cache_info = _alternant.cache_info
alternant.cache_clear = _alternant.cache_clear


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
    """Every packed x-exponent whose parts rearrange those of x, each once:
    the parts, in sorted order, are inserted one at a time at every position
    of each distinct arrangement of the parts before them."""
    members = {()}
    for e in sorted((x >> F * i) & FIELD for i in range(n)):
        members = {a[:i] + (e,) + a[i:] for a in members for i in range(len(a) + 1)}
    return tuple(sum(e << F * i for i, e in enumerate(a)) for a in members)


@lru_cache(maxsize=None)
def _dominant_sums(x, y, n):
    """The dominant sums z = ax + by of an orbit member ax of the packed
    x-exponent x and one by of y, as sorted pairs (z, count), count the
    number of pairs (ax, by) that meet z: `_Symmetric._times` adds the product
    of x's and y's groups at z, scaled by count.

    S_n moves the pairs whose sum lies in the orbit of z onto one another,
    and every ax pairs with as many by as x does, so count is
    |orbit(x)| * #{by : x + by sorts to z} / |orbit(z)|.  x may be any
    member of its orbit, and the roles of x and y are symmetric, so x is
    taken from the larger orbit and only the smaller one is walked.  The
    sums are sorted by `_orbit`'s unmemoized body, so that its memo keeps
    the dominant z alone."""
    if _orbit(x, n)[2] < _orbit(y, n)[2]:
        x, y = y, x
    hits = Counter(_orbit.__wrapped__(x + by, n)[0] for by in _orbit_members(y, n))
    return tuple(sorted((z, _orbit(x, n)[2] * c // _orbit(z, n)[2]) for z, c in hits.items()))


def _dominant(groups, n, every=False):
    """The groups with a weakly decreasing ("dominant") exponent of a
    polynomial in x1..xn, given as a map from packed x-exponents to their
    coefficients; None if the polynomial is not symmetric.  The map holds
    every group (every: a flat polynomial) or, of a polynomial symmetric in
    x1..x_{n-1}, those with x1..x_{n-1} weakly decreasing: one member of
    each orbit per distinct part (the part left to x_n).  The polynomial is
    symmetric under all of S_n exactly when every given group equals its
    sorted exponent's and every orbit present has that many given members."""
    dominant, members, sizes = {}, {}, {}
    for x, g in groups.items():
        d, _, size, distinct = _orbit(x, n)
        if d == x:
            dominant[d] = g
            sizes[d] = size if every else distinct
        elif groups.get(d) != g:
            return None
        members[d] = members.get(d, 0) + 1
    return dominant if members == sizes else None


def _peel_width(tw, n, groups):
    """The t-width of a peel of the dominant groups of a polynomial in
    x1..xn at t-width tw: its largest x-exponent is dominant, so that
    exponent's x1-part bounds every lam_1 met, and s_lam's largest t-index
    is n + lam_1 - 1."""
    return max(tw, n - 1 + (max(groups, default=0) >> F * (n - 1)))


def _dominant_groups(p):
    """The groups of p at weakly decreasing ("dominant") x-exponents, as
    elements of Z[t]: the coefficient of x^a, an arity-0 term dict at the
    t-width of p's peel (`_peel_width`) keyed by the packed exponent a at
    bit 0.  None if p is not symmetric.

    One pass sorts the terms into their groups, each keyed by its term's
    degree field and t-part, which the members of one orbit share; then
    `_dominant` checks every group against its sorted exponent's and counts
    the members of each orbit.  Only the kept groups are rewritten, once,
    their degree fields lowered by the x-degree and their t-parts widened
    to the peel's width, after the others are let go."""
    n, sh = p.nx, F * p.tw
    hi, tmask = sh + F * n, (1 << sh) - 1
    xmask = ((1 << F * n) - 1) << sh
    groups = defaultdict(dict)
    for k, c in p.terms.items():
        x = k & xmask
        groups[x][k - x] = c
    kept = _dominant({x >> sh: g for x, g in groups.items()}, n, every=True)
    del groups
    if kept is None:
        return None
    up = F * (_peel_width(p.tw, n, kept) - p.tw)
    return {x: {(((k >> hi) - deg) << sh | k & tmask) << up: c for k, c in g.items()}
            for x, g in kept.items() for deg in [_orbit(x, n)[1]]}


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


def _branches(lam, n):
    """The terms of `_schur_groups`'s branching on x_n: each partition mu
    with lam_{i+1} <= mu_i <= lam_i (lam padded to n parts), normalized,
    with the t-indices of its strip lam/mu (`_strip_indices`)."""
    padded = lam + (0,) * (n - len(lam))
    return [(mu[:len(mu) - mu.count(0)], _strip_indices(padded, mu, n))
            for mu in product(*(range(padded[i + 1], padded[i] + 1) for i in range(n - 1)))]


# every packed monomial that `_schur_groups` stores, mapped to itself
_keys = {}


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

    A partition of n parts takes no branching.  In the alternant form
    s_lam = det((x_i|t)^{lam_j+n-j}) / det((x_i|t)^{n-j}) (same sources)
    every numerator entry has exponent at least 1 when lam_n >= 1, and
    (x_i|t)^k = (x_i + t_1)(x_i|t_2, t_3, ...)^{k-1}, so row i gives up
    x_i + t_1; the denominator is the Vandermonde, free of t.  So s_lam is
    the column factor (x1 + t_1)...(xn + t_1), whose group of
    x^{(1^k 0^{n-k})} is t_1^{n-k} at t-width 1, times s_{lam - 1^n} with
    every t-index raised by one: at t-width w + 1, each key's degree field
    moves up one slot and its t-fields keep their bits.  `_Symmetric._times`
    forms the product, which is symmetric as both factors are, so it has no
    check to pass; each column is one level of recursion.

    Only the groups with x1..x_{n-1} weakly decreasing are formed.  The
    group of x^a x_n^k gathers, over mu, s_mu's dominant group of x^a times
    the x_n^k-coefficient of mu's strip (`_strip_coefficients`), all in one
    `_multiply_into` batch.  Each s_mu was checked symmetric when it was
    built and the strip involves x_n and t only, so the sum is symmetric in
    x1..x_{n-1}, and `_dominant` on these representatives checks symmetry
    under all of S_n.  Every product has degree at most |lam|.  Only shapes
    of fewer than n parts branch.

    The groups are stored rewritten once with every key taken from the pool
    `_keys`, so that equal keys of all stored shapes are one int object."""
    if n == 0:
        return 0, {0: {0: 1}}
    _bounded(sum(lam))
    if len(lam) == n:
        stw, rest = _schur_groups(tuple(p - 1 for p in lam if p > 1), n)
        sh = F * stw
        lift = (1 << sh + F) - (1 << sh)
        ones = [sum(1 << F * (n - i) for i in range(1, k + 1)) for k in range(n + 1)]
        column = _Symmetric(n, 1, {x: {(n - k) << F | n - k: 1} for k, x in enumerate(ones)}, n)
        shifted = _Symmetric(n, stw + 1, {x: {k + (k >> sh) * lift: c for k, c in g.items()}
                                          for x, g in rest.items()}, sum(lam) - n)
        built = column._times(shifted)
        return built.tw, {x: _pooled(g, _keys) for x, g in built._groups.items()}
    parents = [(_schur_groups(mu, n - 1), indices) for mu, indices in _branches(lam, n)]
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
    dominant = _dominant(groups, n)
    if dominant is None:
        raise RuntimeError(f"double Schur polynomial of {lam} came out asymmetric")
    return tw, {x: _pooled(g, _keys) for x, g in dominant.items()}


def _localization(kappa, mu, n, memo):
    """The restriction of kappa's Schubert class to mu's fixed point
    (Knutson-Tao, Duke Math. J. 119, 2003): the double Schur polynomial of
    kappa in x1..xn at x_k = -t_{a_k}, a_k = mu_k + n - k + 1, an arity-0
    Poly at t-width a_1; kappa and mu are normalized, of at most n parts.

    It is the sum over the excited Young diagrams C of kappa in mu of the
    product over the cells (i, j) of C of t_{b_j} - t_{a_i}, with
    b_j = n + j - mu'_j (Ikeda-Naruse, Trans. AMS 361, 2009): kappa's
    diagram, if it fits in mu, and every diagram reached by moving a cell
    (i, j) of C to (i+1, j+1) when (i+1, j+1) lies in mu and none of
    (i+1, j), (i, j+1), (i+1, j+1) lies in C.  A move adds one to the sum
    of the row indices, so the diagrams reached in k moves are one set,
    met at no other k.  They are summed as a trie of their rows, one
    `_multiply_into` batch per node; a row's b_j are distinct and none is
    a_i, so its product has no two equal monomials.  `memo`, shared
    between points, maps (kappa, mu) to the value, pooled through it."""
    tw = (mu[0] if mu else 0) + n
    if not kappa:
        return Poly(0, tw, {0: 1})
    _bounded(sum(kappa))
    got = memo.get((kappa, mu))
    if got is None:
        unit = [1 << F * tw | 1 << F * (tw - c) for c in range(tw + 1)]
        a = [unit[p + n - i] for i, p in enumerate(mu)]
        b = [unit[n + j - sum(p >= j for p in mu)] for j in range(tw - n + 1)]
        inside = {(i, j) for i, p in enumerate(mu, 1) for j in range(1, p + 1)}
        start = frozenset((i, j) for i, p in enumerate(kappa, 1) for j in range(1, p + 1))
        level, trie = {start} if start <= inside else set(), {}
        while level:
            for cells in level:
                node = trie
                for i, row in groupby(sorted(cells), itemgetter(0)):
                    node = node.setdefault((a[i - 1], tuple(b[j] for _, j in row)), {})
            level = {cells - {(i, j)} | {(i + 1, j + 1)} for cells in level for i, j in cells
                     if (i + 1, j + 1) in inside
                     and not {(i + 1, j), (i, j + 1), (i + 1, j + 1)} & cells}

        def total(node):
            out, products = {}, []
            for (ai, units), below in node.items():
                row = {k * ai + sum(s): (-1) ** k for k in range(len(units) + 1)
                       for s in combinations(units, len(units) - k)}
                products.append((out, 1, row, total(below) if below else {0: 1}))
            _multiply_into(products)
            return out

        memo[kappa, mu] = got = _pooled(total(trie), memo)
    return Poly(0, tw, got)


class _Symmetric(Poly):
    """s_lam, x_sum or a product of them, in x1..xn: a `Poly` that also
    holds its dominant groups, in the form of `_schur_groups`, and its
    degree, of which it is homogeneous.  Neither takes part in equality or
    repr.  The groups may be a cached `_schur_groups` entry, so they are
    read-only.  The `terms` slot is left unset until its first read, so
    that no flat term is written for a caller that reads the groups alone:
    the product of two such polynomials and the peel."""

    __slots__ = ("_groups", "_degree")

    def __init__(self, n, tw, groups, degree):
        self.nx, self.tw, self._difference = n, tw, None
        self._groups, self._degree = groups, degree

    def __getattr__(self, name):
        """Called only when normal lookup fails, which for an unset slot is
        `terms` before its first read: write the terms (`_flat`) and store
        them.  Any other missing name raises AttributeError, worded as on
        a plain `Poly`."""
        if name != "terms":
            raise AttributeError(f"'Poly' object has no attribute {name!r}", name=name, obj=self)
        self.terms = terms = self._flat()
        return terms

    def _flat(self):
        """The terms at t-width tw: the Z[t] coefficient of x^a goes to every
        rearrangement y of a.  Of a polynomial homogeneous of its degree, the
        group of x^a holds t-degree degree - |a| in every key, and adding
        `off` sets the degree field and the x-fields to y.  `__getattr__`
        reports an AttributeError raised here as a missing `terms`."""
        n, sh, size = self.nx, F * self.tw, self._degree
        top = size << sh + F * n
        return {k + off: c for x, g in self._groups.items()
                for base in [top - ((size - _orbit(x, n)[1]) << sh)]
                for off in [base + (y << sh) for y in _orbit_members(x, n)]
                for k, c in g.items()}

    def __mul__(self, other):
        """`_times` forms a product with another `_Symmetric` of the same
        arity when both have positive degree; one of degree 0, s_() = 1, is
        handed to `Poly.__mul__` as the operand it reads first.  Any other
        product is `Poly.__mul__`'s, which checks the arity first; so is a
        reflected one, since its left operand is no `_Symmetric`."""
        if isinstance(other, _Symmetric) and other.nx == self.nx:
            if self._degree and other._degree:
                return self._times(other)
            if not self._degree:
                self, other = other, self
        return Poly.__mul__(self, other)

    def _times(self, other):
        """The product with another `_Symmetric` of the same arity n, formed
        from the dominant groups alone.

        The group of a dominant z in the product is the sum, over the
        x-exponents a of one factor and the rearrangements y of the dominant
        exponents b of the other with a + y = z, of the product of the
        groups of a and b: the other factor's group of y is its group of b.
        The a run over the x-exponents of self, each a rearrangement of one
        of its dominant exponents x, and for each pair of dominant exponents
        x, b the sums a + y that are dominant, with the number of pairs
        (a, y) that meet each, are read from the memo `_dominant_sums`
        before any coefficient is touched; that number scales the one
        product of the groups of x and b added there.  Every product goes
        into one `_multiply_into` batch, and the degree is `_bounded` as in
        `Poly.__mul__`.  `_schur_groups` builds a shape of n parts as one
        such product, its first column times the rest."""
        a, b, n = self, other, self.nx
        _bounded(a._degree + b._degree)
        tw = max(a.tw, b.tw)
        ua, ub = F * (tw - a.tw), F * (tw - b.tw)
        rows = [(y, {k << ub: c for k, c in h.items()} if ub else h) for y, h in b._groups.items()]
        groups, products = {}, []
        for x, g in a._groups.items():
            if ua:
                g = {k << ua: c for k, c in g.items()}
            for y, h in rows:
                products += [(groups.setdefault(z, {}), count, g, h)
                             for z, count in _dominant_sums(x, y, n)]
        _multiply_into(products)
        return _Symmetric(n, tw, {z: g for z, g in groups.items() if g}, a._degree + b._degree)


def double_schur(lam, n):
    """The double Schur polynomial of lam in x1..xn, a `_Symmetric` with the
    dominant groups of `_schur_groups`, so that its product with x_sum,
    another s_mu or a product of them is formed from the groups alone, and
    `expand_in_double_schur` peels it from them.  Its flat terms,
    the Z[t] coefficient of x^a at every rearrangement of a, are written on
    their first read (a product with any other polynomial, or
    `expansion_to_poly`) and kept by the result, so they are freed with the
    caller's references.  Its one memo is that of the groups, emptied with
    their key pool `_keys` by `double_schur.cache_clear`: lam is normalized
    before `_schur_groups` is read, so [2, 1, 0] and (2, 1) share one entry."""
    n = _arity(n)
    lam = partition(lam)
    if len(lam) > n:
        raise ValueError(f"partition {lam} has more than {n} parts")
    return _Symmetric(n, *_schur_groups(lam, n), sum(lam))


def _clear_schur_groups():
    _schur_groups.cache_clear()
    _keys.clear()


double_schur.cache_info = _schur_groups.cache_info
double_schur.cache_clear = _clear_schur_groups


def expand_in_double_schur(p, n):
    """Expand a symmetric polynomial in the double Schur basis.

    Under lexicographic order on the x-exponents the leading x-monomial of
    the double Schur polynomial of lam is x^lam with coefficient 1, so the
    leading term of p determines one summand at a time: subtract it and
    recurse.  The leading x-monomial strictly decreases and the total
    x-degree never grows, so this terminates.

    Only the dominant groups of p are kept: dropping the others is linear,
    the leading exponent of a symmetric polynomial is dominant, and one with
    no dominant term is zero.  A `_Symmetric` p (s_lam, x_sum and their
    products, symmetric as built) is peeled from fresh copies of its groups
    at the peel's width (`_peel_width`), since they may be a cached
    `_schur_groups` entry, and its flat terms are never read, so never
    written.  Any other p (a sum, an `expansion_to_poly`, a product with a
    plain factor) is checked symmetric and its groups are read off its
    terms by `_dominant_groups`, which writes them once, at that width.
    The remainder and each s_lam (`_schur_groups`) are then maps from
    dominant x-exponents to Z[t] coefficients.  A step pops the leading
    group, which is the coefficient of s_lam as it stands; s_lam's own group
    of x^lam is 1, so every other group of s_lam is subtracted times it.  A
    group that cancels to nothing stays in the remainder and is skipped when
    it is popped, so no step sweeps for emptied groups.  No product exceeds
    p's degree.
    """
    n = _arity(n)
    if p.nx != n:
        raise ValueError(f"expected a polynomial in x1..x{n}, got arity {p.nx}")
    if not isinstance(p, _Symmetric):
        # read groups are fresh and at the peel's width: they are the remainder
        rem = _dominant_groups(p)
        if rem is None:
            raise ValueError("polynomial is not symmetric")
        _bounded(_degree(p))
        tw = _peel_width(p.tw, n, rem)
    else:
        # its degree is below the bound: every writer of groups raises past it
        tw = _peel_width(p.tw, n, p._groups)
        up = F * (tw - p.tw)
        rem = {x: {k << up: c for k, c in g.items()} for x, g in p._groups.items()}
    out = {}
    while rem:
        x = max(rem)
        c = rem.pop(x)
        if not c:
            continue
        lam = partition((x >> F * (n - i)) & FIELD for i in range(1, n + 1))
        out[lam] = Poly(0, tw, c)
        stw, sgroups = _schur_groups(lam, n)
        up = F * (tw - stw)
        products = []
        for sx, sg in sgroups.items():
            if sx != x:
                if up:
                    sg = {k << up: v for k, v in sg.items()}
                products.append((rem.setdefault(sx, {}), -1, c, sg))
        _multiply_into(products)
    return SchurExpansion._trusted(n, out)


@lru_cache(maxsize=None)
def _addable(lam, n):
    """Partitions obtained from lam by adding one box, at most n rows: a
    tuple, memoized per normalized (lam, n)."""
    row = lam + (0,)
    return tuple(lam[:r] + (row[r] + 1,) + lam[r + 1:]
                 for r in range(min(len(lam) + 1, n)) if r == 0 or row[r - 1] > row[r])


# the coefficient 1 of every addable shape in a Pieri expansion, one shared Poly
_one = Poly.one()


@lru_cache(maxsize=None)
def _pieri_diagonal(lam, n):
    """d(lam) = -(t_{lam_1+n} + t_{lam_2+n-1} + ... + t_{lam_n+1}), the
    coefficient of s_lam in (x1 + ... + xn) * s_lam: an arity-0 Poly,
    memoized per normalized (lam, n), the one Pieri memo of a coefficient."""
    diag = Poly.zero(0)
    for a in add_staircase(lam, n):
        diag = diag - Poly.t(a + 1)
    return diag


def pieri_multiply(lam, n):
    """Expansion of (x1 + ... + xn) times the double Schur polynomial of lam:
    coefficient `_pieri_diagonal` d(lam) on lam itself and coefficient 1 on
    each of the `_addable` partitions, lam plus one box in at most n rows.

    d(lam) and the addable shapes are memoized, and every coefficient 1 is
    one shared `Poly` (a Poly is immutable): each call builds a fresh map,
    which the caller may edit.  n is read by `_arity` first, so True and 1
    share the memo entries of n = 1."""
    lam, n = partition(lam), _arity(n)
    return SchurExpansion._trusted(n, {lam: _pieri_diagonal(lam, n),
                                       **dict.fromkeys(_addable(lam, n), _one)})


class _Record:
    """Field-wise equality and a `Name(field=value, ...)` repr over the
    names in `_fields`, for the small value classes here and in `grass` and
    `wedge`.  Equal only to an instance of the same class, and unhashable
    unless a subclass says otherwise; it adds no `__dict__` of its own."""

    __slots__ = ()
    _fields = ()

    def _values(self):
        return tuple(getattr(self, name) for name in self._fields)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    __hash__ = None

    def __repr__(self):
        body = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__name__}({body})"


class _Coordinates(_Record):
    """Coordinates in one of the two models of the ring: the last of
    `_fields`, after the fields that fix the basis, maps basis indices to
    nonzero t-only coefficients.  `_key` names an index in JSON, and
    `_index` normalizes one for `get`."""

    __slots__ = ()

    def _map(self):
        return getattr(self, self._fields[-1])

    def items(self):
        """(index, coefficient) pairs in lexicographic index order."""
        return sorted(self._map().items())

    def get(self, index):
        return self._map().get(self._index(index), Poly.zero(0))

    def is_zero(self):
        return not self._map()

    def __bool__(self):
        return bool(self._map())

    def __repr__(self):
        head = "".join(f"{name}={getattr(self, name)}, " for name in self._fields[:-1])
        body = ", ".join(f"{k}: {c}" for k, c in self.items())
        return f"{type(self).__name__}({head}{{{body}}})"

    def to_obj(self):
        """JSON form: the header fields, then the terms in index order, each
        coefficient written by `poly_to_obj`: fresh objects on each call."""
        return {**{name: getattr(self, name) for name in self._fields[:-1]},
                "terms": [{self._key: list(k), "coeff": poly_to_obj(c)}
                          for k, c in self.items()]}

    @classmethod
    def from_obj(cls, obj):
        return cls(*(obj[name] for name in cls._fields[:-1]),
                   {tuple(item[cls._key]): poly_from_obj(item["coeff"], nx=0)
                    for item in obj["terms"]})


class SchurExpansion(_Coordinates):
    """A finite map from partitions to t-only coefficients: the coordinates
    of a symmetric polynomial in the double Schur basis."""

    __slots__ = _fields = ("n", "coeffs")
    _key, _index = "lambda", staticmethod(partition)

    def __init__(self, n, coeffs):
        self.n = n = _arity(n)
        clean = {}
        for lam, c in coeffs.items():
            lam = partition(lam)
            if len(lam) > n:
                raise ValueError(f"partition {lam} has more than {n} parts")
            c = c.t_only() if isinstance(c, Poly) else Poly.const(c)
            if c:
                clean[lam] = c
        self.coeffs = clean

    @classmethod
    def _trusted(cls, n, coeffs):
        """An expansion whose map the caller built already clean: normalized
        partitions of at most n parts to nonzero arity-0 coefficients.  The
        constructor of the internal producers, which read the arity by
        `_arity` before the call: it trusts n and the map."""
        self = object.__new__(cls)
        self.n = n
        self.coeffs = coeffs
        return self

    @classmethod
    def unit(cls, lam, n):
        return cls(n, {partition(lam): Poly.one()})


def expansion_to_poly(e):
    """Evaluate a SchurExpansion back to the symmetric polynomial it names:
    the sum of c_lam times s_lam, in one `_sums_of_products` batch.  The
    result is a plain `Poly`, not a `_Symmetric`, so its products go
    through the kernel and its peel through `_dominant_groups`, which checks
    it symmetric."""
    out = _sums_of_products(e.n, ((0, 1, c.as_arity(e.n), double_schur(lam, e.n))
                                  for lam, c in e.coeffs.items()))
    return out.get(0, Poly.zero(e.n))
