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

from .poly import F, FIELD, Poly, _multiply_into, poly_from_obj, poly_to_obj

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
    sorted (dominant) form, its number of members n!/prod(m_i!) (m_i the
    multiplicities of the parts, zeros included), and its number of members
    with x1..x_{n-1} weakly decreasing, one per distinct part (the part left
    to x_n)."""
    parts = sorted((x >> F * i) & FIELD for i in range(n))
    mult = Counter(parts)
    return (sum(e << F * i for i, e in enumerate(parts)),
            factorial(n) // prod(map(factorial, mult.values())), len(mult))


@lru_cache(maxsize=None)
def _orbit_members(x, n):
    """Every packed x-exponent whose parts rearrange those of x."""
    parts = [(x >> F * i) & FIELD for i in range(n)]
    return tuple({sum(e << F * i for i, e in enumerate(perm))
                  for perm in permutations(parts)})


def _dominant_groups(p, representatives=False):
    """Group p's terms by x-exponent, x-fields cleared.  None if p is not
    symmetric (some group differs from its sorted exponent's, or an orbit
    lacks some of its n!/prod(m_i!) members), else the groups with a weakly
    decreasing ("dominant") exponent, keyed by that exponent shifted down
    to bit 0.

    With `representatives`, p holds only the terms with x1..x_{n-1} weakly
    decreasing of a polynomial already symmetric in x1..x_{n-1}.  Every
    term of that polynomial is then an S_{n-1}-rearrangement of one in p
    with the same coefficient, and each orbit has one such member per
    distinct part, so the same two checks with that count in place of
    n!/prod(m_i!) are symmetry under all of S_n."""
    n, sh = p.nx, F * p.tw
    xmask = ((1 << F * n) - 1) << sh
    groups = defaultdict(dict)
    for k, c in p.terms.items():
        x = k & xmask
        groups[x][k ^ x] = c
    dominant, members, sizes = {}, {}, {}
    for x, g in groups.items():
        d, size, distinct = _orbit(x >> sh, n)
        if d << sh == x:
            dominant[d] = g
            sizes[d] = distinct if representatives else size
        elif groups.get(d << sh) != g:
            return None
        members[d] = members.get(d, 0) + 1
    return dominant if members == sizes else None


@lru_cache(maxsize=None)
def _schur_groups(lam, n):
    """The double Schur polynomial of a partition lam with at most n parts,
    as its t-width and its dominant groups (`_dominant_groups`), built by
    branching on x_n (Macdonald 1992, 6th variation; Molev-Sagan, Trans.
    AMS 351, 1999): s_lam = sum over mu with lam_{i+1} <= mu_i <= lam_i of
    s_mu(x1..x_{n-1}) times prod over boxes (i,j) of lam/mu of
    (x_n + t_{n+j-i}).

    Only the terms with x1..x_{n-1} weakly decreasing are formed.  A term
    (a_1..a_{n-1}, k) of the sum comes from a term (a_1..a_{n-1}) of some
    s_mu and a strip term in x_n^k, so those terms are exactly the sum over
    mu of s_mu's dominant groups, lifted to arity n at the build's t-width,
    times the strip; they are summed in one pass.  Each s_mu was checked
    symmetric when it was built (n = 1 trivially) and the strip involves
    x_n and t only, so the sum is symmetric in x1..x_{n-1}, and
    `_dominant_groups` on these representatives checks symmetry under all
    of S_n."""
    if n == 1:
        reps = double_monomial(sum(lam))
    else:
        padded = lam + (0,) * (n - len(lam))
        xn = Poly.x(n, n)
        parents = []
        for mu in product(*(range(padded[i + 1], padded[i] + 1) for i in range(n - 1))):
            strip = Poly.one(n)
            for i, (lo, hi) in enumerate(zip(mu + (0,), padded), 1):
                for j in range(lo + 1, hi + 1):
                    strip = strip * (xn + Poly.t(n + j - i, n))
            parents.append((_schur_groups(partition(mu), n - 1), strip))
        tw = max(max(stw, strip.tw) for (stw, _), strip in parents)
        summands = []
        for (stw, groups), strip in parents:
            # insert a zero x_n field above the t-fields, pad the t-fields to tw
            sh, up = F * stw, F * (tw - stw)
            hi, tmask = F * (tw + 1), (1 << sh) - 1
            lifted = {(x | k >> sh) << hi | (k & tmask) << up: c
                      for x, g in groups.items() for k, c in g.items()}
            summands.append((1, Poly(n, tw, lifted), strip))
        reps = Poly.sum_of_products(summands)
    dominant = _dominant_groups(reps, representatives=True)
    if dominant is None:
        raise RuntimeError(f"double Schur polynomial of {lam} came out asymmetric")
    return reps.tw, dominant


@lru_cache(maxsize=None)
def double_schur(lam, n):
    """The double Schur polynomial of lam in x1..xn: every orbit member of
    every dominant group of `_schur_groups`.  The build and
    `expand_in_double_schur` read the groups alone; this flat form is
    written out only for a caller that asks for it."""
    if n < 1:
        raise ValueError("arity must be at least 1")
    lam = partition(lam)
    if len(lam) > n:
        raise ValueError(f"partition {lam} has more than {n} parts")
    tw, dominant = _schur_groups(lam, n)
    sh = F * tw
    return Poly(n, tw, {y << sh | k: c for x, g in dominant.items()
                        for y in _orbit_members(x, n) for k, c in g.items()})


def expand_in_double_schur(p, n):
    """Expand a symmetric polynomial in the double Schur basis.

    Under lexicographic order on the x-exponents the leading x-monomial of
    the double Schur polynomial of lam is x^lam with coefficient 1, so the
    leading term of p determines one summand at a time: subtract it and
    recurse.  The leading x-monomial strictly decreases and the total
    x-degree never grows, so this terminates.

    Only dominant groups (`_dominant_groups`) are kept: dropping the others
    is linear, the leading exponent of a symmetric polynomial is dominant,
    and one with no dominant term is zero.  No x-exponent of s_lam exceeds
    lam_1 <= p's largest x1-exponent, so every s_lam fits p's t-width
    widened to n + lam_1 - 1.
    """
    if p.nx != n:
        raise ValueError(f"expected a polynomial in x1..x{n}, got arity {p.nx}")
    rem = _dominant_groups(p)
    if rem is None:
        raise ValueError("polynomial is not symmetric")
    tw = max(p.tw, n - 1 + (max(rem, default=0) >> F * (n - 1)))
    up = F * (tw - p.tw)
    if up:
        rem = {x: {k << up: c for k, c in g.items()} for x, g in rem.items()}
    sh, shift, tmask = F * tw, F * (n + tw), (1 << F * tw) - 1
    out = {}
    while rem:
        x = max(rem)
        lam = partition((x >> F * (n - i)) & FIELD for i in range(1, n + 1))
        deg = sum(lam) << shift
        c = {k - deg: v for k, v in rem[x].items()}
        out[lam] = Poly(0, tw, {(k >> shift << sh) | (k & tmask): v for k, v in c.items()})
        stw, groups = _schur_groups(lam, n)
        up = F * (tw - stw)
        for sx, sg in groups.items():
            if up:
                sg = {k << up: v for k, v in sg.items()}
            r = rem.setdefault(sx, {})
            _multiply_into(r, -1, c, sg, shift)
            if not r:
                del rem[sx]
    return SchurExpansion(n, out)


def _addable(lam, n):
    """Partitions obtained from lam by adding one box, at most n rows."""
    row = lam + (0,)
    return [lam[:r] + (row[r] + 1,) + lam[r + 1:]
            for r in range(min(len(lam) + 1, n)) if r == 0 or row[r - 1] > row[r]]


@lru_cache(maxsize=None)
def _pieri_diagonal(lam, n):
    """d(lam) = -(t_{lam_1+n} + t_{lam_2+n-1} + ... + t_{lam_n+1}), the
    coefficient of s_lam in (x1 + ... + xn) * s_lam."""
    diag = Poly.zero(0)
    for a in add_staircase(lam, n):
        diag = diag - Poly.t(a + 1)
    return diag


def pieri_multiply(lam, n):
    """Expansion of (x1 + ... + xn) times the double Schur polynomial of lam:
    coefficient `_pieri_diagonal` d(lam) on lam itself and coefficient 1 on
    each of the `_addable` partitions, lam plus one box in at most n rows."""
    lam = partition(lam)
    coeffs = {lam: _pieri_diagonal(lam, n)}
    for grown in _addable(lam, n):
        coeffs[grown] = Poly.one()
    return SchurExpansion(n, coeffs)


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
        return {
            "n": self.n,
            "terms": [{"lambda": list(lam), "coeff": poly_to_obj(c)}
                      for lam, c in self.items()],
        }

    @classmethod
    def from_obj(cls, obj):
        return cls(obj["n"], {tuple(item["lambda"]): poly_from_obj(item["coeff"], nx=0)
                              for item in obj["terms"]})


def expansion_to_poly(e):
    """Evaluate a SchurExpansion back to the symmetric polynomial it names."""
    if not e.coeffs:
        return Poly.zero(e.n)
    return Poly.sum_of_products((1, c.as_arity(e.n), double_schur(lam, e.n))
                                for lam, c in e.coeffs.items())
