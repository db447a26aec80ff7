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

from functools import lru_cache
from itertools import combinations, product

from .poly import F, Poly, _multiply_into

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
def double_schur(lam, n):
    """The double Schur polynomial of lam in x1..xn, by branching on x_n
    (Macdonald 1992, 6th variation; Molev-Sagan, Trans. AMS 351, 1999):
    s_lam = sum over mu with lam_{i+1} <= mu_i <= lam_i of s_mu(x1..x_{n-1})
    times prod over boxes (i,j) of lam/mu of (x_n + t_{n+j-i}), summed in
    one pass.  One swap of x_{n-1} and x_n checks symmetry completely: each
    memoized s_mu was checked when built (n = 1 trivially), the lift and the
    strip (in x_n and t only) keep symmetry in x1..x_{n-1}, and S_{n-1}
    with the transposition (x_{n-1} x_n) generates S_n."""
    if n < 1:
        raise ValueError("arity must be at least 1")
    lam = partition(lam)
    if len(lam) > n:
        raise ValueError(f"partition {lam} has more than {n} parts")
    if n == 1:
        return double_monomial(sum(lam))
    padded = lam + (0,) * (n - len(lam))
    xn = Poly.x(n, n)
    summands = []
    for mu in product(*(range(padded[i + 1], padded[i] + 1) for i in range(n - 1))):
        strip = Poly.one(n)
        for i, (lo, hi) in enumerate(zip(mu + (0,), padded), 1):
            for j in range(lo + 1, hi + 1):
                strip = strip * (xn + Poly.t(n + j - i, n))
        summands.append((1, double_schur(partition(mu), n - 1).as_arity(n), strip))
    s = Poly.sum_of_products(summands)
    if s.swap_x(n - 1, n) != s:
        raise RuntimeError(f"double Schur polynomial of {lam} came out asymmetric")
    return s


def expand_in_double_schur(p, n):
    """Expand a symmetric polynomial in the double Schur basis.

    Under lexicographic order on the x-exponents the leading x-monomial of
    the double Schur polynomial of lam is x^lam with coefficient 1, so the
    leading term of p determines one summand at a time: subtract it and
    recurse.  The leading x-monomial strictly decreases and the total
    x-degree never grows, so this terminates.  The leading x-exponent of a
    symmetric polynomial is weakly decreasing, and an asymmetric remainder
    never reaches zero, so the peel meets an exponent that is not weakly
    decreasing exactly when p is not symmetric.

    The remainder is one private term dict at one t-width, and c * s_lam is
    subtracted straight into it.  No x-exponent of s_lam exceeds lam_1, the
    remainder's largest x1-exponent, so lam_1 never exceeds p's, and
    t_{n+lam_1-1}, the largest t in s_lam, fits the width fixed from p.
    """
    if p.nx != n:
        raise ValueError(f"expected a polynomial in x1..x{n}, got arity {p.nx}")
    xv = p.leading_x()
    tw = max(p.tw, n + xv[0] - 1) if xv else p.tw
    rem = Poly(n, tw, dict(p._widened(tw)))
    out = {}
    while xv is not None:
        if any(a < b for a, b in zip(xv, xv[1:])):
            raise ValueError("polynomial is not symmetric")
        lam = partition(xv)
        c = rem.coefficient_of_x(xv)
        out[lam] = c
        _multiply_into(rem.terms, -1, c.as_arity(n).terms,
                       double_schur(lam, n)._widened(tw), F * (n + tw))
        xv = rem.leading_x()
    return SchurExpansion(n, out)


def pieri_multiply(lam, n):
    """Expansion of (x1 + ... + xn) times the double Schur polynomial of lam:
    coefficient -(t_{lam_1+n} + t_{lam_2+n-1} + ... + t_{lam_n+1}) on lam
    itself and coefficient 1 on every partition obtained by adding one box
    (keeping at most n rows)."""
    lam = partition(lam)
    if len(lam) > n:
        raise ValueError(f"partition {lam} has more than {n} parts")
    padded = lam + (0,) * (n - len(lam))
    diag = Poly.zero(0)
    for i, part in enumerate(padded, 1):
        diag = diag - Poly.t(part + n - i + 1)
    coeffs = {lam: diag}
    for r in range(n):
        grown = list(padded)
        grown[r] += 1
        if r == 0 or grown[r] <= grown[r - 1]:
            coeffs[partition(grown)] = Poly.one()
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
        from .poly import poly_to_obj
        return {
            "n": self.n,
            "terms": [{"lambda": list(lam), "coeff": poly_to_obj(c)}
                      for lam, c in self.items()],
        }

    @classmethod
    def from_obj(cls, obj):
        from .poly import poly_from_obj
        return cls(obj["n"], {tuple(item["lambda"]): poly_from_obj(item["coeff"], nx=0)
                              for item in obj["terms"]})


def expansion_to_poly(e):
    """Evaluate a SchurExpansion back to the symmetric polynomial it names."""
    if not e.coeffs:
        return Poly.zero(e.n)
    return Poly.sum_of_products((1, c.as_arity(e.n), double_schur(lam, e.n))
                                for lam, c in e.coeffs.items())
