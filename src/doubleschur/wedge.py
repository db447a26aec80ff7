"""The wedge-power model of the truncated ring.

The rank-m module V = Z[t1..tm][x] / (x|t)^m carries the double-monomial
basis (x|t)^0, ..., (x|t)^{m-1}; m x m matrices over Z[t1..tm] act on it,
and on its n-th wedge power by the Leibniz rule.  Double Schur coordinates
and wedge coordinates are identified by sending the basis class of a
partition lam to the basis wedge indexed by lam + staircase, basis to
basis with sign +1.  Multiplication operators on V act on the wedge power
exactly as multiplication by f(x1) + ... + f(xn) acts on the truncated
ring; `centralizer_action` computes both sides and insists they agree.
"""

from __future__ import annotations

from .poly import Poly, _poly_obj, _sums_of_products, poly_from_obj
from .schur import (
    SchurExpansion,
    add_staircase,
    double_monomial,
    expand_in_double_schur,
    expansion_to_poly,
    partition,
    remove_staircase,
    strict_sequence,
)
from .grass import _check_in_box, truncate

__all__ = [
    "StandardVector",
    "GLMatrix",
    "WedgeVector",
    "mult_by_x",
    "x_matrix",
    "multiplication_matrix",
    "symmetric_multiplier",
    "gl_action_on_wedge",
    "lambda_to_coweight",
    "coweight_to_lambda",
    "to_wedge_coordinates",
    "from_wedge_coordinates",
    "centralizer_action",
    "PathDisagreement",
]


class PathDisagreement(RuntimeError):
    """The wedge-side and polynomial-side computations disagreed; this is
    always an implementation bug, never a property of the inputs."""


def _t_coeff(c, m, what):
    if isinstance(c, int):
        c = Poly.const(c)
    c = c.t_only()
    # the t-width bounds the largest t-index, so only a wider c is scanned
    if c.tw > m and c.max_t_index() > m:
        raise ValueError(f"{what} involves t-indices beyond t{m}")
    return c


class StandardVector:
    """Element of V in the double-monomial basis: coords[k] multiplies
    (x|t)^k, for k = 0..m-1."""

    __slots__ = ("m", "coords")

    def __init__(self, m, coords):
        coords = list(coords)
        if len(coords) != m:
            raise ValueError(f"expected {m} coordinates, got {len(coords)}")
        self.m = m
        self.coords = tuple(_t_coeff(c, m, "coordinate") for c in coords)

    @classmethod
    def basis(cls, k, m):
        """The basis vector (x|t)^k, 0 <= k < m."""
        if not 0 <= k < m:
            raise ValueError(f"basis index {k} out of range 0..{m - 1}")
        return cls(m, [Poly.const(1 if i == k else 0) for i in range(m)])

    def is_zero(self):
        return all(c.is_zero() for c in self.coords)

    def __eq__(self, other):
        if not isinstance(other, StandardVector):
            return NotImplemented
        return self.m == other.m and self.coords == other.coords

    __hash__ = None

    def __repr__(self):
        body = ", ".join(str(c) for c in self.coords)
        return f"StandardVector(m={self.m}, [{body}])"


def mult_by_x(v):
    """Multiplication by x on V: (x|t)^k -> (x|t)^{k+1} - t_{k+1} (x|t)^k
    for k < m-1, and (x|t)^{m-1} -> -t_m (x|t)^{m-1} since (x|t)^m is zero
    in V."""
    m = v.m
    out = [Poly.zero(0) for _ in range(m)]
    for k, c in enumerate(v.coords):
        if not c:
            continue
        if k < m - 1:
            out[k + 1] = out[k + 1] + c
            out[k] = out[k] - Poly.t(k + 1) * c
        else:
            out[k] = out[k] - Poly.t(m) * c
    return StandardVector(m, out)


class GLMatrix:
    """m x m matrix over Z[t1..tm] acting on V; entries[r][c] is the
    coefficient of (x|t)^r in the image of (x|t)^c (column = source)."""

    __slots__ = ("m", "entries")

    def __init__(self, m, entries):
        entries = [list(row) for row in entries]
        if len(entries) != m or any(len(row) != m for row in entries):
            raise ValueError(f"expected an {m} x {m} matrix")
        self.m = m
        self.entries = tuple(
            tuple(_t_coeff(c, m, "matrix entry") for c in row)
            for row in entries)

    @classmethod
    def zero(cls, m):
        return cls.diagonal([0] * m)

    @classmethod
    def identity(cls, m):
        return cls.diagonal([1] * m)

    @classmethod
    def unit(cls, i, j, m):
        """E_ij (1-based): sends the basis vector (x|t)^{j-1} to (x|t)^{i-1}."""
        if not (1 <= i <= m and 1 <= j <= m):
            raise ValueError(f"unit matrix indices ({i},{j}) out of range")
        return cls(m, [[1 if (r, c) == (i - 1, j - 1) else 0
                        for c in range(m)] for r in range(m)])

    @classmethod
    def diagonal(cls, diag):
        m = len(diag)
        return cls(m, [[diag[r] if r == c else 0 for c in range(m)]
                       for r in range(m)])

    def __add__(self, other):
        return self._entrywise(other, Poly.__add__)

    def __sub__(self, other):
        return self._entrywise(other, Poly.__sub__)

    def _entrywise(self, other, op):
        self._check(other)
        return GLMatrix(self.m, [list(map(op, a, b))
                                 for a, b in zip(self.entries, other.entries)])

    def __matmul__(self, other):
        self._check(other)
        m = self.m
        out = _sums_of_products(0, (((r, c), 1, a, b)
                                    for r, row in enumerate(self.entries)
                                    for k, a in enumerate(row) if a
                                    for c, b in enumerate(other.entries[k]) if b))
        return GLMatrix(m, [[out.get((r, c), 0) for c in range(m)] for r in range(m)])

    def scale(self, c):
        return GLMatrix(self.m, [[c * e for e in row] for row in self.entries])

    def apply(self, v):
        """Matrix-vector action on V."""
        if v.m != self.m:
            raise ValueError("shape mismatch")
        out = _sums_of_products(0, ((r, 1, e, x) for r, row in enumerate(self.entries)
                                    for e, x in zip(row, v.coords) if e and x))
        return StandardVector(self.m, [out.get(r, 0) for r in range(self.m)])

    def commutator(self, other):
        return self @ other - other @ self

    def _check(self, other):
        if not isinstance(other, GLMatrix) or other.m != self.m:
            raise ValueError("shape mismatch")

    def __eq__(self, other):
        if not isinstance(other, GLMatrix):
            return NotImplemented
        return self.m == other.m and self.entries == other.entries

    __hash__ = None

    def __repr__(self):
        rows = "; ".join("[" + ", ".join(str(e) for e in row) + "]"
                         for row in self.entries)
        return f"GLMatrix(m={self.m}, {rows})"


def x_matrix(m):
    """The matrix of multiplication by x on V."""
    cols = [mult_by_x(StandardVector.basis(k, m)) for k in range(m)]
    return GLMatrix(m, [[cols[c].coords[r] for c in range(m)] for r in range(m)])


def multiplication_matrix(f):
    """The matrix of multiplication by f on V, for f given in the
    double-monomial basis: multiplication by (x|t)^k is the operator
    product (X + t_1) ... (X + t_k) where X is multiplication by x."""
    m = f.m
    X = x_matrix(m)
    acc = GLMatrix.zero(m)
    fac = GLMatrix.identity(m)
    for k in range(m):
        if k:
            fac = fac @ (X + GLMatrix.identity(m).scale(Poly.t(k)))
        c = f.coords[k]
        if c:
            acc = acc + fac.scale(c)
    return acc


def symmetric_multiplier(f, n):
    """f(x1) + ... + f(xn) as a polynomial at arity n."""
    coords = [(k, c.as_arity(n)) for k, c in enumerate(f.coords) if c]
    out = _sums_of_products(n, ((0, 1, c, double_monomial(k, i, n))
                                for i in range(1, n + 1) for k, c in coords))
    return out.get(0, Poly.zero(n))


class WedgeVector:
    """Element of the n-th wedge power of V: a finite map from strictly
    decreasing basis-index sequences (entries in 0..m-1) to t-only
    coefficients."""

    __slots__ = ("n", "m", "coords")

    def __init__(self, n, m, coords):
        if not 1 <= n <= m:
            raise ValueError(f"need 1 <= n <= m, got n={n}, m={m}")
        self.n = n
        self.m = m
        clean = {}
        for nu, c in coords.items():
            nu = strict_sequence(nu, n)
            if nu[0] >= m:
                raise ValueError(f"wedge index {nu} has an entry >= m = {m}")
            c = _t_coeff(c, m, "wedge coefficient")
            if c:
                clean[nu] = c
        self.coords = clean

    @classmethod
    def basis(cls, nu, n, m):
        return cls(n, m, {tuple(nu): Poly.one()})

    def get(self, nu):
        return self.coords.get(tuple(nu), Poly.zero(0))

    def is_zero(self):
        return not self.coords

    def __bool__(self):
        return bool(self.coords)

    def __eq__(self, other):
        if not isinstance(other, WedgeVector):
            return NotImplemented
        return (self.n, self.m) == (other.n, other.m) and self.coords == other.coords

    __hash__ = None

    def __repr__(self):
        body = ", ".join(f"{nu}: {c}" for nu, c in sorted(self.coords.items()))
        return f"WedgeVector(n={self.n}, m={self.m}, {{{body}}})"

    def to_obj(self):
        """JSON form, wedge indices in lexicographic order.  The coefficients
        share one memo (`poly._term_objs`), so terms within the returned
        tree share their exponent objects: treat it as read-only."""
        memo = {}
        return {
            "n": self.n,
            "m": self.m,
            "terms": [{"nu": list(nu), "coeff": _poly_obj(self.coords[nu], memo)}
                      for nu in sorted(self.coords)],
        }

    @classmethod
    def from_obj(cls, obj):
        return cls(obj["n"], obj["m"],
                   {tuple(item["nu"]): poly_from_obj(item["coeff"], nx=0)
                    for item in obj["terms"]})


def gl_action_on_wedge(X, w):
    """Leibniz action of a matrix on a wedge vector: X acts in each slot of
    each basis wedge nu, and each resulting sequence is re-sorted with its
    sign, collisions dropped.

    nu is strictly decreasing, so putting r in place of nu[slot] either
    collides (r != nu[slot] and r is in nu) or lands at position pos, the
    number of the other entries that exceed r, with sign (-1)^(pos - slot).
    Every product sign * entry * coordinate that does not collide goes into
    its output coefficient in one `_sums_of_products` batch, which raises
    DegreeOverflow as the product of the two polynomials would."""
    if X.m != w.m:
        raise ValueError("shape mismatch")
    # cols[src]: (r, entry) of each nonzero entry of column src
    cols = [[] for _ in range(X.m)]
    for r, row in enumerate(X.entries):
        for src, e in enumerate(row):
            if e:
                cols[src].append((r, e))
    products = []
    for nu, c in w.coords.items():
        for slot, src in enumerate(nu):
            others = nu[:slot] + nu[slot + 1:]
            for r, a in cols[src]:
                if r == src:
                    key, pos = nu, slot
                elif r in others:
                    continue
                else:
                    pos = sum(e > r for e in others)
                    key = others[:pos] + (r,) + others[pos:]
                products.append((key, -1 if (pos - slot) & 1 else 1, a, c))
    return WedgeVector(w.n, w.m, _sums_of_products(0, products))


def lambda_to_coweight(lam, ctx):
    """The 0/1 weight of the basis class of lam: ones exactly in positions
    lam_i + n - i + 1 (1-based), i.e. one step above each entry of
    lam + staircase."""
    lam = partition(lam)
    _check_in_box(ctx, lam)
    bits = [0] * ctx.m
    for entry in add_staircase(lam, ctx.n):
        bits[entry] = 1
    return tuple(bits)


def coweight_to_lambda(bits, ctx):
    """Inverse of lambda_to_coweight."""
    bits = tuple(bits)
    if len(bits) != ctx.m or any(b not in (0, 1) for b in bits) or sum(bits) != ctx.n:
        raise ValueError(f"not a 0/1 vector of length {ctx.m} with {ctx.n} ones")
    nu = tuple(sorted((i for i, b in enumerate(bits) if b), reverse=True))
    return remove_staircase(nu)


def to_wedge_coordinates(expansion, ctx):
    """Send the basis class of lam to the basis wedge at lam + staircase,
    coefficients carried along unchanged (basis to basis, sign +1)."""
    if expansion.n != ctx.n:
        raise ValueError("arity mismatch")
    coords = {}
    for lam, c in expansion.coeffs.items():
        _check_in_box(ctx, lam)
        coords[add_staircase(lam, ctx.n)] = c
    return WedgeVector(ctx.n, ctx.m, coords)


def from_wedge_coordinates(w, ctx):
    """Inverse coordinate map: basis wedge at nu goes to the class of
    nu - staircase."""
    if (w.n, w.m) != (ctx.n, ctx.m):
        raise ValueError("shape mismatch")
    return SchurExpansion(ctx.n, {remove_staircase(nu): c
                                  for nu, c in w.coords.items()})


def centralizer_action(f, expansion, ctx):
    """Action of a multiplication operator f on truncated double Schur
    coordinates, computed along both available routes and cross-checked:

    (a) wedge side: the matrix of multiplication by f acts by the Leibniz
        rule on wedge coordinates;
    (b) polynomial side: multiply by f(x1) + ... + f(xn), expand in the
        double Schur basis, truncate.

    A disagreement raises PathDisagreement.
    """
    if f.m != ctx.m:
        raise ValueError("shape mismatch")
    return _centralizer_action(multiplication_matrix(f), symmetric_multiplier(f, ctx.n),
                               expansion, ctx)


def _centralizer_action(matrix, multiplier, expansion, ctx):
    """`centralizer_action` for an operator given as its matrix on V and its
    symmetric multiplier f(x1) + ... + f(xn), so that a caller acting on
    many classes builds both once."""
    via_wedge = from_wedge_coordinates(
        gl_action_on_wedge(matrix, to_wedge_coordinates(expansion, ctx)), ctx)
    poly_side = expansion_to_poly(expansion) * multiplier
    via_poly = truncate(expand_in_double_schur(poly_side, ctx.n), ctx)
    if via_wedge != via_poly:
        raise PathDisagreement(
            f"wedge route {via_wedge!r} disagrees with polynomial route "
            f"{via_poly!r}")
    return via_poly
