"""Sparse exact multivariate polynomial arithmetic.

Polynomials live in Z[t1, t2, ...][x1, ..., xn]: a fixed block of n
x-variables (the arity, fixed per polynomial) together with unboundedly
many t-parameters.  Coefficients are arbitrary-precision integers and
every operation is exact.

Monomials are packed into single integers, 16 bits per exponent field,
most significant field first::

    [total degree][x1] ... [xn][t1] ... [tw]

where w is the t-width the polynomial is currently stored at (at least
the largest t-index present; trailing padding is harmless and resolved
on comparison).  The packing makes the hot paths cheap: multiplying two
monomials is a single integer addition, and the natural integer order on
keys is exactly graded lexicographic order with

    x1 > x2 > ... > xn > t1 > t2 > ...

which is the canonical term order used everywhere for leading-term
extraction, display and serialization.

The total degree of any operand must stay below 2**15 so that no field
can overflow during a product; multiplication checks this and raises
DegreeOverflow.  Arity 0 (no x-variables) is the coefficient ring
Z[t1, t2, ...] itself and is used for t-only coefficients.
"""

from functools import lru_cache
from math import comb, inf
from operator import neg
from weakref import ref

F = 16                   # bits per exponent field
FIELD = (1 << F) - 1
DEG_LIMIT = 1 << 15      # per-operand total-degree bound; keeps field sums < 2**16

__all__ = [
    "Poly",
    "ArityMismatch",
    "NotDivisible",
    "NotShiftInvariant",
    "DegreeOverflow",
    "to_difference_basis",
    "poly_to_obj",
    "poly_from_obj",
]


class ArityMismatch(ValueError):
    """Combined two polynomials with different numbers of x-variables."""


class NotDivisible(ArithmeticError):
    """exact_div was asked to divide by a linear form that does not divide
    the dividend in the polynomial ring."""


class NotShiftInvariant(ValueError):
    """The polynomial is not invariant under t_i -> t_i + c, so it has no
    expression in the difference variables."""

    def __init__(self, message, offender=None):
        super().__init__(message)
        self.offender = offender


class DegreeOverflow(OverflowError):
    """Total degree exceeded the packed-field safety bound."""


def _whole(value, floor, what="arity"):
    """value as a plain int at least floor, a bool read as its int; any other
    value raises ArityMismatch for an arity and ValueError otherwise."""
    if isinstance(value, int) and value >= floor:
        return int(value)
    error = ArityMismatch if what == "arity" else ValueError
    raise error(f"{what} must be at least {floor}" if isinstance(value, int)
                else f"{what} must be an integer, got {value!r}")


class Poly:
    """Immutable sparse polynomial.  Do not mutate `terms` from outside.
    The private slot `_difference` belongs to `to_difference_basis`, and
    `_groups` to `schur.py`, which sets it on s_lam, x_sum and their
    products (None on every other polynomial).  Neither takes part in
    equality or repr.  Such a polynomial leaves its `terms` slot unset until
    it is first read: `__getattr__` then writes the terms from the groups
    and stores them, so only callers that read them pay for the write."""

    __slots__ = ("nx", "tw", "terms", "_difference", "_groups", "__weakref__")

    def __init__(self, nx, tw=0, terms=None):
        self.nx = nx
        self.tw = tw
        self.terms = {} if terms is None else terms
        self._difference = None
        self._groups = None

    def __getattr__(self, name):
        """Called only when normal lookup fails, which for an unset slot is
        `terms` on a polynomial that carries its groups and has not been
        read yet: write its terms once (`schur._Groups.flat`) and store
        them.  Any other missing name raises AttributeError."""
        if name != "terms" or self._groups is None:
            raise AttributeError(f"{type(self).__name__!r} object has no attribute {name!r}",
                                 name=name, obj=self)
        self.terms = terms = self._groups.flat(self.nx)
        return terms

    # -- constructors -------------------------------------------------

    @classmethod
    def zero(cls, nx=0):
        return cls(_whole(nx, 0))

    @classmethod
    def const(cls, c, nx=0):
        """The constant c, read by `_whole` as an int of any sign."""
        c = _whole(c, -inf, "constant")
        return cls(_whole(nx, 0), 0, {0: c} if c else None)

    @classmethod
    def one(cls, nx=0):
        return cls.const(1, nx)

    @classmethod
    def x(cls, i, nx):
        """The variable x_i (1-based, 1 <= i <= nx)."""
        nx, i = _whole(nx, 0), _whole(i, 1, "x-index")
        if i > nx:
            raise ArityMismatch(f"x{i} does not exist at arity {nx}")
        return cls(nx, 0, {(1 << (F * nx)) | (1 << (F * (nx - i))): 1})

    @classmethod
    def t(cls, j, nx=0):
        """The parameter t_j (1-based, any positive index)."""
        nx, j = _whole(nx, 0), _whole(j, 1, "t-index")
        return cls(nx, j, {(1 << (F * (nx + j))) | 1: 1})

    # -- representation helpers ---------------------------------------

    def _widened(self, tw):
        """The terms repacked at t-width tw >= self.tw."""
        if tw == self.tw:
            return self.terms
        sh = F * (tw - self.tw)
        return {k << sh: c for k, c in self.terms.items()}

    def _aligned(self, other):
        """Common t-width: returns (tw, terms_self, terms_other)."""
        if self.nx != other.nx:
            raise ArityMismatch(f"x-arity mismatch: {self.nx} vs {other.nx}")
        tw = max(self.tw, other.tw)
        return tw, self._widened(tw), other._widened(tw)

    # -- basic queries -------------------------------------------------

    def is_zero(self):
        return not self.terms

    def __bool__(self):
        return bool(self.terms)

    def _t_indices(self):
        """Ascending t-indices present: the nonzero t-fields of the OR of all keys."""
        g = 0
        for k in self.terms:
            g |= k
        tw = self.tw
        return tuple(j for j in range(1, tw + 1) if (g >> F * (tw - j)) & FIELD)

    def max_t_index(self):
        """Largest t-index actually present (0 if none)."""
        return (self._t_indices() or (0,))[-1]

    def iter_terms(self):
        """Yield (x_exponents, t_exponents, coefficient) in canonical order:
        graded lexicographic, largest first."""
        terms = self.terms
        for k, xe, te in _decoded_monomials(self.nx, self.tw, int,
                                            sorted(terms, reverse=True)):
            yield tuple(xe), te, terms[k]

    def __eq__(self, other):
        if isinstance(other, int):
            other = Poly.const(other, self.nx)
        elif not isinstance(other, Poly):
            return NotImplemented
        if self.nx != other.nx:
            return False
        _, a, b = self._aligned(other)
        return a == b

    __hash__ = None

    # -- arithmetic -----------------------------------------------------

    def __add__(self, other, negate=False):
        if isinstance(other, int):
            other = Poly.const(other, self.nx)
        elif not isinstance(other, Poly):
            return NotImplemented
        tw, a, b = self._aligned(other)
        if negate:
            # subtract in the same pass, negating other's terms as they are read
            b_terms = zip(b, map(neg, b.values()))
        else:
            if len(a) < len(b):
                a, b = b, a
            b_terms = b.items()
        out = dict(a)
        get = out.get
        cancelled = False
        for k, c in b_terms:
            v = get(k, 0) + c
            if v:
                out[k] = v
            elif k in out:
                del out[k]
                cancelled = True
        # a cancelled key leaves its slot in the table; a copy is compact
        return Poly(self.nx, tw, dict(out) if cancelled else out)

    __radd__ = __add__

    def __neg__(self):
        return Poly(self.nx, self.tw, {k: -c for k, c in self.terms.items()})

    def __sub__(self, other):
        return self.__add__(other, negate=True)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        """Product with a Poly or an int.  A constant polynomial (one term,
        at key 0, at any t-width) is read as its integer, so a product by
        it only scales the other operand, and one by 1 returns that operand
        as it is; operands of different arity still raise ArityMismatch.
        A product of two operands of nonzero degree that carry their
        dominant groups (the slot `_groups`, set by `schur.py`) is formed by
        that slot object from the groups alone, before the constant test
        reads any terms, and carries the product's groups; of two such
        operands, one of degree 0 is the constant, and only its terms are
        read.  Any other product is a one-item `_sums_of_products` batch,
        which forms it with no operand memo or repacking map."""
        if isinstance(other, Poly):
            if self.nx != other.nx:
                raise ArityMismatch(f"x-arity mismatch: {self.nx} vs {other.nx}")
            a = self._groups
            if a is not None and other._groups is not None:
                if a.degree and other._groups.degree:
                    return a.times(other._groups, self.nx)
                if not a.degree:
                    self, other = other, self
            if len(other.terms) == 1 and 0 in other.terms:
                other = other.terms[0]
            elif len(self.terms) == 1 and 0 in self.terms:
                self, other = other, self.terms[0]
            else:
                return _sums_of_products(self.nx, ((0, 1, self, other),)).get(0, Poly(self.nx))
        elif not isinstance(other, int):
            return NotImplemented
        if other == 0:
            return Poly(self.nx)
        if other == 1:
            return self
        return Poly(self.nx, self.tw, {k: c * other for k, c in self.terms.items()})

    __rmul__ = __mul__

    def __pow__(self, e):
        e = _whole(e, 0, "exponent")
        result = Poly.one(self.nx)
        base = self
        while e:
            if e & 1:
                result = result * base
            e >>= 1
            if e:
                base = base * base
        return result

    @classmethod
    def sum_of_products(cls, pairs):
        """Sum of scaled products c * p * q, accumulated in one batch of
        `_sums_of_products` without materializing the intermediate
        products; the workhorse of determinant expansion.  `pairs` is a
        nonempty iterable of (c, p, q) with integer c."""
        pairs = list(pairs)
        if not pairs:
            raise ValueError("empty sum")
        nx = pairs[0][1].nx
        return _sums_of_products(nx, ((0, c, p, q) for c, p, q in pairs)).get(0, cls(nx))

    def exact_div(self, d):
        """Exact quotient self / d, for d a nonzero linear form: every term
        of d has degree 1.

        Write d = a*v + R, with a*v the leading term of d, so that R does
        not involve the variable v, and group self by the exponent of v:
        self = sum of p_e v^e.  From the top exponent down, the quotient
        has q_{e-1} = (p_e - R*q_e) / a, and d divides exactly when
        p_0 = R*q_0.  For a = 1 or -1, the leading coefficient of every
        Pieri divisor, dividing by a is a copy or a negation of the
        group.  Raises NotDivisible when a does not divide a
        coefficient or that last check fails, ZeroDivisionError for d = 0
        and ValueError for any other d that is not a linear form (an int,
        a constant, x1^2, x1 + 1).
        """
        if isinstance(d, int):
            d = Poly.const(d, self.nx)
        if d.is_zero():
            raise ZeroDivisionError("exact_div by the zero polynomial")
        tw, terms, dterms = self._aligned(d)
        deg = F * (self.nx + tw)
        if any(k >> deg != 1 for k in dterms):
            raise ValueError("exact_div divides by a linear form only")
        lead = max(dterms)
        a = dterms[lead]
        rest = {k: c for k, c in dterms.items() if k != lead}
        sh = (lead - (1 << deg)).bit_length() - 1     # v's field
        groups = {}
        for k, c in terms.items():
            e = (k >> sh) & FIELD
            groups.setdefault(e, {})[k - e * lead] = c
        quotient = {}
        q = {}
        for e in range(max(groups, default=0), 0, -1):
            r = groups.get(e, {})
            _multiply_into(((r, -1, rest, q),))
            if a == 1:
                q = r
            elif a == -1:
                q = {k: -c for k, c in r.items()}
            else:
                q = {}
                for k, c in r.items():
                    q[k], rem = divmod(c, a)
                    if rem:
                        raise NotDivisible("coefficient not divisible by the leading one")
            shift = (e - 1) * lead
            quotient.update({k + shift: c for k, c in q.items()})
        r = groups.get(0, {})
        _multiply_into(((r, -1, rest, q),))
        if r:
            raise NotDivisible("nonzero remainder")
        return Poly(self.nx, tw, quotient)

    # -- structural operations -------------------------------------------

    def kill_t_above(self, m):
        """Drop every term containing t_i with i > m (m >= 0; m = 0 kills
        all t-content), m read by `_whole`."""
        m = _whole(m, 0, "m")
        if self.tw <= m:
            return self
        cut = F * (self.tw - m)
        mask = (1 << cut) - 1
        out = {k >> cut: c for k, c in self.terms.items() if k & mask == 0}
        return Poly(self.nx, m, out)

    def as_arity(self, nx):
        """Reinterpret at a larger x-arity: the variables x_{self.nx+1}..x_nx
        are new and absent."""
        if nx == self.nx:
            return self
        if nx < self.nx:
            raise ArityMismatch(f"cannot lower arity {self.nx} to {nx}")
        tw = self.tw
        tmask = (1 << (F * tw)) - 1
        # keep degree, x and t fields, insert nx - self.nx zero x-fields
        # between the old x-fields and the t-fields
        out = {((k >> (F * tw)) << (F * (nx - self.nx + tw))) | (k & tmask): c
               for k, c in self.terms.items()}
        return Poly(nx, tw, out)

    def t_only(self):
        """Drop to arity 0; the polynomial must not involve any x-variable."""
        if self.nx == 0:
            return self
        sh = F * self.tw
        xmask = (1 << (F * self.nx)) - 1
        tmask = (1 << (F * self.tw)) - 1
        out = {}
        for k, c in self.terms.items():
            if (k >> sh) & xmask:
                raise ArityMismatch("polynomial involves x-variables")
            out[((k >> (F * (self.nx + self.tw))) << sh) | (k & tmask)] = c
        return Poly(0, self.tw, out)

    def evaluate(self, x_values=(), t_values=()):
        """Exact integer evaluation; t_values[j-1] is substituted for t_j."""
        if len(x_values) != self.nx:
            raise ArityMismatch(f"expected {self.nx} x-values")
        total = 0
        for xe, te, c in self.iter_terms():
            v = c
            for i, e in enumerate(xe):
                if e:
                    v *= x_values[i] ** e
            for j, e in te.items():
                if j > len(t_values):
                    raise ValueError(f"no value supplied for t{j}")
                v *= t_values[j - 1] ** e
            total += v
        return total

    # -- display ----------------------------------------------------------

    def render(self, t_name):
        """Human-readable form, largest term first; t_name(j) names the
        t-slot j."""
        if not self.terms:
            return "0"
        chunks = []
        for xe, te, c in self.iter_terms():
            factors = []
            for i, e in enumerate(xe, 1):
                if e == 1:
                    factors.append(f"x{i}")
                elif e:
                    factors.append(f"x{i}^{e}")
            for j in sorted(te):
                e = te[j]
                factors.append(t_name(j) if e == 1 else f"{t_name(j)}^{e}")
            body = "*".join(factors)
            mag = abs(c)
            if body and mag == 1:
                text = body
            elif body:
                text = f"{mag}*{body}"
            else:
                text = str(mag)
            if not chunks:
                chunks.append(text if c > 0 else f"-{text}")
            else:
                chunks.append(f"+ {text}" if c > 0 else f"- {text}")
        return " ".join(chunks)

    def __str__(self):
        return self.render("t{}".format)

    def __repr__(self):
        return f"Poly[{self.nx}]({self})"


def _multiply_into(products):
    """For each (out, c, a, b) of `products`, accumulate c * a * b into the
    term dict out; a and b are term dicts packed at one width, c an
    integer.  The caller bounds the degree of every product (DEG_LIMIT).

    Each term of the smaller operand gives one row, the larger operand
    shifted by that term and scaled by c times its coefficient.  The keys
    of a row are distinct, so a row written into an empty out collides
    with nothing and is one dict comprehension, which copies a's
    coefficients unmultiplied when the scale is 1.  A row by the monomial
    1 (key 0), as every row of x_sum times s_lam, of a peel step by a
    coefficient 1 and of a strip factor e_0 is, leaves a's keys as they
    are: into an empty out it is one `dict.update`, of a itself at scale
    1, so out shares a's key objects, and into any other out at scale 1 or
    -1 it skips the key addition.  A row scaled by 1 or -1, as nearly
    every row of a Pieri divisor, strip factor or e1 is, adds or subtracts
    a's coefficients without multiplying them.  Returns whether a sum
    cancelled: its deleted key keeps a slot in out's table, so a caller
    that stores out copies it compact."""
    cancelled = False
    for out, c, a, b in products:
        if not c:
            continue
        if len(a) < len(b):
            a, b = b, a
        get = out.get
        for k2, c2 in b.items():
            cc = c * c2
            if not out:
                if not k2:
                    out.update(a if cc == 1 else {k1: c1 * cc for k1, c1 in a.items()})
                else:
                    out.update({k1 + k2: c1 for k1, c1 in a.items()} if cc == 1 else
                               {k1 + k2: c1 * cc for k1, c1 in a.items()})
            elif not k2 and cc == 1:
                for k, c1 in a.items():
                    v = get(k, 0) + c1
                    if v:
                        out[k] = v
                    else:
                        del out[k]
                        cancelled = True
            elif not k2 and cc == -1:
                for k, c1 in a.items():
                    v = get(k, 0) - c1
                    if v:
                        out[k] = v
                    else:
                        del out[k]
                        cancelled = True
            elif cc == 1:
                for k1, c1 in a.items():
                    k = k1 + k2
                    v = get(k, 0) + c1
                    if v:
                        out[k] = v
                    else:
                        del out[k]
                        cancelled = True
            elif cc == -1:
                for k1, c1 in a.items():
                    k = k1 + k2
                    v = get(k, 0) - c1
                    if v:
                        out[k] = v
                    else:
                        del out[k]
                        cancelled = True
            else:
                for k1, c1 in a.items():
                    k = k1 + k2
                    v = get(k, 0) + c1 * cc
                    if v:
                        out[k] = v
                    else:
                        del out[k]
                        cancelled = True
    return cancelled


def _pooled(terms, pool):
    """A compact copy of terms with its keys taken from pool, which maps each
    key it has met to itself: one int object per monomial per pool."""
    return {pool.setdefault(k, k): c for k, c in terms.items()}


def _sums_of_products(nx, items):
    """{key: sum of c * p * q} over the items (key, c, p, q) of `items`,
    each sum a Poly at arity nx and one common t-width; a sum that vanishes
    is left out.  c is an integer, p and q are Polys.  Raises ArityMismatch
    and DegreeOverflow as p * q would, for every item listed.

    `items` is materialized first.  A one-item batch, such as every `p * q`
    of two non-constant polynomials, widens its two operands and reads
    their degrees directly.  A longer batch keeps every operand alive while
    its `id` is a memo key: each distinct operand is repacked once to the
    common width and its degree read once, even when a generator yields
    temporaries.  Every product then goes into its key's term dict in one
    `_multiply_into` batch, and every sum is copied compact when a key of
    the batch cancelled."""
    items = list(items)
    if len(items) == 1:
        (key, c, p, q), = items
        odd = p if p.nx != nx else q
        if odd.nx != nx:
            raise ArityMismatch(f"x-arity mismatch: {odd.nx} vs {nx}")
        tw = max(p.tw, q.tw)
        # a constant operand has degree 0 and only scales, as in p * q
        da = max(p.terms, default=0) >> F * (nx + p.tw)
        db = max(q.terms, default=0) >> F * (nx + q.tw)
        if da and db and da + db >= DEG_LIMIT:
            raise DegreeOverflow("product degree exceeds the packed monomial bound")
        terms = {}
        if _multiply_into(((terms, c, p._widened(tw), q._widened(tw)),)):
            terms = dict(terms)
        return {key: Poly(nx, tw, terms)} if terms else {}
    operands = {id(p): p for item in items for p in item[2:]}
    tw = 0
    for p in operands.values():
        if p.nx != nx:
            raise ArityMismatch(f"x-arity mismatch: {p.nx} vs {nx}")
        tw = max(tw, p.tw)
    packed = {i: (p._widened(tw), max(p.terms, default=0) >> F * (nx + p.tw))
              for i, p in operands.items()}
    out = {}
    products = []
    for key, c, p, q in items:
        a, da = packed[id(p)]
        b, db = packed[id(q)]
        # a constant operand has degree 0 and only scales, as in p * q
        if da and db and da + db >= DEG_LIMIT:
            raise DegreeOverflow("product degree exceeds the packed monomial bound")
        products.append((out.setdefault(key, {}), c, a, b))
    cancelled = _multiply_into(products)
    return {key: Poly(nx, tw, dict(terms) if cancelled else terms)
            for key, terms in out.items() if terms}


def _pack(nx, tw, xe, te):
    key = sum(xe) + sum(te.values())
    for e in xe:
        key = (key << F) | e
    for j in range(1, tw + 1):
        key = (key << F) | te.get(j, 0)
    return key


@lru_cache(maxsize=None)
def _shear_row(e):
    """The binomial coefficients C(e, a) of _shear_into, for a = 0 .. e-1."""
    return tuple(comb(e, a) for a in range(e))


def _shear_into(terms, tw, i):
    """Substitute slot_i -> slot_i + slot_{i+1} in place in the term dict
    of an arity-0 polynomial packed at t-width tw.

    slot_i^e slot_{i+1}^f becomes the binomial sum over a of
    C(e, a) slot_i^a slot_{i+1}^(f+e-a).  The total degree of every term
    is unchanged, so only the two fields move.  The a = e summand is the
    term itself, so a term without slot_i is left as it is and a term with
    it only adds its a < e summands.  Those read the coefficients of a
    snapshot taken before the pass: a summand may land on another term
    that holds slot_i and has not been read yet."""
    hi = F * (tw - i)
    lo = hi - F
    step = (1 << hi) - (1 << lo)
    sources = [(k, c, e) for k, c in terms.items() if (e := (k >> hi) & FIELD)]
    get = terms.get
    for k, c, e in sources:
        nk = k - (e << hi) + (e << lo)
        for b in _shear_row(e):
            v = get(nk, 0) + c * b
            if v:
                terms[nk] = v
            else:
                del terms[nk]
            nk += step


def _shift_derivative_vanishes(p, slots):
    """Whether D p = 0, D = d/dt_1 + ... + d/dt_m, for an arity-0 p whose
    t-indices present are `slots`.  One pass over the terms of p: a term
    with e > 0 in slot j adds e times its coefficient to the key one lower
    in slot j and in the total degree."""
    deg = 1 << (F * p.tw)
    steps = [(F * (p.tw - j), deg + (1 << F * (p.tw - j))) for j in slots]
    d = {}
    get = d.get
    for k, c in p.terms.items():
        for sh, drop in steps:
            e = (k >> sh) & FIELD
            if e:
                nk = k - drop
                d[nk] = get(nk, 0) + c * e
    return not any(d.values())


def to_difference_basis(p, m):
    """Rewrite a t-only polynomial in the differences u_i = t_i - t_{i+1}.

    Substitutes t_i -> u_i + u_{i+1} + ... + u_{m-1} + t_m and expands;
    this succeeds exactly when no t_m survives, i.e. when p is invariant
    under the simultaneous shift t_i -> t_i + c of all m parameters.  The
    result is returned as an arity-0 polynomial whose t-slots are read as
    u_1, ..., u_{m-1}.

    The derivative of the image in t_m is the image of D p, where
    D = d/dt_1 + ... + d/dt_m, and the substitution is invertible, so p
    is shift-invariant exactly when D p = 0; that is checked first, in one
    pass.  An invariant p keeps its value when all its t-indices are
    shifted by -t_J, J the largest index present, so p may be read at
    t_J = 0 before substituting: the terms of p that hold t_J are dropped,
    t_i -> u_i + t_{i+1} runs only for i from the smallest index present
    to J-2 (a lower pass has no term to move), the residual t_{J-1} is
    u_{J-1} itself, and u_J .. u_{m-1} do not occur.  Otherwise the
    substitutions run up to i = m-1 and the largest term left holding t_m
    is reported.  Either way they run in place on one copy of p's terms,
    packed at the width of the result.

    An int p is read as `Poly.const(p)`.  p keeps a weak reference to its
    certificate at the last m (`Poly._difference`, outside p's equality
    and repr): a second call at that m returns the same object while
    anything else holds it, and a new, equal one after that.  A p that is
    not invariant keeps nothing and raises on every call.
    """
    if isinstance(p, int):
        p = Poly.const(p)
    cert = p._difference and p._difference()
    if cert is not None and cert.tw + 1 == m:
        return cert
    m = _whole(m, 1, "m")
    source, p = p, p.t_only()
    slots = p._t_indices()
    if slots and slots[-1] > m:
        raise ValueError(f"polynomial involves t-indices beyond t{m}")
    invariant = _shift_derivative_vanishes(p, slots)
    # slot j carries u_j after the substitutions, which write in place on
    # one copy of p's terms: cut after slot w, J - 1 cutting off every term
    # holding t_J (a constant is cut to width 0) and m keeping t_m for the
    # offender, and packed straight at the result's width, m - 1 or m.
    w = (slots[-1] - 1 if slots else 0) if invariant else m
    width = m - 1 if invariant else m
    cut = (1 << F * max(p.tw - w, 0)) - 1
    down, up = F * max(p.tw - width, 0), F * max(width - p.tw, 0)
    terms = {k >> down << up: c for k, c in p.terms.items() if not k & cut}
    for i in range(slots[0] if slots else w, w):
        _shear_into(terms, width, i)
    if invariant:
        cert = Poly(0, width, terms)
        source._difference = ref(cert)
        return cert
    worst = max(k for k in terms if k & FIELD)
    raise NotShiftInvariant(
        "polynomial is not invariant under a simultaneous t-shift",
        offender=Poly(0, m, {worst: terms[worst]}).render(
            lambda j: f"t{m}" if j == m else f"u{j}"),
    )


@lru_cache(maxsize=None)
def _slot_table(nx, tw, name):
    """Bit offsets of x1..x_nx, and (name(j), bit offset) of t-slots j = 1..tw."""
    return (tuple(F * (tw + nx - i) for i in range(1, nx + 1)),
            tuple((name(j), F * (tw - j)) for j in range(1, tw + 1)))


def _decoded_monomials(nx, tw, name, keys):
    """(key, x-exponent list, sparse t-exponent map keyed name(j) for slot
    j, slot 1 first) of each packed key in `keys`, in the order given, read
    straight off the packed fields."""
    xs, ts = _slot_table(nx, tw, name)
    for k in keys:
        yield (k, [(k >> sh) & FIELD for sh in xs],
               {s: e for s, sh in ts if (e := (k >> sh) & FIELD)})


def _term_objs(p, render, memo):
    """The JSON term objects of p in canonical order: render(x, t, c) for
    each term, with x its x-exponent list, t its sparse t-exponent map
    keyed by the decimal slot index and c its coefficient in decimal.

    `memo` is a dict owned by one serializer call, `{}` for a single
    polynomial.  Each distinct (arity, t-width, render, packed key) is
    decoded once, and each coefficient met on it is rendered once: terms
    with one monomial share its x list and t map, and terms with one
    monomial and one coefficient are one object.  So a tree built through
    a shared memo is read-only."""
    terms = p.terms
    seen = memo.setdefault((p.nx, p.tw, render), {})
    for k, x, t in _decoded_monomials(p.nx, p.tw, str, [k for k in terms if k not in seen]):
        seen[k] = (x, t, {})
    out = []
    for k in sorted(terms, reverse=True):
        x, t, rendered = seen[k]
        c = terms[k]
        obj = rendered.get(c)
        if obj is None:
            obj = rendered[c] = render(x, t, str(c))
        out.append(obj)
    return out


def _poly_term(x, t, c):
    return {"x": x, "t": t, "c": c}


def _poly_obj(p, memo):
    """`poly_to_obj` through the memo of `_term_objs`."""
    return _term_objs(p, _poly_term, memo)


def poly_to_obj(p):
    """Canonical JSON form: a list of term objects in canonical order, the
    coefficient as a decimal string.  Each call returns fresh objects.  The
    serializers of many polynomials (tables and positivity reports) share
    one memo per call (`_term_objs`), so the terms within one tree they
    return share their exponent objects, and equal terms are one object:
    treat such a tree as read-only."""
    return _poly_obj(p, {})


def poly_from_obj(obj, nx=None):
    """Inverse of poly_to_obj.  The arity is read off the term data and may
    be pinned (required for the zero polynomial)."""
    terms = {}
    tw = 0
    parsed = []
    for item in obj:
        xe = tuple(int(e) for e in item["x"])
        if nx is None:
            nx = len(xe)
        elif len(xe) != nx:
            raise ArityMismatch("inconsistent x-arity in serialized terms")
        te = {int(j): int(e) for j, e in item["t"].items()}
        if any(j < 1 for j in te) or any(e <= 0 for e in te.values()) or any(e < 0 for e in xe):
            raise ValueError("invalid exponent in serialized term")
        c = int(item["c"])
        parsed.append((xe, te, c))
        if te:
            tw = max(tw, max(te))
    if nx is None:
        raise ValueError("cannot infer arity from an empty term list")
    for xe, te, c in parsed:
        if c == 0:
            continue
        key = _pack(nx, tw, xe, te)
        v = terms.get(key, 0) + c
        if v:
            terms[key] = v
        elif key in terms:
            del terms[key]
    return Poly(nx, tw, terms)
