"""The truncated ring of symmetric polynomials attached to a Grassmannian.

Fixing 1 <= n <= m, the symmetric polynomials in x1..xn over Z[t1, t2, ...]
are truncated by the ideal spanned (as a module) by the parameters beyond
t_m together with the double Schur basis elements whose partitions stick
out of the n x (m-n) box.  The classes of the in-box double Schur
polynomials form a basis of the quotient, multiply with the equivariant
Schubert structure constants, and every structure constant is certified
Graham-positive: a nonnegative integer combination of monomials in the
differences t_i - t_{i+1}.  The constants are computed in Z[t1..tm] by one
recursion, the Pieri rule, each of whose chains ends at the restriction of
one class to the fixed point of the other, the diagonal included, a sum
over excited Young diagrams in `schur._localization`.
"""

import math
from itertools import combinations_with_replacement
from operator import le

from .poly import (Poly, NotShiftInvariant, _decoded_monomials, _poly_obj, _pooled,
                   _sums_of_products, _term_objs, _whole, to_difference_basis)
from .schur import (
    SchurExpansion,
    _Record,
    _addable,
    _localization,
    _pieri_diagonal,
    double_schur,
    expand_in_double_schur,
    partition,
    pieri_multiply,
)

__all__ = [
    "GrassContext",
    "SizeGuardExceeded",
    "truncate",
    "schubert_product",
    "schubert_product_by_expansion",
    "PositivityReport",
    "check_graham_positivity",
    "certificate_to_obj",
    "sigma1_power_expansion",
    "StructureTable",
    "full_structure_table",
    "TABLE_GUARD",
    "rank_guard",
]

TABLE_GUARD = 256


class SizeGuardExceeded(RuntimeError):
    """A batch computation was refused because it exceeds the desk-scale
    resource guard."""


def rank_guard(ctx):
    """Refuse a batch computation over the whole box of ctx when the basis
    rank exceeds TABLE_GUARD."""
    rank = math.comb(ctx.m, ctx.n)
    if rank > TABLE_GUARD:
        raise SizeGuardExceeded(
            f"basis rank C({ctx.m},{ctx.n}) = {rank} exceeds the table guard "
            f"of {TABLE_GUARD}")


class GrassContext(_Record):
    """The Grassmannian of n-dimensional subspaces of m-dimensional space.
    Immutable and hashable; n and m are kept as plain ints (True as 1).
    The memos of its products live on it alone, so dropping it frees them:
    `_constants` of `_structure_constant`, `_supports` of `_support`, and
    `_points`, the one memo of `schur._localization` for every fixed point,
    keyed by the restricted shape and the point, which also pools the packed
    monomials of every stored constant and restriction (`poly._pooled`)."""

    _fields = ("n", "m")

    def __init__(self, n, m):
        if not (isinstance(n, int) and isinstance(m, int)):
            raise ValueError(f"need integers n and m, got n={n!r}, m={m!r}")
        if not 1 <= n <= m:
            raise ValueError(f"need 1 <= n <= m, got n={n}, m={m}")
        vars(self).update(n=int(n), m=int(m), _constants={}, _supports={},
                          _points={})

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __hash__(self):
        return hash(self._values())

    @property
    def cols(self):
        return self.m - self.n

    def in_box(self, lam):
        lam = partition(lam)
        return len(lam) <= self.n and (not lam or lam[0] <= self.cols)

    def box_partitions(self):
        """All partitions in the n x (m-n) box, lexicographically sorted."""
        return sorted(tuple(filter(None, p)) for p in
                      combinations_with_replacement(range(self.cols, -1, -1), self.n))


def truncate(expansion, ctx):
    """Image of a SchurExpansion in the truncated ring: drop partitions that
    leave the box, kill t-parameters beyond t_m.  Idempotent."""
    if expansion.n != ctx.n:
        raise ValueError(f"expansion arity {expansion.n} does not match n={ctx.n}")
    out = {}
    for lam, c in expansion.coeffs.items():
        if lam and lam[0] > ctx.cols:
            continue
        ck = c.kill_t_above(ctx.m)
        if ck:
            out[lam] = ck
    return SchurExpansion._trusted(ctx.n, out)


def _check_in_box(ctx, *parts):
    """Refuse any of `parts`, normalized partitions, that leaves the box."""
    for p in parts:
        if not ctx.in_box(p):
            raise ValueError(f"partition {p} does not fit the {ctx.n} x {ctx.cols} box")


def schubert_product(lam, mu, ctx):
    """Structure constants of the product of two Schubert classes, computed
    in the coefficient ring Z[t1..tm] alone by the Pieri recursion of
    `_structure_constant`, whose base cases are restrictions of one class
    to the fixed point of the other.  The product commutes, so (lam, mu)
    and (mu, lam) both run the recursion as (max, min) and share its
    entries in ctx's memo.  The map is built clean, in box order: a
    constant that vanishes is left out.  Only the partitions of `_support`
    are visited, and each chain of the recursion ends at a restriction
    evaluated at its fixed point, so a product costs the shapes between
    its factors and its support, not the box or the interval below the
    larger factor."""
    lam, mu = partition(lam), partition(mu)
    _check_in_box(ctx, lam, mu)
    hi, lo = max(lam, mu), min(lam, mu)
    return SchurExpansion._trusted(ctx.n, {
        nu: c for nu in _support(hi, lo, ctx)
        if (c := _structure_constant(hi, lo, nu, ctx))})


def _support(hi, lo, ctx):
    """The partitions nu of ctx's box with `_in_support(hi, lo, nu)`, in
    box order: hi grown one box at a time, |lo| times, with no row longer
    than the box, then kept when they contain lo.  Memoized on ctx."""
    if (hi, lo) not in ctx._supports:
        layer, grown = {hi}, {hi}
        for _ in range(sum(lo)):
            layer = {nu for lam in layer for nu in _addable(lam, ctx.n)
                     if nu[0] <= ctx.cols}
            grown |= layer
        ctx._supports[hi, lo] = sorted(nu for nu in grown if _contains(nu, lo))
    return ctx._supports[hi, lo]


def schubert_product_by_expansion(lam, mu, ctx):
    """The same structure constants by the polynomial route: multiply the
    double Schur polynomials, expand in the double Schur basis and
    truncate.  Kept as the independent cross-check of `schubert_product`."""
    lam, mu = partition(lam), partition(mu)
    _check_in_box(ctx, lam, mu)
    prod = double_schur(lam, ctx.n) * double_schur(mu, ctx.n)
    return truncate(expand_in_double_schur(prod, ctx.n), ctx)


def _contains(outer, inner):
    return len(inner) <= len(outer) and all(map(le, inner, outer))


def _in_support(lam, mu, nu):
    """c_{lam,mu}^nu vanishes unless lam and mu lie inside nu and
    |nu| <= |lam| + |mu| (the constant has degree |lam| + |mu| - |nu|)."""
    return sum(nu) <= sum(lam) + sum(mu) and _contains(nu, lam) and _contains(nu, mu)


def _removable(nu):
    """Partitions obtained from nu by removing one corner box.  Only the
    last row can shrink to 0, and is then dropped."""
    out = []
    last = len(nu) - 1
    for r, part in enumerate(nu):
        if r == last:
            out.append(nu[:r] + (part - 1,) if part > 1 else nu[:r])
        elif nu[r + 1] < part:
            out.append(nu[:r] + (part - 1,) + nu[r + 1:])
    return out


def _structure_constant(lam, mu, nu, ctx):
    """The coefficient c_{lam,mu}^nu of s_nu in s_lam * s_mu (ctx.n
    x-variables) for `_in_support(lam, mu, nu)`, memoized on ctx.

    Multiplying s_lam * s_mu by e = x1 + ... + xn on either side and
    expanding both by the Pieri rule e * s_k = d(k) s_k + sum of s_{k+box}
    gives, for nu != lam,

        (d(nu) - d(lam)) c_{lam,mu}^nu
            = sum over lam+ = lam + box of c_{lam+,mu}^nu
              - sum over nu- = nu - box of c_{lam,mu}^{nu-},

    and d(nu) - d(lam) is a nonzero linear form whenever nu strictly
    contains lam, so one exact division yields c.  d(nu) and d(lam) are
    the memoized values `_pieri_diagonal`, and the lam+ are `_addable`.
    Only the lam+ and nu- in the support are visited, so the memo keeps no
    constant that vanishes for want of support; they lie inside nu, so the
    Grassmannian's m does not enter.

    So every chain ends at a key whose nu is one of its factors: the
    restriction of the other factor's Schubert class to the fixed point of
    nu (Knutson-Tao, Duke Math. J. 119, 2003), the double Schur polynomial
    of that factor at the point.  nu = mu restricts lam, nu = lam restricts
    mu, by commutativity, and both give the diagonal; each such key goes to
    `schur._localization`, one excited-diagram sum memoized on ctx, and every
    other key is a Pieri step, whose quotient is stored through the pool
    `ctx._points`, as the restrictions are."""
    key, n = (lam, mu, nu), ctx.n
    c = ctx._constants.get(key)
    if c is not None:
        return c
    if nu in (lam, mu):
        c = _localization(mu if nu == lam else lam, nu, n, ctx._points)
    else:
        acc = Poly.zero(0)
        for grown in _addable(lam, n):
            if _in_support(grown, mu, nu):
                acc = acc + _structure_constant(grown, mu, nu, ctx)
        for shrunk in _removable(nu):
            if _in_support(lam, mu, shrunk):
                acc = acc - _structure_constant(lam, mu, shrunk, ctx)
        c = acc.exact_div(_pieri_diagonal(nu, n) - _pieri_diagonal(lam, n))
        c = Poly(0, c.tw, _pooled(c.terms, ctx._points))
    ctx._constants[key] = c
    return c


class PositivityReport(_Record):
    """Outcome of a Graham-positivity check.  When positive, `certificate`
    holds the expansion in the difference variables u_i = t_i - t_{i+1}
    (all coefficients nonnegative integers) and `differences_used` lists
    which u_i actually occur."""

    _fields = ("positive", "certificate", "differences_used", "reason", "offender")

    def __init__(self, positive, certificate=None, differences_used=(),
                 reason=None, offender=None):
        self.positive = positive
        self.certificate = certificate
        self.differences_used = differences_used
        self.reason = reason
        self.offender = offender

    def to_obj(self):
        """JSON form of the report, fresh objects on each call."""
        return self._obj({})

    def _obj(self, memo):
        if self.positive:
            return {"positive": self.positive,
                    "certificate": _certificate_obj(self.certificate, memo),
                    "differences_used": list(self.differences_used)}
        return {"positive": self.positive, "certificate": None,
                "reason": self.reason, "offender": self.offender}

    def annotate(self, product_obj):
        """Attach this report to a serialized product entry: `certificate`
        holds the u-expansion itself, remaining fields ride alongside (nested
        under `violation` when the check failed)."""
        return self._annotate(product_obj, {})

    def _annotate(self, product_obj, memo):
        if self.positive:
            product_obj.update(certificate=_certificate_obj(self.certificate, memo),
                               positive=self.positive,
                               differences_used=list(self.differences_used))
        else:
            product_obj.update(certificate=None, positive=self.positive,
                               violation={"reason": self.reason, "offender": self.offender})
        return product_obj


def certificate_to_obj(cert):
    """Canonical JSON form of a difference-basis expansion: term list with
    sparse u-exponent maps.  Each call returns fresh objects."""
    return _certificate_obj(cert, {})


def _certificate_term(x, t, c):
    return {"u": t, "c": c}


def _certificate_obj(cert, memo):
    """`certificate_to_obj` through the memo of `poly._term_objs`."""
    return _term_objs(cert, _certificate_term, memo)


def check_graham_positivity(c, ctx):
    """Certify that a structure constant lies in the nonnegative span of
    monomials in t_1-t_2, ..., t_{m-1}-t_m, or report the violation.  An
    int c is read as a constant polynomial, so a negative one is reported
    by its negative coefficient."""
    try:
        cert = to_difference_basis(c, ctx.m)
    except NotShiftInvariant as exc:
        return PositivityReport(False, reason="not shift-invariant",
                                offender=exc.offender)
    terms = cert.terms
    if terms and min(terms.values()) < 0:
        # the first negative term in canonical order
        k = max(k for k, coeff in terms.items() if coeff < 0)
        _, _, mono = next(_decoded_monomials(0, cert.tw, str, [k]))
        return PositivityReport(False, reason="negative coefficient",
                                offender=f"{terms[k]} on u-monomial {mono}")
    return PositivityReport(True, cert, cert._t_indices())


def sigma1_power_expansion(k, ctx):
    """Expansion of (x1 + ... + xn)^k in the truncated ring, computed by
    iterating the Pieri rule and truncating.  The coefficients in top
    degree |lam| = k are plain integers (standard tableau counts).

    Each step sums every product c * d of a coefficient c and a Pieri
    coefficient d into its target in one `_sums_of_products` batch; k is
    read by `_whole`."""
    acc = SchurExpansion.unit((), ctx.n)
    for _ in range(_whole(k, 0, "power")):
        acc = truncate(SchurExpansion._trusted(ctx.n, _sums_of_products(
            0, ((mu, 1, c, d) for lam, c in acc.coeffs.items()
                for mu, d in pieri_multiply(lam, ctx.n).coeffs.items()))), ctx)
    return acc


class StructureTable(_Record):
    """All pairwise Schubert products of a context, with certificates."""

    _fields = ("context", "entries")

    def __init__(self, context, entries=None):
        self.context = context
        # entries: (lam, mu) -> {nu: (coefficient, PositivityReport)}
        self.entries = {} if entries is None else entries

    @property
    def all_positive(self):
        return all(report.positive
                   for products in self.entries.values()
                   for _, report in products.values())

    def to_obj(self):
        """JSON form of the table, entries in lexicographic (lam, mu) order.

        One call keeps one memo (`poly._term_objs`), which decodes each
        distinct monomial once, and renders each mirror pair once: entry
        (lam, mu) gets the list already rendered for (mu, lam) when that
        map is this one or equals it, since equal maps render to equal
        bytes.  So the shared maps of `full_structure_table` and the equal
        maps of a table built pair by pair both render once, and terms and
        entries within the returned tree share objects: treat it as
        read-only."""
        memo = {}
        rendered = {}
        entries = []
        for lam, mu in sorted(self.entries):
            products = self.entries[(lam, mu)]
            mirror = self.entries.get((mu, lam))
            obj = rendered.get((mu, lam))
            if obj is None or (mirror is not products and mirror != products):
                obj = _products_to_obj(products, memo)
            rendered[(lam, mu)] = obj
            entries.append({"lambda": list(lam), "mu": list(mu), "products": obj})
        return {"n": self.context.n, "m": self.context.m, "entries": entries}


def _certified_product(lam, mu, ctx):
    """`schubert_product` with every nonzero constant certified:
    nu -> (constant, PositivityReport), nu in lexicographic order."""
    return {nu: (c, check_graham_positivity(c, ctx))
            for nu, c in schubert_product(lam, mu, ctx).items()}


def _products_to_obj(products, memo):
    """JSON form of a `_certified_product` map, nu in lexicographic order.
    Its terms share objects through `memo` (see `poly._term_objs`), so the
    list is read-only."""
    return [report._annotate({"nu": list(nu), "coeff": _poly_obj(c, memo)}, memo)
            for nu, (c, report) in sorted(products.items())]


def full_structure_table(ctx):
    """Every product of box partitions, each coefficient carrying its
    positivity certificate.  Refused above the desk-scale guard.  Mirror
    pairs share one product and one certificate: the product commutes."""
    rank_guard(ctx)
    box = ctx.box_partitions()
    entries = {}
    for i, lam in enumerate(box):
        for mu in box[i:]:
            entries[(lam, mu)] = entries[(mu, lam)] = _certified_product(lam, mu, ctx)
    return StructureTable(ctx, entries)
