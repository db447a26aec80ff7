import hashlib
import json
import sys
import time

import pytest
from hypothesis import example, given, settings, strategies as st

from doubleschur import GrassContext, double_monomial, poly, sigma1_power_expansion
from doubleschur.poly import (
    DEG_LIMIT,
    ArityMismatch,
    DegreeOverflow,
    NotDivisible,
    NotShiftInvariant,
    Poly,
    poly_from_obj,
    poly_to_obj,
    to_difference_basis,
)
from difference_basis import from_difference_basis, reference_to_difference_basis
from xstructure import coefficient_of_x, heap_exact_div, is_symmetric, leading_x, swap_x


def x(i, nx=2):
    return Poly.x(i, nx)


def t(j, nx=2):
    return Poly.t(j, nx)


@st.composite
def polys(draw, nx=2):
    terms = draw(st.lists(
        st.tuples(
            st.lists(st.integers(0, 2), min_size=nx, max_size=nx),
            st.dictionaries(st.integers(1, 3), st.integers(1, 2), max_size=2),
            st.integers(-4, 4)),
        max_size=4))
    p = Poly.zero(nx)
    for xe, te, c in terms:
        mono = Poly.const(c, nx)
        for i, e in enumerate(xe, 1):
            mono = mono * Poly.x(i, nx) ** e
        for j, e in te.items():
            mono = mono * Poly.t(j, nx) ** e
        p = p + mono
    return p


# -- add / mul basics ------------------------------------------------------

def test_add_cancels():
    assert x(1) + (-x(1)) == Poly.zero(2)
    assert (x(1) + (-x(1))).is_zero()


def test_add_collects():
    assert x(1, 2) + t(1, 2) + x(2, 2) == x(2, 2) + t(1, 2) + x(1, 2)


def test_add_identity():
    p = x(1) * x(2) + t(3) * 5
    assert p + Poly.zero(2) == p
    assert p + 0 == p


def test_mul_expands_double_monomial():
    got = (x(1, 1) + t(1, 1)) * (x(1, 1) + t(2, 1))
    want = x(1, 1) ** 2 + (t(1, 1) + t(2, 1)) * x(1, 1) + t(1, 1) * t(2, 1)
    assert got == want


def test_mul_identity():
    p = 3 * x(1) - t(2) * x(2)
    assert p * Poly.one(2) == p
    assert p * 1 == p


def test_difference_of_squares():
    assert (x(1) - x(2)) * (x(1) + x(2)) == x(1) ** 2 - x(2) ** 2


def _compact(p):
    return sys.getsizeof(p.terms) == sys.getsizeof(dict(p.terms))


def test_results_whose_terms_cancel_keep_compact_tables():
    # a cancelled key leaves its slot in the table, so a kept sum or
    # product whose terms cancel is a compact copy
    g = Poly.zero(2)
    for i in range(40):
        g = g + x(1) ** i * x(2) ** (39 - i)
    top = g + x(1) ** 40
    assert top + (-g) == x(1) ** 40 and _compact(top + (-g))
    assert top - g == x(1) ** 40 and _compact(top - g)
    assert (x(1) - x(2)) * g == x(1) ** 40 - x(2) ** 40
    assert _compact((x(1) - x(2)) * g)


def test_arity_mismatch_rejected():
    with pytest.raises(ArityMismatch):
        x(1, 2) + x(1, 3)
    with pytest.raises(ArityMismatch):
        x(1, 2) * x(1, 3)


@settings(max_examples=60, deadline=None)
@given(polys(), polys(), polys())
def test_ring_axioms(p, q, r):
    assert p + q == q + p
    assert (p + q) + r == p + (q + r)
    assert p * q == q * p
    assert (p * q) * r == p * (q * r)
    assert (p + q) * r == p * r + q * r
    assert p - q == p + (-q) and (p - q) + q == p


@settings(max_examples=60, deadline=None)
@given(polys(), polys())
def test_exact_div_round_trip(p, d):
    if d.is_zero():
        with pytest.raises(ZeroDivisionError):
            (p * d).exact_div(d)
    else:
        assert heap_exact_div(p * d, d) == p


# -- exact division --------------------------------------------------------

def test_exact_div_example():
    q = (x(1) ** 2 - x(2) ** 2).exact_div(x(1) - x(2))
    assert q == x(1) + x(2)


def test_exact_div_two_by_two_determinant_ratio():
    # ((x1|t)^2 - (x2|t)^2) / (x1 - x2) = x1 + x2 + t1 + t2
    dm1 = (x(1) + t(1)) * (x(1) + t(2))
    dm2 = (x(2) + t(1)) * (x(2) + t(2))
    got = (dm1 - dm2).exact_div(x(1) - x(2))
    assert got == x(1) + x(2) + t(1) + t(2)


def test_exact_div_detects_nondivisibility():
    with pytest.raises(NotDivisible):
        (x(1) + t(1)).exact_div(x(2))
    with pytest.raises(NotDivisible):
        # divisible over Q but not over Z
        heap_exact_div(x(1), Poly.const(2, 2))
    with pytest.raises(NotDivisible):
        heap_exact_div(x(1) ** 2 + Poly.one(2), x(1) + Poly.one(2))


@pytest.mark.parametrize("a", [1, -1, 2])
def test_exact_div_by_each_leading_coefficient(a):
    # a = 1 copies each group, a = -1 negates it and |a| > 1 divides it
    d = a * x(1) - x(2) + t(1)
    p = x(1) * x(2) + t(2) * t(2) - 3 * t(1) + x(1) * x(1) * t(3)
    assert (p * d).exact_div(d) == p
    for extra in (x(1), t(3)):
        with pytest.raises(NotDivisible):
            (p * d + extra).exact_div(d)


def test_exact_div_by_zero():
    with pytest.raises(ZeroDivisionError):
        x(1).exact_div(Poly.zero(2))
    with pytest.raises(ZeroDivisionError):
        x(1).exact_div(0)


def test_exact_div_refuses_a_divisor_that_is_not_a_linear_form():
    for d in (2, Poly.const(2, 2), x(1) ** 2, x(1) + Poly.one(2), x(1) * t(1)):
        with pytest.raises(ValueError):
            (x(1) * x(1)).exact_div(d)


@st.composite
def linear_forms(draw, nx):
    """A nonzero linear form over x1..x_nx and t1..t4, coefficients +-1..+-3."""
    variables = [Poly.x(i, nx) for i in range(1, nx + 1)] + [Poly.t(j, nx) for j in range(1, 5)]
    picks = draw(st.dictionaries(st.integers(0, len(variables) - 1),
                                 st.sampled_from((-3, -2, -1, 1, 2, 3)),
                                 min_size=1, max_size=4))
    form = Poly.zero(nx)
    for i, c in picks.items():
        form = form + c * variables[i]
    return form


def _quotient_or_error(divide, p, d):
    try:
        return divide(p, d)
    except NotDivisible:
        return NotDivisible


@st.composite
def division_cases(draw):
    """(p, L, stray term) at one arity 0..2; p is stored padded to a wider
    t-width than its terms need, as the recursion's sums can be."""
    nx = draw(st.integers(0, 2))
    p = draw(polys(nx))
    pad = draw(st.integers(0, 2))
    p = Poly(nx, p.tw + pad, p._widened(p.tw + pad))
    stray = draw(polys(nx))
    c = draw(st.sampled_from((-3, -2, -1, 1, 2, 3)))
    stray = Poly(nx, stray.tw, {max(stray.terms): c}) if stray else None
    return p, draw(linear_forms(nx)), stray


@settings(max_examples=300, deadline=None)
@given(division_cases())
def test_exact_div_matches_the_general_division(case):
    # p * L divides back to p; p * L plus a stray term divides, or fails
    # to, exactly as the general division does
    p, form, stray = case
    product = p * form
    assert product.exact_div(form) == p
    assert heap_exact_div(product, form) == p
    if stray is not None:
        perturbed = product + stray
        assert _quotient_or_error(Poly.exact_div, perturbed, form) == \
            _quotient_or_error(heap_exact_div, perturbed, form)


# -- kill_t_above ----------------------------------------------------------

def test_kill_t_above_examples():
    assert (t(3, 0) + t(1, 0)).kill_t_above(2) == t(1, 0)
    assert (x(1) * t(5)).kill_t_above(4) == Poly.zero(2)
    assert (x(1) * t(5)).kill_t_above(5) == x(1) * t(5)


def test_kill_t_above_idempotent():
    p = x(1) * t(3) + t(1) * t(2) - 7 * x(2)
    assert p.kill_t_above(2).kill_t_above(2) == p.kill_t_above(2)


def test_kill_t_zero_kills_everything_with_t():
    p = x(1) * t(3) + 4 * x(2) ** 2
    assert p.kill_t_above(0) == 4 * x(2) ** 2


@settings(max_examples=40, deadline=None)
@given(polys(), polys(), st.integers(0, 3))
def test_kill_t_above_is_ring_hom(p, q, m):
    assert (p * q).kill_t_above(m) == (p.kill_t_above(m) * q.kill_t_above(m)).kill_t_above(m)
    assert (p + q).kill_t_above(m) == p.kill_t_above(m) + q.kill_t_above(m)


# -- difference basis ------------------------------------------------------

def test_difference_basis_simple():
    # t1 - t2 at m=2 becomes u1
    u = to_difference_basis(t(1, 0) - t(2, 0), 2)
    assert u == Poly.t(1)


def test_difference_basis_constant():
    assert to_difference_basis(Poly.const(5), 3) == Poly.const(5)


def test_difference_basis_rejects_shift_variant():
    with pytest.raises(NotShiftInvariant):
        to_difference_basis(t(1, 0) + t(2, 0), 2)
    with pytest.raises(NotShiftInvariant):
        to_difference_basis(t(1, 0), 1)
    with pytest.raises(NotShiftInvariant) as info:
        to_difference_basis(t(3, 0) ** 2 - t(1, 0), 4)
    # the largest surviving term that still contains t_m
    assert info.value.offender == "2*u3*t4"
    # D = 1 - 1 + 1: a shift derivative that left out slot m would call it
    # invariant
    with pytest.raises(NotShiftInvariant) as info:
        to_difference_basis(t(1, 0) - t(2, 0) + t(3, 0), 3)
    assert info.value.offender == "t3"


@settings(max_examples=40, deadline=None)
@given(st.lists(st.tuples(st.dictionaries(st.integers(1, 3), st.integers(1, 2),
                                          max_size=2),
                          st.integers(-3, 3)), max_size=3))
def test_difference_basis_round_trip(uterms):
    # build an arbitrary polynomial in u1..u3, expand to t1..t4, go back
    m = 4
    u = Poly.zero(0)
    for te, c in uterms:
        mono = Poly.const(c)
        for j, e in te.items():
            mono = mono * Poly.t(j) ** e
        u = u + mono
    p = from_difference_basis(u, m)
    assert to_difference_basis(p, m) == u


def test_difference_round_trip_reproduces_input():
    p = (t(1, 0) - t(3, 0)) * (t(2, 0) - t(3, 0)) + 2 * (t(1, 0) - t(2, 0))
    u = to_difference_basis(p, 3)
    assert from_difference_basis(u, 3) == p


def test_difference_basis_reads_an_int_as_a_constant():
    for c in (0, 3, -3):
        u = to_difference_basis(c, 4)
        assert u == to_difference_basis(Poly.const(c), 4) == c
        assert u.nx == 0 and u.tw == 3


def _fresh(p):
    """A copy of p that has never been certified."""
    return Poly(p.nx, p.tw, dict(p.terms))


def test_difference_basis_keeps_the_certificate_of_the_last_m():
    p = (t(1, 0) - t(3, 0)) * (t(2, 0) - t(5, 0)) + 2 * (t(4, 0) - t(6, 0))
    six = to_difference_basis(p, 6)
    assert to_difference_basis(p, 6) is six
    assert six.tw == 5 and six == to_difference_basis(_fresh(p), 6)
    seven = to_difference_basis(p, 7)
    assert seven.tw == 6 and seven == to_difference_basis(_fresh(p), 7)
    assert to_difference_basis(p, 7) is seven
    # p holds t6, so m = 5 is refused even after certificates at 6 and 7
    with pytest.raises(ValueError):
        to_difference_basis(p, 5)
    # an input at arity 2 keeps its certificate too
    q = t(1) - t(2)
    assert to_difference_basis(q, 3) is to_difference_basis(q, 3)


def test_difference_basis_reads_m_before_the_kept_certificate():
    p = t(1, 0) - t(2, 0)
    cert = to_difference_basis(p, 3)
    assert to_difference_basis(p, 3) is cert
    # 3.0 is refused on a fresh input, so a kept certificate may not answer it
    for q in (_fresh(p), p):
        with pytest.raises(ValueError):
            to_difference_basis(q, 3.0)


def test_difference_basis_raises_on_every_call_for_a_variant_input():
    p = t(3, 0) ** 2 - t(1, 0)
    for _ in range(3):
        with pytest.raises(NotShiftInvariant) as info:
            to_difference_basis(p, 4)
        assert info.value.offender == "2*u3*t4"


def test_a_certificate_leaves_equality_repr_and_json_unchanged():
    p = (t(1, 0) - t(2, 0)) * (t(1, 0) - t(3, 0))
    before = (repr(p), json.dumps(poly_to_obj(p)))
    to_difference_basis(p, 3)
    assert (repr(p), json.dumps(poly_to_obj(p))) == before
    assert p == _fresh(p) and _fresh(p) == p


def _outcome(fn, *args):
    try:
        return "value", fn(*args)
    except NotShiftInvariant as exc:
        return "NotShiftInvariant", exc.offender


@st.composite
def t_polys(draw, top):
    """Arity-0 polynomials in t_1..t_top, exponents up to 4."""
    p = Poly.zero(0)
    for te, c in draw(st.lists(st.tuples(
            st.dictionaries(st.integers(1, max(top, 1)), st.integers(1, 4), max_size=3),
            st.integers(-3, 3)), max_size=4)):
        mono = Poly.const(c)
        for j, e in te.items():
            if j <= top:
                mono = mono * Poly.t(j) ** e
        p = p + mono
    return p


@settings(max_examples=80, deadline=None)
@given(st.integers(1, 7).flatmap(
    lambda m: st.tuples(st.just(m), t_polys(m), t_polys(m - 1), st.integers(0, 2))))
def test_difference_basis_matches_reference(case):
    m, p, u, pad = case
    # mostly shift-variant: same exception and offender.  The cancelled
    # term pads p beyond t-width m without using t_{m+pad}.
    p = p + Poly.t(m + pad) - Poly.t(m + pad)
    assert _outcome(to_difference_basis, p, m) == \
        _outcome(reference_to_difference_basis, p, m)
    # shift-invariant input: the image of u
    invariant = from_difference_basis(u, m)
    assert _outcome(to_difference_basis, invariant, m) == \
        _outcome(reference_to_difference_basis, invariant, m)


@st.composite
def near_invariant(draw):
    """(m, the image of a random u plus one monomial c * t^a): the monomial
    is often t_m alone, and exponents reach 3."""
    m = draw(st.integers(1, 6))
    u = draw(t_polys(m - 1))
    exps = draw(st.one_of(st.integers(1, 3).map(lambda e: {m: e}),
                          st.dictionaries(st.integers(1, m), st.integers(1, 3),
                                          max_size=3)))
    mono = Poly.const(draw(st.sampled_from([-2, -1, 1, 2])))
    for j, e in exps.items():
        mono = mono * Poly.t(j) ** e
    return m, from_difference_basis(u, m) + mono


@settings(max_examples=80, deadline=None)
@given(near_invariant())
def test_difference_basis_near_invariant_matches_reference(case):
    m, p = case
    assert _outcome(to_difference_basis, p, m) == \
        _outcome(reference_to_difference_basis, p, m)


def _stored_at(p, tw):
    """p with its terms packed at t-width tw >= p.tw (padding above)."""
    return Poly(p.nx, tw, p._widened(tw))


_U = Poly.t(1) ** 2 + 3 * Poly.t(1) * Poly.t(2) + 2      # u1..u2: t1..t3
_UM = _U * Poly.t(4) + Poly.t(4) ** 2                    # u4 too: t5 = t_m


@pytest.mark.parametrize("m,p,tw", [
    # invariant, stored narrower than, at, one above and three above m - 1
    *((5, from_difference_basis(_U, 5), tw) for tw in (3, 4, 5, 7)),
    (5, from_difference_basis(_UM, 5), 5),
    (5, from_difference_basis(_UM, 5), 7),
    # not invariant, at the same widths
    *((5, from_difference_basis(_U, 5) + Poly.t(2), tw) for tw in (3, 4, 5, 7)),
    (5, from_difference_basis(_UM, 5) - 2 * Poly.t(5) ** 2, 5),
    (5, from_difference_basis(_UM, 5) - 2 * Poly.t(5) ** 2, 7),
    (2, Poly.t(1), 4),
])
def test_difference_basis_at_every_stored_width(m, p, tw):
    p = _stored_at(p, tw)
    assert p.tw == tw
    got = _outcome(to_difference_basis, p, m)
    assert got == _outcome(reference_to_difference_basis, p, m)
    if got[0] == "value":
        assert got[1].tw == m - 1


@pytest.mark.parametrize("m", range(1, 7))
def test_difference_basis_substitutes_invariant_input_at_t_m_zero(monkeypatch, m):
    # an invariant input takes m - 2 substitution passes, any other m - 1
    passes = []
    shear = poly._shear_into

    def counted(terms, tw, i):
        passes.append(i)
        shear(terms, tw, i)

    monkeypatch.setattr(poly, "_shear_into", counted)
    # squares, so that D weighs each term by its exponent
    u = Poly.const(5)
    for j in range(1, m):
        u = u + (j + 1) * Poly.t(j) ** 2 - Poly.t(1) * Poly.t(j) ** 3
    p = from_difference_basis(u, m)
    assert to_difference_basis(p, m) == u
    assert passes == list(range(1, m - 1))
    passes.clear()
    with pytest.raises(NotShiftInvariant):
        to_difference_basis(p + Poly.t(m) ** 2, m)
    assert passes == list(range(1, m))


@st.composite
def invariant_below_m(draw):
    """(m, J, p): p the image of a random u in u_low..u_{J-1}, so p is
    shift-invariant with t-indices in low..J, J < m, stored at a t-width
    past J."""
    m = draw(st.integers(2, 7))
    top = draw(st.integers(1, m - 1))
    low = draw(st.integers(1, top))
    u = Poly.zero(0)
    for te, c in draw(st.lists(st.tuples(
            st.dictionaries(st.integers(low, top), st.integers(1, 3), max_size=3),
            st.integers(-3, 3)), max_size=4)):
        mono = Poly.const(c)
        for j, e in te.items():
            if j < top:
                mono = mono * Poly.t(j) ** e
        u = u + mono
    p = from_difference_basis(u, top)
    return m, top, _stored_at(p, top + draw(st.integers(1, 3)))


@settings(max_examples=80, deadline=None)
@given(invariant_below_m())
def test_difference_basis_below_m_matches_reference_at_width_m_minus_1(case):
    m, top, p = case
    assert p.tw > top
    got = to_difference_basis(p, m)
    assert got == reference_to_difference_basis(p, m)
    assert got.tw == m - 1


@pytest.mark.parametrize("low,top,m", [(1, 3, 5), (2, 4, 4), (2, 5, 7), (3, 4, 6), (4, 6, 6)])
def test_difference_basis_shears_from_the_smallest_to_the_largest_index(monkeypatch, low, top, m):
    # indices low..top: the passes run for i = low .. top - 2 only
    passes = []
    shear = poly._shear_into

    def counted(terms, tw, i):
        passes.append(i)
        shear(terms, tw, i)

    monkeypatch.setattr(poly, "_shear_into", counted)
    u = Poly.const(2)
    for j in range(low, top):
        u = u + j * Poly.t(j) ** 2 + Poly.t(low) * Poly.t(j)
    p = from_difference_basis(u, top)
    assert p._t_indices() == tuple(range(low, top + 1))
    assert to_difference_basis(p, m) == u
    assert passes == list(range(low, top - 1))


# -- serialization ---------------------------------------------------------

def test_json_round_trip():
    p = 3 * x(1) ** 2 * t(2) - t(1) * t(3) ** 2 + 12
    obj = poly_to_obj(p)
    assert poly_from_obj(obj) == p


def test_json_canonical_order_and_bytes():
    p = x(2) + x(1) + t(1) * x(2) + 1
    q = 1 + t(1) * x(2) + x(1) + x(2)
    assert json.dumps(poly_to_obj(p)) == json.dumps(poly_to_obj(q))
    # graded lex, largest first: t1*x2 (deg 2), then x1, x2, then 1
    xs = [term["x"] for term in poly_to_obj(p)]
    assert xs == [[0, 1], [1, 0], [0, 1], [0, 0]]


def test_json_coefficients_are_decimal_strings():
    big = 10 ** 30
    p = Poly.const(big) * Poly.t(1)
    obj = poly_to_obj(p)
    assert obj[0]["c"] == str(big)
    assert poly_from_obj(obj, nx=0) == p


def test_json_zero_poly_needs_arity():
    assert poly_from_obj([], nx=2) == Poly.zero(2)
    with pytest.raises(ValueError):
        poly_from_obj([])


def test_json_reads_the_largest_degree_the_packed_format_takes():
    p = poly_from_obj([{"x": [DEG_LIMIT - 1], "t": {}, "c": "1"}])
    assert p == x(1, 1) ** (DEG_LIMIT - 1)
    assert poly_from_obj(poly_to_obj(p)) == p


@pytest.mark.parametrize("term", [
    {"x": [DEG_LIMIT], "t": {}, "c": "1"},
    {"x": [70000], "t": {}, "c": "1"},
    {"x": [], "t": {"1": 65536}, "c": "1"},
    {"x": [1, 70000], "t": {}, "c": "1"},
    {"x": [DEG_LIMIT - 1], "t": {"1": 1}, "c": "1"},
], ids=["x^32768", "x^70000", "t1^65536", "x1*x2^70000", "x^32767*t1"])
def test_json_refuses_a_term_the_packed_format_cannot_hold(term):
    # a field of 16 bits would wrap, and the degree field would disagree
    # with the exponents: a term of degree DEG_LIMIT or more is refused
    with pytest.raises(DegreeOverflow):
        poly_from_obj([term])


@pytest.mark.parametrize("term", [
    {"x": [1.5], "t": {"2": 2.9}, "c": 2.7},
    {"x": [1.0], "t": {}, "c": "1"},
    {"x": [], "t": {"2": 2.9}, "c": "1"},
    {"x": ["1"], "t": {}, "c": "1"},
    {"x": [], "t": {}, "c": 2.7},
    {"x": [], "t": {}, "c": "2.7"},
], ids=["all-floats", "x-float", "t-float", "x-string", "c-float", "c-decimal-string"])
def test_json_refuses_exponents_and_coefficients_that_are_not_ints(term):
    with pytest.raises(ValueError):
        poly_from_obj([term])


def test_json_reads_a_numeric_coefficient_and_bool_exponents_as_ints():
    assert poly_from_obj([{"x": [True], "t": {"2": True}, "c": -3}]) == -3 * x(1, 1) * t(2, 1)
    assert poly_from_obj([{"x": [], "t": {}, "c": 10 ** 30}], nx=0) == Poly.const(10 ** 30)


def test_json_reads_a_large_t_index_in_linear_time():
    # the key is shifted once over the t-slots and the exponent ORed into
    # its slot; one shift per slot took about 4.6 s for this 1.6-million-bit
    # key (2 vCPUs, Python 3.11)
    j = 100_000
    start = time.perf_counter()
    p = poly_from_obj([{"x": [], "t": {str(j): 2}, "c": "3"}])
    assert time.perf_counter() - start < 1.0
    assert p == 3 * t(j, 0) ** 2 and p.tw == j
    # the writer decodes every slot of a key, so the write-back is checked
    # at a smaller index
    q = 3 * t(5_000) ** 2 * x(1) + t(1)
    assert poly_from_obj(poly_to_obj(q)) == q


@pytest.mark.parametrize("obj, want", [
    ([{"x": [1], "t": {}, "c": "0"}, {"x": [0], "t": {"2": 1}, "c": "2"}],
     2 * t(2, 1)),
    ([{"x": [1], "t": {"1": 1}, "c": "2"}, {"x": [1], "t": {"1": 1}, "c": -2}],
     Poly.zero(1)),
    ([{"x": [1], "t": {}, "c": "2"}, {"x": [1], "t": {}, "c": "-2"},
      {"x": [1], "t": {}, "c": "5"}], 5 * x(1, 1)),
], ids=["zero-coefficient", "cancelling-terms", "cancelled-then-written"])
def test_json_skips_zero_coefficients_and_drops_terms_that_cancel(obj, want):
    p = poly_from_obj(obj)
    assert p == want and 0 not in p.terms.values()


@pytest.mark.parametrize("obj, error, message", [
    ([{"x": [1], "t": {}, "c": "1"}, {"x": [1, 0], "t": {}, "c": "1"}],
     ArityMismatch, "inconsistent x-arity in serialized terms"),
    ([{"x": [], "t": {"0": 1}, "c": "1"}], ValueError, "invalid t-index in serialized term"),
    ([{"x": [], "t": {"-2": 1}, "c": "1"}], ValueError, "invalid t-index in serialized term"),
    # two keys that name one t-index: neither exponent may be dropped
    ([{"x": [], "t": {"2": 1, "02": 1}, "c": "1"}], ValueError,
     "invalid t-index in serialized term"),
    ([{"x": [1], "t": {"2": 1, " 2": 4}, "c": "1"}], ValueError,
     "invalid t-index in serialized term"),
], ids=["x-arity", "t-index-0", "t-index-negative", "t-index-twice-zero-padded",
        "t-index-twice-spaced"])
def test_json_refuses_inconsistent_arity_and_t_indices_below_1(obj, error, message):
    with pytest.raises(error, match=message):
        poly_from_obj(obj)


def test_json_sparse_t_map_has_no_zero_exponents():
    p = x(1) * t(3)
    (term,) = poly_to_obj(p)
    assert term["t"] == {"3": 1}


# -- structure helpers -----------------------------------------------------

def test_leading_x_and_coefficient():
    p = x(1) ** 2 * t(2) + x(1) * x(2) * 5 - t(1)
    assert leading_x(p) == (2, 0)
    assert coefficient_of_x(p, (2, 0)) == Poly.t(2)
    assert coefficient_of_x(p, (1, 1)) == Poly.const(5)
    assert coefficient_of_x(p, (0, 0)) == -Poly.t(1)


def test_as_arity_lifts_and_refuses_to_lower():
    p = x(1) ** 2 * t(3) - 2 * x(1) * x(2) * t(1) + x(2) + 5
    lifted = p.as_arity(3)
    assert lifted.nx == 3
    for xv in ((2, -1), (0, 3), (4, 7)):
        assert lifted.evaluate(xv + (0,), (2, 3, 5)) == p.evaluate(xv, (2, 3, 5))
    assert leading_x(lifted) == (2, 0, 0)
    assert coefficient_of_x(lifted, (1, 1, 0)) == -2 * Poly.t(1)
    with pytest.raises(ArityMismatch):
        lifted.as_arity(2)


def test_swap_and_symmetry():
    sym = x(1) * x(2) + x(1) + x(2)
    assert is_symmetric(sym)
    skew = x(1) - x(2)
    assert swap_x(skew, 1, 2) == -skew
    assert not is_symmetric(skew)


def test_evaluate():
    p = x(1) ** 2 + 2 * t(1) * x(2) - 7
    assert p.evaluate((3, 5), (11,)) == 9 + 2 * 11 * 5 - 7


def test_pow():
    p = x(1) + t(1)
    assert p ** 0 == Poly.one(2)
    assert p ** 3 == p * p * p


def test_degree_overflow_guard():
    giant = Poly.x(1, 1) ** 16384
    with pytest.raises(DegreeOverflow):
        giant * giant
    with pytest.raises(DegreeOverflow):
        Poly.sum_of_products([(1, Poly.one(1), Poly.one(1)), (1, giant, giant)])


def _naive_products(outs, products):
    """Oracle for _multiply_into: every term pair of every product, summed
    into a copy of its out, zeros dropped at the end."""
    acc = [dict(out) for out in outs]
    for i, c, a, b in products:
        for k1, c1 in a.items():
            for k2, c2 in b.items():
                acc[i][k1 + k2] = acc[i].get(k1 + k2, 0) + c * c1 * c2
    return [{k: v for k, v in out.items() if v} for out in acc]


# small keys, so that term pairs collide often
term_dicts = st.dictionaries(st.integers(0, 12), st.integers(-3, 3).filter(bool), max_size=5)


@st.composite
def product_batches(draw):
    """Two outs and a batch of products into them.  Each out starts empty,
    random, or as minus the whole batch's sum into it, so that it cancels
    exactly to zero."""
    products = draw(st.lists(st.tuples(st.integers(0, 1), st.integers(-2, 2),
                                       term_dicts, term_dicts), max_size=4))
    outs = []
    for i in range(2):
        start = draw(st.sampled_from(["empty", "random", "cancel"]))
        if start == "random":
            outs.append(draw(term_dicts))
        elif start == "cancel":
            total = _naive_products([{}], [(0, c, a, b) for j, c, a, b in products if j == i])
            outs.append({k: -v for k, v in total[0].items()})
        else:
            outs.append({})
    return outs, products


@settings(max_examples=300, deadline=None)
@given(product_batches())
# rows scaled by 1, -1 and 2 into an out that holds terms; keys 1 and 6 cancel
@example(([{1: 1, 6: 2}, {}], [(0, 1, {0: 3, 1: -1, 2: 2}, {0: 1, 4: -1, 8: 2})]))
# rows by the monomial 1 (the smaller operand's key 0): into empty outs at
# scale 1, 2 and -1, the last before a row at key 3 into the same out
@example(([{}, {}, {}], [(0, 1, {0: 1}, {3: 2, 5: -1}), (1, 2, {0: 1}, {2: 1, 5: -3}),
                         (2, 1, {0: -1, 3: 1}, {1: 2, 2: 1, 7: 1})]))
# into random outs at scale 1 (key 0 cancels), -1 (keys 1 and 6 cancel) and
# 2, the last after a row at key 4 into the same out
@example(([{0: 5, 3: 1}, {1: 1, 6: 2}],
          [(0, 1, {0: 1}, {0: -5, 3: 2, 8: 1}), (1, -1, {0: 1, 4: 1}, {1: 1, 6: 2, 9: -1}),
           (0, 2, {4: 1, 0: 1}, {2: 1, 5: 1, 7: -1})]))
# into outs that cancel to zero at scale 1, then -1, and at scale 2 after
# a row at key 3
@example(([{2: -1, 5: 3, 6: 4}, {1: -2, 2: -2, 4: -4, 5: -2, 7: -2}],
          [(0, 1, {0: 1}, {2: 1, 5: -3}), (0, -1, {0: 1}, {6: 4}),
           (1, 2, {3: 1, 0: 1}, {1: 1, 2: 1, 4: 1})]))
def test_multiply_into_matches_naive_double_loop(case):
    outs, products = case
    want = _naive_products(outs, products)
    a_before = [(dict(a), dict(b)) for _, _, a, b in products]
    poly._multiply_into([(outs[i], c, a, b) for i, c, a, b in products])
    assert outs == want
    # an out filled from an operand shares its keys, not its table
    for out in outs:
        out[-1] = 1
    assert [(a, b) for _, _, a, b in products] == a_before


@settings(max_examples=100, deadline=None)
@given(polys(), st.integers(0, 3))
def test_product_by_a_constant_is_the_general_product(p, pad):
    # a constant polynomial scales the other operand, on either side, at
    # any stored t-width, including one wider than p
    for c in range(-2, 3):
        tw = p.tw + pad
        const = Poly(2, tw, Poly.const(c, 2)._widened(tw))
        want = _naive_products([{}], [(0, 1, p._widened(tw), const.terms)])[0]
        for got in (p * const, const * p):
            assert got == Poly(2, tw, want)
            assert poly_to_obj(got) == poly_to_obj(Poly(2, tw, want))
    assert p * Poly.one(2) is p and Poly(2, 3, {0: 1}) * p == p


def test_product_by_one_returns_the_other_operand():
    q = x(1) + t(1)
    assert q * Poly.one(2) is q and Poly(2, 3, {0: 1}) * q is q


def test_product_by_a_constant_checks_arity():
    with pytest.raises(ArityMismatch):
        Poly.const(2, 1) * x(1)
    with pytest.raises(ArityMismatch):
        x(1) * Poly.one(1)


@pytest.mark.parametrize("name,args,want", [
    ("one", (2.0,), ArityMismatch),
    ("zero", (True,), 1),
    ("one", (-1,), ArityMismatch),
    ("x", (1, 2.0), ArityMismatch),
    ("t", (1, 2.0), ArityMismatch),
    ("t", (2.0,), ValueError),
], ids=["one(2.0)", "zero(True)", "one(-1)", "x(1,2.0)", "t(1,2.0)", "t(2.0)"])
def test_constructors_read_arity_and_index_as_plain_ints(name, args, want):
    # one rule for every arity and index: an int at or above its floor, a
    # bool read as its int, anything else refused up front
    build = getattr(Poly, name)
    if isinstance(want, int):
        nx = build(*args).nx
        assert type(nx) is int and nx == want
    else:
        with pytest.raises(want, match="must be"):
            build(*args)


@pytest.mark.parametrize("call,message", [
    (lambda: to_difference_basis(t(1, 0) - t(2, 0), 2.0), r"m must be an integer, got 2\.0"),
    (lambda: to_difference_basis(t(1, 0) - t(2, 0), True), r"beyond t1$"),
    (lambda: to_difference_basis(Poly.const(5), 0), r"m must be at least 1"),
    (lambda: x(1).kill_t_above("1"), r"m must be an integer, got '1'"),
    (lambda: x(1).kill_t_above(-1), r"m must be at least 0"),
    (lambda: sigma1_power_expansion(2.0, GrassContext(2, 4)), r"power must be an integer"),
    (lambda: double_monomial(2.0), r"exponent must be an integer"),
], ids=["to_difference_basis(2.0)", "to_difference_basis(True)", "to_difference_basis(0)",
        "kill_t_above('1')", "kill_t_above(-1)", "sigma1_power_expansion(2.0)",
        "double_monomial(2.0)"])
def test_integer_arguments_follow_the_one_integer_rule(call, message):
    # every public integer argument is read by `poly._whole`: a bool is its
    # int, and anything else below the floor or not an int is a ValueError
    with pytest.raises(ValueError, match=message):
        call()


@settings(max_examples=100, deadline=None)
@given(polys(), polys(), polys())
def test_sum_of_products_sums_to_zero(p, q, r):
    assert Poly.sum_of_products([(1, p, q), (-1, q, p)]).terms == {}
    assert Poly.sum_of_products([(2, p, q + r), (-2, p, q), (1, -p, r + r)]).terms == {}
    assert Poly.sum_of_products([(0, p, q), (1, p, r)]) == p * r


def _naive_sums(nx, items):
    """Oracle for _sums_of_products: every operand at the widest t-width,
    each key's products summed by _naive_products, vanished sums dropped."""
    tw = max((p.tw for _, _, p, q in items for p in (p, q)), default=0)
    keys = sorted({key for key, *_ in items})
    outs = _naive_products([{} for _ in keys], [
        (keys.index(key), c, p._widened(tw), q._widened(tw)) for key, c, p, q in items])
    return {key: Poly(nx, tw, out) for key, out in zip(keys, outs) if out}


@st.composite
def sums_batches(draw):
    """Items (key, c, p, q) over a pool of at most three operands, each
    stored up to two t-slots wider than it needs, so that widths are mixed
    and one operand object is met in several items.  With `cancel`, key 0
    also gets minus each of its products, so its sum vanishes."""
    pool = []
    for _ in range(draw(st.integers(1, 3))):
        p = draw(polys())
        pool.append(_stored_at(p, p.tw + draw(st.integers(0, 2))))
    operand = st.sampled_from(pool)
    items = draw(st.lists(st.tuples(st.integers(0, 2), st.integers(-2, 2), operand, operand),
                          max_size=6))
    cancel = draw(st.booleans())
    if cancel:
        items += [(key, -c, q, p) for key, c, p, q in items if key == 0]
    return items, cancel


@settings(max_examples=300, deadline=None)
@given(sums_batches())
# one-item batches: a key that cancels, a product that vanishes, c = 0
@example(([(0, 1, x(1) + t(1), x(1) - t(1))], False))
@example(([(0, 1, Poly.zero(2), x(1) - t(3))], True))
@example(([(1, 0, x(1) + t(2), x(2) - t(1))], False))
def test_sums_of_products_matches_naive_products(case):
    items, cancel = case
    before = [dict(p.terms) for _, _, p, q in items for p in (p, q)]
    got = poly._sums_of_products(2, iter(items))
    assert got == _naive_sums(2, items)
    assert len({p.tw for p in got.values()}) <= 1
    assert not (cancel and 0 in got)
    assert [dict(p.terms) for _, _, p, q in items for p in (p, q)] == before


@settings(max_examples=50, deadline=None)
@given(polys(1), st.integers(1, 3))
def test_sums_of_products_keeps_temporary_operands_alive(p, n):
    # every operand is a temporary that only the generator's item refers to;
    # were one freed before the batch is read, its id could name the next
    items = ((i, 1, (p + i).as_arity(2), x(1) + t(i + n)) for i in range(6))
    want = {}
    for i in range(6):
        prod = (p + i).as_arity(2) * (x(1) + t(i + n))
        if prod:
            want[i] = prod
    assert poly._sums_of_products(2, items) == want


def test_sums_of_products_checks_arity_as_mul_does():
    with pytest.raises(ArityMismatch):
        poly._sums_of_products(2, [(0, 1, x(1), Poly.x(1, 1))])
    with pytest.raises(ArityMismatch):
        poly._sums_of_products(2, [(0, 1, Poly.x(1, 1), Poly.x(1, 1))])
    with pytest.raises(ArityMismatch):
        Poly.sum_of_products([(1, x(1), x(2)), (1, Poly.x(1, 1), Poly.x(1, 1))])
    assert poly._sums_of_products(2, []) == {}


def test_sums_of_products_degree_bound_is_that_of_mul():
    half = Poly.t(1) ** (DEG_LIMIT // 2)
    below = Poly.t(2) ** (DEG_LIMIT // 2 - 1)
    # degree DEG_LIMIT - 1 is formed; DEG_LIMIT is refused, even for c = 0
    assert poly._sums_of_products(0, [(0, 1, half, below)]) == {0: half * below}
    with pytest.raises(DegreeOverflow):
        half * half
    for c in (1, 0):
        with pytest.raises(DegreeOverflow):
            poly._sums_of_products(0, [(0, 1, half, below), (1, c, half, half)])
    # a constant or zero operand only scales, as in p * q
    assert poly._sums_of_products(0, [(0, 3, Poly.const(2), half), (1, 1, Poly.zero(0), half)]) \
        == {0: 6 * half}


def test_mul_forms_each_product_without_a_batch(monkeypatch):
    # p * q of two non-constant polynomials is one `_multiply_into` call of
    # its own, so `test_sums_of_products_matches_naive_products` compares two
    # independent paths; plain and group-carrying factors in both orders, of
    # mixed t-widths, and zero factors give the batch's results, pinned
    from doubleschur.schur import double_schur, x_sum
    p, q = x(1) + t(1), _stored_at(x(2) - 2 * t(3), 5)
    s = double_schur((2, 1), 2)
    cases = [(p, q), (q, p), (p, s), (s, q), (x_sum(2), p), (Poly.zero(2), q), (p, Poly.zero(2))]
    want = [Poly.sum_of_products([(1, a, b)]) for a, b in cases]
    half = Poly.t(1) ** (DEG_LIMIT // 2)

    def batch(nx, items):
        raise AssertionError("p * q went through _sums_of_products")

    monkeypatch.setattr(poly, "_sums_of_products", batch)
    got = [a * b for a, b in cases]
    assert [(type(r), r.tw, r.terms) for r in got] == [(Poly, w.tw, w.terms) for w in want]
    assert [r.tw for r in got] == [5, 5, 3, 5, 1, 0, 0]
    assert str(got[0]) == "x1*x2 - 2*x1*t3 + x2*t1 - 2*t1*t3"
    objs = json.dumps([[r.tw, poly_to_obj(r)] for r in got]).encode()
    assert hashlib.sha256(objs).hexdigest() == \
        "36cd7c878a3e9d2e9956823c46b7bea0898525cbe63de891a07177c3a669338a"
    with pytest.raises(DegreeOverflow, match="^product degree exceeds the packed monomial bound$"):
        half * half


def test_str_rendering():
    p = x(1) ** 2 - 3 * t(2) + 1
    assert str(p) == "x1^2 - 3*t2 + 1"
    assert str(Poly.zero(2)) == "0"


@pytest.mark.parametrize("refused, error, message", [
    (lambda: Poly.x(3, 2), ArityMismatch, "x3 does not exist at arity 2"),
    (lambda: (Poly.x(1, 1) + Poly.t(1, 1)).t_only(), ArityMismatch,
     "polynomial involves x-variables"),
    (lambda: Poly.x(1, 2).evaluate((1,), ()), ArityMismatch, "expected 2 x-values"),
    (lambda: (Poly.t(1) * Poly.t(3)).evaluate((), (1, 2)), ValueError,
     "no value supplied for t3"),
], ids=["x-index", "t-only", "x-values", "t-values"])
def test_poly_refusals(refused, error, message):
    with pytest.raises(error, match=message):
        refused()
