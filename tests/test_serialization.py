"""Byte oracles for the JSON renderers and the positivity scan, which read
the packed keys directly: the term-by-term forms they replaced, built on a
separate key decoder, must give the same JSON bytes and the same reports."""

import json

from hypothesis import example, given, settings, strategies as st

from doubleschur.grass import (
    GrassContext,
    PositivityReport,
    certificate_to_obj,
    check_graham_positivity,
)
from doubleschur.poly import (
    F,
    FIELD,
    NotShiftInvariant,
    Poly,
    poly_to_obj,
    to_difference_basis,
)
from difference_basis import from_difference_basis


def _reference_iter_terms(p):
    """(x-exponent tuple, sparse t-exponent map, coefficient) of each term,
    largest key first, unpacked field by field."""
    for key in sorted(p.terms, reverse=True):
        c = p.terms[key]
        te = {}
        for j in range(p.tw, 0, -1):
            e = key & FIELD
            if e:
                te[j] = e
            key >>= F
        xe = [0] * p.nx
        for i in range(p.nx, 0, -1):
            xe[i - 1] = key & FIELD
            key >>= F
        yield tuple(xe), te, c


def _reference_poly_to_obj(p):
    out = []
    for xe, te, c in _reference_iter_terms(p):
        out.append({
            "x": list(xe),
            "t": {str(j): te[j] for j in sorted(te)},
            "c": str(c),
        })
    return out


def _reference_certificate_to_obj(cert):
    out = []
    for _, te, c in _reference_iter_terms(cert):
        out.append({"u": {str(j): te[j] for j in sorted(te)}, "c": str(c)})
    return out


def _reference_check_graham_positivity(c, ctx):
    try:
        cert = to_difference_basis(c, ctx.m)
    except NotShiftInvariant as exc:
        return PositivityReport(False, reason="not shift-invariant",
                                offender=exc.offender)
    used = set()
    for _, te, coeff in _reference_iter_terms(cert):
        if coeff < 0:
            mono = {str(j): te[j] for j in sorted(te)}
            return PositivityReport(
                False, reason="negative coefficient",
                offender=f"{coeff} on u-monomial {mono}")
        used.update(te)
    return PositivityReport(True, cert, tuple(sorted(used)))


def _build(nx, terms):
    p = Poly.zero(nx)
    for xe, te, c in terms:
        mono = Poly.const(c, nx)
        for i, e in enumerate(xe, 1):
            mono = mono * Poly.x(i, nx) ** e
        for j, e in te.items():
            mono = mono * Poly.t(j, nx) ** e
        p = p + mono
    return p


@st.composite
def padded_polys(draw):
    """Polynomials of arity 0-4 in t_1..t_12, stored at a t-width up to 3
    beyond their largest t-index."""
    nx = draw(st.integers(0, 4))
    p = _build(nx, draw(st.lists(st.tuples(
        st.lists(st.integers(0, 3), min_size=nx, max_size=nx),
        st.dictionaries(st.integers(1, 12), st.integers(1, 3), max_size=4),
        st.integers(-5, 5)), max_size=6)))
    tw = p.tw + draw(st.integers(0, 3))
    return Poly(nx, tw, p._widened(tw))


def _json(obj):
    return json.dumps(obj, separators=(",", ":")).encode()


@settings(max_examples=200, deadline=None)
@given(padded_polys())
@example(Poly(0, 14, _build(0, [((), {9: 1, 10: 2, 2: 1}, 3),
                                ((), {12: 1}, -1)])._widened(14)))
@example(Poly(2, 11, _build(2, [((1, 0), {10: 1}, 1), ((0, 1), {9: 1}, -2)])
              ._widened(11)))
def test_json_renderers_match_reference_bytes(p):
    assert _json(poly_to_obj(p)) == _json(_reference_poly_to_obj(p))
    assert _json(certificate_to_obj(p)) == _json(_reference_certificate_to_obj(p))


def test_json_t_slots_follow_their_index():
    obj = poly_to_obj(_build(0, [((), {10: 1, 9: 1, 2: 1}, 1)]))
    assert list(obj[0]["t"]) == ["2", "9", "10"]


@st.composite
def certificates(draw):
    """(u-polynomial in u_1..u_12 with mixed signs, m) with m - 1 at least
    its largest u-index."""
    q = _build(0, draw(st.lists(st.tuples(
        st.just(()),
        st.dictionaries(st.integers(1, 12), st.integers(1, 3), max_size=3),
        st.integers(-3, 3)), max_size=6)))
    m = draw(st.integers(q.max_t_index() + 1, 13))
    return q, m


@settings(max_examples=150, deadline=None)
@given(certificates(), st.booleans())
@example((_build(0, [((), {1: 1}, -1), ((), {2: 2}, -2), ((), {3: 1}, 3),
                     ((), {1: 1, 2: 1}, -1)]), 4), False)
def test_positivity_report_matches_reference(case, shifted):
    q, m = case
    c = from_difference_basis(q, m)
    if shifted:
        c = c + Poly.t(1)
    ctx = GrassContext(1, m)
    got = check_graham_positivity(c, ctx)
    want = _reference_check_graham_positivity(c, ctx)
    assert got == want
    assert _json(got.to_obj()) == _json(want.to_obj())
