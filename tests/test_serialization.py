"""Byte oracles for the JSON renderers and the positivity scan, which read
the packed keys directly: the term-by-term forms they replaced, built on a
separate key decoder, must give the same JSON bytes and the same reports."""

import json

import pytest
from hypothesis import example, given, settings, strategies as st

from doubleschur.grass import (
    GrassContext,
    PositivityReport,
    StructureTable,
    _certificate_obj,
    _certified_product,
    _products_to_obj,
    certificate_to_obj,
    check_graham_positivity,
    full_structure_table,
    schubert_product,
    sigma1_power_expansion,
)
from doubleschur.poly import (
    F,
    FIELD,
    DegreeOverflow,
    NotShiftInvariant,
    Poly,
    _poly_obj,
    poly_to_obj,
    to_difference_basis,
)
from doubleschur.schur import SchurExpansion, pieri_multiply
from doubleschur.verify import verify_positivity
from doubleschur.wedge import WedgeVector, gl_action_on_wedge, to_wedge_coordinates, x_matrix
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


# -- serializers of many polynomials ------------------------------------------
#
# Each serializer decodes a monomial and renders a term once per call, and
# renders a product map met twice once.  The references below render every
# term and every entry afresh through the reference decoder; the bytes must
# be equal.

def _reference_report_obj(report):
    if report.positive:
        return {"positive": True,
                "certificate": _reference_certificate_to_obj(report.certificate),
                "differences_used": list(report.differences_used)}
    return {"positive": False, "certificate": None, "reason": report.reason,
            "offender": report.offender}


def _reference_products_obj(products):
    out = []
    for nu, (c, report) in sorted(products.items()):
        entry = {"nu": list(nu), "coeff": _reference_poly_to_obj(c)}
        rep = _reference_report_obj(report)
        entry["certificate"] = rep.pop("certificate")
        entry["positive"] = rep.pop("positive")
        if report.positive:
            entry.update(rep)
        else:
            entry["violation"] = rep
        out.append(entry)
    return out


def _reference_table_obj(table):
    return {"n": table.context.n, "m": table.context.m, "entries": [
        {"lambda": list(lam), "mu": list(mu),
         "products": _reference_products_obj(table.entries[(lam, mu)])}
        for lam, mu in sorted(table.entries)]}


def _per_pair_table(ctx):
    """Every ordered pair computed on its own, as the benchmark does: no two
    entries share a product map."""
    box = ctx.box_partitions()
    return StructureTable(ctx, {(lam, mu): _certified_product(lam, mu, ctx)
                                for lam in box for mu in box})


def _skewed_table(ctx):
    """A full table whose mirror entries differ: each (mu, lam) with
    lam < mu holds the product of (lam, mu) with every constant doubled and
    shifted by t_1, so the copy is no longer shift-invariant and its report
    is a violation."""
    table = full_structure_table(ctx)
    entries = dict(table.entries)
    for (lam, mu), products in table.entries.items():
        if lam < mu:
            entries[(mu, lam)] = {
                nu: (d, check_graham_positivity(d, ctx))
                for nu, (c, _) in products.items() for d in [2 * c + Poly.t(1)]}
    return StructureTable(ctx, entries)


CONTEXTS = [GrassContext(2, 5), GrassContext(3, 6)]


@pytest.mark.parametrize("ctx", CONTEXTS, ids=str)
def test_structure_tables_match_reference_bytes(ctx):
    full = full_structure_table(ctx)
    want = _json(_reference_table_obj(full))
    assert _json(full.to_obj()) == want
    assert _json(_per_pair_table(ctx).to_obj()) == want
    skewed = _skewed_table(ctx)
    got = _json(skewed.to_obj())
    assert got == _json(_reference_table_obj(skewed))
    assert got != want


@pytest.mark.parametrize("ctx", CONTEXTS, ids=str)
def test_verify_positivity_matches_reference_bytes(ctx):
    table = full_structure_table(ctx)
    certificates = [
        {"lambda": list(lam), "mu": list(mu), "nu": list(nu),
         "certificate": _reference_report_obj(table.entries[(lam, mu)][nu][1])}
        for lam, mu in sorted(table.entries) for nu in sorted(table.entries[(lam, mu)])]
    want = {"suite": "positivity", "n": ctx.n, "m": ctx.m,
            "cases": len(certificates), "failures": [], "ok": True,
            "certificates": certificates}
    assert _json(verify_positivity(ctx.n, ctx.m)) == _json(want)


def _expansions(ctx):
    """Expansions and wedge vectors whose coefficients share monomials at
    several t-widths."""
    box = ctx.box_partitions()
    expansions = [sigma1_power_expansion(4, ctx), schubert_product(box[3], box[5], ctx),
                  schubert_product(box[-1], box[-2], ctx)]
    wedges = [to_wedge_coordinates(e, ctx) for e in expansions]
    wedges.append(gl_action_on_wedge(x_matrix(ctx.m), wedges[0]))
    return expansions, wedges


@pytest.mark.parametrize("ctx", CONTEXTS, ids=str)
def test_expansion_and_wedge_json_match_reference_bytes(ctx):
    expansions, wedges = _expansions(ctx)
    for e in expansions:
        assert _json(e.to_obj()) == _json({"n": e.n, "terms": [
            {"lambda": list(lam), "coeff": _reference_poly_to_obj(c)}
            for lam, c in e.items()]})
    for w in wedges:
        assert _json(w.to_obj()) == _json({"n": w.n, "m": w.m, "terms": [
            {"nu": list(nu), "coeff": _reference_poly_to_obj(w.coords[nu])}
            for nu in sorted(w.coords)]})


def test_table_terms_share_one_object_per_monomial():
    table = full_structure_table(GrassContext(2, 5))
    coeffs, certs = set(), set()
    for products in table.entries.values():
        for c, report in products.values():
            coeffs.update((c.tw, k, v) for k, v in c.terms.items())
            cert = report.certificate
            certs.update((cert.tw, k, v) for k, v in cert.terms.items())
    obj = table.to_obj()
    terms = [term for entry in obj["entries"] for product in entry["products"]
             for term in product["coeff"] + product["certificate"]]
    # one term object per (t-width, key, coefficient), one exponent map per
    # (t-width, key), for the coefficients and the certificates each
    assert len({id(term) for term in terms}) == len(coeffs) + len(certs) < len(terms)
    assert len({id(term.get("t", term.get("u"))) for term in terms}) == \
        len({(tw, k) for tw, k, _ in coeffs}) + len({(tw, k) for tw, k, _ in certs})
    rendered = {(tuple(e["lambda"]), tuple(e["mu"])): e["products"]
                for e in obj["entries"]}
    assert all(rendered[(lam, mu)] is rendered[(mu, lam)] for lam, mu in rendered)


def _rendered_entries(table):
    return {(tuple(e["lambda"]), tuple(e["mu"])): e["products"]
            for e in table.to_obj()["entries"]}


def test_equal_mirror_maps_share_one_rendered_list():
    ctx = GrassContext(2, 5)
    table = _per_pair_table(ctx)
    rendered = _rendered_entries(table)
    for lam, mu in rendered:
        products, mirror = table.entries[(lam, mu)], table.entries[(mu, lam)]
        # both orders hold the same constants and the same certificates,
        # in maps that are equal but not one object
        assert lam == mu or products is not mirror
        for nu, (c, report) in products.items():
            assert c is mirror[nu][0]
            assert report.certificate is mirror[nu][1].certificate
        assert rendered[(lam, mu)] is rendered[(mu, lam)]
    # unequal mirror maps render apart; only the empty products stay equal
    skewed = _skewed_table(ctx)
    rendered = _rendered_entries(skewed)
    assert all((rendered[(lam, mu)] is rendered[(mu, lam)])
               == (lam == mu or not skewed.entries[(lam, mu)]) for lam, mu in rendered)


def test_one_memo_keeps_arities_widths_and_renderers_apart():
    # x1 at arity 1, width 0 and t1 at arity 0, width 1 pack to one integer
    x1, t1 = Poly.x(1, 1), Poly.t(1)
    assert x1.terms.keys() == t1.terms.keys()
    memo = {}
    for p in (x1, t1, x1 + 2, t1 + 2, Poly(0, 3, (t1 + 2)._widened(3))):
        assert _json(_poly_obj(p, memo)) == _json(_reference_poly_to_obj(p))
        assert _json(_certificate_obj(p, memo)) == _json(_reference_certificate_to_obj(p))


def _deface(obj):
    """Write into every exponent list and map of a JSON tree."""
    if isinstance(obj, list):
        for item in obj:
            _deface(item)
    elif isinstance(obj, dict):
        if "c" in obj:
            for name in ("x", "t", "u"):
                if name in obj:
                    if isinstance(obj[name], list):
                        obj[name].append(9)
                    else:
                        obj[name]["99"] = 9
        for value in obj.values():
            _deface(value)


def test_a_defaced_result_leaves_the_next_call_unchanged():
    ctx = GrassContext(2, 5)
    table = full_structure_table(ctx)
    products = table.entries[((1,), (1,))]
    c, report = products[(1,)]
    expansions, wedges = _expansions(ctx)
    calls = [
        lambda: poly_to_obj(c),
        lambda: poly_to_obj(c.as_arity(2) * Poly.x(1, 2)),
        lambda: certificate_to_obj(report.certificate),
        report.to_obj,
        lambda: report.annotate({}),
        lambda: _products_to_obj(products, {}),
        table.to_obj,
        _per_pair_table(ctx).to_obj,
        lambda: verify_positivity(2, 4),
        expansions[0].to_obj,
        wedges[-1].to_obj,
    ]
    for call in calls:
        first = call()
        want = _json(first)
        _deface(first)
        assert _json(first) != want
        assert _json(call()) == want


def test_a_bool_constant_renders_as_its_int():
    # Poly.const reads a bool as its int, so a bool coefficient is written
    # "c": "1", which reads back, and certifies as the constant 1
    obj = SchurExpansion(1, {(): True}).to_obj()
    assert obj["terms"][0]["coeff"] == [{"x": [], "t": {}, "c": "1"}]
    assert SchurExpansion.from_obj(obj) == SchurExpansion.unit((), 1)
    report = check_graham_positivity(True, GrassContext(2, 4))
    assert certificate_to_obj(report.certificate) == [{"u": {}, "c": "1"}]
    assert type(Poly.const(True).terms[0]) is int


@pytest.mark.parametrize("bad", [2.5, 2.0, "1", None])
def test_a_constant_that_is_not_an_int_is_refused(bad):
    with pytest.raises(ValueError, match="constant must be an integer"):
        Poly.const(bad)
    with pytest.raises(ValueError, match="constant must be an integer"):
        SchurExpansion(2, {(1,): bad})


@pytest.mark.parametrize("value, first, second", [
    (pieri_multiply((1,), 2), 1, 2),
    (WedgeVector(2, 4, {(1, 0): 1, (2, 0): Poly.t(1), (3, 1): 1}), 0, 2),
])
def test_expansion_and_wedge_trees_are_fresh(value, first, second):
    # two coefficients equal to 1: their term objects are separate objects,
    # so editing one tree or one term touches nothing else
    want = _json(value.to_obj())
    obj = value.to_obj()
    a, b = (obj["terms"][i]["coeff"][0] for i in (first, second))
    assert a == b == {"x": [], "t": {}, "c": "1"}
    assert a is not b and a["x"] is not b["x"] and a["t"] is not b["t"]
    a["x"].append(1)
    a["t"]["1"] = 1
    a["c"] = "2"
    assert b == {"x": [], "t": {}, "c": "1"}
    assert _json(value.to_obj()) == want


def _t_coeff(terms):
    return _build(0, [((), te, c) for te, c in terms])


@st.composite
def coordinates(draw):
    """A SchurExpansion or a WedgeVector of up to four terms, each with a
    t-only coefficient in t_1..t_m."""
    m = draw(st.integers(2, 6))
    n = draw(st.integers(1, m - 1))
    coeffs = st.lists(st.tuples(st.dictionaries(st.integers(1, m), st.integers(1, 3), max_size=3),
                                st.integers(-5, 5)), max_size=3).map(_t_coeff)
    if draw(st.booleans()):
        lams = st.lists(st.integers(0, 4), min_size=n, max_size=n).map(
            lambda parts: tuple(sorted(parts, reverse=True)))
        return SchurExpansion(n, draw(st.dictionaries(lams, coeffs, max_size=4)))
    nus = st.sets(st.integers(0, m - 1), min_size=n, max_size=n).map(
        lambda entries: tuple(sorted(entries, reverse=True)))
    return WedgeVector(n, m, draw(st.dictionaries(nus, coeffs, max_size=4)))


@settings(max_examples=200, deadline=None)
@given(coordinates())
@example(SchurExpansion(2, {}))
@example(WedgeVector(2, 4, {(3, 1): Poly.t(4), (1, 0): -2}))
def test_coordinates_round_trip_through_json(value):
    obj = value.to_obj()
    header = ["n", "terms"] if isinstance(value, SchurExpansion) else ["n", "m", "terms"]
    assert list(obj) == header
    back = type(value).from_obj(json.loads(_json(obj)))
    assert back == value and _json(back.to_obj()) == _json(obj)


@pytest.mark.parametrize("cls, header, key", [
    (SchurExpansion, {"n": 2}, "lambda"),
    (WedgeVector, {"n": 2, "m": 4}, "nu"),
])
def test_coordinates_refuse_a_coefficient_the_packed_format_cannot_hold(cls, header, key):
    def obj(term):
        return {**header, "terms": [{key: [1, 0], "coeff": [term]}]}
    assert cls.from_obj(obj({"x": [], "t": {"1": 2}, "c": "3"})).get((1, 0)) == 3 * Poly.t(1) ** 2
    with pytest.raises(DegreeOverflow):
        cls.from_obj(obj({"x": [], "t": {"1": 65536}, "c": "1"}))
    with pytest.raises(ValueError, match="must be an integer"):
        cls.from_obj(obj({"x": [], "t": {"2": 2.9}, "c": 2.7}))
