import copy
import hashlib
import json
from collections import Counter
from functools import lru_cache
from itertools import permutations, product
from operator import add, is_

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from doubleschur.grass import GrassContext
from doubleschur import schur
from doubleschur.poly import (DEG_LIMIT, F, FIELD, ArityMismatch, DegreeOverflow, Poly,
                              poly_to_obj)
from doubleschur.schur import (
    SchurExpansion,
    _dominant,
    _dominant_groups,
    _dominant_sums,
    _orbit,
    _orbit_members,
    _schur_groups,
    _Symmetric,
    add_staircase,
    alternant,
    double_monomial,
    double_schur,
    expand_in_double_schur,
    expansion_to_poly,
    partition,
    pieri_multiply,
    remove_staircase,
    staircase,
    strict_sequence,
    x_sum,
)
from doubleschur.verify import verify_pieri
from ssyt import classical_schur_ssyt
from xstructure import coefficient_of_x, heap_exact_div, is_symmetric, leading_x, swap_x


def box_partitions(rows, cols):
    out = {()}

    def grow(prefix, cap, left):
        if left == 0:
            return
        for part in range(1, cap + 1):
            lam = prefix + (part,)
            out.add(lam)
            grow(lam, part, left - 1)

    grow((), cols, rows)
    return sorted(out)


# -- index utilities ---------------------------------------------------------

def test_partition_normalizes():
    assert partition([3, 1, 0, 0]) == (3, 1)
    assert partition(()) == ()
    with pytest.raises(ValueError):
        partition((1, 2))
    with pytest.raises(ValueError):
        partition((2, -1))


@pytest.mark.parametrize("parts,message", [
    ((-1, 2), r"^negative part in \(-1, 2\)$"),
    ((1, 2), r"^parts not weakly decreasing: \(1, 2\)$"),
    ((2, -1), r"^negative part in \(2, -1\)$"),
])
def test_partition_refusals_and_their_order(parts, message):
    # (-1, 2) breaks both rules: the sign is checked first
    with pytest.raises(ValueError, match=message):
        partition(parts)


def test_strict_sequence_validates():
    assert strict_sequence((3, 1, 0)) == (3, 1, 0)
    with pytest.raises(ValueError):
        strict_sequence((2, 2, 0))
    with pytest.raises(ValueError):
        strict_sequence((2, 1), n=3)


def test_non_integral_parts_are_refused():
    # these used to be truncated, or a string read digit by digit
    for parts in ((2.5, 1), (3, 1.5), "21", ["2", "1"]):
        with pytest.raises(ValueError, match=r"^non-integral part in "):
            partition(parts)
    for parts in ((3.7, 1), "31"):
        with pytest.raises(ValueError, match=r"^non-integral entry in "):
            strict_sequence(parts)
    with pytest.raises(ValueError, match=r"^non-integral part in "):
        double_schur((1.5,), 1)
    # ints, bools and integral floats are still read as ints
    assert partition((2.0, True, 0.0)) == (2, 1)
    assert all(type(part) is int for part in partition((2.0, True)))
    assert strict_sequence((3.0, True, False)) == (3, 1, 0)


def test_staircase_round_trip():
    assert staircase(3) == (2, 1, 0)
    assert add_staircase((2, 1), 3) == (4, 2, 0)
    assert remove_staircase((4, 2, 0)) == (2, 1)
    assert add_staircase((), 2) == (1, 0)
    with pytest.raises(ValueError):
        add_staircase((1, 1, 1), 2)


# -- double monomials --------------------------------------------------------

def test_double_monomial_zero_is_one():
    assert double_monomial(0) == Poly.one(1)


def test_double_monomial_two():
    x, t1, t2 = Poly.x(1, 1), Poly.t(1, 1), Poly.t(2, 1)
    assert double_monomial(2) == x ** 2 + (t1 + t2) * x + t1 * t2


def test_double_monomial_monic():
    for k in range(7):
        dm = double_monomial(k)
        assert leading_x(dm) == (k,)
        assert coefficient_of_x(dm, (k,)) == Poly.one()


def test_double_monomial_reads_its_arity_before_the_memo():
    # True shares the entry of 1 and leaves it at a plain int arity; a
    # float arity is refused like any other, not failed in a shift
    double_monomial.cache_clear()
    assert double_monomial(1, 1, True).nx == 1 and type(double_monomial(1, 1, True).nx) is int
    assert double_monomial(1, 1, 1) is double_monomial(1, 1, True)
    assert double_monomial.cache_info().currsize == 1
    for bad in (2.0, "2", 0):
        with pytest.raises(ValueError):
            double_monomial(1, 1, bad)


def test_telescoping_identity():
    # x * (x|t)^k = (x|t)^{k+1} - t_{k+1} * (x|t)^k
    x = Poly.x(1, 1)
    for k in range(13):
        lhs = x * double_monomial(k)
        rhs = double_monomial(k + 1) - Poly.t(k + 1, 1) * double_monomial(k)
        assert lhs == rhs, k


# -- alternants --------------------------------------------------------------

def vandermonde(n):
    prod = Poly.one(n)
    for i in range(1, n + 1):
        for j in range(i + 1, n + 1):
            prod = prod * (Poly.x(i, n) - Poly.x(j, n))
    return prod


def test_staircase_alternant_is_vandermonde():
    for n in (2, 3):
        assert alternant(staircase(n), n) == vandermonde(n)


def test_alternant_two_zero():
    n = 2
    x1, x2 = Poly.x(1, n), Poly.x(2, n)
    t1, t2 = Poly.t(1, n), Poly.t(2, n)
    assert alternant((2, 0), 2) == (x1 - x2) * (x1 + x2 + t1 + t2)


def test_alternant_skew_symmetry():
    for n, nu in ((2, (3, 1)), (3, (4, 2, 1)), (4, (4, 2, 1, 0))):
        a = alternant(nu, n)
        for i in range(1, n):
            assert swap_x(a, i, i + 1) == -a, (nu, i)


def test_alternant_single_variable():
    assert alternant((3,), 1) == double_monomial(3)


def test_alternant_and_double_schur_accept_any_sequence():
    # each argument is normalized before its memo is read, so a list is a
    # valid key and equal shapes share one entry; the memo of double_schur
    # is that of its groups, `_schur_groups`
    alternant.cache_clear()
    _clear_schur_memos()
    try:
        a = alternant([2, 1, 0], 3)
        assert alternant((2, 1, 0), 3) is a
        assert alternant.cache_info()[:2] == (1, 1)
        s = double_schur([2, 1, 0], 3)
        built = double_schur.cache_info()
        assert built == _schur_groups.cache_info()
        assert double_schur((2, 1), 3)._groups is s._groups
        assert double_schur.cache_info()[:2] == (built.hits + 1, built.misses)
        # [2, 1, 0] is the staircase at n = 3
        assert heap_exact_div(alternant(list(add_staircase([2, 1], 3)), 3), a) == s
    finally:
        alternant.cache_clear()
        _clear_schur_memos()


@pytest.mark.parametrize("call,message", [
    (lambda: alternant([1, 2], 2), "entries not strictly decreasing: \\(1, 2\\)"),
    (lambda: alternant([2, 1], 3), "expected length 3, got \\(2, 1\\)"),
    (lambda: alternant([1], 0), "arity must be at least 1"),
    (lambda: double_schur([1, 2], 3), "parts not weakly decreasing: \\(1, 2\\)"),
    (lambda: double_schur([1, 1, 1, 1], 3), "partition \\(1, 1, 1, 1\\) has more than 3 parts"),
    (lambda: double_schur([1], 0), "arity must be at least 1"),
])
def test_alternant_and_double_schur_refuse_bad_shapes(call, message):
    with pytest.raises(ValueError, match=message):
        call()


def _reference_expand_in_alternants(p, n):
    """Expand a skew-symmetric polynomial in the alternant basis; the
    reference peel behind _reference_expand_in_double_schur.

    Returns {nu: t-only coefficient}.  Under lexicographic order on the
    x-exponents the leading x-monomial of the alternant at nu is
    x1^{nu_1}...xn^{nu_n} with coefficient 1 (double monomials are monic),
    so the leading term of p determines one summand at a time: subtract it
    and recurse.  The leading x-monomial strictly decreases and the total
    x-degree never grows, so this terminates.
    """
    if p.nx != n:
        raise ValueError(f"expected a polynomial in x1..x{n}, got arity {p.nx}")
    if n >= 2 and swap_x(p, 1, 2) != -p:
        raise ValueError("polynomial is not skew-symmetric")
    out = {}
    rem = p
    while rem:
        xv = leading_x(rem)
        if any(xv[i] <= xv[i + 1] for i in range(n - 1)):
            raise RuntimeError(
                f"leading exponents {xv} not strictly decreasing; "
                "non-skew input slipped through")
        c = coefficient_of_x(rem, xv)
        out[xv] = c
        rem = rem - c.as_arity(n) * alternant(xv, n)
    return out


def _reference_expand_in_double_schur(p, n):
    """Oracle for expand_in_double_schur: multiply by the staircase
    alternant (the Vandermonde), expand in alternants, shift the index
    back."""
    raw = _reference_expand_in_alternants(p * alternant(staircase(n), n), n)
    return SchurExpansion(n, {remove_staircase(nu): c for nu, c in raw.items()})


# -- double Schur polynomials -------------------------------------------------

def test_schur_empty_is_one():
    assert double_schur((), 3) == Poly.one(3)


def test_schur_one_box():
    n = 2
    want = Poly.x(1, n) + Poly.x(2, n) + Poly.t(1, n) + Poly.t(2, n)
    assert double_schur((1,), 2) == want


def test_schur_is_symmetric():
    for lam in ((2,), (2, 1), (3, 1)):
        assert is_symmetric(double_schur(lam, 3))


def test_schur_specializes_to_classical():
    # t -> 0 recovers the classical Schur polynomial (2x2 box; the full
    # 3x3 box is exercised by the acceptance suite)
    for lam in box_partitions(2, 2):
        got = double_schur(lam, 2).kill_t_above(0)
        assert got == classical_schur_ssyt(lam, 2), lam


@st.composite
def shapes(draw):
    n = draw(st.integers(1, 4))
    lam = draw(st.sampled_from([lam for lam in box_partitions(4, 3) if len(lam) <= n]))
    return lam, n


@settings(max_examples=100, deadline=None)
@given(shapes())
def test_branching_matches_alternant_ratio(case):
    lam, n = case
    ratio = heap_exact_div(alternant(add_staircase(lam, n), n), alternant(staircase(n), n))
    got = double_schur(lam, n)
    assert got == ratio
    assert poly_to_obj(got) == poly_to_obj(ratio)


def _clear_schur_memos():
    _schur_groups.cache_clear()


def test_cache_clear_frees_the_key_pool():
    # the pool `_keys` holds every key of the stored shapes, so it is
    # emptied with their memo; a rebuild writes the same bytes
    shapes = [((2, 1), 3), ((3, 3, 1), 3), ((2,), 4), ((1, 1), 2)]
    first = [json.dumps(poly_to_obj(double_schur(lam, n))) for lam, n in shapes]
    assert schur._keys
    double_schur.cache_clear()
    assert not schur._keys and double_schur.cache_info().currsize == 0
    assert [json.dumps(poly_to_obj(double_schur(lam, n))) for lam, n in shapes] == first
    assert schur._keys and double_schur.cache_info().currsize >= len(shapes)


def test_one_swap_check_catches_an_asymmetric_build(monkeypatch):
    # s_(1,1,1)(x1..x4) = s_(1,1,1)(x1..x3) + s_(1,1)(x1..x3) * (x4 + t2),
    # the strip over (1,1) being the box (3,1) at t_(4+1-3); building it
    # with x4 + t3 instead gives a sum that is symmetric in x1..x3 but not
    # under x3 <-> x4.  A shape of n parts is a column product that never
    # reads the strips, so the shape here has fewer parts than variables
    real_strip = schur._strip_indices

    def wrong_strip(lam, mu, n):
        indices = real_strip(lam, mu, n)
        return [3] if (lam, mu, n) == ((1, 1, 1, 0), (1, 1, 0), 4) else indices

    _clear_schur_memos()
    try:
        with monkeypatch.context() as patch:
            patch.setattr(schur, "_strip_indices", wrong_strip)
            with pytest.raises(RuntimeError, match="came out asymmetric"):
                double_schur((1, 1, 1), 4)
    finally:
        _clear_schur_memos()
    assert real_strip((1, 1, 1, 0), (1, 1, 0), 4) == [2]
    assert is_symmetric(double_schur((1, 1, 1), 4))


@lru_cache(maxsize=None)
def _reference_double_schur(lam, n):
    """Oracle for double_schur: the flat branching build, every term of
    every s_mu lifted and multiplied by its strip, and symmetry checked on
    every orbit of the result."""
    if n < 1:
        raise ValueError("arity must be at least 1")
    lam = partition(lam)
    if len(lam) > n:
        raise ValueError(f"partition {lam} has more than {n} parts")
    if n == 1:
        s = double_monomial(sum(lam))
    else:
        padded = lam + (0,) * (n - len(lam))
        xn = Poly.x(n, n)
        summands = []
        for mu in product(*(range(padded[i + 1], padded[i] + 1) for i in range(n - 1))):
            strip = Poly.one(n)
            for i, (lo, hi) in enumerate(zip(mu + (0,), padded), 1):
                for j in range(lo + 1, hi + 1):
                    strip = strip * (xn + Poly.t(n + j - i, n))
            summands.append((1, _reference_double_schur(partition(mu), n - 1).as_arity(n), strip))
        s = Poly.sum_of_products(summands)
    if _dominant_groups(s) is None:
        raise RuntimeError(f"double Schur polynomial of {lam} came out asymmetric")
    return s


@st.composite
def box_shapes(draw):
    n = draw(st.integers(1, 5))
    return draw(st.sampled_from(box_partitions(n, 3))), n


@settings(max_examples=100, deadline=None)
@given(box_shapes())
def test_representative_build_matches_flat_build(case):
    lam, n = case
    got, want = double_schur(lam, n), _reference_double_schur(lam, n)
    flat = _groups(want)
    groups = _full_orbit_dominant(flat, n)
    assert _schur_groups(lam, n) == (want.tw, groups)
    assert _dominant(flat, n, every=True) == groups
    assert isinstance(got, Poly) and type(got) is _Symmetric
    assert got == want
    assert poly_to_obj(got) == poly_to_obj(want)


def _groups(p):
    """Every x-exponent group of p, in the form of `_schur_groups`: packed
    exponent (x_n lowest) -> its Z[t] coefficient, an arity-0 term dict at
    p's t-width."""
    n, sh = p.nx, F * p.tw
    out = {}
    for k, c in p.terms.items():
        xe = _x_exponent(p, k)
        x = sum(e << F * (n - i) for i, e in enumerate(xe, 1))
        out.setdefault(x, {})[((k >> sh + F * n) - sum(xe)) << sh | k & ((1 << sh) - 1)] = c
    return out


def _at_peel_width(groups, n, tw):
    """Dominant groups stored at t-width tw, widened to the t-width of their
    peel: that of s_lam for the largest lam_1 met, the x1-part of the
    largest exponent, when it is wider."""
    top = max(groups, default=0) >> F * (n - 1)
    up = F * max(n - 1 + top - tw, 0)
    return {x: {k << up: c for k, c in g.items()} for x, g in groups.items()}


def _full_orbit_dominant(groups, n):
    """Oracle for the symmetry checks of `_dominant` and `_dominant_groups`:
    the groups of a polynomial in x1..xn, given as a map from packed
    x-exponents to their coefficients, that have a weakly decreasing
    ("dominant") exponent; None if the polynomial is not symmetric (some
    group differs from its sorted exponent's, or an orbit lacks some of its
    n!/prod(m_i!) members)."""
    dominant, members, sizes = {}, {}, {}
    for x, g in groups.items():
        d, _, size, _ = _orbit(x, n)
        if d == x:
            dominant[d] = g
            sizes[d] = size
        elif groups.get(d) != g:
            return None
        members[d] = members.get(d, 0) + 1
    return dominant if members == sizes else None


def _representatives(p):
    """The groups of p with x1..x_{n-1} weakly decreasing."""
    n = p.nx
    return {x: g for x, g in _groups(p).items()
            if all((x >> F * i) & FIELD <= (x >> F * (i + 1)) & FIELD
                   for i in range(1, n - 1))}


def test_representative_check_counts_one_member_per_distinct_part():
    # the members of x1x2 + x1x3 + x2x3 with x1 >= x2 are x1x2 and x1x3:
    # one per distinct part of (1, 1, 0), not all three orbit members
    n = 3
    x1, x2, x3 = (Poly.x(i, n) for i in (1, 2, 3))
    e2 = x1 * x2 + x1 * x3 + x2 * x3
    assert _representatives(e2) == _groups(x1 * x2 + x1 * x3)
    assert _dominant(_representatives(e2), n) == _full_orbit_dominant(_groups(e2), n)
    # its one dominant group: x1 x2 (x_n in the lowest field), coefficient 1
    assert _full_orbit_dominant(_groups(e2), n) == {1 << 2 * F | 1 << F: {0: 1}}
    assert _full_orbit_dominant(_groups(x1 * x2 + x1 * x3), n) is None
    assert _dominant(_groups(x1 * x2), n) is None
    assert _dominant(_groups(x1 * x2 + 2 * x1 * x3), n) is None
    assert _dominant(_groups(x1 * x2 + x1 * x3 * Poly.t(1, n)), n) is None


def test_peel_and_parent_builds_write_out_no_flat_terms(monkeypatch):
    n = 3
    box = GrassContext(n, 6).box_partitions()
    _clear_schur_memos()
    written = _counted_writes(monkeypatch)
    try:
        met = set()
        for lam in box:
            met |= set(expand_in_double_schur(x_sum(n) * double_schur(lam, n), n).coeffs)
        assert verify_pieri(n, 6)["ok"]
        peel_only = met - set(box)
        assert peel_only
        # no peel and no parent build writes a flat term of positive degree:
        # only the one-term s_() is written, as the factor of x_sum * s_()
        assert written and not any(g._degree for g in written)
        built = _schur_groups.cache_info().misses
        for mu in met:
            _schur_groups(mu, n)
        for mu in box_partitions(2, 3):
            _schur_groups(mu, 2)
        assert _schur_groups.cache_info().misses == built
        # a shape read directly is written only when its terms are read, and
        # again for each fresh polynomial, from the same retained groups
        del written[:]
        mu = max(peel_only)
        s = double_schur(mu, n)
        assert written == []
        assert s == _reference_double_schur(mu, n)
        assert _are(written, [s])
        again = double_schur(mu, n)
        assert again is not s and again._groups is s._groups
        assert again == s
        assert _are(written, [s, again])
        assert _schur_groups.cache_info().misses == built
    finally:
        _clear_schur_memos()


def test_stored_groups_share_one_object_per_monomial():
    n = 4
    _clear_schur_memos()
    try:
        for lam in box_partitions(n, 3):
            _schur_groups(lam, n)
        built = _schur_groups.cache_info().misses
        # every stored shape: the box and, at each lower arity, its parents
        keys = [k for j in range(1, n + 1) for mu in box_partitions(j, 3)
                for g in _schur_groups(mu, j)[1].values() for k in g]
        assert _schur_groups.cache_info().misses == built
        assert len(keys) > 5 * len(set(keys))
        assert len({id(k) for k in keys}) == len(set(keys))
    finally:
        _clear_schur_memos()


def test_build_and_peel_refuse_degrees_past_the_packed_bound():
    # x1^(2^15) at n = 1: its s_lam would overflow a packed field
    with pytest.raises(DegreeOverflow):
        double_schur((DEG_LIMIT,), 1)
    with pytest.raises(DegreeOverflow):
        expand_in_double_schur(Poly(1, 0, {DEG_LIMIT << F | DEG_LIMIT: 1}), 1)
    assert expand_in_double_schur(Poly.x(1, 1) ** 3, 1).get((3,)) == Poly.one()


def test_schur_rejects_too_many_parts():
    with pytest.raises(ValueError):
        double_schur((1, 1, 1), 2)


# -- expansions ---------------------------------------------------------------

def test_expand_alternant_is_unit_vector():
    for nu in ((2, 0), (3, 1), (5, 2)):
        got = _reference_expand_in_alternants(alternant(nu, 2), 2)
        assert got == {nu: Poly.one()}


def test_expand_zero_is_empty():
    assert _reference_expand_in_alternants(Poly.zero(2), 2) == {}


def test_expand_product_example():
    n = 2
    p = (Poly.x(1, n) + Poly.x(2, n) + Poly.t(1, n) + Poly.t(2, n)) * alternant((1, 0), n)
    assert _reference_expand_in_alternants(p, n) == {(2, 0): Poly.one()}


def test_expand_rejects_non_skew():
    with pytest.raises(ValueError):
        _reference_expand_in_alternants(Poly.x(1, 2), 2)


@st.composite
def symmetric_combinations(draw):
    n = draw(st.integers(1, 4))
    lams = draw(st.lists(
        st.sampled_from([lam for lam in box_partitions(4, 3) if len(lam) <= n]),
        min_size=1, max_size=3, unique=True))
    # t-indices up to n + 6 reach past every one inside s_lam (at most
    # n + lam_1 - 1 = n + 2 in this box)
    t_terms = st.tuples(st.integers(-3, 3).filter(bool),
                        st.dictionaries(st.integers(1, n + 6), st.integers(1, 2),
                                        max_size=2))
    p = Poly.zero(n)
    for lam in lams:
        c = Poly.zero(0)
        for k, te in draw(st.lists(t_terms, min_size=1, max_size=3)):
            mono = Poly.const(k)
            for j, e in te.items():
                mono = mono * Poly.t(j) ** e
            c = c + mono
        p = p + c.as_arity(n) * double_schur(lam, n)
    return p, n


@settings(max_examples=60, deadline=None)
@given(symmetric_combinations())
def test_expansion_matches_vandermonde_route(case):
    p, n = case
    got = expand_in_double_schur(p, n)
    want = _reference_expand_in_double_schur(p, n)
    assert got == want
    assert got.to_obj() == want.to_obj()
    assert expansion_to_poly(got) == p


@st.composite
def perturbed_combinations(draw):
    p, n = draw(symmetric_combinations())
    mono = Poly.const(draw(st.integers(-2, 2).filter(bool)), n)
    for i in range(1, n + 1):
        mono = mono * Poly.x(i, n) ** draw(st.integers(0, 3))
    for j, e in draw(st.dictionaries(st.integers(1, n + 3), st.integers(1, 2),
                                     max_size=2)).items():
        mono = mono * Poly.t(j, n) ** e
    return p + mono, n


@settings(max_examples=100, deadline=None)
@given(perturbed_combinations())
def test_expand_raises_exactly_when_not_symmetric(case):
    q, n = case
    if is_symmetric(q):
        assert expansion_to_poly(expand_in_double_schur(q, n)) == q
    else:
        with pytest.raises(ValueError, match="^polynomial is not symmetric$"):
            expand_in_double_schur(q, n)


def _x_exponent(p, key):
    return leading_x(Poly(p.nx, p.tw, {key: 1}))


@st.composite
def orbit_cases(draw):
    """Symmetric and perturbed polynomials, the zero polynomial, then one
    edit: drop every term of one x-exponent (one orbit member), drop one
    term, or change one coefficient; then pad the t-width."""
    p, n = draw(st.one_of(symmetric_combinations(), perturbed_combinations(),
                          st.integers(1, 4).map(lambda n: (Poly.zero(n), n))))
    terms = dict(p.terms)
    if terms:
        key = draw(st.sampled_from(sorted(terms)))
        edit = draw(st.sampled_from(["none", "none", "drop_member", "drop_term",
                                     "recoefficient"]))
        if edit == "drop_member":
            xe = _x_exponent(p, key)
            terms = {k: c for k, c in terms.items() if _x_exponent(p, k) != xe}
        elif edit == "drop_term":
            del terms[key]
        elif edit == "recoefficient":
            c = terms.pop(key) + draw(st.integers(-2, 2).filter(bool))
            if c:
                terms[key] = c
    tw = p.tw + draw(st.integers(0, 2))
    return Poly(n, tw, Poly(n, p.tw, terms)._widened(tw)), n


@settings(max_examples=200, deadline=None)
@given(orbit_cases())
def test_orbit_check_matches_is_symmetric(case):
    p, n = case
    flat = _groups(p)
    groups = _full_orbit_dominant(flat, n)
    assert (groups is not None) == is_symmetric(p)
    assert _dominant(flat, n, every=True) == groups
    assert (_dominant_groups(p) is not None) == is_symmetric(p)
    if groups is not None:
        dominant = {k: c for k, c in p.terms.items()
                    if (xe := _x_exponent(p, k)) == tuple(sorted(xe, reverse=True))}
        assert groups == _groups(Poly(n, p.tw, dominant))
        assert _dominant_groups(p) == _at_peel_width(groups, n, p.tw)


def test_orbit_check_needs_more_than_one_swap():
    # fixed by x2 <-> x3, but the orbit of x1*x2 lacks x2*x3
    n = 3
    x1, x2, x3 = (Poly.x(i, n) for i in (1, 2, 3))
    p = x1 * x2 + x1 * x3
    assert swap_x(p, 2, 3) == p and not is_symmetric(p)
    assert _dominant_groups(p) is None
    with pytest.raises(ValueError, match="^polynomial is not symmetric$"):
        expand_in_double_schur(p, n)


def _twins_agree(p):
    """Whether every term of p equals the term with its t-part at its
    sorted x-exponent, where that term exists."""
    groups = _groups(p)
    return all(groups.get(_orbit(x, p.nx)[0], {}).get(k) == c
               for x, g in groups.items() for k, c in g.items())


def test_peel_checks_each_term_and_the_count():
    n = 3
    x1, x2, x3 = (Poly.x(i, n) for i in (1, 2, 3))
    t1, t2, t3 = (Poly.t(j, n) for j in (1, 2, 3))
    e2 = x1 * x2 + x1 * x3 + x2 * x3
    # x2 x3 t2 is missing, and every term present equals its twin: a check
    # term by term needs a count to see it, but the group of x2 x3 (t1)
    # differs from that of x1 x2 (t1 + t2)
    missing = e2 * (t1 + t2) - x2 * x3 * t2
    assert _twins_agree(missing) and len(missing.terms) == 5
    # the count holds (x1 t1 has orbit size 3), but x1 t2, the twin of
    # x2 t2, is absent
    orphan = x1 * t1 + x2 * t2 + x3 * t3
    assert not _twins_agree(orphan) and len(orphan.terms) == 3
    # the count holds, but x2 x3 has coefficient 2 and its twin x1 x2 has 1
    recoefficient = e2 + x2 * x3
    assert not _twins_agree(recoefficient) and len(recoefficient.terms) == 3
    for p in (missing, orphan, recoefficient):
        assert not is_symmetric(p)
        assert _dominant_groups(p) is None
        with pytest.raises(ValueError, match="^polynomial is not symmetric$"):
            expand_in_double_schur(p, n)
    # the zero polynomial is symmetric, with no group
    assert _dominant_groups(Poly.zero(n)) == {}
    assert _dominant_groups(Poly(n, 4, {})) == {}


def test_peel_symmetry_check_on_fixed_cases():
    n = 2
    x1, x2 = Poly.x(1, n), Poly.x(2, n)
    t1, t2, t3, t4 = (Poly.t(j, n) for j in (1, 2, 3, 4))
    # both terms are dominant, so no twin is read; x1^2's orbit lacks x2^2,
    # which only the count (1 of its 2 members) sees
    incomplete = x1 ** 2 + x1 * x2
    assert _twins_agree(incomplete) and len(incomplete.terms) == 2
    # the count holds (x1^2 has orbit size 2), but x2^2's twin x1^2 has
    # coefficient 1, not 2
    twin_differs = x1 ** 2 + 2 * x2 ** 2
    assert not _twins_agree(twin_differs) and len(twin_differs.terms) == 2
    for p in (incomplete, twin_differs):
        assert not is_symmetric(p)
        assert _dominant_groups(p) is None
        with pytest.raises(ValueError, match="^polynomial is not symmetric$"):
            expand_in_double_schur(p, n)
    # t-degrees 0, 1, 2 and 3 at the dominant exponent (2, 0), and two at
    # (1, 1): each is lowered by its own x-degree and written back by it
    several = ((x1 ** 2 + x2 ** 2) * (1 + t1 + t2 ** 2 + t1 * t3 ** 2)
               + x1 * x2 * (t4 + t1 ** 3))
    assert {sum(te.values()) for xe, te, _ in several.iter_terms() if xe == (2, 0)} == \
        {0, 1, 2, 3}
    got = expand_in_double_schur(several, n)
    assert expansion_to_poly(got) == several


def test_expand_in_double_schur_round_trip():
    for n, lam in ((2, (2, 1)), (3, (1, 1)), (3, ())):
        got = expand_in_double_schur(double_schur(lam, n), n)
        assert got == SchurExpansion(n, {lam: 1})


def test_expand_writes_into_neither_input_nor_memo():
    n = 3
    s21 = double_schur((2, 1), n)
    inputs = [
        s21,   # already at the peel's t-width, so the peel must copy it
        x_sum(n) * s21,
        Poly.t(5, n) * s21 + 3 * double_schur((1,), n),
    ]
    # every shape these peels can meet lies in the n x 3 box
    memo = {mu: dict(double_schur(mu, n).terms) for mu in box_partitions(n, 3)}
    for p in inputs:
        before = dict(p.terms)
        first = expand_in_double_schur(p, n)
        second = expand_in_double_schur(p, n)
        assert set(first.coeffs) <= set(memo)
        assert second == first
        assert second.to_obj() == first.to_obj()
        assert p.terms == before
    for mu, terms in memo.items():
        assert double_schur(mu, n).terms == terms, mu
    assert expand_in_double_schur(Poly.zero(n), n) == SchurExpansion(n, {})


def test_peel_writes_into_no_cached_group():
    n = 3
    inputs = []
    for lam in box_partitions(n, 3):
        s = double_schur(lam, n)
        # s, x_sum * s and s * s_(2,1) carry their groups, the last unmarked
        inputs += [s, x_sum(n) * s, s * double_schur((2, 1), n),
                   Poly.t(5, n) * s + 3 * double_schur((1,), n)]
    # every shape these peels can meet lies in the n x 5 box
    memo = {mu: copy.deepcopy(_schur_groups(mu, n)) for mu in box_partitions(n, 5)}
    for p in inputs:
        first = expand_in_double_schur(p, n)
        assert set(first.coeffs) <= set(memo)
        assert expand_in_double_schur(p, n) == first
    for mu, groups in memo.items():
        assert _schur_groups(mu, n) == groups, mu


def _unmarked(p):
    """p with the same terms, carrying no groups: its products go through
    the kernel and its peel through `_dominant_groups`."""
    return Poly(p.nx, p.tw, dict(p.terms))


@st.composite
def marked_pairs(draw):
    """Two factors that carry their groups, x_sum(n) (drawn as None) or a
    double Schur polynomial of at most 3 columns, the empty shape included,
    at n <= 4.  At n = 4 the sizes add up to at most 9, so that the kernel
    product of the oracle stays under a second."""
    n = draw(st.integers(1, 4))
    shapes = st.sampled_from([None] + box_partitions(n, 3))
    a, b = draw(shapes), draw(shapes)
    if n == 4:
        assume(sum(1 if lam is None else sum(lam) for lam in (a, b)) <= 9)
    return a, b, n


@settings(max_examples=60, deadline=None)
@given(marked_pairs())
def test_product_of_groups_matches_the_kernel(case):
    a, b, n = case
    f, g = (x_sum(n) if lam is None else double_schur(lam, n) for lam in (a, b))
    p, want = f * g, _unmarked(f) * _unmarked(g)
    assert type(want) is Poly and type(p) is _Symmetric
    assert (p.nx, p.tw, p.terms) == (n, want.tw, want.terms)
    assert _at_peel_width(p._groups, n, p.tw) == _dominant_groups(want)
    got, expected = expand_in_double_schur(p, n), expand_in_double_schur(want, n)
    assert got == expected
    assert got.to_obj() == expected.to_obj()


def _packed(parts):
    """The packed x-exponent at bit 0 of the exponents of x1..xn, x_n lowest."""
    return sum(e << F * i for i, e in enumerate(reversed(parts)))


@st.composite
def exponent_pairs(draw):
    """Two x-exponents at n <= 5, both dominant (as `_Symmetric._times` asks)
    or both as drawn."""
    n = draw(st.integers(1, 5))
    x, y = (draw(st.lists(st.integers(0, 3), min_size=n, max_size=n)) for _ in range(2))
    if draw(st.booleans()):
        x, y = sorted(x, reverse=True), sorted(y, reverse=True)
    return x, y, n


@settings(max_examples=200, deadline=None)
@given(exponent_pairs())
# one pair of packed ints at two arities, x1 at n = 1 and x2 at n = 2, so
# that a memo keyed without n answers one of them wrongly
@example(([1], [1], 1))
@example(([0, 1], [0, 1], 2))
# the count scales by the fixed exponent's orbit and divides by z's, so
# it is pinned where they differ: orbits of unequal size in both argument
# orders, a one-member orbit against a large one, a walk whose sums fall
# into orbits of sizes 6, 3 and 3, and two equal orbits with repeated
# parts; the cases after them hold 0/1 exponents at k = 0, k = n and in
# between, and repeated parts
@example(([2, 1, 0, 0], [1, 1, 1, 0], 4))
@example(([1, 1, 1, 0], [2, 1, 0, 0], 4))
@example(([2, 2, 2, 2], [3, 2, 1, 0], 4))
@example(([3, 2, 1, 0], [0, 0, 0, 0], 4))
@example(([2, 1, 0], [1, 0, 0], 3))
@example(([3, 1, 1, 0], [2, 1, 0, 0], 4))
@example(([3, 3, 1, 1, 0], [1, 1, 0, 0, 0], 5))
@example(([1, 1, 1, 0, 0], [2, 1, 1, 0, 0], 5))
@example(([2, 1, 1, 0], [0, 0, 0, 0], 4))
@example(([0, 0, 0, 0], [3, 2, 2, 0], 4))
@example(([3, 2, 2, 0, 0], [1, 1, 1, 1, 1], 5))
@example(([1, 1, 1, 1], [2, 2, 1, 0], 4))
@example(([1, 0, 1, 0], [0, 1, 1, 1], 4))
@example(([2, 2, 2], [0, 1, 0], 3))
def test_dominant_sums_is_the_brute_force_list(case):
    x, y, n = case
    want = Counter(_packed(z) for a in set(permutations(x)) for b in set(permutations(y))
                   for z in [tuple(map(add, a, b))] if list(z) == sorted(z, reverse=True))
    assert list(_dominant_sums(_packed(x), _packed(y), n)) == sorted(want.items())


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 6).flatmap(
    lambda n: st.lists(st.integers(0, 3), min_size=n, max_size=n)))
@example([2, 2, 2, 2, 2, 2])
@example([0, 0, 0, 0, 0, 0])
@example([5, 4, 3, 2, 1, 0])
@example([0, 3, 1, 3, 0, 0])
@example([7])
def test_orbit_members_are_the_distinct_permutations(parts):
    n = len(parts)
    got = _orbit_members(_packed(parts), n)
    assert len(got) == len(set(got)) == _orbit(_packed(parts), n)[2]
    assert set(got) == {_packed(perm) for perm in permutations(parts)}


def test_groups_are_carried_only_where_they_hold():
    n = 3
    s, one = double_schur((2, 1), n), Poly.one(n)
    assert (x_sum(0), x_sum(0).nx, type(x_sum(0))) == (Poly.zero(0), 0, Poly)
    assert x_sum(n) == Poly.x(1, n) + Poly.x(2, n) + Poly.x(3, n)
    # a product by the constant 1 is the other operand itself
    for q in (s * one, one * s, s * 1, 1 * s, s * double_schur((), n)):
        assert q is s
    for q in (x_sum(n), s, x_sum(n) * s, s * s):
        assert isinstance(q, _Symmetric)
    unmarked = [s + s, s - x_sum(n), -s, s * 2, 2 * s, s * -1, s.kill_t_above(2),
                s.as_arity(n + 1), s * Poly.t(1, n), s * Poly.x(1, n),
                Poly.x(1, n) * s, s * _unmarked(s), _unmarked(s) * x_sum(n),
                expansion_to_poly(expand_in_double_schur(x_sum(n) * s, n))]
    assert s.tw > 2
    for q in unmarked:
        assert not isinstance(q, _Symmetric)
    # a kill that cuts nothing returns s itself
    assert s.kill_t_above(s.tw) is s
    with pytest.raises(ValueError, match="^polynomial is not symmetric$"):
        expand_in_double_schur(s + Poly.x(1, n), n)


def _counted_writes(monkeypatch):
    """The `_Symmetric` polynomials whose flat terms are written from now
    on, in order."""
    written, flat = [], _Symmetric._flat

    def counted(self):
        written.append(self)
        return flat(self)

    monkeypatch.setattr(_Symmetric, "_flat", counted)
    return written


def _are(got, want):
    """Whether the list got holds the objects of want, in order: compared by
    identity, since two equal polynomials may be two writes."""
    return len(got) == len(want) and all(map(is_, got, want))


def test_pieri_path_writes_no_flat_term(monkeypatch):
    n = 3
    written = _counted_writes(monkeypatch)
    sx = x_sum(n)
    for lam in box_partitions(n, 3):
        assert expand_in_double_schur(sx * double_schur(lam, n), n) == pieri_multiply(lam, n)
    pairs = [((1,), (1,)), ((2, 1), (1, 1)), ((3, 1), (2, 2, 1)), ((3,), (3, 3))]
    products = [double_schur(lam, n) * double_schur(mu, n) for lam, mu in pairs]
    for p in products:
        expand_in_double_schur(p, n)
    s = double_schur((2, 1), n)
    assert double_schur((), n) * s is s
    # a product by s_() reads the terms of the constant s_() alone, one term
    # at key 0; no polynomial of positive degree is written
    assert not any(g._degree for g in written)
    for (lam, mu), p in zip(pairs, products):
        del written[:]
        terms = p.terms
        assert p.terms is terms and _are(written, [p])
        want = _unmarked(double_schur(lam, n)) * _unmarked(double_schur(mu, n))
        assert isinstance(p, Poly) and type(p) is _Symmetric
        assert (p.tw, terms) == (want.tw, want.terms)


@pytest.mark.parametrize("reflected", [False, True], ids=["as-written", "reflected"])
@pytest.mark.parametrize("factors", [
    pytest.param(lambda: (double_schur((1,), 2), double_schur((1,), 3)), id="s1-s1"),
    pytest.param(lambda: (double_schur((), 2), double_schur((1,), 3)), id="s0-s1"),
    pytest.param(lambda: (x_sum(2), Poly.x(1, 3)), id="xsum-x1"),
])
def test_products_across_arities_raise_before_any_write(monkeypatch, factors, reflected):
    # a product of two group-carrying polynomials, or of one and a plain
    # one, checks the arity before it reads a group or a term
    written = _counted_writes(monkeypatch)
    f, g = factors()
    if reflected:
        f, g = g, f
    with pytest.raises(ArityMismatch, match=f"^x-arity mismatch: {f.nx} vs {g.nx}$"):
        f * g
    assert written == []


def _lazy(p):
    """A fresh `_Symmetric` with the groups of p, its terms not yet read."""
    return _Symmetric(p.nx, p.tw, p._groups, p._degree)


def _eager(p):
    """A `_Symmetric` with the groups of p, its terms written out now."""
    q = _lazy(p)
    q.terms = q._flat()
    return q


@settings(max_examples=40, deadline=None)
@given(marked_pairs())
def test_lazy_terms_read_as_eager_ones(case):
    a, b, n = case
    f, g = (x_sum(n) if lam is None else double_schur(lam, n) for lam in (a, b))
    marked = f * g
    other = Poly.t(2, n) + Poly.x(1, n) + 3
    eager = _eager(marked)

    def lazy():
        return _lazy(marked)

    assert lazy() == eager and eager == lazy()
    assert bool(lazy()) == bool(eager)
    assert repr(lazy()) == repr(eager)
    assert poly_to_obj(lazy()) == poly_to_obj(eager)
    assert list(lazy().iter_terms()) == list(eager.iter_terms())
    assert lazy()._widened(marked.tw + 2) == eager._widened(marked.tw + 2)
    for m in (0, 2, marked.tw):
        cut, want = lazy().kill_t_above(m), eager.kill_t_above(m)
        assert (cut.tw, cut.terms) == (want.tw, want.terms)
    wide, want = lazy().as_arity(n + 1), eager.as_arity(n + 1)
    assert (wide.nx, wide.tw, wide.terms) == (want.nx, want.tw, want.terms)
    for got, want in ((lazy() * other, eager * other), (other * lazy(), other * eager)):
        assert (got.tw, got.terms) == (want.tw, want.terms)


def test_a_missing_attribute_is_still_missing():
    lazy = x_sum(3) * double_schur((2, 1), 3)
    for p in (lazy, Poly.x(1, 3)):
        with pytest.raises(AttributeError, match="^'Poly' object has no attribute 'no_such_name'$") \
                as raised:
            p.no_such_name
        assert raised.value.name == "no_such_name"
    assert hasattr(lazy, "terms") and not hasattr(lazy, "no_such_name")


def test_orbit_memo_is_keyed_by_exponent_alone():
    n = 3
    p = x_sum(n) * double_schur((2, 1), n) + Poly.t(5, n) * double_schur((1, 1), n)
    want = expand_in_double_schur(p, n)
    before = _orbit.cache_info().currsize
    padded = Poly(n, p.tw + 2, p._widened(p.tw + 2))
    assert expand_in_double_schur(padded, n) == want
    assert _orbit.cache_info().currsize == before


def test_expansion_bytes_are_pinned():
    n = 3
    got = json.dumps([[list(lam), expand_in_double_schur(
        (x_sum(n) + Poly.t(7, n)) ** 2 * double_schur(lam, n), n).to_obj()]
        for lam in GrassContext(n, 6).box_partitions()], separators=(",", ":"))
    assert len(got) == 17993
    assert hashlib.sha256(got.encode()).hexdigest() == \
        "92bdc58766576f6ebbab75990ff8bf7622e432f70c9303c6a56d6db1e7d1e72e"


def test_expand_x_sum():
    got = expand_in_double_schur(x_sum(2), 2)
    want = SchurExpansion(2, {(): -(Poly.t(1) + Poly.t(2)), (1,): 1})
    assert got == want


def test_expand_x_sum_squared():
    n = 2
    t1, t2, t3 = Poly.t(1), Poly.t(2), Poly.t(3)
    got = expand_in_double_schur(x_sum(n) ** 2, n)
    want = SchurExpansion(n, {
        (2,): 1,
        (1, 1): 1,
        (1,): -(2 * t1 + t2 + t3),
        (): (t1 + t2) ** 2,
    })
    assert got == want


def test_expand_rejects_non_symmetric():
    with pytest.raises(ValueError):
        expand_in_double_schur(Poly.x(1, 2), 2)


def test_expansion_to_poly_inverts_expansion():
    n = 2
    p = x_sum(n) ** 2 + 3 * x_sum(n)
    assert expansion_to_poly(expand_in_double_schur(p, n)) == p


def test_expansion_round_trip_with_t_coefficients():
    e = SchurExpansion(2, {(): Poly.t(4), (2, 1): 3, (1,): Poly.t(1) ** 2})
    assert expand_in_double_schur(expansion_to_poly(e), 2) == e


# -- Pieri rule ---------------------------------------------------------------

def test_pieri_empty():
    got = pieri_multiply((), 2)
    assert got == SchurExpansion(2, {(): -(Poly.t(1) + Poly.t(2)), (1,): 1})


def test_pieri_one_box():
    got = pieri_multiply((1,), 2)
    want = SchurExpansion(2, {
        (1,): -(Poly.t(3) + Poly.t(1)),
        (2,): 1,
        (1, 1): 1,
    })
    assert got == want


def test_pieri_no_colliding_shapes():
    # adding a box below an equal row would collide; it must not appear
    got = pieri_multiply((1, 1), 2)
    assert set(got.coeffs) == {(1, 1), (2, 1)}
    got = pieri_multiply((2, 2), 2)
    assert set(got.coeffs) == {(2, 2), (3, 2)}


def test_pieri_memo_matches_a_fresh_construction():
    # a fresh expansion on every call, equal to one built anew, around the
    # memoized d(lam)
    for n in (1, 2, 3):
        for lam in box_partitions(n, 3):
            coeffs = {lam: schur._pieri_diagonal(lam, n)}
            coeffs.update((grown, Poly.one()) for grown in schur._addable(lam, n))
            got = pieri_multiply(lam, n)
            assert got == SchurExpansion(n, coeffs)
            again = pieri_multiply(list(lam) + [0], n)
            assert again == got and again is not got


def test_pieri_agrees_with_expansion_small():
    for n in (1, 2, 3):
        sx = x_sum(n)
        for lam in box_partitions(n, 3):
            got = expand_in_double_schur(sx * double_schur(lam, n), n)
            assert got == pieri_multiply(lam, n), (n, lam)


# -- SchurExpansion container ---------------------------------------------------

def test_expansion_drops_zeros_and_validates():
    e = SchurExpansion(2, {(1,): Poly.zero(0), (2,): 3})
    assert e.coeffs == {(2,): Poly.const(3)}
    with pytest.raises(ValueError):
        SchurExpansion(2, {(1, 1, 1): 1})


def test_expansion_constructor_checks_every_key():
    # the internal producers build through SchurExpansion._trusted; the
    # public constructor keeps normalizing and rejecting keys
    one = Poly.one()
    assert SchurExpansion(2, {(1, 0): 1, (2, 0): 1}).coeffs == {(1,): one, (2,): one}
    for bad in [(1, 2), (1, -1), (-1,), (1, 1, 1)]:
        with pytest.raises(ValueError):
            SchurExpansion(2, {bad: 1})
    # a coefficient of arity 2 is dropped to arity 0
    c = SchurExpansion(2, {(): Poly.const(2, 2)}).coeffs[()]
    assert (c.nx, c) == (0, Poly.const(2))


def test_internal_producers_build_clean_expansions():
    n = 3
    made = [pieri_multiply(lam, n) for lam in [(), (2,), (2, 2, 1)]]
    made += [expand_in_double_schur(x_sum(n) * double_schur(lam, n), n)
             for lam in [(), (2, 1), (3, 1, 1)]]
    for e in made:
        assert e.coeffs == SchurExpansion(n, e.coeffs).coeffs
        assert all(c and c.nx == 0 for c in e.coeffs.values())


def test_internal_producers_reject_arity_below_one():
    for _ in range(2):      # a refusal is not memoized as a result
        for n in (0, -1):
            with pytest.raises(ValueError):
                pieri_multiply((), n)
    with pytest.raises(ValueError, match="arity must be at least 1"):
        expand_in_double_schur(Poly.one(), 0)


def test_arity_is_read_as_a_plain_int():
    # True and 1 share one Pieri memo entry, so an arity must be kept as a
    # plain int, or an expansion writes "n": true
    schur._pieri_diagonal.cache_clear()
    pieri_multiply((1,), True)
    n = pieri_multiply((1,), 1).to_obj()["n"]
    assert n == 1 and type(n) is int
    assert type(SchurExpansion(True, {(1,): 1}).n) is int
    # a float arity is refused up front, not kept or failed on deep in a build
    for bad in (2.0, "2", None):
        for call in (lambda: SchurExpansion(bad, {}), lambda: double_schur((1,), bad),
                     lambda: alternant((1, 0), bad), lambda: pieri_multiply((), bad),
                     lambda: expand_in_double_schur(Poly.one(2), bad)):
            with pytest.raises(ValueError, match="arity must be an integer"):
                call()


def test_expansion_json_round_trip():
    e = SchurExpansion(2, {(2, 1): Poly.t(1) - Poly.t(4), (): 2})
    obj = e.to_obj()
    assert [term["lambda"] for term in obj["terms"]] == [[], [2, 1]]
    assert SchurExpansion.from_obj(json.loads(json.dumps(obj))) == e


@pytest.mark.parametrize("refused, error, message", [
    (lambda: strict_sequence((2, -1)), ValueError, r"negative entry in \(2, -1\)"),
    (lambda: expand_in_double_schur(x_sum(2), 3), ValueError,
     "expected a polynomial in x1..x3, got arity 2"),
], ids=["negative-entry", "expansion-arity"])
def test_schur_refusals(refused, error, message):
    with pytest.raises(error, match=message):
        refused()
