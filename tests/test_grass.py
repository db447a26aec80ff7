import gc
import json
import random
import sys
import weakref
from itertools import combinations_with_replacement

import pytest
from hypothesis import given, settings, strategies as st

from doubleschur import grass
from doubleschur.grass import (
    GrassContext,
    _in_support,
    _products_to_obj,
    _structure_constant,
    _support,
    SizeGuardExceeded,
    check_graham_positivity,
    full_structure_table,
    schubert_product,
    schubert_product_by_expansion,
    sigma1_power_expansion,
    truncate,
)
from doubleschur.oracles import lr_coefficient, syt_count
from doubleschur.poly import Poly, poly_to_obj, to_difference_basis
from doubleschur.schur import (
    SchurExpansion,
    _addable,
    _localization,
    _pieri_diagonal,
    double_schur,
    expand_in_double_schur,
    expansion_to_poly,
    partition,
    pieri_multiply,
    x_sum,
)
from branching import branching_localization
from difference_basis import from_difference_basis, reference_to_difference_basis
from duality import _conjugate, _reflected


def t(j):
    return Poly.t(j)


def test_context_validation():
    GrassContext(1, 1)
    with pytest.raises(ValueError):
        GrassContext(0, 2)
    with pytest.raises(ValueError):
        GrassContext(3, 2)
    # a float n or m used to construct and fail later, in box_partitions
    for n, m in ((2.5, 5), (2.0, 5), (2, 5.0), ("2", 5)):
        with pytest.raises(ValueError, match=r"^need integers n and m, got "):
            GrassContext(n, m)


def test_context_reads_a_bool_as_its_int():
    # the table of G(True, 3) is the table of G(1, 3), byte for byte
    obj = full_structure_table(GrassContext(True, 3)).to_obj()
    assert obj["n"] == 1 and type(obj["n"]) is int
    assert json.dumps(obj) == json.dumps(full_structure_table(GrassContext(1, 3)).to_obj())


def test_box_partitions():
    ctx = GrassContext(2, 4)
    assert ctx.box_partitions() == [(), (1,), (1, 1), (2,), (2, 1), (2, 2)]
    assert ctx.in_box((2, 2))
    assert not ctx.in_box((3,))
    assert not ctx.in_box((1, 1, 1))


def _grown_box_partitions(n, cols):
    """The box's partitions by growing each prefix one part at a time, no
    part above the one before it."""
    out = []

    def grow(prefix, cap, rows):
        out.append(tuple(prefix))
        if rows == 0:
            return
        for part in range(1, cap + 1):
            prefix.append(part)
            grow(prefix, part, rows - 1)
            prefix.pop()

    grow([], cols, n)
    return sorted(out)


def test_box_partitions_match_grown_prefixes():
    for m in range(1, 11):
        for n in range(1, m + 1):
            assert GrassContext(n, m).box_partitions() == _grown_box_partitions(n, m - n)


# -- the support of a product -------------------------------------------------

@pytest.mark.parametrize("n,m", [(2, 5), (3, 6)])
def test_box_tuples_and_other_spellings_give_one_product(n, m):
    # a list or a trailing zero is normalized by partition and must give
    # the same map, key order included
    ctx = GrassContext(n, m)
    box = ctx.box_partitions()
    for lam in box:
        for mu in box:
            got = schubert_product(lam, mu, ctx)
            for spelled in ((list(lam) + [0], list(mu) + [0]), (lam + (0,), mu + (0,))):
                other = schubert_product(*spelled, ctx)
                assert other == got, (lam, mu, spelled)
                assert list(other.coeffs) == list(got.coeffs), (lam, mu, spelled)


@pytest.fixture
def enumerations(monkeypatch):
    """The arguments of every box enumeration `grass` makes."""
    calls = []

    def counting(*args):
        calls.append(args)
        return combinations_with_replacement(*args)

    monkeypatch.setattr(grass, "combinations_with_replacement", counting)
    return calls


def test_products_enumerate_no_box(enumerations):
    ctx = GrassContext(2, 6)
    box = ctx.box_partitions()
    enumerations.clear()
    for lam in box:
        for mu in box:
            schubert_product(lam, mu, ctx)
    assert len(box) ** 2 == 225 and enumerations == []
    # each call hands out its own list
    box.append((9,))
    assert ctx.box_partitions() == box[:-1]


def test_a_one_off_product_enumerates_no_box(enumerations):
    # the box holds 8,008 partitions; the support of (2, 1) * (1) holds four
    got = schubert_product((1,), (2, 1), GrassContext(6, 16))
    assert enumerations == []
    assert set(got.coeffs) == {(2, 1), (2, 2), (3, 1), (2, 1, 1)}


def test_equal_contexts_built_apart_give_equal_products():
    first, second = GrassContext(2, 5), GrassContext(2, 5)
    assert first == second and hash(first) == hash(second)
    box = first.box_partitions()
    for lam in box:
        for mu in box:
            a, b = schubert_product(lam, mu, first), schubert_product(lam, mu, second)
            assert a == b and list(a.coeffs) == list(b.coeffs), (lam, mu)


def test_non_integral_parts_are_refused_by_the_product(monkeypatch):
    ctx = GrassContext(2, 5)
    seen = []

    def spying(parts):
        seen.append(parts)
        return partition(parts)

    monkeypatch.setattr(grass, "partition", spying)
    with pytest.raises(ValueError, match=r"^non-integral part in \(2\.5, 1\)$"):
        schubert_product((2.5, 1), (1,), ctx)
    assert seen == [(2.5, 1)]
    # an integral float is the box partition it equals, keys and all
    got = schubert_product((2.0, 1), (1,), ctx)
    assert got == schubert_product((2, 1), (1,), ctx)
    assert all(type(part) is int for nu in got.coeffs for part in nu)


def test_grown_support_matches_the_box_scan():
    # the scan `_support` replaces: every box partition, by `_in_support`
    contexts = [GrassContext(n, m) for m in range(1, 8) for n in range(1, m + 1)]
    for ctx in contexts + [GrassContext(2, 8)]:
        box = ctx.box_partitions()
        for lam in box:
            for mu in box:
                hi, lo = max(lam, mu), min(lam, mu)
                scanned = [nu for nu in box if _in_support(hi, lo, nu)]
                assert _support(hi, lo, ctx) == scanned, (ctx, lam, mu)


@pytest.mark.parametrize("n,m,small_m,lam,mu", [(8, 30, 10, (1,), (1,)),
                                                (6, 16, 9, (2, 1), (1,))])
def test_a_wide_box_gives_the_product_of_a_narrow_one(n, m, small_m, lam, mu):
    # the support fits both boxes, and no constant reads m
    got = schubert_product(lam, mu, GrassContext(n, m))
    want = schubert_product(lam, mu, GrassContext(n, small_m))
    assert got == want and list(got.coeffs) == list(want.coeffs)


# -- truncation ---------------------------------------------------------------

def test_truncate_drops_wide_partitions():
    ctx = GrassContext(2, 4)
    e = SchurExpansion(2, {(ctx.cols + 1,): 1})
    assert truncate(e, ctx).is_zero()


def test_truncate_kills_high_t():
    ctx = GrassContext(2, 4)
    e = SchurExpansion(2, {(): t(5)})
    assert truncate(e, ctx).is_zero()
    e = SchurExpansion(2, {(): t(5) + t(2)})
    assert truncate(e, ctx) == SchurExpansion(2, {(): t(2)})


def test_truncate_idempotent():
    ctx = GrassContext(2, 4)
    e = SchurExpansion(2, {(3,): t(1), (2, 1): t(5) + 1, (): 4})
    once = truncate(e, ctx)
    assert truncate(once, ctx) == once


def test_truncate_is_ring_hom():
    # the kernel is an ideal: truncating a product equals truncating the
    # product of truncations
    ctx = GrassContext(2, 4)
    rng = random.Random(7)
    pool = [(), (1,), (2,), (1, 1), (3,), (3, 1), (2, 2)]
    for _ in range(6):
        lam, mu = rng.choice(pool), rng.choice(pool)
        scale = t(rng.randint(1, 5))
        p = SchurExpansion(2, {lam: scale, mu: 1})
        q = SchurExpansion(2, {mu: 1})

        def mul(a, b):
            return expand_in_double_schur(
                expansion_to_poly(a) * expansion_to_poly(b), 2)

        direct = truncate(mul(p, q), ctx)
        reduced = truncate(mul(truncate(p, ctx), truncate(q, ctx)), ctx)
        assert direct == reduced, (lam, mu)


# -- products -----------------------------------------------------------------

def test_product_with_unit():
    ctx = GrassContext(2, 4)
    for lam in ctx.box_partitions():
        assert schubert_product((), lam, ctx) == SchurExpansion(2, {lam: 1})


def test_product_projective_line():
    ctx = GrassContext(1, 2)
    got = schubert_product((1,), (1,), ctx)
    assert got == SchurExpansion(1, {(1,): t(1) - t(2)})


def test_product_G24_one_one():
    ctx = GrassContext(2, 4)
    got = schubert_product((1,), (1,), ctx)
    want = SchurExpansion(2, {(2,): 1, (1, 1): 1, (1,): t(2) - t(3)})
    assert got == want


def test_product_classical_specialization():
    ctx = GrassContext(2, 4)
    got = schubert_product((1,), (1,), ctx)
    killed = {lam: c.kill_t_above(0) for lam, c in got.items() if c.kill_t_above(0)}
    assert killed == {(2,): Poly.one(), (1, 1): Poly.one()}


def test_product_rejects_out_of_box():
    ctx = GrassContext(2, 4)
    with pytest.raises(ValueError, match=r"^partition \(3,\) does not fit the 2 x 2 box$"):
        schubert_product((3,), (1,), ctx)
    with pytest.raises(ValueError,
                       match=r"^partition \(1, 1, 1\) does not fit the 2 x 2 box$"):
        schubert_product((1,), (1, 1, 1), ctx)
    # the message names the normalized partition
    with pytest.raises(ValueError, match=r"^partition \(3,\) does not fit the 2 x 2 box$"):
        schubert_product([1], [3, 0], ctx)


def test_product_normalizes_its_partitions():
    ctx = GrassContext(2, 5)
    # three parts as given, two once the trailing zero is dropped
    assert schubert_product([2, 1, 0], (1,), ctx) == schubert_product((2, 1), (1,), ctx)
    assert schubert_product((1,), [2, 1, 0], ctx) == schubert_product((2, 1), (1,), ctx)


@pytest.mark.parametrize("n,m", [(2, 5), (3, 6)])
def test_product_is_built_clean_in_box_order(n, m):
    # the product map is built without the public constructor: it must be
    # what that constructor would make of it, with no zero constant and
    # its partitions in the box's order
    ctx = GrassContext(n, m)
    box = ctx.box_partitions()
    for lam in box:
        for mu in box:
            got = schubert_product(lam, mu, ctx)
            assert got == SchurExpansion(n, dict(got.coeffs)), (lam, mu)
            assert all(c for c in got.coeffs.values()), (lam, mu)
            assert list(got.coeffs) == [nu for nu in box if nu in got.coeffs], (lam, mu)


def test_product_commutes():
    ctx = GrassContext(2, 4)
    for lam, mu in (((1,), (2, 1)), ((2,), (1, 1)), ((2, 2), (2, 1))):
        assert schubert_product(lam, mu, ctx) == schubert_product(mu, lam, ctx)


@pytest.mark.parametrize("n,m", [(2, 5), (3, 6)])
def test_structure_constant_commutes_in_both_recursion_orders(n, m):
    # schubert_product always runs the recursion as (max, min), so compare
    # the two orders of the recursion itself, each from an empty memo
    box = GrassContext(n, m).box_partitions()
    triples = [(lam, mu, nu) for lam in box for mu in box for nu in box
               if _in_support(lam, mu, nu)]
    assert triples
    forward, backward = GrassContext(n, m), GrassContext(n, m)
    for lam, mu, nu in triples:
        assert _structure_constant(lam, mu, nu, forward) == \
            _structure_constant(mu, lam, nu, backward), (lam, mu, nu)


def test_pieri_step_matches_oracles():
    # the two halves of the Pieri step that pieri_multiply and
    # _structure_constant share: the grown shapes against a brute force
    # over a box one column wider than lam, the diagonal d(lam) against
    # the coefficient of s_lam in the expansion of (x1 + ... + xn) * s_lam
    for n in range(1, 6):
        for lam in GrassContext(n, n + 3).box_partitions():
            wider = GrassContext(n, n + (lam[0] if lam else 0) + 1)
            assert sorted(_addable(lam, n)) == [
                nu for nu in wider.box_partitions()
                if sum(nu) == sum(lam) + 1 and len(lam) <= len(nu)
                and all(a <= b for a, b in zip(lam, nu))
            ], (n, lam)
            if n <= 3:
                expansion = expand_in_double_schur(x_sum(n) * double_schur(lam, n), n)
                assert _pieri_diagonal(lam, n) == expansion.get(lam), (n, lam)


def test_an_edited_pieri_expansion_reaches_no_other_caller():
    # pieri_multiply builds a fresh expansion on every call, so an edit of
    # one changes no later Pieri expansion, sigma1 power or structure
    # constant; the values are copied, so an edit cannot reach them either
    def values():
        ctx = GrassContext(2, 4)
        return [SchurExpansion(2, dict(e.coeffs))
                for e in [pieri_multiply((1,), 2), pieri_multiply((2,), 2),
                          sigma1_power_expansion(2, ctx),
                          schubert_product((1,), (1,), ctx)]]

    want = values()
    for lam, c in [((1,), Poly.const(2)), ((2,), t(1))]:
        pieri_multiply(lam, 2).coeffs[(2,)] = c
        assert values() == want, lam


def test_product_associative_sampled():
    ctx = GrassContext(2, 4)
    box = ctx.box_partitions()
    rng = random.Random(23)

    def act(e, nu):
        acc = {}
        for kappa, c in e.coeffs.items():
            for rho_, d in schubert_product(kappa, nu, ctx).coeffs.items():
                prev = acc.get(rho_)
                acc[rho_] = c * d if prev is None else prev + c * d
        return truncate(SchurExpansion(ctx.n, acc), ctx)

    for _ in range(10):
        lam, mu, nu = (rng.choice(box) for _ in range(3))
        left = act(schubert_product(lam, mu, ctx), nu)
        right = act(schubert_product(mu, nu, ctx), lam)
        assert left == right, (lam, mu, nu)


def test_product_degrees_are_homogeneous():
    # each constant is homogeneous of degree |lam|+|mu|-|nu| in the t's,
    # and absent when |nu| exceeds |lam|+|mu|
    ctx = GrassContext(2, 4)
    box = ctx.box_partitions()
    for lam in box:
        for mu in box:
            for nu, c in schubert_product(lam, mu, ctx).items():
                want = sum(lam) + sum(mu) - sum(nu)
                assert want >= 0
                for xe, te, _ in c.iter_terms():
                    assert sum(xe) == 0
                    assert sum(te.values()) == want, (lam, mu, nu)


def test_product_specializes_to_lr():
    ctx = GrassContext(2, 4)
    box = ctx.box_partitions()
    for lam in box:
        for mu in box:
            prod = schubert_product(lam, mu, ctx)
            for nu in box:
                c = prod.get(nu).kill_t_above(0)
                got = c.evaluate((), ()) if c else 0
                want = lr_coefficient(lam, mu, nu) \
                    if sum(nu) == sum(lam) + sum(mu) else 0
                assert got == want, (lam, mu, nu)


# -- the two routes to the structure constants ---------------------------------

@pytest.mark.parametrize("n,m", [(1, 1), (1, 2), (1, 3), (1, 4),
                                 (2, 4), (2, 5), (3, 5)])
def test_routes_agree_on_every_pair(n, m):
    ctx = GrassContext(n, m)
    box = ctx.box_partitions()
    for lam in box:
        for mu in box:
            assert schubert_product(lam, mu, ctx) == \
                schubert_product_by_expansion(lam, mu, ctx), (lam, mu)


@st.composite
def small_products(draw):
    m = draw(st.integers(1, 5))
    ctx = GrassContext(draw(st.integers(1, m)), m)
    box = ctx.box_partitions()
    return ctx, draw(st.sampled_from(box)), draw(st.sampled_from(box))


@settings(max_examples=60, deadline=None)
@given(small_products())
def test_routes_agree_on_random_pairs(case):
    ctx, lam, mu = case
    assert schubert_product(lam, mu, ctx) == \
        schubert_product_by_expansion(lam, mu, ctx)


def test_product_one_one_beyond_the_polynomial_route():
    # sigma_1 = s_(1) = (x1 + ... + xn) + (t1 + ... + tn), so its square is
    # the Pieri expansion of (1,) plus (t1 + ... + tn) times (1,)
    n, m = 8, 16
    ctx = GrassContext(n, m)
    coeffs = dict(pieri_multiply((1,), n).coeffs)
    coeffs[(1,)] = coeffs[(1,)] + sum((t(i) for i in range(1, n + 1)), Poly.zero(0))
    want = truncate(SchurExpansion(n, coeffs), ctx)
    assert schubert_product((1,), (1,), ctx) == want
    assert want.get((1,)) == t(8) - t(9)


# -- the base of the recursion against localization ----------------------------

def _reference_localize(mu, lam, n):
    """s_mu(x|t) at the torus-fixed point x_k = -t_{lam_k+n-k+1}, by the
    tableau formula: the sum over semistandard tableaux T of shape mu with
    entries at most n of the product over cells (i, j) of
    t_{T(i,j)+j-i} - t_{lam_T(i,j)+n-T(i,j)+1}.  Rows through a vanishing
    factor are cut.  Zero unless mu is contained in lam.

    The tableaux are summed row by row: a row's product depends on the row
    alone, and the sum over the rows below it on the row alone (each entry
    must exceed the one above it), so both are memoized per row."""
    padded = lam + (0,) * (n - len(lam))
    weights, sums = {}, {}

    def weight(i, row):
        if (i, row) not in weights:
            acc = Poly.one()
            for j, v in enumerate(row, 1):
                a, b = v + j - i, padded[v - 1] + n - v + 1
                if a == b:
                    acc = None
                    break
                acc = acc * (Poly.t(a) - Poly.t(b))
            weights[i, row] = acc
        return weights[i, row]

    def below(i, above):
        # the sum over the fillings of rows i, i + 1, ... under the row above
        if i > len(mu):
            return Poly.one()
        if (i, above) not in sums:
            total = Poly.zero(0)
            for row in combinations_with_replacement(range(1, n + 1), mu[i - 1]):
                if all(v > u for v, u in zip(row, above)) and weight(i, row) is not None:
                    total = total + weight(i, row) * below(i + 1, row)
            sums[i, above] = total
        return sums[i, above]

    return below(1, (0,) * (mu[0] if mu else 0))


@pytest.mark.parametrize("n,m", [(1, 6), (2, 6), (3, 6)])
def test_coefficient_on_lam_is_localization(n, m):
    # c_{lam,mu}^lam is s_mu restricted to the fixed point lam; the
    # recursion reaches it through commutativity and the diagonal product
    ctx = GrassContext(n, m)
    box = ctx.box_partitions()
    for lam in box:
        for mu in box:
            assert schubert_product(lam, mu, ctx).get(lam) == \
                _reference_localize(mu, lam, n), (lam, mu)


@st.composite
def diagonal_shapes(draw):
    n = draw(st.integers(1, 5))
    parts = draw(st.lists(st.integers(0, 4), min_size=n, max_size=n))
    return tuple(sorted((p for p in parts if p), reverse=True)), n


@settings(max_examples=80, deadline=None)
@given(diagonal_shapes())
def test_diagonal_is_localization(case):
    lam, n = case
    ctx = GrassContext(n, n + 4)
    assert _structure_constant(lam, lam, lam, ctx) == _reference_localize(lam, lam, n)


# -- localizations evaluated at a fixed point ------------------------------------

@pytest.mark.parametrize("n,m", [(2, 5), (3, 6), (3, 7)])
def test_localization_matches_the_product_for_small_and_large_kappa(n, m):
    # the value at the point is the product's coefficient on mu, for small
    # and large kappa alike, and a kappa outside mu gives 0
    ctx = GrassContext(n, m)
    box = ctx.box_partitions()
    sides = set()
    for mu in box:
        memo = {}
        for kappa in box:
            got = _localization(kappa, mu, n, memo)
            assert got == _reference_localize(kappa, mu, n), (kappa, mu)
            if not grass._contains(mu, kappa):
                assert not got, (kappa, mu)
                continue
            sides.add(2 * sum(kappa) <= sum(mu))
            want = schubert_product(kappa, mu, ctx).get(mu)
            assert got == want, (kappa, mu)
            if (n, m) == (2, 5):
                assert want == schubert_product_by_expansion(kappa, mu, ctx).get(mu)
    assert sides == {True, False}


def test_localization_matches_the_branching_walk_on_g37():
    # the excited-diagram sum against the branching rule, term for term and
    # at the same t-width, on every pair of G(3,7), kappa outside mu included
    box = GrassContext(3, 7).box_partitions()
    memo, walk = {}, {}
    for mu in box:
        for kappa in box:
            got = _localization(kappa, mu, 3, memo)
            want = branching_localization(kappa, mu, 3, walk)
            assert (got.tw, got.terms) == (want.tw, want.terms), (kappa, mu)


@st.composite
def restriction_pairs(draw):
    # kappa mostly inside mu (a part of kappa at most the part of mu it is
    # drawn against), and at most 3 columns wide, so that no value has more
    # than 2**15 terms
    n = draw(st.integers(1, 5))
    mu = draw(st.lists(st.integers(0, 6), min_size=n, max_size=n))
    cap = mu if draw(st.integers(0, 3)) else [6] * n
    kappa = [min(c, draw(st.integers(0, 3))) for c in cap]
    return partition(sorted(kappa, reverse=True)), partition(sorted(mu, reverse=True)), n


@settings(max_examples=60, deadline=None)
@given(restriction_pairs())
def test_localization_matches_the_branching_walk_in_larger_boxes(case):
    kappa, mu, n = case
    got = _localization(kappa, mu, n, {})
    want = branching_localization(kappa, mu, n, {})
    assert (got.tw, got.terms) == (want.tw, want.terms)


def _excited_diagrams(kappa, mu):
    """The excited Young diagrams of kappa in mu (Ikeda-Naruse), each a set
    of 1-based cells (i, j): kappa's diagram when it fits in mu, and every
    diagram reached from it by moving a cell (i, j) to (i+1, j+1) when
    (i+1, j+1) is a cell of mu and none of (i+1, j), (i, j+1), (i+1, j+1)
    is a cell of the diagram."""
    def in_mu(i, j):
        return i <= len(mu) and j <= mu[i - 1]

    start = frozenset((i, j) for i in range(1, len(kappa) + 1)
                      for j in range(1, kappa[i - 1] + 1))
    if not all(in_mu(i, j) for i, j in start):
        return set()
    found, stack = {start}, [start]
    while stack:
        diagram = stack.pop()
        for i, j in diagram:
            step = {(i + 1, j), (i, j + 1), (i + 1, j + 1)}
            if in_mu(i + 1, j + 1) and not step & diagram:
                moved = diagram - {(i, j)} | {(i + 1, j + 1)}
                if moved not in found:
                    found.add(moved)
                    stack.append(moved)
    return found


@pytest.mark.parametrize("n,m", [(2, 6), (3, 6)])
def test_restriction_certificates_are_excited_diagram_sums(n, m):
    # a weight t_{b_j} - t_{a_i} of a cell (i, j) of mu has b_j < a_i, so it
    # is u_{b_j} + ... + u_{a_i - 1} in u_k = t_k - t_{k+1}: the diagram
    # sum written in the u is a certificate positive by construction, and
    # every restriction constant's certificate from the shear must equal it
    ctx = GrassContext(n, m)
    _every_product(ctx)
    keys = [key for key in ctx._constants if key[2] in key[:2]]
    assert len(keys) > 50
    for lam, mu, nu in keys:
        kappa = mu if nu == lam else lam
        want = Poly.zero(0)
        for diagram in _excited_diagrams(kappa, nu):
            term = Poly.one()
            for i, j in diagram:
                b = n + j - sum(p >= j for p in nu)
                a = nu[i - 1] + n - i + 1
                term = term * sum((t(k) for k in range(b, a)), Poly.zero(0))
            want = want + term
        assert to_difference_basis(ctx._constants[lam, mu, nu], m) == want, (lam, mu, nu)


@pytest.mark.parametrize("n,m", [(2, 4), (2, 5), (2, 6), (3, 6), (3, 7)])
def test_grassmann_duality(n, m):
    # c_{lam,mu}^nu on G(n,m) is omega(c_{lam',mu'}^{nu'}) on G(m-n,m), and
    # the supports correspond under conjugation; the dual side runs m-n
    # x-variables, so it reads other Pieri divisors, other fixed points and
    # other excited diagrams
    ctx, dual = GrassContext(n, m), GrassContext(m - n, m)
    box = ctx.box_partitions()
    for lam in box:
        for mu in box:
            got = schubert_product(lam, mu, ctx).coeffs
            want = schubert_product(_conjugate(lam), _conjugate(mu), dual).coeffs
            assert {_conjugate(nu): _reflected(c, m) for nu, c in got.items()} == want, (lam, mu)


@pytest.mark.parametrize("n,m", [(2, 5), (3, 6), (4, 8)])
def test_localization_of_the_unit_and_of_sigma1(n, m):
    # sigma_1 at mu is t_1 + ... + t_n - sum over k of t_{mu_k+n-k+1}, the
    # equivariant Chevalley formula; the unit is 1 everywhere
    for mu in GrassContext(n, m).box_partitions():
        memo = {}
        assert _localization((), mu, n, memo) == Poly.one()
        padded = mu + (0,) * (n - len(mu))
        want = Poly.zero(0)
        for k in range(1, n + 1):
            want = want + t(k) - t(padded[k - 1] + n - k + 1)
        assert _localization((1,), mu, n, memo) == want, mu


@pytest.mark.parametrize("n,m", [(2, 5), (3, 6), (3, 7), (2, 8), (4, 8)])
def test_sigma1_product_is_the_truncated_pieri_rule(n, m):
    # sigma_1 = (x1 + ... + xn) + e_1(t1..tn), so sigma_1 * sigma_mu is the
    # Pieri expansion of mu with e_1(t1..tn) added on mu itself
    ctx = GrassContext(n, m)
    e1 = sum((t(i) for i in range(1, n + 1)), Poly.zero(0))
    for mu in ctx.box_partitions():
        coeffs = dict(pieri_multiply(mu, n).coeffs)
        coeffs[mu] = coeffs[mu] + e1
        want = truncate(SchurExpansion(n, coeffs), ctx)
        assert schubert_product(mu, (1,), ctx) == want == schubert_product((1,), mu, ctx), mu


def test_a_one_off_product_with_a_small_class_keeps_its_answer_only():
    # sigma_1 * sigma_(5,4,3,2) on G(4,10) has 5 constants; each costs at
    # most one localization of (1) and one division, not the interval
    # below (5,4,3,2) down from the diagonal
    ctx = GrassContext(4, 10)
    assert len(schubert_product((5, 4, 3, 2), (1,), ctx).coeffs) == 5
    assert len(ctx._constants) <= 10


@pytest.mark.parametrize("lam,mu,n,m,bound", [
    ((6, 5, 4), (6, 4, 3), 3, 9, 14),
    ((4, 3, 2, 1), (4, 3, 2, 1), 4, 8, 84),
])
def test_a_near_diagonal_one_off_product_restricts_at_the_fixed_point(lam, mu, n, m, bound):
    # every chain ends at a restriction evaluated at its fixed point, so a
    # product near the diagonal keeps no chain down from a larger diagonal
    # (41 and 154 constants when such chains were walked)
    ctx = GrassContext(n, m)
    schubert_product(lam, mu, ctx)
    assert len(ctx._constants) <= bound


# -- positivity ----------------------------------------------------------------

def test_positivity_simple_difference():
    ctx = GrassContext(1, 2)
    rep = check_graham_positivity(t(1) - t(2), ctx)
    assert rep.positive
    assert rep.certificate == Poly.t(1)
    assert rep.differences_used == (1,)


def test_positivity_constant():
    rep = check_graham_positivity(Poly.const(1), GrassContext(2, 4))
    assert rep.positive
    assert rep.certificate == Poly.one()
    assert rep.differences_used == ()


def test_positivity_reads_an_int_as_a_constant():
    ctx = GrassContext(2, 4)
    for c in (0, 3):
        rep = check_graham_positivity(c, ctx)
        assert rep == check_graham_positivity(Poly.const(c), ctx)
        assert rep.positive and rep.certificate == c
    rep = check_graham_positivity(-3, ctx)
    assert not rep.positive
    assert rep.reason == "negative coefficient"
    assert rep.offender == "-3 on u-monomial {}"


def test_positivity_detects_negative():
    rep = check_graham_positivity(t(2) - t(1), GrassContext(1, 2))
    assert not rep.positive
    assert rep.reason == "negative coefficient"
    assert rep.offender == "-1 on u-monomial {'1': 1}"


def test_positivity_reports_the_first_negative_term_in_canonical_order():
    # u2^2 comes before u1 in the graded order, so it is the offender
    u1, u2 = Poly.t(1), Poly.t(2)
    c = from_difference_basis(-u1 - u2 ** 2 + 3 * u1 * u2, 3)
    rep = check_graham_positivity(c, GrassContext(1, 3))
    assert not rep.positive
    assert rep.reason == "negative coefficient"
    assert rep.offender == "-1 on u-monomial {'2': 2}"


def test_positivity_detects_shift_variance():
    rep = check_graham_positivity(t(1) + t(2), GrassContext(1, 2))
    assert not rep.positive
    assert rep.reason == "not shift-invariant"


def test_negative_report_json_shapes():
    # the flat reason/offender of to_obj and the nested violation of a
    # certified-product entry, key order included (JSON output is
    # byte-compared)
    cases = [
        (t(2) - t(1), "negative coefficient", "-1 on u-monomial {'1': 1}"),
        (t(1) + t(2), "not shift-invariant", "2*t2"),
    ]
    for c, reason, offender in cases:
        rep = check_graham_positivity(c, GrassContext(1, 2))
        assert json.dumps(rep.to_obj()) == json.dumps(
            {"positive": False, "certificate": None,
             "reason": reason, "offender": offender})
        assert json.dumps(_products_to_obj({(1,): (c, rep)}, {})) == json.dumps(
            [{"nu": [1], "coeff": poly_to_obj(c), "certificate": None, "positive": False,
              "violation": {"reason": reason, "offender": offender}}])


def test_positivity_rejects_t_beyond_m():
    with pytest.raises(ValueError):
        check_graham_positivity(Poly.t(5), GrassContext(1, 3))


def test_certificate_reconstructs_constant():
    ctx = GrassContext(2, 5)
    c = schubert_product((2, 1), (2, 1), ctx).get((2, 2))
    rep = check_graham_positivity(c, ctx)
    assert rep.positive
    assert from_difference_basis(rep.certificate, ctx.m) == c


def test_certificates_match_reference_on_g26_and_g36():
    # every constant, over unordered pairs: (lam, mu) and (mu, lam) share it
    for n in (2, 3):
        ctx = GrassContext(n, 6)
        box = ctx.box_partitions()
        for i, lam in enumerate(box):
            for mu in box[i:]:
                for nu, c in schubert_product(lam, mu, ctx).items():
                    cert = to_difference_basis(c, ctx.m)
                    assert cert == reference_to_difference_basis(c, ctx.m), (n, lam, mu, nu)
                    assert from_difference_basis(cert, ctx.m) == c


def test_positivity_across_small_grassmannians():
    for n, m in ((1, 3), (2, 4)):
        ctx = GrassContext(n, m)
        box = ctx.box_partitions()
        for lam in box:
            for mu in box:
                for nu, c in schubert_product(lam, mu, ctx).items():
                    rep = check_graham_positivity(c, ctx)
                    assert rep.positive, (n, m, lam, mu, nu, str(c))


# -- sigma_1 powers --------------------------------------------------------------

def test_sigma1_power_zero():
    ctx = GrassContext(2, 4)
    assert sigma1_power_expansion(0, ctx) == SchurExpansion(2, {(): 1})


def test_sigma1_power_two():
    ctx = GrassContext(2, 4)
    e = sigma1_power_expansion(2, ctx)
    assert e.get((2,)) == 1
    assert e.get((1, 1)) == 1


def test_sigma1_power_three_has_syt_count():
    for ctx in (GrassContext(2, 5), GrassContext(3, 6)):
        e = sigma1_power_expansion(3, ctx)
        assert e.get((2, 1)) == 2  # two standard tableaux of shape (2,1)


def test_sigma1_power_matches_the_pieri_fold():
    # the step as a fold of Poly sums, one copy of the running sum per product
    for ctx in (GrassContext(2, 5), GrassContext(3, 7)):
        acc = SchurExpansion(ctx.n, {(): 1})
        for k in range(1, 7):
            nxt = {}
            for lam, c in acc.coeffs.items():
                for mu, d in pieri_multiply(lam, ctx.n).coeffs.items():
                    nxt[mu] = nxt.get(mu, Poly.zero(0)) + c * d
            acc = truncate(SchurExpansion(ctx.n, nxt), ctx)
            assert sigma1_power_expansion(k, ctx) == acc, (ctx, k)


def test_sigma1_top_degree_matches_syt():
    ctx = GrassContext(2, 5)
    for k in range(5):
        e = sigma1_power_expansion(k, ctx)
        tops = {lam: c for lam, c in e.items() if sum(lam) == k}
        want = {lam: Poly.const(syt_count(lam))
                for lam in ctx.box_partitions() if sum(lam) == k}
        assert tops == want, k


def test_sigma1_class_powers_on_g48_are_certified_at_width_m_minus_1():
    # sigma1 = x1+..+x4 + t1+..+t4, the class of the one-box partition:
    # s_(1) * s_lam is x_sum * s_lam by Pieri plus e1(t) * s_lam.  Most
    # coefficients reach t_J only for some J < m, so each is certified at
    # its own largest index and must still come back at width m - 1.
    ctx = GrassContext(4, 8)
    e1 = t(1) + t(2) + t(3) + t(4)
    acc = SchurExpansion(ctx.n, {(): 1})
    below_m = 0
    for k in range(1, 12):
        nxt = {}
        for lam, c in acc.coeffs.items():
            for mu, d in [*pieri_multiply(lam, ctx.n).coeffs.items(), (lam, e1)]:
                nxt[mu] = nxt.get(mu, Poly.zero(0)) + c * d
        acc = truncate(SchurExpansion(ctx.n, nxt), ctx)
        for lam, c in acc.items():
            rep = check_graham_positivity(c, ctx)
            assert rep.positive, (k, lam)
            assert rep.certificate.tw == ctx.m - 1, (k, lam)
            assert from_difference_basis(rep.certificate, ctx.m) == c, (k, lam)
            below_m += c.max_t_index() < ctx.m
    assert below_m > 0


# -- structure tables --------------------------------------------------------------

def test_table_projective_line():
    table = full_structure_table(GrassContext(1, 2))
    assert len(table.entries) == 4
    assert table.all_positive
    prods = table.entries[((1,), (1,))]
    coeff, report = prods[(1,)]
    assert coeff == t(1) - t(2)
    assert report.positive


def test_table_symmetric():
    table = full_structure_table(GrassContext(2, 4))
    for (lam, mu), products in table.entries.items():
        mirror = table.entries[(mu, lam)]
        assert {nu: c for nu, (c, _) in products.items()} == \
               {nu: c for nu, (c, _) in mirror.items()}


def test_table_certifies_each_unordered_pair_once(monkeypatch):
    ctx = GrassContext(2, 5)
    box = ctx.box_partitions()
    calls = []

    def counting(c, context):
        calls.append(c)
        return check_graham_positivity(c, context)

    monkeypatch.setattr(grass, "check_graham_positivity", counting)
    table = full_structure_table(ctx)
    pairs = [(lam, mu) for i, lam in enumerate(box) for mu in box[i:]]
    assert len(calls) == sum(len(schubert_product(lam, mu, ctx).coeffs)
                             for lam, mu in pairs)
    assert len(table.entries) == len(box) ** 2
    for lam, mu in pairs:
        assert table.entries[(mu, lam)] is table.entries[(lam, mu)]


def test_table_guard():
    with pytest.raises(SizeGuardExceeded):
        full_structure_table(GrassContext(3, 13))


def test_table_json_schema():
    table = full_structure_table(GrassContext(1, 2))
    obj = json.loads(json.dumps(table.to_obj()))
    assert obj["n"] == 1 and obj["m"] == 2
    assert len(obj["entries"]) == 4
    entry = obj["entries"][-1]
    assert entry["lambda"] == [1] and entry["mu"] == [1]
    (prod,) = entry["products"]
    assert prod["nu"] == [1]
    assert prod["positive"] is True
    assert prod["certificate"] == [{"u": {"1": 1}, "c": "1"}]
    assert prod["differences_used"] == [1]


# -- memo lifetime -------------------------------------------------------------

def _every_product(ctx):
    box = ctx.box_partitions()
    return [schubert_product(lam, mu, ctx) for lam in box for mu in box]


def test_dropping_a_context_frees_its_constants():
    ctx = GrassContext(2, 5)
    products = _every_product(ctx)
    reports = [check_graham_positivity(c, ctx)
               for product in products for c in product.coeffs.values()]
    c = schubert_product((2, 1), (1,), ctx).coeffs[(2, 1)]
    assert c and any(c is kept for kept in ctx._constants.values())
    alive = weakref.ref(c)
    del ctx, products, reports, c
    gc.collect()
    assert alive() is None


def test_equal_contexts_share_no_memo_entry():
    first, second = GrassContext(3, 6), GrassContext(3, 6)
    assert first == second and hash(first) == hash(second)
    products = _every_product(first)
    assert first._constants and first._supports and first._points
    assert not second._constants and not second._supports and not second._points
    assert _every_product(second) == products
    assert first._constants.keys() == second._constants.keys()
    assert not ({id(c) for c in first._constants.values()}
                & {id(c) for c in second._constants.values()})


def _kept_tables(ctx):
    """The term dicts of ctx's constants and of its restriction values, the
    entries of `_points` keyed by a shape and a point."""
    return ([c.terms for c in ctx._constants.values()]
            + [v for k, v in ctx._points.items() if isinstance(k, tuple)])


def test_kept_constants_and_restrictions_have_compact_tables():
    ctx = GrassContext(3, 6)
    _every_product(ctx)
    tables = _kept_tables(ctx)
    assert len(tables) > len(ctx._constants)
    assert all(sys.getsizeof(d) == sys.getsizeof(dict(d)) for d in tables)


def test_kept_constants_and_restrictions_share_one_object_per_monomial():
    ctx = GrassContext(3, 6)
    _every_product(ctx)
    keys = [k for d in _kept_tables(ctx) for k in d]
    assert len(keys) > 5 * len(set(keys))
    assert len({id(k) for k in keys}) == len(set(keys))


def test_memo_holds_only_constants_in_support():
    ctx = GrassContext(3, 6)
    _every_product(ctx)
    box = ctx.box_partitions()
    # the recursion in the other order too, as in the commutativity test
    for lam, mu, nu in [((1,), (2, 1), (2, 2)), ((1, 1), (2,), (2, 1, 1))]:
        assert _in_support(lam, mu, nu) and lam < mu
        _structure_constant(lam, mu, nu, ctx)
    assert ctx._constants
    assert all(_in_support(lam, mu, nu) and nu in box
               for lam, mu, nu in ctx._constants)


def test_certificate_lives_as_long_as_a_report_holds_it():
    ctx = GrassContext(2, 5)
    c = schubert_product((2, 1), (1,), ctx).coeffs[(2, 1)]
    report = check_graham_positivity(c, ctx)
    assert check_graham_positivity(c, ctx).certificate is report.certificate
    before = report.to_obj()
    alive = weakref.ref(report.certificate)
    del report
    gc.collect()
    assert alive() is None
    again = check_graham_positivity(c, ctx)
    assert again.positive and again.to_obj() == before


def _assign_field():
    GrassContext(2, 5).n = 3


def _delete_field():
    del GrassContext(2, 5).m


@pytest.mark.parametrize("refused, error, message", [
    (_assign_field, AttributeError, "cannot assign to field 'n'"),
    (_delete_field, AttributeError, "cannot delete field 'm'"),
    (lambda: truncate(SchurExpansion(3, {}), GrassContext(2, 5)), ValueError,
     "expansion arity 3 does not match n=2"),
], ids=["assign", "delete", "truncate-arity"])
def test_grass_refusals(refused, error, message):
    with pytest.raises(error, match=message):
        refused()
