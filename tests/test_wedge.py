import json
import random

import pytest
from hypothesis import given, settings, strategies as st

from doubleschur.grass import GrassContext, truncate
from doubleschur.poly import DegreeOverflow, Poly
from doubleschur.schur import SchurExpansion, pieri_multiply
from doubleschur.wedge import (
    GLMatrix,
    StandardVector,
    WedgeVector,
    centralizer_action,
    coweight_to_lambda,
    from_wedge_coordinates,
    gl_action_on_wedge,
    lambda_to_coweight,
    mult_by_x,
    multiplication_matrix,
    symmetric_multiplier,
    to_wedge_coordinates,
    x_matrix,
)


def t(j):
    return Poly.t(j)


def random_matrix(m, rng):
    def entry():
        c = rng.randint(-2, 2)
        if rng.random() < 0.4:
            return Poly.const(c)
        return Poly.const(c) * Poly.t(rng.randint(1, m))
    return GLMatrix(m, [[entry() for _ in range(m)] for _ in range(m)])


# -- V and multiplication by x ------------------------------------------------

def test_mult_by_x_on_lowest_basis_vector():
    m = 4
    got = mult_by_x(StandardVector.basis(0, m))
    assert got.coords[0] == -t(1)
    assert got.coords[1] == Poly.one()
    assert all(c.is_zero() for c in got.coords[2:])


def test_mult_by_x_on_top_basis_vector():
    m = 4
    got = mult_by_x(StandardVector.basis(m - 1, m))
    assert got.coords[m - 1] == -t(m)
    assert all(c.is_zero() for c in got.coords[:-1])


def test_x_matrix_m2():
    X = x_matrix(2)
    assert X == GLMatrix(2, [[-t(1), 0], [1, -t(2)]])


def test_x_matrix_matches_mult_by_x():
    m = 4
    X = x_matrix(m)
    rng = random.Random(3)
    for _ in range(5):
        v = StandardVector(m, [Poly.const(rng.randint(-3, 3)) for _ in range(m)])
        assert X.apply(v) == mult_by_x(v)


def test_multiplication_matrix_of_one_is_identity():
    f = StandardVector.basis(0, 3)
    assert multiplication_matrix(f) == GLMatrix.identity(3)


def test_multiplication_matrix_of_first_double_monomial():
    # (x|t)^1 acts as X + t1
    m = 3
    got = multiplication_matrix(StandardVector.basis(1, m))
    want = x_matrix(m) + GLMatrix.identity(m).scale(t(1))
    assert got == want


def test_multiplication_matrices_commute_with_x():
    m = 4
    X = x_matrix(m)
    for k in range(m):
        M = multiplication_matrix(StandardVector.basis(k, m))
        assert M.commutator(X) == GLMatrix.zero(m)


def test_coordinate_t_range_enforced():
    with pytest.raises(ValueError):
        StandardVector(2, [Poly.t(3), Poly.zero(0)])


# -- wedge action ---------------------------------------------------------------

def test_identity_acts_as_scalar_n():
    n, m = 2, 4
    w = WedgeVector(n, m, {(3, 1): t(2), (1, 0): 1})
    got = gl_action_on_wedge(GLMatrix.identity(m), w)
    want = WedgeVector(n, m, {(3, 1): 2 * t(2), (1, 0): 2})
    assert got == want


def test_diagonal_acts_by_weight():
    n, m = 2, 4
    diag = GLMatrix.diagonal([t(1), t(2), t(3), t(4)])
    for nu in ((1, 0), (2, 1), (3, 0)):
        got = gl_action_on_wedge(diag, WedgeVector.basis(nu, n, m))
        want = WedgeVector(n, m, {nu: t(nu[0] + 1) + t(nu[1] + 1)})
        assert got == want, nu


def test_unit_matrix_collapses_repeated_factor():
    # E_12 sends (x|t)^1 to (x|t)^0; on (x|t)^1 ^ (x|t)^0 both slots die
    n, m = 2, 3
    got = gl_action_on_wedge(GLMatrix.unit(1, 2, m), WedgeVector.basis((1, 0), n, m))
    assert got.is_zero()


def test_action_sorts_with_sign():
    # E_31 sends slot value 0 to 2: (2,0) wedge in slot 2 becomes (2,2)->0,
    # while (1,0) becomes (1,2) which sorts to -(2,1)
    n, m = 2, 3
    got = gl_action_on_wedge(GLMatrix.unit(3, 1, m), WedgeVector.basis((1, 0), n, m))
    assert got == WedgeVector(n, m, {(2, 1): -1})


def _sort_signed(seq):
    """Sort a sequence into strictly decreasing order, tracking the sign of
    the permutation; returns (None, 0) when two entries collide."""
    lst = list(seq)
    sign = 1
    for i in range(1, len(lst)):
        j = i
        while j and lst[j - 1] < lst[j]:
            lst[j - 1], lst[j] = lst[j], lst[j - 1]
            sign = -sign
            j -= 1
    for i in range(len(lst) - 1):
        if lst[i] == lst[i + 1]:
            return None, 0
    return tuple(lst), sign


def _reference_gl_action(X, w):
    """Oracle for gl_action_on_wedge: act in each slot, insertion-sort the
    sequence with its sign, and add each contribution as a polynomial."""
    out = {}
    for nu, c in w.coords.items():
        for slot in range(w.n):
            src = nu[slot]
            for r in range(X.m):
                a = X.entries[r][src]
                if not a:
                    continue
                key, sign = _sort_signed(nu[:slot] + (r,) + nu[slot + 1:])
                if key is None:
                    continue
                contrib = a * c if sign == 1 else -(a * c)
                prev = out.get(key)
                out[key] = contrib if prev is None else prev + contrib
    return WedgeVector(w.n, w.m, out)


@st.composite
def t_coefficients(draw, m):
    """A t-only coefficient in t1..tm (often 0 or 1), stored at a t-width
    up to two slots wider than it needs."""
    kind = draw(st.sampled_from(["zero", "one", "const", "poly"]))
    if kind == "zero":
        p = Poly.zero(0)
    elif kind == "one":
        p = Poly.one()
    elif kind == "const":
        p = Poly.const(draw(st.integers(-3, 3)))
    else:
        p = Poly.zero(0)
        for _ in range(draw(st.integers(1, 3))):
            mono = Poly.const(draw(st.integers(-3, 3)))
            for j in draw(st.lists(st.integers(1, m), max_size=3)):
                mono = mono * Poly.t(j)
            p = p + mono
    tw = p.tw + draw(st.integers(0, 2))
    return Poly(0, tw, p._widened(tw))


@st.composite
def wedge_cases(draw):
    m = draw(st.integers(1, 5))
    n = draw(st.integers(1, min(3, m)))
    X = GLMatrix(m, [[draw(t_coefficients(m)) for _ in range(m)] for _ in range(m)])
    keys = draw(st.lists(st.lists(st.integers(0, m - 1), min_size=n, max_size=n,
                                  unique=True), max_size=4))
    w = WedgeVector(n, m, {tuple(sorted(nu, reverse=True)): draw(t_coefficients(m))
                           for nu in keys})
    return X, w


@settings(max_examples=300, deadline=None)
@given(wedge_cases())
def test_gl_action_matches_sorting_oracle(case):
    X, w = case
    assert gl_action_on_wedge(X, w) == _reference_gl_action(X, w)


def test_gl_action_degree_guard_matches_oracle():
    # degree 2^14 twice reaches the packed bound 2^15, but only a product
    # that survives the re-sort is formed: E_12 sends slot 0 of (1, 0) onto
    # the 0 already in slot 1
    n, m = 2, 3
    giant = Poly.t(1) ** (1 << 14)
    w = WedgeVector(n, m, {(1, 0): giant})
    collides = GLMatrix(m, [[0, giant, 0], [0, 1, 0], [0, 0, 0]])
    assert gl_action_on_wedge(collides, w) == _reference_gl_action(collides, w)
    for X in (GLMatrix.diagonal([giant] * m),
              GLMatrix(m, [[0, 0, 0], [0, 1, 0], [giant, 0, 0]])):
        with pytest.raises(DegreeOverflow):
            _reference_gl_action(X, w)
        with pytest.raises(DegreeOverflow):
            gl_action_on_wedge(X, w)


def test_lie_bracket_compatibility():
    n, m = 2, 4
    rng = random.Random(11)
    w = WedgeVector(n, m, {(1, 0): 1, (3, 2): t(1)})
    for _ in range(20):
        X = random_matrix(m, rng)
        Y = random_matrix(m, rng)
        lhs = gl_action_on_wedge(X.commutator(Y), w)
        rhs_x = gl_action_on_wedge(X, gl_action_on_wedge(Y, w))
        rhs_y = gl_action_on_wedge(Y, gl_action_on_wedge(X, w))
        diff = {}
        for nu in set(rhs_x.coords) | set(rhs_y.coords):
            d = rhs_x.get(nu) - rhs_y.get(nu)
            if d:
                diff[nu] = d
        assert lhs == WedgeVector(n, m, diff)


def test_matrix_products_match_entrywise_arithmetic():
    # random entries are zero, constants (t-width 0) or c * t_j (width j)
    rng = random.Random(5)
    zero = Poly.zero(0)
    for m in (1, 2, 3, 4):
        for _ in range(10):
            A, B = random_matrix(m, rng), random_matrix(m, rng)
            want = [[sum((A.entries[r][k] * B.entries[k][c] for k in range(m)), zero)
                     for c in range(m)] for r in range(m)]
            assert A @ B == GLMatrix(m, want)
            v = StandardVector(m, random_matrix(m, rng).entries[0])
            want = [sum((e * x for e, x in zip(row, v.coords)), zero) for row in A.entries]
            assert A.apply(v) == StandardVector(m, want)


# -- coweights -------------------------------------------------------------------

def test_lambda_to_coweight_examples():
    ctx = GrassContext(2, 4)
    assert lambda_to_coweight((), ctx) == (1, 1, 0, 0)
    assert lambda_to_coweight((1,), ctx) == (1, 0, 1, 0)
    assert lambda_to_coweight((2, 2), ctx) == (0, 0, 1, 1)


def test_out_of_box_shapes_are_rejected_with_the_box_size():
    ctx = GrassContext(2, 4)
    message = r"^partition \(3,\) does not fit the 2 x 2 box$"
    with pytest.raises(ValueError, match=message):
        lambda_to_coweight((3,), ctx)
    with pytest.raises(ValueError, match=message):
        to_wedge_coordinates(SchurExpansion.unit((3,), 2), ctx)


def test_coweight_bijection():
    ctx = GrassContext(2, 4)
    seen = set()
    for lam in ctx.box_partitions():
        bits = lambda_to_coweight(lam, ctx)
        assert sum(bits) == ctx.n
        assert coweight_to_lambda(bits, ctx) == lam
        seen.add(bits)
    assert len(seen) == 6  # all weights distinct: multiplicity one


def test_weights_match_diagonal_action():
    ctx = GrassContext(2, 4)
    diag = GLMatrix.diagonal([t(i) for i in range(1, 5)])
    for lam in ctx.box_partitions():
        w = to_wedge_coordinates(SchurExpansion.unit(lam, ctx.n), ctx)
        acted = gl_action_on_wedge(diag, w)
        bits = lambda_to_coweight(lam, ctx)
        weight = Poly.zero(0)
        for i, b in enumerate(bits, 1):
            if b:
                weight = weight + t(i)
        ((nu, c),) = list(acted.coords.items())
        assert c == weight


# -- coordinate isomorphism --------------------------------------------------------

def test_wedge_coordinates_of_unit():
    ctx = GrassContext(2, 4)
    w = to_wedge_coordinates(SchurExpansion.unit((), 2), ctx)
    assert w == WedgeVector(2, 4, {(1, 0): 1})


def test_wedge_coordinates_round_trip():
    ctx = GrassContext(2, 4)
    e = SchurExpansion(2, {(2, 1): t(1) + t(4), (): 3})
    assert from_wedge_coordinates(to_wedge_coordinates(e, ctx), ctx) == e


def test_wedge_basis_maps_to_staircase_shift():
    ctx = GrassContext(2, 4)
    w = to_wedge_coordinates(SchurExpansion.unit((2, 1), 2), ctx)
    assert w == WedgeVector(2, 4, {(3, 1): 1})


def test_wedge_json_round_trip():
    w = WedgeVector(2, 4, {(3, 1): t(2), (1, 0): 5})
    obj = json.loads(json.dumps(w.to_obj()))
    assert WedgeVector.from_obj(obj) == w


# -- centralizer action -------------------------------------------------------------

def test_constant_acts_as_n():
    ctx = GrassContext(2, 4)
    f = StandardVector.basis(0, 4)
    e = SchurExpansion(2, {(1,): t(2), (2, 2): 1})
    got = centralizer_action(f, e, ctx)
    want = SchurExpansion(2, {(1,): 2 * t(2), (2, 2): 2})
    assert got == want


def test_x_acts_like_pieri():
    # multiplication by x on V corresponds to multiplication by x1+...+xn
    ctx = GrassContext(2, 4)
    f = StandardVector(4, [-t(1), Poly.one(), Poly.zero(0), Poly.zero(0)])
    got = centralizer_action(f, SchurExpansion.unit((), 2), ctx)
    assert got == truncate(pieri_multiply((), 2), ctx)


def test_first_double_monomial_on_unit():
    ctx = GrassContext(2, 4)
    got = centralizer_action(StandardVector.basis(1, 4),
                             SchurExpansion.unit((), 2), ctx)
    want = SchurExpansion(2, {(): t(1) - t(2), (1,): 1})
    assert got == want


def test_symmetric_multiplier_of_basis():
    f = StandardVector.basis(1, 4)
    got = symmetric_multiplier(f, 2)
    want = Poly.x(1, 2) + Poly.x(2, 2) + 2 * Poly.t(1, 2)
    assert got == want


def test_intertwining_on_all_basis_elements():
    # both computation routes agree for every double-monomial operator and
    # every basis class; centralizer_action raises on any disagreement
    ctx = GrassContext(2, 4)
    for k in range(4):
        f = StandardVector.basis(k, 4)
        for lam in ctx.box_partitions():
            centralizer_action(f, SchurExpansion.unit(lam, 2), ctx)
