"""Acceptance suite.

Every criterion runs at exact tolerance and prints one pass/fail line
(visible with `pytest -s` or on failure).  The Pieri cross-check over the
full 4x4 box at n = 4 is the long pole: about half a minute of exact
arithmetic on one core, most of it multiplying, adding and symmetry-checking
polynomials of tens of thousands of terms.
"""

import random

from doubleschur.grass import GrassContext, truncate
from doubleschur.oracles import syt_count
from doubleschur.poly import Poly
from doubleschur.schur import (
    SchurExpansion,
    alternant,
    double_schur,
    expand_in_double_schur,
    staircase,
)
from doubleschur.verify import (
    verify_intertwine,
    verify_pieri,
    verify_positivity,
    verify_specialize,
    verify_syt,
)
from doubleschur.wedge import (
    GLMatrix,
    WedgeVector,
    from_wedge_coordinates,
    gl_action_on_wedge,
    lambda_to_coweight,
    to_wedge_coordinates,
    x_matrix,
)
from ssyt import classical_schur_ssyt


def _report(num, desc, failures):
    status = "PASS" if not failures else "FAIL"
    line = f"criterion {num:2d} [{status}] {desc}"
    if failures:
        line += f" -- first failure: {failures[0]}"
    print(line)
    assert not failures, failures[:3]


def test_c01_staircase_alternant_is_vandermonde():
    failures = []
    for n in range(2, 6):
        prod = Poly.one(n)
        for i in range(1, n + 1):
            for j in range(i + 1, n + 1):
                prod = prod * (Poly.x(i, n) - Poly.x(j, n))
        if alternant(staircase(n), n) != prod:
            failures.append({"n": n})
    _report(1, "staircase alternant equals the Vandermonde product, n=2..5",
            failures)


def test_c02_classical_specialization_3x3():
    n = 3
    failures = []
    for lam in GrassContext(n, n + 3).box_partitions():
        got = double_schur(lam, n).kill_t_above(0)
        want = classical_schur_ssyt(lam, n)
        if got != want:
            failures.append({"lambda": lam})
    _report(2, "double Schur at t=0 equals the SSYT oracle, 3x3 box, n=3",
            failures)


def test_c03_pieri_rule_4x4():
    failures = []
    for n in (1, 2, 3, 4):
        report = verify_pieri(n, n + 4)
        failures.extend({"n": n, **f} for f in report["failures"])
    _report(3, "Pieri rule equals the independent expansion path, "
               "4x4 box, n<=4", failures)


def test_c04_lr_specialization():
    failures = []
    for n, m in ((2, 4), (2, 5)):
        report = verify_specialize(n, m)
        if not report["ok"]:
            failures.extend({"m": m, **f} for f in report["failures"])
    _report(4, "structure constants at t=0 match the LR oracle, "
               "G(2,4) and G(2,5)", failures)


def test_c05_graham_positivity():
    failures = []
    contexts = [(1, m) for m in range(1, 6)] + [(2, m) for m in range(2, 7)]
    for n, m in contexts:
        report = verify_positivity(n, m)
        if not report["ok"]:
            failures.extend({"n": n, "m": m, **f} for f in report["failures"])
    _report(5, "every structure constant certified Graham-positive, "
               "G(1,m<=5) and G(2,m<=6)", failures)


def test_c06_projective_line_square():
    ctx = GrassContext(1, 2)
    from doubleschur.grass import schubert_product
    got = schubert_product((1,), (1,), ctx)
    want = SchurExpansion(1, {(1,): Poly.t(1) - Poly.t(2)})
    failures = [] if got == want else [{"got": repr(got)}]
    _report(6, "G(1,2): the square of the point class is (t1-t2) times it",
            failures)


def test_c07_syt_identity():
    failures = []
    for n, m in ((2, 5), (3, 6)):
        report = verify_syt(n, m)
        if not report["ok"]:
            failures.extend({"n": n, "m": m, **f} for f in report["failures"])
    _report(7, "top coefficients of the k-th power expansion are SYT "
               "counts, k<=6, (n,m) in {(2,5),(3,6)}", failures)


def test_c08_intertwining():
    report = verify_intertwine(2, 4)
    _report(8, "wedge action and polynomial multiplication agree for every "
               "basis operator and class, G(2,4)", report["failures"])


def test_c09_x_action_is_special_class_multiplication():
    # the wedge action of multiplication by x equals polynomial
    # multiplication by (first Schur class) - (t1 + ... + tn)
    n, m = 2, 4
    ctx = GrassContext(n, m)
    X = x_matrix(m)
    tsum = Poly.zero(0)
    for i in range(1, n + 1):
        tsum = tsum + Poly.t(i)
    multiplier = double_schur((1,), n) - tsum.as_arity(n)
    failures = []
    for lam in ctx.box_partitions():
        unit = SchurExpansion.unit(lam, n)
        via_wedge = from_wedge_coordinates(
            gl_action_on_wedge(X, to_wedge_coordinates(unit, ctx)), ctx)
        via_poly = truncate(
            expand_in_double_schur(double_schur(lam, n) * multiplier, n), ctx)
        if via_wedge != via_poly:
            failures.append({"lambda": lam})
    _report(9, "multiplication by x pulled through the coordinate map is "
               "multiplication by the special class minus t1+...+tn, G(2,4)",
            failures)


def test_c10_lie_action_and_weights():
    n, m = 2, 4
    ctx = GrassContext(n, m)
    rng = random.Random(2026)

    def rand_entry():
        c = rng.randint(-2, 2)
        if rng.random() < 0.5:
            return Poly.const(c)
        return Poly.const(c) * Poly.t(rng.randint(1, m))

    w = WedgeVector(n, m, {(1, 0): 1, (3, 2): Poly.t(1), (2, 0): 2})
    failures = []
    for trial in range(20):
        X = GLMatrix(m, [[rand_entry() for _ in range(m)] for _ in range(m)])
        Y = GLMatrix(m, [[rand_entry() for _ in range(m)] for _ in range(m)])
        lhs = gl_action_on_wedge(X @ Y - Y @ X, w)
        xy = gl_action_on_wedge(X, gl_action_on_wedge(Y, w))
        yx = gl_action_on_wedge(Y, gl_action_on_wedge(X, w))
        diff = {}
        for nu in set(xy.coords) | set(yx.coords):
            d = xy.get(nu) - yx.get(nu)
            if d:
                diff[nu] = d
        if lhs != WedgeVector(n, m, diff):
            failures.append({"trial": trial})
    weights = {lambda_to_coweight(lam, ctx) for lam in ctx.box_partitions()}
    if len(weights) != 6:
        failures.append({"weights": sorted(weights)})
    _report(10, "Lie bracket compatibility on 20 random pairs and 6 "
                "distinct weights, G(2,4)", failures)
