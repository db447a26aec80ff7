"""Property suites runnable from the CLI and reused by the test suite.

Each suite returns a machine-readable report dict with an `ok` flag and a
list of failures (first counterexample data included); suites never raise
on a mathematical failure, only on usage errors.
"""

from .grass import (
    GrassContext,
    SizeGuardExceeded,
    full_structure_table,
    rank_guard,
    schubert_product,
    schubert_product_by_expansion,
    sigma1_power_expansion,
)
from .oracles import LR_ENUMERATION_LIMIT, lr_coefficient, syt_count
from .schur import (
    SchurExpansion,
    double_schur,
    expand_in_double_schur,
    pieri_multiply,
    x_sum,
)
from .wedge import (PathDisagreement, WedgeVector, _centralizer_action,
                    multiplication_matrix, symmetric_multiplier)

__all__ = ["SUITES", "run_suite", "verify_pieri", "verify_positivity",
           "verify_specialize", "verify_intertwine", "verify_syt",
           "verify_routes"]


def _report(suite, n, m, cases, failures, **extra):
    rep = {"suite": suite, "n": n, "m": m, "cases": cases,
           "failures": failures, "ok": not failures}
    rep.update(extra)
    return rep


def verify_pieri(n, m):
    """Pieri rule against the independent expand-and-compare route, for
    every partition in the n x (m-n) box."""
    ctx = GrassContext(n, m)
    failures = []
    box = ctx.box_partitions()
    sx = x_sum(n)
    for lam in box:
        expected = pieri_multiply(lam, n)
        got = expand_in_double_schur(sx * double_schur(lam, n), n)
        if got != expected:
            failures.append({
                "lambda": list(lam),
                "pieri": expected.to_obj(),
                "expansion": got.to_obj(),
            })
    return _report("pieri", n, m, len(box), failures)


def verify_positivity(n, m):
    """Graham positivity of every structure constant of the context, with
    the certificates included in the report.

    The certificates share one memo (`poly._term_objs`), and a report met
    twice (the mirror entries of the table hold the same report object) is
    rendered once, so the returned tree shares objects: treat it as
    read-only."""
    ctx = GrassContext(n, m)
    table = full_structure_table(ctx)
    failures = []
    certificates = []
    memo = {}
    rendered = {}   # id(report) -> its JSON form; the table keeps each report alive
    for (lam, mu) in sorted(table.entries):
        for nu in sorted(table.entries[(lam, mu)]):
            coeff, report = table.entries[(lam, mu)][nu]
            obj = rendered.get(id(report))
            if obj is None:
                obj = rendered[id(report)] = report._obj(memo)
            record = {"lambda": list(lam), "mu": list(mu), "nu": list(nu),
                      "certificate": obj}
            certificates.append(record)
            if not report.positive:
                failures.append(record)
    return _report("positivity", n, m, len(certificates), failures,
                   certificates=certificates)


def verify_specialize(n, m):
    """Setting every t to zero turns the structure constants into classical
    Littlewood-Richardson coefficients.  Refused before any product when
    the box has more cells than `lr_coefficient` admits in one nu."""
    ctx = GrassContext(n, m)
    if n * ctx.cols > LR_ENUMERATION_LIMIT:
        raise SizeGuardExceeded(f"the {n} x {ctx.cols} box exceeds the LR "
                                f"enumeration guard of {LR_ENUMERATION_LIMIT}")
    box = ctx.box_partitions()
    failures = []
    for lam in box:
        for mu in box:
            prod = schubert_product(lam, mu, ctx)
            got = {}
            for nu, c in prod.items():
                c0 = c.kill_t_above(0)
                if c0:
                    got[nu] = c0.evaluate((), ())
            expected = {}
            for nu in box:
                if sum(nu) != sum(lam) + sum(mu):
                    continue
                c = lr_coefficient(lam, mu, nu)
                if c:
                    expected[nu] = c
            if got != expected:
                failures.append({
                    "lambda": list(lam), "mu": list(mu),
                    "got": {str(k): v for k, v in sorted(got.items())},
                    "expected": {str(k): v for k, v in sorted(expected.items())},
                })
    return _report("specialize", n, m, len(box) ** 2, failures)


def verify_intertwine(n, m):
    """Wedge-side action of each double-monomial multiplication operator
    against polynomial-side multiplication, on every basis class."""
    ctx = GrassContext(n, m)
    box = ctx.box_partitions()
    failures = []
    for k in range(m):
        f = WedgeVector.basis((k,), 1, m)
        matrix, multiplier = multiplication_matrix(f), symmetric_multiplier(f, n)
        for lam in box:
            try:
                _centralizer_action(matrix, multiplier, SchurExpansion.unit(lam, n), ctx)
            except PathDisagreement as exc:
                failures.append({"k": k, "lambda": list(lam), "error": str(exc)})
    return _report("intertwine", n, m, m * len(box), failures)


SYT_KMAX = 6


def verify_syt(n, m):
    """Top-degree coefficients of the k-th power of x1+...+xn are the
    standard tableau counts, for k up to SYT_KMAX."""
    ctx = GrassContext(n, m)
    failures = []
    for k in range(SYT_KMAX + 1):
        expansion = sigma1_power_expansion(k, ctx)
        got = {}
        bad_coeff = None
        for lam, c in expansion.items():
            if sum(lam) == k:
                if c.max_t_index() != 0:
                    bad_coeff = {"lambda": list(lam), "coeff": str(c)}
                    break
                got[lam] = c.evaluate((), ())
        expected = {lam: syt_count(lam) for lam in ctx.box_partitions()
                    if sum(lam) == k}
        if bad_coeff is not None:
            failures.append({"k": k, "non-integer top coefficient": bad_coeff})
        elif got != expected:
            failures.append({
                "k": k,
                "got": {str(k_): v for k_, v in sorted(got.items())},
                "expected": {str(k_): v for k_, v in sorted(expected.items())},
            })
    return _report("syt", n, m, SYT_KMAX + 1, failures, kmax=SYT_KMAX)


def verify_routes(n, m):
    """Structure constants along both routes, the coefficient-ring
    recursion against multiply-and-expand, for every pair of box
    partitions."""
    ctx = GrassContext(n, m)
    box = ctx.box_partitions()
    failures = []
    for lam in box:
        for mu in box:
            recursion = schubert_product(lam, mu, ctx)
            expansion = schubert_product_by_expansion(lam, mu, ctx)
            if recursion != expansion:
                failures.append({
                    "lambda": list(lam), "mu": list(mu),
                    "recursion": recursion.to_obj(),
                    "expansion": expansion.to_obj(),
                })
    return _report("routes", n, m, len(box) ** 2, failures)


SUITES = {
    "pieri": verify_pieri,
    "positivity": verify_positivity,
    "specialize": verify_specialize,
    "intertwine": verify_intertwine,
    "syt": verify_syt,
    "routes": verify_routes,
}


def run_suite(name, n, m):
    if name not in SUITES:
        raise ValueError(f"unknown suite {name!r}; choose from {sorted(SUITES)}")
    rank_guard(GrassContext(n, m))
    return SUITES[name](n, m)
