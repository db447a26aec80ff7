"""The three benchmark workloads.

Each workload builds its inputs from a seeded random generator (the seed
only permutes the order of operations), then a repetition runs

    prelude()          timed, not an op (the sigma1 power steps)
    run_op(op)         timed, once per op, in the permuted order
    finale(results)    timed, not an op (the table serialization)

and afterwards, outside the timed region, `check` returns one pass/fail
flag per op.  Library functions are reached through the package namespace
(`ds.name`) so that the tracer's patched bindings are the ones called.

Sizes: the full sizes are the benchmark; `smoke` shrinks each workload to a
size that runs in well under a second, for the self-tests.
"""

from __future__ import annotations

import hashlib
import json

import doubleschur as ds


def _digest(data):
    return hashlib.sha256(data).hexdigest()


class Workload:
    """Steps a workload may leave out."""

    def prelude(self):
        pass

    def finale(self, results):
        pass


class TableG26(Workload):
    """Every product (lam, mu) of G(2,6) with its certificates, then the
    structure table serialized exactly as `doubleschur table` writes it."""

    name = "table-g26"

    def __init__(self, rng, smoke, tracer):
        self.ctx = ds.GrassContext(2, 4 if smoke else 6)
        box = self.ctx.box_partitions()
        self.ops = [(lam, mu) for lam in box for mu in box]
        rng.shuffle(self.ops)
        self.tracer = tracer
        self.payload = None

    def run_op(self, op):
        lam, mu = op
        prod = ds.schubert_product(lam, mu, self.ctx)
        return {nu: (c, ds.check_graham_positivity(c, self.ctx))
                for nu, c in prod.items()}

    def finale(self, results):
        with self.tracer.span("cli.serialize"):
            table = ds.StructureTable(self.ctx, dict(zip(self.ops, results)))
            text = json.dumps(table.to_obj(), separators=(",", ":"))
            self.payload = (text + "\n").encode("utf-8")
            self.tracer.counters["cli.serialize.bytes"] = len(self.payload)

    def check(self, results, golden):
        box = self.ctx.box_partitions()
        digest_ok = _digest(self.payload) == golden
        flags = []
        for (lam, mu), products in zip(self.ops, results):
            ok = digest_ok and all(report.positive for _, report in products.values())
            got = {}
            for nu, (c, _) in products.items():
                c0 = c.kill_t_above(0)
                if c0:
                    got[nu] = c0.evaluate((), ())
            size = sum(lam) + sum(mu)
            expected = {}
            for nu in box:
                if sum(nu) == size:
                    value = ds.lr_coefficient(lam, mu, nu)
                    if value:
                        expected[nu] = value
            flags.append(ok and got == expected)
        return flags


class PieriN4(Workload):
    """x1+...+x4 times the double Schur polynomial of each shape in the
    4 x 3 box, expanded in the double Schur basis and compared with the
    Pieri rule: the loop of `verify.verify_pieri(4, 7)`, one shape per op."""

    name = "pieri-n4"

    def __init__(self, rng, smoke, tracer):
        self.n = 2 if smoke else 4
        self.ctx = ds.GrassContext(self.n, 4 if smoke else 7)
        self.ops = list(self.ctx.box_partitions())
        rng.shuffle(self.ops)
        self.sx = ds.x_sum(self.n)

    def run_op(self, lam):
        got = ds.expand_in_double_schur(self.sx * ds.double_schur(lam, self.n), self.n)
        return got, ds.pieri_multiply(lam, self.n)

    def check(self, results, golden):
        ordered = sorted(zip(self.ops, results))
        blob = json.dumps([[list(lam), got.to_obj()] for lam, (got, _) in ordered],
                          separators=(",", ":")).encode("utf-8")
        digest_ok = _digest(blob) == golden
        return [digest_ok and got == expected for got, expected in results]


class Sigma1G48(Workload):
    """Powers sigma1^k, k = 1..11, in G(4,8), where sigma1 = x1+...+x4 +
    t1+...+t4 is the class of the one-box partition.  Each step is taken
    along the Pieri route and along the wedge route; the ops are the
    positivity certificates of every coefficient of every power."""

    name = "sigma1-g48"

    def __init__(self, rng, smoke, tracer):
        n, m = (2, 4) if smoke else (4, 8)
        self.ctx = ds.GrassContext(n, m)
        self.kmax = 4 if smoke else 11
        self.rng = rng
        self.e1 = sum((ds.Poly.t(i) for i in range(1, n + 1)), ds.Poly.zero(0))
        self.steps = []   # (k, Pieri-route expansion, wedge-route expansion)
        self.ops = []

    def _pieri_step(self, acc):
        n = self.ctx.n
        nxt = {}
        for lam, c in acc.coeffs.items():
            terms = list(ds.pieri_multiply(lam, n).coeffs.items())
            terms.append((lam, self.e1))
            for mu, d in terms:
                prev = nxt.get(mu)
                nxt[mu] = c * d if prev is None else prev + c * d
        return ds.truncate(ds.SchurExpansion(n, nxt), self.ctx)

    def _wedge_step(self, X, w):
        moved = ds.gl_action_on_wedge(X, w)
        coords = dict(moved.coords)
        for nu, c in w.coords.items():
            prev = coords.get(nu)
            coords[nu] = self.e1 * c if prev is None else prev + self.e1 * c
        return ds.WedgeVector(w.n, w.m, coords)

    def prelude(self):
        ctx = self.ctx
        X = ds.x_matrix(ctx.m)
        acc = ds.SchurExpansion.unit((), ctx.n)
        w = ds.to_wedge_coordinates(acc, ctx)
        for k in range(1, self.kmax + 1):
            acc = self._pieri_step(acc)
            w = self._wedge_step(X, w)
            self.steps.append((k, acc, ds.from_wedge_coordinates(w, ctx)))
        self.ops = [(k, lam, c) for k, acc, _ in self.steps for lam, c in acc.items()]
        self.rng.shuffle(self.ops)

    def run_op(self, op):
        return ds.check_graham_positivity(op[2], self.ctx)

    def check(self, results, golden):
        agree = {k: pieri == wedge for k, pieri, wedge in self.steps}
        flags = []
        for (k, lam, c), report in zip(self.ops, results):
            ok = agree[k] and report.positive
            if sum(lam) == k:
                ok = ok and c == ds.syt_count(lam)
            flags.append(ok)
        return flags


WORKLOADS = {w.name: w for w in (TableG26, PieriN4, Sigma1G48)}
