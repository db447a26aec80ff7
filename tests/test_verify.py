"""Every `verify` suite reports a disagreement: with one side made wrong at
the suite's smallest box, the report is not ok, each failure record has the
suite's keys, and the CLI exits with code 1."""

import json

import pytest

from doubleschur import cli, grass, verify
from doubleschur.grass import PositivityReport
from doubleschur.poly import Poly
from doubleschur.schur import SchurExpansion
from doubleschur.wedge import PathDisagreement


def _empty(lam, mu, ctx):
    return SchurExpansion(ctx.n, {})


def _disagree(*args):
    raise PathDisagreement("the two routes disagree")


def _negative(c, ctx):
    return PositivityReport(False, reason="negative coefficient", offender="-1 on u-monomial {}")


def _t_on_top(k, ctx):
    # the coefficient of the one top-degree shape carries t1
    return SchurExpansion(ctx.n, {(k,): Poly.t(1)} if k else {(): Poly.one()})


# (suite, n, m, module patched, name, replacement, keys of each failure record)
CASES = [
    ("pieri", 1, 1, verify, "pieri_multiply", lambda lam, n: SchurExpansion(n, {}),
     {"lambda", "pieri", "expansion"}),
    ("positivity", 1, 1, grass, "check_graham_positivity", _negative,
     {"lambda", "mu", "nu", "certificate"}),
    ("specialize", 1, 1, verify, "lr_coefficient", lambda lam, mu, nu: 2,
     {"lambda", "mu", "got", "expected"}),
    ("intertwine", 1, 1, verify, "_centralizer_action", _disagree, {"k", "lambda", "error"}),
    ("syt", 1, 1, verify, "syt_count", lambda lam: 2, {"k", "got", "expected"}),
    ("syt", 1, 2, verify, "sigma1_power_expansion", _t_on_top,
     {"k", "non-integer top coefficient"}),
    ("routes", 1, 1, verify, "schubert_product_by_expansion", _empty,
     {"lambda", "mu", "recursion", "expansion"}),
]


@pytest.mark.parametrize("suite, n, m, module, name, wrong, keys", CASES,
                         ids=[f"{case[0]}-{case[4]}" for case in CASES])
def test_a_wrong_side_fails_the_suite_and_the_cli(capsys, monkeypatch,
                                                   suite, n, m, module, name, wrong, keys):
    monkeypatch.setattr(module, name, wrong)
    report = verify.run_suite(suite, n, m)
    assert report["ok"] is False and report["failures"]
    assert all(set(record) == keys for record in report["failures"])
    assert cli.main(["verify", "--suite", suite, "--n", str(n), "--m", str(m)]) == 1
    assert json.loads(capsys.readouterr().out) == json.loads(json.dumps(report))


def test_a_top_coefficient_with_t_names_its_shape(monkeypatch):
    monkeypatch.setattr(verify, "sigma1_power_expansion", _t_on_top)
    report = verify.verify_syt(1, 2)
    assert report["failures"][0] == {
        "k": 1, "non-integer top coefficient": {"lambda": [1], "coeff": "t1"}}


def test_run_suite_refuses_an_unknown_name():
    with pytest.raises(ValueError, match="unknown suite 'nope'"):
        verify.run_suite("nope", 1, 2)
