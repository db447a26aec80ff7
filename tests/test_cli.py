import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from doubleschur import cli, verify
from doubleschur.cli import main, parse_partition, UsageError


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_parse_partition():
    assert parse_partition("") == ()
    assert parse_partition("3,1") == (3, 1)
    assert parse_partition("2,2,0") == (2, 2)
    with pytest.raises(UsageError):
        parse_partition("1,,2")
    with pytest.raises(UsageError):
        parse_partition("1,2")
    with pytest.raises(UsageError):
        parse_partition("-1")
    with pytest.raises(UsageError):
        # a digit to str.isdigit, but not a decimal that int() reads
        parse_partition("2,\u00b2")


def test_schur_text(capsys):
    code, out, _ = run(capsys, "schur", "--n", "2", "--lambda", "1",
                       "--format", "text")
    assert code == 0
    assert out.strip() == "x1 + x2 + t1 + t2"


def test_schur_empty_partition(capsys):
    code, out, _ = run(capsys, "schur", "--n", "2", "--lambda", "",
                       "--format", "text")
    assert code == 0
    assert out.strip() == "1"


def test_schur_json(capsys):
    code, out, _ = run(capsys, "schur", "--n", "2", "--lambda", "1")
    assert code == 0
    payload = json.loads(out)
    assert payload["n"] == 2 and payload["lambda"] == [1]
    assert len(payload["schur"]) == 4


def test_schur_malformed_partition_exits_2(capsys):
    code, _, err = run(capsys, "schur", "--n", "2", "--lambda", "1,,2")
    assert code == 2
    assert "malformed" in err


def test_schur_superscript_digit_exits_2(capsys):
    code, out, err = run(capsys, "schur", "--n", "2", "--lambda", "\u00b2")
    assert code == 2
    assert out == ""
    assert "malformed" in err


def test_schur_too_many_parts_exits_2(capsys):
    code, _, err = run(capsys, "schur", "--n", "1", "--lambda", "1,1")
    assert code == 2
    assert err == "error: partition (1, 1) has more than 1 parts\n"


def test_schur_arity_below_one_exits_2(capsys):
    code, out, err = run(capsys, "schur", "--n", "0", "--lambda", "1")
    assert (code, out, err) == (2, "", "error: arity must be at least 1\n")


def test_product_projective_line(capsys):
    code, out, _ = run(capsys, "product", "--n", "1", "--m", "2",
                       "--lambda", "1", "--mu", "1")
    assert code == 0
    payload = json.loads(out)
    (prod,) = payload["products"]
    assert prod["nu"] == [1]
    assert prod["coeff"] == [
        {"x": [], "t": {"1": 1}, "c": "1"},
        {"x": [], "t": {"2": 1}, "c": "-1"},
    ]
    assert prod["positive"] is True
    assert prod["certificate"] == [{"u": {"1": 1}, "c": "1"}]


def test_product_unit(capsys):
    code, out, _ = run(capsys, "product", "--n", "2", "--m", "4",
                       "--lambda", "", "--mu", "1")
    assert code == 0
    payload = json.loads(out)
    (prod,) = payload["products"]
    assert prod["nu"] == [1]
    assert prod["coeff"] == [{"x": [], "t": {}, "c": "1"}]


def test_product_out_of_box_exits_2(capsys):
    code, _, err = run(capsys, "product", "--n", "2", "--m", "4",
                       "--lambda", "3,0", "--mu", "1")
    assert code == 2
    assert "box" in err


def test_product_text_format(capsys):
    code, out, _ = run(capsys, "product", "--n", "1", "--m", "2",
                       "--lambda", "1", "--mu", "1", "--format", "text")
    assert code == 0
    assert "t1 - t2" in out and "u1" in out


def test_output_is_byte_deterministic(capsys):
    outs = []
    for _ in range(2):
        code, out, _ = run(capsys, "product", "--n", "2", "--m", "5",
                           "--lambda", "2,1", "--mu", "2,1")
        assert code == 0
        outs.append(out)
    assert outs[0] == outs[1]


def test_table_writes_file(tmp_path, capsys):
    out_file = tmp_path / "table.json"
    code, out, _ = run(capsys, "table", "--n", "1", "--m", "2",
                       "--out", str(out_file))
    assert code == 0
    summary = json.loads(out)
    assert summary["entries"] == 4
    assert summary["all_positive"] is True
    payload = json.loads(out_file.read_text())
    assert payload["n"] == 1 and payload["m"] == 2
    assert len(payload["entries"]) == 4


def test_table_unwritable_out_exits_2(tmp_path, capsys):
    out_file = tmp_path / "missing" / "t.json"
    code, out, err = run(capsys, "table", "--n", "1", "--m", "2",
                         "--out", str(out_file))
    assert code == 2
    assert out == ""
    assert err.startswith("error: cannot write") and "Traceback" not in err
    assert not out_file.parent.exists()


def test_table_deterministic_bytes(tmp_path, capsys):
    blobs = []
    for name in ("a.json", "b.json"):
        out_file = tmp_path / name
        code, _, _ = run(capsys, "table", "--n", "2", "--m", "4",
                         "--out", str(out_file))
        assert code == 0
        blobs.append(out_file.read_bytes())
    assert blobs[0] == blobs[1]


def test_table_g26_bytes_are_pinned(tmp_path, capsys):
    out_file = tmp_path / "g26.json"
    code, _, _ = run(capsys, "table", "--n", "2", "--m", "6",
                     "--out", str(out_file))
    assert code == 0
    assert hashlib.sha256(out_file.read_bytes()).hexdigest() == \
        "00ca5b6eba2a765ebaa3425e1fa9fbd8103fb4e68ab2456b95f7daa750326c98"


def test_table_g36_bytes_are_pinned(tmp_path, capsys):
    out_file = tmp_path / "g36.json"
    code, _, _ = run(capsys, "table", "--n", "3", "--m", "6",
                     "--out", str(out_file))
    assert code == 0
    assert hashlib.sha256(out_file.read_bytes()).hexdigest() == \
        "e5d2db02ac80b61d3f3ecd6038b234149d91edc10fa3b3fa3a547b50b1a64f62"


PINNED_OUTPUTS = [
    (("product", "--n", "2", "--m", "5", "--lambda", "2,1", "--mu", "2,1",
      "--format", "text"),
     "e0c8b7e37a789aaad21c424efabc8ca68f56255e4630f0d9cc19d88d760a3c8e"),
    (("product", "--n", "3", "--m", "6", "--lambda", "2,1", "--mu", "2,1,1",
      "--format", "text"),
     "5ac7d8aee77a3433f7a9ca65a8eb0b785f4dc53c24af5d809272e64279eef92e"),
    (("product", "--n", "2", "--m", "5", "--lambda", "2,1", "--mu", "2,1"),
     "b84d24ef8edf17feaf90d5313fc2d232ad5ca6698c9de13ffa898a7c6b870455"),
    (("schur", "--n", "3", "--lambda", "2,1", "--format", "text"),
     "f339db601d1373ce04e03dd1a673dd728e66333647c59b0ce9de312276eac164"),
    (("verify", "--suite", "positivity", "--n", "2", "--m", "5"),
     "eaf4f35e82a465cd5f947cf079d08d26ef5465356529a90f6db92f9eee1cbcc4"),
    (("schur", "--n", "4", "--lambda", "3,2,1"),
     "df11013c0dc6eb63452081ae082239dab7ac0f922835d551ced9a34c6ddbaeb7"),
    (("schur", "--n", "4", "--lambda", "2,2,1,1", "--format", "text"),
     "efa173c8b056c08b13999eb874c1327330862791dd6b8dd8fa3f3d89b5364eb4"),
    (("verify", "--suite", "pieri", "--n", "3", "--m", "6"),
     "f89946d7941727b0c49b72789f90d725dc2448250a39d6d0304b53c5294506c3"),
    (("verify", "--suite", "pieri", "--n", "4", "--m", "7"),
     "149cc546805285488fd25fc95b89e9ccfce9de16ce672242821e3d28046ee60d"),
    (("product", "--n", "3", "--m", "6", "--lambda", "2,1,1", "--mu", "2,1"),
     "4d9b989b69beac614ff053c537b4c9e630a560a7feeeb2ddc95c03cdd1c6591d"),
    (("product", "--n", "3", "--m", "6", "--lambda", "2,1", "--mu", "2,1,1"),
     "a8b149cafc3b7677ab04a93ea1a1ad45c4239683a833f9f087edcf2a8abb3fc6"),
    (("verify", "--suite", "positivity", "--n", "3", "--m", "6"),
     "074dd6b3490f24c3ab9387c029e5a0cc5ac35244e8392ca6c01dec070a57c0d6"),
    (("verify", "--suite", "pieri", "--n", "5", "--m", "8"),
     "639e9bd9a6064d65bf86a7187545286bd0c06de4d840d91738040db8083fed32"),
    (("schur", "--n", "5", "--lambda", "3,2,1"),
     "caf6ac52803396c0bba0694635343b02d97c66c3c31f1d64b62d3d7b5e7fbff8"),
    (("product", "--n", "3", "--m", "8", "--lambda", "4,3,2", "--mu", "3,2,1"),
     "a54d46d556c999a39038b88bbdb699c26ef70ea4d127507acee07c2c02973524"),
]


@pytest.mark.parametrize("argv,digest", PINNED_OUTPUTS,
                         ids=["product-g25-text", "product-g36-text",
                              "product-g25-json", "schur-n3-text",
                              "verify-positivity-g25", "schur-n4-json",
                              "schur-n4-text", "verify-pieri-g36",
                              "verify-pieri-g47", "product-g36-json",
                              "product-g36-json-swapped",
                              "verify-positivity-g36", "verify-pieri-g58",
                              "schur-n5-json", "product-g38-json"])
def test_output_bytes_are_pinned(capsys, argv, digest):
    code, out, _ = run(capsys, *argv)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_table_guard_exits_3(tmp_path, capsys):
    code, _, err = run(capsys, "table", "--n", "3", "--m", "13",
                       "--out", str(tmp_path / "t.json"))
    assert code == 3
    assert "guard" in err


def test_degree_overflow_exits_3_without_a_traceback():
    # a part of 2**15 reaches the packed degree bound; the build refuses it
    # before doing any work
    src = Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    done = subprocess.run(
        [sys.executable, "-m", "doubleschur", "schur", "--n", "1", "--lambda", "32768"],
        capture_output=True, text=True, env=env, timeout=60)
    assert done.returncode == 3
    assert "refused" in done.stderr
    assert "Traceback" not in done.stderr
    assert done.stdout == ""


def test_recursion_depth_exits_3_without_a_traceback():
    # The Pieri recursion for c_{(12),(12)}^{(24)} on G(1,25) chains twelve
    # constants, one frame each, and runs about 21 Python frames below
    # cmd_product; the limit is set there, 12 frames deeper than the stack
    # at that point, so that it is hit inside the product on every Python
    # version, whatever each counts as a frame.  It is hit early, with a
    # peak address space of 28 MB; run to the end, the product alone would
    # take about 6 s and 800 MB (its largest constant has 126,720 terms),
    # and certifying it more.  The child caps its address space at 128 MiB
    # first, so that a Python that counts fewer frames fails the message
    # assertion in about a second, out of memory: with the cap the limit
    # is still hit at +14 frames (101 MB), and from +15 the run refuses
    # out of memory after 0.5 s.
    src = Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    script = (
        "import resource, sys, traceback\n"
        "resource.setrlimit(resource.RLIMIT_AS, (128 << 20, 128 << 20))\n"
        "from doubleschur import cli\n"
        "product = cli.cmd_product\n"
        "def shallow(args):\n"
        "    sys.setrecursionlimit(len(traceback.extract_stack()) + 12)\n"
        "    return product(args)\n"
        "cli.cmd_product = shallow\n"
        "sys.exit(cli.main(['product', '--n', '1', '--m', '25',"
        " '--lambda', '12', '--mu', '12']))\n")
    done = subprocess.run([sys.executable, "-c", script],
                          capture_output=True, text=True, env=env, timeout=60)
    assert done.returncode == 3
    assert done.stderr.startswith("refused: maximum recursion depth exceeded")
    assert "Traceback" not in done.stderr
    assert done.stdout == ""


def test_out_of_memory_exits_3_without_a_traceback(capsys, monkeypatch):
    def exhaust(args):
        raise MemoryError

    monkeypatch.setattr(cli, "cmd_schur", exhaust)
    code, out, err = run(capsys, "schur", "--n", "2", "--lambda", "1")
    assert code == 3
    assert err.startswith("refused: out of memory")
    assert out == ""


@pytest.mark.skipif(not sys.platform.startswith("linux"),
                    reason="reads VmSize from /proc/self/status")
def test_address_space_cap_exits_3_without_a_traceback(tmp_path):
    # The subprocess caps its own address space 4 MiB above its size once
    # the package is loaded: far less than any G(3,7) table can be computed
    # and written in, so it runs out of memory while the table is computed
    # or serialized.
    src = Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    script = (
        "import resource, sys\n"
        "from doubleschur import cli\n"
        "table = cli.cmd_table\n"
        "def capped(args):\n"
        "    with open('/proc/self/status') as fh:\n"
        "        kib = next(int(line.split()[1]) for line in fh\n"
        "                   if line.startswith('VmSize:'))\n"
        "    cap = (kib + 4 * 1024) * 1024\n"
        "    resource.setrlimit(resource.RLIMIT_AS, (cap, cap))\n"
        "    return table(args)\n"
        "cli.cmd_table = capped\n"
        "sys.exit(cli.main(['table', '--n', '3', '--m', '7', '--out', sys.argv[1]]))\n")
    done = subprocess.run([sys.executable, "-c", script, str(tmp_path / "g37.json")],
                          capture_output=True, text=True, env=env, timeout=120)
    assert done.returncode == 3
    assert done.stderr.startswith("refused: out of memory")
    assert "Traceback" not in done.stderr
    assert done.stdout == ""


@pytest.mark.skipif(not sys.platform.startswith("linux"),
                    reason="reads VmSize from /proc/self/status")
def test_out_of_memory_handler_allocates_nothing_before_it_lets_go(tmp_path):
    # The command fills its capped address space with a chain of 3-tuples
    # and raises an error that holds the chain, so memory is still full
    # while `main` tests its except clauses: a clause that built its tuple
    # there would raise a second MemoryError from inside the handler.
    src = Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    script = (
        "import resource, sys\n"
        "from doubleschur import cli\n"
        "def fill(args):\n"
        "    with open('/proc/self/status') as fh:\n"
        "        kib = next(int(line.split()[1]) for line in fh\n"
        "                   if line.startswith('VmSize:'))\n"
        "    cap = (kib + 4 * 1024) * 1024\n"
        "    resource.setrlimit(resource.RLIMIT_AS, (cap, cap))\n"
        "    box = [MemoryError()]\n"
        "    box[0].chain = None\n"
        "    try:\n"
        "        while True:\n"
        "            box[0].chain = (box[0].chain, None, None)\n"
        "    except MemoryError:\n"
        "        pass\n"
        "    raise box.pop()\n"
        "cli.cmd_table = fill\n"
        "sys.exit(cli.main(['table', '--n', '1', '--m', '2', '--out', sys.argv[1]]))\n")
    done = subprocess.run([sys.executable, "-c", script, str(tmp_path / "g12.json")],
                          capture_output=True, text=True, env=env, timeout=120)
    assert done.returncode == 3
    assert done.stderr.startswith("refused: out of memory")
    assert "Traceback" not in done.stderr


def test_verify_guard_exits_3_before_any_suite_runs(capsys, monkeypatch):
    def refuse(n, m):
        pytest.fail(f"suite ran at n={n}, m={m} past the guard")

    for name in verify.SUITES:
        monkeypatch.setitem(verify.SUITES, name, refuse)
    code, _, err = run(capsys, "verify", "--suite", "routes",
                       "--n", "8", "--m", "16")
    assert code == 3
    assert "guard" in err
    code, _, _ = run(capsys, "verify", "--suite", "routes",
                     "--n", "0", "--m", "16")
    assert code == 2


def test_verify_pieri(capsys):
    code, out, _ = run(capsys, "verify", "--suite", "pieri",
                       "--n", "2", "--m", "4")
    assert code == 0
    report = json.loads(out)
    assert report["ok"] is True
    assert report["cases"] == 6
    assert report["failures"] == []


def test_verify_positivity_reports_certificates(capsys):
    code, out, _ = run(capsys, "verify", "--suite", "positivity",
                       "--n", "1", "--m", "3")
    assert code == 0
    report = json.loads(out)
    assert report["ok"] is True
    assert all("certificate" in rec for rec in report["certificates"])


def test_verify_specialize(capsys):
    code, out, _ = run(capsys, "verify", "--suite", "specialize",
                       "--n", "2", "--m", "4")
    assert code == 0
    assert json.loads(out)["ok"] is True


def test_verify_specialize_past_lr_guard_exits_3_before_any_product(
        capsys, monkeypatch):
    def refuse(*args):
        pytest.fail("schubert_product ran past the enumeration guard")

    monkeypatch.setattr(verify, "schubert_product", refuse)
    # G(2,8) passes the rank guard (rank 28), but its box holds 12 cells
    code, _, err = run(capsys, "verify", "--suite", "specialize",
                       "--n", "2", "--m", "8")
    assert code == 3
    assert "guard" in err


def test_verify_syt(capsys):
    code, out, _ = run(capsys, "verify", "--suite", "syt",
                       "--n", "2", "--m", "5")
    assert code == 0
    assert json.loads(out)["ok"] is True
    assert json.loads(out)["kmax"] == 6


def test_verify_intertwine(capsys):
    code, out, _ = run(capsys, "verify", "--suite", "intertwine",
                       "--n", "2", "--m", "4")
    assert code == 0
    assert json.loads(out)["ok"] is True


def test_verify_routes(capsys):
    code, out, _ = run(capsys, "verify", "--suite", "routes",
                       "--n", "2", "--m", "4")
    assert code == 0
    report = json.loads(out)
    assert report["ok"] is True
    assert report["cases"] == 36


def test_verify_unknown_suite_exits_2(capsys):
    code, _, _ = run(capsys, "verify", "--suite", "nope", "--n", "2", "--m", "4")
    assert code == 2


def test_missing_subcommand_exits_2(capsys):
    assert main([]) == 2


@pytest.mark.parametrize("command", [
    "schur --n 2 --lambda 1 --format text",
    "product --n 1 --m 2 --lambda 1 --mu 1",
])
def test_readme_examples_print_what_the_readme_shows(capsys, command):
    # the README prints each example's output as the `#` lines that follow
    # the command, one output line wrapped over them
    readme = Path(__file__).resolve().parent.parent / "README.md"
    lines = readme.read_text(encoding="utf-8").splitlines()
    shown = []
    for line in lines[lines.index(f"doubleschur {command}") + 1:]:
        if not line.startswith("#"):
            break
        shown.append(line[1:].strip())
    code, out, _ = run(capsys, *command.split())
    assert code == 0 and shown
    assert out.strip() == "".join(shown)
