import ast
import subprocess
import sys
from pathlib import Path

SOURCE = Path(__file__).resolve().parent.parent / "src" / "doubleschur"


def test_no_assert_statements_in_library():
    # assert statements vanish under `python -O`, so runtime checks raise
    found = []
    for path in sorted(SOURCE.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        found.extend(f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                     if isinstance(node, ast.Assert))
    assert SOURCE.is_dir() and found == []


# the packed format's field width and degree bound, and the kernel that
# relies on them; every other module multiplies through `_sums_of_products`
PACKED_FORMAT = {"_multiply_into", "_check_degree", "F", "FIELD", "DEG_LIMIT"}


def test_packed_format_stays_in_poly_and_schur():
    found = []
    for path in sorted(SOURCE.rglob("*.py")):
        if path.name in ("poly.py", "schur.py"):
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom):
                found.extend(f"{path.name}:{node.lineno} imports {alias.name}"
                             for alias in node.names if alias.name in PACKED_FORMAT)
            elif isinstance(node, ast.Attribute) and node.attr in PACKED_FORMAT | {"_widened"}:
                found.append(f"{path.name}:{node.lineno} reads .{node.attr}")
    assert SOURCE.is_dir() and found == []


def test_cold_import_leaves_out_dataclasses():
    # dataclasses pulls in inspect, ast, dis and tokenize at import time;
    # -I ignores PYTHONPATH, so the source directory goes on sys.path here
    probe = (f"import sys; sys.path.insert(0, {str(SOURCE.parent)!r}); "
             "import doubleschur; print('dataclasses' in sys.modules)")
    done = subprocess.run([sys.executable, "-I", "-c", probe],
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "False"
