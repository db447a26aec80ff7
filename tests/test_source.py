import ast
import subprocess
import sys
import types
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


def _imports_and_reads(names, attributes, allowed):
    """Where a library file outside `allowed` imports one of `names`, or
    reads one of them or of `attributes` as an attribute."""
    found = []
    for path in sorted(SOURCE.rglob("*.py")):
        if path.name in allowed:
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom):
                found.extend(f"{path.name}:{node.lineno} imports {alias.name}"
                             for alias in node.names if alias.name in names)
            elif isinstance(node, ast.Attribute) and node.attr in names | attributes:
                found.append(f"{path.name}:{node.lineno} reads .{node.attr}")
    assert SOURCE.is_dir()
    return found


# the packed format's field width and degree bound, and the kernel that
# relies on them; every other module multiplies through `_sums_of_products`
PACKED_FORMAT = {"_multiply_into", "F", "FIELD", "DEG_LIMIT"}


def test_packed_format_stays_in_poly_and_schur():
    assert _imports_and_reads(PACKED_FORMAT, {"_widened"}, ("poly.py", "schur.py")) == []


# the dominant-group format: only s_lam, x_sum and their products carry it,
# and every other module sees plain polynomials
GROUP_FORMAT = {"_Groups", "_written", "_dominant", "_dominant_groups", "_dominant_sums"}


def test_group_format_stays_in_poly_and_schur():
    assert _imports_and_reads(GROUP_FORMAT, {"_groups"}, ("poly.py", "schur.py")) == []


def test_fixed_points_stay_in_schur():
    # a restriction to a fixed point, the diagonal included, is computed by
    # `schur._localization` alone, so grass.py builds no t-parameter itself
    path = SOURCE / "grass.py"
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    found = [f"grass.py:{node.lineno} reads Poly.t" for node in ast.walk(tree)
             if isinstance(node, ast.Attribute) and node.attr == "t"
             and isinstance(node.value, ast.Name) and node.value.id == "Poly"]
    assert found == []


def test_cold_import_leaves_out_dataclasses():
    # dataclasses pulls in inspect, ast, dis and tokenize at import time;
    # -I ignores PYTHONPATH, so the source directory goes on sys.path here
    probe = (f"import sys; sys.path.insert(0, {str(SOURCE.parent)!r}); "
             "import doubleschur; print('dataclasses' in sys.modules)")
    done = subprocess.run([sys.executable, "-I", "-c", probe],
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "False"


def test_package_exports_each_module_list():
    # the package re-exports every module's `__all__` and declares no list
    # of its own, so a name a module declares is always reachable from it
    import doubleschur
    from doubleschur import grass, oracles, poly, schur, verify, wedge
    declared = set()
    for module in (poly, schur, grass, wedge, oracles, verify):
        for name in module.__all__:
            assert getattr(doubleschur, name) is getattr(module, name), name
        declared.update(module.__all__)
    public = {name for name, value in vars(doubleschur).items()
              if not name.startswith("_") and not isinstance(value, types.ModuleType)}
    assert public == declared and "certificate_to_obj" in public


# the per-call render memo: worth it only where one call writes thousands of
# terms over shared monomials (tables and positivity reports); every other
# `to_obj` writes through `poly_to_obj` and returns a fresh tree
RENDER_MEMO = {"_term_objs", "_poly_obj", "_certificate_obj"}


def test_render_memo_stays_in_poly_and_grass():
    assert _imports_and_reads(RENDER_MEMO, set(), ("poly.py", "grass.py")) == []


def test_coordinate_classes_inherit_their_shared_rules():
    # the two models' coordinates state items, get, zero test, repr and
    # JSON form once, in `_Coordinates`; each class keeps only its fields,
    # its JSON key, its index rule and its own constructors
    from doubleschur.schur import SchurExpansion, _Coordinates
    from doubleschur.wedge import WedgeVector
    shared = {"items", "get", "is_zero", "__bool__", "__repr__", "to_obj", "from_obj"}
    assert shared <= set(vars(_Coordinates))
    for cls in (SchurExpansion, WedgeVector):
        assert cls.__bases__ == (_Coordinates,)
        assert shared.isdisjoint(vars(cls)), sorted(shared & set(vars(cls)))
