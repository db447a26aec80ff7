import ast
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
