"""Source hygiene: line width of the code and the package's export list."""

import ast
from pathlib import Path

import ltvmpc

ROOT = Path(__file__).resolve().parents[1]
MAX_COLUMNS = 100


def test_no_line_is_wider_than_100_columns():
    wide = [f"{path.relative_to(ROOT)}:{i}: {len(line)} columns"
            for top in ("src", "scripts", "tests") for path in sorted((ROOT / top).rglob("*.py"))
            for i, line in enumerate(path.read_text(encoding="utf-8").splitlines(), 1)
            if len(line) > MAX_COLUMNS]
    assert wide == []


def test_exports_are_sorted_unique_and_exactly_the_public_imports():
    tree = ast.parse(Path(ltvmpc.__file__).read_text(encoding="utf-8"))
    imported = {alias.asname or alias.name for node in tree.body
                if isinstance(node, ast.ImportFrom) and node.level
                for alias in node.names}
    exported = ltvmpc.__all__
    assert exported == sorted(exported)
    assert len(exported) == len(set(exported))
    assert set(exported) == {name for name in imported if not name.startswith("_")}
