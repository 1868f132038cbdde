"""Source hygiene: line width of the code, the package's export list, and
README's config reference against the dataclasses it documents."""

import ast
import dataclasses
import re
from pathlib import Path

import yaml

import ltvmpc
from ltvmpc.cli import _Loader, parse_config

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


def test_readme_config_reference_is_a_valid_config_naming_every_field():
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    section = readme[readme.index("\n## Configuration\n"):]
    block = re.search(r"```yaml\n(.*?)```", section, re.S).group(1)
    config = parse_config(block)  # every documented value is accepted as written
    assert config.scenario.mpc.avoidance == "off"
    keys = yaml.load(block, Loader=_Loader)
    assert set(keys["mpc"]) == {f.name for f in dataclasses.fields(ltvmpc.MpcConfig)}
    assert {f.name for f in dataclasses.fields(ltvmpc.Scenario)} <= set(keys)
