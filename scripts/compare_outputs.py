"""Byte-compare the shipped outputs of two checkouts of this repository.

    python scripts/compare_outputs.py OLD NEW

Runs the shipped command set (`COMMANDS` in study.py) once in each checkout,
from that checkout's own `src/` and `configs/`, and byte-compares every file
written. A command that exits non-zero in either checkout is a difference.
A manifest is compared as JSON without its `created`, `out_dir` and
`config_path` fields, which differ between two checkouts by construction, so
a change to its echoed `config` block shows.
Prints each difference and exits 1 if there is any, else 0. A file written
in one checkout only is reported as `only in old` or `only in new`. A CSV
that differs is sized column by column: the largest absolute difference of
each numeric column (every cell a float or empty, rows paired by position),
and the first differing cell of any other column. A JSON file that differs
is compared value by value, each scalar named by its dotted key path
(`config.mpc.theta_s_deg: 20.0 != 21.0`, list items by index), with the
absolute difference of two numbers and the paths found in one file only.
BLAS runs on one thread unless OPENBLAS_NUM_THREADS is set. Standard
library only. `gaps` is the looser rule the tests hold outputs to.
"""

import csv
import filecmp
import json
import math
import os
import subprocess
import sys
import tempfile
from functools import partial
from pathlib import Path

from study import COMMANDS

# manifest fields that differ between two checkouts by construction
MASKED = ("config_path", "created", "out_dir")
GOLDEN_ATOL = 1e-6  # `gaps`: the largest difference of two numbers that agree


def start(checkout: Path, command: str, config: str, out: Path):
    env = dict(os.environ, PYTHONPATH=str(checkout / "src"))
    env.setdefault("OPENBLAS_NUM_THREADS", "1")
    return subprocess.Popen(
        [sys.executable, "-m", "ltvmpc.cli", command, "--quiet",
         "--config", str(checkout / "configs" / f"{config}.yaml"), "--out", str(out)],
        env=env, cwd=checkout, stderr=subprocess.DEVNULL)


def _float(cell: str):
    """The cell as a float, None if it is empty; ValueError if neither."""
    return float(cell) if cell else None


def _gap(a, b) -> float:
    """|a - b| of two cells read by `_float`: 0 if equal, both empty or both
    NaN, inf against an empty cell or where the difference is NaN."""
    if a == b or (a != a and b != b):
        return 0.0
    gap = math.inf if a is None or b is None else abs(a - b)
    return gap if gap == gap else math.inf


def _sized(columns) -> list:
    """Findings for CSV columns (name, [(old, new), ...]): the first differing
    pair of each column that `_float` rejects (ValueError), then the largest
    absolute difference of each numeric column, the columns without a
    difference counted."""
    found, gaps, equal = [], [], 0
    for name, pairs in columns:
        try:
            gap = max((_gap(_float(x), _float(y)) for x, y in pairs), default=0.0)
            gaps += [f"{name} {gap:.3g}"] if gap else []
            equal += not gap
        except ValueError:
            i = next((i for i, (x, y) in enumerate(pairs) if x != y), None)
            if i is not None:
                found.append(f"{name}: first differs in data row {i}: "
                             f"{pairs[i][0]!r} != {pairs[i][1]!r}")
    numeric = gaps + ([f"0 in the {equal} other numeric columns"] if equal else [])
    return found + ([f"max abs difference: {', '.join(numeric)}"] if numeric else [])


def _columns(a: Path, b: Path):
    """(findings, columns) of two CSV files with a header row: a header or row
    count that differs, and each column as (name, [(old, new), ...]), rows
    paired by position (no columns if the headers differ)."""
    tables = []
    for path in (a, b):
        with path.open(newline="") as f:
            rows = list(csv.reader(f))
        tables.append([r + [""] * (len(rows[0]) - len(r)) for r in rows] if rows else [[]])
    (head, *old), (head_b, *new) = tables
    if head != head_b:
        return [f"header {head} != {head_b}"], []
    return ([] if len(old) == len(new) else [f"{len(old)} != {len(new)} rows"],
            [(name, [(r[j], s[j]) for r, s in zip(old, new)]) for j, name in enumerate(head)])


def csv_differences(a: Path, b: Path) -> list:
    """How two CSV files with a header row differ, one line per finding:
    `_columns`' findings, then `_sized` over the columns (cells that are
    floats or empty are numeric; data rows count from 0)."""
    found, columns = _columns(a, b)
    return found + _sized(columns)


def _leaves(value, path: str = "") -> dict:
    """The scalars of a JSON value by dotted key path (`a.b[2].c`); an empty
    object or list is a leaf of its own."""
    if isinstance(value, dict) and value:
        return {leaf: x for key in sorted(value)
                for leaf, x in _leaves(value[key], f"{path}.{key}" if path else key).items()}
    if isinstance(value, list) and value:
        return {leaf: x for i, item in enumerate(value)
                for leaf, x in _leaves(item, f"{path}[{i}]").items()}
    return {path or "(document)": value}


def _number(value):
    """A JSON number as a float, None for null; ValueError for anything else
    (true and false are not numbers)."""
    if value is None or (isinstance(value, (int, float)) and not isinstance(value, bool)):
        return None if value is None else float(value)
    raise ValueError(value)


def _document(path: Path, masked=()):
    """A JSON file's document, without the top-level keys in `masked`."""
    doc = json.loads(path.read_text())
    return {k: v for k, v in doc.items() if k not in masked} if isinstance(doc, dict) else doc


def _cell_gap(x, y, read) -> float:
    """`_gap` of two CSV cells or JSON scalars as `read` (`_float`, `_number`)
    takes them; if it rejects either, 0 if they are equal, else inf."""
    try:
        return _gap(read(x), read(y))
    except ValueError:
        return 0.0 if json.dumps(x) == json.dumps(y) else math.inf


def gaps(a: Path, b: Path) -> dict:
    """The golden rule's numbers for two output files: each CSV column's
    largest `_cell_gap` (`_float`) by name, or each JSON scalar's (`_number`)
    by its `_leaves` path; they agree if no gap exceeds GOLDEN_ATOL. A missing
    file (`(file)`), a `_columns` finding and a scalar in one file only are inf."""
    if not (a.is_file() and b.is_file()):
        return {"(file)": math.inf}
    if a.suffix == ".csv":
        found, columns = _columns(a, b)
        return dict.fromkeys(found, math.inf) | {
            name: max((_cell_gap(x, y, _float) for x, y in pairs), default=0.0)
            for name, pairs in columns}
    old, new = (_leaves(_document(p)) for p in (a, b))
    return {path: _cell_gap(old[path], new[path], _number)
            if path in old and path in new else math.inf for path in {**old, **new}}


def _same(a: Path, b: Path, masked) -> bool:
    """Whether two output files agree: byte for byte, or, given top-level keys
    to leave out (`masked`, a manifest's), as JSON text without them."""
    if not masked:
        return filecmp.cmp(a, b, shallow=False)
    return json.dumps(_document(a, masked)) == json.dumps(_document(b, masked))


def json_differences(a: Path, b: Path, masked=()) -> list:
    """How two JSON documents differ, one line per scalar (`_leaves`): each
    differing pair by its dotted key path as JSON text, with the absolute
    difference where both are numbers, then the paths in one file only,
    each in document order. Top-level keys in `masked` are left out."""
    old, new = (_leaves(_document(p, masked)) for p in (a, b))
    found = []
    for path, x in old.items():
        y = new.get(path, x)
        if json.dumps(x) != json.dumps(y):
            try:
                gap = f" (abs difference {_gap(_number(x), _number(y)):.3g})"
            except ValueError:
                gap = ""
            found.append(f"{path}: {json.dumps(x)} != {json.dumps(y)}{gap}")
    return found + [f"{path}: only in {side}"
                    for side, doc, other in (("old", old, new), ("new", new, old))
                    for path in doc if path not in other]


def main(old: str, new: str) -> int:
    diffs = []
    with tempfile.TemporaryDirectory() as tmp:
        for command, config in COMMANDS:
            outs = [Path(tmp) / side / config for side in ("old", "new")]
            procs = [start(Path(c).resolve(), command, config, o)
                     for c, o in zip((old, new), outs)]
            codes = [p.wait() for p in procs]
            if any(codes):  # a failed command may write nothing to compare
                diffs.append(f"{command} {config}: exit codes old {codes[0]}, new {codes[1]}")
            names = sorted({f.relative_to(o) for o in outs for f in o.rglob("*") if f.is_file()})
            for name in names:
                a, b = (o / name for o in outs)
                masked = MASKED if name == Path("manifest.json") else ()
                if not (a.exists() and b.exists()):
                    diffs.append(f"{command} {config}: {name} only in "
                                 f"{'old' if a.exists() else 'new'}")
                elif not _same(a, b, masked):
                    diffs.append(f"{command} {config}: {name} differs")
                    sizer = {".csv": csv_differences,
                             ".json": partial(json_differences, masked=masked)}.get(name.suffix)
                    if sizer:
                        diffs += [f"    {line}" for line in sizer(a, b)]
            print(f"{command} {config}: {len(names)} files compared", flush=True)
    print("\n".join(diffs) if diffs else "all outputs byte-identical")
    return 1 if diffs else 0


if __name__ == "__main__":
    if len(sys.argv) != 3:
        sys.exit(__doc__)
    sys.exit(main(sys.argv[1], sys.argv[2]))
