"""Byte-compare the shipped outputs of two checkouts of this repository.

    python scripts/compare_outputs.py OLD NEW

Runs the shipped command set (`run` on tracking and the five avoidance
scenes, then `dump-figures` in the same directory for the three
velocity-space scenes, `compare-lqr`, `terminal-set` and the three sweeps)
once in each checkout, from that checkout's own `src/` and `configs/`, and
byte-compares every file written, manifests excepted (they hold a timestamp
and the output path). Prints each difference and exits 1 if there is any,
else 0. A CSV that differs is sized column by column: the largest absolute
difference of each numeric column (every cell a float or empty, rows paired
by position), and the first differing cell of any other column. A JSON file
that differs is sized the same way, each top-level key a column of the
scalars under it (numbers and nulls numeric). BLAS runs on one thread unless
OPENBLAS_NUM_THREADS is set. Standard library only.
"""

import csv
import filecmp
import json
import math
import os
import subprocess
import sys
import tempfile
from pathlib import Path

VELOCITY_SCENES = ("avoid_face_to_face", "avoid_intersection", "avoid_static_velocity")
# (commands run in order into one output directory, config)
COMMANDS = [(("run", "dump-figures") if c in VELOCITY_SCENES else ("run",), c)
            for c in ("tracking", "avoid_face_to_face", "avoid_intersection",
                      "avoid_static_hyperplane", "avoid_static_hyperplane_90",
                      "avoid_static_velocity")] + [
    (("compare-lqr",), "lqr_comparison"), (("terminal-set",), "terminal_set"),
    (("sweep",), "beta_sweep"), (("sweep",), "horizon_sweep"),
    (("sweep",), "horizon_sweep_no_terminal")]


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


def _sized(columns, unit: str) -> list:
    """Findings for columns (name, [(old, new), ...], to_number): the first
    differing pair of each column that `to_number` rejects (ValueError), then
    the largest absolute difference of each numeric column (its values read
    by `to_number`: a float, or None for no value), the columns without a
    difference counted."""
    found, gaps, equal = [], [], 0
    for name, pairs, to_number in columns:
        try:
            gap = max((_gap(to_number(x), to_number(y)) for x, y in pairs), default=0.0)
            gaps += [f"{name} {gap:.3g}"] if gap else []
            equal += not gap
        except ValueError:
            i = next((i for i, (x, y) in enumerate(pairs) if x != y), None)
            if i is not None:
                found.append(f"{name}: first differs in {unit} {i}: "
                             f"{pairs[i][0]!r} != {pairs[i][1]!r}")
    numeric = gaps + ([f"0 in the {equal} other numeric columns"] if equal else [])
    return found + ([f"max abs difference: {', '.join(numeric)}"] if numeric else [])


def csv_differences(a: Path, b: Path) -> list:
    """How two CSV files with a header row differ, one line per finding: the
    row counts if they differ, then `_sized` over the columns (cells that
    are floats or empty are numeric; data rows count from 0)."""
    tables = []
    for path in (a, b):
        with path.open(newline="") as f:
            rows = list(csv.reader(f))
        tables.append([r + [""] * (len(rows[0]) - len(r)) for r in rows] if rows else [[]])
    (head, *old), (head_b, *new) = tables
    if head != head_b:
        return [f"header {head} != {head_b}"]
    found = [] if len(old) == len(new) else [f"{len(old)} != {len(new)} rows"]
    return found + _sized([(name, [(r[j], s[j]) for r, s in zip(old, new)], _float)
                           for j, name in enumerate(head)], "data row")


def _scalars(value) -> list:
    """The scalars of a JSON value in document order (object members by key)."""
    if isinstance(value, dict):
        return [x for key in sorted(value) for x in _scalars(value[key])]
    if isinstance(value, list):
        return [x for item in value for x in _scalars(item)]
    return [value]


def _number(value):
    """A JSON number as a float, None for null; ValueError for anything else
    (true and false are not numbers)."""
    if value is None or (isinstance(value, (int, float)) and not isinstance(value, bool)):
        return None if value is None else float(value)
    raise ValueError(value)


def json_differences(a: Path, b: Path) -> list:
    """How two JSON documents differ, one line per finding, sized like CSV
    columns: each top-level key is a column of the scalars under it (a
    document that is not an object is one column), numeric where each is a
    number or null; keys in one file only and differing scalar counts are
    named."""
    old, new = (json.loads(p.read_text()) for p in (a, b))
    if not (isinstance(old, dict) and isinstance(new, dict)):
        old, new = {"(document)": old}, {"(document)": new}
    found = [f"{key}: only in {side}" for side, doc, other in (("old", old, new), ("new", new, old))
             for key in sorted(doc) if key not in other]
    columns = []
    for key in sorted(old.keys() & new.keys()):
        xs, ys = _scalars(old[key]), _scalars(new[key])
        if len(xs) != len(ys):
            found.append(f"{key}: {len(xs)} != {len(ys)} values")
        columns.append((key, list(zip(xs, ys)), _number))
    return found + _sized(columns, "value")


def main(old: str, new: str) -> int:
    diffs = []
    with tempfile.TemporaryDirectory() as tmp:
        for commands, config in COMMANDS:
            outs = [Path(tmp) / side / config for side in ("old", "new")]
            for command in commands:  # compared after each, as a later one may rewrite files
                procs = [start(Path(c).resolve(), command, config, o)
                         for c, o in zip((old, new), outs)]
                codes = [p.wait() for p in procs]
                if codes[0] != codes[1]:
                    diffs.append(f"{command} {config}: exit codes {codes[0]} != {codes[1]}")
                names = sorted({f.relative_to(o) for o in outs for f in o.rglob("*")
                                if f.is_file()} - {Path("manifest.json")})
                for name in names:
                    a, b = (o / name for o in outs)
                    if not (a.exists() and b.exists() and filecmp.cmp(a, b, shallow=False)):
                        diffs.append(f"{command} {config}: {name} differs")
                        sizer = {".csv": csv_differences, ".json": json_differences}.get(name.suffix)
                        if sizer and a.exists() and b.exists():
                            diffs += [f"    {line}" for line in sizer(a, b)]
                print(f"{command} {config}: {len(names)} files compared", flush=True)
    print("\n".join(diffs) if diffs else "all outputs byte-identical")
    return 1 if diffs else 0


if __name__ == "__main__":
    if len(sys.argv) != 3:
        sys.exit(__doc__)
    sys.exit(main(sys.argv[1], sys.argv[2]))
