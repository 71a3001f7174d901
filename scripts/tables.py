#!/usr/bin/env python3
"""Parent-against-change byte comparison of the tables `ddp-experiments` emits.

    scripts/tables.py <parent-rev> [-- <ddp-experiments args>]

Checks `<parent-rev>` out beside the working tree (the `git archive`
extraction of `scripts/ab.py`), builds `ddp-experiments --release --offline`
on both sides, runs the same arguments on both with `--csv` into
`target/tables/parent/` and `target/tables/change/`, and compares every file
byte for byte. It prints the first differing (file, row, column) and exits
non-zero on any difference, on any file present on one side only, and when
the rendered console tables differ. Every run is seed-deterministic, so an
inert change reads `identical` on every file.

Without arguments of its own it runs the command `results/README.md`
regenerates the committed CSVs with. A `--checkpoint-dir DIR` among the
arguments becomes `DIR/parent` and `DIR/change`, emptied first, so neither
side resumes from the other's snapshots.

Everything lands under target/tables/ (ignored by git): `tree/` is the
parent's tree and `build/` its cargo target directory (kept between runs, so
a second comparison against the same parent rebuilds nothing), `parent/` and
`change/` the CSVs, `<side>.stdout` what each run printed.

Python 3 standard library only.
"""

import csv
import os
import shutil
import subprocess
import sys
from pathlib import Path

from ab import ROOT, checkout

OUT = ROOT / "target" / "tables"
DEFAULT = "all --peers 2000 --ticks 25 --agents 100 --replicates 2".split()


def say(text):
    print(f"tables: {text}", file=sys.stderr, flush=True)


def run_side(side, tree, target, args):
    """Build `tree`'s runner into `target` and run `args` with `--csv
    target/tables/<side>`; returns the console tables it printed."""
    say(f"building {tree}")
    subprocess.run(
        ["cargo", "build", "--release", "--offline", "-p", "ddp-experiments"],
        cwd=tree,
        env={**os.environ, "CARGO_TARGET_DIR": str(target)},
        check=True,
    )
    csv_dir = OUT / side
    shutil.rmtree(csv_dir, ignore_errors=True)
    args = list(args)
    if "--checkpoint-dir" in args:
        at = args.index("--checkpoint-dir") + 1
        snapshots = Path(args[at]) / side
        shutil.rmtree(snapshots, ignore_errors=True)
        args[at] = str(snapshots)
    say(f"running {side}: {' '.join(args)}")
    done = subprocess.run(
        [str(target / "release" / "ddp-experiments"), *args, "--csv", str(csv_dir)],
        cwd=OUT,
        check=True,
        stdout=subprocess.PIPE,
        text=True,
    )
    (OUT / f"{side}.stdout").write_text(done.stdout)
    # `[csv] <path>` lines name the side's own directory.
    return [line for line in done.stdout.splitlines() if not line.startswith("[csv] ")]


def first_difference(parent, change):
    """`(row, column)` of the first cell two CSV files differ in, 1-based with
    the header as row 0; a missing row or cell counts as a difference."""
    with open(parent, newline="") as a, open(change, newline="") as b:
        rows_a, rows_b = list(csv.reader(a)), list(csv.reader(b))
    for row in range(max(len(rows_a), len(rows_b))):
        cells_a = rows_a[row] if row < len(rows_a) else []
        cells_b = rows_b[row] if row < len(rows_b) else []
        for column in range(max(len(cells_a), len(cells_b))):
            cell_a = cells_a[column] if column < len(cells_a) else None
            cell_b = cells_b[column] if column < len(cells_b) else None
            if cell_a != cell_b:
                header = rows_a[0][column] if column < len(rows_a[0]) else "?"
                return row, f"{column + 1} ({header}): parent {cell_a!r}, change {cell_b!r}"
    return None, "bytes differ, cells do not (quoting or line ends)"


def main(argv):
    if len(argv) < 2 or argv[1].startswith("-"):
        print(__doc__, file=sys.stderr)
        return 2
    rev, rest = argv[1], argv[2:]
    if rest and rest[0] != "--":
        print("tables: runner arguments go after `--`", file=sys.stderr)
        return 2
    args = rest[1:] or DEFAULT

    tree = OUT / "tree"
    checkout(rev, tree)
    printed = {
        "parent": run_side("parent", tree, OUT / "build", args),
        "change": run_side("change", ROOT, ROOT / "target", args),
    }

    files = {side: {p.name for p in (OUT / side).glob("*.csv")} for side in printed}
    different = 0
    for name in sorted(files["parent"] | files["change"]):
        only = [side for side in files if name not in files[side]]
        if only:
            different += 1
            print(f"{name}: missing on the {only[0]} side")
        elif (OUT / "parent" / name).read_bytes() == (OUT / "change" / name).read_bytes():
            print(f"{name}: identical")
        else:
            different += 1
            row, what = first_difference(OUT / "parent" / name, OUT / "change" / name)
            print(f"{name}: DIFFERS at row {row}, column {what}")
    total = len(files["parent"] | files["change"])
    print(f"{total - different} of {total} files identical")
    console = printed["parent"] == printed["change"]
    if not console:
        print(f"console tables differ: diff {OUT}/parent.stdout {OUT}/change.stdout")
    return 0 if total and not different and console else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv))
