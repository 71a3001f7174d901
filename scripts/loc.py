#!/usr/bin/env python3
"""Rust lines per crate, non-test and test, and the delta against a revision.

    scripts/loc.py [<rev>]

Counts physical lines (what `wc -l` counts: code, comments and blanks alike)
of every `*.rs` file git knows in the working tree, tracked or untracked and
not ignored. A line is a test line when its file sits under a `tests/` or
`benches/` directory, or when it is inside an item behind `#[cfg(test)]` (the
attribute line, the item's header and its braces included); everything else
is non-test. The item's end is found by counting braces, so a `{` or `}` in a
string or a comment of a test module can misplace it by that much.

With `<rev>`, the same count is made over that revision's tree, read with
`git ls-tree` and `git show <rev>:<path>` (nothing is checked out), and every
row also shows working tree minus revision. This is the number ROADMAP asks
each diet PR to report in CHANGES.md.

A file belongs to `crates/<name>`, `crates/compat/<name>`, the benchmark
package (`bench/ddp-benchmark`), or the root package (`src/`, `tests/`,
`examples/`).

Python 3 standard library only.
"""

import re
import subprocess
import sys
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
CFG_TEST = re.compile(r"^\s*#\[cfg\(test\)\]")


def git(*args):
    return subprocess.run(
        ["git", *args], cwd=ROOT, check=True, capture_output=True, text=True
    ).stdout


def crate_of(path):
    parts = path.split("/")
    if parts[0] != "crates":
        return "ddpolice (root)"
    if parts[1] == "compat":
        return "compat/" + parts[2]
    if parts[1] == "bench":
        return "bench/ddp-benchmark"
    return parts[1]


def split(path, text):
    """(non-test lines, test lines) of one file."""
    lines = text.splitlines()
    if {"tests", "benches"} & set(path.split("/")[:-1]):
        return 0, len(lines)
    test = 0
    i = 0
    while i < len(lines):
        if not CFG_TEST.match(lines[i]):
            i += 1
            continue
        # The attribute, then the item up to its closing brace (or its `;`).
        start, depth, opened = i, 0, False
        i += 1
        while i < len(lines):
            depth += lines[i].count("{") - lines[i].count("}")
            opened = opened or "{" in lines[i]
            done = depth <= 0 if opened else lines[i].rstrip().endswith(";")
            i += 1
            if done:
                break
        test += i - start
    return len(lines) - test, test


def count(files):
    """{crate: [non-test, test]} over (path, text) pairs."""
    totals = defaultdict(lambda: [0, 0])
    for path, text in files:
        non_test, test = split(path, text)
        totals[crate_of(path)][0] += non_test
        totals[crate_of(path)][1] += test
    return totals


def working_tree():
    listed = git("ls-files", "--cached", "--others", "--exclude-standard", "--", "*.rs")
    for path in sorted(set(listed.splitlines())):
        file = ROOT / path
        if file.is_file():  # a tracked file may be deleted in the working tree
            yield path, file.read_text(encoding="utf-8")


def revision(rev):
    for path in git("ls-tree", "-r", "--name-only", rev).splitlines():
        if path.endswith(".rs"):
            yield path, git("show", f"{rev}:{path}")


def main():
    if len(sys.argv) > 2 or (len(sys.argv) == 2 and sys.argv[1] in ("-h", "--help")):
        print(__doc__)
        return 2
    rev = sys.argv[1] if len(sys.argv) == 2 else None
    now = count(working_tree())
    then = count(revision(rev)) if rev else None

    header = f"{'crate':<22}{'non-test':>10}{'test':>8}"
    if then is not None:
        header += f"{'Δ non-test':>13}{'Δ test':>9}"
    print(header)

    def row(name, cur, old):
        line = f"{name:<22}{cur[0]:>10}{cur[1]:>8}"
        if old is not None:
            line += f"{cur[0] - old[0]:>+13}{cur[1] - old[1]:>+9}"
        print(line)

    def total(counts):
        return [sum(v[0] for v in counts.values()), sum(v[1] for v in counts.values())]

    for name in sorted(set(now) | set(then or {})):
        row(name, now.get(name, [0, 0]), then.get(name, [0, 0]) if then is not None else None)
    row("total", total(now), total(then) if then is not None else None)
    return 0


if __name__ == "__main__":
    sys.exit(main())
