#!/usr/bin/env python3
"""Apply each catalogued mutant and check that its test catches it.

    scripts/mutants.py [--matrix] [--changed-since REV]

Extracts HEAD (the `git archive` extraction of `scripts/ab.py`) under
target/mutants/tree and reads `tests/mutants/catalogue.txt` from it.
First every test the catalogue names runs once on the unmutated tree and
must pass. Then, one mutant at a time: its `old` text is replaced by its `new`
text, the named test is built (`cargo test --no-run`) and run, and the file
is restored. A mutant whose test fails is killed; one whose test passes is a
survivor; one that does not compile is an error, never a kill. All builds
share one cargo target directory, target/mutants/build, so each mutant only
rebuilds the crates its edit touches.

`--changed-since REV` runs only the entries a change since REV can touch:
those whose `file:` differs between REV and HEAD; those whose killing tests
live in a file that differs, where the killing tests are the entry's own
`test:` and every test `tests/mutants/kill_matrix.tsv` lists against it; and
those that are new or edited in the catalogue since REV. A test is located
from its package (the directory of the manifest naming it), its target
(`tests/<target>.rs` for an integration test, `src/lib.rs` for `lib`) and its
module path, followed from `src/lib.rs` through `<module>.rs` or
`<module>/mod.rs` files until a module is inline; a bare test name, as a
`test:` line gives it, is found by the `fn` that defines it. Baseline and kill
rules are the same; with no such entry it runs nothing and exits 0.

`--matrix` additionally runs every test binary of the packages in PACKAGES,
on the unmutated tree and under each mutant, and writes one row per test
function that fails under a mutant (and passed unmutated) to
tests/mutants/kill_matrix.tsv in the working tree: which tests kill which
mutant. A mutant no test kills gets a row with `-` for its test. The
`mutant_catalogue` lint fails under every mutant (the `old` text is gone)
and is left out. With `--changed-since REV` as well, only the selected
entries' rows are rewritten: every other entry keeps its rows byte for byte,
and rows of entries no longer in the catalogue are dropped. The file lists
entries in catalogue order.

Exits non-zero on any survivor, error, or baseline failure. Python 3
standard library only.
"""

import argparse
import os
import re
import subprocess
import sys
import time

from ab import ROOT, checkout

OUT = ROOT / "target" / "mutants"
TREE = OUT / "tree"
CATALOGUE = "tests/mutants/catalogue.txt"
MATRIX = ROOT / "tests" / "mutants" / "kill_matrix.tsv"
PACKAGES = [
    "bytes",
    "ddpolice",
    "ddp-police",
    "ddp-sim",
    "ddp-sketch",
    "ddp-oracle",
    "ddp-protocol",
    "ddp-servent",
]
# A test run this long is taken to hang; a hanging test is a killing one.
TIMEOUT_S = 1800


def say(text):
    print(f"mutants: {text}", file=sys.stderr, flush=True)


def parse(text):
    """The catalogue's entries as dicts; the same grammar the tier-1 lint
    `tests/mutant_catalogue.rs` reads."""
    entries, block, key = [], None, None

    def finish():
        lines = list(block)
        while lines and lines[-1] == "":
            lines.pop()
        entries[-1][key] = "\n".join(lines)

    for line in text.splitlines():
        if line.startswith("== "):
            if block is not None:
                finish()
            entries.append({"id": line[3:].strip()})
            block = None
        elif not entries:
            continue
        elif line in ("old:", "new:"):
            if block is not None:
                finish()
            key, block = line[:-1], []
        elif block is not None:
            block.append(line)
        elif ":" in line:
            field, value = line.split(":", 1)
            entries[-1][field.strip()] = value.strip()
    if block is not None:
        finish()
    return entries


ROOT_PACKAGE = "ddpolice"


def package_dirs():
    """Package name -> its directory (relative), from the extracted tree's
    manifests."""
    dirs = {}
    for manifest in sorted(TREE.glob("**/Cargo.toml")):
        if "target" in manifest.relative_to(TREE).parts:
            continue
        package = re.search(r"^\[package\]\s*\nname\s*=\s*\"([^\"]+)\"", manifest.read_text(), re.M)
        if package:
            dirs[package.group(1)] = manifest.parent.relative_to(TREE)
    return dirs


def test_files(crate, target, test):
    """The files (relative paths) that may hold `test` of `target` in the
    package at `crate`. `test` is a module path ending in the test's name, or
    a bare name; `target` is `lib`, an integration test's name, or None for
    every target."""
    *modules, name = test.split("::")
    if target not in (None, "lib"):
        for candidate in (crate / "tests" / f"{target}.rs", crate / "tests" / target / "main.rs"):
            if (TREE / candidate).exists():
                return {str(candidate)}
        return set()
    if modules:
        here, file = crate / "src", crate / "src" / "lib.rs"
        for module in modules:
            for candidate in (here / f"{module}.rs", here / module / "mod.rs"):
                if (TREE / candidate).exists():
                    here, file = here / module, candidate
                    break
            else:
                break  # an inline module: the test is in `file`
        return {str(file)}
    roots = [crate / "src"] + ([crate / "tests"] if target is None else [])
    defines = re.compile(rf"\bfn {re.escape(name)}\b")
    return {
        str(path.relative_to(TREE))
        for root in roots
        for path in (TREE / root).rglob("*.rs")
        if defines.search(path.read_text())
    }


def invocation_files(invocation, dirs):
    """The files of the test a `test:` line runs."""
    words = test_args(invocation)[1:]
    package, target, names = ROOT_PACKAGE, None, []
    while words:
        word = words.pop(0)
        if word == "--":
            break
        if word in ("-p", "--package"):
            package = words.pop(0)
        elif word == "--test":
            target = words.pop(0)
        elif word == "--lib":
            target = "lib"
        elif not word.startswith("-"):
            names.append(word)
    return set().union(*(test_files(dirs[package], target, n) for n in names or ["*"]))


def killing_files(entries, matrix):
    """Entry id -> the files holding the tests that kill it: its `test:` and
    its rows in the kill matrix."""
    dirs = package_dirs()
    files = {e["id"]: invocation_files(e["test"], dirs) for e in entries}
    for line in matrix.splitlines()[1:]:
        mutant, package, target, test = line.split("\t")
        if mutant in files and package in dirs and test not in ("-", "*"):
            files[mutant] |= test_files(dirs[package], target, test)
    return files


def changed_since(entries, rev):
    """The entries whose file or a killing test's file differs between `rev`
    and HEAD, or that are new or edited in the catalogue since `rev`."""

    def git(*args, check=True):
        return subprocess.run(
            ["git", *args], cwd=ROOT, check=check, capture_output=True, text=True
        ).stdout

    files = set(git("diff", "--name-only", rev, "HEAD").splitlines())
    # A revision without the catalogue makes every entry new.
    before = {e["id"]: e for e in parse(git("show", f"{rev}:{CATALOGUE}", check=False))}
    matrix = TREE / MATRIX.relative_to(ROOT)
    killers = killing_files(entries, matrix.read_text() if matrix.exists() else "")
    return [
        e
        for e in entries
        if e["file"] in files or killers[e["id"]] & files or before.get(e["id"]) != e
    ]


def cargo(args, timeout=None):
    """Run `cargo args` in the extracted tree; (exit code, combined output).
    A timeout reads as exit code None."""
    env = {
        **os.environ,
        "CARGO_TARGET_DIR": str(OUT / "build"),
        "CARGO_NET_OFFLINE": "true",
        "CARGO_TERM_COLOR": "never",
    }
    try:
        done = subprocess.run(
            ["cargo", *args],
            cwd=TREE,
            env=env,
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
            text=True,
            timeout=timeout,
        )
    except subprocess.TimeoutExpired as expired:
        output = expired.stdout or ""
        return None, output if isinstance(output, str) else output.decode()
    return done.returncode, done.stdout


def test_args(invocation):
    """`cargo test ...` without the `cargo`."""
    words = invocation.split()
    assert words[:2] == ["cargo", "test"], f"not a cargo test invocation: {invocation}"
    return words[1:]


RUNNING = re.compile(r"^\s*Running (?:unittests )?(\S+)")
FAILED = re.compile(r"^test (\S+) \.\.\. FAILED")
RERUN = re.compile(r"error: test failed, to rerun pass `(.*)`")


def target_name(source):
    """`lib` for a crate's unit tests, the file stem for a test target."""
    if source == "src/lib.rs":
        return "lib"
    return os.path.splitext(os.path.basename(source))[0]


def failures(package):
    """The `(target, test)` pairs failing in every test binary of `package`.
    A binary that failed without naming a failing test (it crashed or hung)
    contributes `(target, "*")`."""
    code, output = cargo(["test", "-p", package, "--tests", "--no-fail-fast"], TIMEOUT_S)
    failed, target, seen = set(), None, set()
    for line in output.splitlines():
        if m := RUNNING.match(line):
            target = target_name(m.group(1))
        elif m := FAILED.match(line):
            failed.add((target, m.group(1)))
            seen.add(target)
        elif m := RERUN.search(line):
            rerun = m.group(1).split()
            name = "lib" if "--lib" in rerun else rerun[-1]
            if name not in seen:
                failed.add((name, "*"))
    if code is None:
        failed.add(("*", "timeout"))
    elif code != 0 and not failed:
        failed.add(("*", "build"))
    return failed


def matrix_row(package_failures, baseline):
    return {
        (package, target, test)
        for package, pairs in package_failures.items()
        for target, test in pairs
        if (target, test) not in baseline.get(package, set()) and target != "mutant_catalogue"
    }


MATRIX_HEADER = "mutant\tpackage\ttarget\ttest\n"


def merge_matrix(old, order, fresh):
    r"""The kill matrix with the rows of the entries in `fresh` (id -> rows)
    replaced and those of every other entry of `order` (the catalogue's ids)
    kept as they were in `old`, the current file's text.

    >>> old = MATRIX_HEADER + "a\tp\tlib\tt1\nb\tp\tlib\tt2\ngone\tp\tlib\tt3\n"
    >>> merge_matrix(old, ["a", "b", "c"], {"b": [], "c": [("c", "-", "-", "-")]}).splitlines()
    ['mutant\tpackage\ttarget\ttest', 'a\tp\tlib\tt1', 'c\t-\t-\t-']
    """
    kept = {}
    for line in old.splitlines(keepends=True)[1:]:
        kept.setdefault(line.split("\t", 1)[0], []).append(line)
    lines = [MATRIX_HEADER]
    for mutant in order:
        if mutant in fresh:
            lines.extend("\t".join(row) + "\n" for row in fresh[mutant])
        else:
            lines.extend(kept.get(mutant, []))
    return "".join(lines)


def parse_args(argv):
    """The command line; the two options combine.

    >>> args = parse_args(["--matrix", "--changed-since", "HEAD~1"])
    >>> args.matrix, args.changed_since
    (True, 'HEAD~1')
    """
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    parser.add_argument("--matrix", action="store_true")
    parser.add_argument("--changed-since", metavar="REV")
    return parser.parse_args(argv)


def main(argv):
    args = parse_args(argv[1:])
    started = time.monotonic()

    say("extracting HEAD")
    checkout("HEAD", TREE)
    # The extraction dates every file at its commit time, which may predate
    # what the shared target directory last built from a mutated copy: date
    # them now so cargo rebuilds from what is on disk.
    for path in TREE.rglob("*"):
        os.utime(path)
    entries = parse((TREE / CATALOGUE).read_text())
    order = [e["id"] for e in entries]
    if args.changed_since:
        entries = changed_since(entries, args.changed_since)
        say(f"{len(entries)} entries changed since {args.changed_since}")

    errors = 0
    for invocation in sorted({e["test"] for e in entries}):
        say(f"baseline: {invocation}")
        code, output = cargo(test_args(invocation), TIMEOUT_S)
        if code != 0:
            print(output[-3000:])
            say(f"BASELINE FAILS: {invocation}")
            errors += 1
    if errors:
        return 1
    baseline = {}
    if args.matrix:
        for package in PACKAGES:
            say(f"baseline matrix: {package}")
            baseline[package] = failures(package)
            if baseline[package]:
                say(f"{package} fails unmutated, excluded from the matrix: {baseline[package]}")

    results, rows = [], {}
    for n, entry in enumerate(entries, 1):
        path = TREE / entry["file"]
        original = path.read_text()
        if original.count(entry["old"]) != 1:
            say(f"{entry['id']}: `old` text does not occur exactly once in {entry['file']}")
            results.append((entry["id"], "ERROR (does not apply)", 0.0))
            continue
        path.write_text(original.replace(entry["old"], entry["new"]))
        t0 = time.monotonic()
        try:
            words = test_args(entry["test"])
            code, output = cargo([words[0], "--no-run", *words[1:]])
            if code != 0:
                print(output[-3000:])
                verdict = "ERROR (does not compile)"
            else:
                code, _ = cargo(words, TIMEOUT_S)
                verdict = {0: "SURVIVED", None: "killed (timeout)"}.get(code, "killed")
                if args.matrix:
                    killed = matrix_row({p: failures(p) for p in PACKAGES}, baseline)
                    rows[entry["id"]] = [(entry["id"], *row) for row in sorted(killed)] or [
                        (entry["id"], "-", "-", "-")
                    ]
        finally:
            path.write_text(original)
        seconds = time.monotonic() - t0
        say(f"[{n}/{len(entries)}] {entry['id']}: {verdict} ({seconds:.0f} s)")
        results.append((entry["id"], verdict, seconds))

    if args.matrix:
        old = MATRIX.read_text() if MATRIX.exists() else MATRIX_HEADER
        MATRIX.write_text(merge_matrix(old, order, rows))
        written = sum(len(r) for r in rows.values())
        say(f"wrote {MATRIX.relative_to(ROOT)}: {written} rows for {len(rows)} mutants")

    width = max((len(r[0]) for r in results), default=0)
    for mutant, verdict, seconds in results:
        print(f"{mutant:<{width}}  {verdict:<26}{seconds:>6.0f} s")
    killed = sum(r[1].startswith("killed") for r in results)
    survived = sum(r[1] == "SURVIVED" for r in results)
    failed = sum(r[1].startswith("ERROR") for r in results)
    print(
        f"{killed} killed, {survived} survived, {failed} errors "
        f"of {len(results)} mutants in {time.monotonic() - started:.0f} s"
    )
    return 0 if survived == 0 and failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv))
