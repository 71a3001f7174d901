#!/usr/bin/env python3
"""Interleaved parent/change benchmark pairs, read by `ddp-benchmark compare`.

    scripts/ab.py <parent-rev> [pairs=10] [--workload NAME]

Checks `<parent-rev>` out beside the working tree, builds the `ddp-benchmark`
package of both with `--offline --locked`, then for seeds 1..pairs runs the
BENCHMARK.json command (`... -- run --seed S --trace 0`: every workload once,
untraced) once per side, parent first on odd seeds and change first on even
ones, so a drift of the host over the minutes a comparison takes hits both
sides alike. The documents of each side are merged into one and handed to
`compare`; its table and exit code are this script's, followed by how many
pairs the change won per workload and end-to-end metric.

`--workload NAME` is passed through to both sides, which then run that one
workload only (ten `wire_relay` pairs take six minutes instead of 25). That
is for iterating on a change; the evidence for a claim is the full set.

Everything lands under target/ab/ (ignored by git): `parent/` is the parent's
tree, `A.json` / `B.json` the merged documents, `runs/` every single run's
document and the tables it printed.
The parent tree is a `git archive` extraction rather than a `git worktree`,
so the repository's own metadata is never written to; its runs therefore
report `"commit": "unknown"`.

Python 3 standard library only.
"""

import argparse
import io
import json
import shutil
import statistics
import subprocess
import sys
import tarfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / "target" / "ab"


def say(text):
    print(f"ab: {text}", file=sys.stderr, flush=True)


def checkout(rev, into):
    """Extract `rev`'s tree into the fresh directory `into`."""
    if into.exists():
        shutil.rmtree(into)
    into.mkdir(parents=True)
    archive = subprocess.run(
        ["git", "archive", "--format=tar", rev], cwd=ROOT, check=True, capture_output=True
    ).stdout
    with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
        tar.extractall(into)


def build(tree, manifest):
    say(f"building {tree}")
    subprocess.run(
        ["cargo", "build", "--release", "--offline", "--locked", "--manifest-path", manifest],
        cwd=tree,
        check=True,
    )


def run_once(tree, command, seed, log):
    """One `run --seed S --trace 0` in `tree`; the document it prints. The
    per-workload tables it writes to standard error go to the file `log`.
    `command` already names the workload, if only one is to run."""
    with open(log, "w") as tables:
        done = subprocess.run(
            command + ["--seed", str(seed), "--trace", "0"],
            cwd=tree,
            check=True,
            stdout=subprocess.PIPE,
            stderr=tables,
            text=True,
        )
    document = json.loads(done.stdout.splitlines()[0])
    for run in document["runs"]:
        if not run["correct"] or run["failed"]:
            say(f"{tree.name} seed {seed} {run['workload']}: {run['failures']}")
    return document


def merge(documents):
    merged = dict(documents[0])
    merged["runs"] = [run for document in documents for run in document["runs"]]
    return merged


def values(documents, workload, metric):
    return [
        run["metrics"][metric]["value"]
        for document in documents
        for run in document["runs"]
        if run["workload"] == workload
    ]


def pair_wins(manifest, workloads, parent_docs, change_docs):
    """Per workload and end-to-end metric: medians and pairs the change won."""
    lines = []
    for workload in workloads:
        for metric in manifest["end_to_end"]:
            a = values(parent_docs, workload, metric["name"])
            b = values(change_docs, workload, metric["name"])
            higher = metric["better"] == "higher"
            wins = sum((y > x) if higher else (y < x) for x, y in zip(a, b))
            ties = sum(x == y for x, y in zip(a, b))
            lines.append(
                f"{workload:<18}{metric['name']:<22}"
                f"{statistics.median(a):>16.6g} -> {statistics.median(b):<16.6g}"
                f"change ahead in {wins}/{len(a)} pairs" + (f", {ties} ties" if ties else "")
            )
    return lines


def main(argv):
    manifest = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = [w["name"] for w in manifest["workloads"]]
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    parser.add_argument("rev", metavar="parent-rev")
    parser.add_argument("pairs", nargs="?", type=int, default=10)
    parser.add_argument("--workload", choices=workloads)
    args = parser.parse_args(argv[1:])
    rev, pairs = args.rev, args.pairs
    command = manifest["command"]
    package = command[command.index("--manifest-path") + 1]
    run = command
    if args.workload is not None:
        workloads = [args.workload]
        run = command + ["--workload", args.workload]

    parent = OUT / "parent"
    checkout(rev, parent)
    build(parent, package)
    build(ROOT, package)

    runs = OUT / "runs"
    runs.mkdir(parents=True, exist_ok=True)
    sides = {"parent": (parent, []), "change": (ROOT, [])}
    for seed in range(1, pairs + 1):
        order = ["parent", "change"] if seed % 2 else ["change", "parent"]
        for side in order:
            tree, documents = sides[side]
            say(f"pair {seed}/{pairs}: {side}")
            document = run_once(tree, run, seed, runs / f"{side}-seed{seed}.log")
            (runs / f"{side}-seed{seed}.json").write_text(json.dumps(document))
            documents.append(document)

    for name, side in (("A.json", "parent"), ("B.json", "change")):
        (OUT / name).write_text(json.dumps(merge(sides[side][1])))
    assert command[-1] == "run", "BENCHMARK.json's command ends in the `run` subcommand"
    compare = command[:-1] + ["compare", str(OUT / "A.json"), str(OUT / "B.json")]
    verdict = subprocess.run(compare, cwd=ROOT).returncode
    print()
    print("\n".join(pair_wins(manifest, workloads, sides["parent"][1], sides["change"][1])))
    return verdict


if __name__ == "__main__":
    sys.exit(main(sys.argv))
