"""Alternating benchmark pairs between two revisions of this repository.

    python3 scripts/bench_pairs.py REV_A REV_B --workload W --pairs N

Each revision is exported with `git archive` into its own temporary
directory.  The revision WORKTREE names the working tree as it stands: the
commit `git stash create` makes of its uncommitted changes to tracked and
staged files (untracked files are left out until `git add`ed), or HEAD
when there are none; so a parent-against-uncommitted pair needs no commit
or stash made by hand.  Each pair then runs `perfbench/run.py --workload W --seed S
--seconds 20 --trace 0` once in each copy, with the same seed S (the pair's
number plus --seed), A first in even pairs and B first in odd ones.  The
runs set PYTHONDONTWRITEBYTECODE, so each starts from a fresh copy's state.
For each end-to-end metric the script prints both sides' medians and
quartiles, the relative change of the medians, and in how many pairs B read
lower than A.  Any run that is not correct or has failed operations is
reported and makes the exit status 1.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
METRICS = ("wall_s", "setup_s", "peak_rss_mb")


WORKTREE = "WORKTREE"


def resolve(rev: str) -> str:
    """rev itself, or for WORKTREE the commit of the working tree's
    uncommitted changes (`git stash create`), HEAD when it is clean."""
    if rev != WORKTREE:
        return rev
    stash = subprocess.run(["git", "-C", str(ROOT), "stash", "create"], check=True, capture_output=True, text=True)
    return stash.stdout.strip() or "HEAD"


def export(rev: str, into: Path) -> Path:
    """A copy of the tree of rev (resolve) under `into`."""
    into.mkdir()
    rev = resolve(rev)
    archive = subprocess.run(["git", "-C", str(ROOT), "archive", rev], check=True, capture_output=True).stdout
    subprocess.run(["tar", "-x", "-C", str(into)], input=archive, check=True)
    return into


def run_once(copy: Path, workload: str, seed: int) -> dict:
    """The final JSON line of one untraced 20 s benchmark run in `copy`."""
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", "20", "--trace", "0"],
        cwd=copy, env=env, capture_output=True, text=True,
    )
    if done.returncode:
        raise SystemExit(f"run failed in {copy} (exit {done.returncode}):\n{done.stderr}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def quartiles(values) -> tuple:
    """(first quartile, median, third quartile)."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("rev_a")
    parser.add_argument("rev_b")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seed", type=int, default=1, help="seed of the first pair")
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be >= 1")

    results = {"A": [], "B": []}
    sound = True
    with tempfile.TemporaryDirectory(prefix="bench-pairs-") as tmp:
        copies = {"A": export(args.rev_a, Path(tmp) / "a"), "B": export(args.rev_b, Path(tmp) / "b")}
        for i in range(args.pairs):
            seed = args.seed + i
            for side in ("AB" if i % 2 == 0 else "BA"):
                record = run_once(copies[side], args.workload, seed)
                if not record["correct"] or record["failed"]:
                    sound = False
                    print(f"pair {i + 1} {side}: correct={record['correct']} failed={record['failed']}", file=sys.stderr)
                results[side].append({name: record["metrics"][name]["value"] for name in METRICS})
            a, b = results["A"][-1]["wall_s"], results["B"][-1]["wall_s"]
            print(f"pair {i + 1}/{args.pairs} seed {seed}: wall_s {a:.4f} -> {b:.4f}", file=sys.stderr, flush=True)

    print(f"{args.workload}: A = {args.rev_a}, B = {args.rev_b}, {args.pairs} pairs")
    for name in METRICS:
        a = [r[name] for r in results["A"]]
        b = [r[name] for r in results["B"]]
        qa, qb = quartiles(a), quartiles(b)
        lower = sum(y < x for x, y in zip(a, b))
        change = (qb[1] - qa[1]) / qa[1] * 100
        print(
            f"  {name}: {qa[1]:.4f} ({qa[0]:.4f}-{qa[2]:.4f}) -> {qb[1]:.4f} ({qb[0]:.4f}-{qb[2]:.4f}),"
            f" {change:+.1f}%, B lower in {lower}/{args.pairs}"
        )
    return 0 if sound else 1


if __name__ == "__main__":
    sys.exit(main())
