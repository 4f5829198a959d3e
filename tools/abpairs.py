"""Paired A/B runs of the benchmark: a base commit against the working tree.

    python tools/abpairs.py --base REF --workload W --pairs N --seconds S [--seed K]

exports the files committed at REF (``git archive``) into a temporary
directory and runs ``perfbench/run.py --workload W --seed K --seconds S``
N times in each tree, a pair at a time, the working tree first in even
pairs and the base first in odd ones, since which side of a pair runs
first moves the metrics on a shared machine.  Both sides run with
``PYTHONDONTWRITEBYTECODE=1``, so neither imports byte code the other
has not compiled.  From the JSON object on the last line of each run it
prints, per pair, the ratio change/base of every end-to-end metric that
BENCHMARK.json names, and of the unscaled times of the ``# raw`` lines;
then, per metric, each side's median and quartiles, the median of the
ratios, the number of pairs the change wins (ties count for neither
side) by the metric's ``better`` direction, and whether a gain in it may
be claimed: the change wins at least nine tenths of the pairs, and its
median is better than the base's by more than the distance between the
base's quartiles.
The exported tree is removed at the end; nothing under perfbench/ is
changed.  The exit status is 1 when a run fails or reports an incorrect
result.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def run_once(tree: Path, workload: str, seed: int, seconds: float) -> dict:
    """The metrics of one perfbench run in ``tree``, name -> value, with
    its unscaled times from the ``# raw`` lines as ``raw NAME``."""
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=tree, capture_output=True, text=True,
        env={**os.environ, "PYTHONDONTWRITEBYTECODE": "1"})
    lines = done.stdout.strip().splitlines()
    if done.returncode or not lines:
        raise SystemExit(f"perfbench failed in {tree} (status {done.returncode}):\n"
                         f"{done.stderr[-2000:]}")
    last = json.loads(lines[-1])
    if not last["correct"]:
        raise SystemExit(f"perfbench reported an incorrect result in {tree}")
    raw = {f"raw {line.split()[2]}": float(line.split()[3])
           for line in lines if line.startswith("# raw ")}
    return {**raw, **{name: entry["value"] for name, entry in last["metrics"].items()}}


def export(ref: str, into: Path) -> None:
    """The files committed at ``ref``, written under ``into``."""
    archive = subprocess.Popen(["git", "archive", "--format=tar", ref], cwd=ROOT,
                               stdout=subprocess.PIPE)
    with tarfile.open(fileobj=archive.stdout, mode="r|") as tar:
        tar.extractall(into, filter="data")
    if archive.wait():
        raise SystemExit(f"git archive {ref} failed")


def quartiles(values: list[float]) -> tuple[float, float, float]:
    low, mid, high = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    return low, mid, high


def wins(base: list[float], change: list[float], lower: bool) -> int:
    """The pairs ``(base[k], change[k])`` in which the change is better;
    ties count for neither side."""
    return sum((y < x) if lower else (y > x) for x, y in zip(base, change))


def claim_met(base: list[float], change: list[float], lower: bool) -> bool:
    """Whether a gain in a metric may be claimed from paired runs of it:
    the change wins at least nine tenths of the pairs, and its median is
    better than the base's by more than the base's quartile spread."""
    (b1, bm, b3), (_, cm, _) = quartiles(base), quartiles(change)
    return (10 * wins(base, change, lower) >= 9 * len(base)
            and (bm - cm if lower else cm - bm) > b3 - b1)


def report(metrics: list[dict], base: list[dict], change: list[dict]) -> None:
    names = [m["name"] for m in metrics]
    print("pair first  " + "  ".join(f"{name:>18}" for name in names))
    for k, (b, c) in enumerate(zip(base, change)):
        first = "change" if k % 2 == 0 else "base"
        print(f"{k:4} {first:6}" + "  ".join(
            f"{c[n] / b[n] - 1:>+18.1%}" if b.get(n) else f"{'-':>18}" for n in names))
    print(f"\n{'metric':>20} {'base median [q1, q3]':>32} {'change median [q1, q3]':>32} "
          f"{'ratio':>8} {'wins':>6}  claim")
    for m in metrics:
        n, lower = m["name"], m["better"] == "lower"
        b, c = [r.get(n, 0.0) for r in base], [r.get(n, 0.0) for r in change]
        ratios = [y / x for x, y in zip(b, c) if x]
        (b1, bm, b3), (c1, cm, c3) = quartiles(b), quartiles(c)
        ratio = f"{statistics.median(ratios) - 1:+.1%}" if ratios else "-"
        print(f"{n:>20} {bm:>12.4g} [{b1:.4g}, {b3:.4g}]".ljust(54)
              + f"{cm:>12.4g} [{c1:.4g}, {c3:.4g}]".ljust(33)
              + f"{ratio:>8} {wins(b, c, lower):>3}/{len(b)}  "
              + ("met" if claim_met(b, c, lower) else "not met"))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--base", required=True, help="the commit to compare against")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(argv)
    metrics = json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]
    # the unscaled times too: the speed clock's snippet shares the cache with
    # convalg, so a change in the memory convalg touches moves the scale
    metrics += [{"name": f"raw {m['name']}", "better": m["better"]} for m in metrics
                if m["unit"] in ("s", "ms")]
    base, change = [], []
    with tempfile.TemporaryDirectory(prefix="abpairs-") as scratch:
        tree = Path(scratch)
        export(args.base, tree)
        for k in range(args.pairs):
            sides = [(ROOT, change), (tree, base)]
            for where, into in sides if k % 2 == 0 else sides[::-1]:
                into.append(run_once(where, args.workload, args.seed, args.seconds))
            print(f"# pair {k} done", file=sys.stderr, flush=True)
    print(f"# {args.workload}, seed {args.seed}, {args.seconds:g} s runs, "
          f"{args.pairs} pairs, base {args.base}, change: the working tree")
    report(metrics, base, change)
    return 0


if __name__ == "__main__":
    sys.exit(main())
