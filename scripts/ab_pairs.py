#!/usr/bin/env python3
"""Alternating A/B runs of the benchmark: a parent revision against the
checkout this script sits in.

    python3 scripts/ab_pairs.py --pairs 10 --workload singular-high-degree --seed 0 --seconds 40

The parent revision (``--parent``, HEAD by default, so that uncommitted
changes are measured against their commit) is checked out into a
temporary ``git worktree``; both sides run their own, unchanged
``perfbench/run.py --trace 0`` with the same settings, one after the other,
and the side that runs first alternates from pair to pair.  Before every
run the side's ``__pycache__`` directories are deleted and bytecode writing
is off, so that both import from source as a fresh checkout does.

Printed: every pair's end-to-end metrics as parent/change, then for each
metric both sides' medians and quartiles, the pairs the change wins (ties
count for neither side) and whether a gain may be claimed: at least ten
pairs, wins in at least nine tenths of them, and medians further apart
than the distance between the parent's quartiles.  The worktree is
removed on every exit.  Standard library only.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--parent", default="HEAD", help="git revision of the parent side")
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")
    return args


def end_to_end() -> list[dict]:
    """The end-to-end metrics that BENCHMARK.json declares, with the
    direction that counts as better."""
    return json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]


def git(*args: str) -> None:
    subprocess.run(["git", "-C", str(ROOT), *args], check=True, stdout=subprocess.DEVNULL)


def run_bench(side: Path, args: argparse.Namespace) -> dict[str, float]:
    """One benchmark run from the root of a checkout: its metrics by name."""
    for cache in [*side.glob("src/**/__pycache__"), *side.glob("perfbench/__pycache__")]:
        shutil.rmtree(cache, ignore_errors=True)
    env = {**os.environ, "PYTHONDONTWRITEBYTECODE": "1"}
    command = [
        sys.executable, "perfbench/run.py", "--workload", args.workload,
        "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", "0",
    ]
    done = subprocess.run(command, cwd=side, env=env, capture_output=True, text=True)
    if done.returncode != 0:
        raise RuntimeError(f"benchmark failed in {side}:\n{done.stderr}")
    result = json.loads(done.stdout.strip().splitlines()[-1])
    return {name: m["value"] for name, m in result["metrics"].items()}


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, median, q3


def summarize(pairs: list[tuple[dict, dict]], metrics: list[dict]) -> None:
    for m in metrics:
        name, lower = m["name"], m["better"] == "lower"
        parent = [p[name] for p, _ in pairs]
        change = [c[name] for _, c in pairs]
        wins = sum((c < p) if lower else (c > p) for p, c in zip(parent, change))
        p1, pm, p3 = quartiles(parent)
        c1, cm, c3 = quartiles(change)
        gap = (pm - cm) if lower else (cm - pm)
        claim = len(pairs) >= 10 and wins >= 0.9 * len(pairs) and gap > p3 - p1
        rel = f"{100 * (cm - pm) / pm:+.1f} %" if pm else "n/a"
        print(
            f"{name}: parent {pm:.6g} [{p1:.6g}, {p3:.6g}], change {cm:.6g} [{c1:.6g}, {c3:.6g}] "
            f"({rel}); change better in {wins}/{len(pairs)}; parent IQR {p3 - p1:.3g}; "
            f"gain {'claimable' if claim else 'not shown'}"
        )


def main(argv=None) -> int:
    args = parse_args(argv)
    metrics = end_to_end()
    tmp = Path(tempfile.mkdtemp(prefix="ab-pairs-"))
    parent_root = tmp / "parent"
    git("worktree", "add", "--detach", str(parent_root), args.parent)
    try:
        pairs = []
        for i in range(args.pairs):
            order = [("parent", parent_root), ("change", ROOT)]
            if i % 2:
                order.reverse()
            got = {label: run_bench(side, args) for label, side in order}
            pairs.append((got["parent"], got["change"]))
            cells = ", ".join(
                f"{m['name']} {got['parent'][m['name']]:.6g}/{got['change'][m['name']]:.6g}"
                for m in metrics
            )
            print(f"pair {i + 1} ({order[0][0]} first): {cells}", flush=True)
        print(f"workload={args.workload} seed={args.seed} seconds={args.seconds} parent={args.parent}")
        summarize(pairs, metrics)
    finally:
        git("worktree", "remove", "--force", str(parent_root))
        shutil.rmtree(tmp, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
