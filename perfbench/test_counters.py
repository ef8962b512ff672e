"""Tests of the benchmark itself.

* Two traced runs with one seed report identical counters on every
  workload; the second run uses another ``PYTHONHASHSEED``.
* Without the package next to it, the benchmark fails without a result.

Run from anywhere (about two minutes on two cores):

    python3 perfbench/test_counters.py
    python3 -m pytest perfbench/test_counters.py
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("corpus", "singular-high-degree", "cond2-heavy")
SEED = 3


def _run(cwd: Path, workload: str, trace: int, hash_seed: str) -> subprocess.CompletedProcess:
    env = dict(os.environ, PYTHONHASHSEED=hash_seed)
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(SEED), "--seconds", "1", "--trace", str(trace)],
        cwd=cwd, env=env, capture_output=True, text=True, timeout=600,
    )


def traced_counters(workload: str, hash_seed: str) -> dict:
    proc = _run(ROOT, workload, 1, hash_seed)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["correct"], proc.stderr
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]
    assert [m["name"] for m in declared] == list(result["metrics"])
    return {
        name: metric["value"]
        for name, metric in result["metrics"].items()
        if metric["unit"] != "s"
    }


def test_counters_repeat_exactly():
    for workload in WORKLOADS:
        first = traced_counters(workload, "1")
        second = traced_counters(workload, "2")
        assert first == second, {
            k: (first[k], second.get(k)) for k in first if first[k] != second.get(k)
        }
        assert first["milnor.validate_input.calls"] > 0


def test_fails_without_the_package():
    (ROOT / ".bench_out").mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=ROOT / ".bench_out") as tmp:
        bare = Path(tmp)
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(ROOT / "perfbench", bare / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = _run(bare, "corpus", 0, "0")
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


if __name__ == "__main__":
    test_fails_without_the_package()
    test_counters_repeat_exactly()
    print("ok")
