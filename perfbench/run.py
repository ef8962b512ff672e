#!/usr/bin/env python3
"""Seeded closed-loop benchmark of the veroav decision procedure.

    python3 perfbench/run.py --workload corpus --seed 0 --seconds 40 --trace 0

Run from the root of a checkout; the package is imported from ``src/``.
One process, one thread, one client: instances run one after another, and
every instance starts with the package's ``lru_cache``s cleared, as every
command-line call does.  Passes over the instance set repeat until
``--seconds`` is used up (at least ``MIN_PASSES``).  Every output is checked
outside the timed region.  The reported pass and instance times are wall
times scaled to a fixed core speed by the reference loop of ``speed.py``,
timed between instances; so are the set-up times.  The raw wall times are
printed beside them.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  ``--trace 0`` reports the
end-to-end metrics; ``--trace 1`` alternates untraced and traced passes and
reports the per-layer metrics (see ``tracing.py``), and writes the spans of
the last traced pass to ``.bench_out/``.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import math
import os
import pkgutil
import platform
import resource
import statistics
import sys
import time
import types
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from speed import REFERENCE_S, reference_loop  # noqa: E402
from tracing import CACHES, Tracer, metric_names, metric_unit  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

PACKAGE = "veroav"
SETUP_REPEATS = 8
MIN_PASSES = 2
MIN_TRACED_PAIRS = 1


def import_package():
    """Import every module of the package; return them as a namespace."""
    pkg = importlib.import_module(PACKAGE)
    mods = {"package": pkg}
    for info in pkgutil.iter_modules(pkg.__path__):
        mods[info.name] = importlib.import_module(f"{PACKAGE}.{info.name}")
    return types.SimpleNamespace(**mods)


def forget_package() -> None:
    for key in [k for k in sys.modules if k == PACKAGE or k.startswith(PACKAGE + ".")]:
        del sys.modules[key]


def package_caches(m) -> list:
    """Every ``functools.lru_cache`` defined in the package."""
    return [
        value
        for mod in vars(m).values()
        for value in vars(mod).values()
        if callable(getattr(value, "cache_clear", None))
        and getattr(value, "__module__", None) == mod.__name__
    ]


def time_setups(workload, seed: int):
    """Import the package and build the instances ``SETUP_REPEATS`` times,
    dropping the package from ``sys.modules`` in between, with the reference
    loop timed before the first and after every set-up.  Returns the wall
    set-up times, the median reference-loop time, the last module namespace
    and its instances."""
    times, reference = [], [reference_loop()]
    for _ in range(SETUP_REPEATS):
        forget_package()
        gc.collect()  # free the previous import before timing the next
        start = time.perf_counter()
        m = import_package()
        instances = workload.make(m, seed)
        times.append(time.perf_counter() - start)
        reference.append(reference_loop())
    return times, statistics.median(reference), m, instances


def run_instance(m, workload, inst, seed, caches):
    """Run one instance cold; return its seconds and its failures."""
    for cache in caches:
        cache.cache_clear()
    start = time.perf_counter()
    try:
        out = workload.run(m, inst, seed)
    except Exception as exc:  # a failed instance-run is counted, not fatal
        return time.perf_counter() - start, [f"{type(exc).__name__}: {exc}"]
    elapsed = time.perf_counter() - start
    try:
        failures = workload.check(m, inst, out)
    except Exception as exc:
        failures = [f"gate raised {type(exc).__name__}: {exc}"]
    return elapsed, failures


class Run:
    """Timings and failures gathered over the passes of one run.  Wall
    times are kept as measured; ``reference_s[p]`` is the median time of the
    reference loop during pass ``p``, by which its times are normalised."""

    def __init__(self, instances):
        self.instances = instances
        self.pass_s: list[float] = []
        self.instance_s: list[list[float]] = [[] for _ in instances]
        self.reference_s: list[float] = []
        self.attempted = 0
        self.failed = 0
        self.failures: dict[str, list[str]] = {}

    def record(self, index: int, seconds: float, failures: list[str]) -> None:
        self.instance_s[index].append(seconds)
        self.attempted += 1
        if failures:
            self.failed += 1
            self.failures.setdefault(self.instances[index].name, failures)


def one_pass(m, workload, instances, seed, caches, run: Run, tracer=None) -> None:
    """One pass over the instances, with the reference loop timed before
    every instance and after the last (outside the instances' times)."""
    total = 0.0
    reference = []
    for index, inst in enumerate(instances):
        reference.append(reference_loop())
        if tracer is not None:
            tracer.instance = index
        seconds, failures = run_instance(m, workload, inst, seed, caches)
        if tracer is not None:
            tracer.add_cache_info()
        run.record(index, seconds, failures)
        total += seconds
    reference.append(reference_loop())
    run.pass_s.append(total)
    run.reference_s.append(statistics.median(reference))


def measure(m, workload, instances, seed, caches, seconds, tracer=None):
    """Repeat passes until ``seconds`` would be exceeded by one more.  With
    a tracer, every untraced pass is followed by a traced one."""
    plain, traced, layer_totals = Run(instances), Run(instances), []
    minimum = MIN_TRACED_PAIRS if tracer is not None else MIN_PASSES
    start = time.perf_counter()
    while True:
        one_pass(m, workload, instances, seed, caches, plain)
        if tracer is not None:
            tracer.reset()
            tracer.install()
            try:
                one_pass(m, workload, instances, seed, caches, traced, tracer)
            finally:
                tracer.uninstall()
            layer_totals.append(dict(tracer.totals))
        rounds = len(plain.pass_s)
        elapsed = time.perf_counter() - start
        if rounds >= minimum and elapsed * (rounds + 1) / rounds > seconds:
            return plain, traced, layer_totals


def timing_summary(name: str, samples: list[float], scale: float, unit: str) -> str:
    """Median, the highest percentile with at least ten samples beyond it
    (when there is one), and the sample count."""
    values = sorted(v * scale for v in samples)
    line = f"{name} median={statistics.median(values):.6g}{unit}"
    pct = 100 * (len(values) - 10) // len(values)
    if pct > 50:
        line += f" p{pct}={values[math.ceil(pct / 100 * len(values)) - 1]:.6g}{unit}"
    return line + f" min={values[0]:.6g}{unit} max={values[-1]:.6g}{unit} samples={len(values)}"


def geomean(values) -> float:
    return math.exp(statistics.fmean(math.log(v) for v in values))


def normalised(seconds: list[float], reference_s: list[float]) -> list[float]:
    """Wall times at the reference speed: each scaled by ``REFERENCE_S``
    over the reference loop's time measured alongside it."""
    return [s * REFERENCE_S / r for s, r in zip(seconds, reference_s)]


def end_to_end(setup_s, plain: Run, attempted: int, failed: int, peak_rss_mb: float) -> dict:
    per_instance_ms = [
        statistics.median(normalised(s, plain.reference_s)) * 1000 for s in plain.instance_s
    ]
    return {
        "setup_s": (statistics.median(setup_s), "s"),
        "pass_s": (statistics.median(normalised(plain.pass_s, plain.reference_s)), "s"),
        "instance_ms_geomean": (geomean(per_instance_ms), "ms"),
        "ok_frac": (1 - failed / attempted, "fraction"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }


def per_layer(plain: Run, traced: Run, layer_totals: list[dict]) -> dict:
    out = {
        name: (statistics.median(t[name] for t in layer_totals), metric_unit(name))
        for name in metric_names()
    }
    traced_s = statistics.median(normalised(traced.pass_s, traced.reference_s))
    out["trace.pass_s"] = (traced_s, "s")
    plain_s = statistics.median(normalised(plain.pass_s, plain.reference_s))
    out["trace.overhead_s"] = (traced_s - plain_s, "s")
    return out


def write_spans(tracer: Tracer, instances, workload: str, seed: int) -> Path:
    out_dir = Path.cwd() / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    path = out_dir / f"spans-{workload}-seed{seed}.json"
    origin = tracer.spans[0][1] if tracer.spans else 0.0
    payload = {
        "workload": workload,
        "seed": seed,
        "columns": ["name", "start_s", "end_s", "parent", "instance"],
        "instances": [inst.name for inst in instances],
        "spans": [[n, s - origin, e - origin, p, i] for n, s, e, p, i in tracer.spans],
    }
    path.write_text(json.dumps(payload) + "\n")
    return path


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    os.environ.pop("VA_DEGREE_CAP", None)
    src = Path.cwd() / "src"
    if not (src / PACKAGE / "__init__.py").is_file():
        print(f"no {PACKAGE} package under {src}; run from the root of a checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    workload = WORKLOADS[args.workload]

    setup_wall, reference, m, instances = time_setups(workload, args.seed)
    setup_s = normalised(setup_wall, [reference] * len(setup_wall))
    caches = package_caches(m)
    if workload.reference is not None:
        for inst in instances:
            for cache in caches:
                cache.cache_clear()
            try:
                inst.reference = workload.reference(m, inst)
            except Exception as exc:  # fails this instance's gate, not the run
                inst.reference_error = f"{type(exc).__name__}: {exc}"

    caches_of_record = {c: getattr(m.milnor, c) for c in CACHES if hasattr(m.milnor, c)}
    tracer = Tracer(PACKAGE, caches_of_record) if args.trace else None
    plain, traced, layer_totals = measure(
        m, workload, instances, args.seed, caches, args.seconds, tracer
    )
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    # set up again at the end, so that setup_s samples both ends of the run
    wall, reference = time_setups(workload, args.seed)[:2]
    setup_wall += wall
    setup_s += normalised(wall, [reference] * len(wall))
    attempted = plain.attempted + traced.attempted
    failed = plain.failed + traced.failed
    for name, failures in {**plain.failures, **traced.failures}.items():
        print(f"FAIL {name}: {'; '.join(failures)}", file=sys.stderr)

    print(
        f"workload={args.workload} seed={args.seed} instances={len(instances)} "
        f"passes={len(plain.pass_s)} traced_passes={len(traced.pass_s)} "
        f"python={platform.python_version()} nproc={os.cpu_count()}"
    )
    print(f"fail_frac {failed / attempted:.6g} ({failed}/{attempted} instance-runs)")
    if tracer is None:
        metrics = end_to_end(setup_s, plain, attempted, failed, peak_rss_mb)
        print(timing_summary("setup_s", setup_s, 1, "s"))
        print(timing_summary("wall_setup_s", setup_wall, 1, "s"))
        print(timing_summary("pass_s", normalised(plain.pass_s, plain.reference_s), 1, "s"))
        print(timing_summary("wall_pass_s", plain.pass_s, 1, "s"))
        print(timing_summary("wall_instance_ms", [t for ts in plain.instance_s for t in ts], 1000, "ms"))
        print(timing_summary("reference_loop_ms", plain.reference_s, 1000, "ms"))
        wall_ms = [statistics.median(s) * 1000 for s in plain.instance_s]
        print(f"wall_instance_ms_geomean {geomean(wall_ms):.6g} ms")
    else:
        metrics = per_layer(plain, traced, layer_totals)
        print(f"spans of the last traced pass: {write_spans(tracer, instances, args.workload, args.seed)}")
    for name, (value, unit) in metrics.items():
        print(f"{name} {value:.6g} {unit}")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
