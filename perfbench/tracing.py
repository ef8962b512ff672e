"""Span and counter recording from outside the package.

The tracer wraps public functions of ``veroav`` modules and rebinds every
``veroav.*`` module attribute that refers to one of them, so calls made
inside the package go through the wrapper too.  Each wrapped call records a
span (name, start, end, parent, instance) and updates per-function call
counts, inclusive time and self time.  Counters the package does not
report itself are read from arguments and return values.
"""

from __future__ import annotations

import sys
import time
from collections import defaultdict

# (module, function) pairs whose calls become spans.  ``polynomial``,
# ``orders`` and ``polyring`` are too fine-grained to wrap from outside;
# their cost shows as the callers' self time.
WRAPPED = {
    "parsing": ["parse_poly"],
    "milnor": [
        "validate_input", "condition_I", "gb_jacobian", "gb_jacobian_saturation",
        "jacobian_rref", "tjurina_total", "coincidence_threshold", "jacobian_module_dims",
    ],
    "veronese": ["check_va", "condition_II", "lefschetz_degree_one", "phi_base_locus"],
    "groebner": [
        "buchberger", "normal_form", "hilbert_value", "saturate_irrelevant",
        "saturate_by_variable", "intersect_ideals",
    ],
    "linalg": ["rref", "kernel_basis", "determinant", "quotient_coords", "quotient_matrix"],
    "ratpoints": ["rational_projective_points"],
    "introots": ["rational_roots"],
    "singlocus": ["singular_report", "local_invariants", "classify"],
    "apolar": ["inverse_system", "va_via_inverse_system", "apolar_action"],
    "corpus": ["run_entry"],
}

# The memoized Groebner bases and RREFs whose hits and misses are counted.
CACHES = ["gb_jacobian", "gb_jacobian_saturation", "jacobian_rref"]

# Return-value counters, keyed by metric name; each is summed over a pass
# unless its name ends in ``_max``.
COUNTERS = [
    "groebner.buchberger.basis_size_max",
    "veronese.condition_II.cert_gens",
    "veronese.condition_II.cert_coeff_bits_max",
    "linalg.rref.cells",
    "linalg.rref.rank_sum",
    "veronese.lefschetz_degree_one.trials_used",
    "ratpoints.rational_projective_points.points",
] + [f"milnor.{c}.{k}" for c in CACHES for k in ("hits", "misses")]

BUCHBERGER_UNDER_COND2 = "groebner.buchberger.under_condition_II.self_s"


def _coeff_bits(gb) -> int:
    return max(
        (
            max(abs(c.numerator).bit_length(), c.denominator.bit_length())
            for g in gb.generators
            for c in g.terms.values()
        ),
        default=0,
    )


def _observe(name: str, args, result, totals: dict) -> None:
    """Update the return-value counters of one wrapped call."""
    if name == "groebner.buchberger":
        key = "groebner.buchberger.basis_size_max"
        totals[key] = max(totals[key], len(result.generators))
    elif name == "veronese.condition_II" and result.certificate is not None:
        totals["veronese.condition_II.cert_gens"] += len(result.certificate.generators)
        key = "veronese.condition_II.cert_coeff_bits_max"
        totals[key] = max(totals[key], _coeff_bits(result.certificate))
    elif name == "linalg.rref":
        totals["linalg.rref.cells"] += args[0].rows * args[0].cols
        totals["linalg.rref.rank_sum"] += result.rank
    elif name == "veronese.lefschetz_degree_one":
        totals["veronese.lefschetz_degree_one.trials_used"] += len(result.determinants)
    elif name == "ratpoints.rational_projective_points":
        totals["ratpoints.rational_projective_points.points"] += len(result[0])


def metric_names() -> list[str]:
    """Every per-layer metric a traced run reports, in a fixed order."""
    names = []
    for module, fns in WRAPPED.items():
        for fn in fns:
            names += [f"{module}.{fn}.calls", f"{module}.{fn}.s", f"{module}.{fn}.self_s"]
    return names + COUNTERS + [BUCHBERGER_UNDER_COND2]


def metric_unit(name: str) -> str:
    if name.endswith(("_s", ".s")):
        return "s"
    return "bits" if name.endswith("_bits_max") else "count"


class Tracer:
    """Records spans and per-function totals for the wrapped functions.

    ``install`` rebinds the module attributes, ``uninstall`` restores them,
    so untraced passes run the package exactly as imported.
    """

    def __init__(self, package: str, caches: dict):
        self.package = package
        self.caches = caches  # name -> the memoized function, as imported
        self.spans: list[list] = []
        self.instance = -1
        self._stack: list[list] = []  # [span index, seconds in wrapped callees]
        self._active: dict[str, int] = defaultdict(int)
        self._bindings: list[tuple[object, str, object, object]] = []
        self.reset()

    def reset(self) -> None:
        """Start a fresh set of totals and spans."""
        self.spans = []
        self.totals: dict[str, float] = {name: 0 for name in metric_names()}

    def _wrap(self, name: str, fn):
        stack, active, tracer = self._stack, self._active, self

        def wrapper(*args, **kwargs):
            spans = tracer.spans
            parent = stack[-1][0] if stack else None
            index = len(spans)
            spans.append([name, 0.0, 0.0, parent, tracer.instance])
            frame = [index, 0.0]
            stack.append(frame)
            active[name] += 1
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                active[name] -= 1
                spans[index][1] = start
                spans[index][2] = end
                elapsed = end - start
                self_s = elapsed - frame[1]
                totals = tracer.totals
                totals[f"{name}.calls"] += 1
                totals[f"{name}.self_s"] += self_s
                if not active[name]:  # inclusive time of the outermost call only
                    totals[f"{name}.s"] += elapsed
                if stack:
                    stack[-1][1] += elapsed
                if name == "groebner.buchberger" and active["veronese.condition_II"]:
                    totals[BUCHBERGER_UNDER_COND2] += self_s
            _observe(name, args, result, tracer.totals)
            return result

        return wrapper

    def install(self) -> None:
        modules = {
            key: mod
            for key, mod in list(sys.modules.items())
            if key == self.package or key.startswith(self.package + ".")
        }
        for module, fns in WRAPPED.items():
            home = modules.get(f"{self.package}.{module}")
            for fn in fns:
                original = getattr(home, fn, None)
                if original is None:  # removed from the package: reports 0
                    continue
                wrapper = self._wrap(f"{module}.{fn}", original)
                for mod in modules.values():
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            self._bindings.append((mod, attr, original, wrapper))
        for mod, attr, _original, wrapper in self._bindings:
            setattr(mod, attr, wrapper)

    def uninstall(self) -> None:
        for mod, attr, original, _wrapper in self._bindings:
            setattr(mod, attr, original)
        self._bindings = []

    def add_cache_info(self) -> None:
        """Fold one instance's ``cache_info()`` of each memoized function
        into the totals; the caches are cleared before every instance."""
        for cache, fn in self.caches.items():
            info = fn.cache_info()
            self.totals[f"milnor.{cache}.hits"] += info.hits
            self.totals[f"milnor.{cache}.misses"] += info.misses
