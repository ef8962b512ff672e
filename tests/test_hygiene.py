"""Dead-code checks on the package source, standing in for a linter: every
function is used by the package itself (or is part of the interface the
acceptance suite imports), every import is used, and every defaulted
parameter is set by some real caller.  Stdlib ``ast`` only."""

import ast
from collections import Counter
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "veroav"
ACCEPTANCE = Path(__file__).resolve().parent / "test_acceptance.py"


def _modules() -> dict[str, ast.Module]:
    return {p.name: ast.parse(p.read_text(), str(p)) for p in sorted(SRC.glob("*.py"))}


def _identifiers(node: ast.AST) -> Counter[str]:
    """How often each identifier is read or each attribute accessed under
    node."""
    out: Counter[str] = Counter()
    for cur in ast.walk(node):
        if isinstance(cur, ast.Name):
            out[cur.id] += 1
        elif isinstance(cur, ast.Attribute):
            out[cur.attr] += 1
    return out


def _imported_by(tree: ast.Module) -> set[str]:
    return {
        alias.asname or alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    }


def _unused_functions(modules: dict[str, ast.Module], public: set[str]) -> list[str]:
    """Functions whose names no module mentions outside their own body, so
    that a function's uses of itself do not count.  Identifiers are counted
    once per module, and each function's own are subtracted from the total."""
    total: Counter[str] = sum(map(_identifiers, modules.values()), Counter())
    unused = []
    for fname, tree in modules.items():
        for node in ast.walk(tree):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            name = node.name
            if name.startswith("__") and name.endswith("__") or name in public:
                continue
            if total[name] == _identifiers(node)[name]:
                unused.append(f"{fname}:{node.lineno} {name}")
    return unused


def test_every_function_is_used_by_the_package_or_the_acceptance_suite():
    public = _imported_by(ast.parse(ACCEPTANCE.read_text()))
    unused = _unused_functions(_modules(), public)
    assert not unused, "functions nothing in the package calls: " + ", ".join(unused)


def test_the_usage_check_flags_unused_and_self_only_functions():
    modules = {
        "a.py": ast.parse(
            "def unused(x):\n"
            "    return x\n"
            "def recursive(n):\n"
            "    return recursive(n - 1) if n else 0\n"
            "def helper(x):\n"
            "    return x\n"
        ),
        "b.py": ast.parse(
            "from a import helper\n"
            "def main():\n"
            "    return helper(2)\n"
        ),
    }
    assert _unused_functions(modules, {"main"}) == ["a.py:1 unused", "a.py:3 recursive"]


def test_every_import_is_used():
    unused = []
    for fname, tree in _modules().items():
        used = set(_identifiers(tree))
        if fname == "__init__.py":
            used |= {
                elt.value
                for node in ast.walk(tree)
                if isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)
                for elt in node.value.elts
            }
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    bound = alias.asname or alias.name.split(".")[0]
                    if bound not in used:
                        unused.append(f"{fname}:{node.lineno} {alias.name}")
    assert not unused, "imports never used: " + ", ".join(unused)


_MUTABLE_CALLS = {"dict", "list", "set", "defaultdict", "OrderedDict", "Counter", "deque"}
_MUTATING_METHODS = {
    "append", "extend", "insert", "pop", "remove", "clear", "update", "setdefault",
    "add", "discard", "popitem", "sort", "reverse", "appendleft", "extendleft",
}


def _module_level_containers(tree: ast.Module) -> set[str]:
    """Names the module binds at top level to a dict, list or set."""
    out = set()
    for node in tree.body:
        if isinstance(node, ast.Assign):
            targets, value = node.targets, node.value
        elif isinstance(node, ast.AnnAssign) and node.value is not None:
            targets, value = [node.target], node.value
        else:
            continue
        mutable = isinstance(
            value, (ast.Dict, ast.List, ast.Set, ast.DictComp, ast.ListComp, ast.SetComp)
        ) or (
            isinstance(value, ast.Call)
            and isinstance(value.func, ast.Name)
            and value.func.id in _MUTABLE_CALLS
        )
        if mutable:
            out |= {t.id for t in targets if isinstance(t, ast.Name)}
    return out


def _local_names(fn: ast.AST) -> set[str]:
    args = fn.args
    params = args.posonlyargs + args.args + args.kwonlyargs + [args.vararg, args.kwarg]
    names = {a.arg for a in params if a is not None}
    for node in ast.walk(fn):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
            names.add(node.id)
    return names


def _module_state_writes(fname: str, tree: ast.Module) -> list[str]:
    """Places where a function assigns into, deletes from or calls a
    mutating method on a module-level dict, list or set, or rebinds a
    module global."""
    containers = _module_level_containers(tree)
    found = []
    for fn in ast.walk(tree):
        if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        shared = containers - _local_names(fn)
        for node in ast.walk(fn):
            if isinstance(node, ast.Global):
                found.append(f"{fname}:{node.lineno} global {', '.join(node.names)}")
            elif (
                isinstance(node, ast.Subscript)
                and isinstance(node.ctx, (ast.Store, ast.Del))
                and isinstance(node.value, ast.Name)
                and node.value.id in shared
            ):
                found.append(f"{fname}:{node.lineno} item write to {node.value.id}")
            elif (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr in _MUTATING_METHODS
                and isinstance(node.func.value, ast.Name)
                and node.func.value.id in shared
            ):
                found.append(f"{fname}:{node.lineno} {node.func.value.id}.{node.func.attr}()")
    return found


def test_no_function_writes_module_level_state():
    """Every memo is an ``lru_cache`` or hangs off a cached object, so the
    benchmark's cache clearing reaches it."""
    offenders = [w for fname, tree in _modules().items() for w in _module_state_writes(fname, tree)]
    assert not offenders, "module-level state written by a function: " + ", ".join(offenders)


def test_the_module_state_check_flags_a_memo_dict():
    source = (
        "_MEMO = {}\n"
        "_SEEN: set = set()\n"
        "LIMIT = 3\n"
        "COUNT = 0\n"
        "def f(k):\n"
        "    _MEMO[k] = 1\n"
        "    _SEEN.add(k)\n"
        "    return _MEMO.get(k)\n"
        "def g(_MEMO):\n"
        "    _MEMO[0] = 1\n"
        "    local = {}\n"
        "    local[1] = LIMIT\n"
        "def h():\n"
        "    global COUNT\n"
        "    COUNT += 1\n"
    )
    assert _module_state_writes("m.py", ast.parse(source)) == [
        "m.py:6 item write to _MEMO",
        "m.py:7 _SEEN.add()",
        "m.py:14 global COUNT",
    ]


_MUTABLE_TYPES = {"list", "dict", "set", "List", "Dict", "Set"}


def _mutable_cached_returns(fname: str, tree: ast.Module) -> list[str]:
    """``lru_cache``-decorated functions whose return annotation is missing
    or whose outer type is a list, dict or set: a cached value is shared by
    every caller, so one caller's mutation would reach the next."""
    found = []
    for fn in ast.walk(tree):
        if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        if not any("lru_cache" in _identifiers(d) for d in fn.decorator_list):
            continue
        ret = fn.returns
        outer = ret.value if isinstance(ret, ast.Subscript) else ret
        name = outer.id if isinstance(outer, ast.Name) else getattr(outer, "attr", None)
        if ret is None or name in _MUTABLE_TYPES:
            found.append(f"{fname}:{fn.lineno} {fn.name}")
    return found


def test_no_cached_function_returns_a_mutable_container():
    offenders = [
        c for fname, tree in _modules().items() for c in _mutable_cached_returns(fname, tree)
    ]
    assert not offenders, "lru_cache over a mutable return value: " + ", ".join(offenders)


def test_the_cached_return_check_flags_a_list():
    source = (
        "@lru_cache\n"
        "def f() -> list[int]:\n"
        "    return [1]\n"
        "@functools.lru_cache(maxsize=8)\n"
        "def g(n) -> dict:\n"
        "    return {}\n"
        "@lru_cache(maxsize=None)\n"
        "def h(n):\n"
        "    return n\n"
        "@lru_cache(maxsize=None)\n"
        "def k(n) -> tuple[int, ...]:\n"
        "    return (n,)\n"
        "def plain() -> list[int]:\n"
        "    return []\n"
    )
    assert _mutable_cached_returns("m.py", ast.parse(source)) == [
        "m.py:2 f",
        "m.py:5 g",
        "m.py:8 h",
    ]


def _is_fraction_call(node: ast.AST) -> bool:
    return (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id == "Fraction"
    )


def _float_divisions(fname: str, tree: ast.Module) -> list[str]:
    """True divisions (``/`` or ``/=``) whose left operand is not a
    ``Fraction(...)`` call: with integral coefficients held as ints, such a
    division could quietly produce a float."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Div):
            left = node.left
        elif isinstance(node, ast.AugAssign) and isinstance(node.op, ast.Div):
            left = node.target
        else:
            continue
        if not _is_fraction_call(left):
            found.append(f"{fname}:{node.lineno} {ast.unparse(node)}")
    return found


def test_no_true_division_outside_fraction_arithmetic():
    offenders = [d for fname, tree in _modules().items() for d in _float_divisions(fname, tree)]
    assert not offenders, "true division that may yield a float: " + ", ".join(offenders)


def test_the_division_check_flags_int_division():
    source = (
        "def f(a, b, c):\n"
        "    x = a / b\n"
        "    y = Fraction(a) / b\n"
        "    z = Fraction(a, b) / c / 2\n"
        "    w = a // b\n"
        "    c /= 2\n"
        "    return x, y, z, w, c\n"
    )
    assert set(_float_divisions("m.py", ast.parse(source))) == {
        "m.py:2 a / b",
        "m.py:4 Fraction(a, b) / c / 2",
        "m.py:6 c /= 2",
    }


PERFBENCH = SRC.parent.parent / "perfbench"

# Defaulted parameters that stay although no caller above sets them.
_KEPT_DEFAULTS = {
    "main(argv)": "the console entry point: the script wrapper calls it with no "
    "argument, so it reads sys.argv, and the CLI tests pass argv",
}


def _callers() -> list[ast.Module]:
    files = [*sorted(SRC.glob("*.py")), *sorted(PERFBENCH.glob("*.py")), ACCEPTANCE]
    return [ast.parse(p.read_text(), str(p)) for p in files]


def _passed_arguments(callers: list[ast.Module]) -> dict[str, tuple[float, set[str]]]:
    """For every name called (the last part of ``a.b.name(...)``): the most
    positional arguments one call passes (unbounded past a ``*args``) and
    every keyword passed (``**kwargs`` stands for all of them, as "*")."""
    passed: dict[str, tuple[float, set[str]]] = {}
    for tree in callers:
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
            if name is None:
                continue
            npos = len(node.args)
            if any(isinstance(a, ast.Starred) for a in node.args):
                npos = float("inf")
            keywords = {k.arg or "*" for k in node.keywords}
            most, seen = passed.get(name, (0, set()))
            passed[name] = (max(most, npos), seen | keywords)
    return passed


def _defaulted_parameters(tree: ast.Module):
    """(callee name, function, parameter, position or None) for every
    parameter with a default; the position counts from the first argument a
    call passes, after ``self`` or ``cls``, and is None for keyword-only
    ones.  An ``__init__`` is called by its class's name."""
    methods = {
        id(fn): cls.name
        for cls in ast.walk(tree)
        if isinstance(cls, ast.ClassDef)
        for fn in cls.body
        if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef))
    }
    for fn in ast.walk(tree):
        if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        owner = methods.get(id(fn))
        static = any(getattr(d, "id", None) == "staticmethod" for d in fn.decorator_list)
        callee = owner if fn.name == "__init__" else fn.name
        args = fn.args
        positional = args.posonlyargs + args.args
        offset = 1 if owner is not None and not static else 0
        first_default = len(positional) - len(args.defaults)
        for i, a in enumerate(positional[first_default:], start=first_default):
            yield callee, fn, a.arg, i - offset
        for a, default in zip(args.kwonlyargs, args.kw_defaults):
            if default is not None:
                yield callee, fn, a.arg, None


def _unset_defaults(defs: dict[str, ast.Module], callers: list[ast.Module]) -> list[str]:
    """Defaulted parameters that no call among the callers passes, by
    keyword or by position."""
    passed = _passed_arguments(callers)
    found = []
    for fname, tree in defs.items():
        for callee, fn, param, position in _defaulted_parameters(tree):
            most, keywords = passed.get(callee, (0, set()))
            if param in keywords or "*" in keywords:
                continue
            if position is not None and most > position:
                continue
            found.append(f"{fname}:{fn.lineno} {fn.name}({param})")
    return found


def test_every_default_is_overridden_by_some_caller():
    """An option that nothing but a unit test sets is one more configuration
    to reason about for nothing: the package, the benchmark or the
    acceptance suite must pass every defaulted parameter somewhere."""
    unset = _unset_defaults(_modules(), _callers())
    kept = [u for u in unset if u.split(" ", 1)[1] in _KEPT_DEFAULTS]
    assert len(kept) == len(_KEPT_DEFAULTS), "stale exceptions: " + ", ".join(kept)
    offenders = [u for u in unset if u not in kept]
    assert not offenders, "defaults no caller overrides: " + ", ".join(offenders)


def test_the_default_check_flags_an_unused_option():
    definitions = (
        "def check_va(f, degree_cap=None):\n"
        "    return f\n"
        "def render(p, names=None, *, width=80):\n"
        "    return p\n"
        "class Report:\n"
        "    def __init__(self, verdict, note=''):\n"
        "        self.note = note\n"
        "    def show(self, full=False):\n"
        "        return full\n"
    )
    callers = (
        "check_va(f)\n"
        "render(p, names)\n"
        "Report(True, 'empty').show()\n"
    )
    assert _unset_defaults({"m.py": ast.parse(definitions)}, [ast.parse(callers)]) == [
        "m.py:1 check_va(degree_cap)",
        "m.py:3 render(width)",
        "m.py:8 show(full)",
    ]


def _modular_pair_loops(fname: str, tree: ast.Module) -> list[str]:
    """``_pair_loop`` calls outside ``modular_certificate`` whose modulus,
    the third argument, is not a literal 0: a GF(p) run anywhere else."""
    exempt = {
        id(node)
        for fn in ast.walk(tree)
        if isinstance(fn, ast.FunctionDef) and fn.name == "modular_certificate"
        for node in ast.walk(fn)
    }
    found = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call) or id(node) in exempt:
            continue
        func = node.func
        if (func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)) != "_pair_loop":
            continue
        keywords = {k.arg: k.value for k in node.keywords}
        modulus = node.args[2] if len(node.args) > 2 else keywords.get("modulus")
        if modulus is None or ast.unparse(modulus) != "0":
            found.append(f"{fname}:{node.lineno} {ast.unparse(node)}")
    return found


def test_every_gf_p_run_is_the_modular_certificate():
    """Over GF(p) the package runs one kind of Groebner computation, the
    homogeneous grevlex certificate, which refuses up front what could
    overflow a packed field: every other pair loop runs over Q."""
    modules = _modules()
    offenders = [c for fname, tree in modules.items() for c in _modular_pair_loops(fname, tree)]
    assert not offenders, "GF(p) pair loops outside modular_certificate: " + ", ".join(offenders)
    (certificate,) = [
        fn
        for fn in ast.walk(modules["groebner.py"])
        if isinstance(fn, ast.FunctionDef) and fn.name == "modular_certificate"
    ]
    assert "_pair_loop" in _identifiers(certificate)  # the exemption is not stale


def test_the_gf_p_run_check_flags_a_planted_modular_call():
    source = (
        "def buchberger(gens):\n"
        "    return _pair_loop(inputs, pk, 0, cap)\n"
        "def modular_certificate(gens):\n"
        "    return _pair_loop(inputs, pk, p, cap)\n"
        "def rogue(gens):\n"
        "    return groebner._pair_loop(inputs, pk, p, cap)\n"
        "def by_keyword(gens):\n"
        "    return _pair_loop(inputs, pk, modulus=MACAULAY_CHECK_PRIME, cap=cap)\n"
        "def over_q_by_keyword(gens):\n"
        "    return _pair_loop(inputs, pk, modulus=0, cap=cap)\n"
    )
    assert _modular_pair_loops("m.py", ast.parse(source)) == [
        "m.py:6 groebner._pair_loop(inputs, pk, p, cap)",
        "m.py:8 _pair_loop(inputs, pk, modulus=MACAULAY_CHECK_PRIME, cap=cap)",
    ]


_GF_P_RANK_NAMES = {"MACAULAY_CHECK_PRIME", "residues", "rank_residues"}


def _modular_ranks(fname: str, tree: ast.Module) -> list[str]:
    """``rank_residues`` calls outside ``_macaulay_rank_agrees``, and, in
    singlocus.py, every mention or import of a name of the GF(p) rank."""
    exempt = {
        id(node)
        for fn in ast.walk(tree)
        if isinstance(fn, ast.FunctionDef) and fn.name == "_macaulay_rank_agrees"
        for node in ast.walk(fn)
    }
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Call) and id(node) not in exempt:
            func = node.func
            name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
            if name == "rank_residues":
                found.append(f"{fname}:{node.lineno} {ast.unparse(node)}")
        if fname == "singlocus.py":
            if isinstance(node, ast.ImportFrom):
                names = {alias.name for alias in node.names}
            else:
                names = {getattr(node, "id", None), getattr(node, "attr", None)}
            found += [f"{fname}:{node.lineno} {name}" for name in sorted(names & _GF_P_RANK_NAMES)]
    return found


def test_the_one_gf_p_rank_is_the_condition_I_cross_check():
    """The local colengths are ranked exactly: the only rank mod p is the
    condition (I) cross-check's first one."""
    modules = _modules()
    offenders = [c for fname, tree in modules.items() for c in _modular_ranks(fname, tree)]
    assert not offenders, "GF(p) ranks outside the cross-check: " + ", ".join(offenders)
    (check,) = [
        fn
        for fn in ast.walk(modules["veronese.py"])
        if isinstance(fn, ast.FunctionDef) and fn.name == "_macaulay_rank_agrees"
    ]
    assert "rank_residues" in _identifiers(check)  # the exemption is not stale


def test_the_gf_p_rank_check_flags_planted_calls_and_names():
    source = (
        "def _macaulay_rank_agrees(f):\n"
        "    return rank_residues(rows, MACAULAY_CHECK_PRIME)\n"
        "def rogue(rows):\n"
        "    return linalg.rank_residues(rows, p)\n"
    )
    assert _modular_ranks("veronese.py", ast.parse(source)) == [
        "veronese.py:4 linalg.rank_residues(rows, p)",
    ]
    local = (
        "from veroav.groebner import MACAULAY_CHECK_PRIME, macaulay_rows\n"
        "def _local_colength(gens, k):\n"
        "    modular = [groebner.residues(g, MACAULAY_CHECK_PRIME) for g in gens]\n"
    )
    assert _modular_ranks("singlocus.py", ast.parse(local)) == [
        "singlocus.py:1 MACAULAY_CHECK_PRIME",
        "singlocus.py:3 residues",
        "singlocus.py:3 MACAULAY_CHECK_PRIME",
    ]


def _dataclass_imports(fname: str, tree: ast.Module) -> list[str]:
    """Imports of ``dataclasses``, by ``import`` or ``from ... import``."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            names = [node.module or ""]
        else:
            continue
        if any(name.split(".")[0] == "dataclasses" for name in names):
            found.append(f"{fname}:{node.lineno}")
    return found


def test_no_module_imports_dataclasses():
    """Record types are NamedTuples: building dataclasses took 12-16 ms of
    every start, and loading ``dataclasses`` pulls in ``inspect``."""
    offenders = [c for fname, tree in _modules().items() for c in _dataclass_imports(fname, tree)]
    assert not offenders, "dataclasses imported: " + ", ".join(offenders)


def test_the_dataclass_import_check_flags_both_forms():
    source = (
        "import dataclasses as dc\n"
        "from dataclasses import dataclass\n"
        "from typing import NamedTuple\n"
        "import os, dataclasses\n"
    )
    assert _dataclass_imports("m.py", ast.parse(source)) == ["m.py:1", "m.py:2", "m.py:4"]


def _module_random_calls(fname: str, tree: ast.Module) -> list[str]:
    """Calls that draw from the ``random`` module's shared generator, which
    no seed passed to the package reaches: a function of the module, as
    ``random.choice(...)`` or by a name imported from it, or an unseeded
    ``Random()``.  Methods of a ``random.Random(seed)`` or of an ``rng``
    argument are what seeded code calls."""
    modules = {
        alias.asname or alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.Import)
        for alias in node.names
        if alias.name == "random"
    }
    imported = {
        alias.asname or alias.name: alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.module == "random"
        for alias in node.names
    }
    found = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        if isinstance(func, ast.Attribute) and getattr(func.value, "id", None) in modules:
            name = func.attr
        elif isinstance(func, ast.Name) and func.id in imported:
            name = imported[func.id]
        else:
            continue
        if name != "Random" or not (node.args or node.keywords):
            found.append(f"{fname}:{node.lineno} {ast.unparse(node)}")
    return found


def test_no_module_level_random_call():
    """Seeded output is deterministic only while every draw comes from a
    generator the seed built."""
    offenders = [c for fname, tree in _modules().items() for c in _module_random_calls(fname, tree)]
    assert not offenders, "module-level random calls: " + ", ".join(offenders)


def test_the_random_check_flags_module_functions():
    source = (
        "import random\n"
        "import random as rnd\n"
        "from random import Random, choice\n"
        "from random import shuffle as mix\n"
        "def f(xs, rng, seed):\n"
        "    a = random.Random(seed).random()\n"
        "    b = rng.randint(0, 9)\n"
        "    c = random.randint(0, 9)\n"
        "    d = rnd.choice(xs)\n"
        "    e = choice(xs)\n"
        "    mix(xs)\n"
        "    g = Random()\n"
        "    h = Random(seed).choice(xs)\n"
        "    return rng.choice(xs)\n"
    )
    assert _module_random_calls("m.py", ast.parse(source)) == [
        "m.py:8 random.randint(0, 9)",
        "m.py:9 rnd.choice(xs)",
        "m.py:10 choice(xs)",
        "m.py:11 mix(xs)",
        "m.py:12 Random()",
    ]
