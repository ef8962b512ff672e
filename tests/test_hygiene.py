"""Dead-code checks on the package source, standing in for a linter: every
function is used by the package itself (or is part of the interface the
acceptance suite imports), and every import is used.  Stdlib ``ast`` only."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "veroav"
ACCEPTANCE = Path(__file__).resolve().parent / "test_acceptance.py"


def _modules() -> dict[str, ast.Module]:
    return {p.name: ast.parse(p.read_text(), str(p)) for p in sorted(SRC.glob("*.py"))}


def _names_used(node: ast.AST, skip: ast.AST | None = None) -> set[str]:
    """Every identifier read or attribute accessed under node, leaving out
    the subtree ``skip``."""
    out: set[str] = set()
    stack = [node]
    while stack:
        cur = stack.pop()
        if cur is skip:
            continue
        if isinstance(cur, ast.Name):
            out.add(cur.id)
        elif isinstance(cur, ast.Attribute):
            out.add(cur.attr)
        stack.extend(ast.iter_child_nodes(cur))
    return out


def _imported_by(tree: ast.Module) -> set[str]:
    return {
        alias.asname or alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    }


def test_every_function_is_used_by_the_package_or_the_acceptance_suite():
    modules = _modules()
    public = _imported_by(ast.parse(ACCEPTANCE.read_text()))
    unused = []
    for fname, tree in modules.items():
        for node in ast.walk(tree):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            name = node.name
            if name.startswith("__") and name.endswith("__") or name in public:
                continue
            if not any(name in _names_used(t, skip=node) for t in modules.values()):
                unused.append(f"{fname}:{node.lineno} {name}")
    assert not unused, "functions nothing in the package calls: " + ", ".join(unused)


def test_every_import_is_used():
    unused = []
    for fname, tree in _modules().items():
        used = _names_used(tree)
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
