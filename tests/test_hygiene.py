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
