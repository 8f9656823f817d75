"""Every module under src/ and tests/ uses each name it imports; every
defaulted parameter of a function in src/structkit is passed by some call in
src/, tests/ or perfbench/ (a default no caller overrides is a constant);
every public top-level name in src/structkit is used in src/ or exported;
and every function perfbench traces by name exists."""

import ast
import importlib
from pathlib import Path

import pytest

import structkit

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "structkit"
# a package's __init__ imports names to re-export them
MODULES = sorted(p for d in ("src", "tests") for p in (ROOT / d).rglob("*.py")
                 if p.name != "__init__.py")
CALLERS = sorted(p for d in ("src", "tests", "perfbench")
                 for p in (ROOT / d).rglob("*.py"))


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                # `import a.b` binds `a`
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"line {line}: {name}" for name, line in sorted(imported.items())
            if name not in used]


def _defaulted(tree: ast.AST, owner: str = ""):
    """(called name, line, parameter, position or None) for each defaulted
    parameter of each function under tree, nested ones included."""
    for node in ast.iter_child_nodes(tree):
        if isinstance(node, ast.ClassDef):
            yield from _defaulted(node, node.name)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            args = node.args
            positional = args.posonlyargs + args.args
            decorators = {d.id for d in node.decorator_list
                          if isinstance(d, ast.Name)}
            # a method is called with its self or cls already bound
            bound = 1 if owner and "staticmethod" not in decorators else 0
            name = owner if owner and node.name == "__init__" else node.name
            first = len(positional) - len(args.defaults)
            for i in range(first, len(positional)):
                yield name, node.lineno, positional[i].arg, i - bound
            for arg, default in zip(args.kwonlyargs, args.kw_defaults):
                if default is not None:
                    yield name, node.lineno, arg.arg, None
            yield from _defaulted(node)
        else:
            yield from _defaulted(node, owner)


def _passed(trees) -> dict[str, tuple[float, set]]:
    """Called name -> (most positional arguments, keywords) over every call;
    a `*` argument counts as every position and a `**` one as every keyword."""
    passed = {}
    for tree in trees:
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            name = (func.id if isinstance(func, ast.Name)
                    else func.attr if isinstance(func, ast.Attribute) else None)
            if name is None:
                continue
            count = (float("inf") if any(isinstance(a, ast.Starred)
                                          for a in node.args)
                     else len(node.args))
            most, keywords = passed.get(name, (0, set()))
            keywords |= {k.arg for k in node.keywords}
            passed[name] = (max(most, count), keywords)
    return passed


def unpassed_defaults(defining: dict[str, str], calling: list[str]) -> list[str]:
    """`label:line name(param)` for each defaulted parameter of a function in
    the defining sources that no call in the calling sources passes."""
    passed = _passed(ast.parse(s) for s in calling)
    found = []
    for label, source in defining.items():
        for name, line, param, pos in _defaulted(ast.parse(source)):
            most, keywords = passed.get(name, (0, set()))
            if not (param in keywords or None in keywords
                    or (pos is not None and most > pos)):
                found.append(f"{label}:{line} {name}({param})")
    return found


def test_modules_found():
    assert {p.name for p in MODULES} >= {"cli.py", "test_cli.py"}


@pytest.mark.parametrize("path", MODULES, ids=lambda p: str(p.relative_to(ROOT)))
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def test_unused_import_check_sees_each_form():
    source = ("from __future__ import annotations\n"
              "import os\nimport os.path\nimport json as j\n"
              "from a import b, c as d\nfrom e import f\n"
              "def g(x: f): return d, os\n")
    assert unused_imports(source) == ["line 5: b", "line 4: j"]


def test_every_defaulted_parameter_is_passed():
    assert {p.parent.name for p in CALLERS} >= {"structkit", "tests", "perfbench"}
    defining = {str(p.relative_to(ROOT)): p.read_text()
                for p in CALLERS if "structkit" in p.parts}
    calling = [p.read_text() for p in CALLERS]
    assert unpassed_defaults(defining, calling) == []


def test_unpassed_default_check_sees_each_form():
    source = ("def f(a, b=1, c=2, *, d=3, e=4): pass\n"
              "f(0, 1, e=5)\n"
              "class K:\n"
              "    def __init__(self, x=0, y=0): pass\n"
              "    def m(self, p=0, q=0): pass\n"
              "    @staticmethod\n"
              "    def s(u=0, v=0): pass\n"
              "K(1).m(1)\nK.s(1)\n"
              "def g(n=0, m=0):\n"
              "    if n:\n"
              "        def h(k=0): return k\n"
              "    return h\n"
              "g(*[1, 2])\nK.s(**{})\n")
    assert unpassed_defaults({"m": source}, [source]) == [
        "m:1 f(c)", "m:1 f(d)", "m:4 K(y)", "m:5 m(q)", "m:12 h(k)"]


def _top_level(tree: ast.Module):
    """(name, statement) for each function, class and constant a module
    defines at its top level."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            yield node.name, node
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = (node.targets if isinstance(node, ast.Assign)
                       else [node.target])
            for target in targets:
                if isinstance(target, ast.Name):
                    yield target.id, node


def uncalled_public_names(modules: dict[str, str],
                          exported: list[str]) -> list[str]:
    """`module.name` for each top-level name without a leading `_` that is
    not exported and that no top-level statement of the modules references,
    its own definition aside."""
    trees = {name: ast.parse(source) for name, source in modules.items()}
    statements = [(node, {ref.id if isinstance(ref, ast.Name) else ref.attr
                          for ref in ast.walk(node)
                          if isinstance(ref, (ast.Name, ast.Attribute))})
                  for tree in trees.values() for node in tree.body]
    return [f"{module}.{name}" for module, tree in trees.items()
            for name, node in _top_level(tree)
            if not name.startswith("_") and name not in exported
            and not any(name in refs for other, refs in statements
                        if other is not node)]


def test_every_public_name_has_a_caller():
    # the package's __init__ only re-exports, so its imports call nothing
    modules = {p.stem: p.read_text() for p in sorted(PACKAGE.glob("*.py"))
               if p.name != "__init__.py"}
    assert {"cli", "structure"} <= set(modules)
    assert uncalled_public_names(modules, structkit.__all__) == []


def test_uncalled_public_name_check_sees_each_form():
    modules = {
        "a": ("LIMIT = 3\nSPARE: int = 4\n"
              "def used(k): return LIMIT\n"
              "def lonely(): return lonely()\n"
              "class Ghost:\n    pass\n"
              "class Kept:\n    pass\n"
              "def _private(): pass\n"
              "def exported(): pass\n"),
        "b": ("from . import a\nfrom .a import used\n"
              "if __name__ == '__main__':\n    used(a.Kept)\n"),
    }
    assert uncalled_public_names(modules, ["exported"]) == [
        "a.SPARE", "a.lonely", "a.Ghost"]


def test_every_traced_name_resolves():
    # perfbench wraps these by name; read the table without running perfbench
    tree = ast.parse((ROOT / "perfbench" / "tracing.py").read_text())
    traced = next(ast.literal_eval(node.value) for node in tree.body
                  if isinstance(node, ast.Assign)
                  and [getattr(t, "id", None) for t in node.targets]
                  == ["TRACED"])
    assert traced
    assert [f"{module}.{name}" for module, name in traced
            if not callable(getattr(importlib.import_module(
                f"structkit.{module}"), name, None))] == []
