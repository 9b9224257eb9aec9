"""Every module of the package uses each name it imports, and every public
name it defines has a caller.

A name that no code in its module reads is a stale import, except where the
traced benchmark run patches that name on the module (`PATCHES` in
`perfbench/spans.py`): those imports are there to be patched."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "monodiv"
SPANS = ROOT / "perfbench" / "spans.py"


def _patched_names() -> set[tuple[str, str]]:
    # executed from its source text, so no bytecode cache is written
    namespace = {"__name__": "perfbench_spans"}
    exec(compile(SPANS.read_text(), str(SPANS), "exec"), namespace)
    return {
        (module.removeprefix("monodiv."), attr_path)
        for module, attr_path, *_ in namespace["PATCHES"]
        if "." not in attr_path
    }


def _imported_names(tree: ast.Module) -> set[str]:
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                names.add((alias.asname or alias.name).split(".")[0])
    return names


def _used_names(tree: ast.Module) -> set[str]:
    return {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}


def test_no_stale_imports():
    allowed = _patched_names()
    modules = sorted(path for path in PACKAGE.glob("*.py") if path.name != "__init__.py")
    assert modules
    stale = []
    for path in modules:
        tree = ast.parse(path.read_text(), str(path))
        for name in sorted(_imported_names(tree) - _used_names(tree)):
            if (path.stem, name) not in allowed:
                stale.append(f"{path.stem}.{name}")
    assert stale == []


# Where a public name of the package may be read: the package itself, the
# benchmark's workloads and the acceptance suite.  Other tests do not count,
# so a name that only they read moves to tests/references.py.
CALLERS = (
    *sorted(PACKAGE.glob("*.py")),
    ROOT / "perfbench" / "workloads.py",
    ROOT / "tests" / "test_acceptance.py",
)

_DEFS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def _public_definitions(tree: ast.Module):
    """Public module-level functions and classes, and the public methods,
    properties and classmethods of those classes, as (qualified name, node,
    whether it is a member)."""
    for node in tree.body:
        if isinstance(node, _DEFS) and not node.name.startswith("_"):
            yield node.name, node, False
            if isinstance(node, ast.ClassDef):
                for item in node.body:
                    if isinstance(item, _DEFS) and not item.name.startswith("_"):
                        yield f"{node.name}.{item.name}", item, True


def _reads(node: ast.AST, enclosing: tuple = ()):
    """(name, whether it is an attribute, ids of the enclosing definitions)
    of every loaded name and attribute under node."""
    if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
        yield node.id, False, enclosing
    elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
        yield node.attr, True, enclosing
    if isinstance(node, _DEFS):
        enclosing = (*enclosing, id(node))
    for child in ast.iter_child_nodes(node):
        yield from _reads(child, enclosing)


def test_every_public_name_has_a_caller():
    trees = {path: ast.parse(path.read_text(), str(path)) for path in CALLERS}
    reads = [read for tree in trees.values() for read in _reads(tree)]
    uncalled = []
    for path, tree in trees.items():
        if path.parent != PACKAGE or path.name == "__init__.py":
            continue
        for qualified, node, member in _public_definitions(tree):
            # a member is read as an attribute, matched by its name alone; a
            # read inside the definition itself (recursion) is no caller
            if not any(
                name == node.name and (attribute or not member) and id(node) not in enclosing
                for name, attribute, enclosing in reads
            ):
                uncalled.append(f"{path.stem}.{qualified}")
    assert uncalled == []
