"""Every module of the package uses each name it imports.

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

