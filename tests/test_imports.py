"""Every module of the package uses each name it imports, every public name
it defines has a caller, and only `arith` handles the time budget.

A name that no code in its module reads is a stale import, except where the
traced benchmark run patches that name on the module (`PATCHES` in
`perfbench/spans.py`): those imports are there to be patched."""

import ast
from pathlib import Path

from conftest import perfbench_patches

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "monodiv"


def _patched_names() -> set[tuple[str, str]]:
    return {
        (module.removeprefix("monodiv."), attr_path)
        for module, attr_path, *_ in perfbench_patches()
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
_SCOPES = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)
_SEQUENCES = {"tuple", "list", "set", "frozenset", "sorted", "reversed", "Iterator", "Iterable"}
_NONE = frozenset()


def _public_definitions(tree: ast.Module):
    """Public module-level functions and classes, and the public methods,
    properties and classmethods of those classes, as (qualified name, node,
    its class or None)."""
    for node in tree.body:
        if isinstance(node, _DEFS) and not node.name.startswith("_"):
            yield node.name, node, None
            if isinstance(node, ast.ClassDef):
                for item in node.body:
                    if isinstance(item, _DEFS) and not item.name.startswith("_"):
                        yield f"{node.name}.{item.name}", item, node.name


class _Package:
    """The classes and functions of the package, and the static types of
    expressions as far as annotations, constructors and calls of annotated
    functions tell.  A type is a frozenset of class names, ("seq", element
    type) and ("tuple", (component types))."""

    def __init__(self, trees):
        self.bases, self.members, self.fields, self.returns = {}, {}, {}, {}
        for tree in trees:
            for node in tree.body:
                if isinstance(node, ast.ClassDef):
                    self._add_class(node)
                elif isinstance(node, _SCOPES):
                    self.returns[node.name] = node.returns

    def _add_class(self, node: ast.ClassDef) -> None:
        self.bases[node.name] = [b.id for b in node.bases if isinstance(b, ast.Name)]
        self.members[node.name] = {
            item.name: item for item in node.body if isinstance(item, _DEFS)
        }
        fields = {
            item.target.id: item.annotation
            for item in node.body
            if isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name)
        }
        init = self.members[node.name].get("__init__")
        if init is not None:  # self.attr = parameter, in __init__
            params = {a.arg: a.annotation for a in init.args.args}
            for stmt in ast.walk(init):
                if isinstance(stmt, ast.Assign) and isinstance(stmt.value, ast.Name):
                    for t in stmt.targets:
                        if isinstance(t, ast.Attribute) and stmt.value.id in params:
                            fields[t.attr] = params[stmt.value.id]
        self.fields[node.name] = fields

    def mro(self, cls: str):
        yield cls
        for base in self.bases.get(cls, ()):
            if base in self.bases:
                yield from self.mro(base)

    def annotation(self, node) -> frozenset:
        if isinstance(node, ast.Constant) and isinstance(node.value, str):
            return self.annotation(ast.parse(node.value, mode="eval").body)
        if isinstance(node, ast.BinOp):
            return self.annotation(node.left) | self.annotation(node.right)
        if isinstance(node, ast.Name) and node.id in self.bases:
            return frozenset({node.id})
        if isinstance(node, ast.Attribute) and node.attr in self.bases:  # module.Class
            return frozenset({node.attr})
        if isinstance(node, ast.Subscript) and isinstance(node.value, ast.Name):
            args = node.slice.elts if isinstance(node.slice, ast.Tuple) else [node.slice]
            homogeneous = len(args) == 2 and isinstance(args[1], ast.Constant)
            if node.value.id == "tuple" and not homogeneous:
                return frozenset({("tuple", tuple(map(self.annotation, args)))})
            if node.value.id in _SEQUENCES:
                return frozenset({("seq", self.annotation(args[0]))})
        return _NONE

    def attribute(self, classes, attr: str) -> frozenset:
        """The type of attr read on an instance of one of classes."""
        out = _NONE
        for cls in classes:
            for c in self.mro(cls):
                if attr in self.fields[c]:
                    out |= self.annotation(self.fields[c][attr])
                    break
                member = self.members[c].get(attr)
                if member is not None:
                    if any(_name(d) in ("property", "cached_property") for d in member.decorator_list):
                        out |= self.annotation(member.returns)
                    break
        return out

    def returned(self, classes, attr: str) -> frozenset:
        """The type of a call of method attr on one of classes."""
        out = _NONE
        for cls in classes:
            member = next((self.members[c][attr] for c in self.mro(cls) if attr in self.members[c]), None)
            if isinstance(member, _SCOPES):
                out |= self.annotation(member.returns)
        return out

    def type_of(self, node, env) -> frozenset:
        if isinstance(node, ast.Name):
            return env.get(node.id, _NONE) | (frozenset({node.id}) if node.id in self.bases else _NONE)
        if isinstance(node, ast.Attribute):
            if node.attr in self.bases:  # a class through its module
                return frozenset({node.attr})
            return self.attribute(_classes(self.type_of(node.value, env)), node.attr)
        if isinstance(node, ast.Call):
            func, name = node.func, _name(node.func)
            if name in self.bases:
                return frozenset({name})
            if isinstance(func, ast.Name) and name in _SEQUENCES and node.args:
                return frozenset({("seq", _element(self.type_of(node.args[0], env)))})
            if isinstance(func, ast.Attribute):
                receiver = _classes(self.type_of(func.value, env))
                if receiver:
                    return self.returned(receiver, name)
            if name in self.returns:
                return self.annotation(self.returns[name])
            return _NONE
        if isinstance(node, ast.Subscript):
            value = self.type_of(node.value, env)
            index = node.slice.value if isinstance(node.slice, ast.Constant) else None
            return _component(value, index)
        if isinstance(node, ast.IfExp):
            return self.type_of(node.body, env) | self.type_of(node.orelse, env)
        if isinstance(node, ast.BoolOp):
            return frozenset().union(*(self.type_of(v, env) for v in node.values))
        if isinstance(node, (ast.GeneratorExp, ast.ListComp, ast.SetComp)):
            return frozenset({("seq", self.type_of(node.elt, env))})
        if isinstance(node, ast.Tuple):
            return frozenset({("tuple", tuple(self.type_of(e, env) for e in node.elts))})
        return _NONE

    def scope_env(self, scope, outer: dict, cls: str | None) -> dict:
        """Types of the names bound in one function (or the module), over
        its parameters, assignments, loops and comprehensions; later
        bindings add to earlier ones."""
        env = dict(outer)
        bindings = []
        if isinstance(scope, _SCOPES):
            params = [*scope.args.posonlyargs, *scope.args.args, *scope.args.kwonlyargs]
            for i, a in enumerate(params):
                if i == 0 and cls is not None:
                    env[a.arg] = frozenset({cls})  # self or cls
                elif a.annotation is not None:
                    env[a.arg] = self.annotation(a.annotation)
        for node in _local_nodes(scope):
            if isinstance(node, ast.Assign):
                bindings += [(t, node.value, False) for t in node.targets]
            elif isinstance(node, ast.AnnAssign):
                env[_name(node.target)] = self.annotation(node.annotation)
            elif isinstance(node, (ast.For, ast.comprehension)):
                bindings.append((node.target, node.iter, True))
        for _ in range(3):  # a binding may read names bound after it
            for target, value, iterated in bindings:
                typ = self.type_of(value, env)
                _bind(env, target, _element(typ) if iterated else typ)
        return env


def _name(node) -> str | None:
    return node.id if isinstance(node, ast.Name) else getattr(node, "attr", None)


def _classes(typ) -> set[str]:
    return {t for t in typ if isinstance(t, str)}


def _element(typ) -> frozenset:
    return _component(typ, None)


def _component(typ, index) -> frozenset:
    """The element of a sequence type, or component index of a tuple type
    (any component when index is None)."""
    out = _NONE
    for t in typ:
        if isinstance(t, tuple) and t[0] == "seq":
            out |= t[1]
        elif isinstance(t, tuple) and isinstance(index, int) and index < len(t[1]):
            out |= t[1][index]
        elif isinstance(t, tuple) and index is None:
            out = out.union(*t[1])
    return out


def _bind(env: dict, target, typ) -> None:
    if isinstance(target, ast.Name):
        env[target.id] = env.get(target.id, _NONE) | typ
    elif isinstance(target, (ast.Tuple, ast.List)):
        for i, elt in enumerate(target.elts):
            _bind(env, elt, _component(typ, i))


def _local_nodes(scope):
    """The nodes of a scope, without those of the functions and classes in it."""
    for child in ast.iter_child_nodes(scope):
        yield child
        if not isinstance(child, (*_SCOPES, ast.ClassDef)):
            yield from _local_nodes(child)


def _reads(package: _Package, node, env: dict, cls: str | None = None, enclosing: tuple = ()):
    """(name, the classes whose member it reads or None for a plain name,
    ids of the enclosing definitions) of every loaded name and attribute
    under node.  An attribute read resolves to the class in the receiver's
    method resolution order that defines it, and to none when the
    receiver's type is unknown."""
    if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
        yield node.id, None, enclosing
    elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
        receiver = _classes(package.type_of(node.value, env))
        owners = {
            next((k for k in package.mro(c) if node.attr in package.members[k]), None)
            for c in receiver
        }
        yield node.attr, owners, enclosing
    if isinstance(node, _DEFS):
        enclosing = (*enclosing, id(node))
    if isinstance(node, _SCOPES):
        env = package.scope_env(node, env, cls)
    inner_cls = node.name if isinstance(node, ast.ClassDef) else None
    for child in ast.iter_child_nodes(node):
        yield from _reads(package, child, env, inner_cls, enclosing)


def test_every_public_name_has_a_caller():
    trees = {path: ast.parse(path.read_text(), str(path)) for path in CALLERS}
    package = _Package(tree for path, tree in trees.items() if path.parent == PACKAGE)
    reads = [
        read
        for tree in trees.values()
        for read in _reads(package, tree, package.scope_env(tree, {}, None))
    ]
    uncalled = []
    for path, tree in trees.items():
        if path.parent != PACKAGE or path.name == "__init__.py":
            continue
        for qualified, node, cls in _public_definitions(tree):
            # a plain name is read as a name or as an attribute, a member as
            # an attribute of its class; a read inside the definition itself
            # (recursion) is no caller
            if not any(
                name == node.name
                and (cls is None or (owners is not None and cls in owners))
                and id(node) not in enclosing
                for name, owners, enclosing in reads
            ):
                uncalled.append(f"{path.stem}.{qualified}")
    assert uncalled == []


def test_annotations_resolve_a_class_through_its_module():
    # a member read through a parameter annotated Class or module.Class has
    # that class as its owner; an unknown class leaves the owner unknown
    package = _Package([ast.parse("class Box:\n    def size(self):\n        return 1\n")])
    callers = ast.parse(
        "def plain(b: Box):\n    return b.size()\n"
        "def dotted(b: shapes.Box):\n    return b.size()\n"
        "def quoted(b: 'shapes.Box'):\n    return b.size()\n"
        "def unknown(b: shapes.Other):\n    return b.size()\n"
    )
    owners = {
        fn.name: [owner for name, owner, _ in _reads(package, fn, {}) if name == "size"]
        for fn in callers.body
    }
    assert owners == {
        "plain": [{"Box"}],
        "dotted": [{"Box"}],
        "quoted": [{"Box"}],
        "unknown": [set()],
    }


# One deadline per request: the entry points that take budget_ms open it
# (arith._Request), arith holds it, and only rho reads it.


def _package_trees():
    return {path.stem: ast.parse(path.read_text(), str(path)) for path in sorted(PACKAGE.glob("*.py"))}


def test_only_arith_reads_the_clock_and_the_deadline():
    readers = set()
    for module, tree in _package_trees().items():
        for node in ast.walk(tree):
            imported = isinstance(node, ast.Import) and any(a.name == "time" for a in node.names)
            imported |= isinstance(node, ast.ImportFrom) and (
                node.module == "time" or any(a.name == "_DEADLINE" for a in node.names)
            )
            if imported or getattr(node, "id", getattr(node, "attr", None)) == "_DEADLINE":
                readers.add(module)
    assert readers == {"arith"}


def test_no_budget_is_passed_below_the_entry_points():
    passing = {
        f"{module}:{node.lineno}"
        for module, tree in _package_trees().items()
        if module not in ("arith", "cli")
        for node in ast.walk(tree)
        if isinstance(node, ast.Call) and any(k.arg == "budget_ms" for k in node.keywords)
    }
    assert passing == set()


def test_no_function_takes_a_deadline():
    taking = {
        f"{module}.{node.name}"
        for module, tree in _package_trees().items()
        for node in ast.walk(tree)
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        for arg in (*node.args.posonlyargs, *node.args.args, *node.args.kwonlyargs)
        if arg.arg == "deadline"
    }
    assert taking == set()
