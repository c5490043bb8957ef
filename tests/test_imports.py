"""Import and definition hygiene of the library: every import sits at module
top, every imported name is used, and every submodule imports on its own, so
no module relies on an import cycle being broken at call time.  Every
function parameter is read, every module-level private function has a
caller in the library, every nested function is read by the function
that encloses it, and every module-level constant is read by library code.
Every public name is one that something reads: the library, the README or
the benchmark tracer."""

import ast
import importlib.util
import re
import subprocess
import sys
from pathlib import Path

import pytest

import flexconn
import flexconn.cli  # noqa: F401  (registers the submodules the tracer looks up)
from flexconn.graph import LabeledGraph

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
MODULES = sorted(p.stem for p in (SRC / "flexconn").glob("*.py") if p.stem != "__init__")


def _function_level_imports(path: Path):
    tree = ast.parse(path.read_text(), str(path))
    for fn in ast.walk(tree):
        if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
            for node in ast.walk(fn):
                if isinstance(node, (ast.Import, ast.ImportFrom)):
                    yield f"{path.name}:{node.lineno} in {fn.name}"


def test_no_import_inside_a_function():
    found = [hit for path in sorted((SRC / "flexconn").glob("*.py"))
             for hit in _function_level_imports(path)]
    assert found == []


def _unused_imports(path: Path):
    """Names a module imports but never reads; quoted annotations count as
    reads.  `from __future__` imports are exempt."""
    tree = ast.parse(path.read_text(), str(path))
    imported = {}
    for node in tree.body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    annotations = [a for n in ast.walk(tree)
                   for a in (getattr(n, "annotation", None), getattr(n, "returns", None)) if a]
    for quoted in (c.value for a in annotations for c in ast.walk(a)
                   if isinstance(c, ast.Constant) and isinstance(c.value, str)):
        used |= {n.id for n in ast.walk(ast.parse(quoted, mode="eval")) if isinstance(n, ast.Name)}
    return [f"{path.name}:{line} {name}" for name, line in imported.items() if name not in used]


def test_no_unused_import():
    # __init__.py imports only to re-export
    found = [hit for module in MODULES for hit in _unused_imports(SRC / "flexconn" / f"{module}.py")]
    assert found == []


def _trees():
    return {path.name: ast.parse(path.read_text(), str(path))
            for path in sorted((SRC / "flexconn").glob("*.py"))}


def _unread_parameters(name, tree):
    """Parameters, `self` and `cls` aside, that no code of their function
    reads; a nested function reading one counts."""
    for fn in ast.walk(tree):
        if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        args = fn.args
        params = args.posonlyargs + args.args + args.kwonlyargs
        params += [a for a in (args.vararg, args.kwarg) if a]
        read = {n.id for n in ast.walk(fn) if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
        for a in params:
            if a.arg not in ("self", "cls") and a.arg not in read:
                yield f"{name}:{fn.lineno} {getattr(fn, 'name', 'lambda')}({a.arg})"


def test_every_parameter_is_read():
    trees = _trees()
    assert [hit for name, tree in trees.items() for hit in _unread_parameters(name, tree)] == []


def _walk_outside(tree, skip):
    """Every node of `tree` outside the node `skip`."""
    todo = [tree]
    while todo:
        node = todo.pop()
        if node is not skip:
            yield node
            todo.extend(ast.iter_child_nodes(node))


def _references(tree, skip):
    """Names read and attributes taken in `tree`, outside the node `skip`."""
    for node in _walk_outside(tree, skip):
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr


def test_every_private_function_has_a_caller():
    trees = _trees()
    private = [(name, fn) for name, tree in trees.items() for fn in tree.body
               if isinstance(fn, ast.FunctionDef) and fn.name.startswith("_")]
    uncalled = [f"{name}:{fn.lineno} {fn.name}" for name, fn in private
                if not any(fn.name in set(_references(tree, fn)) for tree in trees.values())]
    assert uncalled == []


FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)


def _nested_functions(fn):
    """The functions defined in `fn`'s own body, not in a deeper one."""
    todo = list(ast.iter_child_nodes(fn))
    while todo:
        node = todo.pop()
        if isinstance(node, FUNCTIONS):
            if not isinstance(node, ast.Lambda):
                yield node
        else:
            todo.extend(ast.iter_child_nodes(node))


def _unread_nested_functions(name, tree):
    """Nested functions that the enclosing function never reads: a helper
    left behind when the code that called it went away."""
    for fn in ast.walk(tree):
        if isinstance(fn, FUNCTIONS):
            for inner in _nested_functions(fn):
                if inner.name not in set(_references(fn, inner)):
                    yield f"{name}:{inner.lineno} {fn.name}.{inner.name}"


def test_every_nested_function_is_read():
    """Checked mutant: a `def forest_adj(members)` left uncalled inside
    `rainbow.max_rainbow_forest` fails this test."""
    trees = _trees()
    nested = [inner for tree in trees.values() for fn in ast.walk(tree)
              if isinstance(fn, FUNCTIONS) for inner in _nested_functions(fn)]
    assert len(nested) >= 5
    assert [hit for name, tree in trees.items() for hit in _unread_nested_functions(name, tree)] == []


CONSTANT = re.compile(r"_?[A-Z][A-Z0-9_]*")


def _constants(trees):
    """(file, assignment, name) of each module-level UPPER_CASE name."""
    for file, tree in trees.items():
        for stmt in tree.body:
            targets = (stmt.targets if isinstance(stmt, ast.Assign) else
                       [stmt.target] if isinstance(stmt, ast.AnnAssign) else [])
            for name in (n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)):
                if CONSTANT.fullmatch(name):
                    yield file, stmt, name


def _is_read(name, trees, skip):
    """Whether library code outside the node `skip` reads `name`, as a name
    or as an attribute."""
    return any(isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load) and n.id == name
               or isinstance(n, ast.Attribute) and n.attr == name
               for tree in trees.values() for n in _walk_outside(tree, skip))


def test_every_constant_is_read():
    """Checked mutant: the library with `APPROX_NUM, APPROX_DEN = 11, 7` in
    `fvc.py` and `ELEVEN_SEVENTHS = Fraction(11, 7)` in `harness.py`, which
    nothing read, fails on exactly those three names."""
    trees = _trees()
    constants = list(_constants(trees))
    assert len(constants) >= 5
    assert [f"{file} {name}" for file, stmt, name in constants
            if not _is_read(name, trees, stmt)] == []


@pytest.mark.parametrize("module", MODULES)
def test_submodule_imports_first(module):
    # a bare package object stands in for flexconn/__init__.py, which would
    # otherwise import every submodule in its own fixed order first
    code = ("import sys, types; pkg = types.ModuleType('flexconn'); "
            f"pkg.__path__ = [{str(SRC / 'flexconn')!r}]; sys.modules['flexconn'] = pkg; "
            f"import flexconn.{module}")
    run = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert run.returncode == 0, run.stderr


def _tracer_resolved():
    """Every object `perfbench/tracer.py` looks up to reach a traced name:
    the function, and for a method its class too."""
    spec = importlib.util.spec_from_file_location("perfbench_tracer", ROOT / "perfbench" / "tracer.py")
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    found = []
    for module, attr in tracer.SPANNED + tracer.COUNTED:
        owner = sys.modules[f"flexconn.{module}"]
        for part in attr.split("."):
            owner = getattr(owner, part)
            found.append(owner)
    return found


def _readme_names():
    """The identifiers in the README's code spans and code blocks, the
    blocks' `#` comments aside."""
    text = (ROOT / "README.md").read_text()
    return {word for span in re.findall(r"```.*?```|`[^`\n]+`", text, re.S)
            for word in re.findall(r"[A-Za-z_]\w*", re.sub(r"#.*", "", span))}


def _unread_public_names():
    """The names exported by `flexconn/__init__.py` and the public members
    of `LabeledGraph` that nothing reads.  An export counts as read when a
    library module other than its defining one names it: a name only its
    own module uses need not be exported.  A member counts as read when
    library code outside its definition takes it as an attribute, unless
    another library class defines a member of that name, since the AST
    cannot tell the two apart.  Either also counts as read when the README
    names it or the tracer resolves it."""
    trees = _trees()
    del trees["__init__.py"]
    readme, traced = _readme_names(), _tracer_resolved()
    init = ast.parse((SRC / "flexconn" / "__init__.py").read_text())
    exported = [alias.asname or alias.name for node in init.body
                if isinstance(node, ast.ImportFrom) for alias in node.names]
    graph_class = next(node for node in trees["graph.py"].body
                       if isinstance(node, ast.ClassDef) and node.name == "LabeledGraph")
    members, elsewhere = {}, set()
    for tree in trees.values():
        for cls in (n for n in ast.walk(tree) if isinstance(n, ast.ClassDef)):
            for node in cls.body:
                name = (node.name if isinstance(node, ast.FunctionDef) else
                        node.target.id if isinstance(node, ast.AnnAssign) else None)
                if name is None:
                    continue
                if cls is graph_class:
                    members[name] = node
                else:
                    elsewhere.add(name)
    unread = []
    for name in exported:
        obj = getattr(flexconn, name)
        home = obj.__module__.rsplit(".", 1)[-1] + ".py"
        read = any(name in set(_references(tree, None)) for file, tree in trees.items()
                   if file != home)
        if not (read or name in readme or any(obj is t for t in traced)):
            unread.append(name)
    for name, node in members.items():
        if name.startswith("_"):
            continue
        read = name not in elsewhere and any(
            isinstance(n, ast.Attribute) and n.attr == name
            for tree in trees.values() for n in _walk_outside(tree, node))
        if not (read or name in readme or any(getattr(LabeledGraph, name, None) is t for t in traced)):
            unread.append(f"LabeledGraph.{name}")
    return unread


def test_every_public_name_is_read():
    """Checked mutant: the library with its former per-edge record API (a
    record dataclass, a contraction result type, a vertex-set contraction,
    and a record constructor and two record views on `LabeledGraph`), read
    against this README, fails on exactly those six names."""
    assert _unread_public_names() == []
