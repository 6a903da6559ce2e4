"""Every name a ``pwsync`` module imports is used there or re-exported,
no module imports another's private name, every private module-level
name is read somewhere in the package, ``import pwsync`` reaches no
integrator module, and every module stays under the parser's token
budget.

An import that nothing reads is dead code that still couples the module
to another; the scan reads each module's syntax tree with ``ast``.
"""

import ast
import tokenize
from pathlib import Path

import pytest

PACKAGE = Path(__file__).parents[1] / "src" / "pwsync"


def _imported(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.asname or alias.name.split(".")[0]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                yield alias.asname or alias.name


def _exported(tree):
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            return set(ast.literal_eval(node.value))
    return set()


@pytest.mark.parametrize("module", sorted(p.name for p in PACKAGE.glob("*.py")))
def test_every_import_is_used(module):
    tree = ast.parse((PACKAGE / module).read_text())
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    unused = sorted(set(_imported(tree)) - read - _exported(tree))
    assert not unused, f"{module} imports {', '.join(unused)} without using them"


def _private_definitions(tree):
    """Module-level ``def _x``, ``class _X`` and ``_X = ...`` names."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield node.name
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                for name in ast.walk(target):
                    if isinstance(name, ast.Name):
                        yield name.id


def _reads(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr


def test_every_private_name_is_read():
    # a helper left behind by a deletion is dead code; reads count from
    # any module of the package, so imported helpers are covered
    trees = {p.name: ast.parse(p.read_text()) for p in sorted(PACKAGE.glob("*.py"))}
    read = {name for tree in trees.values() for name in _reads(tree)}
    dead = sorted(f"{module}: {name}" for module, tree in trees.items()
                  for name in _private_definitions(tree)
                  if name.startswith("_") and not name.startswith("__") and name not in read)
    assert not dead, f"private names nothing reads: {', '.join(dead)}"


def test_no_module_imports_a_private_name_of_another():
    # a module's private names are its own; a module that needs one of
    # another's needs a public name for it
    imported = sorted(
        f"{path.name}: {alias.name}"
        for path in sorted(PACKAGE.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.ImportFrom)
        and (node.level > 0 or (node.module or "").split(".")[0] == "pwsync")
        for alias in node.names
        if alias.name.startswith("_") and not alias.name.startswith("__")
    )
    assert not imported, f"private names imported from another module: {', '.join(imported)}"


# ``import pwsync`` runs these modules' top levels; the integrator (sim,
# affine, sparse, csvformat) and cli load only where a function imports them
EAGER = ("__init__", "linalg", "dynamics", "graph", "certify", "scenarios")


def _module_level_imports(tree):
    """Package modules imported outside every function body."""
    stack = list(tree.body)
    while stack:
        node = stack.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        if isinstance(node, ast.ImportFrom):
            parts = (node.module or "").split(".")
            if node.level == 0 and parts[0] != "pwsync":
                continue
            inner = parts[node.level == 0:]
            if inner and inner[0]:
                yield inner[0]
            else:
                yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.Import):
            for alias in node.names:
                parts = alias.name.split(".")
                if parts[0] == "pwsync" and len(parts) > 1:
                    yield parts[1]
        stack.extend(ast.iter_child_nodes(node))


@pytest.mark.parametrize("module", EAGER)
def test_import_pwsync_loads_no_integrator(module):
    tree = ast.parse((PACKAGE / f"{module}.py").read_text())
    late = sorted(set(_module_level_imports(tree)) - set(EAGER))
    assert not late, f"{module}.py imports {', '.join(late)} at module level"


# CPython's parser keeps a module's tokens in one array that doubles in size
# past 8192 entries; every process compiles the modules it imports, so a
# module past that count raises the peak memory of every command.
TOKEN_BUDGET = 8192


@pytest.mark.parametrize("module", sorted(p.name for p in PACKAGE.glob("*.py")))
def test_every_module_stays_under_the_token_budget(module):
    with open(PACKAGE / module, "rb") as source:
        count = sum(1 for _ in tokenize.tokenize(source.readline))
    assert count < TOKEN_BUDGET, f"{module} holds {count} tokens; move code out of it"
