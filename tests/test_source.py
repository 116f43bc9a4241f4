"""Properties of the library source itself."""

import ast
from pathlib import Path

import pytest

SOURCES = sorted((Path(__file__).resolve().parents[1] / "src" / "hypoint").glob("*.py"))


@pytest.mark.parametrize("path", SOURCES, ids=lambda path: path.name)
def test_library_has_no_assert_statement(path):
    # python -O strips assert statements, so a check the library relies on
    # must raise explicitly
    tree = ast.parse(path.read_text(), filename=str(path))
    lines = [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert lines == [], f"{path.name} has assert statements at lines {lines}"


_CACHE_DECORATORS = {"cache", "lru_cache", "cached_property"}
_MUTATORS = {"setdefault", "update", "__setitem__"}


def _module_names(tree):
    names = set()
    for node in tree.body:
        targets = node.targets if isinstance(node, ast.Assign) else [node.target] if isinstance(node, ast.AnnAssign) else []
        names.update(t.id for t in targets if isinstance(t, ast.Name))
    return names


@pytest.mark.parametrize("path", SOURCES, ids=lambda path: path.name)
def test_library_keeps_no_memo_beyond_its_objects(path):
    # a memo lives on the object it serves (an atom's powers die with the
    # atom), so no functools cache decorator is imported and no function
    # rebinds a global or writes into a module-level container
    tree = ast.parse(path.read_text(), filename=str(path))
    module_names = _module_names(tree)
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "functools":
            found += [f"functools.{a.name} at line {node.lineno}" for a in node.names if a.name in _CACHE_DECORATORS]
        elif (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
              and node.value.id == "functools" and node.attr in _CACHE_DECORATORS):
            found.append(f"functools.{node.attr} at line {node.lineno}")
        elif isinstance(node, ast.Global):
            found.append(f"global {', '.join(node.names)} at line {node.lineno}")
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            for inner in ast.walk(node):
                target = None
                if isinstance(inner, ast.Subscript) and isinstance(inner.ctx, ast.Store):
                    target = inner.value
                elif (isinstance(inner, ast.Call) and isinstance(inner.func, ast.Attribute)
                      and inner.func.attr in _MUTATORS):
                    target = inner.func.value
                if isinstance(target, ast.Name) and target.id in module_names:
                    found.append(f"{node.name} writes module-level {target.id} at line {inner.lineno}")
    assert found == [], f"{path.name} keeps a memo beyond its objects: {found}"


def _private_definitions_and_uses():
    """Every single-underscore function, method and class defined in the
    library, as (file, name, first line, last line), and every use of a name
    (a Name or an attribute), as name -> [(file, line)]."""
    defs, uses = [], {}
    for path in SOURCES:
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                if node.name.startswith("_") and not node.name.startswith("__"):
                    defs.append((path.name, node.name, node.lineno, node.end_lineno))
            elif isinstance(node, (ast.Name, ast.Attribute)):
                name = node.id if isinstance(node, ast.Name) else node.attr
                uses.setdefault(name, []).append((path.name, node.lineno))
    return defs, uses


def test_every_private_definition_is_used():
    # a private helper nothing in the library names is dead code: a deleted
    # path must take its helpers with it (the tests do not count as a use)
    defs, uses = _private_definitions_and_uses()
    assert defs
    dead = [f"{name} ({fname}:{first})" for fname, name, first, last in defs
            if not any(f != fname or not first <= line <= last for f, line in uses.get(name, ()))]
    assert dead == [], f"private definitions no library code uses: {dead}"


def _unused_imports(tree):
    """Names a module imports but never reads; a name listed in __all__ is
    exported, so it counts as read."""
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(((a.asname or a.name.partition(".")[0]), node.lineno) for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(((a.asname or a.name), node.lineno) for a in node.names)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            used.update(ast.literal_eval(node.value))
    return sorted(f"{name} (line {line})" for name, line in imported.items() if name not in used)


@pytest.mark.parametrize("path", SOURCES, ids=lambda path: path.name)
def test_library_imports_only_names_it_uses(path):
    # an import left behind by a deleted path is dead code too
    unused = _unused_imports(ast.parse(path.read_text(), filename=str(path)))
    assert unused == [], f"{path.name} imports names it never uses: {unused}"
