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


_MPOLY_INTERNALS = {"terms", "_raw", "_normalize", "_SHIFT", "_SHIFTS", "_MASK", "_HIGH_BITS", "_pack", "_unpack",
                    "_guard"}


@pytest.mark.parametrize("path", [p for p in SOURCES if p.name != "poly.py"], ids=lambda path: path.name)
def test_only_poly_reads_mpoly_internals(path):
    # packed keys, their packing guard and the unchecked constructor belong to
    # poly.py; every other module goes through MPoly's public methods
    found = []
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Attribute):
            name = node.attr
        elif isinstance(node, ast.Name):
            name = node.id
        elif isinstance(node, ast.alias):
            name = node.name
        else:
            continue
        if name in _MPOLY_INTERNALS:
            found.append(f"{name} at line {node.lineno}")
    assert found == [], f"{path.name} reads MPoly internals: {found}"


def _calls(tree, test):
    return [node for node in ast.walk(tree) if isinstance(node, ast.Call) and test(node.func)]


def _is_dumps(func):
    return (isinstance(func, ast.Attribute) and func.attr == "dumps"
            or isinstance(func, ast.Name) and func.id == "dumps")


def _is_super_to_json(func):
    return (isinstance(func, ast.Attribute) and func.attr == "to_json" and isinstance(func.value, ast.Call)
            and isinstance(func.value.func, ast.Name) and func.value.func.id == "super")


def test_json_dumps_is_called_only_in_emit():
    # the document rule is applied once, by json_value at the top of
    # cli._emit, so nothing else in the library serializes a document
    found = []
    for path in SOURCES:
        tree = ast.parse(path.read_text(), filename=str(path))
        allowed = ()
        if path.name == "cli.py":
            for node in tree.body:
                if isinstance(node, ast.FunctionDef) and node.name == "_emit":
                    allowed = range(node.lineno, node.end_lineno + 1)
        found += [f"{path.name}:{call.lineno}" for call in _calls(tree, _is_dumps) if call.lineno not in allowed]
    assert found == [], f"json.dumps outside cli._emit: {found}"


def test_every_to_json_builds_on_record():
    # a record's document is Record.to_json's, through json_value; a
    # subclass may add entries that are not fields, never write its own
    found = []
    for path in SOURCES:
        if path.name == "_record.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.FunctionDef) and node.name == "to_json" and not _calls(node, _is_super_to_json):
                found.append(f"{path.name}:{node.lineno}")
    assert found == [], f"to_json without super().to_json(): {found}"


def _is_other_field_refusal(node):
    # raise TypeError("elements of different fields")
    exc = node.exc if isinstance(node, ast.Raise) else None
    return (isinstance(exc, ast.Call) and isinstance(exc.func, ast.Name) and exc.func.id == "TypeError"
            and [getattr(arg, "value", None) for arg in exc.args] == ["elements of different fields"])


def test_another_field_is_refused_in_one_place():
    # the coercion rule has one home, Field._val: the operators, Field.elem
    # and == reach it, so no other code refuses an element of another field
    tree = ast.parse(next(p for p in SOURCES if p.name == "ff.py").read_text())
    homes = [f"{cls.name}.{fn.name}" for cls in tree.body if isinstance(cls, ast.ClassDef)
             for fn in cls.body for node in ast.walk(fn) if _is_other_field_refusal(node)]
    assert homes == ["Field._val"]
    assert sum(map(_is_other_field_refusal, ast.walk(tree))) == 1
