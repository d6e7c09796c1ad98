"""Every public module-level function, class and constant of coper has a caller.

A name N defined in `src/coper/M.py` counts as used when `src/coper/` or
`coperbench/` refers to it by one of:
- `from coper.M import N` or `from .M import N` (or `from coper import N`
  through a re-export of `coper/__init__.py`);
- `alias.N`, where `alias` is bound to module M by an import;
- a bare `N` inside M, outside N's own definition.
The re-exports in `coper/__init__.py` are not uses themselves, and the tests
are not scanned: a name that only tests reach is surface nobody runs.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
# The tests' reference gradient checker.
ALLOWED = {("autodiff", "grad_check")}


def _definitions(tree: ast.Module) -> dict:
    """Public module-level names -> the statement that defines them."""
    out = {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            targets = [node.name]
        elif isinstance(node, ast.Assign):
            targets = [t.id for t in node.targets if isinstance(t, ast.Name)]
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            targets = [node.target.id]
        else:
            continue
        out.update({name: node for name in targets if not name.startswith("_")})
    return out


def _imported_module(node: ast.ImportFrom, in_package: bool) -> str | None:
    """The coper module an import-from reads: 'coper' for the package itself."""
    if node.level == 0 and node.module and (node.module == "coper" or node.module.startswith("coper.")):
        return node.module
    if node.level == 1 and in_package:
        return "coper" if node.module is None else f"coper.{node.module}"
    return None


def unused_public_names(root: Path) -> list:
    """(module, name) pairs that nothing but tests refers to, sorted."""
    src = root / "src" / "coper"
    trees = {p.stem: ast.parse(p.read_text()) for p in sorted(src.glob("*.py"))}
    package = trees.pop("__init__")
    reexports = {alias.asname or alias.name: (node.module, alias.name)
                 for node in package.body if isinstance(node, ast.ImportFrom)
                 for alias in node.names}
    defined = {m: _definitions(tree) for m, tree in trees.items()}
    used = set()

    scanned = [(m, tree, True) for m, tree in trees.items()]
    scanned += [(None, ast.parse(p.read_text()), False) for p in sorted((root / "coperbench").glob("*.py"))]
    for module, tree, in_package in scanned:
        aliases = {}  # local name -> coper module it is bound to
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    if alias.name.startswith("coper.") and alias.asname:
                        aliases[alias.asname] = alias.name.split(".", 1)[1]
            elif isinstance(node, ast.ImportFrom):
                source = _imported_module(node, in_package)
                if source is None:
                    continue
                for alias in node.names:
                    local = alias.asname or alias.name
                    if source == "coper" and alias.name in trees:
                        aliases[local] = alias.name
                    elif source == "coper" and alias.name in reexports:
                        used.add(reexports[alias.name])
                    elif source != "coper":
                        used.add((source.split(".", 1)[1], alias.name))
        for node in ast.walk(tree):
            if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                    and node.value.id in aliases):
                used.add((aliases[node.value.id], node.attr))
        if module is None:
            continue
        own = defined[module]
        inside = {}  # id of an AST node -> the name whose definition contains it
        for name, stmt in own.items():
            for sub in ast.walk(stmt):
                inside[id(sub)] = name
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and node.id in own and inside.get(id(node)) != node.id:
                used.add((module, node.id))

    return sorted((m, name) for m, names in defined.items() for name in names
                  if (m, name) not in used and (m, name) not in ALLOWED)


def test_every_public_name_has_a_caller_outside_tests():
    assert unused_public_names(ROOT) == []
    trees = {p.stem: ast.parse(p.read_text()) for p in (ROOT / "src" / "coper").glob("*.py")}
    for module, name in ALLOWED:  # an allowlist entry must name live code
        assert name in _definitions(trees[module])
