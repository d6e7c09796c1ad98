"""Every public module-level function, class and constant of coper has a caller,
and every default of a public module-level function is overridden by one.

A name N defined in `src/coper/M.py` counts as used when `src/coper/` or
`coperbench/` refers to it by one of:
- `from coper.M import N` or `from .M import N`;
- `alias.N`, where `alias` is bound to module M by an import;
- a bare `N` inside M, outside N's own definition.
A name that a function binds itself, as a parameter or by assignment, is that
function's local inside it, not a reference to the module-level name.
A defaulted parameter of a public function counts as set when a call that
resolves to the function by the same rules passes it, by keyword or by
position (a `*args` or `**kwargs` in the call passes every parameter it
could reach).  The tests, `coperbench/test_*.py` among them, are not
scanned: a name or a default that only tests reach is surface nobody runs.

By the same resolution, no coper module reaches a private (`_`-prefixed)
name of another one, by an import or by `alias._name`: a name another
module needs is public.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
# (module, name) -> why nothing outside the tests needs to refer to it.
ALLOWED = {
    ("autodiff", "scale"): "only the benchmark's self-test calls it",
    ("evaluation", "decode_records"):
        "the reference decoder the tests and the benchmark's self-test compare `evaluate` against",
    ("evaluation", "greedy_predictor"): "only the benchmark's self-test calls it",
}
# (module, function, parameter) -> why no caller outside the tests sets it.
ALLOWED_DEFAULTS = {
    ("cli", "main", "argv"): "the console script passes none; a Python caller passes its own",
}


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


def _locals(tree: ast.Module) -> set:
    """ids of the Name nodes inside a function that binds their name itself,
    as a parameter or by assignment anywhere in its body."""
    out = set()
    for fn in ast.walk(tree):
        if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        args = fn.args
        bound = {a.arg for a in args.posonlyargs + args.args + args.kwonlyargs + [args.vararg, args.kwarg]
                 if a is not None}
        nodes = [n for n in ast.walk(fn) if isinstance(n, ast.Name)]
        bound |= {n.id for n in nodes if isinstance(n.ctx, ast.Store)}
        out |= {id(n) for n in nodes if n.id in bound}
    return out


def _imported_module(node: ast.ImportFrom, in_package: bool) -> str | None:
    """The coper module an import-from reads: 'coper' for the package itself."""
    if node.level == 0 and node.module and (node.module == "coper" or node.module.startswith("coper.")):
        return node.module
    if node.level == 1 and in_package:
        return "coper" if node.module is None else f"coper.{node.module}"
    return None


def _scan(root: Path):
    """(defined, used, calls, reached) over the modules of coper and the
    coperbench scripts.

    defined: module -> {public name: defining statement}.
    used: every (module, name) that is imported or referred to.
    calls: ((module, name), call) for every call whose callee resolves to a
    public name.
    reached: (module, (other module, name)) for every private name of
    another module that a coper module imports or refers to.
    """
    src = root / "src" / "coper"
    trees = {p.stem: ast.parse(p.read_text()) for p in sorted(src.glob("*.py"))}
    del trees["__init__"]
    defined = {m: _definitions(tree) for m, tree in trees.items()}
    used, calls, reached = set(), [], set()

    scanned = [(m, tree, True) for m, tree in trees.items()]
    scanned += [(None, ast.parse(p.read_text()), False) for p in sorted((root / "coperbench").glob("*.py"))
                if not p.name.startswith("test_")]
    for module, tree, in_package in scanned:
        aliases = {}  # local name -> coper module it is bound to
        names = {}    # local name -> (module, name) it is imported as
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
                    elif source != "coper":
                        names[local] = (source.split(".", 1)[1], alias.name)
        used.update(names.values())
        own = defined.get(module, {})
        inside = {}  # id of an AST node -> the name whose definition contains it
        for name, stmt in own.items():
            for sub in ast.walk(stmt):
                inside[id(sub)] = name
        local = _locals(tree)
        resolved = {}  # id of an expression -> the (module, name) it refers to
        for node in ast.walk(tree):
            if id(node) in local:
                continue
            if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                    and node.value.id in aliases and id(node.value) not in local):
                resolved[id(node)] = (aliases[node.value.id], node.attr)
            elif isinstance(node, ast.Name) and node.id in names:
                resolved[id(node)] = names[node.id]
            elif isinstance(node, ast.Name) and node.id in own and inside.get(id(node)) != node.id:
                resolved[id(node)] = (module, node.id)
        used.update(resolved.values())
        if in_package:
            reached.update((module, target) for target in [*names.values(), *resolved.values()]
                           if target[0] != module and target[1].startswith("_"))
        calls += [(resolved[id(node.func)], node) for node in ast.walk(tree)
                  if isinstance(node, ast.Call) and id(node.func) in resolved]
    return defined, used, calls, reached


def unused_public_names(root: Path) -> list:
    """(module, name) pairs that nothing but tests refers to, sorted."""
    defined, used, _, _ = _scan(root)
    return sorted((m, name) for m, names in defined.items() for name in names
                  if (m, name) not in used and (m, name) not in ALLOWED)


def _passed(fn: ast.FunctionDef, call: ast.Call) -> set:
    """Parameters of `fn` that `call` passes."""
    positional = [a.arg for a in fn.args.posonlyargs + fn.args.args]
    if any(kw.arg is None for kw in call.keywords):
        return set(positional) | {a.arg for a in fn.args.kwonlyargs}
    out = {kw.arg for kw in call.keywords}
    for i, arg in enumerate(call.args):
        if isinstance(arg, ast.Starred):
            return out | set(positional[i:])
        out |= set(positional[i:i + 1])
    return out


def _defaulted(fn: ast.FunctionDef) -> list:
    positional = fn.args.posonlyargs + fn.args.args
    out = [a.arg for a in positional[len(positional) - len(fn.args.defaults):]]
    return out + [a.arg for a, d in zip(fn.args.kwonlyargs, fn.args.kw_defaults) if d is not None]


def unset_defaults(root: Path) -> list:
    """(module, function, parameter) defaults that no call outside tests passes, sorted."""
    defined, _, calls, _ = _scan(root)
    passed = {}
    for (m, name), call in calls:
        fn = defined[m].get(name)
        if isinstance(fn, ast.FunctionDef):
            passed.setdefault((m, name), set()).update(_passed(fn, call))
    return sorted((m, name, param) for m, names in defined.items() for name, fn in names.items()
                  if isinstance(fn, ast.FunctionDef) for param in _defaulted(fn)
                  if param not in passed.get((m, name), set())
                  and (m, name, param) not in ALLOWED_DEFAULTS)


def test_every_public_name_has_a_caller_outside_tests():
    assert unused_public_names(ROOT) == []
    trees = {p.stem: ast.parse(p.read_text()) for p in (ROOT / "src" / "coper").glob("*.py")}
    for module, name in ALLOWED:  # an allowlist entry must name live code
        assert name in _definitions(trees[module])


def test_every_default_is_set_by_a_caller_outside_tests():
    assert unset_defaults(ROOT) == []
    trees = {p.stem: ast.parse(p.read_text()) for p in (ROOT / "src" / "coper").glob("*.py")}
    for module, name, param in ALLOWED_DEFAULTS:  # an allowlist entry must name a live default
        assert param in _defaulted(_definitions(trees[module])[name])


def private_reaches(root: Path) -> list:
    """(module, (other module, private name)) reaches between coper modules, sorted."""
    return sorted(_scan(root)[3])


def test_no_module_reaches_another_modules_private_name():
    assert private_reaches(ROOT) == []


def test_private_reaches_are_found(tmp_path):
    src = tmp_path / "src" / "coper"
    src.mkdir(parents=True)
    (src / "__init__.py").write_text("")
    (src / "a.py").write_text("def _hidden():\n    pass\n\n\ndef shown():\n    _hidden()\n")
    (src / "b.py").write_text("from .a import _hidden\n")
    (src / "c.py").write_text("from . import a\n\n\ndef f():\n    return a._hidden, a.shown\n")
    assert private_reaches(tmp_path) == [("b", ("a", "_hidden")), ("c", ("a", "_hidden"))]
