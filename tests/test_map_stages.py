"""Every ``map_batches`` stage runs as a plain function on the task pool.

No stage passes a callable class (an actor pool), a ``concurrency``
bound or constructor arguments, and nothing imports the deleted
``skar_ray.runtime`` pool-sizing module.  Broadcast state is read
through ``groups.cached_get`` instead.

Nothing in the library imports polars either: every Ray worker already
holds pandas and pyarrow, and the first polars import in a worker
costs ~28 MB of resident memory (its runtime library is ~200 MB).
"""

import ast
import pathlib

ROOT = pathlib.Path(__file__).resolve().parent.parent
SCANNED = ("skar_ray", "tools")
ACTOR_KWARGS = {"concurrency", "fn_constructor_args", "fn_constructor_kwargs"}


def _modules():
    for top in SCANNED:
        for path in sorted((ROOT / top).rglob("*.py")):
            yield path, ast.parse(path.read_text())


def _callable_classes(tree) -> set[str]:
    return {
        node.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ClassDef)
        and any(isinstance(f, ast.FunctionDef) and f.name == "__call__" for f in node.body)
    }


def _terminal_name(node):
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    return None


def _map_batches_calls(tree):
    for node in ast.walk(tree):
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                and node.func.attr == "map_batches"):
            yield node


def _imported_modules(path: pathlib.Path, tree):
    """Absolute dotted name of every module an import statement names
    (``from pkg import mod`` yields both ``pkg`` and ``pkg.mod``)."""
    pkg = list(path.relative_to(ROOT).with_suffix("").parts[:-1])
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from (a.name for a in node.names)
        elif isinstance(node, ast.ImportFrom):
            base = pkg[: len(pkg) - node.level + 1] if node.level else []
            mod = ".".join(base + ([node.module] if node.module else []))
            yield mod
            yield from (f"{mod}.{a.name}" for a in node.names)


def _violations():
    trees = list(_modules())
    classes = set().union(*(_callable_classes(t) for _, t in trees))
    out = []
    for path, tree in trees:
        rel = str(path.relative_to(ROOT))
        for call in _map_batches_calls(tree):
            bad = sorted(ACTOR_KWARGS & {k.arg for k in call.keywords})
            if bad:
                out.append((rel, call.lineno, ",".join(bad)))
            fn = call.args[0] if call.args else None
            if _terminal_name(fn) in classes:
                out.append((rel, call.lineno, f"class {_terminal_name(fn)}"))
        for mod in _imported_modules(path, tree):
            if mod == "skar_ray.runtime":
                out.append((rel, 0, "imports skar_ray.runtime"))
    return out


def test_scanner_sees_every_actor_form():
    src = (
        "class C:\n    def __call__(self, b): return b\n"
        "ds.map_batches(C)\n"
        "ds.map_batches(mod.C, batch_format='pandas')\n"
        "ds.map_batches(f, concurrency=2)\n"
        "ds.map_batches(f, fn_constructor_args=(1,))\n"
        "ds.map_batches(f, fn_constructor_kwargs={})\n"
        "ds.map_batches(f, fn_kwargs={})\n"
    )
    tree = ast.parse(src)
    classes = _callable_classes(tree)
    assert classes == {"C"}
    flagged = [
        c.lineno for c in _map_batches_calls(tree)
        if ACTOR_KWARGS & {k.arg for k in c.keywords}
        or _terminal_name(c.args[0]) in classes
    ]
    assert sorted(flagged) == [3, 4, 5, 6, 7]
    mod_path = ROOT / "skar_ray" / "stages" / "x.py"
    imports = set(_imported_modules(mod_path, ast.parse(
        "from ..runtime import pool_size\nfrom .. import runtime\nimport skar_ray.runtime\n"
    )))
    assert {"skar_ray.runtime", "skar_ray.runtime.pool_size"} <= imports


def _polars_imports():
    return [
        (str(path.relative_to(ROOT)), mod)
        for path, tree in _modules()
        for mod in _imported_modules(path, tree)
        if mod.split(".")[0] == "polars"
    ]


def test_scanner_sees_every_polars_import():
    mod_path = ROOT / "skar_ray" / "stages" / "x.py"
    src = "import polars as pl\nfrom polars import col\nimport polars.selectors\nimport polarsx\n"
    got = [m for m in _imported_modules(mod_path, ast.parse(src)) if m.split(".")[0] == "polars"]
    assert sorted(set(got)) == ["polars", "polars.col", "polars.selectors"]


def test_nothing_imports_polars():
    assert list(_modules()), "scan found no modules"
    assert _polars_imports() == []


def test_every_map_stage_is_a_task_pool_function():
    assert list(_modules()), "scan found no modules"
    assert _violations() == []
