"""The library reads and sets no environment variable at all.

Experiment knobs behind env variables fork the code path a benchmark or
test actually exercises, and a default set at import leaks into the
caller's process; this scan keeps both from creeping back.
"""

import ast
import pathlib

PKG = pathlib.Path(__file__).resolve().parent.parent / "skar_ray"


def _is_environ(node) -> bool:
    return (isinstance(node, ast.Attribute) and node.attr == "environ") or (
        isinstance(node, ast.Name) and node.id == "environ"
    )


def _env_names(tree):
    """Key of every ``environ[...]``, ``environ.get/setdefault/pop`` and
    ``getenv`` use; None when the key is not a string literal."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Subscript) and _is_environ(node.value):
            key = node.slice
        elif isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute) and (
            (_is_environ(node.func.value) and node.func.attr in ("get", "setdefault", "pop"))
            or node.func.attr == "getenv"
        ):
            key = node.args[0] if node.args else None
        else:
            continue
        yield key.value if isinstance(key, ast.Constant) else None


def test_scanner_sees_every_read_form():
    src = 'os.environ["A"]; os.environ.get("B"); environ.pop("C"); os.getenv("D"); os.environ.get(k)'
    assert list(_env_names(ast.parse(src))) == ["A", "B", "C", "D", None]


def test_no_skar_env_read():
    reads = [
        (str(path.relative_to(PKG)), name)
        for path in sorted(PKG.rglob("*.py"))
        for name in _env_names(ast.parse(path.read_text()))
    ]
    assert list(PKG.rglob("*.py")), "scan found no modules"
    assert reads == []
