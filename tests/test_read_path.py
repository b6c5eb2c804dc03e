"""Every container read goes through the one chunk reader.

``state/container.py`` owns the reads: its ``read_chunks`` opens a
container once, reads each blob at most once and answers each need
from the encoded form or by ``auto.decode_column``.  Outside that
module nothing in the library seeks into a file or decodes a column
itself, so the encoded-or-decoded answers (and their NULL rule) have
one home.
"""

import ast
import pathlib

ROOT = pathlib.Path(__file__).resolve().parent.parent
SCANNED = ("skar_ray", "tools")
READER = ROOT / "skar_ray" / "state" / "container.py"
BANNED = {"seek", "decode_column"}


def _banned_calls(tree):
    """(line, name) of every call to ``x.seek(...)``, ``x.decode_column(...)``
    or a bare ``decode_column(...)``."""
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        f = node.func
        name = f.attr if isinstance(f, ast.Attribute) else f.id if isinstance(f, ast.Name) else None
        if name in BANNED and (name != "seek" or isinstance(f, ast.Attribute)):
            yield node.lineno, name


def _violations():
    out = []
    for top in SCANNED:
        for path in sorted((ROOT / top).rglob("*.py")):
            if path == READER:
                continue
            rel = str(path.relative_to(ROOT))
            out += [(rel, line, name) for line, name in _banned_calls(ast.parse(path.read_text()))]
    return out


def test_scanner_sees_every_read_form():
    src = (
        "f.seek(0)\n"
        "auto.decode_column(b, m, p, n)\n"
        "codecs_auto.decode_column(b, m, p, n)\n"
        "decode_column(b, m, p, n)\n"
        "seek(0)\n"
        "container.read_chunks(path)\n"
        "x = auto.decode_column\n"
    )
    assert sorted(_banned_calls(ast.parse(src))) == [
        (1, "seek"), (2, "decode_column"), (3, "decode_column"), (4, "decode_column"),
    ]


def test_only_the_chunk_reader_reads_containers():
    assert READER.exists()
    assert list(_banned_calls(ast.parse(READER.read_text()))), "scan sees no read in the reader"
    assert _violations() == []
