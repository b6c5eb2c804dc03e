"""Seeded query mix and its oracle over the source corpus.

The oracle filters the source table with plain ``pyarrow.compute`` (not
the library's clause dispatch) and compares the row count and an
order-insensitive digest of the projected rows.
"""

from __future__ import annotations

import hashlib
import random

import pyarrow as pa
import pyarrow.compute as pc

LOOKUP_COLUMNS = ["repo", "path", "commit"]
SCAN_COLUMNS = ["repo", "path"]
MISS_SHARE = 0.10
SCAN_EVERY = 10  # 9 lookups, then 1 scan
# identifier parts the synthetic code uses (skar_ray.corpus._IDENT_PARTS)
_TOKENS = ["encode", "decode", "manifest", "partition", "buffer", "offset",
           "handler", "stream", "filter", "config"]
_DIRS = ["src/", "lib/", "core/", "tests/", "util/", "pkg/"]


def make_ops(table: pa.Table, seed: int, n: int) -> list[dict]:
    """Fixed-order closed-loop op list: each group of ``SCAN_EVERY`` ops
    is 9 point lookups on repo/path/commit (values drawn from the corpus,
    ~10% guaranteed misses that prune to zero partitions) and one scan,
    alternating ``lang == X AND path prefix P`` and ``content contains T``."""
    rng = random.Random(seed)
    values = {c: sorted(set(table.column(c).to_pylist())) for c in LOOKUP_COLUMNS}
    langs = sorted(set(table.column("lang").to_pylist()))
    ops: list[dict] = []
    n_scans = 0
    for i in range(n):
        if i % SCAN_EVERY == SCAN_EVERY - 1:
            if n_scans % 2 == 0:
                filters = [[("lang", "==", rng.choice(langs)),
                            ("path", "prefix", rng.choice(_DIRS))]]
            else:
                filters = [[("content", "contains", rng.choice(_TOKENS) + "_")]]
            n_scans += 1
            ops.append({"kind": "scan", "columns": SCAN_COLUMNS, "filters": filters})
            continue
        col = rng.choice(LOOKUP_COLUMNS)
        if rng.random() < MISS_SHARE:
            # '~' sorts after every character the corpus uses, so the value
            # lies above every partition's max and is pruned everywhere
            value = f"~missing-{i}"
        else:
            value = rng.choice(values[col])
        ops.append({"kind": "lookup", "columns": LOOKUP_COLUMNS,
                    "filters": [[(col, "==", value)]]})
    return ops


def _clause(table: pa.Table, col: str, op: str, value) -> pa.ChunkedArray:
    a = table.column(col)
    if op == "==":
        return pc.equal(a, value)
    if op == "prefix":
        return pc.starts_with(a, pattern=value)
    if op == "contains":
        return pc.match_substring(a, pattern=value)
    raise ValueError(f"oracle has no op {op!r}")


def oracle(table: pa.Table, columns: list[str], filters) -> tuple[int, str]:
    mask = None
    for conj in filters:
        m = None
        for col, op, value in conj:
            c = _clause(table, col, op, value)
            m = c if m is None else pc.and_(m, c)
        mask = m if mask is None else pc.or_(mask, m)
    return digest(table.filter(mask).select(columns))


def digest(table: pa.Table) -> tuple[int, str]:
    """(rows, sha256 over the sorted projected rows)."""
    rows = sorted(zip(*(table.column(c).to_pylist() for c in table.column_names)))
    h = hashlib.sha256()
    for r in rows:
        h.update(repr(r).encode())
    return len(rows), h.hexdigest()
