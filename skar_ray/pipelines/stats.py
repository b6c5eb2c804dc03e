"""Store introspection — what the reference's folder/row-group index
exposes (db/mod.rs:217-305 range scans), as an operator: per-column
codec choices and byte accounting aggregated over a store's manifests
(driver-small — one row per partition × column), plus partition-level
health (row counts, digests present, fingerprints) and the encoded-form
aggregates (value counts, grouped byte totals, pair counts, grouped
min/max/sum, filtered group counts, distinct).  Each aggregate is one
Ray task per partition reading its container through the one chunk
reader, ``container.read_chunks``, so every aggregate follows the same
NULL rule (DuckDB's): a NULL group key is a group of its own, and a
NULL value adds nothing to a sum or a byte total."""

from __future__ import annotations

import operator
import os

import numpy as np
import pandas as pd

from ..state import container
from ..state import manifest as manifest_mod


def store_stats(out_dir: str) -> pd.DataFrame:
    """One row per column: chosen codec(s), raw/encoded byte totals,
    achieved ratio — straight from manifests, no container reads."""
    rows = []
    for pid, m in sorted(manifest_mod.scan_manifests(out_dir).items()):
        for col, st in (m.columns or {}).items():
            rows.append((col, st.get("codec"), st.get("raw_bytes", 0), st.get("enc_bytes", 0)))
    if not rows:
        return pd.DataFrame(columns=["column", "codecs", "raw_bytes", "enc_bytes", "ratio"])
    df = pd.DataFrame(rows, columns=["column", "codec", "raw_bytes", "enc_bytes"])
    agg = (
        df.groupby("column", as_index=False)
        .agg(codecs=("codec", lambda s: ",".join(sorted(set(s)))),
             raw_bytes=("raw_bytes", "sum"), enc_bytes=("enc_bytes", "sum"))
    )
    agg["ratio"] = (agg["raw_bytes"] / agg["enc_bytes"].clip(lower=1)).round(2)
    return agg.sort_values("column").reset_index(drop=True).astype(
        {"raw_bytes": "int64", "enc_bytes": "int64"}
    )


def _per_partition(out_dir: str, part_fn) -> list:
    """``part_fn(container path)`` as one Ray task per partition of the
    store; the partial results in partition order."""
    import ray

    task = ray.remote(part_fn)
    ms = manifest_mod.scan_manifests(out_dir)
    return ray.get([task.remote(os.path.join(out_dir, m.data_file)) for _, m in sorted(ms.items())])


def _merge_rec(cur: tuple | None, rec: tuple) -> tuple:
    """Merge two (n[, sum[, min, max]]) partials; None = SQL NULL (no
    non-NULL value in that partial) and is absorbed by any non-NULL."""
    if cur is None:
        return rec
    return tuple(
        b if a is None else a if b is None else f(a, b)
        for f, a, b in zip((operator.add, operator.add, min, max), cur, rec)
    )


def _fold_groups(agg: dict, codes, keys: list, values=None, valid=None,
                 minmax: bool = False) -> None:
    """Merge one chunk's per-group partials into ``agg`` (key → (n[,
    sum[, min, max]])).  ``n`` counts every row of the group; the
    aggregates over ``values`` skip rows whose ``valid`` is False and
    are None (SQL NULL) for a group without a valid row.  Sums stay
    int64 (``np.add.at`` on an int64 accumulator, never float weights);
    every accumulator is key-count-sized."""
    k = len(keys)
    n = n_valid = np.bincount(codes, minlength=k)
    cols = []
    if values is not None:
        if valid is not None:
            codes, values = codes[valid], values[valid]
        n_valid = np.bincount(codes, minlength=k)
        cols.append(np.zeros(k, dtype=np.int64))
        np.add.at(cols[0], codes, values)
        if minmax:
            cols += [np.full(k, np.iinfo(np.int64).max, dtype=np.int64),
                     np.full(k, np.iinfo(np.int64).min, dtype=np.int64)]
            np.minimum.at(cols[1], codes, values)
            np.maximum.at(cols[2], codes, values)
    for i in np.flatnonzero(n).tolist():
        aggs = tuple(int(c[i]) if n_valid[i] else None for c in cols)
        agg[keys[i]] = _merge_rec(agg.get(keys[i]), (int(n[i]),) + aggs)


def _group_frame(parts: list, key_cols: list[str], agg_cols: list[str]) -> pd.DataFrame:
    """Merge per-partition group partials into one row per group,
    sorted by key with NULL last.  Each aggregate column is int64, or
    pandas' nullable Int64 when some group's value is SQL NULL."""
    total: dict = {}
    for part in parts:
        for key, rec in part.items():
            total[key] = _merge_rec(total.get(key), rec)
    keys = list(total)
    cols = {key_cols[0]: keys} if len(key_cols) == 1 else {
        c: [key[j] for key in keys] for j, c in enumerate(key_cols)
    }
    for j, c in enumerate(agg_cols):
        cols[c] = [rec[j] for rec in total.values()]
    out = pd.DataFrame(cols).sort_values(key_cols, na_position="last").reset_index(drop=True)
    for c in agg_cols:
        out[c] = out[c].astype("int64" if out[c].notna().all() else "Int64")
    return out


def store_value_counts(out_dir: str, column: str) -> pd.DataFrame:
    """GROUP BY ``column`` → COUNT(*) over an encoded store WITHOUT
    decoding the column: one Ray task per partition reads the column's
    chunks through ``container.read_chunks`` and counts its group codes
    (``Chunk.group_codes`` — the dict/rle code streams, decode +
    factorize for other codecs; a NULL key is a group of its own).
    Per-partition results are value-cardinality-sized dicts, merged on
    the driver (same scale class as the manifests themselves).

    Contract: the GROUP cardinality must be result-sized — it IS the
    returned result (lang, repo, event_type...).  Grouping by a
    near-unique key (e.g. ``commit``) makes the result corpus-sized;
    that shape belongs on the decode + ``bucketed_group_apply``
    exchange path with a written (not returned) output."""
    def part(path: str) -> dict:
        agg: dict = {}
        for chunk in container.read_chunks(path):
            _fold_groups(agg, *chunk.group_codes(column))
        return agg

    return _group_frame(_per_partition(out_dir, part), ["value"], ["n"])


def store_group_bytes(out_dir: str, group_col: str, value_col: str) -> pd.DataFrame:
    """GROUP BY ``group_col`` → COUNT(*), SUM(byte length of
    ``value_col``) over an encoded store with NO string decode: group
    keys come from the dict/rle code streams, byte lengths from the
    value column's encoded sidecar (``Chunk.byte_lengths`` — fsst's
    FoR-packed length stream, plain's stored lengths, dict/rle's
    dictionary lengths).  The corpus-sized value bytes never leave
    disk; decode fallbacks keep exactness for unsupported codecs.  A
    NULL value adds nothing to its group's total, which is NULL when
    the group has no non-NULL value (DuckDB's ``sum(strlen(v))``).
    One Ray task per partition, value-cardinality-sized merges (same
    result-sized-group contract as ``store_value_counts``)."""
    def part(path: str) -> dict:
        agg: dict = {}
        for chunk in container.read_chunks(path):
            _fold_groups(agg, *chunk.group_codes(group_col), *chunk.byte_lengths(value_col))
        return agg

    return _group_frame(_per_partition(out_dir, part), ["value"], ["n", "total_bytes"])


def store_group_pair_count(out_dir: str, col_a: str, col_b: str) -> pd.DataFrame:
    """Composite GROUP BY (``col_a``, ``col_b``) → COUNT(*) on the
    encoded form: both key columns stay as their group code streams,
    combined per chunk as ``code_a · |keys_b| + code_b`` — neither value
    column decodes on dict/rle codecs (same result-sized-group contract
    as ``store_value_counts``; a NULL in either key is a key value of
    its own)."""
    def part(path: str) -> dict:
        agg: dict = {}
        for chunk in container.read_chunks(path):
            ca, ka = chunk.group_codes(col_a)
            cb, kb = chunk.group_codes(col_b)
            pairs, codes = np.unique(ca * len(kb) + cb, return_inverse=True)
            keys = [(ka[p // len(kb)], kb[p % len(kb)]) for p in pairs.tolist()]
            _fold_groups(agg, codes.reshape(-1), keys)
        return agg

    return _group_frame(_per_partition(out_dir, part), [col_a, col_b], ["n"])


def store_group_minmax_sum(out_dir: str, group_col: str, value_col: str) -> pd.DataFrame:
    """GROUP BY ``group_col`` → COUNT(*), MIN/MAX/SUM(``value_col``)
    over an encoded store with the whole aggregation on the ENCODED
    form: group keys from the dict/rle code streams, int values straight
    from the FoR-packed stream (``Chunk.int_values``) — no Arrow column
    materializes.  SQL semantics: COUNT(*) counts every row, SUM/MIN/MAX
    skip NULLs and are NULL for a group without a non-NULL value, and a
    NULL key is a group of its own.  Decode fallbacks keep exactness
    for unsupported codecs; one Ray task per partition,
    value-cardinality-sized merges."""
    def part(path: str) -> dict:
        agg: dict = {}
        for chunk in container.read_chunks(path):
            _fold_groups(agg, *chunk.group_codes(group_col), *chunk.int_values(value_col),
                         minmax=True)
        return agg

    return _group_frame(_per_partition(out_dir, part), ["value"], ["n", "sum_v", "min_v", "max_v"])


def store_filtered_group_count(out_dir: str, group_col: str, dnf) -> pd.DataFrame:
    """WHERE <dnf> GROUP BY ``group_col`` → COUNT(*) with BOTH the
    filter and the aggregation evaluated on the encoded form: chunks
    are first pruned by their stats (``read_chunks(dnf=)``), surviving
    chunks build the row mask (``Chunk.mask`` — dict/rle dictionaries,
    FoR int streams, decode+compare fallback) and count group codes
    under the mask — the composed skar query pipeline (prune → mask →
    aggregate) with no value decode on the happy path (same
    result-sized-group contract as ``store_value_counts``)."""
    def part(path: str) -> dict:
        agg: dict = {}
        for chunk in container.read_chunks(path, dnf=dnf):
            mask = chunk.mask(dnf)
            if mask is not None and not mask.any():
                continue
            codes, keys = chunk.group_codes(group_col)
            _fold_groups(agg, codes if mask is None else codes[mask], keys)
        return agg

    return _group_frame(_per_partition(out_dir, part), ["value"], ["n"])


def store_distinct(out_dir: str, column: str, with_info: bool = False):
    """DISTINCT ``column`` over an encoded store, metadata-first.  Per
    chunk the ladder is (``Chunk.distinct``) (1) the exact ``distinct``
    list already in the chunk's pruning stats — header-only, ZERO data
    bytes read; (2) the dict/rle value dictionary — decodes only the
    dictionary, never the row stream; (3) full decode + unique.  One
    Ray task per partition returns its distinct set (result-sized —
    same contract as ``store_value_counts``: the distinct cardinality
    must be result-sized; near-unique keys belong on the decode +
    exchange path); the driver unions.  With ``with_info=True`` also
    returns per-rung chunk counts so tests can pin which rung served
    (the reference's distinct-set index serving point queries at zero
    scan cost, build_parquet_idx.rs:89-166).
    """
    def part(path: str) -> tuple:
        header_info = container.read_header(path)
        schema = dict(header_info[0]["schema"])
        if column not in schema:
            raise ValueError(f"column {column!r} not in store schema {sorted(schema)}")
        vals: set = set()
        rungs = [0, 0, 0]  # stats / dictionary / decode
        for chunk in container.read_chunks(path, header_info=header_info):
            d, rung = chunk.distinct(column)
            vals.update(d)
            rungs[rung] += 1
        return vals, rungs

    total: set = set()
    rungs = [0, 0, 0]
    for vals, r in _per_partition(out_dir, part):
        total |= vals
        rungs = [a + b for a, b in zip(rungs, r)]
    has_null = None in total
    # NaN != NaN, so a Python set keeps one per chunk — collapse to a
    # single NaN (SQL DISTINCT keeps exactly one) and sort it after the
    # comparable values (sorted() with NaN present is undefined)
    finite = [v for v in total if v is not None and v == v]
    has_nan = len(finite) + has_null < len(total)
    ordered = sorted(finite)
    if has_nan:
        ordered.append(float("nan"))
    if has_null:
        ordered.append(None)  # NULL is a distinct value, SQL semantics
    out = pd.DataFrame({"value": pd.Series(ordered, dtype="object")})
    if with_info:
        return out, {"stats_chunks": rungs[0], "dict_chunks": rungs[1],
                     "decoded_chunks": rungs[2]}
    return out


def store_health(out_dir: str) -> dict:
    """Partition-level invariants a monitoring job would watch."""
    ms = manifest_mod.scan_manifests(out_dir)
    return {
        "partitions": len(ms),
        "rows": int(sum(m.n_rows for m in ms.values())),
        "raw_bytes": int(sum(m.raw_bytes for m in ms.values())),
        "enc_bytes": int(sum(m.enc_bytes for m in ms.values())),
        "all_digests_present": all(bool(m.content_sha256) for m in ms.values()),
        "fingerprints": sorted({m.input_fingerprint for m in ms.values()}),
    }
