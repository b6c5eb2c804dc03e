"""Join operators.

The reference's only general join is the exact 1:1 receipts⋈transactions
hash join at columnarize time, which ERRORS on dangling rows on either
side (/root/reference/skar/src/schema.rs:183-197,242-244).  We provide:

- ``broadcast_join_one_to_one``: small side broadcast via ``ray.put``
  once, probed per batch with a vectorised pandas merge; validates
  exactly-one-match semantics like the reference.
- ``bucket_hash_join`` / ``bucket_anti_join``: both-sides-large
  portable pattern — add ``bucket = key_hash64(key) % B`` to both
  sides, co-group per bucket through ``groups.bucketed_group_apply``,
  merge (or ``isin``) per bucket.  B and skew handling documented at
  call site.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa

import ray
import ray.data
from .groups import cached_get, key_hash64


def _pa_type(t) -> pa.DataType:
    """Coerce a Dataset schema type to an Arrow type: pandas-backed
    blocks report numpy dtypes or the bare ``object`` class (strings),
    which ``pa.nulls`` rejects."""
    if isinstance(t, pa.DataType):
        return t
    try:
        return pa.from_numpy_dtype(np.dtype(t))
    except Exception:
        return pa.string()


def broadcast_join_one_to_one(
    large: "ray.data.Dataset",
    small_df: pd.DataFrame,
    left_key: str,
    right_key: str,
    validate: bool = True,
) -> "ray.data.Dataset":
    """Join `large` against a broadcast `small_df`; with ``validate``,
    every left row must match exactly one right row and every right row
    must be consumed (checked per-batch for left, by construction 1:1
    via unique right keys) — skar's dangling-row errors."""
    if validate and small_df[right_key].duplicated().any():
        raise ValueError(f"right side has duplicate keys on {right_key}")
    ref = ray.put(small_df)

    def probe(batch: pd.DataFrame) -> pd.DataFrame:
        small = cached_get(ref)
        merged = batch.merge(small, how="inner", left_on=left_key, right_on=right_key)
        if validate and len(merged) != len(batch):
            # skar's dangling-row error (schema.rs:183-197); without
            # validate this is a plain inner semi-join probe
            missing = set(batch[left_key]) - set(small[right_key])
            raise ValueError(f"dangling left rows, e.g. {sorted(missing)[:5]}")
        if left_key != right_key:
            merged = merged.drop(columns=[right_key])
        return merged

    return large.map_batches(probe, batch_format="pandas")


def bucket_hash_join(
    left: "ray.data.Dataset",
    right: "ray.data.Dataset",
    key: str,
    n_buckets: int = 32,
    how: str = "inner",
) -> "ray.data.Dataset":
    """Partitioned hash join: bucket both sides on ``key_hash64(key) % B``,
    pad to a shared schema, union, co-group per bucket, pandas-merge
    within each.  Column names (other than the key) must be disjoint.
    Skewed hot keys should be pre-salted into sub-buckets by the caller
    (same technique as the encode partitioner).  Only ``inner`` and
    ``left`` are supported: the SQL null-key handling inside
    ``join_bucket`` drops null-keyed RIGHT rows unconditionally, which
    would silently violate right/full-outer semantics."""
    if how not in ("inner", "left"):
        raise ValueError(
            f"bucket_hash_join supports how='inner'/'left', got {how!r}"
        )
    l_names = [n for n in left.schema().names if n != key]
    r_names = [n for n in right.schema().names if n != key]
    if set(l_names) & set(r_names):
        raise ValueError(f"overlapping non-key columns: {set(l_names) & set(r_names)}")
    l_types = {n: _pa_type(t) for n, t in zip(left.schema().names, left.schema().types)}
    r_types = {n: _pa_type(t) for n, t in zip(right.schema().names, right.schema().types)}
    all_fields = [(key, l_types[key])] + [(n, l_types[n]) for n in l_names] + [
        (n, r_types[n]) for n in r_names
    ]

    def add_bucket(side: str, own: list[str]):
        def f(batch: pa.Table) -> pa.Table:
            # key_hash64 is canonical: int32 and int64 keys, string and
            # large_string keys, and all nulls meet in one bucket
            b = (key_hash64(batch.column(key)) % np.uint64(n_buckets)).astype(np.int64)
            cols = {}
            for name, typ in all_fields:
                if name == key or name in own:
                    cols[name] = batch.column(name)
                else:
                    cols[name] = pa.nulls(batch.num_rows, type=typ)
            t = pa.table(cols)
            t = t.append_column("__bucket", pa.array(b, type=pa.int64()))
            return t.append_column("__side", pa.array([side] * len(b)))

        return f

    both = left.map_batches(add_bucket("L", l_names), batch_format="pyarrow").union(
        right.map_batches(add_bucket("R", r_names), batch_format="pyarrow")
    )

    def join_bucket(g: pd.DataFrame) -> pd.DataFrame:
        l = g[g["__side"] == "L"][[key, *l_names]]
        r = g[g["__side"] == "R"][[key, *r_names]]
        # SQL semantics: a NULL key matches NOTHING — pandas merge would
        # match NaN == NaN (all nulls hash to one bucket, so they'd all
        # co-group here and cross-join). Null-keyed left rows survive a
        # left join unmatched; null-keyed right rows never join.
        l_null = l[l[key].isna()]
        l = l[l[key].notna()]
        r = r[r[key].notna()]
        if how == "inner" and (len(l) == 0 or len(r) == 0):
            return pd.DataFrame({name: pd.Series(dtype="object") for name, _ in all_fields})
        out = l.merge(r, on=key, how=how)
        if how == "left" and len(l_null):
            out = pd.concat([out, l_null], ignore_index=True)
        return out

    from .groups import bucketed_group_apply

    # co-group via the shared raw-Ray hash exchange (no sample-sort
    # pass); the fine key IS the precomputed bucket id
    return bucketed_group_apply(both, ["__bucket"], join_bucket)


def bucket_anti_join(
    left: "ray.data.Dataset",
    right: "ray.data.Dataset",
    key: str,
    n_buckets: int = 32,
) -> "ray.data.Dataset":
    """Left rows whose ``key`` has NO match in ``right`` — the
    distributed complement of a closure-broadcast drop set.  Only
    ``right``'s key column rides the exchange; per bucket the filter is
    one vectorised ``isin``.  Scale shape: rows moved = |left| + |right|
    key rows, nothing key-set-sized on the driver."""
    l_schema = left.schema()
    l_names = [n for n in l_schema.names if n != key]
    l_types = {n: _pa_type(t) for n, t in zip(l_schema.names, l_schema.types)}

    def tag(side: str):
        def f(batch: pa.Table) -> pa.Table:
            b = (key_hash64(batch.column(key)) % np.uint64(n_buckets)).astype(np.int64)
            cols = {key: batch.column(key)}
            for n in l_names:
                cols[n] = (batch.column(n) if side == "L"
                           else pa.nulls(batch.num_rows, type=l_types[n]))
            t = pa.table(cols)
            t = t.append_column("__bucket", pa.array(b, type=pa.int64()))
            return t.append_column("__side", pa.array([side] * len(b)))

        return f

    both = left.map_batches(tag("L"), batch_format="pyarrow").union(
        right.select_columns([key]).map_batches(tag("R"), batch_format="pyarrow")
    )

    def anti_bucket(g: pd.DataFrame) -> pd.DataFrame:
        l = g[g["__side"] == "L"]
        # NULL keys never match (SQL NOT EXISTS): drop nulls from the
        # probe set — Series.isin would treat right-side NaN as matching
        # a left-side NaN and wrongly drop that left row
        r_keys = g.loc[g["__side"] == "R", key].dropna()
        return l.loc[~l[key].isin(r_keys), [key, *l_names]]

    from .groups import bucketed_group_apply

    return bucketed_group_apply(both, ["__bucket"], anti_bucket)


def broadcast_interval_join(
    large: "ray.data.Dataset",
    intervals_df: pd.DataFrame,
    value_col: str,
    lo_col: str = "lo",
    hi_col: str = "hi",
    max_intervals: int = 10_000,
) -> "ray.data.Dataset":
    """Range (interval) join: each left row matches EVERY interval with
    ``lo <= value < hi`` — several for overlapping bands, none drops
    the row (inner semantics).  The non-equi analog of the reference's
    broadcast-set probes (query/execution/mod.rs:183-185): the interval
    table ships once via ``ray.put``; each batch computes the full
    match set VECTORIZED as an (n_rows × n_intervals) comparison mask
    (no row loop, no shuffle — the left side streams).

    ``max_intervals`` bounds the mask width loudly (the semi-join
    ``max_keys`` pattern): past it, bucket both sides by a coarse value
    range and co-group instead — the broadcast shape is wrong there.
    Output: every left column plus the interval table's columns for
    each match.
    """
    if len(intervals_df) > max_intervals:
        raise ValueError(
            f"interval table has {len(intervals_df)} rows (> max_intervals="
            f"{max_intervals}); bucket by value range and co-group instead "
            "of broadcasting an (n_rows x n_intervals) mask this wide"
        )
    def _cmp_arr(s: pd.Series) -> "np.ndarray":
        # keep native integer/float dtypes — forcing float64 would round
        # int64 values past 2^53 into the wrong interval; only non-numeric
        # (object/nullable) columns fall back to the float domain
        a = s.to_numpy()
        return a if a.dtype.kind in "iuf" else s.to_numpy(dtype=np.float64)

    iv = intervals_df.reset_index(drop=True)
    ref = ray.put((
        _cmp_arr(iv[lo_col]),
        _cmp_arr(iv[hi_col]),
        iv.drop(columns=[lo_col, hi_col]),
    ))

    def probe(batch: pd.DataFrame) -> pd.DataFrame:
        lo, hi, meta = cached_get(ref)
        a = batch[value_col].to_numpy()
        v = a if a.dtype.kind in "iuf" else batch[value_col].to_numpy(dtype=np.float64)
        mask = (v[:, None] >= lo) & (v[:, None] < hi)
        li, ri = np.nonzero(mask)
        left = batch.iloc[li].reset_index(drop=True)
        right = meta.iloc[ri].reset_index(drop=True)
        return pd.concat([left, right], axis=1)

    return large.map_batches(probe, batch_format="pandas")
