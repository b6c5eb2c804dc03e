"""Skew-aware partition planning + pkey assignment.

The reference partitions by construction — contiguous fixed-size block
ranges (``max_file_size`` rows per folder,
/root/reference/skar/src/skar_runner.rs:290-293) — because EVM data is
uniform.  A code corpus is not: repo sizes are zipf-ish with giant
outliers, so we plan explicitly:

1. **Size pre-pass** (cheap, streaming): ``map_batches`` emits per-batch
   per-repo partial byte sums (pre-aggregation before the shuffle), a
   tiny ``groupby("repo").sum`` reduces them, and the driver collects
   the per-repo totals (repo cardinality ≪ row count).
2. **Deterministic plan** (driver): repos sorted by name are bin-packed
   into partitions of ~``target_bytes``; a repo larger than the target
   is **salted** across ``ceil(bytes/target)`` dedicated partitions
   (bucket = (key_hash64(path)+key_hash64(commit)) mod n_buckets, see
   ``SALT_VERSION``) so no partition exceeds ~target regardless of skew.
3. **pkey stage**: a vectorised ``map_batches`` maps each row to its
   partition id via the broadcast plan (plan object is tiny — shipped
   in the task closure / ``ray.put``).

Partition ids are stable functions of (corpus, target_bytes) only, so a
resumed job reproduces the identical work set — the property skar gets
from block ranges.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

import ray
import ray.data
from ray.data.aggregate import Sum

from .groups import key_hash64


@dataclass
class PartitionPlan:
    # repo -> (start_pid, n_buckets)
    repos: dict[str, tuple[int, int]]
    n_partitions: int
    target_bytes: int
    # string-like column -> (codec, FSST table or None, sample estimates),
    # chosen once per corpus (encode_job.codec_plan); None: not made yet
    # (a fast-profile encode needs none), every partition selects
    codecs: dict | None = None


def content_sizes(batch: pa.Table, column: str = "content") -> np.ndarray:
    """Per-row value byte lengths without copying the data buffer; a
    NULL counts as 0 bytes (its null length would cast to INT64_MIN)."""
    return np.asarray(pc.fill_null(pc.binary_length(batch.column(column)), 0)).astype(np.int64)


def input_paths(corpus_path: str) -> list[str]:
    """The parquet files of a corpus: the sorted ``*.parquet`` entries of
    a directory, or the path itself."""
    if not os.path.isdir(corpus_path):
        return [corpus_path]
    return [os.path.join(corpus_path, f) for f in sorted(os.listdir(corpus_path)) if f.endswith(".parquet")]


def repo_size_prepass_fast(corpus_path: str) -> pa.Table:
    """Cheap size plan: per-repo ROW counts from a repo-column-only read
    (tiny, dictionary-encoded in Parquet) × the corpus-wide average
    content row size taken from Parquet column-chunk metadata
    (``total_uncompressed_size`` — no content decode at all).

    Exact per-repo byte totals would need a full content read; at 100 TB
    that is a second full pass.  The approximation only mis-sizes repos
    whose AVERAGE row size deviates wildly, and the encoder's chunk
    capping bounds worker memory regardless — split factors just become
    approximate.  Use ``repo_size_prepass`` when exact sizing matters.
    """
    import pyarrow.parquet as pq

    total_rows = 0
    content_bytes = 0
    for path in input_paths(corpus_path):
        md = pq.read_metadata(path)
        total_rows += md.num_rows
        for rg in range(md.num_row_groups):
            g = md.row_group(rg)
            for ci in range(g.num_columns):
                col = g.column(ci)
                if col.path_in_schema == "content":
                    content_bytes += col.total_uncompressed_size
    avg = content_bytes / max(1, total_rows)

    ds = ray.data.read_parquet(corpus_path, columns=["repo"])

    def partials(batch: pa.Table) -> pa.Table:
        repos = batch.column("repo")
        enc = pc.dictionary_encode(repos.combine_chunks() if isinstance(repos, pa.ChunkedArray) else repos)
        counts = np.bincount(np.asarray(enc.indices), minlength=len(enc.dictionary))
        return pa.table({"repo": enc.dictionary, "rows": pa.array(counts.astype(np.int64))})

    agg = ds.map_batches(partials, batch_format="pyarrow").groupby("repo").aggregate(
        Sum("rows", alias_name="rows")
    )
    tbl = pa.Table.from_pandas(agg.to_pandas())
    est = pc.cast(pc.round(pc.multiply(pc.cast(tbl.column("rows"), pa.float64()), avg)), pa.int64())
    return tbl.append_column("bytes", est)


def repo_size_prepass(ds: "ray.data.Dataset") -> pa.Table:
    """Per-repo total content bytes via partial-aggregate → small groupby."""

    def partials(batch: pa.Table) -> pa.Table:
        sizes = content_sizes(batch)
        repos = batch.column("repo")
        enc = pc.dictionary_encode(repos.combine_chunks() if isinstance(repos, pa.ChunkedArray) else repos)
        idx = np.asarray(enc.indices)
        sums = np.bincount(idx, weights=sizes, minlength=len(enc.dictionary))
        counts = np.bincount(idx, minlength=len(enc.dictionary))
        return pa.table(
            {
                "repo": enc.dictionary,
                "bytes": pa.array(sums.astype(np.int64)),
                "rows": pa.array(counts.astype(np.int64)),
            }
        )

    partial = ds.map_batches(partials, batch_format="pyarrow")
    agg = partial.groupby("repo").aggregate(Sum("bytes", alias_name="bytes"), Sum("rows", alias_name="rows"))
    tbl = pa.Table.from_pandas(agg.to_pandas())  # small: one row per repo
    return tbl


def make_plan(repo_sizes: pa.Table, target_bytes: int) -> PartitionPlan:
    repos = repo_sizes.column("repo").to_pylist()
    sizes = repo_sizes.column("bytes").to_pylist()
    order = sorted(range(len(repos)), key=lambda i: repos[i])
    plan: dict[str, tuple[int, int]] = {}
    pid = 0
    cur_bytes = 0
    cur_open = False
    for i in order:
        r, b = repos[i], int(sizes[i])
        if b > target_bytes:
            if cur_open:
                pid += 1
                cur_open, cur_bytes = False, 0
            n_buckets = int(np.ceil(b / target_bytes))
            plan[r] = (pid, n_buckets)
            pid += n_buckets
        else:
            if cur_open and cur_bytes + b > target_bytes:
                pid += 1
                cur_bytes = 0
            plan[r] = (pid, 1)
            cur_open = True
            cur_bytes += b
    if cur_open:
        pid += 1
    return PartitionPlan(repos=plan, n_partitions=pid, target_bytes=target_bytes)


# The salt's version, part of every fingerprint that lets a resume skip
# finished partitions: a store salted another way re-encodes whole.
# Bump it whenever the formula below or ``groups.key_hash64`` changes.
SALT_VERSION = 2


def assign_pkeys(batch: pa.Table, plan: PartitionPlan) -> pa.Table:
    repos = batch.column("repo")
    enc = pc.dictionary_encode(repos.combine_chunks() if isinstance(repos, pa.ChunkedArray) else repos)
    idx = np.asarray(enc.indices)
    dict_repos = enc.dictionary.to_pylist()
    start = np.zeros(len(dict_repos), dtype=np.int64)
    nbuck = np.ones(len(dict_repos), dtype=np.int64)
    for j, r in enumerate(dict_repos):
        s, nb = plan.repos.get(r, (0, 1))
        start[j], nbuck[j] = s, nb
    pkey = start[idx]
    needs_salt = nbuck[idx] > 1
    if needs_salt.any():
        rows = np.flatnonzero(needs_salt)
        sub = batch.take(pa.array(rows))
        salt = (key_hash64(sub.column("path")) + key_hash64(sub.column("commit"))) % nbuck[idx][rows].astype(np.uint64)
        pkey[rows] = pkey[rows] + salt.astype(np.int64)
    return batch.append_column("pkey", pa.array(pkey, type=pa.int64()))
