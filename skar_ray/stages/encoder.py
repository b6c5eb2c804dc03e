"""Partition encode stage — sort, chunk, auto-select, write, manifest.

One invocation handles one partition (one pkey's rows, co-located by
the hash exchange's reduce task), mirroring the reference's per-folder flush
(/root/reference/skar/src/skar_runner.rs:285-331):

1. lexsort the partition by (repo, path, commit) — skar's pre-write
   lexsort (write_parquet.rs:22-35,131-153) — which turns repo/lang/
   commit into long runs for RLE/dict;
2. compute per-row sha256(content) and the partition digest (the
   analog of skar's logs_bloom revalidation source);
3. slice into size-capped chunks by cumulative content bytes (row-group
   slicing analog, write_parquet.rs:83-103) so FSST/zstd buffers stay
   bounded;
4. per column: the corpus's planned codec (``codec_plan``, string-like
   columns) or one auto-selected for this partition; encode chunk by
   chunk;
5. publish the container under a fresh name (``container.new_name``,
   temp + validate + rename, skar_runner.rs:296-321), then write the
   manifest row that points at it — that write is the commit; a
   superseded file is left to ``manifest.sweep_orphans``.

Also provides ``shard_encode_batch`` for the no-shuffle path: each
*input block* is treated as a partition (partition id = deterministic
block fingerprint), encoded by a task pool via
``map_batches(shard_encode_batch, fn_kwargs=...)``.
"""

from __future__ import annotations

import hashlib
import os
import time

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from ..state import container, manifest
from .partitioner import content_sizes

SORT_KEYS = ["repo", "path", "commit"]


def lexsort(table: pa.Table, keys: list[str] = SORT_KEYS) -> pa.Table:
    keys = [k for k in keys if k in table.column_names]
    if not keys:
        return table
    idx = pc.sort_indices(table, sort_keys=[(k, "ascending") for k in keys])
    return table.take(idx)


def zsort(table: pa.Table, keys: list[str]) -> pa.Table:
    """Z-ORDER (Morton) clustering: sort by the bit-interleaved dense
    ranks of ``keys`` so chunk min/max + distinct stats stay tight on
    EVERY key instead of only the leading lexsort key — the multi-
    column generalization of skar's pre-write lexsort
    (/root/reference/skar/src/write_parquet.rs:22-35; row-group skip
    via the per-chunk stats, data_provider.rs:250-333).  Trade-off is
    the standard one: leading-key range pruning weakens vs pure
    lexsort, secondary-key pruning goes from nothing to real.

    Ranks (dictionary-dense, value-order-preserving via
    ``pc.rank(tiebreaker="dense")``) are scaled to ``64 // n_keys``
    bits each, so the interleaved code fits one uint64 — fully
    vectorized, no per-row loop."""
    keys = [k for k in keys if k in table.column_names]
    if not keys:
        return table
    if len(keys) > 8:
        raise ValueError("zsort supports at most 8 keys (>= 8 bits per key)")
    bits = 64 // len(keys)
    cap = np.uint64((1 << bits) - 1)
    cols = []
    for k in keys:
        r = pc.rank(table.column(k).combine_chunks(), sort_keys="ascending",
                    tiebreaker="dense").to_numpy().astype(np.uint64)
        rmax = int(r.max()) if len(r) else 1
        if rmax <= 1:
            cols.append(np.zeros(len(r), dtype=np.uint64))
        elif rmax - 1 <= int(cap):
            # stretch to the FULL bit range: a low-cardinality key left
            # at raw ranks would occupy only the code's low-order bits
            # and never influence the sort (high bits of the other key
            # would dominate) — the classic Morton scaling pitfall
            cols.append((r - np.uint64(1)) * (cap // np.uint64(rmax - 1)))
        else:
            # downscale via float64: monotone (x*c is monotone for c>0),
            # deterministic, and overflow-free where integer r*cap isn't
            cols.append(
                ((r - np.uint64(1)).astype(np.float64) * (float(cap) / float(rmax - 1)))
                .astype(np.uint64)
            )
    code = np.zeros(table.num_rows, dtype=np.uint64)
    n = len(cols)
    for b in range(bits):
        for j, c in enumerate(cols):
            code |= ((c >> np.uint64(b)) & np.uint64(1)) << np.uint64(b * n + (n - 1 - j))
    order = np.argsort(code, kind="stable")
    return table.take(pa.array(order))


def row_sha256(table: pa.Table, column: str = "content") -> list[bytes]:
    col = table.column(column)
    if isinstance(col, pa.ChunkedArray):
        col = col.combine_chunks()
    from ..codecs.base import strings_to_buffers

    lengths, data = strings_to_buffers(col)
    mv = memoryview(data)
    offs = np.zeros(len(lengths) + 1, dtype=np.int64)
    np.cumsum(lengths, out=offs[1:])
    return [hashlib.sha256(mv[offs[i] : offs[i + 1]]).digest() for i in range(len(lengths))]


def partition_digest(row_digests: list[bytes]) -> str:
    h = hashlib.sha256()
    for d in row_digests:
        h.update(d)
    return h.hexdigest()


# one row per partition an encode wrote or resume-skipped
SUMMARY_SCHEMA = pa.schema([("partition_id", pa.int64()), ("n_rows", pa.int64()),
                           ("raw_bytes", pa.int64()), ("enc_bytes", pa.int64()),
                           ("content_sha256", pa.string()), ("skipped", pa.bool_())])


def summary_table(manifests, skipped: bool) -> pa.Table:
    """The encode summary's rows for ``manifests``."""
    return pa.Table.from_pylist(
        [{"partition_id": m.partition_id, "n_rows": m.n_rows, "raw_bytes": m.raw_bytes,
          "enc_bytes": m.enc_bytes, "content_sha256": m.content_sha256, "skipped": skipped}
         for m in manifests],
        schema=SUMMARY_SCHEMA,
    )


def chunk_slices(table: pa.Table, target_bytes: int, column: str = "content") -> list[tuple[int, int]]:
    """(offset, length) slices with ~target_bytes of content each."""
    n = table.num_rows
    if n == 0:
        return []
    if column not in table.column_names:
        per = max(1, target_bytes // 64)
        return [(i, min(per, n - i)) for i in range(0, n, per)]
    sizes = content_sizes(table, column)
    cum = np.cumsum(sizes)
    slices = []
    start = 0
    while start < n:
        limit = (cum[start - 1] if start else 0) + target_bytes
        end = int(np.searchsorted(cum, limit, side="left")) + 1
        end = max(end, start + 1)
        end = min(end, n)
        slices.append((start, end - start))
        start = end
    return slices


def encode_partition(
    group: pa.Table,
    out_dir: str,
    chunk_target_bytes: int = 32 << 20,
    input_fingerprint: str = "",
    codec_overrides: dict[str, str] | None = None,
    validate: bool = True,
    sort_fn=None,
    sort_keys_label: list[str] | None = None,
    codec_plan: dict | None = None,
) -> pa.Table:
    """Encode one partition; returns a 1-row summary table.

    ``sort_fn`` overrides the pre-write clustering (default
    ``lexsort`` by SORT_KEYS) — e.g. ``lambda t: zsort(t, keys)`` for
    multi-column z-order stores; ``sort_keys_label`` is recorded in
    the container header alongside it.  ``codec_plan``: the corpus's
    ``PartitionPlan.codecs``, or a subset (``write_container``).

    ``validate=True`` (default) decode-verifies the temp container —
    content column round-trip vs the partition sha256 digest already in
    hand — BEFORE the atomic rename and manifest row, mirroring the
    reference's validate-then-publish ordering (skar_runner.rs:309-321,
    validate_parquet.rs:17-66): a corrupted encode raises instead of
    being published and resume-skipped until a later verify job."""
    t0 = time.time()
    if group.num_rows == 0:
        return summary_table([], False)
    timings: dict[str, float] = {}
    pid = int(group.column("pkey")[0].as_py()) if "pkey" in group.column_names else 0
    data = group.drop_columns(["pkey"]) if "pkey" in group.column_names else group
    data = data.combine_chunks()  # shuffled groups arrive heavily chunked
    data = lexsort(data) if sort_fn is None else sort_fn(data)
    timings["sort"] = time.time() - t0

    t1 = time.time()
    digests = row_sha256(data) if "content" in data.column_names else []
    pdigest = partition_digest(digests)
    # order-insensitive row-digest union (sum mod 2^256 — XOR would let
    # even-multiplicity duplicate rows cancel): repartition-invariant, so
    # compaction can verify content equality from manifests alone
    content_sum = sum(int.from_bytes(d, "big") for d in digests) % (1 << 256)
    timings["sha256"] = time.time() - t1

    t1 = time.time()
    slices = chunk_slices(data, chunk_target_bytes)
    fname = container.new_name(pid)
    os.makedirs(out_dir, exist_ok=True)

    validator = None
    if validate and "content" in data.column_names:
        def validator(tmp_path: str) -> None:
            # decode the written temp file and compare BIT-EXACT against
            # the in-memory source column (Arrow C++ equality ≈ memcmp —
            # strictly stronger than re-hashing, and skips a redundant
            # 2nd sha256 pass; the digest-based check remains the
            # independent cross-process re-verification, run_verify_job)
            tv = time.time()
            dec = container.read_container(tmp_path, columns=["content"])
            got = dec.column("content").combine_chunks()
            src = data.column("content")
            if isinstance(src, pa.ChunkedArray):
                src = src.combine_chunks()
            timings["validate"] = time.time() - tv
            if not got.equals(src):
                raise IOError(
                    f"partition {pid}: encoded container failed pre-publish "
                    f"decode verification (content column not bit-identical)"
                )

    header = container.write_container(
        os.path.join(out_dir, fname),
        data,
        chunk_rows=slices,
        codec_overrides=codec_overrides,
        # honest lineage: an unlabeled custom sort must not claim the
        # default lexsort keys the data is not clustered by
        extra={"partition_id": pid,
               "sort_keys": sort_keys_label
               or (SORT_KEYS if sort_fn is None else ["custom"])},
        validator=validator,
        codec_plan=codec_plan,
    )
    timings["encode_write"] = time.time() - t1

    col_stats: dict[str, dict] = {}
    raw_total = enc_total = 0
    for ch in header["chunks"]:
        for cm in ch["columns"]:
            st = col_stats.setdefault(cm["name"], {"codec": cm["codec"], "raw_bytes": 0, "enc_bytes": 0})
            st["raw_bytes"] += cm["raw_bytes"]
            st["enc_bytes"] += cm["length"]
            raw_total += cm["raw_bytes"]
            enc_total += cm["length"]

    # per-partition pruning stats — the analog of skar's per-folder
    # min/max + distinct-set indexes (build_parquet_idx.rs:50-115),
    # consulted by query_encoded() to skip whole partitions; shared
    # helper so derived columns (pipelines/derive.py) prune identically
    from ..state.pruning import column_stats

    stats: dict[str, dict] = {}
    for name in data.column_names:
        stats[name] = column_stats(name, data.column(name))

    m = manifest.PartitionManifest(
        partition_id=pid,
        status="done",
        n_rows=data.num_rows,
        n_chunks=len(header["chunks"]),
        data_file=fname,
        raw_bytes=raw_total,
        enc_bytes=enc_total,
        content_sha256=pdigest,
        columns=col_stats,
        input_fingerprint=input_fingerprint,
        wall_s=round(time.time() - t0, 4),
        extra={"stats": stats, "content_sum": f"{content_sum:064x}",
               "timings": {k: round(v, 3) for k, v in timings.items()}},
    )
    manifest.write_manifest(out_dir, m)
    return summary_table([m], False)


def block_pid(batch: pa.Table) -> int:
    """Content-derived partition id for resume.  Hashes the full key
    columns (repo/path/commit — small next to content) plus row count
    and total content bytes; first-row-only fingerprints collide for
    blocks sharing a leading row, silently skipping data on resume."""
    h = hashlib.sha256()
    h.update(str(batch.num_rows).encode())
    hashed_any = False
    for name in ("repo", "path", "commit"):
        if name in batch.column_names:
            from ..codecs.base import strings_to_buffers

            col = batch.column(name)
            lengths, data = strings_to_buffers(col.combine_chunks() if isinstance(col, pa.ChunkedArray) else col)
            h.update(lengths.tobytes())
            h.update(data)
            hashed_any = True
    if "content" in batch.column_names:
        h.update(str(int(pc.sum(pc.binary_length(batch.column("content"))).as_py() or 0)).encode())
        hashed_any = True
    if not hashed_any:  # schema without key/content columns: hash first+last rows
        h.update(str(batch.slice(0, 1).to_pydict()).encode())
        h.update(str(batch.slice(max(0, batch.num_rows - 1), 1).to_pydict()).encode())
    # 63 bits (int64-positive): at ~3M blocks (100 TB / 32 MiB) a 48-bit
    # id had a ~1.6% birthday-collision chance — two blocks writing the
    # same part-<pid> file would silently discard one of them
    return int.from_bytes(h.digest()[:8], "big") & ((1 << 63) - 1)


def shard_encode_batch(
    batch: pa.Table, *, out_dir: str, chunk_target_bytes: int = 32 << 20,
    input_fingerprint: str = "", done_ids: frozenset = frozenset(),
    codec_overrides: dict[str, str] | None = None, validate: bool = True,
) -> pa.Table:
    """One input block → one encoded partition (no-shuffle path); map it
    with ``batch_size=None`` so each call sees one whole block."""
    pid = block_pid(batch)
    if pid in done_ids:
        return summary_table([manifest.read_manifest(out_dir, pid)], True)
    batch = batch.append_column("pkey", pa.array(np.full(batch.num_rows, pid), type=pa.int64()))
    return encode_partition(
        batch, out_dir, chunk_target_bytes, input_fingerprint,
        codec_overrides, validate=validate,
    )

