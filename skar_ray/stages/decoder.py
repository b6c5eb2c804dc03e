"""Decode stage — a task pool turning containers back into Arrow tables.

Mirror of the reference's projected Parquet reader + validator
(/root/reference/skar/src/query/data_provider.rs:121-183,
validate_parquet.rs:17-66).  ``decode_stage`` maps
``decode_manifest_batch`` over manifest rows (tiny control records),
one partition per task call: it opens the container, decodes the
requested columns chunk-by-chunk, optionally re-derives the per-row
sha256 digest and compares it against the manifest — the decode-side
half of the round-trip proof.

Per-worker-process cache: container headers keyed by path (FSST symbol
tables live inside chunk payloads; header parse is what repeats across
calls on one worker).
"""

from __future__ import annotations

import os

import pyarrow as pa

from ..state import container
from .encoder import partition_digest, row_sha256


def _header_of(header_cache: dict, path: str) -> tuple[dict, int]:
    # (mtime_ns, size, header, blob_start) per path — parsed once per
    # cache lifetime.  The jobs never rewrite a container (each write is
    # a new name), but a store deleted and rewritten under caller-chosen
    # names (``write_container`` takes any path) can reuse a path, so
    # the stat guard stays: a stale header never serves chunk offsets
    st = os.stat(path)
    hit = header_cache.get(path)
    if hit is not None and hit[0] == st.st_mtime_ns and hit[1] == st.st_size:
        return hit[2], hit[3]
    header, blob_start = container.read_header(path)
    header_cache[path] = (st.st_mtime_ns, st.st_size, header, blob_start)
    return header, blob_start


def _decode_manifest_rows(
    batch: pa.Table, header_cache: dict, out_dir: str, columns, verify: bool,
    dnf, encoded_filter, apply_dnf: bool, tag_partition: bool,
) -> pa.Table:
    tables = []
    for i in range(batch.num_rows):
        data_file = batch.column("data_file")[i].as_py()
        path = os.path.join(out_dir, data_file)
        t = container.read_container(
            path, columns=columns, dnf=dnf,
            encoded_filter=encoded_filter, apply_dnf=apply_dnf,
            header_info=_header_of(header_cache, path),
        )
        if verify:
            expect = batch.column("content_sha256")[i].as_py()
            got = partition_digest(
                row_sha256(t) if "content" in t.column_names else []
            )
            if got != expect:
                pid = batch.column("partition_id")[i].as_py()
                raise ValueError(
                    f"partition {pid}: decoded sha256 digest {got[:16]}… != manifest {expect[:16]}…"
                )
        if tag_partition:
            # __pid_total rides on every row so a consumer can tell
            # when it has ALL of a partition's rows even if Ray's
            # dynamic block splitting slices this output into
            # several blocks downstream
            pid = batch.column("partition_id")[i].as_py()
            t = t.append_column(
                "__pid", pa.array([pid] * t.num_rows, type=pa.int64())
            ).append_column(
                "__pid_total", pa.array([t.num_rows] * t.num_rows, type=pa.int64())
            )
        tables.append(t)
    return pa.concat_tables(tables) if tables else pa.table({})


# Per-worker-PROCESS header cache: Ray reuses worker processes across
# tasks, so a header parsed for one call serves every later call on the
# same worker.
_TASK_HEADER_CACHE: dict[str, tuple[int, int, dict, int]] = {}


def decode_manifest_batch(
    batch: pa.Table, *, out_dir: str, columns=None, verify: bool = False,
    dnf=None, encoded_filter=None, apply_dnf: bool = False,
    tag_partition: bool = False,
) -> pa.Table:
    """Decode the partitions named by ``batch``'s manifest rows (header
    state in the per-process cache).  ``dnf`` prunes chunks,
    ``encoded_filter`` / ``apply_dnf`` filter rows on the encoded form,
    ``tag_partition`` appends the budgeted-scan cursor columns."""
    if verify and (encoded_filter or apply_dnf):
        raise ValueError("digest verify needs full partitions: no encoded_filter/apply_dnf")
    return _decode_manifest_rows(
        batch, _TASK_HEADER_CACHE, out_dir, columns, verify,
        dnf, encoded_filter, apply_dnf, tag_partition,
    )


def decode_stage(mds, **decode_kwargs):
    """Decode manifest rows → Arrow as one task-pool stage, one
    partition per call (partitions are size-capped)."""
    return mds.map_batches(
        decode_manifest_batch, fn_kwargs=decode_kwargs,
        batch_format="pyarrow", batch_size=1,
    )
