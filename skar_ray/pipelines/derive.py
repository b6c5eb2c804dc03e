"""Derived-column job: ALTER TABLE ADD COLUMN AS f(existing) over an
encoded store — the columnar-engine schema-evolution path.

Partition-granular and resumable like the encode job: one Ray task per
partition reads ONLY the projected input columns, computes the new
column vectorized, encodes it with the same auto-codec plan as an
encode-time column, and appends it to the container with every existing
blob copied VERBATIM (state/container.append_column — no re-encode, no
shuffle).  Manifest rows gain the column's codec/byte accounting and
partition-level pruning stats, so the derived column immediately
participates in partition AND chunk pruning, DNF filters, and
projections through the normal query_encoded path.

Crash safety: the new container is published under a fresh name
(``container.new_name``) and the manifest write that points at it is
the commit; a crash before that write leaves the old manifest on its
old, untouched file, the re-run derives that partition again, and the
job's final ``manifest.sweep_orphans`` removes every superseded file.

Reference analog: the post-write index build over already-flushed
folders (/root/reference/skar/src/build_parquet_idx.rs:19-199) —
generalized from stats to a queryable derived column.

100 TB shape: write amplification is one container copy per
partition (sequential copy of its blobs plus the new column's bytes);
nothing global, no exchange, resumable at partition granularity.
"""

from __future__ import annotations

import os
from typing import Callable

import pyarrow as pa

import ray.data

from ..state import container as container_mod
from ..state import manifest as manifest_mod
from ..state.pruning import column_stats


def _col_accounting(header: dict, name: str) -> tuple[str, int, int]:
    """(codec, raw_bytes, enc_bytes) of one column summed over chunks."""
    codec = ""
    raw = enc = 0
    for ch in header["chunks"]:
        for cm in ch["columns"]:
            if cm["name"] == name:
                codec = cm["codec"]
                raw += cm["raw_bytes"]
                enc += cm["length"]
    return codec, raw, enc


def _per_partition(out_dir: str, todo, step) -> tuple[int, int, int]:
    """Run ``step(manifest, src_path, dest_path) -> bytes`` in Ray tasks
    for every partition whose manifest passes ``todo``.  ``step``
    publishes ``dest_path`` (a fresh ``container.new_name``) from the
    partition's container and updates the manifest; writing that
    manifest is the commit, and the job's final sweep removes the
    superseded files.  Returns (partitions done, skipped, bytes)."""
    manifests = manifest_mod.scan_manifests(out_dir)
    if not manifests:
        raise ValueError(f"no completed partitions under {out_dir}")
    work = [{"pid": pid} for pid, m in sorted(manifests.items()) if todo(m)]
    if not work:
        return 0, len(manifests), 0

    def run_batch(batch: pa.Table) -> pa.Table:
        done = []
        for pid in batch.column("pid").to_pylist():
            m = manifest_mod.read_manifest(out_dir, pid)
            fname = container_mod.new_name(pid)
            done.append(step(m, os.path.join(out_dir, m.data_file), os.path.join(out_dir, fname)))
            m.data_file = fname
            manifest_mod.write_manifest(out_dir, m)
        return pa.table({"bytes": pa.array(done, type=pa.int64())})

    res = (
        ray.data.from_items(work, override_num_blocks=len(work))
        .map_batches(run_batch, batch_format="pyarrow", num_cpus=1)
        .to_pandas()
    )
    manifest_mod.sweep_orphans(out_dir, manifests)
    return len(res), len(manifests) - len(work), int(res["bytes"].sum())


def run_derive_column_job(
    out_dir: str,
    name: str,
    fn: Callable[[pa.Table], "pa.Array | pa.ChunkedArray"],
    input_columns: list[str],
    *,
    codec: str | None = None,
    validate: bool = True,
) -> dict:
    """Add column ``name`` = ``fn(projected_table)`` to every partition
    of an encoded store.  ``fn`` must be deterministic and vectorized
    (pa.Table of ``input_columns`` in partition sort order → Array of
    the same length).  Idempotent: partitions whose manifest already
    records the column are skipped."""

    def derive(m, src: str, dest: str) -> int:
        col = fn(container_mod.read_container(src, columns=input_columns))
        if isinstance(col, pa.ChunkedArray):
            col = col.combine_chunks()

        validator = None
        if validate:
            def validator(tmp_path: str) -> None:
                # decode the appended column from the temp file and
                # compare bit-exact before the publishing rename
                got = container_mod.read_container(tmp_path, columns=[name])
                if not got.column(name).combine_chunks().equals(col):
                    raise IOError(
                        f"partition {m.partition_id}: derived column {name!r} failed "
                        f"pre-publish decode verification"
                    )

        header = container_mod.append_column(src, dest, name, col, codec=codec, validator=validator)
        codec_name, raw, enc = _col_accounting(header, name)
        m.columns[name] = {"codec": codec_name, "raw_bytes": raw, "enc_bytes": enc}
        m.raw_bytes += raw
        m.enc_bytes += enc
        m.extra.setdefault("stats", {})[name] = column_stats(name, col)
        return enc

    done, skipped, enc = _per_partition(out_dir, lambda m: name not in m.columns, derive)
    return {"partitions": done, "skipped": skipped, "enc_bytes": enc}


# columns the engine's lineage depends on: content feeds the partition
# digest (decode verification), the sort keys define partition order
_PROTECTED = frozenset(["content", "repo", "path", "commit"])


def run_drop_column_job(out_dir: str, name: str) -> dict:
    """Drop column ``name`` from every partition, reclaiming its bytes
    (container.drop_column copies surviving blobs verbatim into a new
    file; the sweep removes the old one).  Refuses lineage columns
    (content / sort keys).  Idempotent: partitions whose manifest no
    longer lists the column are skipped."""
    if name in _PROTECTED:
        raise ValueError(f"refusing to drop lineage column {name!r}")

    def drop(m, src: str, dest: str) -> int:
        container_mod.drop_column(src, dest, name)
        acct = m.columns.pop(name)
        m.raw_bytes -= acct["raw_bytes"]
        m.enc_bytes -= acct["enc_bytes"]
        m.extra.get("stats", {}).pop(name, None)
        return acct["enc_bytes"]

    done, skipped, reclaimed = _per_partition(out_dir, lambda m: name in m.columns, drop)
    return {"partitions": done, "skipped": skipped, "reclaimed_bytes": reclaimed}
