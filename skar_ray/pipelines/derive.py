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

Crash safety: the container rewrite is atomic (temp + validate +
rename) and the manifest update follows it; a crash between the two
leaves a container that already has the column but a manifest that
doesn't — the next run detects that and backfills the manifest from the
container without rewriting data.

Reference analog: the post-write index build over already-flushed
folders (/root/reference/skar/src/build_parquet_idx.rs:19-199) —
generalized from stats to a queryable derived column.

100 TB shape: write amplification is one container rewrite per
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


def _update_manifest(out_dir: str, pid: int, name: str, header: dict, col) -> None:
    m = manifest_mod.read_manifest(out_dir, pid)
    codec, raw, enc = _col_accounting(header, name)
    m.columns[name] = {"codec": codec, "raw_bytes": raw, "enc_bytes": enc}
    m.raw_bytes += raw
    m.enc_bytes += enc
    m.extra.setdefault("stats", {})[name] = column_stats(name, col)
    manifest_mod.write_manifest(out_dir, m)


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
    records the column are skipped; containers that have the column but
    lost the manifest update (crash window) are backfilled."""
    manifests = manifest_mod.scan_manifests(out_dir)
    if not manifests:
        raise ValueError(f"no completed partitions under {out_dir}")
    work = [
        {"pid": pid, "data_file": m.data_file}
        for pid, m in sorted(manifests.items())
        if name not in m.columns
    ]
    if not work:
        return {"partitions": 0, "backfilled": 0, "skipped": len(manifests)}

    def derive_batch(batch: pa.Table) -> pa.Table:
        pids, bytes_, backfilled = [], [], []
        for row in batch.to_pylist():
            pid, path = row["pid"], os.path.join(out_dir, row["data_file"])
            header, _ = container_mod.read_header(path)
            if any(n == name for n, _ in header["schema"]):
                # crash window: container has the column, manifest lost
                # the update — recover stats from the container only
                col = container_mod.read_container(path, columns=[name]).column(name)
                col = col.combine_chunks()
                _update_manifest(out_dir, pid, name, header, col)
                pids.append(pid)
                bytes_.append(_col_accounting(header, name)[2])
                backfilled.append(True)
                continue
            src = container_mod.read_container(path, columns=input_columns)
            col = fn(src)
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
                            f"partition {pid}: derived column {name!r} failed "
                            f"pre-publish decode verification"
                        )

            new_header = container_mod.append_column(
                path, name, col, codec=codec, validator=validator,
            )
            _update_manifest(out_dir, pid, name, new_header, col)
            pids.append(pid)
            bytes_.append(_col_accounting(new_header, name)[2])
            backfilled.append(False)
        return pa.table(
            {
                "partition_id": pa.array(pids, type=pa.int64()),
                "enc_bytes": pa.array(bytes_, type=pa.int64()),
                "backfilled": pa.array(backfilled, type=pa.bool_()),
            }
        )

    res = (
        ray.data.from_items(work, override_num_blocks=len(work))
        .map_batches(derive_batch, batch_format="pyarrow", num_cpus=1)
        .to_pandas()
    )
    return {
        "partitions": int(len(res)),
        "backfilled": int(res["backfilled"].sum()),
        "skipped": len(manifests) - len(work),
        "enc_bytes": int(res["enc_bytes"].sum()),
    }


# columns the engine's lineage depends on: content feeds the partition
# digest (decode verification), the sort keys define partition order
_PROTECTED = frozenset(["content", "repo", "path", "commit"])


def run_drop_column_job(out_dir: str, name: str) -> dict:
    """Drop column ``name`` from every partition, reclaiming its bytes
    (container.drop_column copies surviving blobs verbatim).  Refuses
    lineage columns (content / sort keys).  Idempotent: partitions
    whose container no longer has the column only get their manifest
    reconciled."""
    if name in _PROTECTED:
        raise ValueError(f"refusing to drop lineage column {name!r}")
    manifests = manifest_mod.scan_manifests(out_dir)
    if not manifests:
        raise ValueError(f"no completed partitions under {out_dir}")
    work = [
        {"pid": pid, "data_file": m.data_file}
        for pid, m in sorted(manifests.items())
        if name in m.columns
    ]
    if not work:
        return {"partitions": 0, "skipped": len(manifests), "reclaimed_bytes": 0}

    def drop_batch(batch: pa.Table) -> pa.Table:
        pids, reclaimed = [], []
        for row in batch.to_pylist():
            pid, path = row["pid"], os.path.join(out_dir, row["data_file"])
            header, _ = container_mod.read_header(path)
            if any(n == name for n, _ in header["schema"]):
                header = container_mod.drop_column(path, name)
            m = manifest_mod.read_manifest(out_dir, pid)
            acct = m.columns.pop(name, None) or {"raw_bytes": 0, "enc_bytes": 0}
            m.raw_bytes -= acct["raw_bytes"]
            m.enc_bytes -= acct["enc_bytes"]
            m.extra.get("stats", {}).pop(name, None)
            manifest_mod.write_manifest(out_dir, m)
            pids.append(pid)
            reclaimed.append(acct["enc_bytes"])
        return pa.table(
            {
                "partition_id": pa.array(pids, type=pa.int64()),
                "reclaimed": pa.array(reclaimed, type=pa.int64()),
            }
        )

    res = (
        ray.data.from_items(work, override_num_blocks=len(work))
        .map_batches(drop_batch, batch_format="pyarrow", num_cpus=1)
        .to_pandas()
    )
    return {
        "partitions": int(len(res)),
        "skipped": len(manifests) - len(work),
        "reclaimed_bytes": int(res["reclaimed"].sum()),
    }
