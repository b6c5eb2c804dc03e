"""Decode + verify job — the read-back half of the round-trip proof.

Mirrors the reference's validate-after-write step
(/root/reference/skar/src/skar_runner.rs:309-312, validate_parquet.rs:17-66):
manifest rows fan out to one task-pool decode stage (``decode_stage``);
each partition is decoded and its per-row sha256 digest recomputed and
compared with the digest the encoder stored (which was derived from the
ORIGINAL data).  Every partition passing ⇒ decoded bytes are
bit-identical to the pre-encode bytes, partition-complete by
construction.
"""

from __future__ import annotations

import os

import pyarrow as pa
import pyarrow.parquet as pq

import ray.data

from ..stages.decoder import decode_stage
from ..state import container
from ..state import manifest as manifest_mod


def manifests_dataset(out_dir: str) -> "ray.data.Dataset":
    rows = [
        {
            "partition_id": m.partition_id,
            "data_file": m.data_file,
            "n_rows": m.n_rows,
            "content_sha256": m.content_sha256,
        }
        for m in manifest_mod.scan_manifests(out_dir).values()
    ]
    return ray.data.from_items(rows)


def decoded_dataset(
    out_dir: str,
    columns: list[str] | None = None,
    verify: bool = False,
) -> "ray.data.Dataset":
    return decode_stage(
        manifests_dataset(out_dir), out_dir=out_dir, columns=columns, verify=verify,
    )


def _export_batch(batch: pa.Table, *, out_dir: str, dest_dir: str, columns) -> pa.Table:
    """Write each manifest row's partition to ``part-<pid>.parquet`` under
    ``dest_dir`` (temp+rename); a file already present is skipped."""
    pids, skipped = [], []
    for i in range(batch.num_rows):
        pid = batch.column("partition_id")[i].as_py()
        dest = os.path.join(dest_dir, f"part-{pid:06d}.parquet")
        if os.path.exists(dest):
            pids.append(pid)
            skipped.append(True)
            continue
        t = container.read_container(
            os.path.join(out_dir, batch.column("data_file")[i].as_py()),
            columns=columns,
        )
        tmp = f"{dest}.tmp-{os.getpid()}"
        pq.write_table(t, tmp, compression="zstd")
        os.replace(tmp, dest)
        pids.append(pid)
        skipped.append(False)
    return pa.table({"partition_id": pa.array(pids, type=pa.int64()),
                     "skipped": pa.array(skipped)})


def run_export_job(out_dir: str, dest_dir: str, columns: list[str] | None = None) -> dict:
    """Decode encoded partitions back to a PARTITIONED Parquet directory —
    one file per partition, written atomically (temp+rename) and skipped
    if already present, so a failed export resumes where it stopped
    (the resumable-output layout: never one giant file)."""
    os.makedirs(dest_dir, exist_ok=True)
    manifests = manifest_mod.scan_manifests(out_dir)
    res = (
        manifests_dataset(out_dir)
        .map_batches(
            _export_batch, fn_kwargs=dict(out_dir=out_dir, dest_dir=dest_dir, columns=columns),
            batch_format="pyarrow", batch_size=1,
        )
        .to_pandas()
    )
    return {
        "partitions": len(manifests),
        "exported": int((~res["skipped"]).sum()),
        "skipped": int(res["skipped"].sum()),
        "dest": dest_dir,
    }


def run_verify_job(corpus_path: str, out_dir: str) -> dict:
    """Decode every partition with digest verification; cross-check totals
    against the source corpus (row counts must match exactly)."""
    decoded = decoded_dataset(out_dir, verify=True)
    decoded_rows = decoded.count()
    src_rows = ray.data.read_parquet(corpus_path, columns=["repo"]).count()
    manifests = manifest_mod.scan_manifests(out_dir)
    return {
        "partitions": len(manifests),
        "decoded_rows": decoded_rows,
        "source_rows": src_rows,
        "rows_match": decoded_rows == src_rows,
        "digests_verified": True,  # decode_manifest_batch raises on any mismatch
    }
