"""Compaction — merge many small encoded partitions into fewer large ones.

The reference's core loop accumulates small in-memory chunks and
periodically compacts them into big sorted Parquet folders
(/root/reference/skar/src/skar_runner.rs:285-331).  Our analog
re-expresses compaction as pure composition:

1. size pre-pass on the encoded form (``stats.store_group_bytes``: per
   repo row counts and content byte lengths read from the code and
   length streams, no content decode) → re-plan with a larger target;
2. the hash exchange (``hash_exchange.run_hashed_encode``) over every
   source container: each map decodes its containers with the digest
   checked against the source manifest, so a corrupted source raises
   and nothing is published; each reduce encodes one destination
   partition.

Because partitions are self-describing and the manifest carries an
order-insensitive row-digest union (sum of per-row sha256s mod 2^256),
compaction is verifiable from manifests alone: the source union must
equal the destination union even though the partitioning changed
(checked here as ``digests_match``; row counts are compared as well).
"""

from __future__ import annotations

import os

import pyarrow as pa

from ..stages import partitioner
from ..state import manifest as manifest_mod
from .hash_exchange import container_sources, run_hashed_encode
from .stats import store_group_bytes


def run_compact_job(
    src_dir: str,
    dest_dir: str,
    target_partition_bytes: int = 128 << 20,
    chunk_target_bytes: int = 16 << 20,
) -> dict:
    os.makedirs(dest_dir, exist_ok=True)
    sizes = store_group_bytes(src_dir, "repo", "content")
    plan = partitioner.make_plan(  # a repo of NULL contents weighs 0 bytes
        pa.table({"repo": sizes["value"], "bytes": sizes["total_bytes"].fillna(0)}),
        target_partition_bytes,
    )
    fingerprint = f"compact:{src_dir}:{target_partition_bytes}"
    src_manifests = manifest_mod.scan_manifests(src_dir)
    out = run_hashed_encode(
        container_sources(src_dir, src_manifests.values()), dest_dir, plan, chunk_target_bytes,
        dict.fromkeys(range(plan.n_partitions), fingerprint),
    )

    # orphan sweep (same contract as run_encode_job): a re-compaction
    # into a previously-used dest_dir can stop producing some partition
    # ids, which would pollute the digest comparison below
    dest_manifests = manifest_mod.sweep_orphans(dest_dir, set(out.column("partition_id").to_pylist()))
    src_rows = sum(m.n_rows for m in src_manifests.values())
    dest_rows = sum(out.column("n_rows").to_pylist())

    def _digest_union(ms) -> int | None:
        """Order-insensitive row-digest union (sum of per-row sha256s
        mod 2^256, written by encode_partition) — repartition-invariant,
        so source and destination unions must be equal even though the
        partitioning changed.  None if any manifest predates the field."""
        total = 0
        for m in ms.values():
            s = (m.extra or {}).get("content_sum")
            if s is None:
                return None
            total = (total + int(s, 16)) % (1 << 256)
        return total

    src_sum, dest_sum = _digest_union(src_manifests), _digest_union(dest_manifests)
    return {
        "src_partitions": len(src_manifests),
        "dest_partitions": out.num_rows,
        "rows_match": src_rows == dest_rows,
        "digests_match": (src_sum == dest_sum) if src_sum is not None and dest_sum is not None else None,
        "src_rows": src_rows,
        "dest_rows": dest_rows,
    }
