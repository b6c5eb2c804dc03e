"""Decode stage — actor pool turning containers back into Arrow tables.

Mirror of the reference's projected Parquet reader + validator
(/root/reference/skar/src/query/data_provider.rs:121-183,
validate_parquet.rs:17-66).  A ``DecoderActor`` pool is fed manifest
rows (tiny control records); each actor opens the container, decodes
the requested columns chunk-by-chunk, optionally re-derives the per-row
sha256 digest and compares it against the manifest — the decode-side
half of the round-trip proof.

Stateful per-actor cache: container headers keyed by path (FSST symbol
tables live inside chunk payloads; header parse + file handle reuse is
what repeats across calls).
"""

from __future__ import annotations

import os

import pyarrow as pa

from ..state import container
from .encoder import partition_digest, row_sha256


def _header_of(header_cache: dict, path: str) -> tuple[dict, int]:
    # (mtime_ns, size, header, blob_start) per path — parsed once per
    # cache lifetime, stat-guarded so an atomically-replaced container
    # (append/compact rewrite the same filename) never serves stale
    # chunk offsets
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


class DecoderActor:
    def __init__(self, out_dir: str, columns: list[str] | None = None, verify: bool = False,
                 dnf=None, encoded_filter=None, apply_dnf: bool = False,
                 tag_partition: bool = False):
        self.out_dir = out_dir
        self.columns = columns
        self.verify = verify
        self.dnf = dnf  # chunk-level (row-group analog) pruning predicate
        self.encoded_filter = encoded_filter  # (col, values) evaluated on codes
        self.apply_dnf = apply_dnf  # exact full-DNF row mask on the encoded form
        self.tag_partition = tag_partition  # append __pid (budgeted-scan cursor)
        assert not (verify and (encoded_filter or apply_dnf)), "digest verify needs full partitions"
        self._header_cache: dict[str, tuple[int, int, dict, int]] = {}

    def __call__(self, batch: pa.Table) -> pa.Table:
        return _decode_manifest_rows(
            batch, self._header_cache, self.out_dir, self.columns, self.verify,
            self.dnf, self.encoded_filter, self.apply_dnf, self.tag_partition,
        )


# Per-worker-PROCESS header cache for the task-pool decode path: Ray
# reuses worker processes across tasks, so a module-level cache gives
# the same header/handle reuse as an actor's instance cache without the
# per-execution actor-pool spinup (~1 s per map_batches(Class) stage,
# paid even warm — dominant on small latency-sensitive scans).
_TASK_HEADER_CACHE: dict[str, tuple[int, int, dict, int]] = {}


def decode_manifest_batch(
    batch: pa.Table, *, out_dir: str, columns=None, verify: bool = False,
    dnf=None, encoded_filter=None, apply_dnf: bool = False,
    tag_partition: bool = False,
) -> pa.Table:
    """Task-pool twin of ``DecoderActor`` — same decode, state in a
    per-process cache.  Used for small scans where actor spinup would
    dominate; the actor pool remains the bulk path (large partition
    counts)."""
    return _decode_manifest_rows(
        batch, _TASK_HEADER_CACHE, out_dir, columns, verify,
        dnf, encoded_filter, apply_dnf, tag_partition,
    )


# Force one path in tests: "task" | "actor" | "" (adaptive)
_DECODE_POOL_OVERRIDE = ""


def decode_stage(mds, n_parts: int, concurrency, **decode_kwargs):
    """Decode manifest rows → Arrow, adaptively: small scans run as a
    TASK pool (per-worker-process header cache, no actor spinup — the
    ~1 s/stage actor startup dominates second-scale queries), large
    partition counts as the ``DecoderActor`` pool (amortized per-actor
    state, bounded pool for the 100 TB path)."""
    import ray as _ray

    ncpu = int(_ray.cluster_resources().get("CPU", 8))
    small = n_parts <= 4 * ncpu
    if _DECODE_POOL_OVERRIDE == "task" or (small and _DECODE_POOL_OVERRIDE != "actor"):
        return mds.map_batches(
            decode_manifest_batch, fn_kwargs=decode_kwargs,
            batch_format="pyarrow", batch_size=1,
        )
    if isinstance(concurrency, tuple):
        # floor the pool at the known work set, capped at the CPU count
        # (autoscaling from 1 actor dominates second-scale scans; floors
        # beyond the CPUs oversubscribe small sessions)
        concurrency = (max(concurrency[0], min(n_parts, ncpu, concurrency[1])), concurrency[1])
    return mds.map_batches(
        DecoderActor,
        fn_constructor_kwargs=decode_kwargs,
        batch_format="pyarrow",
        batch_size=1,
        concurrency=concurrency,
    )
