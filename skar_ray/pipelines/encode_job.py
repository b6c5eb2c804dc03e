"""End-to-end encode job: read → plan → pkey → hash exchange → encode.

The Ray-native re-expression of the reference's write path
(`process_data` flush, /root/reference/skar/src/skar_runner.rs:285-370):

    size pre-pass → PartitionPlan             # skew plan (driver-small, cached)
    per-pkey input fingerprints               # manifest resume filter
    run_hashed_encode (hash_exchange.py):
      map tasks:    read file groups → assign_pkeys → split by pkey
      reduce tasks: one per pkey → encode_partition
             each partition: lexsort → chunk → auto-codec → .skarc + manifest

Two modes:
- ``mode="hashed"`` (default): the sort-free hash exchange co-locates
  each salted repo bucket in one reduce task, maximising dict/RLE
  locality — skar's sort-before-write.
- ``mode="sharded"``: no exchange; each input block encodes
  independently as one ``shard_encode_batch`` task (faster, slightly
  worse ratio).  The registry's non-corpus tables use it.

Returns a summary pyarrow Table (one row per partition) and writes the
job-level summary into ``<out>/_manifest/_job.json``.
"""

from __future__ import annotations

import json
import os
import time

import pyarrow as pa

import ray.data

from ..stages import partitioner
from ..stages.encoder import shard_encode_batch
from ..state import manifest as manifest_mod


def corpus_dataset(corpus_path: str, columns: list[str] | None = None) -> "ray.data.Dataset":
    """Read with ~2 blocks per core.  The block count is the partition
    count of ``mode="sharded"`` (one partition per input block), and
    ``append_job`` reads its new rows through here; letting the reader
    split into hundreds of small blocks would multiply both."""
    import ray as _ray

    ncpu = int(_ray.cluster_resources().get("CPU", 8))
    return ray.data.read_parquet(
        corpus_path, columns=columns, override_num_blocks=max(8, 2 * ncpu)
    )


def _auto_partition_bytes(total_bytes: int) -> int:
    """Size partitions so every core has ≥2 partitions of work (ideal
    load-balance for the encode tasks) within [4 MiB, 128 MiB]."""
    import ray

    ncpu = int(ray.cluster_resources().get("CPU", 8))
    target = total_bytes // max(1, 2 * ncpu)
    return max(4 << 20, min(128 << 20, target))


FAST_PROFILE_OVERRIDES = {
    # speed-oriented profile: skip FSST (symbol-table training and the
    # pyarrow replace chain are its largest encode costs; with every
    # column overridden, the plan trains no table), keep dict/rle for
    # the run-heavy keys, rely on the zstd-9 page pass for content.
    # Measured (r3): a zstd level of 3 saves ~90 worker-seconds of zstd
    # CPU but ZERO wall time at 32 cores — the critical path is the
    # exchange, not compression — while costing 3.05x -> 1.82x ratio;
    # level 9 stays the right operating point on this profile.
    "content": "plain",
    "path": "plain",
    "repo": "rle",
    "lang": "rle",
    "commit": "dict",
}


def _corpus_fingerprint(corpus_path: str) -> str:
    """Stable fingerprint of the input files (path, size, mtime)."""
    import hashlib

    h = hashlib.sha256()
    for p in partitioner.input_paths(corpus_path):
        st = os.stat(p)
        h.update(f"{p}:{st.st_size}:{st.st_mtime_ns}".encode())
    return h.hexdigest()[:16]


def _pkey_fingerprints(corpus_path: str, plan, plan_hash: str,
                       target_partition_bytes: int) -> dict[int, str]:
    """Per-PARTITION input fingerprints — the rollback/reorg detector.

    The plan-level fingerprint alone cannot see a content mutation that
    leaves per-repo row counts unchanged (identical plan → identical
    hash → every stale partition resume-skipped).  The reference
    detects reorgs per block range and re-encodes only affected folders
    (/root/reference/skar/src/skar_runner.rs:107-158); our analog keys
    each pkey's fingerprint on the (name, size, mtime_ns) of every
    input FILE containing any repo mapped to that pkey.  Touch one
    file → exactly the pkeys it feeds re-encode; untouched pkeys keep
    matching manifests and are skipped.

    Cost: one stat per file plus, on first sight of a (path,size,mtime)
    triple, one repo-column-only read (tiny, dictionary-encoded) cached
    as a sidecar JSON — ``hash_exchange.file_repo_sets``, the SAME
    cache the hash exchange's metadata pre-pass reads, so the two
    passes share one repo-column scan per file content version.
    """
    import hashlib

    from .hash_exchange import file_repo_sets

    paths = partitioner.input_paths(corpus_path)
    cached = file_repo_sets(paths)
    stats: dict[str, str] = {}
    for p in paths:
        st = os.stat(p)
        stats[p] = f"{os.path.basename(p)}:{st.st_size}:{st.st_mtime_ns}"

    pkey_files: dict[int, set[str]] = {}
    for p in paths:
        for r in cached[p]:
            s, nb = plan.repos.get(r, (0, 1))  # mirror assign_pkeys' default
            for pk in range(s, s + nb):
                pkey_files.setdefault(pk, set()).add(stats[p])
    # no corpus path: a moved corpus resumes, manifests hold no location;
    # the salt version: a store salted another way re-encodes whole
    base = f"{target_partition_bytes}:{plan_hash}:salt{partitioner.SALT_VERSION}"
    return {
        pk: base + ":" + hashlib.sha256(";".join(sorted(fs)).encode()).hexdigest()[:16]
        for pk, fs in pkey_files.items()
    }


def _cached_plan(corpus_path: str, target_partition_bytes: int | None):
    """Partition plans are deterministic functions of (corpus, target);
    cache them on disk so reruns/resumes skip the size pre-pass — the
    analog of skar reopening its stored folder index instead of
    rescanning (/root/reference/skar/src/db/mod.rs:68-86)."""
    import pickle

    fp = _corpus_fingerprint(corpus_path)
    cache_dir = "/tmp/skar_ray_plans"
    os.makedirs(cache_dir, exist_ok=True)
    key = f"{fp}-{target_partition_bytes or 'auto'}"
    import ray as _ray

    if target_partition_bytes is None:
        key = f"{fp}-auto{int(_ray.cluster_resources().get('CPU', 8))}"
    cache_file = os.path.join(cache_dir, key + ".pkl")
    if os.path.exists(cache_file):
        with open(cache_file, "rb") as f:
            return pickle.load(f)
    sizes = partitioner.repo_size_prepass_fast(corpus_path)
    if target_partition_bytes is None:
        import pyarrow.compute as pc

        target_partition_bytes = _auto_partition_bytes(
            int(pc.sum(sizes.column("bytes")).as_py() or 0)
        )
    plan = partitioner.make_plan(sizes, target_partition_bytes)
    tmp = cache_file + ".tmp"
    with open(tmp, "wb") as f:
        pickle.dump((plan, target_partition_bytes), f)
    os.replace(tmp, cache_file)
    return plan, target_partition_bytes


def run_encode_job(
    corpus_path: str,
    out_dir: str,
    target_partition_bytes: int | None = None,
    chunk_target_bytes: int = 16 << 20,
    mode: str = "hashed",
    resume: bool = True,
    codec_overrides: dict[str, str] | None = None,
    profile: str = "max",
    validate: bool = True,
) -> pa.Table:
    if mode not in ("hashed", "sharded"):
        raise ValueError(f"unknown encode mode {mode!r}; expected 'hashed' or 'sharded'")
    if profile == "fast" and codec_overrides is None:
        codec_overrides = FAST_PROFILE_OVERRIDES
    t0 = time.time()
    os.makedirs(out_dir, exist_ok=True)

    # fail fast on shape mismatch (skar validates every ingest batch;
    # our input is static so one schema check up front suffices)
    import pyarrow.dataset as pads

    from ..stages.validate import validate_schema

    validate_schema(pads.dataset(corpus_path).schema)

    if mode == "sharded":
        # block ids depend on the read's block structure, which follows
        # cluster size — scope resume to the same parallelism so stale
        # manifests from another level can't shadow fresh partitions
        import ray as _ray

        _ncpu = int(_ray.cluster_resources().get("CPU", 8))
        input_fingerprint = f"{corpus_path}:sharded:{_ncpu}"
        done = manifest_mod.scan_manifests(out_dir) if resume else {}
        done = {p: m for p, m in done.items() if m.input_fingerprint == input_fingerprint}
        enc_kwargs = dict(
            out_dir=out_dir,
            chunk_target_bytes=chunk_target_bytes,
            input_fingerprint=input_fingerprint,
            done_ids=frozenset(done.keys()),
            codec_overrides=codec_overrides,
            validate=validate,
        )
        enc = corpus_dataset(corpus_path).map_batches(
            shard_encode_batch, fn_kwargs=enc_kwargs,
            batch_format="pyarrow",
            batch_size=None,  # one call per input block
            zero_copy_batch=True,
        )
        summary = pa.Table.from_pandas(enc.to_pandas())
    else:
        plan, target_partition_bytes = _cached_plan(corpus_path, target_partition_bytes)
        # resume only against manifests from the SAME plan — a different
        # partition plan renumbers pkeys (skar's analog: block-range keys
        # are plan-independent; ours must be fingerprint-guarded)
        import hashlib

        plan_hash = hashlib.sha256(repr(sorted(plan.repos.items())).encode()).hexdigest()[:16]
        pkey_fp = _pkey_fingerprints(corpus_path, plan, plan_hash, target_partition_bytes)
        done = manifest_mod.scan_manifests(out_dir) if resume else {}
        # per-pkey fingerprints: a mutated input file invalidates exactly
        # the partitions it feeds (see _pkey_fingerprints)
        done = {p: m for p, m in done.items() if m.input_fingerprint == pkey_fp.get(p)}
        from .hash_exchange import run_hashed_encode

        summary = run_hashed_encode(
            partitioner.input_paths(corpus_path), out_dir, plan, chunk_target_bytes, pkey_fp,
            skip_pkeys=frozenset(done.keys()), codec_overrides=codec_overrides,
            validate=validate,
        )
        if done:
            import pandas as pd

            skipped_rows = pd.DataFrame(
                [
                    {
                        "partition_id": m.partition_id,
                        "n_rows": m.n_rows,
                        "raw_bytes": m.raw_bytes,
                        "enc_bytes": m.enc_bytes,
                        "content_sha256": m.content_sha256,
                        "skipped": True,
                    }
                    for m in done.values()
                ]
            )
            summary = pa.Table.from_pandas(
                pd.concat([summary.to_pandas(), skipped_rows], ignore_index=True)
            )

    # orphan sweep: a changed corpus (or plan) can stop producing some
    # partition ids entirely.  After a fully-successful encode, the
    # store's contract is out_dir == encode(corpus_path) EXACTLY — drop
    # anything the job neither wrote nor resume-skipped.
    live = set(summary.column("partition_id").to_pylist()) if summary.num_rows else set()
    manifest_mod.sweep_orphans(out_dir, live)

    job = {
        "corpus": corpus_path,
        "mode": mode,
        "partitions": summary.num_rows,
        "rows": int(pa.compute.sum(summary.column("n_rows")).as_py() or 0),
        "raw_bytes": int(pa.compute.sum(summary.column("raw_bytes")).as_py() or 0),
        "enc_bytes": int(pa.compute.sum(summary.column("enc_bytes")).as_py() or 0),
        "wall_s": round(time.time() - t0, 3),
    }
    os.makedirs(manifest_mod.manifest_dir(out_dir), exist_ok=True)
    with open(os.path.join(manifest_mod.manifest_dir(out_dir), "_job.json"), "w") as f:
        json.dump(job, f)
    return summary
