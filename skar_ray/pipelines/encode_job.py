"""End-to-end encode job: read → plan → pkey → hash exchange → encode.

The Ray-native re-expression of the reference's write path
(`process_data` flush, /root/reference/skar/src/skar_runner.rs:285-370):

    size pre-pass → PartitionPlan             # skew plan (driver-small, cached)
      + codec plan                            # each string column's codec + FSST table,
                                              # chosen once on a stratified sample
    per-pkey input fingerprints               # manifest resume filter
    run_hashed_encode (hash_exchange.py):
      map tasks:    one wave; read file groups → assign_pkeys → one
                    Arrow IPC stream per pkey per flush
      reduce tasks: one per pkey, largest ready first → encode_partition
             each partition: lexsort → chunk → planned codecs → .skarc + manifest

Two modes:
- ``mode="hashed"`` (default): the sort-free hash exchange co-locates
  each salted repo bucket in one reduce task, maximising dict/RLE
  locality — skar's sort-before-write.
- ``mode="sharded"``: no exchange; each input block encodes
  independently as one ``shard_encode_batch`` task (faster, slightly
  worse ratio).  The registry's non-corpus tables use it.

Returns a summary pyarrow Table (one row per partition) and writes the
job-level summary into ``<out>/_manifest/_job.json``; a hashed encode's
``codec_plan`` entry holds each planned column's codec, its sample
estimates and the bytes it realized over the store.
"""

from __future__ import annotations

import functools
import json
import os
import time
from collections import Counter

import pyarrow as pa

import ray.data

from ..stages import partitioner
from ..stages.encoder import shard_encode_batch, summary_table
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


def corpus_sample(paths: list[str]) -> tuple[bytes, pa.Table | None]:
    """The codec plan's sample, stratified by input file: the heads of at
    most 16 files, stratum ``i`` being ``paths[i * len(paths) // 16]``.
    It holds

    - ``content``'s FSST training sample: 16 pieces of 4 KiB, a file's
      pieces spread along the first 1 MiB of its content (one file can
      hold tens of MB); a head no longer than them is taken whole;
    - at most 1024 rows of every string-like column: each stratum's
      first 64 rows (None when no file has a row).  Consecutive rows
      keep a partition's run and dictionary density; strided ones chose
      codecs that wrote more bytes.

    The read holds at most 1 MiB of content and 64 rows per stratum,
    whatever the file's size: ``content`` is read alone, to the end of
    its 1 MiB head and its rows, and the other string columns only to
    their rows, so no page is decoded twice."""
    import pyarrow.parquet as pq

    from ..codecs import base

    pieces: list[bytes] = []
    rows: list[pa.Table] = []
    for p, k in Counter(paths[i * len(paths) // 16] for i in range(16)).items():
        f = pq.ParquetFile(p, buffer_size=1 << 20)  # streams the column chunks
        schema = pa.schema([fl for fl in f.schema_arrow if base.is_string_like(fl.type)])
        head, kept = b"", {}
        if "content" in schema.names:
            chunks, n = [], 0
            for b in f.iter_batches(256, columns=["content"]):
                if n < 64 * k:
                    chunks.append(b.column(0))
                    n += b.num_rows
                head = (head + base.strings_to_buffers(base.split_nulls(b.column(0))[1])[1])[: 1 << 20]
                if n >= 64 * k and len(head) == 1 << 20:
                    break
            kept["content"] = chunks
        others = [name for name in schema.names if name != "content"]
        if others:
            batches, n = [], 0
            for b in f.iter_batches(64 * k, columns=others):
                batches.append(b)
                n += b.num_rows
                if n >= 64 * k:
                    break
            kept.update({name: [b.column(name) for b in batches] for name in others})
        step = max(len(head) // k, 4096)  # a head of ≤ k pieces tiles whole
        pieces += [head[j * step : j * step + 4096] for j in range(k)]
        columns = [pa.chunked_array(kept[fl.name], fl.type).slice(0, 64 * k) for fl in schema]
        rows.append(pa.Table.from_arrays(columns, schema=schema))
    sample = pa.concat_tables(rows, promote_options="permissive") if rows else None
    return b"".join(pieces), sample if sample is not None and sample.num_rows else None


def codec_plan(paths: list[str]) -> dict:
    """String-like column → (codec, FSST table or None, sample
    estimates), chosen ONCE for the corpus by ``container._plan_column``
    on ``corpus_sample``'s rows, lexsorted as a partition is;
    ``content`` uses the table trained on the content pieces.  Every
    reduce of a hashed encode then only encodes (``hash_exchange``).

    Only string-like columns are planned: their candidates (rle, dict,
    fsst, plain) encode any value, so a choice made on file heads holds
    for every row.  An integer column's ``for_bitpack`` cannot hold a
    uint64 value of 2**63 or more that the heads may not show, so other
    columns keep selecting per partition."""
    from ..codecs.fsst import FsstCodec
    from ..stages.encoder import lexsort
    from ..state.container import _plan_column

    content, rows = corpus_sample(paths)
    if rows is None:
        return {}
    rows = lexsort(rows)
    out = {}
    for name in rows.column_names:
        shared = FsstCodec().make_table(content) if name == "content" and content else None
        _, codec, table, estimates = _plan_column(rows.column(name), None, shared)
        out[name] = (codec, table, estimates)
    return out


def _needs_codec_plan(paths: list[str], codec_overrides: dict | None) -> bool:
    """Whether an encode of these files leaves some string-like column
    to the codec plan; the fast profile overrides every one."""
    import pyarrow.parquet as pq

    from ..codecs import base

    if not paths:
        return False
    return any(base.is_string_like(fl.type) and fl.name not in (codec_overrides or {})
               for fl in pq.read_schema(paths[0]))


# the cached plan's format: a plan pickled in another shape (one
# without ``codecs``) is rebuilt, never loaded
PLAN_VERSION = 2


@functools.cache
def _plan_code_hash() -> str:
    """A digest of the code a cached plan's choices come from: every
    codec module, the partitioner, the selector's per-column plan and
    the sample.  It is part of the cache key, so a plan cached by other
    code is rebuilt, not reused with stale choices or tables."""
    import hashlib
    import inspect

    from .. import codecs
    from ..state.container import _plan_column

    h = hashlib.sha256()
    d = os.path.dirname(codecs.__file__)
    for name in sorted(n for n in os.listdir(d) if n.endswith(".py")):
        with open(os.path.join(d, name), "rb") as f:
            h.update(f.read())
    for obj in (partitioner, _plan_column, corpus_sample, codec_plan):
        h.update(inspect.getsource(obj).encode())
    return h.hexdigest()[:12]


def _plan_cache_file(corpus_path: str, target_partition_bytes: int | None) -> str:
    fp = _corpus_fingerprint(corpus_path)
    cache_dir = "/tmp/skar_ray_plans"
    os.makedirs(cache_dir, exist_ok=True)
    key = f"{fp}-{target_partition_bytes or 'auto'}"
    if target_partition_bytes is None:
        import ray as _ray

        key = f"{fp}-auto{int(_ray.cluster_resources().get('CPU', 8))}"
    return os.path.join(cache_dir, f"{key}-v{PLAN_VERSION}-{_plan_code_hash()}.pkl")


def _cached_plan(corpus_path: str, target_partition_bytes: int | None,
                 codec_overrides: dict | None = None):
    """Partition plans, codec plan included, are deterministic functions
    of (corpus, target); cache them on disk so reruns/resumes skip the
    size pre-pass and the codec selection — the analog of skar reopening
    its stored folder index instead of rescanning
    (skar/src/db/mod.rs:68-86).  Pickle keeps each FSST
    table's trained chain order, so a cached table writes the bytes a
    cold one does.

    The codec plan is made only when ``codec_overrides`` leave some
    string-like column to it: a fast-profile encode samples and trains
    nothing, and leaves ``codecs`` None for the first encode that needs
    them to fill in."""
    import pickle

    cache_file = _plan_cache_file(corpus_path, target_partition_bytes)
    paths = partitioner.input_paths(corpus_path)
    need_codecs = _needs_codec_plan(paths, codec_overrides)
    plan = None
    if os.path.exists(cache_file):
        with open(cache_file, "rb") as f:
            cached = pickle.load(f)
        if cached[0] == PLAN_VERSION:  # an older shape has no version in front
            plan, target_partition_bytes = cached[1:]
            if plan.codecs is not None or not need_codecs:
                return plan, target_partition_bytes
    from concurrent.futures import ThreadPoolExecutor

    # the codec plan reads a few file heads in this process while the
    # size pre-pass waits on its Ray Data job
    with ThreadPoolExecutor(1) as pool:
        codecs = pool.submit(codec_plan, paths) if need_codecs else None
        if plan is None:
            sizes = partitioner.repo_size_prepass_fast(corpus_path)
            if target_partition_bytes is None:
                import pyarrow.compute as pc

                target_partition_bytes = _auto_partition_bytes(
                    int(pc.sum(sizes.column("bytes")).as_py() or 0)
                )
            plan = partitioner.make_plan(sizes, target_partition_bytes)
        if codecs is not None:
            plan.codecs = codecs.result()
    tmp = cache_file + ".tmp"
    with open(tmp, "wb") as f:
        pickle.dump((PLAN_VERSION, plan, target_partition_bytes), f)
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
        plan, target_partition_bytes = _cached_plan(corpus_path, target_partition_bytes, codec_overrides)
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
        summary = pa.concat_tables([summary, summary_table(done.values(), True)],
                                   promote_options="default")

    # orphan sweep: a changed corpus (or plan) can stop producing some
    # partition ids entirely.  After a fully-successful encode, the
    # store's contract is out_dir == encode(corpus_path) EXACTLY — drop
    # anything the job neither wrote nor resume-skipped.
    live = set(summary.column("partition_id").to_pylist()) if summary.num_rows else set()
    kept = manifest_mod.sweep_orphans(out_dir, live)

    job = {
        "corpus": corpus_path,
        "mode": mode,
        "partitions": summary.num_rows,
        "rows": int(pa.compute.sum(summary.column("n_rows")).as_py() or 0),
        "raw_bytes": int(pa.compute.sum(summary.column("raw_bytes")).as_py() or 0),
        "enc_bytes": int(pa.compute.sum(summary.column("enc_bytes")).as_py() or 0),
        "wall_s": round(time.time() - t0, 3),
    }
    if mode == "hashed":
        # the codec plan the reduces used, with each column's sample
        # estimates next to the bytes it realized across the store
        from .hash_exchange import planned_codecs

        realized: Counter = Counter()
        for m in kept.values():
            realized.update({n: st["enc_bytes"] for n, st in m.columns.items()})
        job["codec_plan"] = {
            n: {"codec": c, "estimates": est, "enc_bytes": realized[n]}
            for n, (c, _, est) in planned_codecs(plan, codec_overrides).items()
        }
    os.makedirs(manifest_mod.manifest_dir(out_dir), exist_ok=True)
    with open(os.path.join(manifest_mod.manifest_dir(out_dir), "_job.json"), "w") as f:
        json.dump(job, f)
    return summary
