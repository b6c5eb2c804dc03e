"""Hash exchange — the one wide operation of every pkey write.

The partitioner only needs EQUALITY co-location (all rows of a pkey in
one task) — order inside the partition is re-established locally by
the encoder's lexsort.  ``Dataset.groupby`` would pay a sample-based
SORT for that (sample → sort-map → sort-reduce: two barriers and a full
ordered rewrite of every block), and Ray Data's hash-shuffle groupby
stalled or ran slower on this workload.  This module implements the
minimal exchange with raw Ray tasks (the documented last-resort case:
the Dataset API cannot express a sort-free hash exchange in this
version):

    map task  (one per group of sources; min(sources, CPUs) contiguous
              groups of near-equal count, so the maps run in one wave):
              stream each source's rows into a bounded buffer
              (``_MAP_BUFFER_BYTES``, 128 MiB) → assign pkeys → write
              each pkey's rows of the flush as ONE Arrow IPC stream →
              ``ray.put`` it as a uint8 array → return
              {pkey: [(ref, nbytes)]} — worker heap is bounded by the
              buffer, not the input file size
    reduce    (one per pkey): ray.get(refs) → open the streams
              zero-copy → concat → ``encode_partition``

One object per (flush, pkey): an opaque buffer skips Ray's per-column
Arrow serializer, and fewer, larger flushes mean fewer puts.  Packing a
whole flush into one object that reduces slice was faster still but
raised peak worker RSS by ~19% (every reduce maps the whole flush to
read its own slice).  The grouping counts files, not bytes: with a few
more files than CPUs, the maps that get two files set the wave's
length (5 files on 4 CPUs: ~1% slower than one file per map at the
max profile, measured on 2–4 CPUs only).

A source is a parquet file path, read batch by batch, or a container
source (``container_sources``: store dir, data file, partition id,
digest), decoded whole and digest-checked against its manifest.  The
encode job passes its input files; append passes the delta's files
plus the affected containers; compact passes every source container.

When every source is a parquet file (the encode job, and an append
whose delta touches no existing partition), every reduce encodes with
the partition plan's codec plan (``PartitionPlan.codecs``: one codec
and FSST table per string-like column, chosen once per corpus on a
file-stratified sample, see ``encode_job.codec_plan``) and selects
nothing for those columns; a ``codec_overrides`` entry still wins for
its column, and other columns select per partition.  A job with a
container source selects and trains per partition, as the sample would
not cover the decoded rows.

Plasma traffic is one write + one read of the data — the sort path
pays that twice plus the sort compute.  Partitioning assumption: one
pkey's rows fit in one reduce task (guaranteed by the skew-aware plan's
salt cap).  Memory: the whole input transits the object store between
phases; Ray spills to disk if it exceeds the store (fine — that is the
store's job; at cluster scale the refs spread across nodes).

No global map→reduce barrier: a cheap metadata pre-pass records which
FILES contain which REPOS, so each pkey's set of contributing map
groups is known up front and its reduce launches the moment those
groups finish (``ray.wait`` loop) — map stragglers only delay their
own partitions, not the whole reduce phase.  Pkeys that become ready
together launch largest first, by the bytes the maps reported.  A
container has no repo set, so a group holding one contributes to every
pkey; pkeys that only containers emit launch once every map is done.
The remote functions are called only through ``.remote(...)`` with
positional arguments (``tests/test_hash_exchange.py``), so a wrapper
that replaces them sees every call.
"""

from __future__ import annotations

import os

import pyarrow as pa

import ray

from ..stages import partitioner
from ..stages.decoder import decode_manifest_batch
from ..stages.encoder import SUMMARY_SCHEMA, encode_partition

# heap bound for the map-side read buffer: rows accumulate to this many
# bytes, then split+put — a giant input file streams through in bounded
# memory instead of materializing with to_table()
_MAP_BUFFER_BYTES = 128 << 20


def container_sources(store_dir: str, manifests) -> list[tuple[str, str, int, str]]:
    """Exchange sources for the containers of ``manifests`` in ``store_dir``."""
    return [(store_dir, m.data_file, m.partition_id, m.content_sha256) for m in manifests]


def _source_tables(sources: list):
    """Each source's rows: a parquet file batch by batch, a container
    whole, decoded with its digest checked against the manifest (a torn
    or corrupted container raises rather than being re-encoded)."""
    import pyarrow.dataset as pads

    for src in sources:
        if isinstance(src, str):
            for b in pads.dataset(src).to_batches():
                if b.num_rows:
                    yield pa.Table.from_batches([b])
        else:
            store, data_file, pid, digest = src
            yield decode_manifest_batch(
                pa.table({"partition_id": [pid], "data_file": [data_file], "content_sha256": [digest]}),
                out_dir=store, verify=True,
            )


def _concat(tables: list[pa.Table]) -> pa.Table:
    # a delta file may type a column differently from the containers it
    # joins (string vs large_string): widen to the common type
    return pa.concat_tables(tables, promote_options="permissive") if len(tables) > 1 else tables[0]


@ray.remote
def _map_split(sources: list, plan: "partitioner.PartitionPlan",
               skip_pkeys: frozenset[int],
               buffer_bytes: int) -> dict[int, list[tuple["ray.ObjectRef", int]]]:
    import numpy as np
    import pyarrow.compute as pc

    out: dict[int, list[tuple[ray.ObjectRef, int]]] = {}

    def _split_put(t: pa.Table) -> None:
        keyed = partitioner.assign_pkeys(t, plan)
        # one sort + run slicing instead of a filter pass per pkey: the
        # old loop scanned the whole block once per DISTINCT pkey
        # (O(n·k) — k grows with partition count at scale); row order
        # within a pkey is irrelevant (the reducer lexsorts, and the
        # salt is content-derived so chunk boundaries don't move rows)
        idx = pc.sort_indices(keyed.column("pkey"))
        srt = keyed.take(idx).combine_chunks()
        pk = np.asarray(srt.column("pkey"), dtype=np.int64)
        if len(pk) == 0:
            return
        bounds = np.concatenate(([0], np.flatnonzero(np.diff(pk)) + 1, [len(pk)]))
        for i in range(len(bounds) - 1):
            start, end = int(bounds[i]), int(bounds[i + 1])
            pkey = int(pk[start])
            if pkey in skip_pkeys:
                continue
            # one Arrow IPC stream per (flush, pkey): one opaque buffer
            # for the object store instead of Ray's per-column Arrow
            # serializer, put as a uint8 view so it carries ``.nbytes``
            sink = pa.BufferOutputStream()
            with pa.ipc.new_stream(sink, srt.schema) as w:
                w.write_table(srt.slice(start, end - start))
            stream = np.frombuffer(sink.getvalue(), dtype=np.uint8)
            out.setdefault(pkey, []).append((ray.put(stream), stream.nbytes))

    # stream tables through a bounded accumulation buffer: peak worker
    # heap is ~buffer + its sorted copy, independent of file size
    buf: list[pa.Table] = []
    buf_bytes = 0
    for t in _source_tables(sources):
        buf.append(t)
        buf_bytes += t.nbytes
        if buf_bytes >= buffer_bytes:
            _split_put(_concat(buf))
            buf, buf_bytes = [], 0
    if buf:
        _split_put(_concat(buf))
    return out


@ray.remote
def _reduce_encode(pkey: int, refs: list["ray.ObjectRef"], out_dir: str,
                   chunk_target_bytes: int, input_fingerprint: str,
                   codec_overrides: dict | None, codec_plan: dict | None,
                   validate: bool = True) -> dict:
    # the streams open zero-copy over the object store's buffers
    t = _concat([pa.ipc.open_stream(pa.py_buffer(b)).read_all() for b in ray.get(list(refs))])
    summary = encode_partition(t, out_dir, chunk_target_bytes, input_fingerprint,
                               codec_overrides, validate=validate, codec_plan=codec_plan)
    return {k: summary.column(k)[0].as_py() for k in summary.column_names}


def planned_codecs(plan: "partitioner.PartitionPlan", codec_overrides: dict | None) -> dict:
    """The plan's codec plan minus the columns ``codec_overrides`` names."""
    return {n: c for n, c in (plan.codecs or {}).items() if n not in (codec_overrides or {})}


def file_repo_sets(paths: list[str]) -> dict[str, list[str]]:
    """Per-file unique repo sets, with a persistent sidecar cache keyed
    on (path, size, mtime_ns).  Shared by the per-pkey fingerprint pass
    (``encode_job._pkey_fingerprints``) and the map-group metadata
    pre-pass here, so each file's repo column is read AT MOST ONCE per
    content version — not once per pass per run.  Misses are read in
    parallel Ray tasks (tiny, dictionary-encoded column only)."""
    import hashlib
    import json

    cache_dir = "/tmp/skar_ray_plans/file_repos"
    os.makedirs(cache_dir, exist_ok=True)
    out: dict[str, list[str]] = {}
    misses: list[tuple[str, str]] = []
    for p in paths:
        st = os.stat(p)
        key = hashlib.sha256(
            f"{p}:{st.st_size}:{st.st_mtime_ns}".encode()
        ).hexdigest()[:24]
        cf = os.path.join(cache_dir, key + ".json")
        if os.path.exists(cf):
            with open(cf) as f:
                out[p] = json.load(f)
        else:
            misses.append((p, cf))

    if misses:
        @ray.remote
        def _repos_of_file(path: str) -> list[str]:
            import pyarrow.compute as pc
            import pyarrow.dataset as pads

            t = pads.dataset(path).to_table(columns=["repo"])
            return sorted(set(pc.unique(t.column("repo")).to_pylist()))

        got = ray.get([_repos_of_file.remote(p) for p, _ in misses])
        for (p, cf), repos in zip(misses, got):
            out[p] = repos
            tmp = cf + f".tmp-{os.getpid()}"
            with open(tmp, "w") as f:
                json.dump(repos, f)
            os.replace(tmp, cf)
    return out


def run_hashed_encode(
    sources: list,
    out_dir: str,
    plan: "partitioner.PartitionPlan",
    chunk_target_bytes: int,
    input_fingerprint: dict[int, str],
    skip_pkeys: frozenset[int] = frozenset(),
    codec_overrides: dict | None = None,
    validate: bool = True,
) -> pa.Table:
    # one wave of maps: min(sources, CPUs) contiguous groups of
    # near-equal count, so each map flushes fewer, larger buffers
    n = min(len(sources), int(ray.cluster_resources().get("CPU", 8)))
    groups = [sources[i * len(sources) // n : (i + 1) * len(sources) // n] for i in range(n)]

    # launch the heavy maps FIRST; the metadata pre-pass overlaps them
    map_futs = {(_map_split.remote(g, plan, skip_pkeys, _MAP_BUFFER_BYTES)): gi
                for gi, g in enumerate(groups)}
    # metadata pre-pass: which repos live in which map group → pkey →
    # contributing groups.  Served from the per-file sidecar cache that
    # encode_job's fingerprint pass already populated — a warm run
    # reads zero repo columns here.  A group holding a container may
    # feed any pkey, so it contributes to every one
    paths = [p for p in sources if isinstance(p, str)]
    repo_sets = file_repo_sets(paths)
    group_repos = [sorted(set().union(*(repo_sets[p] for p in g if isinstance(p, str)))) for g in groups]
    with_containers = {gi for gi, g in enumerate(groups) if not all(isinstance(p, str) for p in g)}
    contrib: dict[int, set[int]] = {}
    for gi, repos in enumerate(group_repos):
        for r in repos:
            s, nb = plan.repos.get(r, (0, 1))  # mirror assign_pkeys' default
            for pk in range(s, s + nb):
                if pk not in skip_pkeys:
                    contrib.setdefault(pk, set(with_containers)).add(gi)

    # the corpus's codecs and tables, if every source is a parquet file:
    # the sample they were chosen on cannot cover rows decoded from
    # containers, whose reduces select per partition
    codec_plan = (planned_codecs(plan, codec_overrides) or None) if len(paths) == len(sources) else None

    # ray.wait-driven: launch each pkey's reduce the moment every map
    # group that can contribute to it has finished
    done_maps: dict[int, dict[int, list]] = {}
    launched: set[int] = set()
    futs = []

    def _launch(ready: dict[int, list]) -> None:
        # largest first, by the bytes the maps reported: the longest
        # reduce starts earliest instead of setting the tail
        for pk, shipped in sorted(ready.items(), key=lambda kv: (-sum(n for _, n in kv[1]), kv[0])):
            launched.add(pk)
            if shipped:
                # ship only THIS pkey's fingerprint string: pickling the
                # whole per-partition dict into every call would be
                # O(P²) bytes across the reduce wave at scale
                futs.append(_reduce_encode.remote(
                    pk, [r for r, _ in shipped], out_dir, chunk_target_bytes,
                    input_fingerprint.get(pk, ""), codec_overrides, codec_plan, validate,
                ))

    def _shipped(pk: int, gis) -> list:
        return [x for gi in sorted(gis) for x in done_maps[gi].get(pk, [])]

    pending = dict(map_futs)
    while pending:
        ready, _ = ray.wait(list(pending.keys()), num_returns=1)
        for fut in ready:
            done_maps[pending.pop(fut)] = ray.get(fut)
        _launch({pk: _shipped(pk, needed) for pk, needed in contrib.items()
                 if pk not in launched and needed <= done_maps.keys()})
    # pkeys with unknown contributors — those only containers emit —
    # launch once every map is done
    _launch({pk: _shipped(pk, done_maps) for d in done_maps.values() for pk in d if pk not in launched})
    # typed by inference, so fields that a wrapped reduce adds survive
    rows = ray.get(futs)
    return pa.Table.from_pylist(rows) if rows else SUMMARY_SCHEMA.empty_table()
