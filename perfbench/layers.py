"""Which library functions are traced, and the per-layer metrics.

The wrapped functions are the public (and a few module-level helper)
functions of each layer.  A name bound by value in a module imported
before the wrappers is patched at that import site too: in the driver,
``query_encoded`` and ``decode_job`` bind ``decode_stage``.
"""

from __future__ import annotations

import statistics

from . import trace

SP = "skar_ray.pipelines"
ST = "skar_ray.stages"
SS = "skar_ray.state"
SC = "skar_ray.codecs"


def _nbytes(x) -> int:
    if isinstance(x, (bytes, bytearray, memoryview)):
        return len(x)
    return int(getattr(x, "nbytes", 0) or 0)


def _arg0_bytes(args, kwargs):
    return _nbytes(args[0]) if args else 0


def install_driver(rec: trace.Recorder) -> None:
    """Driver-side wrappers.  Functions that a pickled remote body
    captures are left alone here (the wrapper would drag the driver's
    recorder into the task); the worker hook wraps those."""
    from skar_ray.pipelines import hash_exchange

    p = trace.patch
    p(rec, f"{SP}.encode_job", "run_encode_job", "encode_job.run_encode_job")
    p(rec, f"{SP}.encode_job", "_cached_plan", "encode_job.cached_plan")
    p(rec, f"{ST}.partitioner", "repo_size_prepass_fast", "partitioner.prepass")
    p(rec, f"{ST}.partitioner", "make_plan", "partitioner.make_plan")
    p(rec, f"{SP}.hash_exchange", "run_hashed_encode", "hash_exchange.run_hashed_encode")
    p(rec, f"{SP}.hash_exchange", "file_repo_sets", "hash_exchange.file_repo_sets")
    p(rec, f"{SS}.manifest", "scan_manifests", "manifest.scan",
      bytes_out=lambda r: len(r))
    p(rec, f"{SP}.query_encoded", "query_encoded", "query_encoded.query_encoded")
    p(rec, f"{SP}.query_encoded", "prune_partitions", "pruning.prune_partitions",
      bytes_in=lambda a, k: len(a[0]), bytes_out=lambda r: len(r))
    p(rec, f"{SP}.query_encoded", "decode_stage", "decoder.decode_stage")
    p(rec, f"{SP}.decode_job", "decode_stage", "decoder.decode_stage")
    p(rec, f"{SP}.decode_job", "run_verify_job", "decode_job.run_verify_job")
    p(rec, f"{SS}.container", "read_header", "container.read_header")
    for attr, name in (("_map_split", "hash_exchange.map_split"),
                       ("_reduce_encode", "hash_exchange.reduce_encode")):
        orig = getattr(hash_exchange, attr)
        if not isinstance(orig, trace.TracedRemote):
            setattr(hash_exchange, attr, trace.TracedRemote(orig, name))


def install_worker(rec: trace.Recorder) -> None:
    import ray

    p = trace.patch
    if not getattr(ray.put, "__wrapped_by_perfbench__", False):
        ray.put = trace.wrap(rec, "ray.put", ray.put, bytes_in=_arg0_bytes)
    p(rec, f"{ST}.partitioner", "assign_pkeys", "partitioner.assign_pkeys",
      bytes_in=_arg0_bytes)
    # the hook runs before a worker imports hash_exchange or decoder, so
    # their by-value imports of these names bind the wrappers
    p(rec, f"{ST}.encoder", "encode_partition", "encoder.encode_partition",
      bytes_in=_arg0_bytes)
    p(rec, f"{ST}.encoder", "lexsort", "encoder.sort", bytes_in=_arg0_bytes)
    p(rec, f"{ST}.encoder", "row_sha256", "encoder.row_sha256")
    p(rec, f"{ST}.encoder", "partition_digest", "encoder.partition_digest")
    p(rec, f"{SS}.container", "write_container", "container.write")
    p(rec, f"{SS}.container", "_plan_column", "container.plan_column",
      note=lambda a, k, r: r[1] if r[2] is None else f"{r[1]}+table")
    p(rec, f"{SS}.container", "_chunk_stats", "container.chunk_stats")
    p(rec, f"{SS}.container", "read_container", "container.read",
      bytes_out=lambda r: r.nbytes, note=_read_note)
    p(rec, f"{SS}.container", "read_header", "container.read_header")
    p(rec, f"{SS}.container", "encoded_clause_mask", "container.clause_mask")
    p(rec, f"{SS}.manifest", "write_manifest", "manifest.write")
    p(rec, f"{SC}.auto", "select_codec", "auto.select_codec")
    p(rec, f"{SC}.auto", "encode_column", "auto.encode_column")
    p(rec, f"{SC}.auto", "page_compress", "auto.page_compress",
      bytes_in=_arg0_bytes, bytes_out=lambda r: len(r[0]), note=lambda a, k, r: r[1])
    p(rec, f"{SC}.auto", "page_decompress", "auto.page_decompress",
      bytes_in=_arg0_bytes)
    p(rec, f"{SC}.auto", "decode_column", "auto.decode_column", bytes_in=_arg0_bytes)
    p(rec, f"{SC}.fsst", "FsstCodec.make_table", "fsst.train",
      bytes_in=lambda a, k: len(a[1]))
    p(rec, f"{SC}.fsst", "FsstCodec.encode", "fsst.encode",
      bytes_in=lambda a, k: _nbytes(a[1]), bytes_out=lambda r: len(r[0]))
    p(rec, f"{SC}.fsst", "FsstCodec.decode", "fsst.decode", bytes_in=lambda a, k: len(a[1]))
    p(rec, f"{ST}.decoder", "_decode_manifest_rows", "decoder.decode_rows",
      bytes_in=lambda a, k: a[0].num_rows)
    p(rec, f"{ST}.decoder", "_header_of", "decoder.header_of")
    p(rec, f"{ST}.decoder", "DecoderActor.__call__", "decoder.actor_call")
    p(rec, f"{ST}.decoder", "decode_manifest_batch", "decoder.task_call")


def _read_note(args, kwargs, result):
    """Column-chunks the read could have to decode: chunks in the file
    times the distinct projected and filter columns."""
    header = kwargs.get("header_info")
    if header is None:
        return None
    cols = set(kwargs.get("columns") or [n for n, _ in header[0]["schema"]])
    for conj in kwargs.get("dnf") or []:
        cols.update(c for c, _, _ in conj)
    return len(header[0]["chunks"]) * len(cols)


# ---------------------------------------------------------------- metrics

# name -> unit; the order is the order printed and listed in BENCHMARK.json
PER_LAYER = {
    "partitioner.prepass_s": "s",
    "encode_job.driver_s": "s",
    "partitioner.partitions": "count",
    "partitioner.skew_ratio": "ratio",
    "hash_exchange.map_split_s": "s",
    "hash_exchange.put_bytes": "B",
    "hash_exchange.reduce_wait_s": "s",
    "hash_exchange.tail_s": "s",
    "encoder.sort_s": "s",
    "encoder.sha256_s": "s",
    "encoder.validate_s": "s",
    "encoder.manifest_timings_ratio": "ratio",
    "auto.select_codec_s": "s",
    "auto.select_codec_calls": "count",
    "auto.page_compress_s": "s",
    "auto.page_compress_mb_in": "MB",
    "auto.page_zstd_kept_ratio": "ratio",
    "auto.page_decompress_s": "s",
    "fsst.train_s": "s",
    "fsst.tables_trained": "count",
    "fsst.tables_used_ratio": "ratio",
    "fsst.encode_s": "s",
    "fsst.encode_mb_in": "MB",
    "fsst.decode_s": "s",
    "container.plan_column_s": "s",
    "container.chunk_stats_s": "s",
    "container.write_s": "s",
    "manifest.write_s": "s",
    "container.bytes.repo": "B",
    "container.bytes.path": "B",
    "container.bytes.commit": "B",
    "container.bytes.lang": "B",
    "container.bytes.content": "B",
    "container.header_bytes": "B",
    "container.read_s": "s",
    "container.header_s": "s",
    "container.clause_mask_s": "s",
    "container.chunks_read_ratio": "ratio",
    "manifest.scan_s": "s",
    "pruning.partitions_kept_ratio": "ratio",
    "query.driver_s": "s",
    "decoder.actor_path_share": "ratio",
    "decoder.first_call_wait_ms": "ms",
    "ray.worker_pids": "count",
    "decoder.header_cache_hit_ratio": "ratio",
    "decoder.verify_sha256_s": "s",
    "trace.encode_coverage": "ratio",
    "trace.query_coverage": "ratio",
}

SELECT = {"auto.select_codec"}
ENCODES = {"encode", "build"}  # op kinds that run run_encode_job


def _ratio(a: float, b: float) -> float:
    return a / b if b else 0.0


def compute(spans: list[dict], ops: list[dict], driver_pid: int,
            store_facts: dict) -> dict[str, float]:
    """Per-layer metrics of one traced run.

    Encode-side times are seconds per encode op (``query_mix``: per store
    build), read-side times are
    seconds per query op (lookups and scans), and verify-side times are
    seconds per verify op; byte counts are per encode op too.  ``ops`` are the harness's op records
    (id, kind, t0, t1); ``store_facts`` holds the exact byte and
    partition counts read from the stores after the run.
    """
    trace.build_tree(spans, driver_pid)
    trace.self_times(spans)
    by_key = {s["k"]: s for s in spans}
    kind = {o["id"]: o["kind"] for o in ops}

    def in_kind(s, kinds):
        return kind.get(s.get("op")) in kinds

    enc = [o for o in ops if o["kind"] in ENCODES]
    qry = [o for o in ops if o["kind"] in ("lookup", "scan")]
    ver = [o for o in ops if o["kind"] == "verify"]
    n_enc, n_q, n_v = len(enc), len(qry), len(ver)

    def total(name, kinds, field="dur", pred=None):
        out = 0
        for s in spans:
            if s["n"] == name and in_kind(s, kinds) and (pred is None or pred(s)):
                out += (s["t1"] - s["t0"]) if field == "dur" else s[field]
        return out

    def enc_s(name, field="dur", pred=None):
        """Seconds (or bytes, for field "bi") per encode op."""
        scale = 1 if field == "bi" else 1e9
        return _ratio(total(name, ENCODES, field, pred) / scale, n_enc)

    def q_s(name, field="dur", pred=None):
        """Seconds per query op (lookups and scans)."""
        return _ratio(total(name, {"lookup", "scan"}, field, pred) / 1e9, n_q)

    def outside_select(s):
        return not trace.has_ancestor(s, by_key, SELECT)

    m: dict[str, float] = {}
    # per set-up round, median over the rounds, like setup_s
    prepass = [sum(s["t1"] - s["t0"] for s in spans
                   if s["n"] == "partitioner.prepass" and s.get("op") == o["id"]) / 1e9
               for o in ops if o["kind"] == "setup"]
    m["partitioner.prepass_s"] = statistics.median(prepass) if prepass else 0.0
    # driver self time of run_encode_job around run_hashed_encode
    m["encode_job.driver_s"] = enc_s("encode_job.run_encode_job") - enc_s(
        "hash_exchange.run_hashed_encode")
    m["partitioner.partitions"] = store_facts.get("partitions", 0)
    m["partitioner.skew_ratio"] = store_facts.get("skew_ratio", 0.0)
    m["hash_exchange.map_split_s"] = enc_s("hash_exchange.map_split")
    m["hash_exchange.put_bytes"] = enc_s(
        "ray.put", "bi", lambda s: trace.has_ancestor(s, by_key, {"hash_exchange.map_split"}))
    waits, tails = [], []
    for o in enc:
        maps = [s for s in spans if s["n"] == "hash_exchange.map_split" and s.get("op") == o["id"]]
        reds = [s for s in spans if s["n"] == "hash_exchange.reduce_encode" and s.get("op") == o["id"]]
        waits += [(s["t0"] - s["launch"]) / 1e9 for s in reds if "launch" in s]
        if maps and reds:
            tails.append((max(s["t1"] for s in reds) - max(s["t1"] for s in maps)) / 1e9)
    m["hash_exchange.reduce_wait_s"] = statistics.mean(waits) if waits else 0.0
    m["hash_exchange.tail_s"] = statistics.mean(tails) if tails else 0.0

    under_enc = lambda s: trace.has_ancestor(s, by_key, {"encoder.encode_partition"})  # noqa: E731
    m["encoder.sort_s"] = enc_s("encoder.sort")
    m["encoder.sha256_s"] = enc_s("encoder.row_sha256", pred=under_enc) + enc_s(
        "encoder.partition_digest", pred=under_enc)
    m["encoder.validate_s"] = enc_s("container.read", pred=under_enc)
    traced_phases = m["encoder.sort_s"] + m["encoder.sha256_s"] + m["encoder.validate_s"]
    m["encoder.manifest_timings_ratio"] = _ratio(traced_phases,
                                                 store_facts.get("manifest_timings_s", 0.0))

    m["auto.select_codec_s"] = enc_s("auto.select_codec")
    m["auto.select_codec_calls"] = _ratio(
        sum(1 for s in spans if s["n"] == "auto.select_codec" and in_kind(s, ENCODES)), n_enc)
    pages = [s for s in spans if s["n"] == "auto.page_compress" and in_kind(s, ENCODES)
             and outside_select(s)]
    m["auto.page_compress_s"] = _ratio(sum(s["t1"] - s["t0"] for s in pages) / 1e9, n_enc)
    m["auto.page_compress_mb_in"] = _ratio(sum(s["bi"] for s in pages) / 1e6, n_enc)
    m["auto.page_zstd_kept_ratio"] = _ratio(
        sum(1 for s in pages if s["note"] == "zstd"), sum(1 for s in pages if s["bi"]))
    m["auto.page_decompress_s"] = q_s("auto.page_decompress")

    m["fsst.train_s"] = enc_s("fsst.train")
    plans = [s for s in spans if s["n"] == "container.plan_column" and in_kind(s, ENCODES)]
    trained = sum(1 for s in spans if s["n"] == "fsst.train" and in_kind(s, ENCODES)
                  and trace.has_ancestor(s, by_key, {"container.plan_column"}))
    m["fsst.tables_trained"] = _ratio(trained, n_enc)
    used = sum(1 for s in plans if s["note"] == "fsst+table")
    m["fsst.tables_used_ratio"] = _ratio(used, trained)
    m["fsst.encode_s"] = enc_s("fsst.encode", pred=outside_select)
    m["fsst.encode_mb_in"] = enc_s("fsst.encode", "bi", outside_select) / 1e6
    m["fsst.decode_s"] = q_s("fsst.decode")

    m["container.plan_column_s"] = enc_s("container.plan_column", "self_ns")
    m["container.chunk_stats_s"] = enc_s("container.chunk_stats")
    m["container.write_s"] = enc_s("container.write", "self_ns")
    m["manifest.write_s"] = enc_s("manifest.write")
    for col in ("repo", "path", "commit", "lang", "content"):
        m[f"container.bytes.{col}"] = store_facts.get("bytes", {}).get(col, 0)
    m["container.header_bytes"] = store_facts.get("header_bytes", 0)

    m["container.read_s"] = q_s("container.read", "self_ns")
    m["container.header_s"] = q_s("container.read_header")
    m["container.clause_mask_s"] = q_s("container.clause_mask")
    reads = [s for s in spans if s["n"] == "container.read" and in_kind(s, {"lookup", "scan"})]
    decoded = sum(1 for s in spans if s["n"] == "auto.decode_column"
                  and in_kind(s, {"lookup", "scan"}))
    m["container.chunks_read_ratio"] = _ratio(decoded, sum(s["note"] for s in reads if isinstance(s["note"], int)))
    m["manifest.scan_s"] = q_s("manifest.scan")
    prunes = [s for s in spans if s["n"] == "pruning.prune_partitions"
              and in_kind(s, {"lookup", "scan"})]
    m["pruning.partitions_kept_ratio"] = _ratio(sum(s["bo"] for s in prunes),
                                                sum(s["bi"] for s in prunes))
    op_spans = [s for s in spans if s["n"] == "op" and kind.get(s["op"]) in ("lookup", "scan")]
    m["query.driver_s"] = _ratio(sum(s["self_ns"] for s in op_spans) / 1e9, n_q)

    actor_ops, waits_ms = set(), []
    for o in qry:
        mine = [s for s in spans if s.get("op") == o["id"] and s["pid"] != driver_pid]
        if any(s["n"] == "decoder.actor_call" for s in mine):
            actor_ops.add(o["id"])
        starts = [s["t0"] for s in mine if s["n"] == "decoder.decode_rows"]
        if starts:
            waits_ms.append((min(starts) - o["t0"]) / 1e6)
    m["decoder.actor_path_share"] = _ratio(len(actor_ops), n_q)
    m["decoder.first_call_wait_ms"] = statistics.mean(waits_ms) if waits_ms else 0.0
    m["ray.worker_pids"] = len({s["pid"] for s in spans if s["pid"] != driver_pid})
    heads = [s for s in spans if s["n"] == "decoder.header_of"]
    misses = sum(1 for s in spans if s["n"] == "container.read_header"
                 and trace.has_ancestor(s, by_key, {"decoder.header_of"}))
    m["decoder.header_cache_hit_ratio"] = _ratio(len(heads) - misses, len(heads))
    under_dec = lambda s: trace.has_ancestor(s, by_key, {"decoder.decode_rows"})  # noqa: E731
    m["decoder.verify_sha256_s"] = _ratio(
        (total("encoder.row_sha256", {"verify"}, pred=under_dec)
         + total("encoder.partition_digest", {"verify"}, pred=under_dec)) / 1e9, n_v)

    m["trace.encode_coverage"] = coverage(spans, enc)
    m["trace.query_coverage"] = coverage(spans, qry)
    return {k: float(m.get(k, 0.0)) for k in PER_LAYER}


# entry points whose span lasts as long as the op: their self time is
# the driver waiting, which coverage counts as uncovered
ENTRY_POINTS = {"op", "encode_job.run_encode_job", "hash_exchange.run_hashed_encode"}


def coverage(spans: list[dict], ops: list[dict]) -> float:
    """Share of the ops' wall that library spans (driver or worker) other
    than the entry points cover, counting overlapping spans once."""
    wall = covered = 0
    for o in ops:
        wall += o["t1"] - o["t0"]
        covered += trace.union_ns([(max(s["t0"], o["t0"]), min(s["t1"], o["t1"]))
                                   for s in spans if s.get("op") == o["id"]
                                   and s["n"] not in ENTRY_POINTS
                                   and s["t1"] > o["t0"] and s["t0"] < o["t1"]])
    return _ratio(covered, wall)
