"""Registry: every implemented operator as (Ray callable, DuckDB oracle).

Consumed by ``__ray_entry__.py``.  Each entry's Ray result and SQL
result must agree in row count, schema (column names!) and value hash —
the differential-testing strategy the reference uses against
eth-archive and raw RPC (/root/reference/integration-test/src/
compare-get-logs.js).  Non-SQL-expressible ops carry ``sql=None`` and
get the driver's rows-only check plus their own pytest oracles.
"""

from __future__ import annotations

import hashlib
import os
import shutil
import tempfile

import numpy as np
import pandas as pd
import pyarrow as pa

import ray.data

from ..stages import ann, dedup, joins, multimodal, text, training, windows
from ..stages.groups import cached_get, key_hash64
from . import ann_index
from . import queries as Q

# Phase timings of the most recent call per query (bench introspection:
# the query_encoded_* entries time store-encode + query together from the
# outside; this splits them so the query path's cost is visible).
PHASE_TIMINGS: dict[str, dict[str, float]] = {}

# --------------------------------------------------------------- engine ops


def _roundtrip_table(sf_dir: str, table: str, id_col: str) -> pd.DataFrame:
    """decode(encode(table)) — identity, SQL-checkable against the raw
    table.  Exercises the full engine (auto codecs incl. timestamps,
    doubles, strings) through the sharded no-shuffle path."""
    from .decode_job import decoded_dataset
    from .encode_job import run_encode_job

    out = tempfile.mkdtemp(prefix=f"skar_rt_{table}_")
    try:
        run_encode_job(
            f"{sf_dir}/{table}.parquet", out, mode="sharded", chunk_target_bytes=4 << 20, resume=False
        )
        dec = decoded_dataset(out, verify=False).to_pandas()
        return dec.sort_values(id_col).reset_index(drop=True)
    finally:
        shutil.rmtree(out, ignore_errors=True)


def encode_roundtrip_documents(sf_dir: str) -> pd.DataFrame:
    return _roundtrip_table(sf_dir, "documents", "doc_id")


def encode_roundtrip_events(sf_dir: str) -> pd.DataFrame:
    return _roundtrip_table(sf_dir, "events", "event_id")


def encode_roundtrip_lineitem(sf_dir: str) -> pd.DataFrame:
    """Widest table: 11 columns across int32/int64/double/string/timestamp."""
    return _roundtrip_table(sf_dir, "lineitem", "l_orderkey")


def encode_roundtrip_embeddings(sf_dir: str) -> pd.DataFrame:
    """list<float> embedding column through the codec layer — the data
    shape of embedding/multimodal feature workloads."""
    out = _roundtrip_table(sf_dir, "embeddings", "vec_id")
    # lists → deterministic string form for the driver's value hash
    out["embedding"] = out["embedding"].map(
        lambda v: "[" + ",".join(f"{float(x):.6f}" for x in v) + "]"
    )
    return out


def encode_roundtrip_struct(sf_dir: str) -> pd.DataFrame:
    """struct<string,double> column through the engine: events'
    (event_type, value) packed into one struct column, encoded via
    struct_child (one auto-selected stream per field — the reference
    flattens its nested access-list/log data the same way,
    schema.rs:119-349), decoded, re-flattened, identity-checked."""
    import pyarrow.parquet as _pq

    from .decode_job import decoded_dataset
    from .encode_job import run_encode_job

    src = _pq.read_table(f"{sf_dir}/events.parquet", columns=["event_id", "event_type", "value"])
    props = pa.StructArray.from_arrays(
        [src.column("event_type").combine_chunks(), src.column("value").combine_chunks()],
        ["event_type", "value"],
    )
    t = pa.table({"event_id": src.column("event_id"), "props": props})
    work = tempfile.mkdtemp(prefix="skar_rt_struct_")
    try:
        _pq.write_table(t, os.path.join(work, "in.parquet"))
        out = os.path.join(work, "enc")
        run_encode_job(os.path.join(work, "in.parquet"), out, mode="sharded",
                       chunk_target_bytes=4 << 20, resume=False)
        full = pa.concat_tables(
            decoded_dataset(out).iter_batches(batch_format="pyarrow", batch_size=None)
        )
        props_c = full.column("props").combine_chunks()
        flat = pa.table({
            "event_id": full.column("event_id"),
            "event_type": props_c.field("event_type"),
            "value": props_c.field("value"),
        })
        return flat.to_pandas().sort_values("event_id").reset_index(drop=True)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def encode_roundtrip_map(sf_dir: str) -> pd.DataFrame:
    """map<string,double> column through the engine: each event's
    (event_type → value) as a 1-entry map, encoded via map_child (entry
    counts + key/value child streams), decoded, re-flattened,
    identity-checked against the raw table."""
    import pyarrow.parquet as _pq

    from .decode_job import decoded_dataset
    from .encode_job import run_encode_job

    src = _pq.read_table(f"{sf_dir}/events.parquet", columns=["event_id", "event_type", "value"])
    n = src.num_rows
    offsets = pa.array(np.arange(n + 1, dtype=np.int32), type=pa.int32())
    props = pa.MapArray.from_arrays(
        offsets, src.column("event_type").combine_chunks(), src.column("value").combine_chunks()
    )
    t = pa.table({"event_id": src.column("event_id"), "props": props})
    work = tempfile.mkdtemp(prefix="skar_rt_map_")
    try:
        _pq.write_table(t, os.path.join(work, "in.parquet"))
        out = os.path.join(work, "enc")
        run_encode_job(os.path.join(work, "in.parquet"), out, mode="sharded",
                       chunk_target_bytes=4 << 20, resume=False)
        full = pa.concat_tables(
            decoded_dataset(out).iter_batches(batch_format="pyarrow", batch_size=None)
        )
        props_c = full.column("props").combine_chunks()
        flat = pa.table({
            "event_id": full.column("event_id"),
            "event_type": props_c.keys,
            "value": props_c.items,
        })
        return flat.to_pandas().sort_values("event_id").reset_index(drop=True)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def _corpus_store(sf_dir: str, cap: int = 20000) -> str:
    """Encode the seeded corpus once into the shared manifest-resumed
    cache and return the store dir (all encoded-store queries reuse
    it; re-runs cost one manifest scan)."""
    from ..corpus import ensure_corpus, rows_for_sf, sf_from_dir
    from .encode_job import run_encode_job

    n = rows_for_sf(sf_from_dir(sf_dir), cap=cap)
    d = ensure_corpus(n)
    out = f"/tmp/skar_ray_encoded/n{n}"
    os.makedirs(out, exist_ok=True)
    run_encode_job(
        os.path.join(d, "corpus.parquet"), out,
        target_partition_bytes=16 << 20, chunk_target_bytes=8 << 20, resume=True,
    )
    return out


def query_encoded_corpus(sf_dir: str) -> pd.DataFrame:
    """skar-query-path analog over ENCODED partitions: encode the seeded
    corpus once (manifest-resumed cache), then run a projected DNF
    query with manifest-based partition pruning.  Deterministic."""
    from .query_encoded import query_encoded

    out = _corpus_store(sf_dir)
    res = query_encoded(
        out,
        columns=["repo", "path", "lang"],
        filters=[[("lang", "==", "go")], [("lang", "==", "python"), ("path", "prefix", "src/")]],
    ).to_pandas()
    return res.sort_values(["repo", "path", "lang"]).reset_index(drop=True)


def _zorder_store(sf_dir: str, cap: int = 5000) -> str:
    """Encode the seeded corpus into a Z-ORDER-clustered store (Morton
    interleave of lang+path dense ranks, stages/encoder.zsort) so chunk
    stats prune on BOTH keys — the multi-column generalization of the
    reference's block-number sort + row-group skip.  Cached like
    _corpus_store; the done-marker is written LAST (temp+rename) so an
    interrupted build is invisible."""
    import json

    from ..corpus import ensure_corpus, rows_for_sf, sf_from_dir
    from ..stages.encoder import encode_partition, zsort

    n = rows_for_sf(sf_from_dir(sf_dir), cap=cap)
    d = ensure_corpus(n)
    out = f"/tmp/skar_ray_encoded/zorder-n{n}"
    done = os.path.join(out, "_zdone.json")
    if os.path.exists(done):
        with open(done) as f:
            marker = json.load(f)
        # the corpus dir encodes n+seed+generator version — a regenerated
        # corpus (v2->v3) must NOT be served from the stale store
        if marker.get("corpus_dir") == d:
            return out
        shutil.rmtree(out, ignore_errors=True)
    os.makedirs(out, exist_ok=True)
    ds = ray.data.read_parquet(os.path.join(d, "corpus.parquet"))

    def add_pkey(b: pa.Table) -> pa.Table:
        h = key_hash64(b.column("repo"))
        return b.append_column("pkey", pa.array((h % 8).astype(np.int64)))

    def enc(g: pa.Table) -> pa.Table:
        return encode_partition(
            g, out, chunk_target_bytes=1 << 20,
            sort_fn=lambda t: zsort(t, ["lang", "path"]),
            sort_keys_label=["zorder:lang", "zorder:path"],
        )

    summaries = (
        ds.map_batches(add_pkey, batch_format="pyarrow")
        .groupby("pkey").map_groups(enc, batch_format="pyarrow")
        .to_pandas()
    )
    tmp = done + f".tmp-{os.getpid()}"
    with open(tmp, "w") as f:
        json.dump({"n_rows": int(summaries["n_rows"].sum()),
                   "partitions": len(summaries), "corpus_dir": d}, f)
    os.replace(tmp, done)
    return out


def query_zorder_store(sf_dir: str) -> pd.DataFrame:
    """Projected DNF query against the z-order-clustered store: the
    filter hits the SECONDARY clustered key (lang) plus a path prefix —
    both prune chunks under z-order where a (repo,path,commit) lexsort
    prunes neither (pytest asserts the chunk counts); results go
    through the normal prune → mask → project ladder and are
    hash-verified against the raw corpus in DuckDB."""
    from .query_encoded import query_encoded

    out = _zorder_store(sf_dir)
    res = query_encoded(
        out,
        columns=["repo", "path", "lang"],
        filters=[[("lang", "==", "go"), ("path", "prefix", "src/")]],
    ).to_pandas()
    return res.sort_values(["repo", "path", "lang"]).reset_index(drop=True)


def store_group_count(sf_dir: str, column: str = "lang") -> pd.DataFrame:
    """GROUP BY on the ENCODED store without decoding the grouped
    column — dict/rle aggregate pushdown (stats.store_value_counts);
    reuses query_encoded_corpus's manifest-cached store.  The SQL
    oracle recomputes the counts from the raw corpus parquet, so a
    hash match proves the encoded-form counts are exact."""
    from .stats import store_value_counts

    res = store_value_counts(_corpus_store(sf_dir), column)
    return res.rename(columns={"value": column})


def store_group_bytes_corpus(sf_dir: str) -> pd.DataFrame:
    """Bytes-per-language report straight from the ENCODED store: group
    codes from lang's dict/rle stream, byte volumes from content's
    encoded length sidecar — no string decode anywhere
    (stats.store_group_bytes); reuses the cached corpus store."""
    from .stats import store_group_bytes

    out = _corpus_store(sf_dir)
    return store_group_bytes(out, "lang", "content").rename(columns={"value": "lang"})


def store_group_pair_count_corpus(sf_dir: str) -> pd.DataFrame:
    """Composite GROUP BY (lang, repo) on the encoded store — both key
    columns stay as code streams (stats.store_group_pair_count)."""
    from .stats import store_group_pair_count

    return store_group_pair_count(_corpus_store(sf_dir), "lang", "repo")


def store_filtered_group_count_corpus(sf_dir: str) -> pd.DataFrame:
    """WHERE path LIKE 'src/%' AND lang IN (...) GROUP BY repo, with
    chunk pruning, the DNF mask AND the grouped count all evaluated on
    the encoded form (stats.store_filtered_group_count) — the composed
    skar query pipeline (prune → mask → aggregate) over the cached
    corpus store."""
    from .stats import store_filtered_group_count

    dnf = [[("path", "prefix", "src/"), ("lang", "in", ["go", "python", "ruby"])]]
    res = store_filtered_group_count(_corpus_store(sf_dir), "repo", dnf)
    return res.rename(columns={"value": "repo"})


def store_distinct_repo(sf_dir: str) -> pd.DataFrame:
    """DISTINCT repo straight from the encoded store's metadata ladder
    (chunk distinct-stats list → dict/rle dictionary → decode fallback;
    pipelines/stats.store_distinct) — the distinct-set index-build
    analog, answered with zero row-stream decode on dict/rle columns."""
    from .stats import store_distinct

    res = store_distinct(_corpus_store(sf_dir), "repo")
    return res.rename(columns={"value": "repo"})


def store_topk_chars(sf_dir: str) -> pd.DataFrame:
    """ORDER BY n_chars DESC LIMIT 25 pushed onto an encoded documents
    store: chunk min/max stats establish the running k-th bound, chunks
    that cannot beat it never read a byte, and each decode task returns
    only its local top-k (query_encoded.store_topk) — the early-stop /
    row-limit analog (server.rs:282-287) for ranked queries."""
    from .encode_job import run_encode_job
    from .query_encoded import store_topk

    out = tempfile.mkdtemp(prefix="skar_topk_")
    try:
        run_encode_job(
            f"{sf_dir}/documents.parquet", out, mode="sharded",
            chunk_target_bytes=256 << 10, resume=False,
        )
        return store_topk(out, "n_chars", k=25, id_col="doc_id")
    finally:
        shutil.rmtree(out, ignore_errors=True)


def store_topk_filtered(sf_dir: str) -> pd.DataFrame:
    """WHERE lang='en' ORDER BY n_chars DESC LIMIT 15 with every stage
    on the encoded form: DNF stats pruning drops non-matching chunks
    header-only, the row mask evaluates on the encoded streams, and
    the running k-th bound prunes the rest — the composed
    filter+rank+limit skar query shape."""
    from .encode_job import run_encode_job
    from .query_encoded import store_topk

    out = tempfile.mkdtemp(prefix="skar_topkf_")
    try:
        run_encode_job(
            f"{sf_dir}/documents.parquet", out, mode="sharded",
            chunk_target_bytes=256 << 10, resume=False,
        )
        return store_topk(
            out, "n_chars", k=15, id_col="doc_id",
            filters=[[("lang", "==", "en")]],
        )
    finally:
        shutil.rmtree(out, ignore_errors=True)


def store_group_minmax_documents(sf_dir: str) -> pd.DataFrame:
    """GROUP BY lang → COUNT/MIN/MAX/SUM(n_chars) answered entirely on
    the ENCODED form of a documents store: lang stays a dict/rle code
    stream, n_chars stays the FoR-packed int stream
    (state/container.py::encoded_int_values) — no Arrow column ever
    materializes; sums are int64-exact end-to-end
    (stats.store_group_minmax_sum)."""
    from .encode_job import run_encode_job
    from .stats import store_group_minmax_sum

    out = tempfile.mkdtemp(prefix="skar_group_minmax_")
    try:
        run_encode_job(
            f"{sf_dir}/documents.parquet", out, mode="sharded",
            chunk_target_bytes=256 << 10, resume=False,
        )
        res = store_group_minmax_sum(out, "lang", "n_chars")
        return res.rename(columns={
            "value": "lang", "sum_v": "sum_chars",
            "min_v": "min_chars", "max_v": "max_chars",
        })
    finally:
        shutil.rmtree(out, ignore_errors=True)


def _text_len_col(t: pa.Table) -> pa.Array:
    import pyarrow.compute as pc

    return pc.cast(pc.utf8_length(t.column("text")), pa.int64())


def derive_column_documents(sf_dir: str) -> pd.DataFrame:
    """Schema evolution on the ENCODED store: encode documents, then
    ADD COLUMN text_len AS utf8_length(text) via the derived-column
    job (pipelines/derive.py — existing column blobs copied verbatim,
    no re-encode), then query the DERIVED column back through the full
    partition/chunk-pruning ladder with a DNF filter on it."""
    from .derive import run_derive_column_job
    from .encode_job import run_encode_job
    from .query_encoded import query_encoded

    out = tempfile.mkdtemp(prefix="skar_derive_docs_")
    try:
        run_encode_job(
            f"{sf_dir}/documents.parquet", out, mode="sharded",
            chunk_target_bytes=256 << 10, resume=False,
        )
        run_derive_column_job(out, "text_len", _text_len_col, ["text"])
        res = query_encoded(
            out, columns=["doc_id", "text_len"],
            filters=[[("text_len", ">=", 300)]],
        ).to_pandas()
        return res.sort_values("doc_id").reset_index(drop=True)
    finally:
        shutil.rmtree(out, ignore_errors=True)


def query_encoded_documents(sf_dir: str) -> pd.DataFrame:
    """SQL-verified query over the ENCODED store: encode the documents
    table, then evaluate a mixed string+numeric DNF directly on the
    encoded form (dict/rle code streams, FoR int streams, per-chunk
    stats pruning) — the full skar query path
    (/root/reference/skar/src/query/execution/mod.rs:120-261) with a
    DuckDB oracle over the raw table."""
    from .encode_job import run_encode_job
    from .query_encoded import query_encoded

    import time as _time

    out = tempfile.mkdtemp(prefix="skar_qenc_docs_")
    try:
        t0 = _time.time()
        run_encode_job(
            f"{sf_dir}/documents.parquet", out, mode="sharded",
            chunk_target_bytes=256 << 10, resume=False,
        )
        t1 = _time.time()
        res = query_encoded(
            out,
            columns=["doc_id", "lang", "source", "n_chars"],
            filters=[[("lang", "==", "en"), ("n_chars", ">=", 400)],
                     [("source", "==", "src7"), ("n_chars", "<", 150)]],
        ).to_pandas()
        PHASE_TIMINGS["query_encoded_documents"] = {
            "encode_s": round(t1 - t0, 3), "query_s": round(_time.time() - t1, 3),
        }
        return res.sort_values("doc_id").reset_index(drop=True)
    finally:
        shutil.rmtree(out, ignore_errors=True)


def query_encoded_contains(sf_dir: str) -> pd.DataFrame:
    """Substring/suffix (``LIKE '%..%'`` / ``LIKE '%..'``) predicates
    over the ENCODED store — the skar DNF surface extended with
    ``contains`` and ``suffix`` ops.  One needle hits the FSST-coded
    high-cardinality ``text`` column (decode + ``pc.match_substring`` /
    ``pc.ends_with``), another hits the dict-coded ``source`` column
    where it evaluates on the dictionary VALUES only, and partitions
    whose exact distinct sets lack the needle prune without a read
    (state/pruning.py::clause_possible)."""
    from .encode_job import run_encode_job
    from .query_encoded import query_encoded

    out = tempfile.mkdtemp(prefix="skar_qenc_contains_")
    try:
        run_encode_job(
            f"{sf_dir}/documents.parquet", out, mode="sharded",
            chunk_target_bytes=256 << 10, resume=False,
        )
        res = query_encoded(
            out,
            columns=["doc_id", "lang", "source", "n_chars"],
            filters=[[("text", "contains", "merge batch"), ("lang", "==", "en")],
                     [("source", "contains", "7"), ("n_chars", "<", 300)],
                     [("text", "suffix", "sort"), ("lang", "!=", "en")]],
        ).to_pandas()
        return res.sort_values("doc_id").reset_index(drop=True)
    finally:
        shutil.rmtree(out, ignore_errors=True)


def query_encoded_join(sf_dir: str) -> pd.DataFrame:
    """Cross-TABLE semi-join over two ENCODED stores — the reference's
    core query shape: its engine answers every query by propagating key
    sets between compressed folders (logs -> transactions -> blocks,
    /root/reference/skar/src/query/execution/mod.rs:21-65).  Encode
    customer and orders into separate stores, DNF-select customers on
    the encoded form, fold the surviving c_custkey set into an `in`-DNF
    over the orders store (manifest pruning + per-chunk stats/SBBF +
    encoded-form evaluation), and return the matching orders."""
    from .encode_job import run_encode_job
    from .query_encoded import query_encoded_semi_join

    import time as _time

    work = tempfile.mkdtemp(prefix="skar_qenc_join_")
    try:
        store_c = os.path.join(work, "customer")
        store_o = os.path.join(work, "orders")
        t0 = _time.time()
        run_encode_job(f"{sf_dir}/customer.parquet", store_c, mode="sharded",
                       chunk_target_bytes=128 << 10, resume=False)
        run_encode_job(f"{sf_dir}/orders.parquet", store_o, mode="sharded",
                       chunk_target_bytes=128 << 10, resume=False)
        t1 = _time.time()
        res = query_encoded_semi_join(
            store_c, store_o, key_a="c_custkey", key_b="o_custkey",
            dnf_a=[[("c_mktsegment", "==", "BUILDING")]],
            dnf_b=[[("o_orderstatus", "==", "F")]],
            columns_b=["o_orderkey", "o_custkey", "o_orderstatus", "o_totalprice"],
        ).to_pandas()
        PHASE_TIMINGS["query_encoded_join"] = {
            "encode_s": round(t1 - t0, 3), "query_s": round(_time.time() - t1, 3),
        }
        return res.sort_values("o_orderkey").reset_index(drop=True)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def query_encoded_tail(sf_dir: str) -> pd.DataFrame:
    """Query over the encoded store UNIONED with a raw un-encoded tail
    — the reference answers every query from its compressed folders
    plus the in-memory tip snapshot (handler.rs:109-136).  Encode the
    first half of `documents`, leave the second half as a raw Parquet
    delta, run one DNF over both; the oracle sees the whole table."""
    import pyarrow.parquet as _pq

    from .encode_job import run_encode_job
    from .query_encoded import query_encoded_with_tail

    work = tempfile.mkdtemp(prefix="skar_qenc_tail_")
    try:
        full = _pq.read_table(f"{sf_dir}/documents.parquet")
        half = full.num_rows // 2
        enc_src = os.path.join(work, "head.parquet")
        _pq.write_table(full.slice(0, half), enc_src)
        tail_path = os.path.join(work, "tail.parquet")
        _pq.write_table(full.slice(half), tail_path)
        store = os.path.join(work, "store")
        run_encode_job(enc_src, store, mode="sharded",
                       chunk_target_bytes=128 << 10, resume=False)
        res = query_encoded_with_tail(
            store, tail_path,
            columns=["doc_id", "lang", "n_chars"],
            filters=[[("lang", "==", "en"), ("n_chars", ">=", 300)]],
        ).to_pandas()
        return res.sort_values("doc_id").reset_index(drop=True)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def _decoded_identity(out_dir: str) -> pd.DataFrame:
    """Identity frame of a decoded store: every key column plus
    md5(content) per row — SQL-hash-verifiable against the source
    corpus parquet (DuckDB recomputes md5 independently), turning the
    job-lifecycle queries from rows-only checks into full value
    matches the same way the encode_roundtrip_* oracles work."""
    from .decode_job import decoded_dataset

    def fp(batch: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame({
            "repo": batch["repo"], "path": batch["path"],
            "commit": batch["commit"], "lang": batch["lang"],
            "content_md5": batch["text" if "text" in batch else "content"].map(
                lambda s: hashlib.md5(s.encode()).hexdigest()),
        })

    out = decoded_dataset(out_dir).map_batches(fp, batch_format="pandas").to_pandas()
    return out.sort_values(["repo", "path", "commit"]).reset_index(drop=True)


def append_corpus(sf_dir: str) -> pd.DataFrame:
    """Incremental-append lifecycle (skar's tip-following flush,
    skar_runner.rs:285-370): encode the first half of the corpus, append
    the second half.  Internal asserts prove only touched partitions
    re-encode and digests verify; the RETURN is the decoded post-append
    store's identity frame, SQL-hash-verified against the full source
    corpus (r4 — was a rows-only manifest summary)."""
    import pyarrow.parquet as _pq

    from ..corpus import ensure_corpus, read_corpus_table, rows_for_sf, sf_from_dir
    from ..state import manifest as manifest_mod
    from .append_job import run_append_job
    from .decode_job import run_verify_job
    from .encode_job import run_encode_job

    n = rows_for_sf(sf_from_dir(sf_dir), cap=5000)
    d = ensure_corpus(n)
    work = tempfile.mkdtemp(prefix="skar_append_")
    try:
        full = read_corpus_table(os.path.join(d, "corpus.parquet"))
        half = full.num_rows // 2
        src = os.path.join(work, "src")
        os.makedirs(src)
        _pq.write_table(full.slice(0, half), os.path.join(src, "base.parquet"))
        out = os.path.join(work, "out")
        run_encode_job(os.path.join(src, "base.parquet"), out,
                       target_partition_bytes=2 << 20, chunk_target_bytes=1 << 20)
        delta_dir = os.path.join(work, "delta")
        os.makedirs(delta_dir)
        _pq.write_table(full.slice(half), os.path.join(delta_dir, "delta.parquet"))
        r = run_append_job(delta_dir, out,
                           base_corpus_path=os.path.join(src, "base.parquet"),
                           target_partition_bytes=2 << 20, chunk_target_bytes=1 << 20)
        _pq.write_table(full.slice(half), os.path.join(src, "delta.parquet"))
        v = run_verify_job(src, out)
        assert v["rows_match"] and v["digests_verified"], (r, v)
        assert manifest_mod.scan_manifests(out), "append produced no partitions"
        return _decoded_identity(out)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def store_stats_corpus(sf_dir: str) -> pd.DataFrame:
    """Store introspection over the (cached) encoded corpus: per-column
    codec choices + byte accounting from manifests alone — the analog of
    the reference's folder-index range scans (db/mod.rs:217-305).
    Deterministic given the seeded corpus and plan."""
    from ..corpus import ensure_corpus, rows_for_sf, sf_from_dir
    from .encode_job import run_encode_job
    from .stats import store_stats

    n = rows_for_sf(sf_from_dir(sf_dir), cap=20000)
    d = ensure_corpus(n)
    out = f"/tmp/skar_ray_encoded/n{n}"
    os.makedirs(out, exist_ok=True)
    run_encode_job(
        os.path.join(d, "corpus.parquet"), out,
        target_partition_bytes=16 << 20, chunk_target_bytes=8 << 20, resume=True,
    )
    return store_stats(out)


def compact_corpus(sf_dir: str) -> pd.DataFrame:
    """Compaction lifecycle (skar's accumulate→compact): encode a small
    corpus deliberately fragmented, compact into larger partitions.
    The compact job's own row/digest checks stay as asserts; the RETURN
    is the decoded post-compaction store's identity frame,
    SQL-hash-verified against the source corpus (r4)."""
    from ..corpus import ensure_corpus, rows_for_sf, sf_from_dir
    from .compact_job import run_compact_job
    from .encode_job import run_encode_job
    from ..state import manifest as manifest_mod

    n = rows_for_sf(sf_from_dir(sf_dir), cap=5000)
    d = ensure_corpus(n)
    src = tempfile.mkdtemp(prefix="skar_compact_src_")
    dst = tempfile.mkdtemp(prefix="skar_compact_dst_")
    try:
        run_encode_job(os.path.join(d, "corpus.parquet"), src,
                       target_partition_bytes=2 << 20, chunk_target_bytes=1 << 20,
                       mode="hashed", resume=False)
        r = run_compact_job(src, dst, target_partition_bytes=16 << 20, chunk_target_bytes=8 << 20)
        assert r["rows_match"], r
        assert manifest_mod.scan_manifests(dst), "compaction produced no partitions"
        return _decoded_identity(dst)
    finally:
        shutil.rmtree(src, ignore_errors=True)
        shutil.rmtree(dst, ignore_errors=True)


def encode_corpus_flagship(sf_dir: str) -> pd.DataFrame:
    """Flagship: seeded code corpus → salted-partition encode (hashed
    mode — the barrier-free hash exchange, same plan the bench runs;
    test_encode_job pins it against an in-process encode of each
    pkey) → verified decode → per-partition lineage summary.
    Deterministic but not SQL-expressible."""
    from ..corpus import ensure_corpus, rows_for_sf, sf_from_dir
    from .decode_job import run_verify_job
    from .encode_job import run_encode_job

    n = rows_for_sf(sf_from_dir(sf_dir), cap=20000)
    d = ensure_corpus(n)
    out = tempfile.mkdtemp(prefix="skar_flagship_")
    try:
        summary = run_encode_job(
            os.path.join(d, "corpus.parquet"),
            out,
            target_partition_bytes=16 << 20,
            chunk_target_bytes=8 << 20,
            mode="hashed",
        )
        v = run_verify_job(os.path.join(d, "corpus.parquet"), out)
        assert v["rows_match"] and v["digests_verified"]
        df = summary.to_pandas().sort_values("partition_id").reset_index(drop=True)
        return df[["partition_id", "n_rows", "raw_bytes", "enc_bytes", "content_sha256"]]
    finally:
        shutil.rmtree(out, ignore_errors=True)


# ------------------------------------------------------------ text / dedup


def _docs(sf_dir: str) -> "ray.data.Dataset":
    return ray.data.read_parquet(f"{sf_dir}/documents.parquet")


def token_count(sf_dir: str) -> pd.DataFrame:
    out = _docs(sf_dir).map_batches(text.token_counts, batch_format="pandas").to_pandas()
    return out.sort_values("doc_id").reset_index(drop=True)


def token_count_bpe(sf_dir: str) -> pd.DataFrame:
    out = _docs(sf_dir).map_batches(text.bpe_token_counts, batch_format="pandas").to_pandas()
    return out.sort_values("doc_id").reset_index(drop=True)


def quality_score(sf_dir: str) -> pd.DataFrame:
    out = _docs(sf_dir).map_batches(text.quality_scores, batch_format="pandas").to_pandas()
    return out.sort_values("doc_id").reset_index(drop=True)


def fingerprint_md5(sf_dir: str) -> pd.DataFrame:
    out = _docs(sf_dir).map_batches(text.fingerprints, batch_format="pandas").to_pandas()
    return out[["doc_id", "md5"]].sort_values("doc_id").reset_index(drop=True)


def fingerprint_rolling(sf_dir: str) -> pd.DataFrame:
    out = _docs(sf_dir).map_batches(text.fingerprints, batch_format="pandas").to_pandas()
    return out[["doc_id", "rolling_fp"]].sort_values("doc_id").reset_index(drop=True)


def chunk_documents(sf_dir: str) -> pd.DataFrame:
    """Context-window chunking: overlapping 128-char chunks at stride
    96 — one doc fans out to ceil(n_chars/96) rows (flat-map shape)."""
    ds = ray.data.read_parquet(f"{sf_dir}/documents.parquet", columns=["doc_id", "text"])
    out = ds.map_batches(text.chunk_texts, batch_format="pandas").to_pandas()
    # the SQL oracle enumerates chunk ordinals via generate_series(0, 15);
    # a longer document would silently truncate the ORACLE — fail loudly
    # here instead (same guard as inverted_index)
    if len(out) and int(out["chunk_id"].max()) > 15:
        raise ValueError("document needs > 16 chunks; raise the oracle series cap")
    return out.sort_values(["doc_id", "chunk_id"]).reset_index(drop=True)


def dup_span_stats(sf_dir: str) -> pd.DataFrame:
    """ExactSubstr-family duplicated-span statistics over 4-token
    grams (Lee et al. 2021): per doc the gram count, duplicated-gram
    count (gram in >= 2 distinct docs) and longest duplicated run —
    exact via the two-pass frequent-item skeleton (stages/text.py)."""
    ds = ray.data.read_parquet(f"{sf_dir}/documents.parquet", columns=["doc_id", "text"])
    return text.dup_span_stats(ds, k=4, min_docs=2)


def heavy_hitters(sf_dir: str) -> pd.DataFrame:
    """Tokens holding ≥ 1/30 of the corpus token mass, exact counts via
    Misra-Gries partials + candidate recount (see stages/text.py)."""
    ds = ray.data.read_parquet(f"{sf_dir}/documents.parquet", columns=["text"])
    return text.heavy_hitters(ds, frac_num=1, frac_den=30)


def lang_id(sf_dir: str) -> pd.DataFrame:
    out = _docs(sf_dir).map_batches(text.lang_id, batch_format="pandas").to_pandas()
    return out.sort_values("doc_id").reset_index(drop=True)


def dedup_lines(sf_dir: str) -> pd.DataFrame:
    """Repeated-line boilerplate removal over the CODE corpus (the
    C4/RefinedWeb line-dedup cleaning step): lines appearing in >= 10
    distinct documents (license headers, generated imports) are removed
    from every document.  Exact at any scale — hash-count exchange →
    candidate recount by exact text → broadcast rewrite
    (stages/text.boilerplate_lines).  Returns the per-doc identity
    frame (md5 of the cleaned content) for SQL hash verification."""
    from ..corpus import ensure_corpus, rows_for_sf, sf_from_dir
    from ..stages.text import remove_boilerplate_lines

    n = rows_for_sf(sf_from_dir(sf_dir), cap=5000)
    d = ensure_corpus(n)
    ds = ray.data.read_parquet(
        os.path.join(d, "corpus.parquet"),
        columns=["repo", "path", "commit", "content"],
    )
    out = remove_boilerplate_lines(ds, min_docs=10, text_col="content").to_pandas()
    out["clean_md5"] = out["clean_content"].map(
        lambda s: hashlib.md5(s.encode()).hexdigest()
    )
    return (
        out[["repo", "path", "commit", "n_lines", "n_kept", "clean_md5"]]
        .sort_values(["repo", "path", "commit", "clean_md5"])
        .reset_index(drop=True)
    )


def label_confusion(sf_dir: str) -> pd.DataFrame:
    """Label-noise QA: confusion counts between the labeled ``lang``
    and the stopword-profile prediction — flags mislabeled training
    docs before they skew a per-language mixture.  Per-batch partial
    counts (the pre-aggregate pattern), tiny groupby merge."""

    def confusion(batch: pd.DataFrame) -> pd.DataFrame:
        out = pd.DataFrame(
            {
                "lang": batch["lang"].to_numpy(),
                "lang_pred": text.lang_id(batch)["lang_pred"].to_numpy(),
                "n": 1,
            }
        )
        return out.groupby(["lang", "lang_pred"], as_index=False).sum()

    def merge(g: pd.DataFrame) -> pd.DataFrame:
        if len(g) == 0:
            return pd.DataFrame(
                {
                    "lang": pd.Series([], dtype="object"),
                    "lang_pred": pd.Series([], dtype="object"),
                    "n": pd.Series([], dtype="int64"),
                }
            )
        return pd.DataFrame(
            {
                "lang": [g["lang"].iloc[0]],
                "lang_pred": [g["lang_pred"].iloc[0]],
                "n": [int(g["n"].sum())],
            }
        )

    out = (
        _docs(sf_dir)
        .map_batches(confusion, batch_format="pandas")
        .groupby(["lang", "lang_pred"])
        .map_groups(merge, batch_format="pandas")
        .to_pandas()
    )
    return (
        out.sort_values(["lang", "lang_pred"])
        .reset_index(drop=True)
        .astype({"n": "int64"})
    )


def dedup_exact(sf_dir: str) -> pd.DataFrame:
    out = dedup.exact_dedup(_docs(sf_dir)).to_pandas()
    return out.sort_values("doc_id").reset_index(drop=True)


def stratified_sample(sf_dir: str, per_group: int = 20) -> pd.DataFrame:
    """Deterministic stratified sampling: the `per_group` docs with the
    smallest md5(doc_id) per language — a seedless, shuffle-free sample
    that any engine reproduces exactly (the standard trick for
    reproducible training-data subsets).  Per-batch top-k partials →
    per-group merge; only candidate rows move through the shuffle."""

    def partials(batch: pd.DataFrame) -> pd.DataFrame:
        b = batch[["doc_id", "lang"]].copy()
        b["rk"] = b["doc_id"].map(lambda i: hashlib.md5(str(int(i)).encode()).hexdigest())
        return b.sort_values("rk").groupby("lang", as_index=False).head(per_group)

    def merge(g: pd.DataFrame) -> pd.DataFrame:
        return g.sort_values("rk").head(per_group)[["doc_id", "lang"]]

    out = (
        _docs(sf_dir)
        .map_batches(partials, batch_format="pandas")
        .groupby("lang")
        .map_groups(merge, batch_format="pandas")
        .to_pandas()
    )
    return out.sort_values("doc_id").reset_index(drop=True).astype({"doc_id": "int64"})


_MIX_WEIGHTS = {"en": 40, "de": 15, "es": 15, "fr": 15, "zh": 15}
_MIX_TOTAL = 200


def mix_sample(sf_dir: str) -> pd.DataFrame:
    """Domain mixing: build a training mixture hitting target
    per-language proportions — each language contributes its
    ``weight/100 × total`` docs, chosen as the smallest md5(doc_id)
    ranks (the same seedless deterministic ranking as
    stratified_sample, so any engine reproduces the mixture exactly).
    Languages absent from the weights contribute nothing; a language
    with fewer docs than its target contributes all of them.
    Per-batch top-k partials → per-group merge; only candidates move."""

    targets = {
        lang: (w * _MIX_TOTAL) // 100 for lang, w in _MIX_WEIGHTS.items()
    }
    tref = ray.put(targets)

    def partials(batch: pd.DataFrame) -> pd.DataFrame:
        t = cached_get(tref)
        b = batch[batch["lang"].isin(list(t))][["doc_id", "lang"]].copy()
        if not len(b):
            return pd.DataFrame(
                {"doc_id": pd.Series([], dtype="int64"),
                 "lang": pd.Series([], dtype="object"),
                 "rk": pd.Series([], dtype="object")}
            )
        b["rk"] = b["doc_id"].map(lambda i: hashlib.md5(str(int(i)).encode()).hexdigest())
        return (
            b.sort_values("rk")
            .groupby("lang", as_index=False, group_keys=False)
            .apply(lambda g: g.head(t[g["lang"].iloc[0]]))
        )

    def merge(g: pd.DataFrame) -> pd.DataFrame:
        if len(g) == 0:
            return pd.DataFrame(
                {"doc_id": pd.Series([], dtype="int64"),
                 "lang": pd.Series([], dtype="object")}
            )
        k = cached_get(tref)[g["lang"].iloc[0]]
        return g.sort_values("rk").head(k)[["doc_id", "lang"]]

    out = (
        _docs(sf_dir)
        .map_batches(partials, batch_format="pandas")
        .groupby("lang")
        .map_groups(merge, batch_format="pandas")
        .to_pandas()
    )
    return out.sort_values("doc_id").reset_index(drop=True).astype({"doc_id": "int64"})


def clean_text(sf_dir: str) -> pd.DataFrame:
    """Text normalization: collapse ASCII whitespace runs to single
    spaces and trim — the classic pre-tokenization cleanup, written to
    match DuckDB regexp_replace/trim exactly."""
    import re as _re

    pat = _re.compile(r"[ \t\n\r]+")

    def clean(batch: pd.DataFrame) -> pd.DataFrame:
        cleaned = batch["text"].map(lambda s: pat.sub(" ", s).strip(" "))
        return pd.DataFrame({"doc_id": batch["doc_id"], "clean_len": cleaned.str.len().astype("int64"),
                             "clean_md5": cleaned.map(lambda s: hashlib.md5(s.encode()).hexdigest())})

    out = _docs(sf_dir).map_batches(clean, batch_format="pandas").to_pandas()
    return out.sort_values("doc_id").reset_index(drop=True)


def _inject_pii(batch: pd.DataFrame) -> pd.DataFrame:
    """Deterministically embed PII-shaped tokens (two email forms, one
    IPv4) derived from doc_id — the synthetic documents carry none, so
    the scrub stage is exercised with real matches and the SQL oracle
    re-derives the identical augmented text (same pattern as the
    multimodal ops synthesizing their PNG/WAV payloads in-query)."""
    b = batch.reset_index(drop=True).fillna({"text": ""})  # null text as ''
    d = b["doc_id"].astype("int64")
    s = d.astype(str)
    alt = (" alt." + s + "@mail" + (d % 3).astype(str) + ".net").where(d % 2 == 0, "")
    aug = (
        b["text"] + " contact user" + s + "@ex" + (d % 5).astype(str) + ".org"
        + alt + " from 10." + (d % 200).astype(str) + ".3." + (d % 250).astype(str)
    )
    return pd.DataFrame({"doc_id": d.to_numpy(), "text": aug.to_numpy(object)})


def pii_scrub(sf_dir: str) -> pd.DataFrame:
    """PII redaction (emails then IPv4 literals → placeholders) with
    per-doc match counts and the md5 of the scrubbed text — the
    privacy-cleaning pass of a training-data pipeline, vectorized
    compiled-regex map_batches (stages/text.pii_scrub).  The input
    text is augmented with deterministic doc_id-derived PII so the
    redaction path actually fires (see _inject_pii)."""
    out = (
        _docs(sf_dir)
        .map_batches(_inject_pii, batch_format="pandas")
        .map_batches(text.pii_scrub, batch_format="pandas")
        .to_pandas()
    )
    return out.sort_values("doc_id").reset_index(drop=True)


def _inject_urls(batch: pd.DataFrame) -> pd.DataFrame:
    """Deterministic doc_id-derived URLs (1-2 per doc across 11
    domains) — same in-query synthesis rationale as _inject_pii."""
    b = batch.reset_index(drop=True)
    d = b["doc_id"].astype("int64")
    s = d.astype(str)
    extra = (" http://www.site" + (d % 4).astype(str) + ".com/q?x=" + s).where(
        d % 3 == 0, ""
    )
    aug = b["text"] + " see https://h" + (d % 7).astype(str) + ".example.org/p/" + s + extra
    return pd.DataFrame({"doc_id": d.to_numpy(), "text": aug.to_numpy(object)})


def url_domain_stats(sf_dir: str) -> pd.DataFrame:
    """Domain-provenance statistics: URL mentions and distinct
    mentioning docs per domain (source-mix curation / domain filters).
    Per-batch partials only — the exchange carries domain-cardinality
    rows (stages/text.url_domain_stats)."""
    ds = _docs(sf_dir).map_batches(_inject_urls, batch_format="pandas")
    return text.url_domain_stats(ds)


def curation_pipeline(sf_dir: str) -> pd.DataFrame:
    """End-to-end curation capstone — the composed pipeline a
    training-data user actually runs, each stage one of the verified
    operators above: quality gate (length + alpha-ratio, integer-exact)
    → exact dedup keep-first (stages/dedup.exact_dedup) → per-language
    512-token sequence packing (stages/training.pack_sequences,
    distributed prefix sum).  The survivor-id set is broadcast for the
    final filter (bounded at bench scale; the 100-TB path swaps in the
    bucketed anti-join the dedup keep pipelines already use).  The SQL
    oracle chains the same three stages, so the hash match proves the
    composition end-to-end, not just the parts."""
    from ..stages import dedup as dedup_mod
    from ..stages.text import _in_sorted

    def gate(batch: pd.DataFrame) -> pd.DataFrame:
        texts = batch["text"]
        n_chars = texts.str.len().astype("int64")
        n_alpha = texts.str.count(r"[A-Za-z]").astype("int64")
        keep = (n_chars >= 100) & (n_alpha * 2 >= n_chars)
        return batch.loc[keep, ["doc_id", "lang", "text"]]

    gated = _docs(sf_dir).map_batches(gate, batch_format="pandas")
    kept = dedup_mod.exact_dedup(gated).to_pandas()
    ids = np.sort(kept["doc_id"].to_numpy(np.int64))
    ids_ref = ray.put(ids)

    def keep_first(batch: pd.DataFrame) -> pd.DataFrame:
        ids_ = cached_get(ids_ref)
        b = gate(batch)
        return b.loc[_in_sorted(ids_, b["doc_id"].to_numpy(np.int64))]

    survivors = _docs(sf_dir).map_batches(keep_first, batch_format="pandas")
    return training.pack_sequences(survivors)


def _inject_decomposed(batch: pd.DataFrame) -> pd.DataFrame:
    """Append doc_id-derived DECOMPOSED Unicode (combining acute,
    ANGSTROM SIGN compatibility singleton) so NFC normalization has
    real work — same in-query synthesis rationale as _inject_pii."""
    b = batch.reset_index(drop=True).fillna({"text": ""})  # null text as ''
    d = b["doc_id"].astype("int64")
    aug = (
        b["text"] + " cafe\u0301 No" + (d % 3).astype(str) + "\u212b"
    ).where(d % 2 == 0, b["text"])  # odd docs stay ASCII: changed=0 rows exist
    return pd.DataFrame({"doc_id": d.to_numpy(), "text": aug.to_numpy(object)})


def normalize_nfc(sf_dir: str) -> pd.DataFrame:
    """Unicode NFC normalization report (md5 of the normalized text,
    normalized length, changed flag) — stages/text.nfc_normalize over
    text augmented with deterministic decomposed sequences."""
    out = (
        _docs(sf_dir)
        .map_batches(_inject_decomposed, batch_format="pandas")
        .map_batches(text.nfc_normalize, batch_format="pandas")
        .to_pandas()
    )
    return out.sort_values("doc_id").reset_index(drop=True)


def _inject_paragraphs(batch: pd.DataFrame) -> pd.DataFrame:
    """Append doc_id-derived boilerplate paragraphs (7 license variants
    + a shared notice on every 5th doc) so the paragraph dedup has real
    cross-document repeats to remove — same in-query synthesis
    rationale as _inject_pii."""
    b = batch.reset_index(drop=True)
    d = b["doc_id"].astype("int64")
    shared = pd.Series("\n\nSHARED NOTICE", index=b.index).where(d % 5 == 0, "")
    aug = b["text"] + "\n\nLICENSE v" + (d % 7).astype(str) + " terms apply" + shared
    return pd.DataFrame({"doc_id": d.to_numpy(), "text": aug.to_numpy(object)})


def dedup_paragraphs(sf_dir: str) -> pd.DataFrame:
    """Global first-occurrence paragraph dedup (the C4/RefinedWeb
    repeated-paragraph cleaning step): every occurrence of a paragraph
    except the globally first (by (doc_id, position)) is removed —
    stages/text.dedup_paragraphs, exact via hash-count → bucketed-MIN
    first-key exchange → broadcast rewrite.  Returns the per-doc
    identity frame (md5 of the cleaned text) for SQL verification."""
    ds = _docs(sf_dir).map_batches(_inject_paragraphs, batch_format="pandas")
    out = text.dedup_paragraphs(ds, text_col="text", id_col="doc_id").to_pandas()
    # the oracle enumerates paragraph ordinals via generate_series(1, 64)
    if len(out) and int(out["n_paras"].max()) > 64:
        raise ValueError("document has > 64 paragraphs; raise the oracle series cap")
    out["clean_md5"] = out["clean_text"].map(
        lambda s: hashlib.md5(s.encode()).hexdigest()
    )
    return (
        out[["doc_id", "n_paras", "n_kept", "clean_md5"]]
        .sort_values("doc_id").reset_index(drop=True)
    )


def quality_filter_stats(sf_dir: str) -> pd.DataFrame:
    """Composed quality-gate pipeline: score → threshold filter → per
    (lang, source) survivor counts — the shape of a real corpus-cleaning
    stage, with integer-exact aggregates for the SQL oracle."""

    def gate(batch: pd.DataFrame) -> pd.DataFrame:
        texts = batch["text"]
        n_chars = texts.str.len().astype("int64")
        n_alpha = texts.str.count(r"[A-Za-z]").astype("int64")
        keep = (n_chars >= 100) & (n_alpha * 2 >= n_chars)  # alpha_ratio >= 0.5, exact ints
        return batch.loc[keep, ["lang", "source"]]

    out = (
        _docs(sf_dir)
        .map_batches(gate, batch_format="pandas")
        .groupby(["lang", "source"])
        .map_groups(
            lambda g: pd.DataFrame({"lang": [g["lang"].iloc[0]], "source": [g["source"].iloc[0]],
                                    "n_kept": [len(g)]}) if len(g) else
            pd.DataFrame({"lang": [], "source": [], "n_kept": []}),
            batch_format="pandas",
        )
        .to_pandas()
    )
    return out.sort_values(["lang", "source"]).reset_index(drop=True).astype({"n_kept": "int64"})


def repetition_stats(sf_dir: str) -> pd.DataFrame:
    """Gopher-style repetition signals per doc (duplicate-line and
    top-bigram concentration) — the boilerplate/spam gate of a training
    corpus cleaner.  Integer counts for an exact SQL hash."""
    out = _docs(sf_dir).map_batches(text.repetition_stats, batch_format="pandas").to_pandas()
    return out.sort_values("doc_id").reset_index(drop=True)


def decontaminate(sf_dir: str, k: int = 8, bench_mod: int = 10) -> pd.DataFrame:
    """Benchmark decontamination: flag training docs that share any
    k-token n-gram with a held-out benchmark (here synthesised as the
    docs with ``doc_id % bench_mod == 0``) — the standard test-set
    overlap scrub before training.

    Scale shape: the benchmark side is benchmark-sized (thousands of
    docs, not corpus-sized) — its distinct n-gram set is collected once
    and **broadcast** via ``ray.put`` (the reference's broadcast-set
    semi-join, /root/reference/skar/src/query/execution/mod.rs:183-185);
    the corpus side probes it per batch with a vectorised ``isin``
    (at 100 TB the grams would be xxhashed to uint64 and probed with
    ``np.isin``; strings here keep the DuckDB oracle byte-exact).
    Returns (doc_id, n_hits) for contaminated non-benchmark docs."""
    ds = _docs(sf_dir)

    def bench_partial(batch: pd.DataFrame) -> pd.DataFrame:
        sub = batch[batch["doc_id"] % bench_mod == 0]
        _, grams = text.kgram_positions(sub["text"], k)
        return pd.DataFrame({"g": pd.unique(grams)})

    bench = frozenset(
        ds.map_batches(bench_partial, batch_format="pandas").to_pandas()["g"]
    )
    ref = ray.put(bench)

    def probe(batch: pd.DataFrame) -> pd.DataFrame:
        b = batch[batch["doc_id"] % bench_mod != 0].reset_index(drop=True)
        pos, grams = text.kgram_positions(b["text"], k)
        out = {"doc_id": pd.Series([], dtype="int64"), "n_hits": pd.Series([], dtype="int64")}
        if len(pos):
            hit = pd.Series(grams).isin(cached_get(ref)).to_numpy()
            if hit.any():
                hits = pd.Series(b["doc_id"].to_numpy()[pos[hit]]).value_counts().sort_index()
                out = {"doc_id": hits.index.astype("int64"), "n_hits": hits.to_numpy().astype("int64")}
        return pd.DataFrame(out)

    parts = ds.map_batches(probe, batch_format="pandas").to_pandas()
    return parts.sort_values("doc_id").reset_index(drop=True).astype({"doc_id": "int64", "n_hits": "int64"})


def decontaminate_bloom(sf_dir: str, k: int = 8, bench_mod: int = 10) -> pd.DataFrame:
    """Benchmark decontamination via the reference's bloom-prune →
    exact-verify pipeline shape (prune_query handler.rs:187-250 →
    execute_query): an SBBF over the benchmark's gram hashes is the
    broadcast pre-filter (FIXED size regardless of benchmark scale —
    the 100 TB story), each corpus batch probes it vectorised, and only
    the surviving (gram, doc_id) rows enter the exact semi-join through
    the shared hash exchange.  SBBFs have no false negatives and the
    exact join kills false positives, so the output equals
    ``decontaminate`` and shares its SQL oracle."""
    from ..stages.groups import bucketed_group_apply
    from ..state.bloom import SplitBlockBloom

    ds = _docs(sf_dir)

    def bench_grams(batch: pd.DataFrame) -> pd.DataFrame:
        sub = batch[batch["doc_id"] % bench_mod == 0]
        _, grams = text.kgram_positions(sub["text"], k)
        return pd.DataFrame({"g": pd.unique(grams)})

    # benchmark side: distinct grams (benchmark-sized, like the exact
    # op's broadcast set) -> fixed-size SBBF + marker rows for the join
    bench = ds.map_batches(bench_grams, batch_format="pandas").to_pandas()
    u = pd.unique(bench["g"]) if len(bench) else np.array([], dtype=object)
    hashes = np.unique(pd.util.hash_array(u)) if len(u) else np.array([], dtype=np.uint64)
    bref = ray.put(SplitBlockBloom.build_from_hashes(hashes))
    markers = ray.data.from_pandas(
        pd.DataFrame({"g": u, "doc_id": np.full(len(u), -1, dtype=np.int64)})
    )

    def bloom_probe(batch: pd.DataFrame) -> pd.DataFrame:
        b = batch[batch["doc_id"] % bench_mod != 0].reset_index(drop=True)
        pos, grams = text.kgram_positions(b["text"], k)
        if not len(pos):
            return pd.DataFrame(
                {"g": pd.Series([], dtype="object"),
                 "doc_id": pd.Series([], dtype="int64")}
            )
        keep = cached_get(bref).contains_hashes(pd.util.hash_array(grams))
        return pd.DataFrame(
            {"g": grams[keep],
             "doc_id": b["doc_id"].to_numpy()[pos[keep]].astype("int64")}
        )

    probed = ds.map_batches(bloom_probe, batch_format="pandas")

    def per_gram(g: pd.DataFrame) -> pd.DataFrame:
        empty = pd.DataFrame(
            {"doc_id": pd.Series([], dtype="int64"), "n": pd.Series([], dtype="int64")}
        )
        if len(g) == 0 or not (g["doc_id"] == -1).any():
            return empty  # bloom false positive (or marker-only group)
        hits = g[g["doc_id"] != -1]
        if not len(hits):
            return empty
        vc = hits.groupby("doc_id").size()
        return pd.DataFrame({"doc_id": vc.index.astype("int64"), "n": vc.to_numpy()})

    parts = bucketed_group_apply(
        probed.union(markers), ["g"], per_gram, min_group_size=2
    ).to_pandas()
    out = parts.groupby("doc_id", as_index=False)["n"].sum().rename(columns={"n": "n_hits"})
    return out.sort_values("doc_id").reset_index(drop=True).astype(
        {"doc_id": "int64", "n_hits": "int64"}
    )


def pack_sequences(sf_dir: str) -> pd.DataFrame:
    """LLM sequence packing (concat-and-chop into 512-token sequences
    per language) via a distributed two-pass prefix sum — see
    stages/training.pack_sequences."""
    return training.pack_sequences(_docs(sf_dir))


def split_assign(sf_dir: str) -> pd.DataFrame:
    """Deterministic train/val/test split manifest (md5-prefix ranges,
    ~80/10/10) with per-(lang, split) doc and char volumes."""
    return training.split_assign(_docs(sf_dir))


def lm_commonness(sf_dir: str) -> pd.DataFrame:
    """Unigram-LM quality scoring: corpus token frequencies broadcast as
    the model, each doc scored by summed token frequency (integer-exact
    KenLM-filter analog)."""
    return training.unigram_commonness(_docs(sf_dir))


def lm_commonness_topk(sf_dir: str) -> pd.DataFrame:
    """The 100 TB operating mode of lm_commonness: the model is capped
    to the K most frequent tokens (count desc, token asc tie-break) via
    a distributed partial top-K — the broadcast AND the driver never
    hold the full vocab.  K=12 is well below the sf0.01 vocab size
    (31 tokens), so the oracle genuinely exercises the cap."""
    return training.unigram_commonness(_docs(sf_dir), top_k=12)


def cluster_kmeans(sf_dir: str) -> pd.DataFrame:
    """Integer-exact 2-iteration Lloyd k-means over the embeddings table
    (broadcast centroids + k×d mergeable partial sums).

    Pinned to iters=2: the SQL oracle coalesces an empty cluster to the
    INIT centroid, while kmeans_clusters keeps the PREVIOUS one — the
    two agree only while "previous" == "init", i.e. at iters<=2."""
    return training.kmeans_clusters(
        ray.data.read_parquet(f"{sf_dir}/embeddings.parquet"), iters=2
    )


def inverted_index(sf_dir: str) -> pd.DataFrame:
    """Search-index build: (tok, doc_id, first token ordinal) postings —
    a pure map-side op (a doc is one row, so per-batch min is final)."""
    out = (
        _docs(sf_dir)
        .map_batches(text.postings_batch, batch_format="pandas")
        .to_pandas()
    )
    out = out.sort_values(["tok", "doc_id"]).reset_index(drop=True)
    # the SQL oracle enumerates ordinals via generate_series(1, 8192);
    # a longer document would silently truncate the ORACLE and flag a
    # correct pipeline as wrong — fail loudly here instead (a real
    # raise, not an assert: python -O must not disable the guard)
    if len(out) and not out["first_pos"].le(8192).all():
        raise ValueError(
            "document exceeds the oracle's 8192-token ordinal cap (1-based)"
        )
    return out


def length_quantiles(sf_dir: str) -> pd.DataFrame:
    """Per-language count/median/p90 of n_chars via mergeable per-batch
    histograms (scale-safe exact quantiles)."""
    return text.length_quantile_stats(_docs(sf_dir))


def dedup_minhash(sf_dir: str) -> pa.Table:
    return dedup.minhash_lsh_pairs(_docs(sf_dir), threshold=0.8)


def dedup_minhash_keep(sf_dir: str) -> pd.DataFrame:
    """Full near-dedup pipeline: MinHash-LSH pairs → connected
    components → keep min doc_id per cluster + all unpaired docs."""
    ds = _docs(sf_dir)
    pairs = dedup.minhash_lsh_pairs(ds, threshold=0.8).to_pandas()
    return dedup.dedup_keep_list(ds, pairs)


def dedup_simhash(sf_dir: str) -> pa.Table:
    return dedup.simhash_pairs(_docs(sf_dir), max_hamming=3)


def dedup_ngram(sf_dir: str) -> pa.Table:
    return dedup.ngram_jaccard_pairs(_docs(sf_dir), threshold=0.5)


def dedup_embedding(sf_dir: str) -> pa.Table:
    """LSH near-dup pairs.  The synthetic embeddings are near-orthogonal
    (max pairwise cosine ≈0.51 at sf0.01), so deterministic seeded
    near-duplicates are planted first — otherwise the driver check is
    vacuous (0 rows, VERDICT r1).  The planted copies get fresh vec_ids
    above the table's max."""
    ds = ray.data.read_parquet(f"{sf_dir}/embeddings.parquet")
    base = pd.read_parquet(f"{sf_dir}/embeddings.parquet", columns=["vec_id", "embedding"])
    rng = np.random.default_rng(42)
    top = base.nsmallest(3, "vec_id")
    max_id = int(base["vec_id"].max())
    planted = pd.DataFrame({
        "vec_id": [max_id + 1 + i for i in range(len(top))],
        "embedding": [
            (np.asarray(v, dtype=np.float32) + rng.normal(0, 1e-3, len(v)).astype(np.float32))
            for v in top["embedding"]
        ],
    })
    for col in base.columns:
        if col not in planted.columns:
            planted[col] = None
    extra = ray.data.from_pandas(planted[[c for c in ["vec_id", "embedding"]]])
    # materialize the (tiny) unioned input once: both the bucketing and
    # the unit-vector stages consume it, and an unmaterialized union
    # re-executes per consumer while flapping between pandas-block and
    # arrow list schemas
    ds = ds.select_columns(["vec_id", "embedding"]).union(extra).materialize()
    dim = len(np.asarray(base["embedding"].iloc[0]))
    out = dedup.embedding_dup_pairs(ds, threshold=0.95, dim=dim,
                                    n_vectors=len(base) + len(planted))
    # ids only: the cosine VALUES depend on the planted noise (not
    # SQL-derivable) and are already hash-verified by
    # dedup_embedding_exact; the pair SET is ground-truth-derivable, so
    # dropping the column upgrades this query from rows-only to a full
    # recall+precision hash check against the SQL oracle
    return out.select(["vec_a", "vec_b"]).sort_by([("vec_a", "ascending"), ("vec_b", "ascending")])


def dedup_embedding_exact(sf_dir: str) -> pa.Table:
    """Exact all-pairs cosine baseline (SQL-verifiable vs DuckDB's
    list_cosine_similarity); complements the LSH path above."""
    ds = ray.data.read_parquet(f"{sf_dir}/embeddings.parquet")
    return ann.brute_force_pairs(ds, threshold=0.4)


# ------------------------------------------------------------------- ann


def _query_vectors(sf_dir: str, n: int = 5) -> np.ndarray:
    import pyarrow.parquet as pq

    t = pq.read_table(f"{sf_dir}/embeddings.parquet", columns=["vec_id", "embedding"])
    df = t.to_pandas().sort_values("vec_id").head(n)
    return np.stack(df["embedding"].to_numpy())


def ann_bruteforce(sf_dir: str) -> pa.Table:
    ds = ray.data.read_parquet(f"{sf_dir}/embeddings.parquet")
    res = ann.brute_force_topk(ds, _query_vectors(sf_dir), k=10)
    return res.select(["query_id", "vec_id"])


def _ivf_index_for(sf_dir: str, n_lists: int = 8, seed: int = 42) -> str:
    """Build-once cache of the persisted IVF index for a testdata dir.
    ``build_ivf_index`` is resume-guarded (meta written last, row-count
    AND input fingerprint checked), so repeat calls are metadata-only
    no-ops; regenerated embeddings (same row count, new size/mtime)
    force a rebuild instead of silently serving the old vectors."""
    src = f"{sf_dir}/embeddings.parquet"
    ds = ray.data.read_parquet(src)
    n = ds.count()
    st = os.stat(src)
    fp = f"{os.path.abspath(src)}:{st.st_size}:{st.st_mtime_ns}"
    idx = f"/tmp/skar_ray_ivf/{os.path.basename(os.path.normpath(sf_dir))}-n{n}-l{n_lists}-s{seed}"
    ann_index.build_ivf_index(ds, idx, n_lists=n_lists, seed=seed, input_fingerprint=fp)
    return idx


def ann_ivf(sf_dir: str) -> pa.Table:
    """ANN via the PERSISTED list-partitioned index: the index is built
    once at write time (list-partitioned .skarc containers + manifest);
    the query decodes only the ``nprobe`` probed lists' partitions —
    reference's index-at-write/prune-at-query shape
    (build_parquet_idx.rs:19-199, query/handler.rs:96-185)."""
    import time as _time

    t0 = _time.time()
    idx = _ivf_index_for(sf_dir)
    t1 = _time.time()
    res = ann_index.ivf_index_topk(idx, _query_vectors(sf_dir), k=10, nprobe=4).select(
        ["query_id", "vec_id"]
    )
    # build_s is ~0 on a warm index (resume no-op) — the bench's
    # best-of-2 therefore reports the prune-at-query cost
    PHASE_TIMINGS["ann_ivf"] = {
        "build_s": round(t1 - t0, 3), "query_s": round(_time.time() - t1, 3),
    }
    return res


def ann_ivf_full(sf_dir: str) -> pa.Table:
    """IVF with every list probed must reduce to EXACT brute-force top-k
    — a SQL-verified invariant pinning the persisted index end-to-end
    (build → encode → manifest → probe → decode → score); ann_ivf with
    nprobe<n_lists is then the approximate mode of a machine proven
    exact at full probe."""
    idx = _ivf_index_for(sf_dir)
    return ann_index.ivf_index_topk(idx, _query_vectors(sf_dir), k=10, nprobe=8).select(
        ["query_id", "vec_id"]
    )


# ------------------------------------------------------------ multimodal


def multimodal_image_meta(sf_dir: str) -> pd.DataFrame:
    """REAL image decode, differentially tested: the media adapter
    synthesizes valid PNGs whose dimensions are functions of doc_id;
    the decoder recovers them by parsing the actual IHDR bytes.  The
    SQL oracle derives the same dimensions independently — they agree
    only if PNG write + decode round-trip correctly end-to-end."""
    import pyarrow.compute as _pc

    ds = multimodal.media_dataset_from_documents(sf_dir)
    images = ds.map_batches(
        lambda t: t.filter(_pc.equal(t.column("kind"), "image")), batch_format="pyarrow"
    )
    out = images.map_batches(
        multimodal.decode_images, batch_format="pyarrow", batch_size=64
    ).to_pandas()
    return out.sort_values("media_id").reset_index(drop=True)


def multimodal_audio_meta(sf_dir: str) -> pd.DataFrame:
    """REAL WAV decode, differentially tested (see multimodal_image_meta):
    durations come from parsing actual RIFF/WAVE frames via the stdlib
    wave module; the oracle derives them independently from doc_id."""
    import pyarrow.compute as _pc

    ds = multimodal.media_dataset_from_documents(sf_dir)
    audio = ds.map_batches(
        lambda t: t.filter(_pc.equal(t.column("kind"), "audio")), batch_format="pyarrow"
    )
    out = audio.map_batches(
        multimodal.audio_features, batch_format="pyarrow", batch_size=64
    ).to_pandas()[["media_id", "duration_s"]]
    return out.sort_values("media_id").reset_index(drop=True)


def multimodal_frames(sf_dir: str) -> pd.DataFrame:
    """Frame sampling over video media (payload = the doc's utf-8
    bytes), SQL-differential: the oracle recomputes each frame's byte
    offset from strlen(text) independently."""
    import pyarrow.compute as _pc

    ds = multimodal.media_dataset_from_documents(sf_dir)
    videos = ds.map_batches(
        lambda t: t.filter(_pc.equal(t.column("kind"), "video")), batch_format="pyarrow"
    )
    out = videos.map_batches(
        multimodal.sample_frames, batch_format="pyarrow", batch_size=64
    ).to_pandas()
    out = out.drop(columns=["frame_bytes"])  # offsets prove the plumbing; keep result hashable
    return out.sort_values(["media_id", "frame"]).reset_index(drop=True)


def multimodal_audio(sf_dir: str) -> pd.DataFrame:
    """Full audio feature extraction (REAL stdlib-wave decode →
    duration + RMS energy), SQL-verified against the closed form of the
    synthesized sine: the oracle recomputes every int16 sample as
    trunc(sin(2πfk/sr)·12000) in DuckDB and aggregates the identical
    RMS — agreement proves the WAV write + parse + energy path
    bit-for-bit."""
    import pyarrow.compute as _pc

    ds = multimodal.media_dataset_from_documents(sf_dir)
    audio = ds.map_batches(
        lambda t: t.filter(_pc.equal(t.column("kind"), "audio")), batch_format="pyarrow"
    )
    out = audio.map_batches(
        multimodal.audio_features, batch_format="pyarrow", batch_size=64
    ).to_pandas()
    return out.sort_values("media_id").reset_index(drop=True)


# --------------------------------------------------- windows / joins


def tumbling_window(sf_dir: str) -> pd.DataFrame:
    ds = ray.data.read_parquet(f"{sf_dir}/events.parquet", columns=["event_id", "ts", "user_id", "value"])
    return windows.tumbling_window_counts(ds)


def session_window(sf_dir: str) -> pd.DataFrame:
    ds = ray.data.read_parquet(f"{sf_dir}/events.parquet", columns=["ts", "user_id"])
    return windows.session_windows(ds, gap_minutes=60)


def sliding_window(sf_dir: str) -> pd.DataFrame:
    ds = ray.data.read_parquet(f"{sf_dir}/events.parquet", columns=["ts", "user_id"])
    return windows.sliding_window_peak(ds, window="6h")


def range_join_bands(sf_dir: str) -> pd.DataFrame:
    """Range (interval) join: events matched into OVERLAPPING value
    bands (width 7.5, step 5 — each value can land in 1–2 bands) via
    the broadcast interval join; the non-equi join class the equi
    bucket/broadcast joins can't express."""
    ds = ray.data.read_parquet(f"{sf_dir}/events.parquet", columns=["event_id", "value"])
    bands = pd.DataFrame({
        "band_id": np.arange(20, dtype=np.int64),
        "lo": np.arange(20, dtype=np.float64) * 5.0,
        "hi": np.arange(20, dtype=np.float64) * 5.0 + 7.5,
    })
    out = joins.broadcast_interval_join(ds, bands, "value").to_pandas()
    out = out[["event_id", "band_id"]].sort_values(["event_id", "band_id"])
    return out.reset_index(drop=True).astype({"event_id": "int64", "band_id": "int64"})


def asof_join(sf_dir: str) -> pd.DataFrame:
    ds = ray.data.read_parquet(
        f"{sf_dir}/events.parquet", columns=["event_id", "ts", "user_id", "event_type"]
    )
    return windows.asof_join_events(ds)


def hll_distinct_users(sf_dir: str) -> pd.DataFrame:
    """Approximate distinct users per event_type via mergeable HLL
    sketches: per-batch partial sketches → tiny driver merge.
    Approximate but DETERMINISTIC — the splitmix64 ingest, register
    update, harmonic estimator and linear-counting correction are all
    re-derived from scratch by the SQL oracle (HUGEINT modular multiply
    + bin()-length leading-zero ranks), so the estimate itself is
    hash-verified, not just row counts."""
    import math

    from ..state.hll import HyperLogLog

    ds = ray.data.read_parquet(f"{sf_dir}/events.parquet", columns=["event_type", "user_id"])

    def sketch(batch: pd.DataFrame) -> pd.DataFrame:
        rows = []
        for et, g in batch.groupby("event_type"):
            h = HyperLogLog(12)
            h.add_ints(g["user_id"].to_numpy())
            rows.append((et, h.serialize().hex()))
        return pd.DataFrame(rows, columns=["event_type", "sketch"])

    partials = ds.map_batches(sketch, batch_format="pandas").to_pandas()
    merged: dict[str, "HyperLogLog"] = {}
    for r in partials.itertuples():
        h = HyperLogLog.deserialize(bytes.fromhex(r.sketch))
        merged[r.event_type] = merged[r.event_type].merge(h) if r.event_type in merged else h
    out = pd.DataFrame(
        {
            "event_type": sorted(merged),
            # floor(x+0.5), not round(): Python round() is banker's
            # rounding, DuckDB round() is half-away — floor+0.5 is the
            # one both sides express identically
            "approx_users": [int(math.floor(merged[k].estimate() + 0.5)) for k in sorted(merged)],
        }
    )
    return out


def join_one_to_one(sf_dir: str) -> pd.DataFrame:
    """The receipts⋈transactions-style validated 1:1 broadcast join:
    documents ⋈ embeddings on doc_id = vec_id (bijective by construction)."""
    import pyarrow.parquet as pq

    docs = ray.data.read_parquet(f"{sf_dir}/documents.parquet", columns=["doc_id", "lang", "n_chars"])
    emb = pq.read_table(f"{sf_dir}/embeddings.parquet", columns=["vec_id", "label"]).to_pandas()
    # inner semantics (validate=False): at some scales not every doc has
    # an embedding — matches the INNER JOIN oracle; the strict 1:1 mode
    # is exercised by unit tests
    out = joins.broadcast_join_one_to_one(docs, emb, "doc_id", "vec_id", validate=False).to_pandas()
    out["label"] = out["label"].astype("int32")
    return out.sort_values("doc_id").reset_index(drop=True)


def join_bucketed(sf_dir: str) -> pd.DataFrame:
    """Both-sides-large partitioned hash join: orders ⋈ customer."""
    orders = ray.data.read_parquet(f"{sf_dir}/orders.parquet", columns=["o_custkey", "o_orderkey", "o_totalprice"])
    orders = orders.map_batches(
        lambda t: t.rename_columns(["custkey", "o_orderkey", "o_totalprice"]), batch_format="pyarrow"
    )
    cust = ray.data.read_parquet(f"{sf_dir}/customer.parquet", columns=["c_custkey", "c_mktsegment"])
    cust = cust.map_batches(
        lambda t: t.rename_columns(["custkey", "c_mktsegment"]), batch_format="pyarrow"
    )
    out = joins.bucket_hash_join(orders, cust, "custkey", n_buckets=16).to_pandas()
    out = out.astype({"custkey": "int64", "o_orderkey": "int64", "o_totalprice": "float64"})
    return out.sort_values(["o_orderkey"]).reset_index(drop=True)


# --------------------------------------------------------------- registry

_TOKEN_SQL = r"len(regexp_extract_all(text, '\S+'))"

from ..stages.text import _LANG_PROFILES as _LP

_LANG_PROFILE_VALUES = ", ".join(
    f"('{l}','{w}')" for l, ws in sorted(_LP.items()) for w in sorted(ws)
)

# Corpus-backed oracle paths: pinned to the sf0.01 corpus sizes (the
# driver's correctness scale; `tools/check_oracles.py` defaults to the
# same).  The Ray callable runs first and materializes the cached
# corpus, so the oracle's direct parquet read always finds it.
from ..corpus import corpus_cache_dir as _corpus_cache_dir
from ..corpus import rows_for_sf as _rows_for_sf

_CORPUS_GLOB_20K = os.path.join(
    _corpus_cache_dir(_rows_for_sf(0.01, cap=20000)), "corpus.parquet", "*.parquet"
)
_CORPUS_GLOB_5K = os.path.join(
    _corpus_cache_dir(_rows_for_sf(0.01, cap=5000)), "corpus.parquet", "*.parquet"
)
# "commit" is a reserved word in DuckDB — quoted
_CORPUS_IDENTITY_SQL = (
    'SELECT repo, path, "commit", lang, md5(content) AS content_md5 '
    "FROM '{glob}'"
)


def _rolling_fp_sql() -> str:
    """From-scratch SQL re-derivation of the Rabin-Karp rolling-min
    fingerprint (stages/text.py fingerprints): per-window polynomial
    hash over code points, base 1000003 mod 2^64 via HUGEINT, min over
    windows, masked to 63 bits.  Bit-identical to the engine."""
    m64 = 1 << 64
    p = [pow(1000003, j, m64) for j in range(16)]
    terms = " + ".join(f"c[i+{j}]::HUGEINT*{p[15 - j]}" for j in range(16))
    return f"""
WITH cps AS (
  SELECT doc_id,
         list_transform(range(1, length(text)+1), i -> unicode(substr(text, i, 1))) AS c,
         length(text) AS n
  FROM documents
)
SELECT doc_id, CAST((CASE
    WHEN n = 0 THEN 0
    WHEN n <= 16 THEN list_reduce(c, (a, x) -> (a::HUGEINT * 1000003 + x) % {m64})
    ELSE list_min(list_transform(range(1, n - 14), i -> ({terms}) % {m64}))
  END) % {1 << 63} AS BIGINT) AS rolling_fp
FROM cps ORDER BY doc_id"""


def _simhash_pairs_sql(seed: int = 42, max_hamming: int = 3) -> str:
    """From-scratch SQL re-derivation of the full SimHash pair set
    (stages/dedup.py simhash + simhash_pairs): tokenize, hash each
    distinct token with md5_number_lower (the engine mirrors its
    little-endian low-8-bytes semantics), majority-vote the 64 bits,
    then brute-force every doc pair with hamming <= max_hamming.  Valid
    at the correctness scale, where every blocking bucket is under the
    engine's all-pairs cap so its output is the exact pair set."""
    bit_terms = " + ".join(
        f"CASE WHEN sum(CASE WHEN (h >> {b}) & 1 = 1 THEN 1 ELSE -1 END) > 0"
        f" THEN {1 << b}::HUGEINT ELSE 0 END"
        for b in range(64)
    )
    return f"""
WITH toks AS (
  SELECT d.doc_id, u.t
  FROM documents d,
       unnest(list_distinct(regexp_extract_all(lower(d.text), '[a-z0-9_]+'))) AS u(t)
),
th AS (SELECT doc_id, md5_number_lower('{seed}:' || t) AS h FROM toks),
sigs0 AS (SELECT doc_id, ({bit_terms}) AS hh FROM th GROUP BY doc_id),
sigs AS (
  SELECT d.doc_id, COALESCE(s.hh, 0)::UBIGINT AS h
  FROM documents d LEFT JOIN sigs0 s USING (doc_id)
)
SELECT a.doc_id AS doc_a, b.doc_id AS doc_b,
       CAST(bit_count(xor(a.h, b.h)) AS BIGINT) AS hamming
FROM sigs a JOIN sigs b ON a.doc_id < b.doc_id
WHERE bit_count(xor(a.h, b.h)) <= {max_hamming}
ORDER BY doc_a, doc_b"""


def _hll_sql(p: int = 12) -> str:
    """From-scratch SQL re-derivation of the HLL estimate
    (state/hll.py): splitmix64 finalizer via overflow-safe HUGEINT
    modular multiplies, p-bit register index, leading-zero rank from
    bin()-length (exact, no float log2), max-per-register, harmonic
    estimator with linear-counting small-range correction — the same
    deterministic arithmetic the engine runs, so even the 'approximate'
    sketch is value-hash-verified."""
    m64 = 1 << 64
    m = 1 << p
    c1, c2 = 0xBF58476D1CE4E5B9, 0x94D049BB133111EB

    def modmul(a: str, c: int) -> str:
        # (a*c) mod 2^64 without exceeding HUGEINT: split a into 32-bit
        # halves; each partial product stays under 2^96
        return (
            f"((({a}) % 4294967296) * {c} + "
            f"((({a}) >> 32) * {c} % 4294967296) * 4294967296) % {m64}"
        )

    return f"""
WITH uu AS (SELECT DISTINCT event_type, user_id FROM events),
st1 AS (SELECT event_type, user_id::UBIGINT AS v0 FROM uu),
st2 AS (SELECT event_type, ({modmul('xor(v0, v0 >> 30)::HUGEINT', c1)})::UBIGINT AS v1 FROM st1),
st3 AS (SELECT event_type, ({modmul('xor(v1, v1 >> 27)::HUGEINT', c2)})::UBIGINT AS v2 FROM st2),
hv AS (SELECT event_type, xor(v2, v2 >> 31) AS h FROM st3),
rk AS (
  SELECT event_type, (h >> {64 - p}) AS idx,
         (65 - length(bin((h % {1 << (64 - p)}) * {m} + {m - 1}))) AS rank
  FROM hv
),
reg AS (SELECT event_type, idx, max(rank) AS r FROM rk GROUP BY event_type, idx),
agg AS (
  SELECT event_type, sum(2.0 ^ (-r)) + ({m} - count(*)) * 1.0 AS denom,
         ({m} - count(*)) AS zeros
  FROM reg GROUP BY event_type
),
est AS (
  SELECT event_type,
         (0.7213 / (1 + 1.079 / {m}.0)) * {m}.0 * {m}.0 / denom AS raw, zeros
  FROM agg
)
SELECT event_type,
  CAST(floor(CASE WHEN raw <= 2.5 * {m} AND zeros > 0
       THEN {m}.0 * ln({m}.0 / zeros) ELSE raw END + 0.5) AS BIGINT) AS approx_users
FROM est ORDER BY event_type"""

# n-gram test-set overlap: benchmark = docs with doc_id % 10 = 0,
# hit = any 8-token \S+ n-gram shared; n_hits counts positions.
# Shared by the exact broadcast-set path (decontaminate) and the
# SBBF-pruned two-stage path (decontaminate_bloom).
_DECON_SQL = (
    "WITH toks AS (SELECT doc_id, regexp_extract_all(text, '\\S+') AS t FROM documents), "
    "kg AS (SELECT doc_id, unnest(list_transform(range(1, len(t) - 6), "
    "       i -> array_to_string(list_slice(t, i, i + 7), ' '))) AS g "
    "       FROM toks WHERE len(t) >= 8), "
    "bench AS (SELECT DISTINCT g FROM kg WHERE doc_id % 10 = 0) "
    "SELECT k.doc_id, CAST(count(*) AS BIGINT) AS n_hits "
    "FROM kg k JOIN bench b USING (g) WHERE k.doc_id % 10 <> 0 "
    "GROUP BY k.doc_id"
)

# language-ID derivation CTEs (see the lang_id entry's comment)
_LANG_ID_CTES = (
    "WITH toks AS ("
    " SELECT doc_id, lower(tok) AS tok FROM ("
    "  SELECT doc_id, unnest(list_slice("
    "   regexp_extract_all(text, '[A-Za-zäöüéèáíóúñ]+'), 1, 200)) AS tok"
    "  FROM documents)),"
    "profiles(lang, word) AS (VALUES " + _LANG_PROFILE_VALUES + "),"
    "scores AS (SELECT t.doc_id, p.lang, count(*) AS score"
    " FROM toks t JOIN profiles p ON t.tok = p.word GROUP BY 1, 2),"
    "best AS (SELECT doc_id, lang FROM ("
    " SELECT doc_id, lang, row_number() OVER ("
    "  PARTITION BY doc_id ORDER BY score DESC, lang ASC) AS rn FROM scores)"
    " WHERE rn = 1)"
)

QUERIES: dict[str, tuple] = {
    # (callable, oracle_sql or None)
    "range_filter": (
        Q.range_filter,
        f"SELECT event_id, ts, event_type, value FROM events "
        f"WHERE ts >= TIMESTAMP '{Q.TS_LO}' AND ts < TIMESTAMP '{Q.TS_HI}'",
    ),
    "in_set_filter": (
        Q.in_set_filter,
        "SELECT c_custkey, c_name, c_mktsegment FROM customer "
        "WHERE c_mktsegment IN ('BUILDING', 'MACHINERY')",
    ),
    "in_set_pair": (
        Q.in_set_pair,
        "SELECT l_orderkey, l_linenumber, l_quantity FROM lineitem "
        "WHERE (l_orderkey, l_linenumber) IN "
        "(SELECT (l_orderkey, l_linenumber) FROM lineitem WHERE l_partkey < 10)",
    ),
    "dnf_selection": (
        Q.dnf_selection,
        "SELECT event_id, event_type, value FROM events "
        "WHERE (event_type = 'click' AND value > 10.0) "
        "OR (event_type = 'purchase' AND value < 5.0)",
    ),
    "semi_join": (
        Q.semi_join,
        "SELECT o_orderkey, o_custkey, o_totalprice FROM orders "
        "WHERE o_orderkey IN (SELECT l_orderkey FROM lineitem WHERE l_partkey < 50)",
    ),
    "two_hop_semi_join": (
        Q.two_hop_semi_join,
        "SELECT c_custkey, c_name, c_acctbal FROM customer WHERE c_custkey IN ("
        " SELECT o_custkey FROM orders WHERE o_orderkey IN ("
        "  SELECT l_orderkey FROM lineitem WHERE l_partkey < 25))",
    ),
    "projection": (
        Q.projection,
        "SELECT p_partkey, p_brand, p_size FROM part",
    ),
    "sort_limit_topk": (
        Q.sort_limit_topk,
        "SELECT o_orderkey, o_totalprice, o_orderpriority FROM orders "
        "ORDER BY o_totalprice DESC, o_orderkey LIMIT 20",
    ),
    "minmax_stats": (
        Q.minmax_stats,
        "SELECT l_returnflag, min(l_shipdate) AS min_shipdate, "
        "max(l_shipdate) AS max_shipdate, count(*) AS n "
        "FROM lineitem GROUP BY l_returnflag",
    ),
    "distinct_values": (
        Q.distinct_values,
        "SELECT DISTINCT event_type FROM events",
    ),
    "agg_q1": (
        Q.agg_q1,
        "SELECT l_returnflag, l_linestatus, sum(l_quantity) AS sum_qty, "
        "sum(CAST(round(l_extendedprice * 100) AS BIGINT)) / 100.0 AS sum_base_price, "
        "sum(CAST(round(l_extendedprice * 100) AS BIGINT) * (100 - CAST(round(l_discount * 100) AS BIGINT))) / 10000.0 AS revenue, "
        "count(*) AS n "
        "FROM lineitem WHERE l_shipdate <= TIMESTAMP '1998-09-02' "
        "GROUP BY l_returnflag, l_linestatus",
    ),
    "count_by_type": (
        Q.count_by_type,
        "SELECT event_type, count(*) AS n FROM events GROUP BY event_type",
    ),
    "cursor_page": (
        Q.cursor_page,
        f"SELECT event_id, ts, user_id FROM events WHERE ts >= TIMESTAMP '{Q.TS_LO}' "
        "ORDER BY ts, event_id LIMIT 100",
    ),
    "json_props_stats": (
        Q.json_props_stats,
        "SELECT event_type, count(*) AS n, "
        "min(CAST(json_extract(props, '$.k') AS BIGINT)) AS min_k, "
        "max(CAST(json_extract(props, '$.k') AS BIGINT)) AS max_k "
        "FROM events GROUP BY event_type",
    ),
    "distinct_users_exact": (
        Q.distinct_users_exact,
        "SELECT event_type, count(DISTINCT user_id) AS n_users FROM events GROUP BY event_type",
    ),
    "join_agg_segments": (
        Q.join_agg_segments,
        "SELECT c.c_mktsegment, count(*) AS n_orders, "
        "sum(CAST(round(o.o_totalprice * 100) AS BIGINT)) / 100.0 AS revenue "
        "FROM orders o JOIN customer c ON o.o_custkey = c.c_custkey "
        "GROUP BY c.c_mktsegment",
    ),
    "groupby_topk": (
        Q.groupby_topk,
        "SELECT c_custkey, c_mktsegment, c_acctbal FROM ("
        " SELECT c_custkey, c_mktsegment, c_acctbal, row_number() OVER ("
        "  PARTITION BY c_mktsegment ORDER BY c_acctbal DESC, c_custkey) AS rn FROM customer)"
        " WHERE rn <= 3",
    ),
    "distinct_pairs": (
        Q.distinct_pairs,
        "SELECT DISTINCT lang, source FROM documents",
    ),
    "token_frequency": (
        Q.token_frequency,
        r"SELECT token, count(*) AS n FROM ("
        r" SELECT unnest(regexp_extract_all(text, '\S+')) AS token FROM documents)"
        r" GROUP BY token ORDER BY n DESC, token LIMIT 50",
    ),
    "chunk_documents": (
        chunk_documents,
        # same stride-96 / size-128 character chunking; substring and
        # length are character-based on both sides (corpus is ASCII)
        "SELECT doc_id, CAST(gs.i AS BIGINT) AS chunk_id,"
        " substring(text, CAST(gs.i * 96 + 1 AS INTEGER), 128) AS chunk_text,"
        " CAST(length(substring(text, CAST(gs.i * 96 + 1 AS INTEGER), 128)) AS BIGINT)"
        "  AS n_chunk_chars"
        " FROM documents CROSS JOIN generate_series(0, 15) gs(i)"
        " WHERE gs.i * 96 < length(text)",
    ),
    "dup_span_stats": (
        dup_span_stats,
        # grams via lockstep unnest of (position range, list_transform
        # slices); duplicated = in >= 2 DISTINCT docs; max run via
        # gaps-and-islands (i - row_number partitioned by doc & flag)
        r"""WITH docs AS MATERIALIZED (
  SELECT doc_id, regexp_extract_all(text, '\S+') AS t FROM documents
), l AS (
  SELECT doc_id,
         unnest(range(1, greatest(len(t) - 3, 0) + 1)) AS i,
         unnest(list_transform(range(1, greatest(len(t) - 3, 0) + 1),
                               p -> array_to_string(t[p:p+3], ' '))) AS g
  FROM docs
), dup AS (
  SELECT g FROM (SELECT g, count(DISTINCT doc_id) AS c FROM l GROUP BY g)
  WHERE c >= 2
), flag AS (
  SELECT doc_id, i, CASE WHEN g IN (SELECT g FROM dup) THEN 1 ELSE 0 END AS d
  FROM l
), runs AS (
  SELECT doc_id, d,
         i - row_number() OVER (PARTITION BY doc_id, d ORDER BY i) AS grp
  FROM flag
), runlen AS (
  SELECT doc_id, count(*) AS len FROM runs WHERE d = 1 GROUP BY doc_id, grp
)
SELECT dd.doc_id,
       CAST(greatest(len(dd.t) - 3, 0) AS BIGINT) AS n_grams,
       CAST(coalesce(a.nd, 0) AS BIGINT) AS n_dup_grams,
       CAST(coalesce(m.mr, 0) AS BIGINT) AS max_dup_run
FROM docs dd
LEFT JOIN (SELECT doc_id, sum(d) AS nd FROM flag GROUP BY doc_id) a USING (doc_id)
LEFT JOIN (SELECT doc_id, max(len) AS mr FROM runlen GROUP BY doc_id) m USING (doc_id)""",
    ),
    "heavy_hitters": (
        heavy_hitters,
        # exact integer threshold on both sides: T = (total + 29) // 30
        r"WITH toks AS (SELECT unnest(regexp_extract_all(text, '\S+')) AS token"
        r" FROM documents),"
        r"tot AS (SELECT count(*) AS n FROM toks),"
        r"cnt AS (SELECT token, count(*) AS c FROM toks GROUP BY token) "
        r"SELECT token, CAST(c AS BIGINT) AS n FROM cnt, tot"
        r" WHERE c >= (tot.n + 29) // 30",
    ),
    "dedup_lines": (
        dedup_lines,
        # rid = internal per-row key only (corpus (repo,path,commit) is
        # not unique); the hash compare is order-insensitive, and
        # duplicate rows clean to identical output rows, so row_number's
        # arbitrary assignment cannot change the result multiset.
        # count(DISTINCT rid) = distinct-DOCUMENT line frequency (the
        # engine dedupes lines per doc before counting).
        f"""WITH docs AS MATERIALIZED (
  -- MATERIALIZED is load-bearing: inlined, the two references below
  -- would each run their own row_number() over a parallel scan and
  -- could assign DIFFERENT rids to the same physical row
  SELECT row_number() OVER () AS rid, repo, path, "commit",
         string_split(content, chr(10)) AS ls
  FROM '{_CORPUS_GLOB_5K}'
), meta AS (
  -- scalars only: grouping by the raw line LIST would hash whole
  -- multi-thousand-element lists per row (measured 17x slower)
  SELECT rid, repo, path, "commit", CAST(len(ls) AS BIGINT) AS n_lines
  FROM docs
), l AS (
  -- lockstep multi-unnest zips each line with its 1-based ordinal
  -- (no series cap needed: linear in total line count)
  SELECT rid, unnest(ls) AS line, unnest(range(1, len(ls) + 1)) AS ln
  FROM docs
), freq AS (
  SELECT line FROM (
    SELECT line, count(DISTINCT rid) AS c FROM l GROUP BY line
  ) WHERE c >= 10
), kept AS (
  SELECT rid, ln, line FROM l WHERE line NOT IN (SELECT line FROM freq)
)
SELECT m.repo, m.path, m."commit", m.n_lines,
       CAST(count(k.ln) AS BIGINT) AS n_kept,
       md5(coalesce(string_agg(k.line, chr(10) ORDER BY k.ln), '')) AS clean_md5
FROM meta m LEFT JOIN kept k ON m.rid = k.rid
GROUP BY m.rid, m.repo, m.path, m."commit", m.n_lines""",
    ),
    # windows (stream-shaped, order-insensitive aggregates)
    "tumbling_window": (
        tumbling_window,
        "SELECT user_id, date_trunc('day', ts) AS day, count(*) AS n, "
        "min(value) AS min_value, max(value) AS max_value "
        "FROM events GROUP BY user_id, date_trunc('day', ts)",
    ),
    "session_window": (
        session_window,
        "WITH d AS (SELECT user_id, ts, "
        " CASE WHEN ts - lag(ts) OVER (PARTITION BY user_id ORDER BY ts) > INTERVAL 60 MINUTE "
        " THEN 1 ELSE 0 END AS brk FROM events) "
        "SELECT user_id, CAST(sum(brk) + 1 AS BIGINT) AS n_sessions, count(*) AS n_events "
        "FROM d GROUP BY user_id",
    ),
    "sliding_window": (
        sliding_window,
        # anchored-window peak: COUNT over (ts-6h, ts] per event (strict
        # lower bound = 6h minus 1 microsecond in RANGE mode), MAX per user
        "SELECT user_id, CAST(MAX(cnt) AS BIGINT) AS peak_count FROM ("
        "  SELECT user_id, COUNT(*) OVER ("
        "    PARTITION BY user_id ORDER BY ts"
        "    RANGE BETWEEN INTERVAL '21599999999 microseconds' PRECEDING AND CURRENT ROW) AS cnt"
        "  FROM events"
        ") GROUP BY user_id",
    ),
    "range_join_bands": (
        range_join_bands,
        # same overlapping bands re-derived in SQL; non-equi join
        "WITH bands AS (SELECT CAST(i AS BIGINT) AS band_id, i*5.0 AS lo,"
        " i*5.0+7.5 AS hi FROM generate_series(0, 19) t(i)) "
        "SELECT e.event_id, b.band_id FROM events e JOIN bands b"
        " ON e.value >= b.lo AND e.value < b.hi",
    ),
    "asof_join": (
        asof_join,
        "SELECT p.event_id, p.user_id, c.ts AS last_right_ts FROM "
        "(SELECT * FROM events WHERE event_type = 'purchase') p "
        "ASOF JOIN (SELECT * FROM events WHERE event_type = 'click') c "
        "ON p.user_id = c.user_id AND p.ts >= c.ts",
    ),
    "hll_distinct_users": (hll_distinct_users, _hll_sql()),
    # joins
    "join_one_to_one": (
        join_one_to_one,
        "SELECT d.doc_id, d.lang, d.n_chars, e.label FROM documents d "
        "JOIN embeddings e ON d.doc_id = e.vec_id",
    ),
    "join_bucketed": (
        join_bucketed,
        "SELECT o.o_custkey AS custkey, o.o_orderkey, o.o_totalprice, c.c_mktsegment "
        "FROM orders o JOIN customer c ON o.o_custkey = c.c_custkey",
    ),
    # engine round-trips (identity oracles — the correctness heart)
    "encode_roundtrip_documents": (
        encode_roundtrip_documents,
        "SELECT doc_id, text, lang, source, n_chars FROM documents",
    ),
    "encode_roundtrip_events": (
        encode_roundtrip_events,
        "SELECT event_id, ts, user_id, event_type, value, props FROM events",
    ),
    "encode_roundtrip_lineitem": (
        encode_roundtrip_lineitem,
        "SELECT l_orderkey, l_partkey, l_suppkey, l_linenumber, l_quantity, "
        "l_extendedprice, l_discount, l_tax, l_returnflag, l_linestatus, l_shipdate "
        "FROM lineitem",
    ),
    "encode_roundtrip_embeddings": (
        encode_roundtrip_embeddings,
        "SELECT vec_id, '[' || array_to_string(list_transform(embedding, "
        "x -> printf('%.6f', x)), ',') || ']' AS embedding, label FROM embeddings",
    ),
    "encode_roundtrip_struct": (
        encode_roundtrip_struct,
        "SELECT event_id, event_type, value FROM events",
    ),
    "encode_roundtrip_map": (
        encode_roundtrip_map,
        "SELECT event_id, event_type, value FROM events",
    ),
    "encode_corpus_flagship": (encode_corpus_flagship, None),
    "query_encoded_corpus": (
        query_encoded_corpus,
        f"SELECT repo, path, lang FROM '{_CORPUS_GLOB_20K}' "
        "WHERE lang = 'go' OR (lang = 'python' AND path LIKE 'src/%')",
    ),
    "query_zorder_store": (
        query_zorder_store,
        f"SELECT repo, path, lang FROM '{_CORPUS_GLOB_5K}' "
        "WHERE lang = 'go' AND path LIKE 'src/%'",
    ),
    "query_encoded_documents": (
        query_encoded_documents,
        "SELECT doc_id, lang, source, n_chars FROM documents "
        "WHERE (lang = 'en' AND n_chars >= 400) OR (source = 'src7' AND n_chars < 150)",
    ),
    "query_encoded_contains": (
        query_encoded_contains,
        "SELECT doc_id, lang, source, n_chars FROM documents "
        "WHERE (text LIKE '%merge batch%' AND lang = 'en') "
        "OR (source LIKE '%7%' AND n_chars < 300) "
        "OR (text LIKE '%sort' AND lang <> 'en')",
    ),
    "derive_column_documents": (
        derive_column_documents,
        # length() is character-based like pc.utf8_length; the filter
        # exercises partition+chunk pruning ON the derived column
        "SELECT doc_id, CAST(length(text) AS BIGINT) AS text_len FROM documents "
        "WHERE length(text) >= 300",
    ),
    "query_encoded_join": (
        query_encoded_join,
        "SELECT o_orderkey, o_custkey, o_orderstatus, o_totalprice FROM orders "
        "WHERE o_orderstatus = 'F' AND o_custkey IN "
        "(SELECT c_custkey FROM customer WHERE c_mktsegment = 'BUILDING')",
    ),
    "query_encoded_tail": (
        query_encoded_tail,
        "SELECT doc_id, lang, n_chars FROM documents "
        "WHERE lang = 'en' AND n_chars >= 300",
    ),
    "store_group_count": (
        store_group_count,
        # counts recomputed from the RAW corpus parquet: a hash match
        # proves the encoded-form (dict/rle pushdown) counts are exact
        f"SELECT lang, CAST(count(*) AS BIGINT) AS n FROM '{_CORPUS_GLOB_20K}' "
        "GROUP BY lang",
    ),
    "store_group_minmax": (
        store_group_minmax_documents,
        "SELECT lang, CAST(count(*) AS BIGINT) AS n, "
        "CAST(sum(n_chars) AS BIGINT) AS sum_chars, "
        "CAST(min(n_chars) AS BIGINT) AS min_chars, "
        "CAST(max(n_chars) AS BIGINT) AS max_chars "
        "FROM documents GROUP BY lang",
    ),
    "store_group_bytes": (
        store_group_bytes_corpus,
        # byte volumes recomputed from the RAW parquet (strlen = bytes):
        # a hash match proves the no-decode grouped sums are exact
        f"SELECT lang, CAST(count(*) AS BIGINT) AS n, "
        f"CAST(sum(strlen(content)) AS BIGINT) AS total_bytes "
        f"FROM '{_CORPUS_GLOB_20K}' GROUP BY lang",
    ),
    "store_group_pair_count": (
        store_group_pair_count_corpus,
        f"SELECT lang, repo, CAST(count(*) AS BIGINT) AS n "
        f"FROM '{_CORPUS_GLOB_20K}' GROUP BY lang, repo",
    ),
    "store_filtered_group_count": (
        store_filtered_group_count_corpus,
        f"SELECT repo, CAST(count(*) AS BIGINT) AS n FROM '{_CORPUS_GLOB_20K}' "
        "WHERE path LIKE 'src/%' AND lang IN ('go', 'python', 'ruby') "
        "GROUP BY repo",
    ),
    "store_topk_chars": (
        store_topk_chars,
        "SELECT doc_id, n_chars FROM documents "
        "ORDER BY n_chars DESC, doc_id LIMIT 25",
    ),
    "store_topk_filtered": (
        store_topk_filtered,
        "SELECT doc_id, n_chars FROM documents WHERE lang = 'en' "
        "ORDER BY n_chars DESC, doc_id LIMIT 15",
    ),
    "store_distinct_repo": (
        store_distinct_repo,
        # recomputed from the RAW parquet: a hash match proves the
        # metadata-ladder distinct set is exact
        f"SELECT DISTINCT repo FROM '{_CORPUS_GLOB_20K}'",
    ),
    "compact_corpus": (compact_corpus, _CORPUS_IDENTITY_SQL.format(glob=_CORPUS_GLOB_5K)),
    "append_corpus": (append_corpus, _CORPUS_IDENTITY_SQL.format(glob=_CORPUS_GLOB_5K)),
    "store_stats_corpus": (store_stats_corpus, None),
    # text analysis
    "token_count": (
        token_count,
        f"SELECT doc_id, {_TOKEN_SQL} AS n_tokens FROM documents",
    ),
    "token_count_bpe": (
        token_count_bpe,
        # single source of truth: the oracle runs the exact pattern the
        # stage compiled (RE2 and Python re share its constructs)
        "SELECT doc_id, len(regexp_extract_all(text, '"
        + text._BPE_PATTERN.replace("'", "''")
        + "')) AS n_bpe_tokens FROM documents",
    ),
    "quality_score": (
        quality_score,
        "SELECT doc_id, length(text) AS n_chars_calc, "
        f"{_TOKEN_SQL} AS n_tokens, "
        "len(regexp_extract_all(text, '[A-Za-z]')) / CAST(CASE WHEN length(text)=0 THEN 1 ELSE length(text) END AS DOUBLE) AS alpha_ratio, "
        "len(regexp_extract_all(text, '[0-9]')) / CAST(CASE WHEN length(text)=0 THEN 1 ELSE length(text) END AS DOUBLE) AS digit_ratio "
        "FROM documents",
    ),
    "fingerprint_md5": (
        fingerprint_md5,
        "SELECT doc_id, md5(text) AS md5 FROM documents",
    ),
    "fingerprint_rolling": (fingerprint_rolling, _rolling_fp_sql()),
    # the stopword-profile heuristic, reproduced from scratch in SQL:
    # same token regex, same first-200 slice, duplicate-counting
    # membership scores, ties broken by lang name ascending (Python
    # max over sorted keys), zero matches / zero tokens -> unknown.
    # Shared by lang_id (per-doc prediction) and label_confusion
    # (label-vs-prediction confusion counts).
    "lang_id": (lang_id, _LANG_ID_CTES + " "
                "SELECT d.doc_id, COALESCE(b.lang, 'unknown') AS lang_pred "
                "FROM documents d LEFT JOIN best b ON d.doc_id = b.doc_id"),
    "label_confusion": (
        label_confusion,
        _LANG_ID_CTES + ", "
        "pred AS (SELECT d.lang, COALESCE(b.lang, 'unknown') AS lang_pred"
        " FROM documents d LEFT JOIN best b ON d.doc_id = b.doc_id) "
        "SELECT lang, lang_pred, CAST(count(*) AS BIGINT) AS n "
        "FROM pred GROUP BY lang, lang_pred",
    ),
    # dedup suite
    "stratified_sample": (
        stratified_sample,
        "SELECT doc_id, lang FROM ("
        "  SELECT doc_id, lang, row_number() OVER ("
        "    PARTITION BY lang ORDER BY md5(CAST(doc_id AS VARCHAR))) AS rn"
        "  FROM documents) WHERE rn <= 20",
    ),
    "mix_sample": (
        mix_sample,
        # one source of truth: targets derived from the same weights
        "WITH w(lang, k) AS (VALUES "
        + ", ".join(
            f"('{lang}', {(wt * _MIX_TOTAL) // 100})" for lang, wt in _MIX_WEIGHTS.items()
        )
        + "), r AS (SELECT doc_id, lang, row_number() OVER ("
        "  PARTITION BY lang ORDER BY md5(CAST(doc_id AS VARCHAR))) AS rn"
        " FROM documents) "
        "SELECT doc_id, lang FROM r JOIN w USING (lang) WHERE rn <= k",
    ),
    "clean_text": (
        clean_text,
        "SELECT doc_id, "
        "length(trim(regexp_replace(text, '[ \t\n\r]+', ' ', 'g'), ' ')) AS clean_len, "
        "md5(trim(regexp_replace(text, '[ \t\n\r]+', ' ', 'g'), ' ')) AS clean_md5 "
        "FROM documents",
    ),
    # PII scrub / URL stats: the WITH clause re-derives _inject_pii /
    # _inject_urls' augmented text exactly; patterns come from the same
    # module constants the stage compiled (RE2/Python-re-shared
    # constructs only, the token_count_bpe discipline), so a hash match
    # proves the redaction bytes and counts, not just row counts.
    "pii_scrub": (
        pii_scrub,
        "WITH a AS (SELECT doc_id, coalesce(text, '') || ' contact user' || CAST(doc_id AS VARCHAR)"
        " || '@ex' || CAST(doc_id % 5 AS VARCHAR) || '.org'"
        " || CASE WHEN doc_id % 2 = 0 THEN ' alt.' || CAST(doc_id AS VARCHAR)"
        " || '@mail' || CAST(doc_id % 3 AS VARCHAR) || '.net' ELSE '' END"
        " || ' from 10.' || CAST(doc_id % 200 AS VARCHAR) || '.3.'"
        " || CAST(doc_id % 250 AS VARCHAR) AS text FROM documents) "
        "SELECT doc_id, "
        "CAST(len(regexp_extract_all(text, '" + text._EMAIL_PATTERN + "')) AS BIGINT) AS n_emails, "
        "CAST(len(regexp_extract_all(regexp_replace(text, '" + text._EMAIL_PATTERN
        + "', '<EMAIL>', 'g'), '" + text._IPV4_PATTERN + "')) AS BIGINT) AS n_ips, "
        "md5(regexp_replace(regexp_replace(text, '" + text._EMAIL_PATTERN
        + "', '<EMAIL>', 'g'), '" + text._IPV4_PATTERN + "', '<IP>', 'g')) AS clean_md5 "
        "FROM a",
    ),
    "url_domain_stats": (
        url_domain_stats,
        "WITH a AS (SELECT doc_id, text || ' see https://h' || CAST(doc_id % 7 AS VARCHAR)"
        " || '.example.org/p/' || CAST(doc_id AS VARCHAR)"
        " || CASE WHEN doc_id % 3 = 0 THEN ' http://www.site' || CAST(doc_id % 4 AS VARCHAR)"
        " || '.com/q?x=' || CAST(doc_id AS VARCHAR) ELSE '' END AS text FROM documents), "
        "u AS (SELECT doc_id, unnest(regexp_extract_all(text, '" + text._URL_PATTERN
        + "')) AS url FROM a), "
        "d AS (SELECT doc_id, regexp_extract(url, '" + text._DOMAIN_PATTERN
        + "', 1) AS domain FROM u) "
        "SELECT domain, CAST(count(*) AS BIGINT) AS n, "
        "CAST(count(DISTINCT doc_id) AS BIGINT) AS n_docs FROM d GROUP BY domain",
    ),
    # the composed curation chain: gate -> keep-first dedup -> pack,
    # every stage re-derived in one SQL pipeline (same rules as the
    # quality_filter_stats / dedup_exact / pack_sequences oracles)
    "curation_pipeline": (
        curation_pipeline,
        "WITH g AS (SELECT doc_id, lang, text FROM documents"
        " WHERE length(text) >= 100"
        " AND 2 * len(regexp_extract_all(text, '[A-Za-z]')) >= length(text)), "
        "k AS (SELECT min(doc_id) AS doc_id FROM g GROUP BY text), "
        "d AS (SELECT g.doc_id, g.lang, g.text FROM g JOIN k USING (doc_id)), "
        "t AS (SELECT doc_id, lang, len(regexp_extract_all(text, '\\S+')) AS n FROM d), "
        "c AS (SELECT doc_id, lang,"
        " sum(n) OVER (PARTITION BY lang ORDER BY doc_id) - n AS prior FROM t) "
        "SELECT doc_id, lang, CAST(prior // 512 AS BIGINT) AS seq_id,"
        " CAST(prior % 512 AS BIGINT) AS tok_start FROM c",
    ),
    "normalize_nfc": (
        normalize_nfc,
        "WITH a AS (SELECT doc_id, CASE WHEN doc_id % 2 = 0 THEN"
        " coalesce(text, '') || ' cafe' || chr(769) || ' No' || CAST(doc_id % 3 AS VARCHAR) || chr(8491)"
        " ELSE coalesce(text, '') END AS text FROM documents) "
        "SELECT doc_id, md5(nfc_normalize(text)) AS nfc_md5, "
        "CAST(length(nfc_normalize(text)) AS BIGINT) AS nfc_len, "
        "CAST(nfc_normalize(text) != text AS BIGINT) AS changed FROM a",
    ),
    # paragraph dedup: the WITH chain re-derives the injected text,
    # explodes paragraphs with ordinals, computes each paragraph's
    # global first (doc_id, pos) key with the SAME id*2^20+pos packing
    # the engine uses, and rebuilds every document from its kept
    # occurrences — a hash match proves the exact removal set
    "dedup_paragraphs": (
        dedup_paragraphs,
        "WITH a AS (SELECT doc_id, text || chr(10) || chr(10) || 'LICENSE v'"
        " || CAST(doc_id % 7 AS VARCHAR) || ' terms apply'"
        " || CASE WHEN doc_id % 5 = 0 THEN chr(10) || chr(10) || 'SHARED NOTICE'"
        " ELSE '' END AS text FROM documents), "
        "s AS (SELECT doc_id, str_split(text, chr(10) || chr(10)) AS ps FROM a), "
        "p AS (SELECT doc_id, gs.i - 1 AS pos, ps[gs.i] AS para FROM s"
        " CROSS JOIN generate_series(1, 64) gs(i) WHERE gs.i <= len(ps)), "
        "f AS (SELECT para, min(doc_id * 1048576 + pos) AS k0 FROM p GROUP BY para), "
        "kept AS (SELECT p.doc_id, p.pos, p.para FROM p JOIN f USING (para)"
        " WHERE p.doc_id * 1048576 + p.pos = f.k0), "
        "k AS (SELECT doc_id, CAST(count(*) AS BIGINT) AS n_kept,"
        " string_agg(para, chr(10) || chr(10) ORDER BY pos) AS clean"
        " FROM kept GROUP BY doc_id) "
        "SELECT s.doc_id, CAST(len(s.ps) AS BIGINT) AS n_paras, "
        "COALESCE(k.n_kept, 0) AS n_kept, md5(COALESCE(k.clean, '')) AS clean_md5 "
        "FROM s LEFT JOIN k USING (doc_id)",
    ),
    "quality_filter_stats": (
        quality_filter_stats,
        "SELECT lang, source, CAST(count(*) AS BIGINT) AS n_kept FROM documents "
        "WHERE length(text) >= 100 "
        "AND 2 * len(regexp_extract_all(text, '[A-Za-z]')) >= length(text) "
        "GROUP BY lang, source",
    ),
    "repetition_stats": (
        repetition_stats,
        # duplicate-line + top-bigram concentration, integer-exact:
        # lines split on \n (empty text = one empty line, both sides);
        # bigrams over \S+ tokens via 1-based list indexing
        "WITH toks AS (SELECT doc_id, regexp_extract_all(text, '\\S+') AS t FROM documents), "
        "bg AS (SELECT doc_id, unnest(list_transform(range(1, len(t)), "
        "       i -> t[i] || ' ' || t[i+1])) AS g FROM toks), "
        "bc AS (SELECT doc_id, g, count(*) AS c FROM bg GROUP BY doc_id, g), "
        "top AS (SELECT doc_id, max(c) AS top_bigram_count FROM bc GROUP BY doc_id) "
        "SELECT d.doc_id, "
        " len(str_split(d.text, chr(10))) AS n_lines, "
        " len(list_distinct(str_split(d.text, chr(10)))) AS n_distinct_lines, "
        " greatest(len(regexp_extract_all(d.text, '\\S+')) - 1, 0) AS n_bigrams, "
        " coalesce(t.top_bigram_count, 0) AS top_bigram_count "
        "FROM documents d LEFT JOIN top t USING (doc_id)",
    ),
    "decontaminate": (decontaminate, _DECON_SQL),
    # same oracle: the SBBF pre-filter has no false negatives and the
    # exact semi-join kills its false positives, so the two pipelines
    # are value-identical — hash-matching BOTH proves the bloom path
    # loses nothing
    "decontaminate_bloom": (decontaminate_bloom, _DECON_SQL),
    "dedup_exact": (
        dedup_exact,
        "SELECT min(doc_id) AS doc_id FROM documents GROUP BY text",
    ),
    # indexing / grouped quantiles
    "inverted_index": (
        inverted_index,
        # 1-based token ordinals via list indexing; 8192 caps the series
        # safely above any doc's token count at oracle scale (the same
        # bound the shingle oracles use)
        r"WITH toks AS (SELECT doc_id, regexp_extract_all(text, '\S+') AS t"
        r" FROM documents),"
        r"p AS (SELECT doc_id, t[gs.i] AS tok, gs.i AS i FROM toks"
        r" CROSS JOIN generate_series(1, 8192) gs(i) WHERE gs.i <= len(t)) "
        r"SELECT tok, doc_id, CAST(min(i) AS BIGINT) AS first_pos FROM p"
        r" GROUP BY tok, doc_id",
    ),
    "length_quantiles": (
        length_quantiles,
        "SELECT lang, CAST(count(*) AS BIGINT) AS n,"
        " median(n_chars) AS median_chars,"
        " quantile_cont(n_chars, 0.9) AS p90_chars FROM documents GROUP BY lang",
    ),
    # training-data preparation
    "pack_sequences": (
        pack_sequences,
        # exact window prefix sum: same \S+ token model, 512-token budget
        r"WITH t AS (SELECT doc_id, lang, len(regexp_extract_all(text, '\S+')) AS n"
        r" FROM documents),"
        r"c AS (SELECT doc_id, lang,"
        r" sum(n) OVER (PARTITION BY lang ORDER BY doc_id) - n AS prior FROM t) "
        r"SELECT doc_id, lang, CAST(prior // 512 AS BIGINT) AS seq_id,"
        r" CAST(prior % 512 AS BIGINT) AS tok_start FROM c",
    ),
    "split_assign": (
        split_assign,
        # md5-prefix range split: 'cc'/256 ≈ 80% train, 'e6' ≈ 90% cut
        "SELECT lang,"
        " CASE WHEN substring(md5(CAST(doc_id AS VARCHAR)), 1, 2) < 'cc' THEN 'train'"
        "      WHEN substring(md5(CAST(doc_id AS VARCHAR)), 1, 2) < 'e6' THEN 'val'"
        "      ELSE 'test' END AS split,"
        " CAST(count(*) AS BIGINT) AS n_docs, CAST(sum(n_chars) AS BIGINT) AS sum_chars "
        "FROM documents GROUP BY 1, 2",
    ),
    "lm_commonness": (
        lm_commonness,
        # the unigram LM re-trained from scratch in SQL; commonness is
        # the exact rational freq_sum / n_tokens on both engines
        r"WITH toks AS (SELECT doc_id, unnest(regexp_extract_all(text, '\S+')) AS tok"
        r" FROM documents),"
        r"freq AS (SELECT tok, count(*) AS c FROM toks GROUP BY tok),"
        r"per AS (SELECT t.doc_id, CAST(sum(f.c) AS BIGINT) AS fs,"
        r" CAST(count(*) AS BIGINT) AS n"
        r" FROM toks t JOIN freq f USING (tok) GROUP BY t.doc_id) "
        r"SELECT d.doc_id, COALESCE(p.n, 0) AS n_tokens, COALESCE(p.fs, 0) AS freq_sum,"
        r" CAST(COALESCE(p.fs, 0) AS DOUBLE) /"
        r" CASE WHEN COALESCE(p.n, 0) = 0 THEN 1 ELSE p.n END AS commonness "
        r"FROM documents d LEFT JOIN per p ON d.doc_id = p.doc_id",
    ),
    "lm_commonness_topk": (
        lm_commonness_topk,
        # same model re-trained in SQL, capped to the top-12 tokens with
        # the identical deterministic tie-break (count DESC, token ASC);
        # n_tokens still counts ALL tokens — only freq_sum is capped
        r"WITH toks AS (SELECT doc_id, unnest(regexp_extract_all(text, '\S+')) AS tok"
        r" FROM documents),"
        r"freq AS (SELECT tok, count(*) AS c FROM toks GROUP BY tok),"
        r"kept AS (SELECT tok, c FROM freq ORDER BY c DESC, tok ASC LIMIT 12),"
        r"nt AS (SELECT doc_id, CAST(count(*) AS BIGINT) AS n FROM toks GROUP BY doc_id),"
        r"per AS (SELECT t.doc_id, CAST(sum(f.c) AS BIGINT) AS fs"
        r" FROM toks t JOIN kept f USING (tok) GROUP BY t.doc_id) "
        r"SELECT d.doc_id, COALESCE(nt.n, 0) AS n_tokens, COALESCE(per.fs, 0) AS freq_sum,"
        r" CAST(COALESCE(per.fs, 0) AS DOUBLE) /"
        r" CASE WHEN COALESCE(nt.n, 0) = 0 THEN 1 ELSE nt.n END AS commonness "
        r"FROM documents d LEFT JOIN nt ON d.doc_id = nt.doc_id"
        r" LEFT JOIN per ON d.doc_id = per.doc_id",
    ),
    "cluster_kmeans": (
        cluster_kmeans,
        # full Lloyd re-derivation in SQL: quantize (floor(x*1000+.5)+1024),
        # init = 8 smallest vec_ids, integer argmin assignment (ties ->
        # smallest j), integer-rounded centroid update ((2Σ+c)//(2c)),
        # second assignment — bit-exact vs the numpy path
        "WITH e AS (SELECT vec_id, list_transform(embedding,"
        " x -> CAST(floor(CAST(x AS DOUBLE)*1000 + 0.5) AS BIGINT) + 1024) AS v"
        " FROM embeddings),"
        "init AS (SELECT row_number() OVER (ORDER BY vec_id) - 1 AS j, v"
        " FROM (SELECT vec_id, v FROM e ORDER BY vec_id LIMIT 8) s),"
        "a1 AS (SELECT vec_id, j FROM ("
        " SELECT e.vec_id, c.j, row_number() OVER (PARTITION BY e.vec_id ORDER BY"
        "  list_sum(list_transform(range(1, 65), i -> (e.v[i]-c.v[i])*(e.v[i]-c.v[i]))), c.j) AS rn"
        " FROM e CROSS JOIN init c) WHERE rn = 1),"
        "upd AS (SELECT a.j, gs.i,"
        " CAST((2*sum(e.v[gs.i]) + count(*)) // (2*count(*)) AS BIGINT) AS cv"
        " FROM a1 a JOIN e ON a.vec_id = e.vec_id CROSS JOIN generate_series(1, 64) gs(i)"
        " GROUP BY a.j, gs.i),"
        "cent1 AS (SELECT c0.j, COALESCE(u.v, c0.v) AS v FROM init c0 LEFT JOIN"
        " (SELECT j, list(cv ORDER BY i) AS v FROM upd GROUP BY j) u USING (j)),"
        "a2 AS (SELECT vec_id, j FROM ("
        " SELECT e.vec_id, c.j, row_number() OVER (PARTITION BY e.vec_id ORDER BY"
        "  list_sum(list_transform(range(1, 65), i -> (e.v[i]-c.v[i])*(e.v[i]-c.v[i]))), c.j) AS rn"
        " FROM e CROSS JOIN cent1 c) WHERE rn = 1) "
        "SELECT vec_id, CAST(j AS BIGINT) AS cluster FROM a2",
    ),
    "dedup_minhash": (
        dedup_minhash,
        # EXACT oracle: LSH banding at 16 bands × 8 rows has recall 1.0
        # on this corpus's >=0.8 pairs (verified: identical sets), and
        # the engine verifies candidates exactly, so the output equals
        # the full char-5-shingle Jaccard pair set DuckDB derives from
        # scratch.
        "WITH sh AS ("
        " SELECT DISTINCT doc_id, substring(text, CAST(gs.i AS INTEGER), 5) AS g"
        " FROM documents CROSS JOIN generate_series(1, 8192) gs(i)"
        " WHERE gs.i <= length(text) - 4),"
        "cnt AS (SELECT doc_id, count(*) AS n FROM sh GROUP BY doc_id),"
        "inter AS (SELECT a.doc_id AS doc_a, b.doc_id AS doc_b, count(*) AS i"
        " FROM sh a JOIN sh b ON a.g = b.g AND a.doc_id < b.doc_id GROUP BY 1, 2) "
        "SELECT doc_a, doc_b, CAST(i AS DOUBLE) / (ca.n + cb.n - i) AS jaccard "
        "FROM inter JOIN cnt ca ON ca.doc_id = doc_a JOIN cnt cb ON cb.doc_id = doc_b "
        "WHERE CAST(i AS DOUBLE) / (ca.n + cb.n - i) >= 0.8",
    ),
    "dedup_minhash_keep": (
        dedup_minhash_keep,
        # the WHOLE near-dedup deliverable verified from scratch in SQL:
        # exact shingle-Jaccard pairs -> transitive closure (recursive
        # CTE min-label) -> keep min-id per cluster + all unpaired docs
        "WITH RECURSIVE sh AS ("
        " SELECT DISTINCT doc_id, substring(text, CAST(gs.i AS INTEGER), 5) AS g"
        " FROM documents CROSS JOIN generate_series(1, 8192) gs(i)"
        " WHERE gs.i <= length(text) - 4),"
        "cnt AS (SELECT doc_id, count(*) AS n FROM sh GROUP BY doc_id),"
        "inter AS (SELECT a.doc_id AS doc_a, b.doc_id AS doc_b, count(*) AS i"
        " FROM sh a JOIN sh b ON a.g = b.g AND a.doc_id < b.doc_id GROUP BY 1, 2),"
        "pairs AS (SELECT doc_a, doc_b FROM inter"
        " JOIN cnt ca ON ca.doc_id = doc_a JOIN cnt cb ON cb.doc_id = doc_b"
        " WHERE CAST(i AS DOUBLE) / (ca.n + cb.n - i) >= 0.8),"
        "edges AS (SELECT doc_a AS a, doc_b AS b FROM pairs"
        " UNION SELECT doc_b, doc_a FROM pairs),"
        "reach(node, r) AS (SELECT a, b FROM edges"
        " UNION SELECT re.node, e.b FROM reach re JOIN edges e ON re.r = e.a),"
        "minlab AS (SELECT node, LEAST(node, min(r)) AS label FROM reach GROUP BY node) "
        "SELECT doc_id FROM documents"
        " WHERE doc_id NOT IN (SELECT node FROM minlab WHERE label <> node)",
    ),
    "dedup_simhash": (dedup_simhash, _simhash_pairs_sql()),
    "dedup_ngram": (
        dedup_ngram,
        # EXACT oracle: the lang + shingle-count-band blocking is
        # provably complete (docstring), buckets are uncapped at this
        # scale, so the output is the full same-lang Jaccard pair set.
        "WITH sh AS ("
        " SELECT DISTINCT doc_id, lang, substring(text, CAST(gs.i AS INTEGER), 5) AS g"
        " FROM documents CROSS JOIN generate_series(1, 8192) gs(i)"
        " WHERE gs.i <= length(text) - 4),"
        "cnt AS (SELECT doc_id, count(*) AS n FROM sh GROUP BY doc_id),"
        "inter AS (SELECT a.doc_id AS doc_a, b.doc_id AS doc_b, count(*) AS i"
        " FROM sh a JOIN sh b ON a.g = b.g AND a.lang = b.lang AND a.doc_id < b.doc_id"
        " GROUP BY 1, 2) "
        "SELECT doc_a, doc_b, CAST(i AS DOUBLE) / (ca.n + cb.n - i) AS jaccard "
        "FROM inter JOIN cnt ca ON ca.doc_id = doc_a JOIN cnt cb ON cb.doc_id = doc_b "
        "WHERE CAST(i AS DOUBLE) / (ca.n + cb.n - i) >= 0.5",
    ),
    "dedup_embedding": (
        dedup_embedding,
        # GROUND-TRUTH oracle: the exact pair set at cosine >= 0.95 over
        # the augmented table — every original all-pair (none qualify at
        # this sf: max non-planted cosine ~0.51) plus the planted
        # copy→parent pairs, whose ids are construction-derivable (copy
        # i of the 3 smallest vec_ids gets id max+1+i) and whose cosine
        # is ~0.999999 by the 1e-3 noise scale.  The engine hash-matching
        # this is a perfect-recall AND perfect-precision check on the
        # LSH pipeline (false positives must be killed by exact verify,
        # misses would drop a row).
        "WITH top3 AS ("
        "  SELECT vec_id, row_number() OVER (ORDER BY vec_id) - 1 AS i"
        "  FROM (SELECT vec_id FROM embeddings ORDER BY vec_id LIMIT 3)"
        "), mx AS (SELECT max(vec_id) AS m FROM embeddings), "
        "orig AS ("
        "  SELECT a.vec_id AS vec_a, b.vec_id AS vec_b"
        "  FROM embeddings a JOIN embeddings b ON a.vec_id < b.vec_id"
        "  WHERE list_cosine_similarity(a.embedding, b.embedding) >= 0.95"
        ") "
        "SELECT vec_a, vec_b FROM orig "
        "UNION ALL SELECT t.vec_id AS vec_a, mx.m + 1 + t.i AS vec_b FROM top3 t, mx "
        "ORDER BY vec_a, vec_b",
    ),
    "dedup_embedding_exact": (
        dedup_embedding_exact,
        "SELECT a.vec_id AS vec_a, b.vec_id AS vec_b FROM embeddings a "
        "JOIN embeddings b ON a.vec_id < b.vec_id "
        "WHERE list_cosine_similarity(CAST(a.embedding AS DOUBLE[]), "
        "CAST(b.embedding AS DOUBLE[])) >= 0.4",
    ),
    # similarity search
    "ann_bruteforce": (
        ann_bruteforce,
        "WITH q AS (SELECT vec_id AS query_id, embedding FROM embeddings WHERE vec_id < 5), "
        "sims AS (SELECT q.query_id, e.vec_id, "
        " list_cosine_similarity(q.embedding, e.embedding) AS c FROM q CROSS JOIN embeddings e) "
        "SELECT query_id, vec_id FROM ("
        " SELECT query_id, vec_id, row_number() OVER ("
        "  PARTITION BY query_id ORDER BY c DESC, vec_id) rn FROM sims) WHERE rn <= 10",
    ),
    "ann_ivf": (ann_ivf, None),
    "ann_ivf_full": (
        ann_ivf_full,
        "WITH q AS (SELECT vec_id AS query_id, embedding FROM embeddings WHERE vec_id < 5), "
        "sims AS (SELECT q.query_id, e.vec_id, "
        " list_cosine_similarity(q.embedding, e.embedding) AS c FROM q CROSS JOIN embeddings e) "
        "SELECT query_id, vec_id FROM ("
        " SELECT query_id, vec_id, row_number() OVER ("
        "  PARTITION BY query_id ORDER BY c DESC, vec_id) rn FROM sims) WHERE rn <= 10",
    ),
    # multimodal plumbing (decode stubbed — no image/audio libs here)
    "multimodal_image_meta": (
        multimodal_image_meta,
        "SELECT doc_id AS media_id, "
        "CAST(16 + doc_id % 48 AS BIGINT) AS width, "
        "CAST(16 + (doc_id // 3) % 48 AS BIGINT) AS height, "
        "'L' AS mode, "
        "CAST((16 + doc_id % 48) * (16 + (doc_id // 3) % 48) AS BIGINT) AS n_pixels "
        "FROM documents WHERE doc_id % 3 = 0",
    ),
    "multimodal_audio_meta": (
        multimodal_audio_meta,
        "SELECT doc_id AS media_id, "
        "CAST(800 + (doc_id % 32) * 100 AS DOUBLE) / 16000.0 AS duration_s "
        "FROM documents WHERE doc_id % 3 = 1",
    ),
    "multimodal_frames": (
        multimodal_frames,
        "SELECT d.doc_id AS media_id, gs.i AS frame, "
        "CAST(gs.i * GREATEST(1, strlen(d.text) // 4) AS BIGINT) AS byte_offset "
        "FROM documents d, generate_series(0, 3) gs(i) WHERE d.doc_id % 3 = 2",
    ),
    "multimodal_audio": (
        multimodal_audio,
        # closed form of the synthesized sine: n = 800+(id%32)*100
        # samples of trunc(sin(2*pi*f*k/16000)*12000), f = 220+id%440 —
        # bit-identical duration and RMS derived without touching WAV
        "WITH audio AS ("
        " SELECT doc_id AS media_id, 800 + (doc_id % 32) * 100 AS n,"
        " 220.0 + (doc_id % 440) AS freq FROM documents WHERE doc_id % 3 = 1),"
        "samples AS (SELECT media_id, n,"
        " trunc(sin(2 * pi() * freq * CAST(gs.k AS DOUBLE) / 16000.0) * 12000.0) AS s"
        " FROM audio CROSS JOIN generate_series(0, 3999) gs(k) WHERE gs.k < n) "
        "SELECT media_id, CAST(any_value(n) AS DOUBLE) / 16000.0 AS duration_s,"
        " sqrt(avg(s * s)) AS rms_energy "
        "FROM samples GROUP BY media_id",
    ),
}
