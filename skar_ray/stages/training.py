"""Training-data preparation stages: sequence packing, split
assignment, unigram-LM scoring, and k-means clustering.

These are the corpus-side operators an LLM training pipeline runs after
cleaning/dedup (the reference's analog surface is its write-path
compaction + stats build, /root/reference/skar/src/skar_runner.rs:285-331 —
deterministic, resumable batch jobs over a columnar corpus).  All four
are exactly reproducible by SQL oracles (pipelines/registry.py): every
arithmetic step is integer-exact or an exact rational, so the value
hashes match DuckDB bit-for-bit.

Scale notes (100 TB):
- ``pack_sequences`` is a distributed two-pass prefix sum: per-shard
  token partials (metadata-sized) -> driver exclusive offsets ->
  shard-local cumsum through the shared hash exchange.  No global sort;
  the only all-to-all moves 4 ints/doc.
- ``split_assign`` pre-aggregates per batch; only (lang, split) partial
  rows shuffle.
- ``unigram_commonness`` broadcasts the vocabulary (model-sized by
  definition — it IS the unigram LM) and probes it vectorised per
  batch; at 100 TB the vocab would be capped to top-K via the same
  grouped top-k machinery as groupby_topk.
- ``kmeans_clusters`` broadcasts k×d centroids and reduces k×d integer
  partial sums per batch — the classic mergeable-sketch shape (same as
  state/hll.py); only k-sized rows leave the map side.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pandas as pd

import ray
import ray.data

from .groups import bucketed_group_apply, cached_get
from .text import _TOKEN_RE

# ------------------------------------------------------------ packing


def pack_sequences(
    ds: "ray.data.Dataset",
    budget: int = 512,
    shard_size: int = 4096,
) -> pd.DataFrame:
    """Concat-and-chop sequence packing: per language, documents in
    doc_id order are laid head-to-tail on a token tape and the tape is
    chopped into ``budget``-token training sequences.  Each doc gets
    ``(seq_id, tok_start)`` — which sequence its first token lands in
    and at what position (the standard pre-tokenized sample-packing
    layout).

    Distributed exact prefix sum, two passes:
    1. per-(lang, shard) token-count partials (shard = doc_id //
       shard_size) — a metadata-sized table collected once, turned into
       exclusive per-shard offsets on the driver (same role as the
       partition plan in pipelines/encode_job.py);
    2. shard-local cumsum via the shared hash exchange — each (lang,
       shard) fine group is sorted by doc_id and cumsum'd locally, plus
       its broadcast offset.  Group size is bounded by shard_size, so
       no task ever sees more than a shard regardless of corpus size.
    """
    pat = _TOKEN_RE

    def add_cols(batch: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame(
            {
                "doc_id": batch["doc_id"].astype("int64"),
                "lang": batch["lang"],
                "shard": (batch["doc_id"] // shard_size).astype("int64"),
                "n_tok": batch["text"].str.count(pat).astype("int64"),
            }
        )

    # text is projected away before the exchange: only 4 ints/doc move
    slim = ds.map_batches(add_cols, batch_format="pandas").materialize()

    # per-(lang, shard) partials as raw tasks over the materialized
    # blocks — one task round instead of a full Dataset op (the fused
    # fixed-overhead trick the dedup pipelines use); each result is a
    # shards-per-block-sized frame, driver-merged like the partition
    # plan
    @ray.remote
    def _shard_partial(tbl) -> pd.DataFrame:
        b = tbl.to_pandas()
        g = b.groupby(["lang", "shard"], as_index=False)["n_tok"].sum()
        return g.rename(columns={"n_tok": "tok_sum"})

    refs = slim.to_arrow_refs()
    parts_list = ray.get([_shard_partial.remote(r) for r in refs])
    parts = (
        pd.concat(parts_list, ignore_index=True)
        if parts_list
        else pd.DataFrame({"lang": [], "shard": [], "tok_sum": []})
    )
    sums = parts.groupby(["lang", "shard"], as_index=False)["tok_sum"].sum()
    sums = sums.sort_values(["lang", "shard"])
    sums["offset"] = sums.groupby("lang")["tok_sum"].cumsum() - sums["tok_sum"]
    offsets = {
        (l, int(s)): int(o)
        for l, s, o in zip(sums["lang"], sums["shard"], sums["offset"])
    }
    off_ref = ray.put(offsets)

    def pack_group(g: pd.DataFrame) -> pd.DataFrame:
        if len(g) == 0:
            return pd.DataFrame(
                {
                    "doc_id": pd.Series([], dtype="int64"),
                    "lang": pd.Series([], dtype="object"),
                    "seq_id": pd.Series([], dtype="int64"),
                    "tok_start": pd.Series([], dtype="int64"),
                }
            )
        off = cached_get(off_ref)[(g["lang"].iloc[0], int(g["shard"].iloc[0]))]
        g = g.sort_values("doc_id")
        n = g["n_tok"].to_numpy()
        prior = np.cumsum(n) - n + off
        return pd.DataFrame(
            {
                "doc_id": g["doc_id"].to_numpy(),
                "lang": g["lang"].to_numpy(),
                "seq_id": prior // budget,
                "tok_start": prior % budget,
            }
        )

    out = bucketed_group_apply(slim, ["lang", "shard"], pack_group).to_pandas()
    return out.sort_values("doc_id").reset_index(drop=True).astype(
        {"doc_id": "int64", "seq_id": "int64", "tok_start": "int64"}
    )


# ------------------------------------------------------------ splits


def _split_of(doc_ids: pd.Series) -> pd.Series:
    """Deterministic hash split via md5 prefix ranges: the first hex
    byte of md5(doc_id) is uniform in [00, ff]; 'cc' = 204/256 ≈ 80%
    train, 'e6' = 230/256 ≈ 90% cut for val — seedless, engine-neutral
    (DuckDB reproduces it with the same string comparison)."""
    h2 = doc_ids.map(lambda i: hashlib.md5(str(int(i)).encode()).hexdigest()[:2])
    return pd.Series(
        np.where(h2 < "cc", "train", np.where(h2 < "e6", "val", "test")),
        index=doc_ids.index,
    )


def split_assign(ds: "ray.data.Dataset") -> pd.DataFrame:
    """Train/val/test split manifest: per (lang, split) document count
    and character volume.  Per-batch partial aggregation first, so only
    ≤ 3×n_langs rows per batch reach the groupby."""

    def partial(batch: pd.DataFrame) -> pd.DataFrame:
        b = pd.DataFrame(
            {
                "lang": batch["lang"],
                "split": _split_of(batch["doc_id"]),
                "n_docs": 1,
                "sum_chars": batch["n_chars"].astype("int64"),
            }
        )
        return b.groupby(["lang", "split"], as_index=False).sum()

    def merge(g: pd.DataFrame) -> pd.DataFrame:
        if len(g) == 0:
            return pd.DataFrame(
                {
                    "lang": pd.Series([], dtype="object"),
                    "split": pd.Series([], dtype="object"),
                    "n_docs": pd.Series([], dtype="int64"),
                    "sum_chars": pd.Series([], dtype="int64"),
                }
            )
        return pd.DataFrame(
            {
                "lang": [g["lang"].iloc[0]],
                "split": [g["split"].iloc[0]],
                "n_docs": [int(g["n_docs"].sum())],
                "sum_chars": [int(g["sum_chars"].sum())],
            }
        )

    out = (
        ds.map_batches(partial, batch_format="pandas")
        .groupby(["lang", "split"])
        .map_groups(merge, batch_format="pandas")
        .to_pandas()
    )
    return (
        out.sort_values(["lang", "split"])
        .reset_index(drop=True)
        .astype({"n_docs": "int64", "sum_chars": "int64"})
    )


# ------------------------------------------------------ unigram LM


def unigram_commonness(ds: "ray.data.Dataset", top_k: int | None = None) -> pd.DataFrame:
    """Unigram language-model scoring: train token frequencies over the
    corpus, then score each document by the summed corpus frequency of
    its tokens (integer-exact; ``commonness`` = freq_sum / n_tokens is
    the exact rational both engines compute identically).  Low scores
    flag gibberish/rare-token documents — the KenLM-perplexity-filter
    analog with an exactly reproducible model.

    The trained vocab is the broadcast model (decontaminate's
    broadcast-set shape, /root/reference/skar/src/query/execution/
    mod.rs:183-185); probing is a vectorised explode + dict map.

    ``top_k`` caps the model to the K most frequent tokens (ties broken
    by token text ascending — deterministic on both engines); tokens
    outside the kept vocab score 0.  This is the 100 TB operating mode:
    a web-scale unigram vocab is tens of GB, but the top-K model both
    bounds the broadcast AND bounds driver memory — the cap is applied
    as a per-block partial top-K on the distributed vocab (valid
    because the bucketed exchange emits each token exactly once), so
    the driver sees ≤ top_k × n_blocks rows, never the full vocab."""
    pat = _TOKEN_RE

    def vocab_partial(batch: pd.DataFrame) -> pd.DataFrame:
        vc = batch["text"].str.findall(pat).explode().dropna().value_counts()
        return pd.DataFrame({"tok": vc.index, "c": vc.to_numpy().astype("int64")})

    def sum_group(g: pd.DataFrame) -> pd.DataFrame:
        if len(g) == 0:
            return pd.DataFrame(
                {"tok": pd.Series([], dtype="object"), "c": pd.Series([], dtype="int64")}
            )
        return pd.DataFrame({"tok": [g["tok"].iloc[0]], "c": [int(g["c"].sum())]})

    # per-batch partials -> DISTRIBUTED per-token sum (the shared hash
    # exchange) -> driver sees only the final vocab-sized table, which
    # is the broadcast model by definition (cap to top-K here at real
    # corpus scale)
    partials = ds.map_batches(vocab_partial, batch_format="pandas")
    vocab_ds = bucketed_group_apply(partials, ["tok"], sum_group)
    if top_k is None:
        vocab = vocab_ds.to_pandas()
    else:
        def block_topk(b: pd.DataFrame) -> pd.DataFrame:
            return b.sort_values(["c", "tok"], ascending=[False, True]).head(top_k)

        vocab = vocab_ds.map_batches(block_topk, batch_format="pandas").to_pandas()
        vocab = vocab.sort_values(["c", "tok"], ascending=[False, True]).head(top_k)
    freq = dict(zip(vocab["tok"], vocab["c"].astype(int)))
    ref = ray.put(freq)

    def score(batch: pd.DataFrame) -> pd.DataFrame:
        freq_ = cached_get(ref)
        toks = batch["text"].str.findall(pat)
        n_tokens = toks.str.len().astype("int64")
        ex = toks.explode().dropna()
        fs = pd.Series(0, index=batch.index, dtype="int64")
        if len(ex):
            # total scorer: tokens outside the (possibly capped)
            # vocab contribute 0 instead of raising.  dict.get keeps
            # the counts in python ints end-to-end — ex.map(dict)
            # would surface misses as NaN and force the Series
            # through float64, losing exactness past 2^53
            mapped = ex.map(lambda t: freq_.get(t, 0)).astype("int64")
            # reindex keeps the sum in int64 end-to-end (Series.add
            # with fill_value would round-trip through float64 and
            # lose exactness past 2^53)
            fs = (
                mapped.groupby(level=0)
                .sum()
                .reindex(batch.index, fill_value=0)
                .astype("int64")
            )
        denom = n_tokens.replace(0, 1)
        return pd.DataFrame(
            {
                "doc_id": batch["doc_id"].astype("int64"),
                "n_tokens": n_tokens,
                "freq_sum": fs,
                "commonness": fs.to_numpy() / denom.to_numpy().astype("float64"),
            }
        )

    out = ds.map_batches(score, batch_format="pandas").to_pandas()
    return out.sort_values("doc_id").reset_index(drop=True)


# ------------------------------------------------------------ k-means


def _quantize(vecs: np.ndarray, scale: int, offset: int) -> np.ndarray:
    """floor(x*scale + 0.5) + offset, in float64 — identical on both
    engines (DuckDB: floor(CAST(x AS DOUBLE)*scale + 0.5) + offset);
    the offset keeps every coordinate positive so integer floor
    division below has one semantics everywhere."""
    return (
        np.floor(vecs.astype(np.float64) * scale + 0.5).astype(np.int64) + offset
    )


def kmeans_clusters(
    ds: "ray.data.Dataset",
    k: int = 8,
    iters: int = 2,
    scale: int = 1000,
    offset: int = 1024,
) -> pd.DataFrame:
    """Lloyd k-means over integer-quantized embeddings, bit-exactly
    reproducible: coordinates are quantized to ints, centroids are
    integer-rounded means ((2·Σ + c) // (2·c), all values positive),
    distances are exact int64 squared norms, and ties break to the
    smallest cluster id (argmin first occurrence == SQL row_number).
    Init = the k smallest vec_ids' vectors; ``iters`` assignment
    rounds with centroid updates between them.

    Distributed shape: centroids ride a ``ray.put`` broadcast; each
    batch emits k partial rows (cluster, count, Σ-vector bytes) — the
    mergeable-sketch pattern — so the reduce is k-sized no matter the
    corpus.  The final pass emits (vec_id, cluster) only."""
    # the dataset is consumed iters+1 times (init, each update, final
    # assignment) — materialize once so lazy reads don't re-execute
    ds = ds.materialize()

    def batch_mat(batch: pd.DataFrame) -> np.ndarray:
        return _quantize(np.stack(batch["embedding"].to_numpy()), scale, offset)

    def init_partial(batch: pd.DataFrame) -> pd.DataFrame:
        return batch.nsmallest(k, "vec_id")[["vec_id", "embedding"]]

    init_df = (
        ds.map_batches(init_partial, batch_format="pandas")
        .to_pandas()
        .nsmallest(k, "vec_id")
        .sort_values("vec_id")
    )
    C = _quantize(np.stack(init_df["embedding"].to_numpy()), scale, offset)

    for _ in range(iters - 1):
        cref = ray.put(C)

        def partial(batch: pd.DataFrame) -> pd.DataFrame:
            Q = batch_mat(batch)
            C_ = cached_get(cref)
            d2 = ((Q[:, None, :] - C_[None, :, :]) ** 2).sum(axis=2)
            a = d2.argmin(axis=1)
            js, cnts, sums = [], [], []
            for j in range(len(C_)):
                m = a == j
                if m.any():
                    js.append(j)
                    cnts.append(int(m.sum()))
                    sums.append(Q[m].sum(axis=0).tobytes())
            return pd.DataFrame({"j": js, "cnt": cnts, "s": sums})

        parts = ds.map_batches(partial, batch_format="pandas").to_pandas()
        newC = C.copy()
        for j in range(k):
            sub = parts[parts["j"] == j]
            if len(sub):  # empty clusters keep their previous centroid
                cnt = int(sub["cnt"].sum())
                S = np.sum(
                    [np.frombuffer(b, dtype=np.int64) for b in sub["s"]], axis=0
                )
                newC[j] = (2 * S + cnt) // (2 * cnt)
        C = newC

    cref = ray.put(C)

    def assign(batch: pd.DataFrame) -> pd.DataFrame:
        Q = batch_mat(batch)
        C_ = cached_get(cref)
        d2 = ((Q[:, None, :] - C_[None, :, :]) ** 2).sum(axis=2)
        return pd.DataFrame(
            {
                "vec_id": batch["vec_id"].astype("int64"),
                "cluster": d2.argmin(axis=1).astype("int64"),
            }
        )

    out = ds.map_batches(assign, batch_format="pandas").to_pandas()
    return out.sort_values("vec_id").reset_index(drop=True)
