"""Deduplication stages: exact, MinHash+LSH, SimHash, n-gram Jaccard,
embedding-cosine near-dup.

All follow the same scalable shape:
  1. vectorised per-batch signature/fingerprint (``map_batches``);
  2. explode to (bucket_key, doc_id) rows;
  3. ``groupby(bucket)`` — a shuffle over tiny signature rows, never
     the documents themselves (pre-aggregation pattern); degenerate
     buckets (mass-identical docs) are capped with a
     connectivity-preserving window instead of O(n²) all-pairs;
  4. candidate pairs verified EXACTLY via two distributed hash joins
     (``Dataset.join``) that attach each endpoint's feature (shingle
     set / unit vector, serialized as binary) — only docs appearing in
     a candidate pair are featurized, and nothing corpus-sized ever
     materializes on the driver.
"""

from __future__ import annotations

import hashlib
import re

import numpy as np
import pandas as pd
import pyarrow as pa

import ray
import ray.data
from .groups import cached_get

_MERSENNE = (1 << 61) - 1


def _hash_shingles(text: str, k: int = 5) -> np.ndarray:
    """Distinct k-char-shingle hashes (uint64) of a document."""
    b = text.encode()
    if len(b) < k:
        return np.array([hash64_bytes(b)], dtype=np.uint64) if b else np.array([], dtype=np.uint64)
    a = np.frombuffer(b, dtype=np.uint8)
    win = np.lib.stride_tricks.sliding_window_view(a, k)
    # polynomial hash per window, vectorised
    powers = np.uint64(1000003) ** np.arange(k - 1, -1, -1, dtype=np.uint64)
    h = (win.astype(np.uint64) * powers).sum(axis=1, dtype=np.uint64)
    return np.unique(h)


def hash64_bytes(b: bytes) -> np.uint64:
    return np.uint64(int.from_bytes(hashlib.blake2b(b, digest_size=8).digest(), "big"))


def jaccard(a: np.ndarray, b: np.ndarray) -> float:
    if len(a) == 0 and len(b) == 0:
        return 1.0
    inter = len(np.intersect1d(a, b, assume_unique=True))
    return inter / (len(a) + len(b) - inter)


def _gather_segments(offs: np.ndarray, flat: np.ndarray, idx: np.ndarray):
    """Vectorized gather of variable-length segments ``flat[offs[i]:
    offs[i+1]]`` for each i in ``idx`` → (values, lens), no Python loop."""
    starts = offs[idx]
    lens = (offs[idx + 1] - starts).astype(np.int64)
    total = int(lens.sum())
    if total == 0:
        return np.empty(0, dtype=flat.dtype), lens
    cum = np.cumsum(lens) - lens
    pos = np.arange(total, dtype=np.int64) - np.repeat(cum, lens) + np.repeat(starts, lens)
    return flat[pos], lens


def _pairwise_jaccard(flat_a: np.ndarray, lens_a: np.ndarray,
                      flat_b: np.ndarray, lens_b: np.ndarray) -> np.ndarray:
    """Jaccard for n pairs of uint64 SETS at once (each side's per-pair
    values already distinct — _hash_shingles returns np.unique output).
    One lexsort over the tagged concatenation of both sides; adjacent
    equal (pair, value) rows are exactly the intersections.  Equal to
    calling ``jaccard`` per pair (pinned by test), with zero per-pair
    Python."""
    n = len(lens_a)
    if n == 0:
        return np.empty(0, dtype=np.float64)
    pair = np.concatenate([np.repeat(np.arange(n), lens_a), np.repeat(np.arange(n), lens_b)])
    vals = np.concatenate([flat_a, flat_b])
    order = np.lexsort((vals, pair))
    p, v = pair[order], vals[order]
    dup = (p[1:] == p[:-1]) & (v[1:] == v[:-1])
    inter = np.bincount(p[1:][dup], minlength=n)
    union = lens_a + lens_b - inter
    return np.where(union == 0, 1.0, inter / np.maximum(union, 1))


def _flat_u64_segments(bufs) -> tuple[np.ndarray, np.ndarray]:
    """bytes-per-row → (offsets[int64, n+1] in u64 units, flat uint64)."""
    lens = np.fromiter((len(x) // 8 for x in bufs), dtype=np.int64, count=len(bufs))
    offs = np.zeros(len(lens) + 1, dtype=np.int64)
    np.cumsum(lens, out=offs[1:])
    flat = np.frombuffer(b"".join(bufs), dtype=np.uint64)
    return offs, flat


def _binary_col_segments(col, dtype) -> tuple[np.ndarray, np.ndarray]:
    """Arrow (large_)binary column → (offsets[int64, n+1] in ``dtype``
    units, flat ndarray) straight from the Arrow buffers — one
    ``ascontiguousarray`` copy of the value bytes, no per-row Python
    (replaces the former ``to_pylist()`` + ``b"".join`` loops).  The
    feature columns this reads are non-null by construction."""
    arr = col.combine_chunks() if isinstance(col, pa.ChunkedArray) else col
    if not pa.types.is_large_binary(arr.type):
        arr = arr.cast(pa.large_binary())
    item = np.dtype(dtype).itemsize
    if len(arr) == 0:
        return np.zeros(1, dtype=np.int64), np.empty(0, dtype=dtype)
    offs_b = np.frombuffer(arr.buffers()[1], np.int64)[arr.offset : arr.offset + len(arr) + 1]
    data = np.frombuffer(arr.buffers()[2] or b"", np.uint8)
    flat = np.ascontiguousarray(data[offs_b[0] : offs_b[-1]]).view(dtype)
    return (offs_b - offs_b[0]) // item, flat


def _mat_to_large_binary(mat: np.ndarray) -> pa.Array:
    """(n, d) matrix → large_binary array of the n row byte-strings,
    built from ONE flat buffer + arithmetic offsets (no per-row
    ``tobytes`` loop)."""
    n, width = mat.shape[0], mat.shape[1] * mat.dtype.itemsize
    offs = np.arange(n + 1, dtype=np.int64) * width
    return pa.Array.from_buffers(
        pa.large_binary(), n,
        [None, pa.py_buffer(offs.tobytes()), pa.py_buffer(np.ascontiguousarray(mat).tobytes())],
    )


def _lookup_sorted(ids_sorted: np.ndarray, keys: np.ndarray):
    """searchsorted membership probe: positions + found mask."""
    n = len(ids_sorted)
    pos = np.searchsorted(ids_sorted, keys)
    safe = np.minimum(pos, max(n - 1, 0))
    found = (pos < n) & (ids_sorted[safe] == keys) if n else np.zeros(len(keys), dtype=bool)
    return pos, found


# ------------------------------------------------- shared pair machinery

from .groups import bucketed_group_apply  # noqa: E402  (shared two-level exchange)

MAX_BUCKET = 512  # all-pairs cap per LSH/blocking bucket


def capped_pairs(ids: list, window: int = 8) -> list[tuple]:
    """Candidate pairs from one bucket.  Small buckets emit all pairs;
    a bucket above MAX_BUCKET (a degenerate flood of identical or
    near-identical docs) emits a sorted sliding window instead — O(n·w)
    rather than O(n²) — which preserves connectivity: exact verify +
    connected components still recover the full duplicate cluster,
    though the raw PAIR list within such a bucket is not exhaustive."""
    ids = sorted(ids)
    n = len(ids)
    if n <= MAX_BUCKET:
        return [(ids[i], ids[j]) for i in range(n) for j in range(i + 1, n)]
    return [(ids[i], ids[j]) for i in range(n) for j in range(i + 1, min(i + 1 + window, n))]


_BROADCAST_PAIR_LIMIT = 50_000
_BROADCAST_ID_LIMIT = 100_000


@ray.remote(num_returns=3)
def _pair_block_meta(t: pa.Table, a: str, b: str):
    """Per-block dedupe + row count + distinct endpoint ids, one task —
    fuses what used to be two Dataset jobs (`_dedup_pairs_distributed`
    + `_involved_ids`) into a single raw-task wave over the exchange
    output blocks.  The deduped table ref stays object-store-resident;
    only the count and the (id-set-sized) ids come back to the driver."""
    df = t.to_pandas().drop_duplicates()
    ids = (np.unique(df[[a, b]].to_numpy(dtype=np.int64))
           if len(df) else np.empty(0, dtype=np.int64))
    return pa.Table.from_pandas(df, preserve_index=False), len(df), ids


def _pair_blocks_meta(cand: "ray.data.Dataset", a: str, b: str):
    """(deduped pairs Dataset, n_pairs, involved-id array) in one pass.
    Cross-band duplicates that span blocks survive (bounded ×n_bands
    redundant verification, collapsed by the result-level
    drop_duplicates every caller applies) — same contract as the
    Dataset-job version this replaces."""
    refs = cand.to_arrow_refs()
    if not refs:
        return None, 0, np.empty(0, dtype=np.int64)
    outs = [_pair_block_meta.remote(r, a, b) for r in refs]
    counts = ray.get([o[1] for o in outs])
    ids_parts = ray.get([o[2] for o in outs])
    n_pairs = int(sum(counts))
    if n_pairs == 0:
        return None, 0, np.empty(0, dtype=np.int64)
    need_ids = np.unique(np.concatenate([i for i in ids_parts if len(i)]))
    keep = [o[0] for o, c in zip(outs, counts) if c > 0]
    return ray.data.from_arrow_refs(keep), n_pairs, need_ids


def _pairs_with_feature(
    pairs,
    feats: "ray.data.Dataset",
    a: str = "doc_a",
    b: str = "doc_b",
    n_buckets: int = 16,
    n_pairs: int | None = None,
    n_ids: int | None = None,
) -> "ray.data.Dataset":
    """Attach a binary feature column to both endpoints of candidate
    pairs.  ``feats`` has columns (id, feature-bytes) in that order and
    contains ONLY pair-involved ids (callers filter); output rows are
    (a, b, f_a, f_b), inner-join semantics.

    Small candidate sets (≤ _BROADCAST_PAIR_LIMIT pairs) broadcast the
    feature map (``ray.put`` once — bounded by the candidate set, NOT
    the corpus; round-1's scale-killer broadcast the whole corpus).
    Larger sets go through two bucketed distributed hash joins so
    nothing pair-set-sized materializes on the driver.  The shuffle
    path uses the repo's groupby-co-group ``bucket_hash_join`` rather
    than ``Dataset.join`` (ray 2.49's JoinOperator deadlocks with two
    joins in one plan and errors on empty hash partitions)."""
    import ray.data as rd

    from .joins import bucket_hash_join

    if isinstance(pairs, pa.Table):
        n_pairs = pairs.num_rows
        pairs = rd.from_arrow(pairs)
    elif n_pairs is None:
        n_pairs = pairs.count()
    # what broadcast actually ships is the INVOLVED-ID feature map, not
    # the pair list (pairs stay distributed either way) — so the right
    # gate is the id count when the caller knows it: 56k pairs over
    # 2000 vectors is a 1 MB map, and the join path costs two exchanges
    if (n_ids is not None and n_ids <= _BROADCAST_ID_LIMIT) or (
        n_ids is None and n_pairs <= _BROADCAST_PAIR_LIMIT
    ):
        fdf = feats.to_pandas()  # pair-involved features only (bounded)
        fids = fdf.iloc[:, 0].to_numpy(dtype=np.int64)
        order = np.argsort(fids)
        farr = pa.array(fdf.iloc[:, 1].to_numpy()[order], type=pa.large_binary())
        fmap_ref = ray.put((fids[order], farr))

        def attach(t: pa.Table) -> pa.Table:
            # vectorized id→feature attach: searchsorted probe +
            # Arrow take on the sorted binary array (no row loop)
            ids, farr = cached_get(fmap_ref)
            xa = t.column(a).to_numpy(zero_copy_only=False).astype(np.int64)
            xb = t.column(b).to_numpy(zero_copy_only=False).astype(np.int64)
            pos_a, ok_a = _lookup_sorted(ids, xa)
            pos_b, ok_b = _lookup_sorted(ids, xb)
            ok = ok_a & ok_b  # inner-join semantics
            return pa.table({
                a: pa.array(xa[ok], type=pa.int64()),
                b: pa.array(xb[ok], type=pa.int64()),
                "f_a": farr.take(pa.array(pos_a[ok], type=pa.int64())),
                "f_b": farr.take(pa.array(pos_b[ok], type=pa.int64())),
            })

        return pairs.map_batches(attach, batch_format="pyarrow")

    def _feat_as(suffix: str) -> "ray.data.Dataset":
        return feats.map_batches(
            lambda t, s=suffix: t.rename_columns(["__fid", f"f{s}"]),
            batch_format="pyarrow",
        )

    def _as_left(t: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        return pa.table({"__fid": pc.cast(t.column(a), pa.int64()),
                         b: pc.cast(t.column(b), pa.int64())})

    left1 = pairs.map_batches(_as_left, batch_format="pyarrow")
    j1 = bucket_hash_join(left1, _feat_as("_a"), key="__fid", n_buckets=n_buckets)

    def _rekey(t: pa.Table) -> pa.Table:
        # (__fid=a, b, f_a) -> (a, __fid=b, f_a) for the second join.
        # Cast the key back to int64: pandas null-padding inside the
        # bucket co-group coerces it to float64, and a float-hashed key
        # would never meet the int-hashed feature side.
        import pyarrow.compute as pc

        cols = {a: pc.cast(t.column("__fid"), pa.int64()),
                "__fid": pc.cast(t.column(b), pa.int64()),
                "f_a": t.column("f_a")}
        return pa.table(cols)

    j2 = bucket_hash_join(
        j1.map_batches(_rekey, batch_format="pyarrow"), _feat_as("_b"),
        key="__fid", n_buckets=n_buckets,
    )
    def _finish(t: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        return pa.table({a: pc.cast(t.column(a), pa.int64()),
                         b: pc.cast(t.column("__fid"), pa.int64()),
                         "f_a": t.column("f_a"), "f_b": t.column("f_b")})

    return j2.map_batches(_finish, batch_format="pyarrow")


# ------------------------------------------------------------------ exact

def add_content_hash(batch: pd.DataFrame, col: str = "text") -> pd.DataFrame:
    batch = batch.copy()
    batch["content_hash"] = batch[col].map(lambda s: hashlib.md5(s.encode()).hexdigest())
    return batch


def exact_dedup(ds: "ray.data.Dataset", col: str = "text", id_col: str = "doc_id") -> "ray.data.Dataset":
    """Keep the minimum id per identical content (hash-partitioned).
    One fine group per DISTINCT content hash — the canonical
    mostly-singleton-group shape, so the shared two-level exchange
    applies (a per-batch min pre-pass keeps the shuffle rows small)."""
    def partial_min(b: pd.DataFrame) -> pd.DataFrame:
        b = add_content_hash(b, col)
        return b.groupby("content_hash", as_index=False)[id_col].min()

    hashed = ds.map_batches(partial_min, batch_format="pandas")

    def keep_first(g: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame({id_col: [g[id_col].min()]})

    return bucketed_group_apply(hashed, ["content_hash"], keep_first)


# ---------------------------------------------------------------- minhash

def band_rows(sigs: np.ndarray, doc_ids: np.ndarray, n_bands: int) -> pd.DataFrame:
    """(band_id, band_hash, doc_id) rows for a (n_docs, num_perm)
    signature matrix, fully vectorised: each band's 8-lane slice folds
    through a polynomial uint64 hash (any deterministic hash of the
    slice gives the SAME recall — a band collides iff the slices are
    EQUAL; the hash only names the bucket).  Replaces a per-doc Python
    loop doing n_bands blake2b calls + row-tuple appends."""
    n, p = sigs.shape
    rows = p // n_bands
    mixers = (np.uint64(0x9E3779B97F4A7C15) ** np.arange(1, rows + 1, dtype=np.uint64))
    hashes = np.empty((n, n_bands), dtype=np.uint64)
    for b in range(n_bands):
        sl = sigs[:, b * rows : (b + 1) * rows]
        h = (sl * mixers[None, :]).sum(axis=1, dtype=np.uint64)
        # final avalanche (xorshift-multiply) + >>1 to stay in int64
        h ^= h >> np.uint64(33)
        h *= np.uint64(0xFF51AFD7ED558CCD)
        h ^= h >> np.uint64(33)
        hashes[:, b] = h >> np.uint64(1)
    return pd.DataFrame({
        "band_id": np.tile(np.arange(n_bands, dtype=np.int64), n),
        "band_hash": hashes.reshape(-1).astype(np.int64),
        "doc_id": np.repeat(doc_ids.astype(np.int64), n_bands),
    })


def _minhash_bands(batch: pd.DataFrame, num_perm: int, k: int, n_bands: int,
                   seed: int = 42) -> pd.DataFrame:
    """(band_id, band_hash, doc_id) LSH rows of every document's MinHash
    signature — signature and banding fused in one stage.  The (a, b)
    permutation coefficients are rebuilt per batch: they cost
    microseconds."""
    rng = np.random.default_rng(seed)
    a = rng.integers(1, _MERSENNE, num_perm, dtype=np.uint64)
    b = rng.integers(0, _MERSENNE, num_perm, dtype=np.uint64)

    def signature(text: str) -> np.ndarray:
        sh = _hash_shingles(text, k)
        if len(sh) == 0:
            return np.zeros(num_perm, dtype=np.uint64)
        # (a*x + b) mod p, min over shingles, per permutation
        x = sh.astype(np.uint64)[:, None]
        vals = (x * a[None, :] + b[None, :]) % np.uint64(_MERSENNE)
        return vals.min(axis=0)

    # per-doc: each (shingles × perms) temp stays L2-resident; a
    # concatenated-slab reduceat variant measured 1.5-3× SLOWER
    # (64 MB temps + reduceat overhead) — don't retry it
    sigs = np.stack([signature(s) for s in batch["text"]])
    return band_rows(sigs, batch["doc_id"].to_numpy(), n_bands)


def _shingle_feats(batch: pa.Table, ids_ref, k: int) -> pa.Table:
    """Shingle ONLY pair-involved docs (id set via broadcast ref,
    zero-copy numpy per task)."""
    import pyarrow.compute as pc

    ids = pa.array(cached_get(ids_ref))
    sub = batch.filter(pc.is_in(pc.cast(batch.column("doc_id"), pa.int64()), value_set=ids))
    sh = [_hash_shingles(t.as_py(), k).tobytes() for t in sub.column("text")]
    return pa.table({
        "doc_id": pc.cast(sub.column("doc_id"), pa.int64()),
        "sh": pa.array(sh, type=pa.large_binary()),
    })


def _verify_jaccard_pairs(
    ds: "ray.data.Dataset",
    cand_ds: "ray.data.Dataset",
    n_pairs: int,
    need_ids: np.ndarray,
    k: int,
    threshold: float,
) -> pa.Table:
    """Shared exact-verification tail for the shingle-based dedup paths
    (MinHash LSH and n-gram Jaccard blocking): re-shingle ONLY the docs
    that appear in a candidate pair, attach both endpoints' shingle
    sets, and keep pairs with jaccard >= threshold.  Small involved-id
    sets broadcast the feature map once (``ray.put``) and fuse attach +
    verify into one task-pool stage; larger sets ride two bucketed hash
    joins (``_pairs_with_feature``) so nothing pair-set-sized touches
    the driver."""
    empty = pa.table({"doc_a": pa.array([], type=pa.int64()),
                      "doc_b": pa.array([], type=pa.int64()),
                      "jaccard": pa.array([], type=pa.float64())})
    if n_pairs == 0:
        return empty
    ids_ref = ray.put(need_ids)
    feats = ds.map_batches(_shingle_feats, fn_kwargs=dict(ids_ref=ids_ref, k=k),
                           batch_format="pyarrow")

    if len(need_ids) <= _BROADCAST_ID_LIMIT:
        # broadcast path: ship the involved-id shingle map once and do
        # attach + jaccard + threshold in ONE task-pool stage
        fdf = feats.to_pandas()  # pair-involved features only (bounded)
        fids = fdf["doc_id"].to_numpy(dtype=np.int64)
        order = np.argsort(fids)
        offs, flat = _flat_u64_segments(fdf["sh"].to_numpy()[order])
        fmap_ref = ray.put((fids[order], offs, flat))

        def attach_verify(t: pa.Table) -> pa.Table:
            # fully vectorized: searchsorted attach + one lexsort-based
            # batched jaccard over every candidate pair — no per-pair
            # Python (was the last row loop in the dedup hot tail)
            ids_s, offs_, flat_ = cached_get(fmap_ref)
            xa = np.asarray(t.column("doc_a"), dtype=np.int64)
            xb = np.asarray(t.column("doc_b"), dtype=np.int64)
            pos_a, ok_a = _lookup_sorted(ids_s, xa)
            pos_b, ok_b = _lookup_sorted(ids_s, xb)
            ok = ok_a & ok_b  # inner-join semantics
            xa, xb = xa[ok], xb[ok]
            flat_a, lens_a = _gather_segments(offs_, flat_, pos_a[ok])
            flat_b, lens_b = _gather_segments(offs_, flat_, pos_b[ok])
            j = _pairwise_jaccard(flat_a, lens_a, flat_b, lens_b)
            keep = j >= threshold
            return pa.table({"doc_a": pa.array(xa[keep], type=pa.int64()),
                             "doc_b": pa.array(xb[keep], type=pa.int64()),
                             "jaccard": pa.array(j[keep], type=pa.float64())})

        res = cand_ds.map_batches(attach_verify, batch_format="pyarrow").to_pandas()
    else:
        joined = _pairs_with_feature(cand_ds, feats, n_pairs=n_pairs, n_ids=len(need_ids))

        def verify_batch(t: pa.Table) -> pa.Table:
            offs_a, flat_a = _binary_col_segments(t.column("f_a"), np.uint64)
            offs_b, flat_b = _binary_col_segments(t.column("f_b"), np.uint64)
            j = _pairwise_jaccard(flat_a, np.diff(offs_a), flat_b, np.diff(offs_b))
            keep = j >= threshold
            out = pa.table({"doc_a": t.column("doc_a").combine_chunks(),
                            "doc_b": t.column("doc_b").combine_chunks(),
                            "jaccard": pa.array(j, type=pa.float64())})
            return out.filter(pa.array(keep))

        res = joined.map_batches(verify_batch, batch_format="pyarrow").to_pandas()
    if len(res) == 0:
        return empty
    res = res.drop_duplicates(subset=["doc_a", "doc_b"])
    res = res.sort_values(["doc_a", "doc_b"]).reset_index(drop=True)
    return pa.Table.from_pandas(res.astype({"doc_a": "int64", "doc_b": "int64", "jaccard": "float64"}))


def minhash_lsh_pairs(
    ds: "ray.data.Dataset",
    threshold: float = 0.8,
    num_perm: int = 128,
    n_bands: int = 16,
    k: int = 5,
) -> pa.Table:
    """Near-duplicate pairs (doc_a < doc_b, jaccard >= threshold).

    shingle→minhash→band→bucket-groupby→candidates→exact-verify.
    Stage-count-lean since r4: task pools (no actor spin-up),
    singleton band groups dropped vectorised in the exchange,
    dedupe+count+involved-ids fused into one raw-task wave, and
    feature-attach+verify fused into a single stage on the broadcast
    path.
    """
    buckets = ds.map_batches(
        _minhash_bands,
        fn_kwargs=dict(num_perm=num_perm, k=k, n_bands=n_bands),
        batch_format="pandas",
    )

    def pairs_of(g: pd.DataFrame) -> pd.DataFrame:
        out = capped_pairs(g["doc_id"].tolist())
        return pd.DataFrame(out, columns=["doc_a", "doc_b"])

    cand_ds, n_pairs, need_ids = _pair_blocks_meta(
        bucketed_group_apply(buckets, ["band_id", "band_hash"], pairs_of,
                             min_group_size=2),
        "doc_a", "doc_b",
    )
    return _verify_jaccard_pairs(ds, cand_ds, n_pairs, need_ids, k, threshold)


# ---------------------------------------------------------------- simhash

_SIM_TOKEN_RE = re.compile(r"[a-z0-9_]+")


def simhash(text: str, seed: int = 42) -> int:
    """64-bit SimHash over token features.

    Token hash = low 8 digest bytes of md5("<seed>:" + token) read
    little-endian — exactly DuckDB's ``md5_number_lower('<seed>:' || t)``
    — and the tokenizer is ASCII ``[a-z0-9_]+`` over lowercased text
    (RE2-identical), so the full signature, and therefore the whole
    hamming-pair set, is recomputable by the SQL oracle from scratch."""
    toks = _SIM_TOKEN_RE.findall(text.lower())
    if not toks:
        return 0
    salt = f"{seed}:".encode()
    hashes = np.array(
        [int.from_bytes(hashlib.md5(salt + t.encode()).digest()[8:], "little") for t in set(toks)],
        dtype=np.uint64,
    )
    bits = ((hashes[:, None] >> np.arange(64, dtype=np.uint64)) & np.uint64(1)).astype(np.int64)
    v = (2 * bits - 1).sum(axis=0)
    return int(((v > 0).astype(np.uint64) << np.arange(64, dtype=np.uint64)).sum())


def _simhash_batch(batch: pd.DataFrame, *, seed: int = 42) -> pd.DataFrame:
    return pd.DataFrame(
        {
            "doc_id": batch["doc_id"].to_numpy(),
            "simhash": np.array(
                [simhash(s, seed) for s in batch["text"]], dtype=np.uint64
            ).astype(np.int64),
        }
    )


_SIM_POPCNT = np.array([bin(i).count("1") for i in range(256)], dtype=np.uint8)


def _sim_block_masks(sizes=(11, 11, 11, 11, 10, 10)) -> list[int]:
    """Contiguous bit-span masks partitioning the 64-bit simhash."""
    masks, start = [], 0
    for sz in sizes:
        masks.append(((1 << sz) - 1) << start)
        start += sz
    assert start == 64
    return masks


def _split_mask(free_mask: int, parts: int) -> list[int]:
    """Partition the set bits of `free_mask` into exactly
    ``min(parts, n_bits)`` masks whose sizes differ by at most one
    (np.array_split semantics).  Ceil-division chunking could return
    FEWER than `parts` masks (5, 6 or 9 bits at parts=4 yielded 3),
    which broke the pigeonhole guarantee `_sim_pairs_exhaustive` relies
    on — a hamming-3 pair whose differing bits touched all 3 masks was
    silently dropped."""
    bits = [i for i in range(64) if (free_mask >> i) & 1]
    k = min(parts, len(bits))
    q, r = divmod(len(bits), k)
    out, pos = [], 0
    for i in range(k):
        step = q + (1 if i < r else 0)
        out.append(sum(1 << b for b in bits[pos : pos + step]))
        pos += step
    return out


def _sim_pairs_exhaustive(ids: np.ndarray, h: np.ndarray, free_mask: int,
                          max_hamming: int, out: dict) -> None:
    """EXHAUSTIVE pair extraction within one blocking bucket.

    Invariant: every doc in the bucket agrees on all bits OUTSIDE
    `free_mask`, so a qualifying pair's differing bits all lie inside
    it.  Small buckets take the vectorised all-pairs path; oversized
    buckets recursively re-block on `max_hamming+1` sub-masks of the
    free bits (pigeonhole: ≤max_hamming differing bits leave ≥1
    sub-mask bit-identical, so every qualifying pair co-locates in at
    least one sub-bucket) — replacing round-2's non-exhaustive sorted
    window.  Free bits strictly shrink per level, so recursion
    terminates; a bucket whose free bits are exhausted (or whose hashes
    are all equal) is an identical-hash clique and emits a hamming-0
    star to its min id — exact, because hamming 0 is transitive and the
    full pair set is the clique closure (emitting O(n²) rows for a
    mass-identical corpus would make the OUTPUT quadratic).  A bucket
    whose free-bit count is <= max_hamming (pigeonhole unavailable)
    groups by full hash value instead: hamming-0 stars per clique plus
    all pairs over the <=2^free clique representatives — the pair set
    is exact up to this clique-star closure (connected components
    recover identical clusters either way)."""
    n = len(ids)
    if n <= MAX_BUCKET:
        if n > 1:
            x = (h[:, None] ^ h[None, :]).view(np.uint8).reshape(n, n, 8)
            d = _SIM_POPCNT[x].sum(axis=2)
            ia, ib = np.where(np.triu(d <= max_hamming, k=1))
            for i, j, dist in zip(ids[ia].tolist(), ids[ib].tolist(), d[ia, ib].tolist()):
                key = (min(i, j), max(i, j))
                if key not in out:
                    out[key] = int(dist)
        return
    if free_mask == 0 or (h == h[0]).all():
        hub = int(ids.min())
        for other in ids.tolist():
            if int(other) != hub:
                out.setdefault((hub, int(other)), 0)
        return
    # constrain away free bits the whole bucket agrees on: every pair
    # trivially matches there, and recursing per sub-mask on a
    # non-splitting mask would duplicate the entire bucket's work
    varying = int(np.bitwise_or.reduce(h ^ h[0]))
    free_mask &= varying
    if free_mask == 0:
        hub = int(ids.min())
        for other in ids.tolist():
            if int(other) != hub:
                out.setdefault((hub, int(other)), 0)
        return
    if bin(free_mask).count("1") <= max_hamming:
        # too few free bits to form max_hamming+1 disjoint sub-masks —
        # pigeonhole is unavailable.  But then only <=2^free distinct
        # hash values exist: group by FULL hash value, emit a hamming-0
        # star per identical-hash clique (the established clique-closure
        # contract) plus all pairs over the <=2^free clique
        # REPRESENTATIVES (min ids) — connectivity-exact without a
        # quadratic cross-clique pair list.
        order = np.argsort(h, kind="stable")
        hs = h[order]
        bounds = np.flatnonzero(np.r_[True, hs[1:] != hs[:-1], True])
        reps: list[int] = []
        rep_h: list[np.uint64] = []
        for s_, e_ in zip(bounds[:-1].tolist(), bounds[1:].tolist()):
            sel = order[s_:e_]
            hub = int(ids[sel].min())
            reps.append(hub)
            rep_h.append(hs[s_])
            for other in ids[sel].tolist():
                if int(other) != hub:
                    out.setdefault((hub, int(other)), 0)
        rh = np.array(rep_h, dtype=np.uint64)
        ra = np.array(reps, dtype=np.int64)
        nr = len(ra)
        x = (rh[:, None] ^ rh[None, :]).view(np.uint8).reshape(nr, nr, 8)
        d = _SIM_POPCNT[x].sum(axis=2)
        ia, ib = np.where(np.triu(d <= max_hamming, k=1))
        for i, j, dist in zip(ra[ia].tolist(), ra[ib].tolist(), d[ia, ib].tolist()):
            out.setdefault((min(i, j), max(i, j)), int(dist))
        return
    for m in _split_mask(free_mask, max_hamming + 1):
        keys = h & np.uint64(m)
        order = np.argsort(keys, kind="stable")
        ks = keys[order]
        bounds = np.flatnonzero(np.r_[True, ks[1:] != ks[:-1], True])
        for s_, e_ in zip(bounds[:-1].tolist(), bounds[1:].tolist()):
            if e_ - s_ > 1:
                sel = order[s_:e_]
                _sim_pairs_exhaustive(ids[sel], h[sel], free_mask & ~m, max_hamming, out)


def simhash_pairs(ds: "ray.data.Dataset", max_hamming: int = 3) -> pa.Table:
    """Pairs within hamming<=max_hamming via multi-index block keys
    (the near-duplicate blocking of Manku et al., WWW 2007, public):
    the 64-bit simhash splits into 6 blocks; each of the C(6,3)=20
    3-block combinations forms an index whose key is ~32 bits.  With
    ≤3 differing bits at most 3 blocks are touched, so ≥3 blocks match
    and some indexed 3-combination is clean — pigeonhole-complete,
    with a key space (~4G) that outgrows round-2's 65,536-per-band
    ceiling.  Oversized buckets recurse on sub-masks of their free
    bits instead of degrading to a non-exhaustive window
    (`_sim_pairs_exhaustive`), so the pair set is exact up to
    hamming-0 clique closure.  Cost: 20 tiny (index, key, id, hash)
    rows per doc through the shuffle — rows, never documents."""
    from itertools import combinations

    sigs = ds.map_batches(_simhash_batch, batch_format="pandas")
    blocks = _sim_block_masks()
    indexes = list(combinations(range(len(blocks)), 3))
    combo_masks = [blocks[a] | blocks[b] | blocks[c] for a, b, c in indexes]

    def explode(batch: pd.DataFrame) -> pd.DataFrame:
        h = batch["simhash"].to_numpy().astype(np.uint64)
        rows = []
        for idx, cm in enumerate(combo_masks):
            # view (not astype): reinterpret the masked uint64 as int64
            # bit-identically — top-block keys exceed 2^63
            key = (h & np.uint64(cm)).view(np.int64)
            rows.append(pd.DataFrame({"band": idx, "key": key,
                                      "doc_id": batch["doc_id"], "simhash": batch["simhash"]}))
        return pd.concat(rows, ignore_index=True)

    buckets = sigs.map_batches(explode, batch_format="pandas")

    def pairs_of(g: pd.DataFrame) -> pd.DataFrame:
        if len(g) < 2:
            return pd.DataFrame(columns=["doc_a", "doc_b", "hamming"])
        idx = int(g["band"].iloc[0])
        ids = g["doc_id"].to_numpy(dtype=np.int64)
        h = g["simhash"].to_numpy().astype(np.uint64)
        found: dict = {}
        free = 0xFFFFFFFFFFFFFFFF & ~combo_masks[idx]
        _sim_pairs_exhaustive(ids, h, free, max_hamming, found)
        if not found:
            return pd.DataFrame(columns=["doc_a", "doc_b", "hamming"])
        arr = sorted((a_, b_, d_) for (a_, b_), d_ in found.items())
        return pd.DataFrame(arr, columns=["doc_a", "doc_b", "hamming"])

    res = bucketed_group_apply(buckets, ["band", "key"], pairs_of,
                               min_group_size=2).to_pandas()
    if len(res) == 0 or "doc_a" not in res.columns:
        return pa.table({"doc_a": pa.array([], type=pa.int64()),
                         "doc_b": pa.array([], type=pa.int64()),
                         "hamming": pa.array([], type=pa.int64())})
    res = res.drop_duplicates(subset=["doc_a", "doc_b"]).sort_values(["doc_a", "doc_b"]).reset_index(drop=True)
    return pa.Table.from_pandas(res.astype({"doc_a": "int64", "doc_b": "int64", "hamming": "int64"}))


# --------------------------------------------------------- ngram jaccard

def ngram_jaccard_pairs(ds: "ray.data.Dataset", threshold: float = 0.5, k: int = 5,
                        group_col: str = "lang") -> pa.Table:
    """Exact n-gram Jaccard within blocking groups (documented
    partitioning assumption: near-dups share `group_col`; cross-group
    dups are the MinHash path's job).

    Groups are additionally blocked by log2 distinct-shingle-count
    bands: J(A,B) <= min(|A|,|B|)/max(|A|,|B|), so a pair at jaccard
    >= threshold has a shingle-count ratio >= threshold; replicating
    each doc into its own band plus the next ceil(log2(1/threshold))
    bands provably co-locates every qualifying pair while bounding a
    group by the size-band population, not the corpus (round-1 version
    was all-pairs per language = O(n²) at scale).  Exactness: the same
    pair set is produced, deduplicated across bands.

    Data movement follows the MinHash shape (r4): the exchange carries
    ONLY (block, doc_id, band) rows — round-3 serialized each doc's
    full shingle-hash array into every replicated band row, the one
    remaining pipeline shipping corpus-sized features through a
    shuffle.  Blocking emits candidate pairs; exact jaccard is then
    verified by re-shingling ONLY pair-involved docs via the shared
    ``_verify_jaccard_pairs`` tail (recompute beats replicating
    doc-sized payloads ×(reach+1) through an all-to-all at scale).
    """
    reach = max(1, int(np.ceil(np.log2(1.0 / max(threshold, 1e-9)))))

    def explode_bands(batch: pd.DataFrame) -> pd.DataFrame:
        n = len(batch)
        counts = np.empty(n, dtype=np.int64)
        for i, text in enumerate(batch["text"]):
            counts[i] = len(_hash_shingles(text, k))
        band = np.log2(np.maximum(1, counts)).astype(np.int64)
        ids = batch["doc_id"].to_numpy(dtype=np.int64)
        keys = batch[group_col].astype(str).to_numpy()
        # replicate upward into bands band..band+reach, numpy-built
        rep = np.repeat(np.arange(n), reach + 1)
        blk_band = band[rep] + np.tile(np.arange(reach + 1), n)
        return pd.DataFrame({
            "block": pd.Series(keys[rep]).str.cat(blk_band.astype(str), sep="|"),
            "doc_id": ids[rep],
            "band": band[rep],
        })

    blocked = ds.map_batches(explode_bands, batch_format="pandas")

    def pairs_of(g: pd.DataFrame) -> pd.DataFrame:
        if len(g) < 2:
            return pd.DataFrame({"doc_a": pd.Series([], dtype="int64"),
                                 "doc_b": pd.Series([], dtype="int64")})
        blk_band = int(str(g["block"].iloc[0]).rsplit("|", 1)[1])
        own = dict(zip((int(i) for i in g["doc_id"]), (int(b) for b in g["band"])))
        # Emit each pair exactly once, in the HIGHER doc's own band:
        # docs replicate upward (bands b..b+reach), so a pair with
        # bands bA <= bB co-occurs only in blocks with band >= bB —
        # the lower doc's own band never contains the higher doc.
        out = [(a_, b_) for a_, b_ in capped_pairs(list(own))
               if max(own[a_], own[b_]) == blk_band]
        return pd.DataFrame(out, columns=["doc_a", "doc_b"])

    cand_ds, n_pairs, need_ids = _pair_blocks_meta(
        bucketed_group_apply(blocked, ["block"], pairs_of, min_group_size=2),
        "doc_a", "doc_b",
    )
    return _verify_jaccard_pairs(ds, cand_ds, n_pairs, need_ids, k, threshold)


# ---------------------------------------------------------- clustering

def connected_components(pairs: pd.DataFrame, a: str = "doc_a", b: str = "doc_b",
                         max_rounds: int = 50) -> pd.DataFrame:
    """Connected components over near-dup pairs via min-label
    propagation (vectorised rounds; converges in O(log diameter) —
    near-dup clusters are shallow).  Driver-side over the PAIR set only
    (pairs ≪ corpus); at cluster scale the identical iteration runs as
    `groupby(node).min()` rounds over a pairs Dataset.

    Returns (node, label) with label = min doc_id of the component.
    """
    edges = pairs[[a, b]].to_numpy(dtype=np.int64)
    nodes = np.unique(edges)
    label = {int(n): int(n) for n in nodes}
    for _ in range(max_rounds):
        changed = False
        for x, y in edges:
            lx, ly = label[int(x)], label[int(y)]
            m = min(lx, ly)
            if lx != m:
                label[int(x)] = m
                changed = True
            if ly != m:
                label[int(y)] = m
                changed = True
        # path-compress
        for n in label:
            r = n
            while label[r] != r:
                r = label[r]
            label[n] = r
        if not changed:
            break
    return pd.DataFrame({"node": list(label), "label": [label[n] for n in label]}).astype("int64")


def connected_components_distributed(
    pairs: "ray.data.Dataset", a: str = "doc_a", b: str = "doc_b", max_rounds: int = 50,
    as_dataset: bool = False,
):
    """Min-label propagation as Dataset rounds — the cluster-scale
    version of ``connected_components`` (which runs driver-side over
    the pair set).  Each round co-groups the edge list with the current
    labels by node (one groupby shuffle), emits each node's label to
    its neighbors, and takes the per-node min (a second small groupby);
    converges in O(log diameter) rounds.  Convergence is detected by a
    DISTRIBUTED scalar: labels are monotonically non-increasing under
    min propagation, so an unchanged ``sum(label)`` ⟺ fixpoint — no
    per-round driver materialization of the label table.  Returns the
    same (node, label) frame, or the labels Dataset with
    ``as_dataset=True`` (cluster-scale callers anti-join against it
    without ever collecting it).
    """
    def _i64(col) -> pa.Array:
        import pyarrow.compute as pc

        arr = pc.cast(col, pa.int64())
        return arr.combine_chunks() if isinstance(arr, pa.ChunkedArray) else arr

    # symmetric edge list (node, peer); rows = 2 × pairs
    both_dirs = pairs.map_batches(
        lambda t: pa.table({
            "node": pa.concat_arrays([_i64(t.column(a)), _i64(t.column(b))]),
            "val": pa.concat_arrays([_i64(t.column(b)), _i64(t.column(a))]),
            "kind": pa.array(["edge"] * (2 * t.num_rows)),
        }),
        batch_format="pyarrow",
    ).materialize()

    # initial labels: label(node) = node
    labels = bucketed_group_apply(
        both_dirs.map_batches(
            lambda t: pa.table({"node": t.column("node"), "label": t.column("node")}),
            batch_format="pyarrow",
        ),
        ["node"],
        lambda g: pd.DataFrame({"node": [int(g["node"].iloc[0])], "label": [int(g["node"].iloc[0])]})
        if len(g) else pd.DataFrame({"node": [], "label": []}),
    ).materialize()

    prev_sum = labels.sum("label") if labels.count() else None
    if prev_sum is None:  # no edges at all: empty label set
        empty = pd.DataFrame({"node": pd.Series([], dtype="int64"),
                              "label": pd.Series([], dtype="int64")})
        return ray.data.from_pandas(empty) if as_dataset else empty

    for _ in range(max_rounds):
        # stage A (co-group labels with edges by node): each node sends
        # its CURRENT label to itself and every neighbor
        lab_rows = labels.map_batches(
            lambda t: pa.table({"node": _i64(t.column("node")), "val": _i64(t.column("label")),
                                "kind": pa.array(["label"] * t.num_rows)}),
            batch_format="pyarrow",
        )

        def send(g: pd.DataFrame) -> pd.DataFrame:
            if len(g) == 0:
                return pd.DataFrame({"node": [], "label": []})
            my = int(g.loc[g["kind"] == "label", "val"].min())
            peers = g.loc[g["kind"] == "edge", "val"].astype("int64").tolist()
            nodes = [int(g["node"].iloc[0]), *peers]
            return pd.DataFrame({"node": nodes, "label": [my] * len(nodes)})

        msgs = bucketed_group_apply(lab_rows.union(both_dirs), ["node"], send)

        # stage B: per-node min over received labels
        def take_min(g: pd.DataFrame) -> pd.DataFrame:
            if len(g) == 0:
                return pd.DataFrame({"node": [], "label": []})
            return pd.DataFrame({"node": [int(g["node"].iloc[0])], "label": [int(g["label"].min())]})

        new_labels = bucketed_group_apply(msgs, ["node"], take_min).materialize()
        labels = new_labels
        # distributed convergence scalar (one tiny aggregate, not a
        # driver collect): min-propagation labels only ever decrease,
        # so an unchanged sum means zero labels changed this round
        s = labels.sum("label")
        if s == prev_sum:
            break
        prev_sum = s
    if as_dataset:
        return labels
    out = labels.to_pandas().astype({"node": "int64", "label": "int64"})
    return out.sort_values("node").reset_index(drop=True)


# Above this many PAIRS the keep path goes fully distributed:
# connected components as Dataset rounds and the drop set subtracted by
# a bucketed anti-join — nothing cluster-sized ever on the driver.
_KEEP_DISTRIBUTED_THRESHOLD = 1_000_000


def dedup_keep_list(ds: "ray.data.Dataset", pairs: pd.DataFrame,
                    id_col: str = "doc_id") -> pd.DataFrame:
    """The actual dedup deliverable: keep the min-id document of every
    near-dup cluster plus all unpaired documents.

    Pair sets up to ``_KEEP_DISTRIBUTED_THRESHOLD`` run connected components
    driver-side (pairs ≪ corpus) and ship the drop set ONCE via
    ``ray.put`` (a broadcast read per worker process, not a per-task
    closure copy); larger pair sets switch to the fully distributed
    path (``dedup_keep_list_distributed``) where neither the label
    table nor the drop set ever materializes on the driver."""
    if len(pairs) > _KEEP_DISTRIBUTED_THRESHOLD:
        kept = dedup_keep_list_distributed(
            ds, ray.data.from_pandas(pairs[["doc_a", "doc_b"]]), id_col=id_col
        )
        return kept.to_pandas().sort_values(id_col).reset_index(drop=True)
    comp = connected_components(pairs)
    drop_ref = ray.put(set(comp.loc[comp["node"] != comp["label"], "node"].tolist()))

    def keep(batch: pd.DataFrame) -> pd.DataFrame:
        drop = cached_get(drop_ref)
        return batch[~batch[id_col].isin(drop)][[id_col]]

    out = ds.map_batches(keep, batch_format="pandas").to_pandas()
    return out.sort_values(id_col).reset_index(drop=True)


def dedup_keep_list_distributed(
    ds: "ray.data.Dataset", pairs: "ray.data.Dataset",
    a: str = "doc_a", b: str = "doc_b", id_col: str = "doc_id",
) -> "ray.data.Dataset":
    """Cluster-scale keep list: min-label components as Dataset rounds,
    drop rows (node != label) filtered vectorised, and the corpus id
    column subtracted via the bucketed anti-join — rows moved are
    |corpus ids| + |dropped ids|, and the driver holds only block refs.
    Returns a Dataset of kept ``id_col`` rows (callers sort/collect at
    their own scale)."""
    import pyarrow.compute as pc

    from .joins import bucket_anti_join

    labels = connected_components_distributed(pairs, a=a, b=b, as_dataset=True)

    def drop_rows(t: pa.Table) -> pa.Table:
        node = pc.cast(t.column("node"), pa.int64())
        lab = pc.cast(t.column("label"), pa.int64())
        mask = pc.not_equal(node, lab)
        return pa.table({id_col: pc.filter(node, mask)})

    drop = labels.map_batches(drop_rows, batch_format="pyarrow")
    ids = ds.map_batches(
        lambda t: pa.table({id_col: pc.cast(t.column(id_col), pa.int64())}),
        batch_format="pyarrow",
    )
    return bucket_anti_join(ids, drop, key=id_col)


# ------------------------------------------------------ embedding cosine

def embedding_dup_pairs(ds: "ray.data.Dataset", threshold: float = 0.9,
                        n_tables: int | None = None, n_planes: int | None = None,
                        seed: int = 42, dim: int | None = None,
                        n_vectors: int | None = None) -> pa.Table:
    """Near-dup pairs by cosine >= threshold.

    Multi-table random-hyperplane LSH; only ``(table, bucket, vec_id)``
    rows go through the shuffle (round-1 shipped every unit vector
    ×n_tables); candidate pairs are then verified EXACTLY by attaching
    each endpoint's unit vector (broadcast under 50k pairs, bucketed
    joins above).

    Bucket space SCALES WITH THE CORPUS (the simhash band-ceiling
    lesson applied here): ``n_planes`` defaults to ~log2(n)-3, keeping
    expected bucket population ~constant instead of linear in corpus
    size — at a fixed 6 planes, 2000 near-random vectors already
    produced 275k candidate pairs (14% of ALL pairs).  ``n_tables``
    then follows from the recall target: per-plane collision
    p = 1 - arccos(threshold)/pi, per-table p^b, tables chosen for
    >=95% recall AT the threshold (true near-dups far above the
    threshold collide with much higher probability).
    """
    if dim is None or (n_planes is None and n_vectors is None):
        # one limit-1 / count execution; callers that know the
        # dimensionality and size should pass them and skip this
        if dim is None:
            dim = len(ds.take(1)[0]["embedding"])
        if n_vectors is None:
            n_vectors = int(ds.count())
    if n_planes is None:
        n_planes = max(6, int(np.ceil(np.log2(max(2, n_vectors)))) - 3)
    if n_tables is None:
        p_plane = 1.0 - float(np.arccos(min(1.0, max(-1.0, threshold)))) / np.pi
        r1 = p_plane ** n_planes
        n_tables = int(np.clip(np.ceil(np.log(0.05) / np.log(max(1e-9, 1.0 - r1))), 4, 32))
    rng = np.random.default_rng(seed)
    planes = rng.normal(size=(n_tables, dim, n_planes))
    planes_ref = ray.put(planes)

    def bucketer(batch: pd.DataFrame, *, ref) -> pd.DataFrame:
        planes_ = cached_get(ref)  # broadcast once per worker process
        m = np.stack(batch["embedding"].to_numpy()).astype(np.float64)
        norms = np.linalg.norm(m, axis=1, keepdims=True)
        norms[norms == 0] = 1.0
        unit = m / norms
        frames = []
        for t in range(planes_.shape[0]):
            signs = (unit @ planes_[t] > 0).astype(np.int64)
            key = (signs << np.arange(signs.shape[1])).sum(axis=1)
            frames.append(
                pd.DataFrame({"table": t, "bucket": key, "vec_id": batch["vec_id"].to_numpy()})
            )
        return pd.concat(frames, ignore_index=True)

    buckets = ds.map_batches(bucketer, fn_kwargs=dict(ref=planes_ref),
                             batch_format="pandas")

    def pairs_of(g: pd.DataFrame) -> pd.DataFrame:
        out = capped_pairs(g["vec_id"].tolist())
        return pd.DataFrame(out, columns=["vec_a", "vec_b"])

    cand_ds, n_pairs, need_ids = _pair_blocks_meta(
        bucketed_group_apply(buckets, ["table", "bucket"], pairs_of,
                             min_group_size=2),
        "vec_a", "vec_b",
    )
    empty = pa.table(
        {
            "vec_a": pa.array([], type=pa.int64()),
            "vec_b": pa.array([], type=pa.int64()),
            "cosine": pa.array([], type=pa.float64()),
        }
    )
    if n_pairs == 0:
        return empty

    ids_ref = ray.put(need_ids)

    def unit_vecs(batch: pa.Table, *, ref) -> pa.Table:
        import pyarrow.compute as pc

        ids_ = pa.array(cached_get(ref))  # broadcast once per worker process
        sub = batch.filter(pc.is_in(pc.cast(batch.column("vec_id"), pa.int64()), value_set=ids_))
        if sub.num_rows == 0:
            return pa.table({"vec_id": pa.array([], type=pa.int64()),
                             "u": pa.array([], type=pa.large_binary())})
        emb = sub.column("embedding").combine_chunks()
        if pa.types.is_list(emb.type) or pa.types.is_large_list(emb.type) or pa.types.is_fixed_size_list(emb.type):
            flat = emb.flatten().to_numpy(zero_copy_only=False)
        else:  # ray.data tensor extension: to_numpy is already (n, d)
            flat = np.asarray(emb.to_numpy(zero_copy_only=False))
        m = flat.astype(np.float64).reshape(len(emb), -1)
        norms = np.linalg.norm(m, axis=1, keepdims=True)
        norms[norms == 0] = 1.0
        unit = m / norms
        return pa.table({
            "vec_id": pc.cast(sub.column("vec_id"), pa.int64()),
            "u": _mat_to_large_binary(unit),
        })

    feats = ds.map_batches(unit_vecs, fn_kwargs=dict(ref=ids_ref),
                           batch_format="pyarrow")
    joined = _pairs_with_feature(cand_ds, feats, a="vec_a", b="vec_b",
                                 n_pairs=n_pairs, n_ids=len(need_ids))

    def verify_batch(t: pa.Table) -> pa.Table:
        if t.num_rows == 0:
            return empty
        offs_ua, flat_ua = _binary_col_segments(t.column("f_a"), np.float64)
        offs_ub, flat_ub = _binary_col_segments(t.column("f_b"), np.float64)
        ua = flat_ua.reshape(t.num_rows, -1)
        ub = flat_ub.reshape(t.num_rows, -1)
        cos = (ua * ub).sum(axis=1)
        ids_a = np.asarray(t.column("vec_a"), dtype=np.int64)
        ids_b = np.asarray(t.column("vec_b"), dtype=np.int64)
        keep = cos >= threshold
        return pa.table({
            "vec_a": pa.array(np.minimum(ids_a[keep], ids_b[keep])),
            "vec_b": pa.array(np.maximum(ids_a[keep], ids_b[keep])),
            "cosine": pa.array(cos[keep]),
        })

    res = joined.map_batches(verify_batch, batch_format="pyarrow").to_pandas()
    if len(res) == 0:
        return empty
    res = res.drop_duplicates(subset=["vec_a", "vec_b"]).sort_values(["vec_a", "vec_b"]).reset_index(drop=True)
    return pa.Table.from_pandas(res.astype({"vec_a": "int64", "vec_b": "int64", "cosine": "float64"}))
