"""Approximate-nearest-neighbor search over an embedding column.

- ``brute_force_topk``: the exact baseline — per-batch numpy matmul of
  unit vectors against a **broadcast** query matrix (``ray.put`` once,
  read in every task — the reference's broadcast-set semi-join shape,
  /root/reference/skar/src/query/execution/mod.rs:183-185), partial
  top-k per batch, tiny driver-side merge.  Scales linearly: no
  shuffle, the only global step is merging ``num_batches × k`` rows.
- ``ivf_topk``: the scale path — deterministic k-means (Lloyd on a
  sample, fixed seed) → assign each vector to its nearest centroid
  (one groupby-free pass); queries probe the ``nprobe`` closest lists
  so only a fraction of batches do full dot products.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa

import ray
import ray.data
from .groups import cached_get


def _unit(m: np.ndarray) -> np.ndarray:
    n = np.linalg.norm(m, axis=1, keepdims=True)
    n[n == 0] = 1.0
    return m / n


def brute_force_topk(ds: "ray.data.Dataset", queries: np.ndarray, k: int = 10) -> pa.Table:
    """Top-k cosine per query vector. Returns (query_id, vec_id, cosine)."""
    q = _unit(np.asarray(queries, dtype=np.float64))
    q_ref = ray.put(q)

    def score(batch: pd.DataFrame) -> pd.DataFrame:
        m = _unit(np.stack(batch["embedding"].to_numpy()).astype(np.float64))
        sims = cached_get(q_ref) @ m.T  # (nq, nb)
        ids = batch["vec_id"].to_numpy()
        kk = min(k, sims.shape[1])
        top = np.argpartition(-sims, kk - 1, axis=1)[:, :kk]
        rows = []
        for qi in range(sims.shape[0]):
            for j in top[qi]:
                rows.append((qi, int(ids[j]), float(sims[qi, j])))
        return pd.DataFrame(rows, columns=["query_id", "vec_id", "cosine"])

    partials = ds.map_batches(score, batch_format="pandas", batch_size=4096).to_pandas()
    out = (
        partials.sort_values(["query_id", "cosine", "vec_id"], ascending=[True, False, True])
        .groupby("query_id", as_index=False)
        .head(k)
        .reset_index(drop=True)
    )
    return pa.Table.from_pandas(out.astype({"query_id": "int64", "vec_id": "int64", "cosine": "float64"}))


def train_centroids(ds: "ray.data.Dataset", n_lists: int, sample_rows: int = 4096,
                    iters: int = 8, seed: int = 42) -> np.ndarray:
    """Deterministic Lloyd's k-means on a driver-side sample."""
    sample = ds.limit(sample_rows).to_pandas()
    m = _unit(np.stack(sample["embedding"].to_numpy()).astype(np.float64))
    rng = np.random.default_rng(seed)
    cent = m[rng.choice(len(m), size=min(n_lists, len(m)), replace=False)]
    for _ in range(iters):
        assign = np.argmax(m @ cent.T, axis=1)
        for c in range(len(cent)):
            members = m[assign == c]
            if len(members):
                cent[c] = members.mean(axis=0)
        cent = _unit(cent)
    return cent


def ivf_topk(ds: "ray.data.Dataset", queries: np.ndarray, k: int = 10,
             n_lists: int | None = None, nprobe: int = 4, seed: int = 42) -> pa.Table:
    """IVF: only batch rows whose list is probed get full dot products.

    ``n_lists=None`` scales the centroid count with the corpus
    (~sqrt(n), the standard IVF sizing) so list population stays
    bounded as the table grows; the training sample grows alongside."""
    if n_lists is None:
        n = ds.count()
        n_lists = max(16, int(np.sqrt(max(1, n))))
    cent = train_centroids(ds, n_lists, sample_rows=max(4096, 32 * n_lists), seed=seed)
    q = _unit(np.asarray(queries, dtype=np.float64))
    probes = np.argsort(-(q @ cent.T), axis=1)[:, :nprobe]  # (nq, nprobe)
    state = ray.put((q, cent, probes))

    def score(batch: pd.DataFrame) -> pd.DataFrame:
        q_, cent_, probes_ = cached_get(state)
        m = _unit(np.stack(batch["embedding"].to_numpy()).astype(np.float64))
        ids = batch["vec_id"].to_numpy()
        lists = np.argmax(m @ cent_.T, axis=1)
        rows = []
        for qi in range(len(q_)):
            mask = np.isin(lists, probes_[qi])
            if not mask.any():
                continue
            sims = m[mask] @ q_[qi]
            sub_ids = ids[mask]
            kk = min(k, len(sims))
            top = np.argpartition(-sims, kk - 1)[:kk]
            rows.extend((qi, int(sub_ids[j]), float(sims[j])) for j in top)
        return pd.DataFrame(rows, columns=["query_id", "vec_id", "cosine"])

    partials = ds.map_batches(score, batch_format="pandas", batch_size=4096).to_pandas()
    out = (
        partials.sort_values(["query_id", "cosine", "vec_id"], ascending=[True, False, True])
        .groupby("query_id", as_index=False)
        .head(k)
        .reset_index(drop=True)
    )
    return pa.Table.from_pandas(out.astype({"query_id": "int64", "vec_id": "int64", "cosine": "float64"}))


def brute_force_pairs(ds: "ray.data.Dataset", threshold: float = 0.4,
                      max_rows: int = 1_000_000) -> pa.Table:
    """Exact all-pairs cosine >= threshold — the verification baseline
    for the sub-quadratic LSH path (embedding_dup_pairs).  Returns id
    pairs only: float score identity across engines is ulp-fragile, so
    callers wanting scores recompute them.

    Shape: one side of the self-join is broadcast as a unit matrix
    (``ray.put`` once, fetched once per worker process); each batch computes its
    block-row of the similarity matrix vectorized.  The broadcast side
    must fit the object store — ``max_rows`` guards that LOUDLY
    (the semi-join ``max_keys`` pattern, query_encoded.py): past the
    cap this baseline is the wrong tool and the call fails instead of
    broadcasting a corpus — use the LSH path (embedding_dup_pairs) or
    split the broadcast into column strips.
    """
    n = ds.count()
    if n > max_rows:
        raise ValueError(
            f"brute_force_pairs is the O(n²) verification baseline: input has "
            f"{n} rows (> max_rows={max_rows}); use the LSH path "
            "(dedup.embedding_dup_pairs) at this scale, or raise max_rows "
            "explicitly if you really mean it"
        )
    full = ds.select_columns(["vec_id", "embedding"]).to_pandas()
    ids_all = full["vec_id"].to_numpy(dtype=np.int64)
    m_all = _unit(np.stack(full["embedding"].to_numpy()).astype(np.float64))
    ref = ray.put((ids_all, m_all))

    def score_pairs(batch: pd.DataFrame) -> pd.DataFrame:
        ids_, m_ = cached_get(ref)
        bm = _unit(np.stack(batch["embedding"].to_numpy()).astype(np.float64))
        bids = batch["vec_id"].to_numpy(dtype=np.int64)
        sims = bm @ m_.T
        ia, ib = np.where(sims >= threshold)
        va, vb = bids[ia], ids_[ib]
        keep = va < vb  # upper triangle only; also drops self-pairs
        return pd.DataFrame({"vec_a": va[keep], "vec_b": vb[keep]})

    out = ds.map_batches(score_pairs, batch_format="pandas", batch_size=4096).to_pandas()
    out = out.sort_values(["vec_a", "vec_b"]).reset_index(drop=True)
    return pa.Table.from_pandas(out.astype({"vec_a": "int64", "vec_b": "int64"}))
