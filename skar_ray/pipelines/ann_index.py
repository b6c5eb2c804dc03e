"""Persisted IVF index — build once at write time, query many times.

The reference's whole design is index-at-write / prune-at-query: it
builds per-folder indexes while writing Parquet
(/root/reference/skar/src/build_parquet_idx.rs:19-199) and queries by
pruning folders through those indexes
(/root/reference/skar/src/query/handler.rs:96-185).  The in-memory
``ann.ivf_topk`` violates that shape — it re-derives every vector's
centroid assignment on every query wave and scans 100% of batches.

This module is the write-once analog for ANN:

- ``build_ivf_index``: train deterministic k-means centroids on a
  sample, assign every vector to its nearest list in one broadcast
  ``map_batches`` pass, then shuffle ONCE by list id and write one
  encoded ``.skarc`` container per list (``encode_partition`` — the
  same validated, manifest-tracked partition writer the corpus store
  uses; partition id == list id).  Centroids + list population land in
  ``_ivf_meta.json``, written LAST (temp+rename) so an interrupted
  build is invisible — the validate-then-publish ordering of
  skar_runner.rs:296-321.
- ``ivf_index_topk``: load the (tiny) meta, pick the ``nprobe``
  closest lists per query, and decode ONLY those lists' partitions —
  every other partition is never opened.  At 100 TB this is the
  difference between reading ``nprobe/n_lists`` of the corpus and
  reading all of it.

Partitioning assumption: one list's vectors fit in one reduce task /
one container — guaranteed by the ~sqrt(n) list sizing (mean list
population ~sqrt(n) rows), the standard IVF recipe.

100 TB shape: the build's only all-to-all is the one groupby exchange
of (vec_id, embedding, pkey) — unavoidable, each vector must land in
its list's partition, and it is paid once at write time.  Queries
touch ``|union of probed lists|`` containers, fetched in parallel
tasks; the meta (n_lists × dim floats) is the only broadcast.
"""

from __future__ import annotations

import json
import os

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc

import ray
import ray.data

from ..stages.ann import _unit, train_centroids
from ..stages.groups import cached_get
from ..stages.encoder import encode_partition
from ..state import container, manifest as manifest_mod

META_NAME = "_ivf_meta.json"


def _meta_path(index_dir: str) -> str:
    return os.path.join(index_dir, META_NAME)


def load_meta(index_dir: str) -> dict | None:
    p = _meta_path(index_dir)
    if not os.path.exists(p):
        return None
    with open(p) as f:
        m = json.load(f)
    m["centroids"] = np.asarray(m["centroids"], dtype=np.float64)
    return m


def build_ivf_index(
    ds: "ray.data.Dataset",
    index_dir: str,
    n_lists: int | None = None,
    seed: int = 42,
    resume: bool = True,
    input_fingerprint: str = "",
) -> dict:
    """Assign list ids at write time and persist list-partitioned
    encoded containers.  Returns the index meta.

    ``resume=True`` makes a completed build a no-op: the meta file is
    written last, so its presence (with matching row count) proves the
    per-list manifests underneath it are complete.

    ``input_fingerprint`` guards resume against CONTENT mutation: a
    row count alone cannot see regenerated embeddings with the same
    cardinality.  Callers should derive it from the input's identity
    (e.g. source file size+mtime); a mismatch forces a rebuild, and the
    rebuild sweeps list partitions the new assignment no longer
    produces (same contract as run_encode_job's orphan sweep).
    """
    n = ds.count()
    if n_lists is None:
        n_lists = max(16, int(np.sqrt(max(1, n))))
    if resume:
        meta = load_meta(index_dir)
        if meta is not None and meta["n_rows"] == n and meta["n_lists"] == n_lists \
                and meta["seed"] == seed \
                and meta.get("input_fingerprint", "") == input_fingerprint:
            return meta

    # identical training recipe to ann.ivf_topk so the persisted path
    # is bit-equal to the in-memory one (pinned by pytest)
    cent = train_centroids(ds, n_lists, sample_rows=max(4096, 32 * n_lists), seed=seed)
    cent_ref = ray.put(cent)

    def assign_lists(batch: pa.Table) -> pa.Table:
        vals = np.stack(batch.column("embedding").to_pandas().to_numpy())
        m = _unit(vals.astype(np.float64))
        lists = np.argmax(m @ cached_get(cent_ref).T, axis=1).astype(np.int64)
        emb_t = batch.column("embedding").type
        if not (pa.types.is_list(emb_t) or pa.types.is_large_list(emb_t)):
            # from_pandas inputs arrive as an ArrowTensorArray
            # extension column (and fixed_size_list has no codec
            # name); the codec layer speaks plain list<T>
            d = vals.shape[1]
            flat = pa.array(vals.reshape(-1))
            offs = pa.array(np.arange(0, (len(vals) + 1) * d, d, dtype=np.int32))
            lst = pa.ListArray.from_arrays(offs, flat)
            i = batch.column_names.index("embedding")
            batch = batch.set_column(i, "embedding", lst)
        return batch.append_column("pkey", pa.array(lists))

    keyed = ds.select_columns(["vec_id", "embedding"]).map_batches(
        assign_lists, batch_format="pyarrow", batch_size=4096,
    )

    os.makedirs(index_dir, exist_ok=True)

    def _encode_list(group: pa.Table) -> pa.Table:
        # deterministic container bytes: order within a list is
        # irrelevant for search, so pin it by vec_id
        group = group.take(pc.sort_indices(group.column("vec_id")))
        return encode_partition(
            group, index_dir,
            input_fingerprint=f"ivf-s{seed}:{input_fingerprint}",
        )

    summaries = keyed.groupby("pkey").map_groups(
        _encode_list, batch_format="pyarrow"
    ).to_pandas()

    list_rows = {int(r.partition_id): int(r.n_rows) for r in summaries.itertuples()}

    # orphan sweep: a rebuild into an existing index_dir can stop
    # producing some list ids (changed data / n_lists), which would
    # break the nprobe==n_lists exactness invariant.  Runs only on a
    # successful build, before the meta publish.
    manifest_mod.sweep_orphans(index_dir, list_rows)

    meta = {
        "n_rows": int(n),
        "n_lists": int(n_lists),
        "dim": int(cent.shape[1]),
        "seed": int(seed),
        "input_fingerprint": input_fingerprint,
        "list_rows": {str(k): v for k, v in sorted(list_rows.items())},
        "centroids": cent.tolist(),
    }
    tmp = _meta_path(index_dir) + f".tmp-{os.getpid()}"
    with open(tmp, "w") as f:
        json.dump(meta, f)
    os.replace(tmp, _meta_path(index_dir))
    meta["centroids"] = cent
    return meta


def ivf_index_topk(
    index_dir: str,
    queries: np.ndarray,
    k: int = 10,
    nprobe: int = 4,
    return_stats: bool = False,
):
    """Top-k cosine via the persisted index: decode only the ``nprobe``
    closest lists per query.  With ``nprobe == n_lists`` this is exact
    brute force (every partition probed) — the SQL-verified invariant.

    ``return_stats=True`` additionally returns
    ``{"partitions_read", "partitions_total"}`` so tests can assert the
    prune actually skipped partitions (same pattern as the
    chunk-pruning tests).
    """
    meta = load_meta(index_dir)
    if meta is None:
        raise FileNotFoundError(f"no IVF index at {index_dir} (missing {META_NAME})")
    cent = meta["centroids"]
    q = _unit(np.asarray(queries, dtype=np.float64))
    order = np.argsort(-(q @ cent.T), axis=1)
    probes = order[:, : min(nprobe, len(cent))]  # (nq, nprobe)

    manifests = manifest_mod.scan_manifests(index_dir)
    probed_lists = sorted({int(l) for l in probes.ravel() if int(l) in manifests})
    state = ray.put((q, probes))

    rows = [
        {"partition_id": pid, "data_file": manifests[pid].data_file}
        for pid in probed_lists
    ]

    def score_lists(batch: pd.DataFrame) -> pd.DataFrame:
        q_, probes_ = cached_get(state)
        out = []
        for pid, fname in zip(batch["partition_id"], batch["data_file"]):
            t = container.read_container(
                os.path.join(index_dir, fname), columns=["vec_id", "embedding"]
            )
            m = _unit(np.stack(t.column("embedding").to_pandas().to_numpy()).astype(np.float64))
            ids = t.column("vec_id").to_numpy()
            qids = np.flatnonzero((probes_ == int(pid)).any(axis=1))
            kk = min(k, m.shape[0])
            if kk == 0 or len(qids) == 0:
                continue
            # one BLAS gemm for every query probing this list
            # (rows × queries), then a single batched argpartition —
            # the brute_force_pairs pattern, not a per-query matvec
            S = m @ q_[qids].T  # (n_rows, n_q)
            top = np.argpartition(-S, kk - 1, axis=0)[:kk]  # (kk, n_q)
            for c, qi in enumerate(qids):
                js = top[:, c]
                out.extend(
                    (int(qi), int(ids[j]), float(S[j, c])) for j in js
                )
        return pd.DataFrame(out, columns=["query_id", "vec_id", "cosine"])

    if rows:
        partials = ray.data.from_items(rows).map_batches(
            score_lists, batch_format="pandas", batch_size=1,
        ).to_pandas()
    else:
        partials = pd.DataFrame(columns=["query_id", "vec_id", "cosine"])
    out = (
        partials.sort_values(["query_id", "cosine", "vec_id"], ascending=[True, False, True])
        .groupby("query_id", as_index=False)
        .head(k)
        .reset_index(drop=True)
    )
    table = pa.Table.from_pandas(
        out.astype({"query_id": "int64", "vec_id": "int64", "cosine": "float64"}),
        preserve_index=False,
    )
    if return_stats:
        return table, {
            "partitions_read": len(probed_lists),
            "partitions_total": len(manifests),
        }
    return table
