"""Query engine over ENCODED partitions — skar's query path, Ray-first.

The reference serves filter/project queries directly over its
compressed folders: iterate folder index → prune folders via per-folder
indexes → read only selected columns of selected row groups → apply
DNF selections → project (/root/reference/skar/src/query/handler.rs:
96-185, execution/mod.rs:21-65).  Ours:

    manifests → partition pruning (min/max + distinct sets from the
    manifest, §2.4 bloom-prelookup analog) → one task-pool decode stage
    (``decode_stage``) reading ONLY the needed columns from each .skarc,
    with the DNF evaluated on the encoded form → projection → optional
    limit.

Filter language (DNF, mirroring skar's OR-of-selections / AND-within,
net-types/src/lib.rs:13-54): ``[[(col, op, value), ...], ...]`` —
outer list OR, inner list AND; ops: ``== != in >= > <= < prefix
contains suffix`` (``contains``/``suffix`` = substring / ends-with;
evaluated on the encoded form for dict/rle columns — only the
dictionary values decode — and partition-pruned via the exact
distinct sets).
"""

from __future__ import annotations

import os
from typing import Any

import pyarrow as pa
import pyarrow.compute as pc

import ray.data

from ..stages.decoder import decode_stage
from ..state import manifest as manifest_mod
from ..state.pruning import clause_compute

Clause = tuple[str, str, Any]
DNF = list[list[Clause]]


def prune_partitions(manifests: dict[int, manifest_mod.PartitionManifest], dnf: DNF | None) -> list[int]:
    """Partition ids that may contain matches (skar's prune_query,
    handler.rs:187-250: a folder is skipped only when EVERY selection
    is impossible)."""
    from ..state.pruning import dnf_possible

    if not dnf:
        return sorted(manifests)
    keep = []
    for pid, m in sorted(manifests.items()):
        stats = (m.extra or {}).get("stats", {})
        if dnf_possible(lambda c: stats.get(c), dnf):
            keep.append(pid)
    return keep


def _apply_dnf(t: pa.Table, dnf: DNF) -> pa.Table:
    masks = []
    for conj in dnf:
        m = None
        for col, op, value in conj:
            cm = clause_compute(t.column(col), op, value)
            m = cm if m is None else pc.and_kleene(m, cm)
        masks.append(m)
    mask = masks[0]
    for m in masks[1:]:
        mask = pc.or_kleene(mask, m)
    return t.filter(mask)


def _typed_empty(out_dir: str, manifests: dict, columns: list[str] | None) -> pa.Table:
    """Zero-row table with the store's real column types (schema from
    any container header) so downstream column ops / concat still work
    — shared by query_encoded and the budgeted pager."""
    from ..codecs import base as cbase
    from ..state import container as container_mod

    any_m = next(iter(manifests.values()))
    header, _ = container_mod.read_header(os.path.join(out_dir, any_m.data_file))
    schema = [(n, cbase.type_from_name(t)) for n, t in header["schema"]]
    want = columns or [n for n, _ in schema]
    types = dict(schema)
    return pa.table({n: pa.chunked_array([], type=types[n]) for n in want})


def query_encoded_budgeted(
    out_dir: str,
    columns: list[str] | None = None,
    filters: DNF | None = None,
    time_budget_s: float | None = None,
    row_budget: int | None = None,
    cursor: int | None = None,
) -> tuple[pa.Table, int | None]:
    """Budgeted scan with cursor resume — the reference's query time
    limit + row limits + cursor paging (handler.rs:104-107,
    server.rs:216-287): partitions are scanned in pid order; when the
    time or row budget trips, the call returns the results of the
    consecutive prefix of COMPLETED partitions plus a cursor (the first
    unfinished pid).  Passing the cursor back resumes exactly there;
    ``None`` cursor on return means the scan completed.
    """
    import time as _time

    t0 = _time.monotonic()
    manifests = manifest_mod.scan_manifests(out_dir)
    pids = [p for p in prune_partitions(manifests, filters) if cursor is None or p >= cursor]
    want_cols = columns
    if not pids:
        # typed empty (like query_encoded): a paging caller concatenating
        # pages must not hit a schema mismatch on an all-pruned store
        return (_typed_empty(out_dir, manifests, want_cols)
                if manifests else pa.table({})), None
    rows = [
        {
            "partition_id": pid,
            "data_file": manifests[pid].data_file,
            "n_rows": manifests[pid].n_rows,
            "content_sha256": manifests[pid].content_sha256,
        }
        for pid in pids
    ]
    ds = decode_stage(
        ray.data.from_items(rows),
        out_dir=out_dir, columns=want_cols, verify=False, dnf=filters,
        apply_dnf=bool(filters), tag_partition=True,
    )
    done: dict[int, list[pa.Table]] = {}
    got_rows: dict[int, int] = {}
    finished: set[int] = set()
    total_rows = 0
    over = False
    it = ds.iter_batches(batch_format="pyarrow", batch_size=None)
    for batch in it:
        if batch.num_rows:
            pid = int(batch.column("__pid")[0].as_py())
            expect = int(batch.column("__pid_total")[0].as_py())
            done.setdefault(pid, []).append(batch.drop_columns(["__pid", "__pid_total"]))
            got_rows[pid] = got_rows.get(pid, 0) + batch.num_rows
            if got_rows[pid] >= expect:
                # a partition counts as finished only once ALL its rows
                # arrived — Ray's dynamic block splitting may deliver one
                # partition's output as several blocks
                finished.add(pid)
            total_rows += batch.num_rows
        # an empty batch still completes SOME partition, but carries no
        # pid — conservatively treat only full non-empty ones as finished
        if time_budget_s is not None and _time.monotonic() - t0 >= time_budget_s:
            over = True
        if row_budget is not None and total_rows >= row_budget:
            over = True
        # progress guarantee: never stop before the first pid in scan
        # order has completed, or a tripped budget could return an empty
        # prefix with an unmoved cursor (batches arrive out of order)
        if over and pids[0] in finished:
            broke = True
            break
    else:
        broke = False
    if not broke:
        # the iterator ran to natural exhaustion — every pruned-in
        # partition was fully scanned, so ALL count as finished,
        # including zero-match ones (which never emit a non-empty batch)
        # and regardless of whether a budget tripped on the final
        # iteration.  Without this a zero-row partition could be
        # returned as the cursor forever (resume re-scans, re-trips,
        # same cursor: livelock for a `while cursor` paging caller).
        finished = set(pids)
    prefix: list[pa.Table] = []
    next_cursor = None
    for pid in pids:
        if pid in finished:
            prefix.extend(done.get(pid, []))
        else:
            next_cursor = pid
            break
    if prefix:
        out = pa.concat_tables(prefix)
    else:
        out = _typed_empty(out_dir, manifests, want_cols) if manifests else pa.table({})
    return out, next_cursor


class _TypedResult(ray.data.Dataset):
    """A query result whose pandas form keeps the projected columns and
    their types when no row matches: Ray builds ``to_pandas`` from the
    result's batches, and a zero-row result has none."""

    _empty = None  # () -> the result's typed zero-row table

    def to_pandas(self, limit: int | None = None):
        df = super().to_pandas(limit=limit)
        return df if len(df.columns) else self._empty().to_pandas()


def _typed_result(ds: "ray.data.Dataset", empty) -> "ray.data.Dataset":
    ds.__class__ = _TypedResult
    ds._empty = empty
    return ds


def query_encoded(
    out_dir: str,
    columns: list[str] | None = None,
    filters: DNF | None = None,
    limit: int | None = None,
) -> "ray.data.Dataset":
    """Projected, filtered, pruned read over encoded partitions."""
    manifests = manifest_mod.scan_manifests(out_dir)
    pids = prune_partitions(manifests, filters)
    if not pids and manifests:
        # everything pruned: return a TYPED empty result (schema from any
        # container header) so downstream column operations still work
        empty = _typed_empty(out_dir, manifests, columns)
        return _typed_result(ray.data.from_arrow(empty), lambda: empty)
    rows = [
        {
            "partition_id": pid,
            "data_file": manifests[pid].data_file,
            "n_rows": manifests[pid].n_rows,
            "content_sha256": manifests[pid].content_sha256,
        }
        for pid in pids
    ]
    # §2.10 encoded-form evaluation: the FULL DNF is evaluated inside
    # the container reader — per-chunk stats (min/max/distinct/SBBF)
    # prune chunks, then each clause runs on the dict/rle CODE stream or
    # FoR int stream where the codec supports it (decode+compare
    # otherwise), so filter columns are materialized only as needed and
    # all-false chunks never decode the projection
    ds = decode_stage(
        ray.data.from_items(rows),
        out_dir=out_dir, columns=columns, verify=False, dnf=filters,
        apply_dnf=bool(filters),
    )
    if limit is not None:
        ds = ds.limit(limit)
    return _typed_result(ds, lambda: _typed_empty(out_dir, manifests, columns)) if manifests else ds


# the largest key set a broadcast semi-join may collect into the driver
MAX_SEMI_JOIN_KEYS = 10_000_000


def check_key_set(n_keys: int, max_keys: int) -> None:
    if n_keys > max_keys:
        raise ValueError(
            f"semi-join key set has {n_keys} keys (> max_keys={max_keys}); "
            "use a bucketed hash join over decoded datasets instead"
        )


def query_encoded_semi_join(
    store_a: str,
    store_b: str,
    key_a: str,
    key_b: str | None = None,
    dnf_a: DNF | None = None,
    dnf_b: DNF | None = None,
    columns_b: list[str] | None = None,
    max_keys: int = MAX_SEMI_JOIN_KEYS,
) -> "ray.data.Dataset":
    """Cross-table semi-join over two ENCODED stores — the reference's
    whole query engine is exactly this set propagation over compressed
    folders: select logs by DNF, collect their transaction keys, then
    select transactions by that key set, pruning folders and row groups
    on the way (/root/reference/skar/src/query/execution/mod.rs:21-65,
    86-95).

    Phase 1 queries store A on the encoded form (projection = [key_a]
    only — non-key columns of A never decode) and collects the DISTINCT
    key set, reduced per-batch before it reaches the driver.  Phase 2
    folds the key set into store B's DNF as an ``in`` clause ANDed into
    every disjunct, so B benefits from the full pruning ladder —
    manifest min/max / distinct / SBBF skip whole partitions, per-chunk
    stats skip chunks, and the clause evaluates on the dict/rle code
    stream where the codec supports it — before any projection decode.

    Partitioning assumption (same as the reference's): the propagated
    key set is driver-resident, i.e. the A-side filter is selective.
    `max_keys` fails loudly instead of silently building a DNF larger
    than memory; for unbounded key sets use a bucketed join over
    decoded datasets (stages/joins.bucket_hash_join) instead.
    """
    key_b = key_b or key_a

    def _uniq(b: pa.Table) -> pa.Table:
        col = b.column(key_a)
        return pa.table({key_a: pc.unique(col.combine_chunks() if isinstance(col, pa.ChunkedArray) else col)})

    parts = (
        query_encoded(store_a, columns=[key_a], filters=dnf_a)
        .map_batches(_uniq, batch_format="pyarrow")
        .to_pandas()
    )
    keys = sorted(set(parts[key_a].tolist())) if len(parts) else []
    check_key_set(len(keys), max_keys)
    if not keys:
        # empty key set: nothing in B can match — reuse the typed-empty
        # path by pruning every partition with an impossible filter
        return query_encoded(store_b, columns=columns_b,
                             filters=[[(key_b, "in", [])]])
    in_clause = (key_b, "in", keys)
    new_dnf: DNF = [conj + [in_clause] for conj in dnf_b] if dnf_b else [[in_clause]]
    return query_encoded(store_b, columns=columns_b, filters=new_dnf)


def query_encoded_with_tail(
    out_dir: str,
    tail_path: str,
    columns: list[str] | None = None,
    filters: DNF | None = None,
) -> "ray.data.Dataset":
    """Query the encoded store PLUS a raw, not-yet-encoded tail — the
    reference runs every query over its compressed folders and then the
    same query over the in-memory tip snapshot before returning
    (/root/reference/skar/src/query/handler.rs:109-136): readers see
    rows the flush hasn't compacted yet.  The tail is a Parquet
    path/directory (our append delta format); it gets the same DNF +
    projection, column-pruned at the read, and unions with the decoded
    results."""
    enc = query_encoded(out_dir, columns=columns, filters=filters)
    # read the tail with projection ∪ filter columns: the encoded side
    # evaluates the DNF on the encoded form BEFORE projection, so a
    # filter column outside `columns` must stay readable on the raw side
    # too (pruned back to the projection after the filter)
    read_cols = columns
    if columns and filters:
        fcols = {c for conj in filters for (c, _op, _v) in conj}
        read_cols = list(dict.fromkeys([*columns, *sorted(fcols - set(columns))]))
    tail = ray.data.read_parquet(tail_path, columns=read_cols)
    if filters:
        tail = tail.map_batches(lambda t, f=filters: _apply_dnf(t, f), batch_format="pyarrow")
    if columns:
        tail = tail.map_batches(lambda t, c=columns: t.select(c), batch_format="pyarrow")
    return enc.union(tail)


def _rank_order(v, i, descending: bool):
    """Sort order for (value, id) ranking WITHOUT negation: numpy
    unsigned negation wraps (0 would rank as the uint maximum) and
    int64 min negates to itself.  Stable two-pass argsort: ids
    (reversed for descending) then values; reversing the composed
    ascending order yields value-descending with id-ascending ties."""
    import numpy as np

    if descending:
        o = np.argsort(i, kind="stable")[::-1]
        o = o[np.argsort(v[o], kind="stable")]
        return o[::-1]
    o = np.argsort(i, kind="stable")
    return o[np.argsort(v[o], kind="stable")]


def store_topk(
    out_dir: str,
    value_col: str,
    k: int,
    id_col: str = "doc_id",
    descending: bool = True,
    filters: DNF | None = None,
    with_info: bool = False,
):
    """ORDER BY ``value_col`` LIMIT ``k`` (optionally WHERE ``filters``)
    pushed down onto the encoded store — the reference's early-stop /
    row-limit discipline (server.rs:282-287) applied to a ranked query,
    composed with the full pruning ladder:

      1. header-only scan → chunks failing the DNF's stats test
         (min/max + distinct + SBBF, ``pruning.dnf_possible``) drop
         without reading a byte; the rest sort by their value bound;
      2. wave loop: the shortest bound-ordered prefix expected to hold
         ≥ k rows decodes (with the DNF row mask evaluated on the
         encoded form where codecs allow — ``Chunk.mask``); each task
         returns only its LOCAL top-k (value, id) pairs, so the driver
         merge is chunks×k-sized.
         Once k rows are collected the exact running k-th value
         ``v_k`` prunes every remaining chunk whose bound cannot beat
         it (max < v_k descending / min > v_k ascending); survivors
         decode in one final wave.  A filter that eats a prefix's rows
         just pulls the next prefix — the loop never over-reads when
         stats are tight and never under-delivers when they are not.

    Chunks are read through ``container.read_chunks``; the value and id
    streams come from the FoR int fast path (``Chunk.values``) where the
    codec allows it; ``value_col`` must be numeric.  Ties break by
    ``id_col`` ascending (ORDER BY v DESC, id).  Null AND NaN values
    sort last, i.e. never enter the top-k while k ≤ matching real rows
    — DuckDB's default NULLS LAST (note DuckDB itself sorts NaN FIRST
    on DESC; float callers wanting NaN rows must filter for them).
    ``id_col`` must hold no nulls: a store whose header records a null
    in it — filtered out or not — raises ValueError before any decode.
    ``with_info=True`` also returns
    {chunks_total, dnf_pruned, chunks_decoded} (pytest pins the
    pruning).
    """
    import numpy as np
    import pandas as pd

    import ray

    from ..state import container

    if k <= 0:
        raise ValueError(f"store_topk needs k >= 1, got {k}")

    ms = manifest_mod.scan_manifests(out_dir)
    paths = {pid: os.path.join(out_dir, m.data_file) for pid, m in sorted(ms.items())}

    _NUMERIC = ("int", "uint", "float", "double", "halffloat")

    @ray.remote
    def chunk_bounds(path: str) -> tuple:
        header, blob_start = container.read_header(path)
        types = dict(header["schema"])
        for col in (value_col, id_col):
            if col not in types:
                raise ValueError(f"column {col!r} not in store schema {sorted(types)}")
        if not str(types[value_col]).startswith(_NUMERIC):
            raise ValueError(
                f"store_topk needs a numeric value_col; {value_col!r} is {types[value_col]}"
            )
        for ch in header["chunks"]:
            cms = {c["name"]: c for c in ch["columns"]}
            if cms[id_col]["meta"].get("has_nulls"):  # every codec records the flag
                raise ValueError(f"store_topk needs a non-null id_col; {id_col!r} has nulls in {path}")
        out = []
        for chunk in container.read_chunks(path, dnf=filters, header_info=(header, blob_start)):
            st = chunk.stats(value_col)
            out.append((chunk.index, st.get("min"), st.get("max"), chunk.n_rows))
        return out, len(header["chunks"]) - len(out)

    @ray.remote
    def local_topk(path: str, cis: list) -> tuple:
        import numpy as np
        import pyarrow.compute as pc

        vs, ids = [], []
        for chunk in container.read_chunks(path, dnf=filters, chunk_indices=cis):
            mask = chunk.mask(filters)
            if mask is not None and not mask.any():
                continue
            v, i = chunk.values(value_col), chunk.values(id_col)
            keep = pc.is_valid(v)
            if mask is not None:
                keep = pc.and_(keep, pa.array(mask))
            if not pc.all(keep).as_py():
                v, i = pc.filter(v, keep), pc.filter(i, keep)
            vn = np.asarray(v.to_numpy(zero_copy_only=False))
            im = np.asarray(i.to_numpy(zero_copy_only=False))
            if vn.dtype.kind == "f":
                # NaN ranks with nulls (never in the top-k) — a NaN
                # reaching the merge would poison v_k and every bound
                # comparison; note DuckDB instead sorts NaN FIRST on
                # DESC, so float callers wanting NaN rows must filter
                m = ~np.isnan(vn)
                if not m.all():
                    vn, im = vn[m], im[m]
            if len(vn):
                vs.append(vn)
                ids.append(im)
        if not vs:
            return np.array([]), np.array([])
        v = np.concatenate(vs)
        i = np.concatenate(ids)
        order = _rank_order(v, i, descending)[:k]
        return v[order], i[order]

    bound_refs = {pid: chunk_bounds.remote(p) for pid, p in paths.items()}
    chunks = []  # (pid, ci, vmin, vmax, rows)
    dnf_pruned = 0
    for pid in paths:
        bounds, dropped = ray.get(bound_refs[pid])
        dnf_pruned += dropped
        for ci, vmin, vmax, rows in bounds:
            chunks.append((pid, ci, vmin, vmax, rows))
    n_total = len(chunks) + dnf_pruned

    def sort_key(c):
        # stat-less chunks first: they can never be pruned, decode early
        _, _, vmin, vmax, _ = c
        if vmax is None:
            return (0, 0)
        return (1, -vmax if descending else vmin)

    chunks.sort(key=sort_key)

    def run_wave(cs: list) -> list:
        by_pid: dict = {}
        for pid, ci, *_ in cs:
            by_pid.setdefault(pid, []).append(ci)
        return ray.get([
            local_topk.remote(paths[pid], sorted(cis)) for pid, cis in by_pid.items()
        ])

    pending = chunks
    # accumulate per-wave parts; never concatenate with a dtype-less
    # empty (float64 would silently promote int results)
    v_parts: list = []
    i_parts: list = []
    n_rows_seen = 0
    n_decoded = 0
    while pending:
        if n_rows_seen >= k:
            v = np.concatenate(v_parts)
            i = np.concatenate(i_parts)
            order = _rank_order(v, i, descending)
            v_k = v[order[k - 1]]
            batch = [
                c for c in pending
                if c[3] is None or (c[3] >= v_k if descending else c[2] <= v_k)
            ]
            pending = []
        else:
            # advance by index — pop(0) would be O(n²) in the chunk count
            batch, cum, pos = [], 0, 0
            need = k - n_rows_seen
            while pos < len(pending) and cum < need:
                c = pending[pos]
                pos += 1
                batch.append(c)
                cum += c[4]
            pending = pending[pos:]
        if not batch:
            break
        n_decoded += len(batch)
        for pv, pi in run_wave(batch):
            if len(pv):
                v_parts.append(pv)
                i_parts.append(pi)
                n_rows_seen += len(pv)
    if v_parts:
        v = np.concatenate(v_parts)
        i = np.concatenate(i_parts)
    else:
        v = np.array([], dtype=np.int64)
        i = np.array([], dtype=np.int64)
    order = _rank_order(v, i, descending)[:k]
    out = pd.DataFrame({id_col: i[order], value_col: v[order]})
    if with_info:
        return out, {
            "chunks_total": n_total,
            "dnf_pruned": dnf_pruned,
            "chunks_decoded": n_decoded,
        }
    return out
