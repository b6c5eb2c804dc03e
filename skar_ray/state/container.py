"""`.skarc` container — one file per partition of encoded columns.

Layout: ``b"SKRC2\\n"`` magic, two u64 little-endian lengths (the
zstd-compressed JSON header's, then the raw header's), the compressed
header, blob area.  The header holds the schema and, per chunk ("row
group" analog — the reference slices sorted chunks into 10k-row row
groups, /root/reference/skar/src/write_parquet.rs:83-103), per column:
codec name, codec meta, page codec, offsets into the blob area, the
size triple (raw arrow bytes / codec payload bytes / final blob bytes)
and typed pruning stats.

A container file is never rewritten.  Every write (``write_container``,
``append_column``, ``drop_column``) goes through ``_publish`` to a fresh
name from ``new_name`` — temp file, optional validator, rename — and the
caller's manifest write that then points ``data_file`` at it is the
commit; ``manifest.sweep_orphans`` later removes the superseded file.
The reference's temp-folder + rename publish step followed by the mdbx
insert (skar/src/write_parquet.rs:155-230,
db/mod.rs:96-215).

Read through one chunk reader, ``read_chunks`` — the analog of the
reference's projected, row-group-pruned Parquet reader
(skar/src/query/data_provider.rs:121-183).  Every container read in
the package (``read_container``, ``drop_column``, the encoded-form
aggregates in ``pipelines/stats.py`` and ``store_topk``) goes through
it.
"""

from __future__ import annotations

import json
import os
import secrets
import struct

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from ..codecs import auto, base

MAGIC2 = b"SKRC2\n"  # v2: zstd-compressed JSON header (chunk stats +
#                      SBBF sketches compress ~3-4×)


def _chunk_stats(name: str, col) -> dict | None:
    """Typed per-chunk pruning stats — the reference's per-row-group
    min/max + distinct sets + blooms (build_parquet_idx.rs:50-115).
    {"min","max","t"} always (typed, compared natively by
    state.pruning); for non-content string columns also an exact
    distinct list (≤64 values) or an SBBF sketch (≤50k distinct) so
    point lookups on high-cardinality columns (path, commit) skip
    chunk decodes."""
    from .pruning import minmax_stat

    try:
        st = minmax_stat(col)
        if not st:
            return None
        t = col.type
        if name != "content" and (pa.types.is_string(t) or pa.types.is_large_string(t)):
            distinct = pc.unique(col.combine_chunks() if isinstance(col, pa.ChunkedArray) else col)
            if len(distinct) <= 64:
                st["distinct"] = sorted(v for v in distinct.to_pylist() if v is not None)
            elif len(distinct) <= 50_000:
                from .bloom import SplitBlockBloom

                st["bloom"] = SplitBlockBloom.build(
                    [v.encode() for v in distinct.to_pylist() if v is not None]
                ).serialize()
        return st
    except Exception:
        return None


def _plan_column(col, codec_override: str | None = None, shared_table=None):
    """Codec plan for ONE column: auto-select the codec on a sample
    unless ``codec_override`` names it.  When FSST can be chosen — no
    override or an ``"fsst"`` override — a string-like column uses
    ``shared_table`` if given; else it trains one table (reused across
    chunks) if it is high-cardinality.  Any other override skips the
    sample, the distinct count and the training.  Shared by
    write_container, append_column and the corpus-level codec plan
    (``encode_job.codec_plan``), so every column gets the same codec
    treatment."""
    if isinstance(col, pa.ChunkedArray):
        col = col.combine_chunks()
    can_fsst = codec_override in (None, "fsst") and base.is_string_like(col.type) and len(col)
    fsst_table = shared_table if can_fsst else None
    if can_fsst and fsst_table is None:
        sample = auto.sample_of(col)
        distinct_ratio = pc.count_distinct(sample).as_py() / max(1, len(sample))
        if distinct_ratio >= 0.05:  # low-cardinality ⇒ dict wins, skip training
            from ..codecs.fsst import FsstCodec

            _, data = base.strings_to_buffers(base.split_nulls(col)[1])
            fsst_table = FsstCodec().make_table(data)
    codec = codec_override
    estimates: dict = {}
    if codec is None:
        codec, estimates = auto.select_codec(col, fsst_table=fsst_table)
    if codec != "fsst":
        fsst_table = None
    return col, codec, fsst_table, estimates


def new_name(pid: int) -> str:
    """A fresh container file name for partition ``pid``; no write ever
    reuses one, so a published file is never replaced."""
    return f"part-{pid:06d}-{secrets.token_hex(6)}.skarc"


def _publish(path: str, header: dict, blobs, validator) -> dict:
    """Write ``header`` + ``blobs`` to ``path`` via a temp file: the
    ``validator``, if given, is called with the temp path before the
    rename; a raising validator removes the temp file and propagates,
    so nothing is published."""
    hjson = json.dumps(header).encode("utf-8")
    hz = pa.Codec("zstd", compression_level=3).compress(hjson).to_pybytes()
    tmp = f"{path}.tmp-{os.getpid()}"  # unique per writer: a retried/speculative task must not tear a peer's temp file
    with open(tmp, "wb") as f:
        f.write(MAGIC2)
        f.write(struct.pack("<QQ", len(hz), len(hjson)))
        f.write(hz)
        for b in blobs:
            f.write(b)
    if validator is not None:
        try:
            validator(tmp)
        except Exception:
            os.unlink(tmp)
            raise
    os.replace(tmp, path)
    return header


def write_container(path: str, table: pa.Table, chunk_rows: list[tuple[int, int]] | None = None,
                    codec_overrides: dict[str, str] | None = None,
                    extra: dict | None = None, validator=None,
                    codec_plan: dict | None = None) -> dict:
    """Encode `table` chunk-by-chunk and publish it as a new file at
    ``path`` (a ``new_name``; nothing is ever written over).

    ``chunk_rows`` is a list of (offset, length) slices; default one
    chunk.  Returns the header dict (with per-column byte accounting).
    ``codec_plan``: column name → (codec, FSST table or None, sample
    estimates) chosen for the whole corpus; those columns select and
    train nothing here, and their headers carry no ``estimates``.

    ``validator``, if given, is called with the TEMP file path after
    the write and before the publishing rename — the reference
    re-reads and validates the written Parquet before its atomic
    rename + manifest insert (/root/reference/skar/src/
    skar_runner.rs:309-321, validate_parquet.rs:17-66).  A raising
    validator removes the temp file and propagates, so a silently
    corrupted encode is never published (and never resume-skipped).
    """
    if chunk_rows is None:
        chunk_rows = [(0, table.num_rows)]
    codec_overrides = codec_overrides or {}
    codec_plan = codec_plan or {}

    # one codec and at most one FSST symbol table per column across
    # chunks — the corpus's (``codec_plan``) or selected and trained on
    # this partition; per-chunk re-training/re-selection would dominate
    # encode time.  Every container embeds its tables.  Only columns
    # that can end up FSST train: any other override skips training.
    plan: dict[str, tuple[str, object, dict]] = {}
    for name in table.column_names:
        if name in codec_plan:
            codec, fsst_table, _ = codec_plan[name]
            plan[name] = (codec, fsst_table, {})
        else:
            _, codec, fsst_table, estimates = _plan_column(table.column(name), codec_overrides.get(name))
            plan[name] = (codec, fsst_table, estimates)

    chunks_meta = []
    blobs: list[bytes] = []
    blob_off = 0
    first_chunk = True
    for (off, ln) in chunk_rows:
        sl = table.slice(off, ln)
        cols_meta = []
        for name in table.column_names:
            col = sl.column(name)
            codec, fsst_table, estimates = plan[name]
            enc = auto.encode_column(col, codec, fsst_table=fsst_table)
            if first_chunk:
                enc.estimates = estimates
            minmax = _chunk_stats(name, col)
            cols_meta.append(
                {
                    "name": name,
                    "codec": enc.codec,
                    "meta": enc.meta,
                    "page": enc.page,
                    "offset": blob_off,
                    "length": len(enc.blob),
                    "payload_len": enc.payload_len,
                    "raw_bytes": enc.raw_bytes,
                    "estimates": enc.estimates,
                    "minmax": minmax,
                }
            )
            blobs.append(enc.blob)
            blob_off += len(enc.blob)
        chunks_meta.append({"n_rows": ln, "columns": cols_meta})
        first_chunk = False
    header = {
        "version": 1,
        "schema": [[f.name, str(f.type)] for f in table.schema],
        "chunks": chunks_meta,
        "extra": extra or {},
    }
    return _publish(path, header, blobs, validator)


def append_column(path: str, dest: str, name: str, column, codec: str | None = None,
                  validator=None) -> dict:
    """Write the container at ``path`` plus a derived column to the new
    file ``dest`` WITHOUT re-encoding the existing columns: blob offsets
    are relative to the blob region, so every existing blob is copied
    VERBATIM and stays addressable; the new column's chunk blobs land at
    the end of the region.  Chunk boundaries are taken from the
    container (the derived column must align row-for-row), chunk min/max
    stats are written so chunk pruning works on the derived column, and
    ``dest`` is published like write_container (temp + optional
    validator + rename); ``path`` is left as it is.
    Reference analog: the post-write index build over already-flushed
    folders, /root/reference/skar/src/build_parquet_idx.rs:19-199 —
    generalized to a queryable column."""
    header, blob_start = read_header(path)
    if any(n == name for n, _ in header["schema"]):
        raise ValueError(f"column {name!r} already present in {path}")
    n_rows = sum(ch["n_rows"] for ch in header["chunks"])
    if len(column) != n_rows:
        raise ValueError(f"column length {len(column)} != container rows {n_rows}")
    col, codec_name, fsst_table, estimates = _plan_column(column, codec)
    with open(path, "rb") as f:
        f.seek(blob_start)
        old_blobs = f.read()
    new_blobs: list[bytes] = []
    off = len(old_blobs)
    row0 = 0
    first_chunk = True
    for ch in header["chunks"]:
        sl = col.slice(row0, ch["n_rows"])
        row0 += ch["n_rows"]
        enc = auto.encode_column(sl, codec_name, fsst_table=fsst_table)
        if first_chunk:
            enc.estimates = estimates
        ch["columns"].append(
            {
                "name": name,
                "codec": enc.codec,
                "meta": enc.meta,
                "page": enc.page,
                "offset": off,
                "length": len(enc.blob),
                "payload_len": enc.payload_len,
                "raw_bytes": enc.raw_bytes,
                "estimates": enc.estimates,
                "minmax": _chunk_stats(name, sl),
            }
        )
        off += len(enc.blob)
        new_blobs.append(enc.blob)
        first_chunk = False
    header["schema"].append([name, str(col.type)])
    return _publish(dest, header, [old_blobs, *new_blobs], validator)


def drop_column(path: str, dest: str, name: str) -> dict:
    """Write the container at ``path`` without column ``name`` to the
    new file ``dest``: surviving blobs are copied verbatim (no
    re-encode) with offsets re-sequenced, the schema entry and
    per-chunk metas removed, and ``dest`` published like
    write_container; the column's bytes are reclaimed once the sweep
    removes ``path``.  Refuses to drop the last column."""
    header, blob_start = read_header(path)
    names = [n for n, _ in header["schema"]]
    if name not in names:
        raise ValueError(f"column {name!r} not in {path}")
    if len(names) == 1:
        raise ValueError("cannot drop the last column")
    new_blobs: list[bytes] = []
    off = 0
    for chunk in read_chunks(path, header_info=(header, blob_start)):
        kept = []
        for cm in chunk.columns.values():
            if cm["name"] == name:
                continue
            b = chunk.blob(cm["name"])
            kept.append({**cm, "offset": off})
            new_blobs.append(b)
            off += len(b)
        header["chunks"][chunk.index]["columns"] = kept
    header["schema"] = [e for e in header["schema"] if e[0] != name]
    return _publish(dest, header, new_blobs, None)


def read_header(path: str) -> tuple[dict, int]:
    """(header dict, offset of the blob area) of the container at ``path``."""
    with open(path, "rb") as f:
        if f.read(len(MAGIC2)) != MAGIC2:
            raise ValueError(f"bad container magic in {path}")
        hz_len, raw_len = struct.unpack("<QQ", f.read(16))
        hjson = pa.Codec("zstd").decompress(f.read(hz_len), raw_len).to_pybytes()
    return json.loads(hjson.decode("utf-8")), len(MAGIC2) + 16 + hz_len


def _dict_value_mask(dict_vals: pa.Array, op: str, value) -> "np.ndarray":
    """Boolean mask over the (small) dictionary values for any DNF op —
    the same dispatch as the decode path (pruning.clause_compute), so
    dict/rle-coded chunks can never evaluate an op differently from
    other codecs."""
    from .pruning import clause_compute

    return np.asarray(pc.fill_null(clause_compute(dict_vals, op, value), False))


def encoded_clause_mask(blob: bytes, cm: dict, op: str, value) -> "np.ndarray | None":
    """Evaluate one DNF clause directly on the ENCODED form of a column
    — the §2.10 'predicate filter on encoded form', generalized from
    equality to the full op set (skar evaluates its whole selection DNF
    against every folder, /root/reference/skar/src/query/execution/
    mod.rs:120-261):

    - dict/rle: decode only the (small) dictionary, evaluate the op on
      it, expand matching codes through the index/run stream — the
      value column itself is never materialized;
    - for_bitpack: unpack the rebased ints and compare in numpy.

    Returns None when the codec/meta doesn't support it (caller decodes
    and compares — exact either way)."""
    from ..codecs.for_bitpack import bitunpack, unpack_ints_with_reference
    from ..codecs.plain import PlainCodec

    meta = cm["meta"]
    if meta.get("has_nulls"):
        return None  # fallback: decode + compare (nulls need the bitmap)
    n = meta["n"]
    if cm["codec"] == "for_bitpack" and op in ("==", "!=", "in", ">=", ">", "<=", "<"):
        if not isinstance(value, (int, float, list, tuple, set)) or isinstance(value, bool):
            return None

        INT64_MIN, INT64_MAX = -(1 << 63), (1 << 63) - 1

        def _exact_int(v):
            """int64-exact coercion; None = cannot equal any stored value.
            The decoded stream is int64 (uint64 overflow is rejected at
            encode), so comparing against a silently-truncated float
            (np.int64(3.5) == 3) would MATCH rows the decode path
            correctly rejects — coerce exactly or not at all."""
            if isinstance(v, bool) or not isinstance(v, (int, float)):
                raise TypeError
            if isinstance(v, float):
                if not v.is_integer():
                    return None
                v = int(v)
            return v if INT64_MIN <= v <= INT64_MAX else None

        payload = auto.page_decompress(blob, cm["page"], cm["payload_len"])
        _nulls, body = base.unpack_sections(payload)
        vals = unpack_ints_with_reference(body, meta, n)
        if op == "in":
            try:
                ints = [c for c in (_exact_int(v) for v in value) if c is not None]
            except TypeError:
                return None  # non-numeric element: decode-and-compare
            if not ints:
                return np.zeros(n, dtype=bool)
            return np.isin(vals, np.array(sorted(ints), dtype=np.int64))
        if op in ("==", "!="):
            try:
                c = _exact_int(value)
            except TypeError:
                return None
            if c is None:  # e.g. 3.5: equals no int64 row
                return np.ones(n, dtype=bool) if op == "!=" else np.zeros(n, dtype=bool)
            return vals != c if op == "!=" else vals == c
        # range ops: a non-integral float threshold maps to the exact
        # integer comparison (vals >= 3.5 ⟺ vals > 3); out-of-range and
        # non-finite (NaN/±Inf — math.floor raises on both) thresholds
        # fall back to decode-and-compare so every codec answers the
        # clause identically
        import math

        if isinstance(value, float) and not math.isfinite(value):
            return None
        if isinstance(value, float) and not value.is_integer():
            f = math.floor(value)
            if not (INT64_MIN <= f <= INT64_MAX):
                return None
            return (vals > f) if op in (">=", ">") else (vals <= f)
        c = _exact_int(value)
        if c is None:
            return None
        if op == ">=":
            return vals >= c
        if op == ">":
            return vals > c
        if op == "<=":
            return vals <= c
        return vals < c
    if cm["codec"] not in ("dict", "rle"):
        return None
    payload = auto.page_decompress(blob, cm["page"], cm["payload_len"])
    plain = PlainCodec()
    if cm["codec"] == "dict":
        _nulls, idx_payload, val_payload = base.unpack_sections(payload)
        vm = meta["values_meta"]
        dict_vals = plain.decode(val_payload, vm, vm["n"])
        vmask = _dict_value_mask(dict_vals, op, value)
        indices = bitunpack(idx_payload, meta["width"], n)
        return vmask[indices.astype(np.int64)]
    # rle: evaluate per run code, repeat by run length
    _nulls, codes_payload, lens_payload, val_payload = base.unpack_sections(payload)
    k = meta["n_runs"]
    run_codes = unpack_ints_with_reference(codes_payload, meta["codes_meta"], k)
    run_lens = unpack_ints_with_reference(lens_payload, meta["lens_meta"], k)
    vm = meta["values_meta"]
    dict_vals = plain.decode(val_payload, vm, vm["n"])
    vmask = _dict_value_mask(dict_vals, op, value)
    return np.repeat(vmask[run_codes.astype(np.int64)], run_lens)


def encoded_group_codes(blob: bytes, cm: dict):
    """(per-row integer code stream, dictionary values) for a dict/rle
    chunk — the grouped-aggregation building block: group keys stay as
    small ints, only the dictionary decodes.  None when unsupported."""
    from ..codecs.for_bitpack import bitunpack, unpack_ints_with_reference
    from ..codecs.plain import PlainCodec

    meta = cm["meta"]
    if meta.get("has_nulls") or cm["codec"] not in ("dict", "rle"):
        return None
    n = meta["n"]
    payload = auto.page_decompress(blob, cm["page"], cm["payload_len"])
    plain = PlainCodec()
    if cm["codec"] == "dict":
        _nulls, idx_payload, val_payload = base.unpack_sections(payload)
        vm = meta["values_meta"]
        dict_vals = plain.decode(val_payload, vm, vm["n"])
        codes = bitunpack(idx_payload, meta["width"], n).astype(np.int64)
    else:
        _nulls, codes_payload, lens_payload, val_payload = base.unpack_sections(payload)
        k = meta["n_runs"]
        run_codes = unpack_ints_with_reference(codes_payload, meta["codes_meta"], k).astype(np.int64)
        run_lens = unpack_ints_with_reference(lens_payload, meta["lens_meta"], k).astype(np.int64)
        vm = meta["values_meta"]
        dict_vals = plain.decode(val_payload, vm, vm["n"])
        codes = np.repeat(run_codes, run_lens)
    return codes, dict_vals


def encoded_byte_lengths(blob: bytes, cm: dict) -> "np.ndarray | None":
    """Per-row BYTE length of a string column straight from the encoded
    form — fsst carries the length stream as its FoR-packed sidecar,
    plain strings store it outright, and dict/rle index into the
    dictionary's value lengths; the value bytes themselves never
    materialize.  None when the codec/meta doesn't support it."""
    from ..codecs.for_bitpack import unpack_ints_with_reference

    meta = cm["meta"]
    if meta.get("has_nulls"):
        return None
    n = meta["n"]
    t = base.type_from_name(meta.get("type", ""))
    if not base.is_string_like(t):
        return None
    payload = auto.page_decompress(blob, cm["page"], cm["payload_len"])
    if cm["codec"] == "fsst":
        _nulls, lens_payload, _table, _enc = base.unpack_sections(payload)
        return unpack_ints_with_reference(lens_payload, meta["lens_meta"], n).astype(np.int64)
    if cm["codec"] == "plain":
        sections = base.unpack_sections(payload)
        return np.frombuffer(sections[1], dtype=np.int64)
    gc = encoded_group_codes(blob, cm)
    if gc is None:
        return None
    codes, dict_vals = gc
    val_lens = np.asarray(pc.binary_length(dict_vals)).astype(np.int64)
    return val_lens[codes]


def encoded_int_values(blob: bytes, cm: dict) -> "np.ndarray | None":
    """Int64 values of a numeric column straight from the encoded form:
    for_bitpack unpacks its rebased FoR stream without Arrow
    materialization — the value-side feed for grouped min/max/sum
    pushdown (the same stream ``encoded_clause_mask`` compares against).
    None when the codec/meta doesn't support it (caller decodes —
    exact either way)."""
    from ..codecs.for_bitpack import unpack_ints_with_reference

    meta = cm["meta"]
    if meta.get("has_nulls") or cm["codec"] != "for_bitpack":
        return None
    payload = auto.page_decompress(blob, cm["page"], cm["payload_len"])
    _nulls, body = base.unpack_sections(payload)
    return unpack_ints_with_reference(body, meta, meta["n"])


def encoded_distinct_values(blob: bytes, cm: dict) -> "list | None":
    """Exact distinct values of a dict/rle chunk decoding ONLY the
    value dictionary — ``dictionary_encode`` builds it from the chunk's
    own values, so the dictionary IS the chunk's distinct set; the row
    stream is never touched.  None when the codec carries no dictionary
    or the chunk has nulls (the null filler would pollute the set —
    caller decodes, exact either way)."""
    from ..codecs.plain import PlainCodec

    meta = cm["meta"]
    if meta.get("has_nulls") or cm["codec"] not in ("dict", "rle"):
        return None
    payload = auto.page_decompress(blob, cm["page"], cm["payload_len"])
    if cm["codec"] == "dict":
        _nulls, _idx, val_payload = base.unpack_sections(payload)
    else:
        _nulls, _codes, _lens, val_payload = base.unpack_sections(payload)
    vm = meta["values_meta"]
    return PlainCodec().decode(val_payload, vm, vm["n"]).to_pylist()


def _chunk_stats_of(ch) -> "callable":
    """stats_of(col) over a chunk's stored typed per-column stats (min,
    max and tag, with an optional distinct list or SBBF sketch)."""
    mm = {cm["name"]: cm.get("minmax") or {} for cm in ch["columns"]}
    return lambda c: mm.get(c, {})


def _int64_and_validity(arr: pa.Array) -> tuple[np.ndarray, np.ndarray | None]:
    """(int64 values, validity or None when there is no NULL); a NULL's
    slot holds 0, so it adds nothing to a sum over the values."""
    if not arr.null_count:
        return np.asarray(arr).astype(np.int64), None
    return (np.asarray(pc.fill_null(arr, 0)).astype(np.int64),
            np.asarray(pc.is_valid(arr)))


class Chunk:
    """One chunk of an open container, as ``read_chunks`` yields it.

    Each column's blob is read at most once and decoded at most once.
    Every accessor answers from the encoded form when the column's codec
    allows it and by ``auto.decode_column`` otherwise — exact either
    way.  NULLs follow one rule (DuckDB's): a NULL group key is a group
    of its own, a NULL never matches a clause, and a NULL value comes
    back with a validity mask so it adds nothing to a sum."""

    def __init__(self, f, blob_start: int, index: int, meta: dict):
        self.index = index
        self.n_rows = meta["n_rows"]
        self.columns = {cm["name"]: cm for cm in meta["columns"]}
        self.stats = _chunk_stats_of(meta)
        self._f = f
        self._blob_start = blob_start
        self._blobs: dict[str, bytes] = {}
        self._arrays: dict[str, pa.Array] = {}

    def blob(self, name: str) -> bytes:
        """The column's stored bytes (page-compressed codec payload)."""
        if name not in self._blobs:
            cm = self.columns[name]
            self._f.seek(self._blob_start + cm["offset"])
            self._blobs[name] = self._f.read(cm["length"])
        return self._blobs[name]

    def array(self, name: str) -> pa.Array:
        """The column decoded to Arrow."""
        if name not in self._arrays:
            cm = self.columns[name]
            self._arrays[name] = auto.decode_column(
                self.blob(name), cm["meta"], cm["page"], cm["payload_len"]
            )
        return self._arrays[name]

    def _encoded(self, fn, name: str):
        """``fn(blob, meta)`` on the encoded form; None (caller decodes)
        when the codec does not support it or the column is already
        decoded."""
        if name in self._arrays:
            return None
        return fn(self.blob(name), self.columns[name])

    def mask(self, dnf) -> np.ndarray | None:
        """Exact row mask of ``dnf`` (OR of AND-ed clauses), each clause
        by ``encoded_clause_mask`` or by decode + ``clause_compute``;
        None when ``dnf`` is empty (every row matches)."""
        from .pruning import clause_compute

        def clause_mask(col, op, value):
            m = self._encoded(lambda blob, cm: encoded_clause_mask(blob, cm, op, value), col)
            if m is None:
                m = np.asarray(pc.fill_null(clause_compute(self.array(col), op, value), False))
            return m

        mask = None
        for conj in dnf or ():
            m = None
            for col, op, value in conj:
                c = clause_mask(col, op, value)
                m = c if m is None else (m & c)
                if not m.any():
                    break
            if m is not None:
                mask = m if mask is None else (mask | m)
        return mask

    def values(self, name: str) -> pa.Array:
        """The column's values: the int64 FoR stream when the codec is
        for_bitpack (``encoded_int_values``), else the decoded array."""
        iv = self._encoded(encoded_int_values, name)
        if iv is not None:
            return pa.array(np.asarray(iv, dtype=np.int64))
        return self.array(name)

    def int_values(self, name: str) -> tuple[np.ndarray, np.ndarray | None]:
        """(int64 values, validity or None) — the value side of a
        grouped sum/min/max."""
        return _int64_and_validity(self.values(name))

    def byte_lengths(self, name: str) -> tuple[np.ndarray, np.ndarray | None]:
        """(per-row byte length of a string column, validity or None),
        from the length stream (``encoded_byte_lengths``) when the codec
        carries one."""
        lens = self._encoded(encoded_byte_lengths, name)
        if lens is not None:
            return lens, None
        return _int64_and_validity(pc.binary_length(self.array(name)))

    def group_codes(self, name: str) -> tuple[np.ndarray, list]:
        """(per-row int64 group code, the key of each code): the dict/rle
        code stream (``encoded_group_codes``), else decode +
        ``dictionary_encode``; a NULL key gets the last code, keyed
        None."""
        gc = self._encoded(encoded_group_codes, name)
        if gc is not None:
            return gc[0], gc[1].to_pylist()
        enc = pc.dictionary_encode(self.array(name))
        keys, idx = enc.dictionary.to_pylist(), enc.indices
        if idx.null_count:
            idx = pc.fill_null(idx, len(keys))
            keys.append(None)
        return np.asarray(idx).astype(np.int64), keys

    def distinct(self, name: str) -> tuple[list, int]:
        """(the column's distinct values, rung that answered): 0 = the
        exact distinct list in the chunk's stats, no data byte read;
        1 = the dict/rle dictionary (``encoded_distinct_values``);
        2 = decode + unique.  Rung 0 is skipped for a chunk with NULLs,
        which the stored list leaves out."""
        st = self.stats(name)
        if "distinct" in st and not self.columns[name]["meta"].get("has_nulls"):
            return st["distinct"], 0
        d = self._encoded(encoded_distinct_values, name)
        if d is not None:
            return d, 1
        return pc.unique(self.array(name)).to_pylist(), 2


def read_chunks(path: str, dnf=None, chunk_indices: list[int] | None = None,
                header_info: tuple[dict, int] | None = None):
    """The chunk reader: yield a ``Chunk`` for each chunk of the
    container at ``path`` (those in ``chunk_indices`` if given, in that
    order) whose stored stats can satisfy ``dnf`` (min/max + distinct
    + SBBF, ``pruning.dnf_possible`` — row-group skip,
    skar/src/query/data_provider.rs:250-333).  The file is opened once;
    ``header_info`` is a ``read_header`` result the caller already
    holds."""
    from .pruning import dnf_possible

    header, blob_start = header_info if header_info is not None else read_header(path)
    metas = header["chunks"]
    with open(path, "rb") as f:
        for ci in range(len(metas)) if chunk_indices is None else chunk_indices:
            chunk = Chunk(f, blob_start, ci, metas[ci])
            if dnf_possible(chunk.stats, dnf):
                yield chunk


def read_container(path: str, columns: list[str] | None = None,
                   chunk_indices: list[int] | None = None,
                   dnf=None, encoded_filter: tuple[str, list] | None = None,
                   apply_dnf: bool = False,
                   header_info: tuple[dict, int] | None = None) -> pa.Table:
    """Decode a container back to a pyarrow Table (projected, chunk-pruned).

    ``dnf`` prunes whole chunks via their stats (``read_chunks``).  With
    ``apply_dnf=True`` the full DNF is ALSO evaluated exactly per chunk
    (``Chunk.mask``, on the encoded form where the codec supports it);
    ``encoded_filter`` = (column, values) is the same for one ``in``
    clause.  Only matching rows of the projected columns are returned,
    and chunks with an all-false mask are never decoded.
    """
    header, blob_start = header_info if header_info is not None else read_header(path)
    want = columns or [name for name, _ in header["schema"]]
    if encoded_filter is not None and not apply_dnf:
        fcol, fvals = encoded_filter
        dnf_exact = [[(fcol, "in", sorted(fvals))]]
    else:
        dnf_exact = dnf if apply_dnf else None
    arrays: dict[str, list[pa.Array]] = {name: [] for name in want}
    for chunk in read_chunks(path, dnf, chunk_indices, (header, blob_start)):
        mask = chunk.mask(dnf_exact)
        if mask is not None and not mask.any():
            continue  # no rows match: skip decoding projection entirely
        for name in want:
            if name in chunk.columns:
                arr = chunk.array(name)
                arrays[name].append(arr if mask is None else arr.filter(pa.array(mask)))
    type_by_name = dict(header["schema"])
    out = {}
    for name in want:
        parts = arrays[name]
        t = base.type_from_name(type_by_name[name])
        out[name] = pa.chunked_array(parts) if parts else pa.chunked_array([], type=t)
    return pa.table(out)
