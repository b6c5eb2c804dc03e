"""`.skarc` container — one file per partition of encoded columns.

Layout: ``b"SKRC1\\n"`` magic, u64 little-endian header length, JSON
header, blob area.  The header holds the schema and, per chunk ("row
group" analog — the reference slices sorted chunks into 10k-row row
groups, /root/reference/skar/src/write_parquet.rs:83-103), per column:
codec name, codec meta, page codec, offsets into the blob area and the
size triple (raw arrow bytes / codec payload bytes / final blob bytes).

Written atomically: the caller writes to ``<path>.tmp`` and renames —
the reference's temp-folder + rename publish step
(/root/reference/skar/src/skar_runner.rs:296-321).
"""

from __future__ import annotations

import json
import os
import struct

import pyarrow as pa
import pyarrow.compute as pc

from ..codecs import auto, base

MAGIC = b"SKRC1\n"
MAGIC2 = b"SKRC2\n"  # v2: zstd-compressed JSON header (chunk stats +
#                      SBBF sketches compress ~3-4×); readers accept both


def _chunk_stats(name: str, col) -> dict | None:
    """Typed per-chunk pruning stats — the reference's per-row-group
    min/max + distinct sets + blooms (build_parquet_idx.rs:50-115).
    {"min","max","t"} always (typed, compared natively by
    state.pruning); for non-content string columns also an exact
    distinct list (≤64 values) or an SBBF sketch (≤50k distinct) so
    point lookups on high-cardinality columns (path, commit) skip
    chunk decodes.  Legacy containers hold a [lo, hi] string list."""
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


def _plan_column(col, codec_override: str | None = None):
    """Partition-level codec plan for ONE column: auto-select the codec
    on a sample unless ``codec_override`` names it, and train one FSST
    symbol table (reused across chunks) only when FSST can be chosen —
    no override or an ``"fsst"`` override — and the column is
    high-cardinality string-like.  Any other override skips the sample,
    the distinct count and the training.  Shared by write_container and
    append_column so a derived column gets exactly the same codec
    treatment as an encode-time one."""
    if isinstance(col, pa.ChunkedArray):
        col = col.combine_chunks()
    fsst_table = None
    if codec_override in (None, "fsst") and base.is_string_like(col.type) and len(col):
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


def write_container(path: str, table: pa.Table, chunk_rows: list[tuple[int, int]] | None = None,
                    codec_overrides: dict[str, str] | None = None,
                    extra: dict | None = None, validator=None) -> dict:
    """Encode `table` chunk-by-chunk and write the container atomically.

    ``chunk_rows`` is a list of (offset, length) slices; default one
    chunk.  Returns the header dict (with per-column byte accounting).

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

    # partition-level codec plan: select ONCE per column (sampled), and
    # train ONE FSST symbol table per column per partition (the
    # north-star's per-partition symbol tables) reused across chunks —
    # per-chunk re-training/re-selection would dominate encode time.
    # Only columns that can end up FSST train: an override naming any
    # other codec skips training altogether.
    plan: dict[str, tuple[str, object, dict]] = {}
    for name in table.column_names:
        _, codec, fsst_table, estimates = _plan_column(
            table.column(name), codec_overrides.get(name)
        )
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


def append_column(path: str, name: str, column, codec: str | None = None,
                  validator=None) -> dict:
    """Append a derived column to an existing container WITHOUT
    re-encoding the existing ones: blob offsets are relative to the
    blob region, so every existing blob is copied VERBATIM and stays
    addressable; the new column's chunk blobs land at the end of the
    region.  Chunk boundaries are taken from the container (the derived
    column must align row-for-row), chunk min/max stats are written so
    chunk pruning works on the derived column, and the rewrite is
    atomic (temp + optional validator + rename) like write_container.
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
    hjson = json.dumps(header).encode("utf-8")
    hz = pa.Codec("zstd", compression_level=3).compress(hjson).to_pybytes()
    tmp = f"{path}.tmp-{os.getpid()}"
    with open(tmp, "wb") as f:
        f.write(MAGIC2)
        f.write(struct.pack("<QQ", len(hz), len(hjson)))
        f.write(hz)
        f.write(old_blobs)
        for b in new_blobs:
            f.write(b)
    if validator is not None:
        try:
            validator(tmp)
        except Exception:
            os.unlink(tmp)
            raise
    os.replace(tmp, path)
    return header


def drop_column(path: str, name: str, validator=None) -> dict:
    """Drop a column and RECLAIM its bytes: surviving blobs are copied
    verbatim (no re-encode) with offsets re-sequenced, the schema entry
    and per-chunk metas removed, and the rewrite published atomically
    like write_container.  Refuses to drop the last column."""
    header, blob_start = read_header(path)
    names = [n for n, _ in header["schema"]]
    if name not in names:
        raise ValueError(f"column {name!r} not in {path}")
    if len(names) == 1:
        raise ValueError("cannot drop the last column")
    new_blobs: list[bytes] = []
    off = 0
    with open(path, "rb") as f:
        for ch in header["chunks"]:
            kept = []
            for cm in ch["columns"]:
                if cm["name"] == name:
                    continue
                f.seek(blob_start + cm["offset"])
                b = f.read(cm["length"])
                cm = dict(cm)
                cm["offset"] = off
                kept.append(cm)
                new_blobs.append(b)
                off += len(b)
            ch["columns"] = kept
    header["schema"] = [e for e in header["schema"] if e[0] != name]
    hjson = json.dumps(header).encode("utf-8")
    hz = pa.Codec("zstd", compression_level=3).compress(hjson).to_pybytes()
    tmp = f"{path}.tmp-{os.getpid()}"
    with open(tmp, "wb") as f:
        f.write(MAGIC2)
        f.write(struct.pack("<QQ", len(hz), len(hjson)))
        f.write(hz)
        for b in new_blobs:
            f.write(b)
    if validator is not None:
        try:
            validator(tmp)
        except Exception:
            os.unlink(tmp)
            raise
    os.replace(tmp, path)
    return header


def read_header(path: str) -> tuple[dict, int]:
    with open(path, "rb") as f:
        magic = f.read(len(MAGIC))
        if magic == MAGIC2:
            hz_len, raw_len = struct.unpack("<QQ", f.read(16))
            hjson = pa.Codec("zstd").decompress(f.read(hz_len), raw_len).to_pybytes()
            return json.loads(hjson.decode("utf-8")), len(MAGIC2) + 16 + hz_len
        if magic != MAGIC:
            raise ValueError(f"bad container magic in {path}")
        (hlen,) = struct.unpack("<Q", f.read(8))
        header = json.loads(f.read(hlen).decode("utf-8"))
    return header, len(MAGIC) + 8 + hlen


def _dict_value_mask(dict_vals: pa.Array, op: str, value) -> "np.ndarray":
    """Boolean mask over the (small) dictionary values for any DNF op —
    the same dispatch as the decode path (pruning.clause_compute), so
    dict/rle-coded chunks can never evaluate an op differently from
    other codecs."""
    import numpy as np

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
    import numpy as np

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


def encoded_equality_mask(blob: bytes, cm: dict, values: list) -> "np.ndarray | None":
    """Back-compat shim: ``col ∈ values`` on the encoded form."""
    return encoded_clause_mask(blob, cm, "in", values)


def encoded_group_codes(blob: bytes, cm: dict):
    """(per-row integer code stream, dictionary values) for a dict/rle
    chunk — the grouped-aggregation building block: group keys stay as
    small ints, only the dictionary decodes.  None when unsupported."""
    import numpy as np

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
    import numpy as np

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


def encoded_value_counts(blob: bytes, cm: dict) -> "dict | None":
    """Per-value row counts computed directly on the ENCODED form —
    aggregate pushdown, the GROUP-BY analog of ``encoded_clause_mask``:
    dict chunks bincount their index stream, rle chunks sum run lengths
    per code; only the (small) dictionary ever decodes, the value
    column is never materialized.  Returns None when the codec/meta
    doesn't support it (caller decodes and counts — exact either way)."""
    import numpy as np

    from ..codecs.for_bitpack import bitunpack, unpack_ints_with_reference
    from ..codecs.plain import PlainCodec

    meta = cm["meta"]
    if meta.get("has_nulls"):
        return None
    if cm["codec"] not in ("dict", "rle"):
        return None
    n = meta["n"]
    payload = auto.page_decompress(blob, cm["page"], cm["payload_len"])
    plain = PlainCodec()
    if cm["codec"] == "dict":
        _nulls, idx_payload, val_payload = base.unpack_sections(payload)
        vm = meta["values_meta"]
        dict_vals = plain.decode(val_payload, vm, vm["n"])
        indices = bitunpack(idx_payload, meta["width"], n).astype(np.int64)
        counts = np.bincount(indices, minlength=len(dict_vals))
    else:
        _nulls, codes_payload, lens_payload, val_payload = base.unpack_sections(payload)
        k = meta["n_runs"]
        run_codes = unpack_ints_with_reference(codes_payload, meta["codes_meta"], k).astype(np.int64)
        run_lens = unpack_ints_with_reference(lens_payload, meta["lens_meta"], k).astype(np.int64)
        vm = meta["values_meta"]
        dict_vals = plain.decode(val_payload, vm, vm["n"])
        counts = np.zeros(len(dict_vals), dtype=np.int64)
        np.add.at(counts, run_codes, run_lens)  # integer-exact
    return {
        v: int(c) for v, c in zip(dict_vals.to_pylist(), counts.tolist()) if c
    }


def _chunk_stats_of(ch) -> "callable":
    """stats_of(col) over a chunk's stored per-column stats (typed dict
    with optional distinct/bloom; legacy [lo, hi] string pair)."""
    mm = {cm["name"]: cm.get("minmax") for cm in ch["columns"] if cm.get("minmax")}

    def stats_of(c):
        st = mm.get(c)
        if st is None:
            return {}
        if isinstance(st, list):  # legacy [lo, hi] string pair
            return {"min": st[0], "max": st[1], "t": "s"}
        return st

    return stats_of


def read_container(path: str, columns: list[str] | None = None,
                   chunk_indices: list[int] | None = None,
                   dnf=None, encoded_filter: tuple[str, list] | None = None,
                   apply_dnf: bool = False,
                   header_info: tuple[dict, int] | None = None) -> pa.Table:
    """Decode a container back to a pyarrow Table (projected, chunk-pruned).

    Mirrors the reference's projected + row-group-pruned Parquet reader
    (/root/reference/skar/src/query/data_provider.rs:121-183).  ``dnf``
    prunes whole chunks via their per-column stats (min/max + distinct
    + SBBF — row-group skip, data_provider.rs:250-333, indexes
    build_parquet_idx.rs:50-115).  With ``apply_dnf=True`` the full DNF
    is ALSO evaluated exactly per chunk, on the encoded form where the
    codec supports it (``encoded_clause_mask``) and by decode+compare
    otherwise; only matching rows of the projected columns are
    returned, and chunks with an all-false mask are never decoded.
    """
    import numpy as np

    header, blob_start = header_info if header_info is not None else read_header(path)
    schema_cols = [name for name, _ in header["schema"]]
    want = columns or schema_cols
    chunks = header["chunks"]
    if chunk_indices is not None:
        chunks = [chunks[i] for i in chunk_indices]
    if dnf:
        from .pruning import dnf_possible

        chunks = [ch for ch in chunks if dnf_possible(_chunk_stats_of(ch), dnf)]
    if encoded_filter is not None and not apply_dnf:
        fcol, fvals = encoded_filter
        dnf_exact = [[(fcol, "in", sorted(fvals))]]
    elif apply_dnf and dnf:
        dnf_exact = dnf
    else:
        dnf_exact = None
    arrays: dict[str, list[pa.Array]] = {name: [] for name in want}
    with open(path, "rb") as f:

        def read_blob(cm):
            f.seek(blob_start + cm["offset"])
            return f.read(cm["length"])

        for ch in chunks:
            metas = {cm["name"]: cm for cm in ch["columns"]}
            decoded: dict[str, pa.Array] = {}

            def col_decoded(name):
                if name not in decoded:
                    cm = metas[name]
                    decoded[name] = auto.decode_column(
                        read_blob(cm), cm["meta"], cm["page"], cm["payload_len"]
                    )
                return decoded[name]

            mask = None
            if dnf_exact:
                def clause_mask(col, op, value):
                    cm = metas[col]
                    if col not in decoded:
                        m = encoded_clause_mask(read_blob(cm), cm, op, value)
                        if m is not None:
                            return m
                    arr = col_decoded(col)
                    from .pruning import clause_compute

                    return np.asarray(pc.fill_null(clause_compute(arr, op, value), False))

                mask = None
                for conj in dnf_exact:
                    m = None
                    for col, op, value in conj:
                        cmask = clause_mask(col, op, value)
                        m = cmask if m is None else (m & cmask)
                        if not m.any():
                            break
                    mask = m if mask is None else (mask | m)
                if mask is not None and not mask.any():
                    continue  # no rows match: skip decoding projection entirely
            for name in want:
                if name not in metas:
                    continue
                arr = col_decoded(name)
                if mask is not None:
                    arr = arr.filter(pa.array(mask))
                arrays[name].append(arr)
    type_by_name = dict(header["schema"])
    out = {}
    for name in want:
        parts = arrays[name]
        t = base.type_from_name(type_by_name[name])
        out[name] = pa.chunked_array(parts) if parts else pa.chunked_array([], type=t)
    return pa.table(out)
