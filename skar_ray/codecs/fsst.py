"""FSST-style static-symbol-table codec for string/binary columns.

Built from scratch following the published FSST idea (Boncz, Neumann,
Leis: "FSST: Fast Random Access String Compression", VLDB 2020): a
small table of byte-sequence symbols (1..8 bytes) is trained per
partition on a sample, and the column's value bytes are rewritten as
1-byte codes.  This replaces the generic page compression the reference
relies on (Plain encoding + Zstd(9) pages,
/root/reference/skar/src/write_parquet.rs:49-53,232-244) with a
column-aware lightweight scheme; the container's zstd page pass can
still run on top of the code stream.

Code-space layout (chosen so ASCII text needs no escapes):
- ``0x00..0x7F``  — literal passthrough: the code IS the byte.
- ``0x80..0xFE``  — up to 127 learned symbols.
- ``0xFF``        — escape: next byte is a literal ``>= 0x80`` byte
                    that is not covered by a learned symbol.

Because the whole concatenated value buffer is encoded in one pass
(symbols may span row boundaries — decode restores the exact byte
stream), row boundaries are carried by the original lengths,
FoR+bit-packed separately.  Training counts n-grams with one sort per
length on exact (rank-composite past 8 bytes) uint64 window keys, only
for columns the container plan may encode as FSST; encoding is a
pyarrow ``replace_substring`` chain over cache-resident pieces;
decoding is one Arrow binary take per escape-free segment.
"""

from __future__ import annotations

import functools

import numpy as np
import pyarrow as pa

from . import base
from .for_bitpack import pack_ints_with_reference, unpack_ints_with_reference

MAX_SYMBOLS = 127
FIRST_CODE = 0x80
ESCAPE = 0xFF
# training window cap: 16 measured best on the code corpus — longer
# symbols save more bytes per replace AND shrink the buffer faster
# (ratio 0.384→0.377, encode 11→13 MB/s/core vs 8); past 16 the ratio
# plateaus while the decode gather matrix widens (45→26 MB/s)
_MAX_LEN = 16


def train_symbols(sample: bytes, max_symbols: int = MAX_SYMBOLS) -> list[bytes]:
    """Pick up to `max_symbols` byte sequences maximising estimated savings.

    Multi-byte symbols are restricted to ASCII (<0x80) bytes: the
    encoder's replace chain relies on inserted code bytes
    (≥0x80) never being part of a later symbol match.  Single-byte
    symbols are allowed for frequent high bytes (saves their escape).

    Windows are grouped by exact uint64 keys, one ``np.unique`` per
    length: ``keys[j]`` is every j-byte window (j ≤ 8) little-endian,
    so a key IS its bytes and the symbol is read back from it.  A
    window of L > 8 bytes is the pair (k1, k2) of its first 8 and last
    j = L - 8 bytes, keyed ``rank(k1) << w | k2``: ``rank`` is the
    dense rank of ``keys[8]`` (16 bits at a 64 KiB sample), and k2 is
    the raw key (w = 8j) while both fit in 64 bits, else its own dense
    rank (two ranks of < 2^32 values always fit).  Both ranks preserve
    order and the low field never overflows its w bits, so ascending
    key order is ascending (k1, k2): the groups, counts and order of
    the window-matrix reference the tests pin, hence the same top-256
    cut and symbols.  Memory: eight key arrays, 64 B per sample byte
    (4 MiB at 64 KiB).
    """
    if len(sample) < 4:
        return []
    buf = np.frombuffer(sample, dtype=np.uint8)
    n = len(buf)
    # frequent high bytes: encoding one as a symbol saves the escape byte
    hi_vals, hi_counts = np.unique(buf[buf >= 0x80], return_counts=True)
    candidates = [(c, bytes([v])) for v, c in zip(hi_vals.tolist(), hi_counts.tolist()) if c >= 4]
    # keys[j][i]: the j bytes at i as a little-endian uint64
    keys = [None, buf.astype(np.uint64)]
    for j in range(2, min(8, n) + 1):
        keys.append(keys[j - 1][: n - j + 1] | keys[1][j - 1 :] << np.uint64(8 * (j - 1)))

    @functools.cache
    def rank(j):  # (sorted unique keys[j], dense rank per window, rank bits)
        u, r = np.unique(keys[j], return_inverse=True)
        return u, r.astype(np.uint64), (len(u) - 1).bit_length()

    # high[i]: high bytes before i; window i..i+L-1 is ASCII iff high[i+L] == high[i]
    high = np.r_[0, np.cumsum(buf >= 0x80)]
    for L in range(2, _MAX_LEN + 1):
        if n <= L:
            break
        m, j = n - L + 1, L - 8  # windows of length L; bytes past the first 8
        keep = high[L:] == high[:m]
        # subsample long windows for speed: scan <= ~512K windows per length
        step = max(1, m // (1 << 19))
        if step > 1:
            starts = np.arange(0, m, step)
            keep = starts[keep[starts]]
        if L <= 8:
            key = keys[L][:m][keep]
        else:
            u8, r8, b8 = rank(8)
            uj, lo, w = (None, keys[j], 8 * j) if j < 8 and b8 + 8 * j <= 64 else rank(j)
            key = r8[:m][keep] << np.uint64(w) | lo[8 : 8 + m][keep]
        grams, counts = np.unique(key, return_counts=True)
        # O(n) top-256, not a full argsort over up to 512K uniques (the cut's
        # tie order is deterministic; refine_symbols re-checks every survivor)
        if len(counts) > 256:
            part = np.argpartition(counts, -256)[-256:]
            top = part[np.argsort(counts[part])[::-1]]
        else:
            top = np.argsort(counts)[::-1]
        c = counts[top] * step
        g, c = grams[top[c >= 4]], c[c >= 4]
        if L > 8:
            k2 = g & np.uint64((1 << w) - 1)
            g = np.stack((u8[g >> np.uint64(w)], k2 if uj is None else uj[k2]), axis=1)
        raw = g.astype("<u8").tobytes()
        syms = [raw[r : r + L] for r in range(0, len(raw), 16 if L > 8 else 8)]
        candidates.extend(zip((c * (L - 1)).tolist(), syms))
    candidates.sort(key=lambda t: (-t[0], t[1]))
    return list(dict.fromkeys(sym for _, sym in candidates))[:max_symbols]


def refine_symbols(
    symbols: list[bytes], sample: bytes, max_loss_frac: float = 0.01
) -> tuple[list[bytes], list[bytes]]:
    """Second training generation ("iterative re-counting"): simulate
    the encode chain on the sample to measure each symbol's REALIZED
    savings — greedy n-gram counting overcounts overlapping candidates
    (" the" / "the " / "he t" all claim the same bytes), so many of the
    127 selected symbols realize almost nothing yet still cost one
    C-scan replace pass per 64 KiB piece at encode time.

    Returns ``(kept_symbols, chain_order)``:
    - drops the lowest-gain tail whose TOTAL realized savings is under
      ``max_loss_frac`` of the sample (bounded size impact; dropped
      matches are partially recaptured by surviving shorter symbols).
      Default 0.01: each surviving symbol costs one C-scan per piece at
      encode time, and the measured sweep (BENCH.md r4) shows 0.002→
      0.01 cuts the chain 49→43 passes for 18% faster encode at +1.6%
      encoded bytes — cheap against the 5.3× compression headroom;
    - orders the remaining chain by realized gain (descending) subject
      to superstring-before-substring, so the highest-gain passes
      shrink the buffer before low-gain passes scan it.
    """
    if not symbols or len(sample) < 4:
        return symbols, [s for s in symbols if len(s) > 1]
    t = SymbolTable(symbols)
    arr = np.frombuffer(sample, dtype=np.uint8)
    gains: dict[bytes, int] = {}
    for s in symbols:
        if len(s) == 1 and s[0] >= 0x80:
            gains[s] = int(np.count_nonzero(arr == s[0]))  # escape byte saved
    if arr.max() >= 0x80:
        data = _escape_splice(t._hi_lut[arr], np.flatnonzero(t._needs_escape[arr]))
    else:
        data = sample
    for sym, code in t._multi:  # longest-first simulation
        # each leftmost non-overlapping match replaced saves len(sym) - 1
        shrunk = data.replace(sym, code)
        gains[sym], data = len(data) - len(shrunk), shrunk
    # drop the tail: cheapest symbols first until the loss budget is spent
    budget = int(len(sample) * max_loss_frac)
    dropped: set[bytes] = set()
    acc = 0
    for s in sorted(symbols, key=lambda s: gains.get(s, 0)):
        g = gains.get(s, 0)
        if acc + g > budget:
            break
        acc += g
        dropped.add(s)
    kept = [s for s in symbols if s not in dropped]
    # gain-desc chain order with the superstring-before-substring
    # constraint (if B ⊂ A and B ran first, A would never match)
    multi = [s for s in kept if len(s) > 1]
    remaining = sorted(multi, key=lambda s: -gains.get(s, 0))
    chain: list[bytes] = []
    placed: set[bytes] = set()
    while remaining:
        progressed = False
        deferred = []
        for s in remaining:
            blockers = [o for o in remaining if o is not s and len(o) > len(s) and s in o]
            if any(o not in placed for o in blockers):
                deferred.append(s)
                continue
            chain.append(s)
            placed.add(s)
            progressed = True
        remaining = deferred
        if not progressed:  # cycle impossible (strict length order), but stay safe
            chain.extend(remaining)
            break
    return kept, chain


_ESC_BYTES = bytes((ESCAPE,))


def _escape_splice(mapped: np.ndarray, idx: np.ndarray) -> bytes:
    """Insert an ESCAPE marker before every byte at position ``idx``.

    Escapes are RARE on ASCII-dominated corpora (measured 6e-7 of
    content bytes), so the hot path is slice-and-join around each
    marker — one buffer copy plus O(n_esc) Python slices (~0.03 s vs
    np.insert's 0.28 s full masked copy on a 30 MB column).  Above
    ~0.1% density the per-escape Python cost crosses over and
    np.insert's vectorised path wins."""
    if idx.size == 0:
        return mapped.tobytes()
    if idx.size > max(1024, len(mapped) >> 10):
        return np.insert(mapped, idx, ESCAPE).tobytes()
    mb = mapped.tobytes()
    parts = []
    prev = 0
    for p in idx.tolist():
        parts.append(mb[prev:p])
        parts.append(_ESC_BYTES)
        prev = p
    parts.append(mb[prev:])
    return b"".join(parts)


class SymbolTable:
    def __init__(self, symbols: list[bytes], chain: list[bytes] | None = None):
        self.symbols = symbols
        self.code_of = {s: FIRST_CODE + i for i, s in enumerate(symbols)}
        # encoder: multi-byte ASCII symbols applied as a replace
        # chain (a replace can never match across an
        # inserted code byte since codes are >= 0x80 and symbols are
        # pure ASCII — so ANY chain order is bit-exact; order only
        # affects ratio/speed); high single bytes mapped via LUT.
        # Default order longest-first (a symbol's superstrings must run
        # before it or they never match); ``chain`` overrides with a
        # trained order (realized-gain-first, substring-constrained —
        # high-gain passes shrink the buffer before low-gain passes
        # scan it, see refine_symbols).
        if chain is None:
            chain = sorted((s for s in symbols if len(s) > 1), key=len, reverse=True)
        self._multi = [(s, bytes((self.code_of[s],))) for s in chain if len(s) > 1]
        self._hi_lut = np.arange(256, dtype=np.uint8)
        self._needs_escape = np.zeros(256, dtype=bool)
        self._needs_escape[0x80:] = True
        self._hi_identity = True
        for i, s in enumerate(symbols):
            if len(s) == 1 and s[0] >= 0x80:
                self._hi_lut[s[0]] = FIRST_CODE + i
                self._needs_escape[s[0]] = False
                self._hi_identity = False
        # decode table: a 256-entry variable-length binary Arrow array,
        # code -> symbol bytes.  ``pc.take(sym_arr, codes)`` materializes
        # the concatenated expansion directly in its value buffer (an
        # Arrow BinaryArray's data buffer IS its values in order), so
        # decode touches exactly output-size bytes — measured 4.4×
        # faster than the prior padded mask-gather, whose cost scaled
        # with the LONGEST symbol width (BENCH.md r5 addendum 2).
        expand = [bytes((b,)) for b in range(0x80)] + [b""] * 128
        for i, s in enumerate(symbols):
            expand[FIRST_CODE + i] = s
        self._sym_arr = pa.array(expand, type=pa.binary())

    def serialize(self) -> bytes:
        return base.pack_sections(*self.symbols) if self.symbols else base.pack_sections()

    @classmethod
    def deserialize(cls, blob: bytes) -> "SymbolTable":
        return cls(base.unpack_sections(blob))

    # ------------------------------------------------------------ encode

    # cache-resident piece for the replace chain (the encode's
    # DRAM-heaviest window — piece size trades L1/L2 residency against
    # per-piece chain overhead; the scaling-contention experiments are
    # recorded in BENCH.md)
    _PIECE = 64 << 10
    # pieces per pyarrow binary-array group (bytes): the chain runs
    # start-to-finish within each group so the working set stays
    # cache-resident at many workers, while grouping amortizes the
    # per-call overhead
    _GROUP = 256 << 10

    def encode_buffer(self, data: bytes) -> bytes:
        """Two passes, no per-match Python:
        1. vectorised high-byte pass — map single-byte high symbols to
           their codes (LUT) and splice escape markers before the rest;
        2. the gain-ordered replace chain over ~64 KiB pieces so the
           passes stay L2-resident — on a whole multi-MB buffer the
           chain is memory-bandwidth-bound and parallel workers fight
           for DRAM (measured 2× faster per core, near-linear at 32
           workers; flat 16 KiB–1 MiB, 2× collapse at 16 MiB).  A
           symbol spanning a piece boundary is simply left literal —
           bit-exact either way, ratio loss < 0.1%.  Each pass is one
           ``pc.replace_substring`` over a binary array of a ~256 KiB
           group of pieces — measured 1.37× a ``bytes.replace`` loop
           with BIT-IDENTICAL output (same leftmost non-overlapping
           scan; pinned equal to that loop by
           ``test_arrow_chain_matches_bytes_replace``)."""
        if not data:
            return data
        arr = np.frombuffer(data, dtype=np.uint8)
        if self._hi_identity:
            # no high single-byte symbols -> the LUT is identity; skip
            # the 30 MB gather and escape every high byte in place
            hi = np.flatnonzero(arr >= 0x80)
            if hi.size:
                data = _escape_splice(arr, hi)
        elif arr.max() >= 0x80:
            data = _escape_splice(
                self._hi_lut[arr], np.flatnonzero(self._needs_escape[arr])
            )
        if not self._multi:
            return data
        # pyarrow binary replace chain: byte patterns on binary arrays —
        # no latin-1/UTF-8 conversion anywhere (a polars str chain was
        # tried first and LOST at job level: code bytes >= 0x80 are
        # 2-byte UTF-8 in its string buffers, so the working set doubles
        # as encoding progresses — 1.3× faster single-core, 1.5× slower
        # at 32 workers).  The chain runs start-to-finish within each
        # ~256 KiB group of pieces so the working set stays
        # cache-resident at many workers; one pass over ALL pieces per
        # symbol would be a full-buffer DRAM sweep per pass (measured
        # 1.4× slower even single-core).
        import pyarrow.compute as _pc

        pieces = [data[s : s + self._PIECE] for s in range(0, len(data), self._PIECE)]
        grp = max(1, self._GROUP // self._PIECE)
        parts = []
        for g in range(0, len(pieces), grp):
            arr = pa.array(pieces[g : g + grp], type=pa.binary())
            for sym, code in self._multi:
                arr = _pc.replace_substring(arr, pattern=sym, replacement=code)
            # the data buffer IS the concatenated values; slice by the
            # logical offsets (buffers may carry padding past the last
            # offset, so index by array length)
            offs = np.frombuffer(arr.buffers()[1], np.int32)
            lo = int(offs[arr.offset])
            hi = int(offs[arr.offset + len(arr)])
            parts.append(memoryview(arr.buffers()[2])[lo:hi].tobytes())
        return b"".join(parts)

    # ------------------------------------------------------------ decode

    def _expand(self, codes: np.ndarray) -> bytes:
        """Vectorised expansion of an escape-free code segment via one
        Arrow take (see ``__init__``).  Chunked only to bound the int32
        offsets buffer of the take result (4 bytes/code)."""
        if len(codes) == 0:
            return b""
        import pyarrow.compute as pc

        out = []
        CH = 1 << 22  # 4M codes/chunk -> 16 MB offsets temp
        for s in range(0, len(codes), CH):
            taken = pc.take(self._sym_arr, pa.array(codes[s : s + CH]))
            offs = np.frombuffer(taken.buffers()[1], np.int32)
            lo = int(offs[taken.offset])
            hi = int(offs[taken.offset + len(taken)])
            out.append(memoryview(taken.buffers()[2])[lo:hi].tobytes())
        return b"".join(out)

    def decode_buffer(self, enc: bytes) -> bytes:
        codes = np.frombuffer(enc, dtype=np.uint8)
        cand = np.flatnonzero(codes == ESCAPE)
        if len(cand) == 0:
            return self._expand(codes)
        # sequential scan over escape candidates (rare): a candidate at p
        # is a real marker unless it is the literal of the marker at p-1
        markers = []
        skip_until = -1
        for p in cand.tolist():
            if p < skip_until:
                continue
            markers.append(p)
            skip_until = p + 2
        parts = []
        prev = 0
        for p in markers:
            parts.append(self._expand(codes[prev:p]))
            parts.append(enc[p + 1 : p + 2])  # the escaped literal byte
            prev = p + 2
        parts.append(self._expand(codes[prev:]))
        return b"".join(parts)


class FsstCodec:
    name = "fsst"

    # 64 KiB sampled as 16 stride pieces: swept 32/48/64/128 KiB × 8/16/32
    # pieces on three 11 MB corpus partitions (BENCH.md r5 addendum 2) —
    # 64 KiB/16 trains 2× faster than the prior 128 KiB at equal-or-better
    # ratio (payload 0.394 vs 0.405, post-zstd 0.0453 vs 0.0455)
    def __init__(self, sample_bytes: int = 1 << 16):
        self.sample_bytes = sample_bytes

    def can_encode(self, t: pa.DataType) -> bool:
        return base.is_string_like(t)

    def make_table(self, data: bytes) -> SymbolTable:
        if len(data) > self.sample_bytes:
            # stride-sample contiguous slices across the buffer
            k = 16
            piece = self.sample_bytes // k
            stride = len(data) // k
            sample = b"".join(data[i * stride : i * stride + piece] for i in range(k))
        else:
            sample = data
        syms = train_symbols(sample)
        kept, chain = refine_symbols(syms, sample)
        return SymbolTable(kept, chain=chain)

    def encode(self, arr: pa.Array, table: SymbolTable | None = None) -> tuple[bytes, dict]:
        nulls, filled = base.split_nulls(arr)
        lengths, data = base.strings_to_buffers(filled)
        if table is None:
            table = self.make_table(data)
        enc = table.encode_buffer(data)
        lens_payload, lens_meta = pack_ints_with_reference(lengths)
        meta = {
            "lens_meta": lens_meta,
            "n_syms": len(table.symbols),
            "has_nulls": nulls is not None,
        }
        payload = base.pack_sections(nulls or b"", lens_payload, table.serialize(), enc)
        return payload, meta

    def decode(self, payload: bytes, meta: dict, n: int) -> pa.Array:
        t = base.type_from_name(meta["type"])
        nulls_b, lens_payload, table_blob, enc = base.unpack_sections(payload)
        table = SymbolTable.deserialize(table_blob)
        lengths = unpack_ints_with_reference(lens_payload, meta["lens_meta"], n)
        data = table.decode_buffer(enc)
        arr = base.strings_from_buffers(lengths.astype(np.int64), data, t)
        return base.apply_nulls(arr, nulls_b if meta.get("has_nulls") else None, n)


base.register(FsstCodec())
