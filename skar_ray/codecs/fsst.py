"""FSST-style static-symbol-table codec for string/binary columns.

Built from scratch following the published FSST idea (Boncz, Neumann,
Leis: "FSST: Fast Random Access String Compression", VLDB 2020): a small
table of byte-sequence symbols is trained on a sample — once per hashed
encode for ``content``, on pieces of every input file, else per
partition — and every container embeds it; value bytes become 1-byte
codes.  This replaces the generic page compression the reference relies
on (Plain encoding + Zstd(9) pages, skar/src/write_parquet.rs:49-53,
232-244) with a column-aware lightweight scheme; the container's zstd
page pass can still run on top of the code stream.

Code-space layout (chosen so ASCII text needs no escapes):
- ``0x00..0x7F``  — literal passthrough: the code IS the byte.
- ``0x80..0xFE``  — up to 127 learned symbols.
- ``0xFF``        — escape: next byte is a literal ``>= 0x80`` byte
                    that is not covered by a learned symbol.

Because the whole concatenated value buffer is encoded in one pass
(symbols may span row boundaries — decode restores the exact byte
stream), row boundaries are carried by the original lengths,
FoR+bit-packed separately.  Training counts the n-grams of every
length from one sort of 16-byte prefixes and cuts all candidates once,
only for columns the container plan may encode as FSST; encoding is a
pyarrow ``replace_substring`` chain over cache-resident pieces;
decoding is one Arrow binary take per escape-free segment.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from . import base
from .for_bitpack import pack_ints_with_reference, unpack_ints_with_reference

MAX_SYMBOLS = 127
FIRST_CODE = 0x80
ESCAPE = 0xFF
# training window cap: 16 measured best on the code corpus — longer
# symbols save more bytes per replace AND shrink the buffer faster
# (ratio 0.384→0.377, encode 11→13 MB/s/core vs 8); past 16 the ratio
# plateaus
_MAX_LEN = 16
# x < _BYTE_STEPS[j] for as many j as the uint64 x has leading zero bytes
_BYTE_STEPS = np.uint64(1) << np.arange(0, 64, 8, dtype=np.uint64)


def train_symbols(sample: bytes, max_symbols: int = MAX_SYMBOLS) -> list[bytes]:
    """Pick up to `max_symbols` byte sequences maximising estimated savings.

    Multi-byte symbols are restricted to ASCII (<0x80) bytes: the
    encoder's replace chain relies on inserted code bytes
    (≥0x80) never being part of a later symbol match.  Single-byte
    symbols are allowed for frequent high bytes (saves their escape).

    The rule: every ASCII window of 2..16 bytes counted at least 4
    times gains ``count * (L - 1)``, every high byte counted at least 4
    times gains its count, and the top ``max_symbols`` by (-gain,
    bytes) win.  Past 512 Ki windows of one length only every step-th
    start is counted, and the count is scaled by the step.

    All lengths are counted from one sort: positions ordered by their
    first 16 bytes (padded with 0xFF past the end), keyed ``rank(i) <<
    b | rank(i + 8)`` with ``rank`` the dense rank of the big-endian
    8-byte key.  The common prefix of sorted neighbours (from the XOR
    of their keys) splits the order into runs, and the runs where it is
    at least L are the distinct L-byte windows.  A window's bytes are
    ASCII for all of a run or for none of it (the padding is high
    bytes), so a run's size is its count.  Without striding, a run
    dropped at one length only splits into runs dropped at the next, so
    it leaves the order.
    """
    if len(sample) < 4:
        return []
    n = len(sample)
    pad = np.frombuffer(sample + b"\xff" * 15, dtype=np.uint8)
    # frequent high bytes: encoding one as a symbol saves the escape byte
    hi = np.flatnonzero(pad[:n] >= 0x80)
    _, first, hi_counts = np.unique(pad[hi], return_index=True, return_counts=True)
    # k8[i]: the 8 bytes at i as a big-endian uint64
    k8 = pad[: n + 8].astype(np.uint64) << np.uint64(56)
    for j in range(1, 8):
        k8 |= pad[j : j + n + 8].astype(np.uint64) << np.uint64(56 - 8 * j)
    u8, r8 = np.unique(k8, return_inverse=True)
    b = np.uint64((len(u8) - 1).bit_length())
    order = np.argsort(r8[:n].astype(np.uint64) << b | r8[8:].astype(np.uint64))
    # lcp[k]: bytes sorted position k shares with k - 1 (0 at k = 0, at most 16)
    x = k8[order[1:]] ^ k8[order[:-1]]
    lcp = np.zeros(n, dtype=np.int8)
    lcp[1:] = sum(x < t for t in _BYTE_STEPS)
    eq = np.flatnonzero(x == 0) + 1
    y = k8[order[eq] + 8] ^ k8[order[eq - 1] + 8]
    lcp[eq] += sum(y < t for t in _BYTE_STEPS)
    # lim[i]: the longest ASCII window at i
    nxt = np.where(pad >= 0x80, np.arange(len(pad)), len(pad))
    lim = np.minimum.accumulate(nxt[::-1])[::-1][:n] - np.arange(n)
    # candidates: gains and refs (start * 32 + length)
    gains, refs = [hi_counts[hi_counts >= 4]], [hi[first[hi_counts >= 4]] * 32 + 1]
    for L in range(2, min(_MAX_LEN, n) + 1):
        step = max(1, (n - L + 1) >> 19)
        starts = np.flatnonzero(lcp < L)
        if step == 1:
            cnt = np.diff(starts, append=len(order))
        else:
            cnt = np.add.reduceat(order % step == 0, starts) * step
        head = order[starts]
        sel = (cnt >= 4) & (lim[head] >= L)
        gains.append(cnt[sel] * (L - 1))
        refs.append(head[sel] * 32 + L)
        if step == 1:
            keep = np.repeat(sel, cnt)
            order, lcp = order[keep], lcp[keep]
            if not len(order):
                break
    gain, ref = np.concatenate(gains), np.concatenate(refs)
    if len(gain) > max_symbols:  # one cut; ties at it go by bytes below
        top = np.flatnonzero(gain >= np.partition(gain, -max_symbols)[-max_symbols])
        gain, ref = gain[top], ref[top]
    cands = sorted((-g, sample[r >> 5 : (r >> 5) + (r & 31)]) for g, r in zip(gain.tolist(), ref.tolist()))
    return [s for _, s in cands[:max_symbols]]


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
        # no latin-1/UTF-8 conversion anywhere (a replace chain over
        # UTF-8 strings was tried first and LOST at job level: code bytes
        # >= 0x80 are 2-byte UTF-8 in string buffers, so the working set doubles
        # as encoding progresses — 1.3× faster single-core, 1.5× slower
        # at 32 workers).  The chain runs start-to-finish within each
        # ~256 KiB group of pieces so the working set stays
        # cache-resident at many workers; one pass over ALL pieces per
        # symbol would be a full-buffer DRAM sweep per pass (measured
        # 1.4× slower even single-core).
        pieces = [data[s : s + self._PIECE] for s in range(0, len(data), self._PIECE)]
        grp = max(1, self._GROUP // self._PIECE)
        parts = []
        for g in range(0, len(pieces), grp):
            arr = pa.array(pieces[g : g + grp], type=pa.binary())
            for sym, code in self._multi:
                arr = pc.replace_substring(arr, pattern=sym, replacement=code)
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


# 64 KiB sampled as 16 stride pieces: swept 32/48/64/128 KiB × 8/16/32
# pieces on three 11 MB corpus partitions (BENCH.md r5 addendum 2) —
# 64 KiB/16 trains 2× faster than the prior 128 KiB at equal-or-better
# ratio (payload 0.394 vs 0.405, post-zstd 0.0453 vs 0.0455)
_TRAIN_SAMPLE_BYTES = 1 << 16


class FsstCodec:
    name = "fsst"

    def can_encode(self, t: pa.DataType) -> bool:
        return base.is_string_like(t)

    def make_table(self, data: bytes) -> SymbolTable:
        if len(data) > _TRAIN_SAMPLE_BYTES:
            # stride-sample contiguous slices across the buffer
            k = 16
            piece = _TRAIN_SAMPLE_BYTES // k
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
