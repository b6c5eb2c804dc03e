"""Property-based codec round-trips (hypothesis) — randomized analog of
the reference's scalar edge tests (format/src/types/quantity.rs:117-189)."""

from collections import Counter

import numpy as np
import pyarrow as pa
from hypothesis import HealthCheck, Phase, given, settings
from hypothesis import strategies as st

from skar_ray.codecs import decode_array, encode_array
from skar_ray.codecs.fsst import (
    _MAX_LEN,
    MAX_SYMBOLS,
    SymbolTable,
    _escape_splice,
    refine_symbols,
    train_symbols,
)

_SETTINGS = dict(
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
    # no shrink phase: minimising a failing 8 KiB trainer input against
    # the brute-force oracle takes minutes, so a regression would stall
    # the suite instead of reporting the example it found
    phases=[Phase.explicit, Phase.reuse, Phase.generate, Phase.target],
)

texts = st.lists(
    st.one_of(st.none(), st.text(max_size=200)),
    max_size=80,
)
ints = st.lists(
    st.one_of(st.none(), st.integers(min_value=-(2**62), max_value=2**62)),
    max_size=80,
)
floats = st.lists(
    st.one_of(st.none(), st.floats(allow_nan=False, width=64)),
    max_size=80,
)
payloads = st.binary(max_size=4096)


@settings(**_SETTINGS)
@given(vals=texts, codec=st.sampled_from(["plain", "dict", "rle", "fsst"]))
def test_string_codecs_roundtrip(vals, codec):
    arr = pa.array(vals, type=pa.string())
    payload, meta = encode_array(arr, codec)
    assert decode_array(payload, meta).equals(arr)


@settings(**_SETTINGS)
@given(vals=ints, codec=st.sampled_from(["plain", "dict", "rle", "for_bitpack", "delta"]))
def test_int_codecs_roundtrip(vals, codec):
    arr = pa.array(vals, type=pa.int64())
    payload, meta = encode_array(arr, codec)
    assert decode_array(payload, meta).equals(arr)


@settings(**_SETTINGS)
@given(vals=floats, codec=st.sampled_from(["plain", "dict", "rle"]))
def test_float_codecs_roundtrip(vals, codec):
    arr = pa.array(vals, type=pa.float64())
    payload, meta = encode_array(arr, codec)
    assert decode_array(payload, meta).equals(arr)


@settings(**_SETTINGS)
@given(data=payloads, train_on=payloads)
def test_fsst_buffer_roundtrip_any_bytes(data, train_on):
    """decode(encode(x)) == x for arbitrary byte strings under a table
    trained on unrelated bytes (worst-case table mismatch)."""
    t = SymbolTable(train_symbols(train_on))
    assert t.decode_buffer(t.encode_buffer(data)) == data


@settings(**_SETTINGS)
@given(data=st.binary(min_size=1, max_size=65536 * 3))
def test_fsst_piece_boundaries(data):
    """Round-trip across the 64 KiB piece boundary of the encoder."""
    t = SymbolTable(train_symbols(data))
    assert t.decode_buffer(t.encode_buffer(data)) == data


def _window_counts_reference(w: np.ndarray, L: int) -> tuple[np.ndarray, np.ndarray]:
    """(first_index, count) per distinct window row — integer-keyed
    grouping instead of an L-byte void view: the int sort is ~10×
    faster than void lexicographic compares (measured 0.035 s → 0.004 s
    per length on the 128 KiB training sample).  L ≤ 8 packs the bytes
    losslessly into one uint64 key; 8 < L ≤ 16 packs into TWO uint64
    words and groups via a stable two-key lexsort — still exact (a
    prior FNV rolling hash here had ~1e-9 collision odds that could
    merge two windows' counts; this keeps the speed without the odds)."""
    if L <= 8:
        pad = np.zeros((len(w), 8), dtype=np.uint8)
        pad[:, :L] = w
        key = pad.view(np.uint64).ravel()
        _, idx, counts = np.unique(key, return_index=True, return_counts=True)
        return idx, counts
    if L > 16:
        raise ValueError(f"window length {L} > 16 unsupported")
    pad = np.zeros((len(w), 16), dtype=np.uint8)
    pad[:, :L] = w
    k = pad.view(np.uint64).reshape(-1, 2)
    k1, k2 = k[:, 0], k[:, 1]
    order = np.lexsort((k2, k1))  # stable: first index per group survives
    s1, s2 = k1[order], k2[order]
    new = np.empty(len(order), dtype=bool)
    new[0] = True
    new[1:] = (s1[1:] != s1[:-1]) | (s2[1:] != s2[:-1])
    starts = np.flatnonzero(new)
    counts = np.diff(np.append(starts, len(order)))
    # lexsort is stable, but ties keep ORIGINAL order only within equal
    # (k1,k2) groups — order[starts] is the group's lowest original
    # index, matching np.unique(return_index=True) semantics
    idx = order[starts]
    return idx, counts


def _train_symbols_reference(sample: bytes, max_symbols: int = MAX_SYMBOLS) -> list[bytes]:
    """The window-matrix trainer ``train_symbols`` replaced, kept
    verbatim as the exactness reference: a void/first-index grouping
    per length over a copied L-column window matrix."""
    if len(sample) < 4:
        return []
    buf = np.frombuffer(sample, dtype=np.uint8)
    candidates: list[tuple[int, bytes]] = []
    # frequent high bytes: encoding one as a symbol saves the escape byte
    hi_vals, hi_counts = np.unique(buf[buf >= 0x80], return_counts=True)
    for v, c in zip(hi_vals.tolist(), hi_counts.tolist()):
        if c >= 4:
            candidates.append((c, bytes([v])))
    for L in range(2, _MAX_LEN + 1):
        if len(buf) <= L:
            break
        win = np.lib.stride_tricks.sliding_window_view(buf, L)
        # subsample long windows for speed: scan <= ~512K windows per length
        step = max(1, len(win) // (1 << 19))
        win = win[::step]
        ascii_only = (win < 0x80).all(axis=1)
        win = np.ascontiguousarray(win[ascii_only])
        if len(win) == 0:
            continue
        idx, counts = _window_counts_reference(win, L)
        if len(counts) == 0:
            continue
        # O(n) top-256 instead of a full argsort over up to 512K
        # uniques (candidate tie order at the cut may differ — both
        # orders are deterministic, and refine_symbols re-validates
        # every survivor's realized gain anyway)
        if len(counts) > 256:
            part = np.argpartition(counts, -256)[-256:]
            top = part[np.argsort(counts[part])[::-1]]
        else:
            top = np.argsort(counts)[::-1]
        for i in top:
            c = int(counts[i]) * step
            if c < 4:
                break
            candidates.append((c * (L - 1), win[idx[i]].tobytes()))
    candidates.sort(key=lambda t: (-t[0], t[1]))
    out: list[bytes] = []
    seen: set[bytes] = set()
    for _, sym in candidates:
        if sym in seen:
            continue
        seen.add(sym)
        out.append(sym)
        if len(out) >= max_symbols:
            break
    return out


# small alphabets and token streams repeat windows often, so many
# groups tie at the top-256 cut and windows longer than 8 bytes share
# their first 8 bytes — both orders the trainer must reproduce
_TOKENS = ["def ", "return ", "self.", "import ", "(x)", "\n    ", "src/", "org1/repo", "_"]
ascii_texts = st.one_of(
    st.text(alphabet=st.characters(max_codepoint=0x7F), max_size=8192),
    st.text(alphabet="ab cd_\n", max_size=8192),
    st.lists(st.sampled_from(_TOKENS), min_size=200, max_size=1500).map("".join),
).map(str.encode)


def _train_symbols_rule(sample: bytes, max_symbols: int = MAX_SYMBOLS) -> list[bytes]:
    """``train_symbols``' rule by brute force: count every window of
    2..16 bytes with a Counter (past 512 Ki windows of a length, every
    step-th start, scaled by the step), keep the ASCII ones and the
    high bytes counted at least 4 times, and cut once by (-gain, bytes)."""
    if len(sample) < 4:
        return []
    gains = {bytes([v]): c for v, c in Counter(b for b in sample if b >= 0x80).items() if c >= 4}
    for L in range(2, _MAX_LEN + 1):
        step = max(1, (len(sample) - L + 1) >> 19)
        counts = Counter(sample[i : i + L] for i in range(0, len(sample) - L + 1, step))
        gains.update((w, c * step * (L - 1)) for w, c in counts.items() if c * step >= 4 and max(w) < 0x80)
    return sorted(gains, key=lambda s: (-gains[s], s))[:max_symbols]


@settings(**_SETTINGS)
@given(data=st.one_of(st.binary(max_size=8192), ascii_texts))
def test_train_symbols_matches_reference(data):
    """The one-sort trainer returns exactly the symbol list of its rule,
    counted by brute force."""
    assert train_symbols(data) == _train_symbols_rule(data)


def test_train_symbols_counts_no_window_past_the_end():
    """A sample that ends in a prefix of a window it repeats with 0x00
    bytes: the tail must not join (or head) that window's run, so
    padding past the end may never read as ASCII bytes."""
    for data in (b"ab\x00c" * 4 + b"ab", b"ab\x00\x00" * 3 + b"ab\x00", b"q\x00" * 5 + b"q"):
        assert train_symbols(data) == _train_symbols_rule(data), data


def test_train_symbols_cuts_ties_once_by_bytes():
    """400 distinct 3-letter words, each 4 times, between 0xFF bytes:
    hundreds of windows tie at the global cut, and the ties go by bytes
    across every length.  The old trainer kept an arbitrary 256 of one
    length's ties before the cut (argpartition order) — the one input
    kind where the two differ."""
    rng = np.random.default_rng(3)
    alphabet = np.frombuffer(b"abcdefghijklmnopqrstuvwxyz", np.uint8)
    words = list(dict.fromkeys(bytes(w) for w in rng.choice(alphabet, (600, 3))))[:400]
    assert len(words) == 400
    data = b"\xff".join(words * 4)
    syms = train_symbols(data)
    assert syms == _train_symbols_rule(data)
    # every word gains 8 (4 × 2 saved); the cut falls among them, so the
    # words that make it are the smallest of all 400
    three = [s for s in syms if len(s) == 3]
    assert len(syms) == MAX_SYMBOLS and 0 < len(three) < 400
    assert three == sorted(words)[: len(three)]


def test_train_symbols_matches_reference_fixed_cases():
    """Every input length 0..17 (the short-sample and per-length
    breaks), a high-byte-heavy input, and a sample long enough that
    windows are strided (step > 1 needs more than 2 × 512 Ki windows)."""
    rng = np.random.default_rng(5)
    cases = []
    for n in range(18):
        cases += [b"a" * n, (b"ab" * 9)[:n], bytes(rng.integers(0, 0x80, n, dtype=np.uint8))]
    cases.append(
        bytes(rng.integers(0x80, 0x100, 6000, dtype=np.uint8))
        + b"caf\xc3\xa9 na\xc3\xafve r\xc3\xa9sum\xc3\xa9 " * 400
    )
    words = np.array([b"def ", b"return ", b"self.", b"x", b"(", b")\n", b"\xc3\xa9"], dtype=object)
    big = b"".join(words[rng.integers(0, len(words), 400_000)].tolist())
    assert len(big) > (1 << 20) + 16
    cases.append(big)
    # more than 2^16 distinct 8-byte windows: their rank needs over 16
    # bits, so the j-byte suffix is ranked too from L = 14 on (only
    # L = 15, 16 at the 64 KiB training sample); long tokens between
    # the random runs make windows of 14-16 bytes repeat, so they
    # become candidates and a wrong group or read-back shows
    toks = [b"self.assertEqual(", b"return np.unique(", b"import numpy as np\n"]
    wide = b"".join(
        bytes(rng.integers(0x20, 0x7F, 110, dtype=np.uint8)) + toks[i % 3] for i in range(2500)
    )
    assert len(wide) >= 300_000
    win8 = np.lib.stride_tricks.sliding_window_view(np.frombuffer(wide, np.uint8), 8)
    assert len(np.unique(np.ascontiguousarray(win8).view("<u8"))) > 1 << 16
    cases.append(wide)
    for data in cases:
        assert train_symbols(data) == _train_symbols_reference(data), len(data)


def test_train_symbols_matches_reference_on_perfbench_samples(monkeypatch):
    """Every ``make_table`` sample of the perfbench seed 1-3 corpora (the
    cached ``ensure_corpus`` copies) — each partition of the benchmark's
    600 KB plan, lexsorted as the encoder writes it, every string column
    — trains exactly the symbols of the window-matrix reference: the
    global cut departs from the old per-length one only on contrived
    ties, never on this data."""
    import os

    import pyarrow.compute as pc

    from skar_ray.codecs import base, fsst
    from skar_ray.corpus import ensure_corpus, read_corpus_table
    from skar_ray.stages.encoder import lexsort
    from skar_ray.stages.partitioner import assign_pkeys, content_sizes, make_plan

    samples = []
    monkeypatch.setattr(fsst, "train_symbols", lambda s: samples.append(s) or [])
    for seed in (1, 2, 3):
        t = read_corpus_table(os.path.join(ensure_corpus(1999, seed), "corpus.parquet"))
        per_repo = pa.table({"repo": t["repo"], "b": content_sizes(t)}).group_by("repo").aggregate([("b", "sum")])
        t = assign_pkeys(t, make_plan(pa.table({"repo": per_repo["repo"], "bytes": per_repo["b_sum"]}), 600_000))
        for pk in sorted(set(t["pkey"].to_pylist())):
            part = lexsort(t.filter(pc.equal(t["pkey"], pk)))
            for col in part.columns:
                if base.is_string_like(col.type):
                    _, data = base.strings_to_buffers(base.split_nulls(col.combine_chunks())[1])
                    fsst.FsstCodec().make_table(data)
    monkeypatch.undo()
    assert len(samples) > 150
    for s in samples:
        assert train_symbols(s) == _train_symbols_reference(s), len(s)


def _refine_symbols_reference(
    symbols: list[bytes], sample: bytes, max_loss_frac: float = 0.01
) -> tuple[list[bytes], list[bytes]]:
    """The ``refine_symbols`` that counted each symbol's matches with
    a ``bytes.count`` scan before replacing them, kept verbatim as the
    exactness reference for the replace-length gain."""
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
    for sym, code in t._multi:  # longest-first simulation, counting matches
        c = data.count(sym)
        gains[sym] = c * (len(sym) - 1)
        data = data.replace(sym, code)
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


@settings(**_SETTINGS)
@given(data=st.one_of(st.binary(max_size=8192), ascii_texts))
def test_refine_symbols_matches_reference(data):
    """Measuring each symbol's gain by how much its replace shrinks the
    buffer keeps exactly the symbols and chain of counting its matches."""
    syms = train_symbols(data)
    assert refine_symbols(syms, data) == _refine_symbols_reference(syms, data)


def test_refine_symbols_matches_reference_fixed_cases():
    """A high-byte-heavy input (escapes and high single-byte symbols in
    the simulated chain) and the word stream of
    ``test_fsst_refine_symbols_bitexact_and_fewer_passes``."""
    rng = np.random.default_rng(7)
    high = (
        bytes(rng.integers(0x80, 0x100, 6000, dtype=np.uint8))
        + b"caf\xc3\xa9 na\xc3\xafve r\xc3\xa9sum\xc3\xa9 " * 400
    )
    words = [b"the", b"quick", b"brown", b"fox", b"jumps", b"over", b"lazy", b"dog",
             b"import", b"def ", b"return", b"self.", b"\xc3\xa9"]
    stream = b" ".join(bytes(words[i]) for i in rng.integers(0, len(words), 200_000))
    for data in (high, stream[: 1 << 17]):
        syms = train_symbols(data)
        kept, chain = refine_symbols(syms, data)
        assert (kept, chain) == _refine_symbols_reference(syms, data)
        assert 0 < len(kept) <= len(syms)
