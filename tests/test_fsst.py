"""FSST symbol-table specifics: training, escapes, buffer round-trips."""

import numpy as np
import pyarrow as pa

from skar_ray.codecs.fsst import FsstCodec, SymbolTable, train_symbols, ESCAPE


def test_train_learns_repeated_tokens():
    sample = b"def return def return import numpy as np " * 200
    syms = train_symbols(sample)
    assert syms, "should learn symbols from repetitive text"
    assert any(len(s) >= 4 for s in syms)


def test_encode_shrinks_code_text():
    data = b"for i in range(n):\n    total += values[i]\n" * 500
    t = SymbolTable(train_symbols(data))
    enc = t.encode_buffer(data)
    assert len(enc) < len(data) * 0.6
    assert t.decode_buffer(enc) == data


def test_high_bytes_escape_roundtrip():
    # bytes >= 0x80 not learned as symbols must escape cleanly
    data = bytes(range(256)) * 3 + b"\xff\xff\xff" + b"ascii tail"
    t = SymbolTable(train_symbols(b"no high bytes here at all, plain ascii text"))
    enc = t.encode_buffer(data)
    assert t.decode_buffer(enc) == data


def test_escape_literal_is_escape_byte():
    t = SymbolTable([])
    data = b"\xff" * 10 + b"a\xffb"
    enc = t.encode_buffer(data)
    assert enc.count(bytes([ESCAPE])) >= 11
    assert t.decode_buffer(enc) == data


def test_empty_and_tiny():
    t = SymbolTable([])
    assert t.decode_buffer(t.encode_buffer(b"")) == b""
    assert t.decode_buffer(t.encode_buffer(b"a")) == b"a"


def test_serialize_roundtrip():
    syms = train_symbols(b"token stream token stream token" * 100)
    t = SymbolTable(syms)
    t2 = SymbolTable.deserialize(t.serialize())
    data = b"token stream and more token stream"
    assert t2.decode_buffer(t.encode_buffer(data)) == data


def test_symbols_spanning_row_boundaries():
    """Whole-buffer encoding means symbols may cross row boundaries;
    original lengths must still slice the decoded buffer correctly."""
    codec = FsstCodec()
    rows = ["abcdef"] * 100 + ["defabc"] * 100  # 'fabc'/'cdef' span rows when concatenated
    arr = pa.array(rows)
    payload, meta = codec.encode(arr)
    meta["type"] = str(arr.type)
    meta["n"] = len(arr)
    out = codec.decode(payload, meta, len(arr))
    assert out.equals(arr)


def test_unicode_content():
    codec = FsstCodec()
    arr = pa.array(["λ calculus → Ω" * 50, "漢字テキスト" * 30, "plain ascii"] * 10)
    payload, meta = codec.encode(arr)
    meta["type"] = str(arr.type)
    meta["n"] = len(arr)
    assert codec.decode(payload, meta, len(arr)).equals(arr)


def test_decode_vectorized_matches_naive():
    syms = train_symbols(b"the quick brown fox jumps over the lazy dog " * 50)
    t = SymbolTable(syms)
    data = b"the quick brown fox " * 37 + bytes([0x80, 0x81, 0xFF]) + b" tail"
    enc = t.encode_buffer(data)
    # naive decode
    out = bytearray()
    i = 0
    while i < len(enc):
        c = enc[i]
        if c == ESCAPE:
            out.append(enc[i + 1])
            i += 2
        elif c >= 0x80:
            out.extend(t.symbols[c - 0x80])
            i += 1
        else:
            out.append(c)
            i += 1
    assert bytes(out) == data
    assert t.decode_buffer(enc) == data


def test_escape_splice_matches_np_insert_across_densities():
    """The sparse slice-join and dense np.insert paths must agree with
    the reference np.insert splice at every density, including the
    crossover threshold."""
    import numpy as np

    from skar_ray.codecs.fsst import ESCAPE, _escape_splice

    rng = np.random.default_rng(0)
    for frac in (0.0, 1e-5, 1e-3, 0.02, 0.5, 1.0):
        n = 200_000
        mapped = rng.integers(0, 256, n).astype(np.uint8)
        esc = rng.random(n) < frac
        idx = np.flatnonzero(esc)
        want = np.insert(mapped, idx, ESCAPE).tobytes()
        assert _escape_splice(mapped, idx) == want, frac


def _replace_chain_reference(table, data: bytes) -> bytes:
    """``encode_buffer`` spelled with ``bytes.replace``: the high-byte
    escape pass, then the symbol chain over each cache-sized piece."""
    from skar_ray.codecs.fsst import _escape_splice

    arr = np.frombuffer(data, dtype=np.uint8)
    data = _escape_splice(table._hi_lut[arr], np.flatnonzero(table._needs_escape[arr]))
    pieces = []
    for s in range(0, len(data), table._PIECE):
        piece = data[s : s + table._PIECE]
        for sym, code in table._multi:
            piece = piece.replace(sym, code)
        pieces.append(piece)
    return b"".join(pieces)


def test_arrow_chain_matches_bytes_replace():
    """The pyarrow binary replace chain must be BIT-IDENTICAL to the
    ``bytes.replace`` reference loop on real-ish content including high
    bytes, escapes and piece boundaries."""
    rng = np.random.default_rng(11)
    data = (
        b"for i in range(10): print(values[i], end=' ')\n" * 2000
        + bytes(rng.integers(0, 256, size=5000, dtype=np.uint8))
        + b"return self._cache.get(key, default)\n" * 1500
    )
    codec = FsstCodec()
    table = codec.make_table(data)
    assert table._multi
    fast = table.encode_buffer(data)
    assert fast == _replace_chain_reference(table, data)
    assert table.decode_buffer(fast) == data


def test_plan_trains_only_when_fsst_can_be_chosen(monkeypatch, tmp_path):
    """A codec override other than fsst skips the symbol-table training
    (and its sample); no override or an fsst override trains exactly one
    table per high-cardinality string column.  The fast profile trains
    nothing and still writes the bytes it wrote when it trained and
    discarded tables (221,896 for this seeded partition), and the max
    profile's trained tables write its old 178,187 bytes."""
    from skar_ray.corpus import CorpusSpec, build_corpus
    from skar_ray.pipelines.encode_job import FAST_PROFILE_OVERRIDES
    from skar_ray.stages.encoder import encode_partition
    from skar_ray.state.container import _plan_column

    calls = []
    real = FsstCodec.make_table

    def counting(self, data):
        calls.append(len(data))
        return real(self, data)

    monkeypatch.setattr(FsstCodec, "make_table", counting)
    t = build_corpus(CorpusSpec(n_rows=400, seed=5))
    col = t.column("path")
    for c in ("plain", "dict", "rle"):
        _, codec, table, _ = _plan_column(col, c)
        assert (codec, table, calls) == (c, None, [])
    _, codec, table, _ = _plan_column(col, "fsst")
    assert codec == "fsst" and isinstance(table, SymbolTable) and len(calls) == 1
    calls.clear()
    _plan_column(col, None)
    assert len(calls) == 1

    calls.clear()
    s = encode_partition(t, str(tmp_path), 1 << 20, codec_overrides=FAST_PROFILE_OVERRIDES)
    assert calls == []
    assert s.column("enc_bytes").to_pylist() == [221_896]
    s = encode_partition(t, str(tmp_path / "max"), 1 << 20)
    assert s.column("enc_bytes").to_pylist() == [178_187]
