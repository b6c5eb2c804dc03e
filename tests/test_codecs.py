"""Per-codec property tests over adversarial arrays (FIXTURES.md F2).

Mirrors the reference's scalar-type round-trip tests
(/root/reference/format/src/types/quantity.rs:117-189): every codec
must satisfy decode(encode(x)) == x bit-identically on edge inputs.
"""

import numpy as np
import pyarrow as pa
import pytest

from skar_ray.codecs import base, encode_array, decode_array, all_codecs
from skar_ray.codecs.auto import encode_column, decode_column, select_codec

STRING_CASES = {
    "empty": pa.array([], type=pa.string()),
    "single": pa.array(["hello"]),
    "all_null": pa.array([None, None], type=pa.string()),
    "interleaved_nulls": pa.array(["a", None, "b", None] * 25),
    "all_equal": pa.array(["same"] * 200),
    "all_distinct": pa.array([f"v{i}" for i in range(200)]),
    "sorted_runs": pa.array(sum([[f"r{i}"] * 20 for i in range(10)], [])),
    "empty_strings": pa.array([""] * 50),
    "one_byte": pa.array(["x", "y"] * 30),
    "shared_prefix": pa.array([f"src/main/util/file{i}.py" for i in range(100)]),
    "random_bytes_text": pa.array(["".join(chr(33 + (i * 7 + j * 13) % 90) for j in range(40)) for i in range(50)]),
    "multi_mb": pa.array(["A" * (2 << 20)]),
    "unicode": pa.array(["λ→Ω 漢字 🎯 ünïcödé"] * 30),
    "large_string": pa.array(["abc", "def"] * 10, type=pa.large_string()),
    "binary": pa.array([b"\x00\xff\x80" * 10, b"", b"\xfe\xff"], type=pa.binary()),
    "large_binary": pa.array([b"ab" * 100] * 5, type=pa.large_binary()),
}

INT_CASES = {
    "empty": pa.array([], type=pa.int64()),
    "zeros": pa.array([0] * 100),
    "max_u64_range": pa.array([0, 2**63 - 1, 5], type=pa.int64()),
    "tight_range_huge_base": pa.array((np.arange(1000) + 10**15).tolist()),
    "negatives": pa.array([-5, -1000000, 3, 0]),
    "single_outlier": pa.array([1] * 999 + [2**40]),
    "nulls": pa.array([None, 1, None, 2**33], type=pa.int64()),
    "uint8": pa.array([0, 255, 7] * 20, type=pa.uint8()),
    "int32": pa.array([-1, 2**31 - 1, 0], type=pa.int32()),
    "timestamps": pa.array(np.array(["2024-01-01", "2026-08-17"], dtype="datetime64[us]")),
    "bool": pa.array([True, False, None] * 30),
}

FLOAT_CASES = {
    "floats": pa.array([1.5, -2.25, float("inf"), 0.0] * 25),
    "float_nan": pa.array([float("nan"), 1.0]),
    "float32": pa.array(np.arange(100, dtype=np.float32)),
}


def _roundtrip(arr: pa.Array, codec_name: str):
    payload, meta = encode_array(arr, codec_name)
    out = decode_array(payload, meta)
    if any(np.isnan(v) for v in arr.to_pylist() if isinstance(v, float)):
        # NaN != NaN; compare bit patterns
        assert len(out) == len(arr)
        a = np.asarray(arr.is_valid())
        assert np.array_equal(a, np.asarray(out.is_valid()))
        av = arr.drop_null().to_numpy(zero_copy_only=False)
        bv = out.drop_null().to_numpy(zero_copy_only=False)
        assert np.array_equal(av.view(np.uint64), bv.view(np.uint64))
    else:
        assert out.equals(arr), f"{codec_name} mismatch on {arr.type}"


@pytest.mark.parametrize("codec", ["plain", "dict", "rle", "fsst"])
@pytest.mark.parametrize("case", list(STRING_CASES))
def test_string_roundtrip(codec, case):
    _roundtrip(STRING_CASES[case], codec)


@pytest.mark.parametrize("codec", ["plain", "dict", "rle", "for_bitpack", "delta"])
@pytest.mark.parametrize("case", list(INT_CASES))
def test_int_roundtrip(codec, case):
    arr = INT_CASES[case]
    if codec == "for_bitpack" and case == "bool":
        pass  # bool supported by for_bitpack
    _roundtrip(arr, codec)


@pytest.mark.parametrize("codec", ["plain", "dict", "rle"])
@pytest.mark.parametrize("case", list(FLOAT_CASES))
def test_float_roundtrip(codec, case):
    _roundtrip(FLOAT_CASES[case], codec)


def test_registry_complete():
    assert set(all_codecs()) >= {"plain", "dict", "rle", "for_bitpack", "fsst", "delta"}


def test_auto_selector_prefers_bitpack_for_tight_ints():
    rng = np.random.default_rng(0)
    arr = pa.array((rng.integers(0, 1000, 50000) + 10**12).tolist())
    name, est = select_codec(arr)
    assert name == "for_bitpack", est


def test_auto_selector_prefers_delta_for_monotonic():
    arr = pa.array((np.arange(50000) + 10**12).tolist())
    name, est = select_codec(arr)
    assert name == "delta", est


def test_auto_selector_prefers_dict_or_rle_for_low_cardinality():
    arr = pa.array(["python", "rust", "go"] * 20000)
    name, est = select_codec(arr)
    assert name in ("dict", "rle"), est


def test_auto_encode_column_roundtrip_and_smaller():
    arr = pa.array(sum([[f"repo-{i % 8}"] * 100 for i in range(80)], []))
    e = encode_column(arr)
    out = decode_column(e.blob, e.meta, e.page, e.payload_len)
    assert out.equals(arr)
    assert e.enc_bytes < e.raw_bytes


def test_estimate_ranks_codecs_usefully():
    """The sampled winner's ACTUAL size must be near the true best —
    estimates exist to rank codecs, not to predict absolute bytes
    (dictionaries amortize non-linearly between sample and full)."""
    arr = pa.array([f"file_{i % 100}.py" for i in range(20000)])
    name, est = select_codec(arr)
    actual = {c: encode_column(arr, c).enc_bytes for c in est}
    best = min(actual.values())
    assert actual[name] <= best * 1.5, (name, est, actual)


def test_selector_sample_is_a_64_kib_row_prefix():
    """The selector estimates on at most 1024 stride rows and, for a
    string column, only the row prefix that first reaches 64 KiB: 600
    values of 2-4 KB come back as that prefix, over 64 KiB by less than
    its last row; a column under both bounds comes back whole."""
    import pyarrow.compute as pc

    from skar_ray.codecs.auto import sample_of

    rng = np.random.default_rng(3)
    arr = pa.array(["x" * int(n) for n in rng.integers(2000, 4001, 600)])
    s = sample_of(arr)
    sizes = np.asarray(pc.binary_length(s))
    assert s.equals(arr.slice(0, len(s)))
    assert sizes[:-1].sum() < 64 << 10 <= sizes.sum()

    small = pa.array([f"row {i} " * 6 for i in range(1023)] + [None])
    assert pc.sum(pc.binary_length(small)).as_py() < 64 << 10
    assert sample_of(small).equals(small)


# per-column codec of each partition (in pkey order) of the seed-1
# perfbench corpus, identical under the selector's 256 KiB and 64 KiB caps
SEED1_CODECS = {
    "repo": "dict dict dict dict dict dict plain dict dict dict dict plain plain",
    "path": "plain plain fsst plain plain plain fsst plain plain plain plain fsst fsst",
    "commit": " ".join(["dict"] * 13),
    "lang": "dict rle dict dict dict rle rle rle plain dict rle dict rle",
    "content": " ".join(["fsst"] * 13),
}


def test_selector_sample_keeps_perfbench_choices_and_bytes(tmp_path):
    """The seed-1 perfbench corpus, planned at the benchmark's 600 KB
    target and encoded one partition at a time with the max profile,
    picks the codecs and writes the bytes it did with a 256 KiB sample."""
    import pyarrow.compute as pc

    from skar_ray.corpus import CorpusSpec, build_corpus
    from skar_ray.stages.encoder import encode_partition
    from skar_ray.stages.partitioner import assign_pkeys, content_sizes, make_plan
    from skar_ray.state import container

    t = build_corpus(CorpusSpec(n_rows=1999, seed=1))
    per_repo = pa.table({"repo": t["repo"], "b": content_sizes(t)}).group_by("repo").aggregate([("b", "sum")])
    sizes = pa.table({"repo": per_repo["repo"], "bytes": per_repo["b_sum"]})
    t = assign_pkeys(t, make_plan(sizes, 600_000))
    codecs, total = {}, 0
    for pk in sorted(set(t["pkey"].to_pylist())):
        s = encode_partition(t.filter(pc.equal(t["pkey"], pk)), str(tmp_path), 1 << 20)
        total += sum(s.column("enc_bytes").to_pylist())
        header, _ = container.read_header(str(tmp_path / f"part-{pk:06d}.skarc"))
        (chunk,) = header["chunks"]
        for cm in chunk["columns"]:
            codecs.setdefault(cm["name"], []).append(cm["codec"])
    assert {c: " ".join(v) for c, v in codecs.items()} == SEED1_CODECS
    assert total == 846_970


LIST_CASES = {
    "float_lists": pa.array([[1.0, 2.0], [3.5], [], [4.0, 5.0, 6.0]], type=pa.list_(pa.float32())),
    "null_lists": pa.array([[1.0, 2.0], None, []], type=pa.list_(pa.float32())),
    "empty": pa.array([], type=pa.list_(pa.float64())),
    "large_list_ints": pa.array([[1, 2, 3], [4]], type=pa.large_list(pa.int64())),
    "all_null": pa.array([None, None], type=pa.list_(pa.int32())),
}


@pytest.mark.parametrize("case", list(LIST_CASES))
def test_numeric_list_roundtrip(case):
    _roundtrip(LIST_CASES[case], "plain")


def test_fsst_refine_symbols_bitexact_and_fewer_passes():
    """Second-generation training: refined tables drop zero-realized-gain
    symbols and reorder the chain by gain — must stay bit-exact and must
    not exceed the loss budget by much."""
    from skar_ray.codecs.fsst import FsstCodec, SymbolTable, refine_symbols, train_symbols

    rng = __import__("numpy").random.default_rng(7)
    words = [b"the", b"quick", b"brown", b"fox", b"jumps", b"over", b"lazy", b"dog",
             b"import", b"def ", b"return", b"self.", b"\xc3\xa9"]
    buf = b" ".join(bytes(words[i]) for i in rng.integers(0, len(words), 200_000))
    sample = buf[: 1 << 17]
    syms = train_symbols(sample)
    kept, chain = refine_symbols(syms, sample)
    assert 0 < len(kept) <= len(syms)
    assert set(chain) <= set(kept)
    t_old, t_new = SymbolTable(syms), SymbolTable(kept, chain=chain)
    enc_old, enc_new = t_old.encode_buffer(buf), t_new.encode_buffer(buf)
    assert t_new.decode_buffer(enc_new) == buf
    # realized loss is bounded by the budget measured on the sample;
    # allow 2x nominal (0.01 of raw bytes) for sample-vs-buffer drift
    assert len(enc_new) <= len(enc_old) + 2 * 0.01 * len(buf)
    # substring constraint: a symbol's superstring must appear before it
    for i, s in enumerate(chain):
        for j, o in enumerate(chain):
            if o is not s and s in o:
                assert j < i or len(o) <= len(s)


def test_list_child_and_bytesplit_roundtrip_and_win():
    """Child-level codecs for list<numeric>: bit-exact round-trip and
    smaller-than-plain on embedding-shaped data; auto-selector picks it."""
    import numpy as np

    from skar_ray.codecs import auto

    rng = np.random.default_rng(3)
    emb = [rng.normal(size=32).astype(np.float32) for _ in range(500)]
    col = pa.array([list(v) for v in emb], type=pa.list_(pa.float32()))
    e = auto.encode_column(col, "list_child")
    dec = auto.decode_column(e.blob, e.meta, e.page, e.payload_len)
    assert dec.equals(col)
    plain_e = auto.encode_column(col, "plain")
    assert len(e.blob) <= len(plain_e.blob)
    assert auto.encode_column(col).codec == "list_child"
    # int lists route the child through the int candidates (for_bitpack wins)
    ints = pa.array([[1, 2, 3], [4, 5], []], type=pa.large_list(pa.int64()))
    e2 = auto.encode_column(ints, "list_child")
    assert auto.decode_column(e2.blob, e2.meta, e2.page, e2.payload_len).equals(ints)
    assert e2.meta["child_meta"]["codec"] in ("for_bitpack", "delta", "bytesplit", "plain")
    # nulls in the outer list survive
    nl = pa.array([[1.0, 2.0], None, [3.0]], type=pa.list_(pa.float64()))
    e3 = auto.encode_column(nl, "list_child")
    assert auto.decode_column(e3.blob, e3.meta, e3.page, e3.payload_len).equals(nl)


def test_struct_child_roundtrip():
    import numpy as np

    from skar_ray.codecs import auto, base

    t = pa.struct([("a", pa.int64()), ("b", pa.string()), ("c", pa.float64())])
    arr = pa.array(
        [{"a": 1, "b": "x", "c": 1.5}, {"a": 2, "b": "y", "c": 2.5}, None,
         {"a": 4, "b": "x", "c": 0.0}],
        type=t,
    )
    e = auto.encode_column(arr)
    assert e.codec == "struct_child"
    assert auto.decode_column(e.blob, e.meta, e.page, e.payload_len).equals(arr)
    # nested struct + list field recurse through the registry
    t2 = pa.struct([("x", pa.struct([("p", pa.int32())])), ("y", pa.list_(pa.float32()))])
    arr2 = pa.array([{"x": {"p": 1}, "y": [1.0, 2.0]}, {"x": {"p": 2}, "y": []}], type=t2)
    e2 = auto.encode_column(arr2)
    assert auto.decode_column(e2.blob, e2.meta, e2.page, e2.payload_len).equals(arr2)
    # type name parsing survives the container schema round-trip
    assert base.type_from_name(str(t)) == t
    assert base.type_from_name(str(t2)) == t2


def test_map_child_roundtrip():
    from skar_ray.codecs import auto, base

    t = pa.map_(pa.string(), pa.int64())
    arr = pa.array([[("a", 1), ("b", 2)], [], [("a", 3)], None, [("c", 9)]], type=t)
    e = auto.encode_column(arr)
    assert e.codec == "map_child"
    assert auto.decode_column(e.blob, e.meta, e.page, e.payload_len).equals(arr)
    assert base.type_from_name(str(t)) == t
    t2 = pa.map_(pa.string(), pa.string())
    arr2 = pa.array([[("x", "y")], [("k", "v"), ("k2", "v2")]], type=t2)
    e2 = auto.encode_column(arr2)
    assert auto.decode_column(e2.blob, e2.meta, e2.page, e2.payload_len).equals(arr2)


def test_map_child_sliced_roundtrip():
    """A sliced MapArray (any Ray block split / Table.slice) must encode
    the WINDOW's entries: arr.keys/items return the full child while
    arr.offsets is the slice — regression for silent wrong-pairs data."""
    from skar_ray.codecs import auto

    t = pa.map_(pa.string(), pa.int64())
    m = pa.array([[("a", 1)], [("b", 2)], [("c", 3)], [("d", 4)]], type=t)
    mn = pa.array([[("a", 1)], None, [("c", 3)], [("d", 4)], []], type=t)
    # pa.array([], t) also covers the empty-nested-column path: plain
    # cannot encode map, so select_codec must route to map_child
    for arr in [m.slice(1, 2), m.slice(2), m.slice(0, 0), pa.array([], type=t),
                mn.slice(1, 3), mn.slice(3)]:
        e = auto.encode_column(arr)
        got = auto.decode_column(e.blob, e.meta, e.page, e.payload_len)
        assert got.to_pylist() == arr.to_pylist(), (got.to_pylist(), arr.to_pylist())
