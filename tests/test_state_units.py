"""Unit tests for the state layer: chunk slicing, manifest, pruning."""

import numpy as np
import pyarrow as pa
import pytest

from skar_ray.stages.encoder import chunk_slices, lexsort, partition_digest, row_sha256
from skar_ray.state import manifest
from skar_ray.state.pruning import clause_possible, dnf_possible


def _table(contents):
    return pa.table({"content": pa.array(contents, type=pa.large_string())})


def test_chunk_slices_cover_exactly():
    t = _table(["x" * 100] * 50)
    slices = chunk_slices(t, target_bytes=1000)
    assert sum(ln for _, ln in slices) == 50
    ends = [off + ln for off, ln in slices]
    starts = [off for off, _ in slices]
    assert starts[0] == 0 and ends[-1] == 50
    assert all(e == s for e, s in zip(ends[:-1], starts[1:]))
    # each chunk ~10 rows of 100 bytes
    assert all(8 <= ln <= 12 for _, ln in slices[:-1])


def test_chunk_slices_giant_row_gets_own_chunk():
    t = _table(["a" * 10, "B" * 100000, "c" * 10])
    slices = chunk_slices(t, target_bytes=50)
    assert all(ln >= 1 for _, ln in slices)
    assert sum(ln for _, ln in slices) == 3


def test_chunk_slices_empty():
    assert chunk_slices(_table([]), 100) == []


def test_null_content_counts_as_zero_bytes(ray_session):
    """A NULL ``content`` is 0 bytes to the chunker and the size
    pre-pass: its null ``binary_length`` must not cast to INT64_MIN,
    which let one chunk swallow every row and sank its repo's bytes."""
    import ray

    from skar_ray.stages.partitioner import repo_size_prepass

    t = _table(["x" * 100] * 5 + [None] + ["x" * 100] * 5)
    assert chunk_slices(t, target_bytes=150) == [(0, 2), (2, 2), (4, 3), (7, 2), (9, 2)]
    t = t.append_column("repo", pa.array(["a"] * 6 + ["b"] * 5))
    sizes = repo_size_prepass(ray.data.from_arrow(t)).to_pylist()
    assert sorted((r["repo"], r["bytes"], r["rows"]) for r in sizes) == [("a", 500, 6), ("b", 500, 5)]


def test_lexsort_orders_by_all_keys():
    t = pa.table(
        {
            "repo": ["b", "a", "a"],
            "path": ["p1", "p2", "p1"],
            "commit": ["c", "c", "c"],
        }
    )
    out = lexsort(t)
    assert out.column("repo").to_pylist() == ["a", "a", "b"]
    assert out.column("path").to_pylist() == ["p1", "p2", "p1"]


def test_partition_digest_order_sensitivity():
    t1 = _table(["alpha", "beta"])
    t2 = _table(["beta", "alpha"])
    assert partition_digest(row_sha256(t1)) != partition_digest(row_sha256(t2))
    assert partition_digest(row_sha256(t1)) == partition_digest(row_sha256(t1))


def test_manifest_roundtrip(tmp_path):
    out = str(tmp_path)
    m = manifest.PartitionManifest(
        partition_id=7, status="done", n_rows=10, n_chunks=2,
        data_file="part-000007.skarc", raw_bytes=100, enc_bytes=10,
        content_sha256="ab" * 32, columns={"content": {"codec": "fsst"}},
        input_fingerprint="fp", extra={"stats": {"repo": {"min": "a", "max": "b"}}},
    )
    manifest.write_manifest(out, m)
    back = manifest.read_manifest(out, 7)
    assert back == m
    assert set(manifest.scan_manifests(out)) == {7}
    assert manifest.read_manifest(out, 8) is None


def test_clause_possible_semantics():
    st = {"min": "m", "max": "q", "t": "s"}
    assert clause_possible(st, "==", "n")
    assert not clause_possible(st, "==", "z")
    assert clause_possible(st, "in", ["a", "p"])
    assert not clause_possible(st, "in", ["a", "b"])
    assert clause_possible(st, ">=", "q") and not clause_possible(st, ">", "q")
    assert clause_possible(st, "<=", "m") and not clause_possible(st, "<", "m")
    assert clause_possible(st, "prefix", "n") and not clause_possible(st, "prefix", "r")
    assert clause_possible({}, "==", "anything")  # unknown stats never prune
    assert clause_possible({"distinct": ["a", "b"]}, "==", "a")
    assert not clause_possible({"distinct": ["a", "b"]}, "==", "c")


def test_clause_possible_numeric_typed():
    """Regression (ADVICE r1): stringified numeric stats pruned
    lexicographically — min='50', max='1200' claimed '== 500'
    impossible.  Typed stats compare natively; untyped stats never
    prune."""
    st = {"min": 50, "max": 1200, "t": "n"}
    assert clause_possible(st, "==", 500)
    assert clause_possible(st, ">=", 200)
    assert clause_possible(st, "in", [500, 9999])
    assert not clause_possible(st, "==", 5000)
    assert not clause_possible(st, ">", 1200)
    assert not clause_possible(st, "<", 50)
    assert clause_possible(st, "==", "500")  # string vs num stats: conservative
    # untagged stats never prune, whatever the query value's type
    untagged = {"min": "50", "max": "1200"}
    assert clause_possible(untagged, "==", 500)
    assert clause_possible(untagged, ">=", 200)
    assert clause_possible(untagged, "in", [500])
    assert clause_possible(untagged, "==", "zzz")
    assert clause_possible(untagged, ">", "9")


def test_encoded_clause_mask_float_exactness():
    """Regression: float clause values on a for_bitpack int chunk were
    silently truncated to int64 (np.int64(3.5)==3 matched rows the
    decode path rejects).  The encoded form must be int64-EXACT: a
    non-integral float equals no row, range ops map to the equivalent
    integer comparison, non-numeric sets fall back (None)."""
    import pyarrow as pa

    from skar_ray.codecs import auto
    from skar_ray.codecs.base import encode_array
    from skar_ray.state import container

    arr = pa.array([1, 2, 3, 4, 5, 3], type=pa.int64())
    payload, meta = encode_array(arr, "for_bitpack")
    blob, page = auto.page_compress(payload)
    cm = {"codec": "for_bitpack", "meta": {**meta, "n": len(arr)},
          "page": page, "payload_len": len(payload)}

    def m(op, v):
        r = container.encoded_clause_mask(blob, cm, op, v)
        return None if r is None else r.tolist()

    assert m("in", [3.5]) == [False] * 6
    assert m("in", [3.0, 5]) == [False, False, True, False, True, True]
    assert m("in", [2 ** 64]) == [False] * 6      # out of int64: matches nothing
    assert m("==", 3.5) == [False] * 6
    assert m("!=", 3.5) == [True] * 6
    assert m("==", 3.0) == [False, False, True, False, False, True]
    assert m(">=", 3.5) == m(">", 3.5) == [False, False, False, True, True, False]
    assert m("<=", 3.5) == m("<", 3.5) == [True, True, True, False, False, True]
    assert m(">=", 3) == [False, False, True, True, True, True]
    assert m("in", ["x"]) is None                 # non-numeric: decode fallback


def test_minmax_stat_typed():
    import pyarrow as pa

    from skar_ray.state.pruning import minmax_stat

    s = minmax_stat(pa.array(["aa", "zz"]))
    assert s == {"min": "aa", "max": "zz", "t": "s"}
    n = minmax_stat(pa.array([50, 1200]))
    assert n == {"min": 50, "max": 1200, "t": "n"}
    assert minmax_stat(pa.array([], type=pa.int64())) == {}
    long = minmax_stat(pa.array(["x" * 100]))
    assert long["max"].endswith("\U0010FFFF") and len(long["min"]) == 64
    # truncated max stays an upper bound even for astral 65th char
    assert "x" * 64 + "\U0001F600" <= long["max"]


def test_dnf_possible_or_semantics():
    stats = {"lang": {"distinct": ["go", "rust"]}}
    get = lambda c: stats.get(c)
    assert dnf_possible(get, [[("lang", "==", "go")]])
    assert not dnf_possible(get, [[("lang", "==", "python")]])
    assert dnf_possible(get, [[("lang", "==", "python")], [("lang", "==", "rust")]])
    assert dnf_possible(get, None)


def test_store_stats_and_health(ray_session):
    import os

    from skar_ray.corpus import ensure_corpus
    from skar_ray.pipelines.encode_job import run_encode_job
    from skar_ray.pipelines.stats import store_health, store_stats

    d = ensure_corpus(2000)
    out = "/tmp/skar_pytest_stats"
    import shutil

    shutil.rmtree(out, ignore_errors=True)
    run_encode_job(os.path.join(d, "corpus.parquet"), out,
                   target_partition_bytes=2 << 20, chunk_target_bytes=1 << 20)
    st = store_stats(out)
    assert set(st["column"]) == {"repo", "path", "commit", "lang", "content"}
    assert (st["enc_bytes"] > 0).all() and (st["ratio"] >= 1).all()
    h = store_health(out)
    assert h["rows"] == 2000 and h["all_digests_present"] and h["partitions"] >= 3


def test_store_value_counts_matches_decode(ray_session):
    """Encoded-form GROUP BY (dict index bincount / rle run sums) must
    equal decode-and-count on every column of a real store."""
    import os
    import shutil

    import pandas as pd
    import pyarrow.parquet as pq

    from skar_ray.corpus import ensure_corpus
    from skar_ray.pipelines.encode_job import run_encode_job
    from skar_ray.pipelines.stats import store_value_counts

    d = ensure_corpus(2000)
    src = os.path.join(d, "corpus.parquet")
    out = "/tmp/skar_pytest_vcounts"
    shutil.rmtree(out, ignore_errors=True)
    run_encode_job(src, out, target_partition_bytes=2 << 20,
                   chunk_target_bytes=1 << 20)
    raw = pq.read_table(src)
    for col in ("lang", "repo"):
        got = store_value_counts(out, col)
        want = (
            raw.column(col).to_pandas().value_counts().rename_axis("value")
            .reset_index(name="n").sort_values("value").reset_index(drop=True)
            .astype({"n": "int64"})
        )
        pd.testing.assert_frame_equal(got, want)
    assert int(got["n"].sum()) == 2000


def test_store_value_counts_rle_and_dict_paths(ray_session):
    """Force both pushdown codecs explicitly: lang as rle, repo as dict
    — counts from the encoded form must match the source exactly."""
    import os
    import shutil

    import pandas as pd
    import pyarrow.parquet as pq

    from skar_ray.corpus import ensure_corpus
    from skar_ray.pipelines.encode_job import run_encode_job
    from skar_ray.pipelines.stats import store_value_counts

    d = ensure_corpus(2000)
    src = os.path.join(d, "corpus.parquet")
    out = "/tmp/skar_pytest_vcounts_forced"
    shutil.rmtree(out, ignore_errors=True)
    run_encode_job(src, out, target_partition_bytes=2 << 20,
                   chunk_target_bytes=1 << 20,
                   codec_overrides={"lang": "rle", "repo": "dict"})
    raw = pq.read_table(src)
    for col in ("lang", "repo"):
        got = store_value_counts(out, col)
        want = (
            raw.column(col).to_pandas().value_counts().rename_axis("value")
            .reset_index(name="n").sort_values("value").reset_index(drop=True)
            .astype({"n": "int64"})
        )
        pd.testing.assert_frame_equal(got, want)


def test_encoded_byte_lengths_all_string_codecs(ray_session):
    """Byte-length extraction from the encoded form must match decoded
    binary_length for every string codec actually present in a real
    store (fsst/dict/rle/plain forced via overrides)."""
    import os
    import shutil

    import numpy as np
    import pyarrow.compute as pc

    from skar_ray.codecs import auto
    from skar_ray.corpus import ensure_corpus
    from skar_ray.pipelines.encode_job import run_encode_job
    from skar_ray.state import container, manifest as manifest_mod

    d = ensure_corpus(2000)
    src = os.path.join(d, "corpus.parquet")
    out = "/tmp/skar_pytest_blens"
    shutil.rmtree(out, ignore_errors=True)
    run_encode_job(src, out, target_partition_bytes=2 << 20,
                   chunk_target_bytes=1 << 20,
                   codec_overrides={"lang": "rle", "repo": "dict",
                                    "content": "fsst", "path": "plain"})
    ms = manifest_mod.scan_manifests(out)
    seen = set()
    for _, m in sorted(ms.items()):
        path = os.path.join(out, m.data_file)
        header, blob_start = container.read_header(path)
        with open(path, "rb") as f:
            for ch in header["chunks"]:
                for cm in ch["columns"]:
                    if cm["name"] not in ("lang", "repo", "content", "path"):
                        continue
                    f.seek(blob_start + cm["offset"])
                    blob = f.read(cm["length"])
                    lens = container.encoded_byte_lengths(blob, cm)
                    assert lens is not None, cm["codec"]
                    seen.add(cm["codec"])
                    arr = auto.decode_column(blob, cm["meta"], cm["page"], cm["payload_len"])
                    want = np.asarray(pc.binary_length(arr)).astype(np.int64)
                    assert np.array_equal(lens, want), (cm["name"], cm["codec"])
    assert {"rle", "dict", "fsst", "plain"} <= seen


def test_encoded_int_values_matches_decode(ray_session):
    """encoded_int_values must hand back the exact int64 stream for
    for_bitpack chunks (the grouped min/max/sum pushdown's value feed)
    and decline (None) for codecs it doesn't cover."""
    import os
    import shutil
    import tempfile

    import numpy as np

    from skar_ray.codecs import auto
    from skar_ray.pipelines.encode_job import run_encode_job
    from skar_ray.state import container
    from skar_ray.state import manifest as manifest_mod

    out = tempfile.mkdtemp(prefix="skar_intvals_")
    try:
        run_encode_job(
            "/root/testdata/sf0.001/documents.parquet", out, mode="sharded",
            chunk_target_bytes=64 << 10, resume=False,
        )
        ms = manifest_mod.scan_manifests(out)
        checked = 0
        for _, m in sorted(ms.items()):
            path = os.path.join(out, m.data_file)
            header, blob_start = container.read_header(path)
            with open(path, "rb") as f:
                for ch in header["chunks"]:
                    for cm in ch["columns"]:
                        if cm["name"] != "n_chars":
                            continue
                        f.seek(blob_start + cm["offset"])
                        blob = f.read(cm["length"])
                        vals = container.encoded_int_values(blob, cm)
                        arr = auto.decode_column(
                            blob, cm["meta"], cm["page"], cm["payload_len"]
                        )
                        want = np.asarray(arr).astype(np.int64)
                        if cm["codec"] == "for_bitpack":
                            assert vals is not None
                            assert np.array_equal(vals, want)
                            checked += 1
                        elif vals is not None:  # any other supported codec must agree too
                            assert np.array_equal(vals, want)
        assert checked > 0, "expected at least one for_bitpack n_chars chunk"
    finally:
        shutil.rmtree(out, ignore_errors=True)


def test_store_distinct_metadata_ladder(ray_session):
    """store_distinct must equal the raw distinct set on every rung:
    lang/repo (low-card strings) must be served WITHOUT decoding any
    row stream; content (high-card fsst) falls to the decode rung and
    is still exact."""
    import os
    import shutil

    import pyarrow.parquet as pq

    from skar_ray.corpus import ensure_corpus
    from skar_ray.pipelines.encode_job import run_encode_job
    from skar_ray.pipelines.stats import store_distinct

    d = ensure_corpus(2000)
    src = os.path.join(d, "corpus.parquet")
    out = "/tmp/skar_pytest_distinct"
    shutil.rmtree(out, ignore_errors=True)
    run_encode_job(src, out, target_partition_bytes=2 << 20,
                   chunk_target_bytes=1 << 20)
    raw = pq.read_table(src)
    for col in ("lang", "repo", "path"):
        got, info = store_distinct(out, col, with_info=True)
        want = sorted(set(raw.column(col).to_pylist()))
        assert list(got["value"]) == want, col
        if col in ("lang", "repo"):  # low-card: dict/rle or stats serve
            assert info["decoded_chunks"] == 0, (col, info)
    got, info = store_distinct(out, "content", with_info=True)
    assert set(got["value"]) == set(raw.column("content").to_pylist())
    assert info["stats_chunks"] == 0  # content never gets a distinct stat


def test_store_distinct_includes_null(ray_session, tmp_path):
    """A chunk with nulls must bypass the stats/dictionary rungs (their
    sets exclude the null filler) and the result must carry NULL as a
    distinct value — SQL DISTINCT semantics."""
    import pyarrow as pa

    from skar_ray.pipelines.stats import store_distinct
    from skar_ray.state import container, manifest

    t = pa.table({"g": ["a", None, "b", "a", None, "c"]})
    out = str(tmp_path / "store")
    import os

    os.makedirs(out)
    container.write_container(os.path.join(out, "part-0.skarc"), t)
    manifest.write_manifest(out, manifest.PartitionManifest(
        partition_id=0, status="done", n_rows=6, n_chunks=1,
        data_file="part-0.skarc", raw_bytes=1, enc_bytes=1,
        content_sha256=""))
    got, info = store_distinct(out, "g", with_info=True)
    assert list(got["value"]) == ["a", "b", "c", None]
    assert info["stats_chunks"] == 0 and info["dict_chunks"] == 0
