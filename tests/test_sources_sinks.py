"""Sources/sinks: .skarc stores as a source, Arrow-IPC sink, hex-JSON encoding."""

import os
import shutil
import tempfile

import pyarrow as pa
import pyarrow.ipc as ipc
import pytest

from skar_ray.sources.sinks import hex_encode_binary_columns, write_arrow_ipc


def test_hex_encode_binary_columns():
    t = pa.table(
        {
            "a": pa.array([b"\x00\xff", None, b""], type=pa.binary()),
            "b": pa.array([1, 2, 3]),
            "c": pa.array([b"xy"], type=pa.large_binary()).take(pa.array([0, 0, 0])),
        }
    )
    out = hex_encode_binary_columns(t)
    assert out.column("a").to_pylist() == ["0x00ff", None, "0x"]
    assert out.column("b").to_pylist() == [1, 2, 3]
    assert out.column("c").to_pylist() == ["0x7879"] * 3


def test_write_arrow_ipc_roundtrip(tmp_path):
    t = pa.table({"x": [1, 2, 3], "s": ["a", "b", "c"]})
    p = str(tmp_path / "out.arrow")
    size = write_arrow_ipc(t, p)
    assert size > 0
    back = ipc.open_file(p).read_all()
    assert back.equals(t)


def test_skarc_store_as_source_roundtrip(ray_session):
    import shutil

    from skar_ray.corpus import ensure_corpus
    from skar_ray.pipelines.encode_job import run_encode_job
    from skar_ray.pipelines.query_encoded import query_encoded

    d = ensure_corpus(2000)
    out = tempfile.mkdtemp(prefix="skar_src_test_")
    try:
        run_encode_job(os.path.join(d, "corpus.parquet"), out,
                       target_partition_bytes=2 << 20, chunk_target_bytes=1 << 20)
        ds = query_encoded(out, columns=["repo", "lang"], filters=[[("lang", "==", "python")]])
        df = ds.to_pandas()
        assert set(df.columns) == {"repo", "lang"}
        assert (df["lang"] == "python").all()
        assert len(df) > 0
    finally:
        shutil.rmtree(out, ignore_errors=True)


def test_write_json_hex_sink(ray_session, tmp_path):
    import glob
    import json as js

    import ray.data

    from skar_ray.sources.sinks import write_json_hex

    t = pa.table(
        {
            "id": pa.array([1, 2], type=pa.int64()),
            "payload": pa.array([b"\x00\xff", b"\xab"], type=pa.binary()),
        }
    )
    dest = str(tmp_path / "json_out")
    write_json_hex(ray.data.from_arrow(t), dest)
    rows = []
    for f in glob.glob(dest + "/*.json"):
        with open(f) as fh:
            for line in fh:
                if line.strip():
                    rows.append(js.loads(line))
    rows.sort(key=lambda r: r["id"])
    assert rows == [{"id": 1, "payload": "0x00ff"}, {"id": 2, "payload": "0xab"}]


def test_read_arrow_ipc_source_roundtrip(ray_session, tmp_path):
    """sink -> source round trip through the engine's own reader."""
    from skar_ray.sources.readers import read_arrow_ipc

    t = pa.table({"x": [1, 2, 3], "s": ["a", "b", None]})
    p = str(tmp_path / "resp.arrow")
    write_arrow_ipc(t, p)
    ds = read_arrow_ipc(p)
    back = pa.Table.from_pandas(ds.to_pandas(), preserve_index=False)
    assert back.column("x").to_pylist() == [1, 2, 3]
    assert back.column("s").to_pylist() == ["a", "b", None]


def test_write_arrow_ipc_dataset_branch_fidelity(ray_session, tmp_path):
    """The Dataset branch must stay in Arrow: a pandas round-trip
    retypes nullable int64 to float64 (corrupting values past 2^53) and
    downgrades large_string — regression."""
    import ray

    from skar_ray.sources.readers import read_arrow_ipc

    big = 4611686018427400249  # not representable in float64
    t = pa.table({
        "a": pa.array([big, None, 7], type=pa.int64()),
        "s": pa.array(["x", "y", "z"], type=pa.large_string()),
    })
    p = str(tmp_path / "ds.arrow")
    write_arrow_ipc(ray.data.from_arrow(t), p)
    back = read_arrow_ipc(p)
    tb = back if isinstance(back, pa.Table) else pa.concat_tables(
        ray.get(back.to_arrow_refs())
    )
    assert tb.column("a").to_pylist() == [big, None, 7]
    assert tb.schema.field("a").type == pa.int64()
    assert tb.schema.field("s").type == pa.large_string()
