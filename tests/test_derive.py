"""Derived-column job: append_column unit, end-to-end derive + query,
partition pruning on the derived column, drop_column.  The crash window
is in test_crash_window.py."""

import os
import shutil

import pyarrow as pa
import pyarrow.compute as pc
import pytest

from skar_ray.corpus import ensure_corpus
from skar_ray.pipelines.derive import run_derive_column_job
from skar_ray.pipelines.encode_job import run_encode_job
from skar_ray.pipelines.query_encoded import prune_partitions, query_encoded
from skar_ray.state import container
from skar_ray.state import manifest as manifest_mod

OUT = "/tmp/skar_pytest_derive"


@pytest.fixture(scope="module")
def store(ray_session):
    d = ensure_corpus(2000)
    corpus = os.path.join(d, "corpus.parquet")
    shutil.rmtree(OUT, ignore_errors=True)
    run_encode_job(corpus, OUT, target_partition_bytes=2 << 20, chunk_target_bytes=1 << 20)
    return corpus


def test_append_column_unit(tmp_path):
    t = pa.table(
        {
            "a": pa.array(range(100), type=pa.int64()),
            "s": pa.array([f"v{i % 7}" for i in range(100)]),
        }
    )
    src, p = str(tmp_path / "c.skarc"), str(tmp_path / "d.skarc")
    container.write_container(src, t, chunk_rows=[(0, 60), (60, 40)])
    before = open(src, "rb").read()
    new = pa.array([i * 3 for i in range(100)], type=pa.int64())
    hdr = container.append_column(src, p, "b", new)
    assert [n for n, _ in hdr["schema"]] == ["a", "s", "b"]
    assert open(src, "rb").read() == before  # the source is never rewritten
    back = container.read_container(p)
    # existing columns bit-identical (their blobs were copied verbatim)
    assert back.column("a").combine_chunks().equals(t.column("a").combine_chunks())
    assert back.column("s").combine_chunks().equals(t.column("s").combine_chunks())
    assert back.column("b").to_pylist() == [i * 3 for i in range(100)]
    # chunk stats written for the appended column -> chunk pruning works:
    # chunk 0 has b <= 177, so a >= 250 filter decodes only chunk 1
    hdr2, _ = container.read_header(p)
    assert all(
        next(c for c in ch["columns"] if c["name"] == "b")["minmax"]
        for ch in hdr2["chunks"]
    )
    sel = container.read_container(p, columns=["b"], dnf=[[("b", ">=", 250)]], apply_dnf=True)
    assert sel.column("b").to_pylist() == [i * 3 for i in range(100) if i * 3 >= 250]
    with pytest.raises(ValueError):
        container.append_column(p, str(tmp_path / "e.skarc"), "b", new)  # duplicate name
    with pytest.raises(ValueError):
        container.append_column(p, str(tmp_path / "e.skarc"), "c", new.slice(0, 10))  # wrong length


def _content_len_fn():
    # defined INSIDE the test scope consumer: a test-module top-level
    # function pickles by reference and Ray workers can't import tests
    def content_len(t: pa.Table) -> pa.Array:
        import pyarrow.compute as _pc

        return _pc.cast(_pc.utf8_length(t.column("content")), pa.int64())

    return content_len


def test_derive_job_end_to_end_and_idempotent(store):
    s1 = run_derive_column_job(OUT, "content_len", _content_len_fn(), ["content"])
    assert s1["partitions"] >= 3 and s1["skipped"] == 0
    # the derived column round-trips consistently with its source column
    both = query_encoded(OUT, columns=["content", "content_len"]).to_pandas()
    assert (both["content"].str.len().astype("int64") == both["content_len"]).all()
    # a DNF filter ON the derived column flows through the normal ladder
    thresh = int(both["content_len"].median())
    got = query_encoded(OUT, columns=["content_len"], filters=[[("content_len", ">=", thresh)]])
    assert got.count() == int((both["content_len"] >= thresh).sum())
    # idempotent: second run skips every partition
    s2 = run_derive_column_job(OUT, "content_len", _content_len_fn(), ["content"])
    assert s2["partitions"] == 0 and s2["skipped"] == s1["partitions"]


def test_derived_column_prunes_partitions(store):
    def repo_upper(t: pa.Table) -> pa.Array:
        return pc.utf8_upper(t.column("repo"))

    run_derive_column_job(OUT, "repo_upper", repo_upper, ["repo"])
    ms = manifest_mod.scan_manifests(OUT)
    assert len(ms) >= 3
    # pick a repo living in exactly one partition: the derived column's
    # distinct stats must prune every other partition
    repo_of = {}
    for pid, m in ms.items():
        for r in m.extra["stats"]["repo_upper"].get("distinct") or []:
            repo_of.setdefault(r, set()).add(pid)
    target = next(r for r, pids in sorted(repo_of.items()) if len(pids) == 1)
    keep = prune_partitions(ms, [[("repo_upper", "==", target)]])
    assert keep == sorted(repo_of[target])
    got = query_encoded(OUT, columns=["repo", "repo_upper"], filters=[[("repo_upper", "==", target)]]).to_pandas()
    assert len(got) > 0 and (got["repo"].str.upper() == target).all()


def test_drop_column_job_reclaims_and_is_idempotent(store):
    from skar_ray.pipelines.derive import run_drop_column_job

    ms = manifest_mod.scan_manifests(OUT)
    assert all("repo_upper" in m.columns for m in ms.values())
    sizes_before = {
        pid: os.path.getsize(os.path.join(OUT, m.data_file)) for pid, m in ms.items()
    }
    s = run_drop_column_job(OUT, "repo_upper")
    assert s["partitions"] == len(ms) and s["reclaimed_bytes"] > 0
    ms2 = manifest_mod.scan_manifests(OUT)
    for pid, m in ms2.items():
        assert "repo_upper" not in m.columns
        assert "repo_upper" not in m.extra["stats"]
        # bytes really reclaimed on disk
        assert os.path.getsize(os.path.join(OUT, m.data_file)) < sizes_before[pid]
        hdr, _ = container.read_header(os.path.join(OUT, m.data_file))
        assert all(n != "repo_upper" for n, _ in hdr["schema"])
    # surviving columns still decode bit-consistently (content_len intact)
    both = query_encoded(OUT, columns=["content", "content_len"]).to_pandas()
    assert (both["content"].str.len().astype("int64") == both["content_len"]).all()
    # idempotent
    s2 = run_drop_column_job(OUT, "repo_upper")
    assert s2["partitions"] == 0 and s2["skipped"] == len(ms)
    # lineage columns are protected
    with pytest.raises(ValueError):
        run_drop_column_job(OUT, "content")
