"""Compaction job + JSON-source ingestion parity."""

import json
import os
import shutil

import pyarrow.compute as pc
import pytest

from skar_ray.corpus import ensure_corpus, read_corpus_table
from skar_ray.pipelines.compact_job import run_compact_job
from skar_ray.pipelines.decode_job import decoded_dataset, run_verify_job
from skar_ray.pipelines.encode_job import run_encode_job
from skar_ray.state import manifest as manifest_mod

SRC = "/tmp/skar_pytest_compact_src"
DST = "/tmp/skar_pytest_compact_dst"


def test_compact_merges_partitions(ray_session):
    d = ensure_corpus(2000)
    corpus = os.path.join(d, "corpus.parquet")
    shutil.rmtree(SRC, ignore_errors=True)
    shutil.rmtree(DST, ignore_errors=True)
    # encode deliberately fragmented (tiny partitions)
    run_encode_job(corpus, SRC, target_partition_bytes=1 << 20, chunk_target_bytes=1 << 20)
    n_src = len(manifest_mod.scan_manifests(SRC))
    assert n_src >= 5
    r = run_compact_job(SRC, DST, target_partition_bytes=8 << 20, chunk_target_bytes=4 << 20)
    assert r["rows_match"], r
    # repartition-invariant row-digest union must survive the re-partitioning
    assert r["digests_match"] is True, r
    assert r["dest_partitions"] < n_src
    # compacted output still decodes bit-identically vs the ORIGINAL corpus
    v = run_verify_job(corpus, DST)
    assert v["rows_match"] and v["digests_verified"]


def test_json_source_ingestion(ray_session, tmp_path):
    """skar ingests JSON (RPC payloads); our analog: a JSONL corpus read
    with ray.data.read_json, encoded by the same engine, verified."""
    import ray.data

    d = ensure_corpus(2000)
    t = read_corpus_table(os.path.join(d, "corpus.parquet")).slice(0, 300)
    jdir = tmp_path / "json_src"
    jdir.mkdir()
    rows = t.to_pylist()
    for i in range(3):
        with open(jdir / f"part-{i}.jsonl", "w") as f:
            for r in rows[i * 100 : (i + 1) * 100]:
                f.write(json.dumps(r) + "\n")
    ds = ray.data.read_json(str(jdir))
    assert ds.count() == 300
    # shard-encode the JSON-sourced dataset directly
    out = str(tmp_path / "enc")
    from skar_ray.stages.encoder import shard_encode_batch

    summary = ds.map_batches(
        shard_encode_batch,
        fn_kwargs=dict(out_dir=out, chunk_target_bytes=1 << 20, input_fingerprint="json"),
        batch_format="pyarrow", batch_size=None,
    ).to_pandas()
    assert summary["n_rows"].sum() == 300
    dec = decoded_dataset(out, verify=True)
    assert dec.count() == 300


def test_recompact_sweeps_stale_dest_partitions(ray_session):
    """Re-compacting a DIFFERENT (smaller) source into a previously-used
    dest_dir must sweep partition ids the new plan no longer produces —
    stale 'done' manifests would otherwise be served by every query and
    poison the digest comparison (same contract as run_encode_job)."""
    src_big = "/tmp/skar_pytest_recompact_src_big"
    src_small = "/tmp/skar_pytest_recompact_src_small"
    dst = "/tmp/skar_pytest_recompact_dst"
    for p in (src_big, src_small, dst):
        shutil.rmtree(p, ignore_errors=True)

    big = os.path.join(ensure_corpus(2000), "corpus.parquet")
    small = os.path.join(ensure_corpus(500), "corpus.parquet")
    run_encode_job(big, src_big, target_partition_bytes=1 << 20, chunk_target_bytes=1 << 20)
    run_encode_job(small, src_small, target_partition_bytes=1 << 20, chunk_target_bytes=1 << 20)

    r1 = run_compact_job(src_big, dst, target_partition_bytes=8 << 20, chunk_target_bytes=4 << 20)
    assert r1["rows_match"] and r1["digests_match"] is True

    r2 = run_compact_job(src_small, dst, target_partition_bytes=8 << 20, chunk_target_bytes=4 << 20)
    assert r2["rows_match"], r2
    assert r2["digests_match"] is True, r2  # stale big-corpus partitions swept
    ms = manifest_mod.scan_manifests(dst)
    assert len(ms) == r2["dest_partitions"]
    files = {f for f in os.listdir(dst) if f.endswith(".skarc")}
    assert files == {m.data_file for m in ms.values()}
    v = run_verify_job(small, dst)
    assert v["rows_match"] and v["digests_verified"]
    for p in (src_big, src_small, dst):
        shutil.rmtree(p, ignore_errors=True)


def test_compact_matches_inprocess_reference(ray_session, tmp_path):
    """Every compacted partition equals an in-process reference, bit for
    bit: the decoded source rows → the exact per-repo size plan →
    ``assign_pkeys`` → one ``encode_partition`` per pkey."""
    import pyarrow as pa
    import ray.data

    from skar_ray.stages.encoder import encode_partition
    from skar_ray.stages.partitioner import assign_pkeys, make_plan, repo_size_prepass
    from skar_ray.state import container

    corpus = os.path.join(ensure_corpus(2000), "corpus.parquet")
    src, dst = str(tmp_path / "src"), str(tmp_path / "dst")
    run_encode_job(corpus, src, target_partition_bytes=1 << 20, chunk_target_bytes=1 << 20)
    r = run_compact_job(src, dst, target_partition_bytes=8 << 20, chunk_target_bytes=4 << 20)
    assert r["rows_match"] and r["digests_match"] is True, r

    rows = pa.concat_tables([container.read_container(os.path.join(src, m.data_file))
                             for m in manifest_mod.scan_manifests(src).values()])
    plan = make_plan(repo_size_prepass(ray.data.from_arrow(rows)), 8 << 20)
    keyed = assign_pkeys(rows, plan)
    cols = ("partition_id", "n_rows", "raw_bytes", "enc_bytes", "content_sha256")
    want = []
    for pk in sorted(set(keyed.column("pkey").to_pylist())):
        s = encode_partition(keyed.filter(pc.equal(keyed.column("pkey"), pk)),
                             str(tmp_path / "reference"), 4 << 20)
        want.append(tuple(s.column(c)[0].as_py() for c in cols))
    got = [tuple(getattr(m, c) for c in cols) for _, m in sorted(manifest_mod.scan_manifests(dst).items())]
    assert got == want


def test_compact_of_corrupted_source_raises_and_publishes_nothing(ray_session, tmp_path):
    """A payload bit flip that every codec decodes without complaint
    (only the row digest can tell) must stop the compaction at the
    source decode: the digest ValueError, and no destination manifest."""
    from skar_ray.stages.encoder import partition_digest, row_sha256
    from skar_ray.state import container

    corpus = os.path.join(ensure_corpus(500), "corpus.parquet")
    src, dst = str(tmp_path / "src"), str(tmp_path / "dst")
    run_encode_job(corpus, src, target_partition_bytes=1 << 20, chunk_target_bytes=1 << 20)
    m = max(manifest_mod.scan_manifests(src).values(), key=lambda m: m.enc_bytes)
    path = os.path.join(src, m.data_file)
    header, blob_start = container.read_header(path)
    (cm,) = [c for c in header["chunks"][-1]["columns"] if c["name"] == "content"]
    with open(path, "rb") as f:
        good = f.read()
    for off in range(cm["offset"] + cm["length"] - 1, cm["offset"], -1):
        bad = bytearray(good)
        bad[blob_start + off] ^= 0x01
        with open(path, "wb") as f:
            f.write(bad)
        try:
            t = container.read_container(path)
        except Exception:
            continue
        if partition_digest(row_sha256(t)) != m.content_sha256:
            break
    else:
        pytest.fail("no silently-decoding bit flip found")

    with pytest.raises(ValueError, match="digest"):
        run_compact_job(src, dst, target_partition_bytes=8 << 20, chunk_target_bytes=4 << 20)
    assert manifest_mod.scan_manifests(dst) == {}
