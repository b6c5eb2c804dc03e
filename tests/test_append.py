"""Incremental append: only partitions touched by the delta re-encode."""

import glob
import os
import shutil

import pyarrow as pa
import pyarrow.parquet as pq

from skar_ray.corpus import ensure_corpus, read_corpus_table
from skar_ray.pipelines.append_job import load_dir_plan, run_append_job
from skar_ray.pipelines.decode_job import run_verify_job
from skar_ray.pipelines.encode_job import run_encode_job
from skar_ray.state import manifest as manifest_mod

OUT = "/tmp/skar_pytest_append/out"
SRC = "/tmp/skar_pytest_append/src"


def test_append_reencodes_only_affected_partitions(ray_session, tmp_path):
    shutil.rmtree("/tmp/skar_pytest_append", ignore_errors=True)
    os.makedirs(SRC)
    d = ensure_corpus(2000)
    base = read_corpus_table(os.path.join(d, "corpus.parquet"))
    pq.write_table(base, os.path.join(SRC, "base.parquet"))

    run_encode_job(os.path.join(SRC, "base.parquet"), OUT,
                   target_partition_bytes=2 << 20, chunk_target_bytes=1 << 20)
    manifests0 = manifest_mod.scan_manifests(OUT)
    assert len(manifests0) >= 4
    mtimes0 = {p: os.path.getmtime(p) for p in glob.glob(os.path.join(OUT, "*.skarc"))}

    # delta: new rows for ONE existing repo + one brand-new repo
    some_repo = base.column("repo")[0].as_py()
    delta = pa.table({
        "repo": [some_repo, some_repo, "zz-new/repo", "zz-new/repo"],
        "path": ["new/a.py", "new/b.py", "x/y.go", "x/z.go"],
        "commit": ["c1", "c2", "c3", "c4"],
        "lang": ["python", "python", "go", "go"],
        "content": pa.array(["print(1)\n" * 50, "print(2)\n" * 50,
                             "package x\n" * 40, "package y\n" * 40],
                            type=pa.large_string()),
    })
    delta_dir = str(tmp_path / "delta")
    os.makedirs(delta_dir)
    pq.write_table(delta, os.path.join(delta_dir, "delta.parquet"))

    r = run_append_job(delta_dir, OUT, base_corpus_path=os.path.join(SRC, "base.parquet"),
                       target_partition_bytes=2 << 20, chunk_target_bytes=1 << 20)
    assert r["appended_rows"] == 4
    affected = set(r["affected_partitions"])
    assert affected, r

    # untouched partitions: bit-identical files (mtime + size unchanged)
    manifests1 = manifest_mod.scan_manifests(OUT)
    for p, t0 in mtimes0.items():
        pid = int(os.path.basename(p).split("-")[1].split(".")[0])
        if pid not in affected:
            assert os.path.getmtime(p) == t0, f"untouched partition {pid} was rewritten"
    # new repo got a fresh pid beyond the original range
    assert max(manifests1) >= len(manifests0)
    # the extended plan persisted for the next append
    plan, _ = load_dir_plan(OUT)
    assert "zz-new/repo" in plan.repos

    # the store now decodes bit-identically to base ∪ delta
    pq.write_table(delta, os.path.join(SRC, "delta.parquet"))
    v = run_verify_job(SRC, OUT)
    assert v["rows_match"] and v["digests_verified"], v


def test_second_append_uses_persisted_plan(ray_session, tmp_path):
    """A second delta must reuse the persisted (extended) plan without a
    base corpus argument, and keep the store verifiable."""
    delta2 = pa.table({
        "repo": ["zz-new/repo"],
        "path": ["x/w.go"],
        "commit": ["c9"],
        "lang": ["go"],
        "content": pa.array(["package w\n" * 30], type=pa.large_string()),
    })
    d2 = str(tmp_path / "delta2")
    os.makedirs(d2)
    pq.write_table(delta2, os.path.join(d2, "delta2.parquet"))
    r = run_append_job(d2, OUT, chunk_target_bytes=1 << 20)
    assert r["appended_rows"] == 1
    pq.write_table(delta2, os.path.join(SRC, "delta2.parquet"))
    v = run_verify_job(SRC, OUT)
    assert v["rows_match"] and v["digests_verified"], v


def test_append_retry_is_idempotent(ray_session, tmp_path):
    """Re-running the SAME append (as after a mid-job crash) must be a
    no-op: partitions already carrying the delta fingerprint are
    skipped and their delta rows are not applied twice."""
    delta3 = pa.table({
        "repo": ["zz-new/repo", "zz-new/repo"],
        "path": ["x/r1.go", "x/r2.go"],
        "commit": ["d1", "d2"],
        "lang": ["go", "go"],
        "content": pa.array(["package r1\n" * 20, "package r2\n" * 20], type=pa.large_string()),
    })
    d3 = str(tmp_path / "delta3")
    os.makedirs(d3)
    pq.write_table(delta3, os.path.join(d3, "delta3.parquet"))
    r1 = run_append_job(d3, OUT, chunk_target_bytes=1 << 20)
    assert r1["appended_rows"] == 2 and r1["reencoded"] >= 1
    rows_after = sum(m.n_rows for m in manifest_mod.scan_manifests(OUT).values())
    # retry with the identical delta: nothing re-encodes, nothing duplicates
    r2 = run_append_job(d3, OUT, chunk_target_bytes=1 << 20)
    assert r2["reencoded"] == 0 and r2["appended_rows"] == 0, r2
    assert r2["already_done"] >= 1
    rows_retry = sum(m.n_rows for m in manifest_mod.scan_manifests(OUT).values())
    assert rows_retry == rows_after
    pq.write_table(delta3, os.path.join(SRC, "delta3.parquet"))
    v = run_verify_job(SRC, OUT)
    assert v["rows_match"] and v["digests_verified"], v


_TUPLE = ("partition_id", "n_rows", "raw_bytes", "enc_bytes", "content_sha256")


def test_append_matches_inprocess_reference(ray_session, tmp_path):
    """Every re-encoded partition equals an in-process reference, bit
    for bit: the affected containers' decoded rows ∪ the delta →
    ``assign_pkeys`` → one ``encode_partition`` per pkey.  One pkey is
    fed by both a container and the delta."""
    import pyarrow.compute as pc

    from skar_ray.stages.encoder import encode_partition
    from skar_ray.stages.partitioner import assign_pkeys
    from skar_ray.state import container

    base = os.path.join(ensure_corpus(2000), "corpus.parquet")
    store = str(tmp_path / "store")
    run_encode_job(base, store, target_partition_bytes=2 << 20, chunk_target_bytes=1 << 20)
    before = {pid: container.read_container(os.path.join(store, m.data_file))
              for pid, m in manifest_mod.scan_manifests(store).items()}

    schema = read_corpus_table(base).schema
    some_repo = next(iter(before.values())).column("repo")[0].as_py()
    delta = pa.table({
        "repo": [some_repo] * 3 + ["zz-ref/repo"],
        "path": ["ref/a.py", "ref/b.py", "ref/c.py", "ref/d.go"],
        "commit": ["r1", "r2", "r3", "r4"],
        "lang": ["python", "python", "python", "go"],
        "content": ["import os\n" * 30, "x = 1\n" * 40, "y = 2\n" * 50, "package ref\n" * 20],
    }).cast(schema)
    delta_dir = str(tmp_path / "delta")
    os.makedirs(delta_dir)
    pq.write_table(delta, os.path.join(delta_dir, "delta.parquet"))

    r = run_append_job(delta_dir, store, base_corpus_path=base,
                       target_partition_bytes=2 << 20, chunk_target_bytes=1 << 20)
    affected = set(r["affected_partitions"])
    plan, _ = load_dir_plan(store)
    fed_by_delta = set(assign_pkeys(delta, plan).column("pkey").to_pylist())
    assert fed_by_delta & set(before), "no pkey is fed by both a container and the delta"

    rows = pa.concat_tables([before[pid] for pid in sorted(affected & set(before))] + [delta])
    keyed = assign_pkeys(rows, plan)
    want = []
    for pk in sorted(set(keyed.column("pkey").to_pylist())):
        s = encode_partition(keyed.filter(pc.equal(keyed.column("pkey"), pk)),
                             str(tmp_path / "reference"), 1 << 20)
        want.append(tuple(s.column(c)[0].as_py() for c in _TUPLE))
    after = manifest_mod.scan_manifests(store)
    got = [tuple(getattr(after[pid], c) for c in _TUPLE) for pid in sorted(affected)]
    assert got == want


def test_append_widens_a_differently_typed_delta(ray_session, tmp_path):
    """A delta file whose ``content`` is ``string`` joins containers
    holding ``large_string``: the exchange widens it to the common type
    instead of failing to concatenate."""
    from skar_ray.pipelines.decode_job import decoded_dataset

    base = os.path.join(ensure_corpus(500), "corpus.parquet")
    store = str(tmp_path / "store")
    run_encode_job(base, store, target_partition_bytes=1 << 20, chunk_target_bytes=1 << 20)
    repo = read_corpus_table(base).column("repo")[0].as_py()
    delta = pa.table({"repo": [repo], "path": ["w/a.py"], "commit": ["w1"], "lang": ["python"],
                      "content": pa.array(["z = 0\n" * 10], pa.string())})
    delta_dir = str(tmp_path / "delta")
    os.makedirs(delta_dir)
    pq.write_table(delta, os.path.join(delta_dir, "delta.parquet"))
    r = run_append_job(delta_dir, store, base_corpus_path=base,
                       target_partition_bytes=1 << 20, chunk_target_bytes=1 << 20)
    assert r["appended_rows"] == 1 and r["reencoded"] >= 1
    got = decoded_dataset(store, verify=True).to_pandas()
    assert len(got) == read_corpus_table(base).num_rows + 1
    assert ("z = 0\n" * 10) in set(got["content"])
