"""End-to-end encode → decode round-trip on the golden corpus.

The analog of the reference's end-to-end test feeding real block JSON
through columnarize → write → re-read → recompute logs_bloom
(/root/reference/skar/src/tests.rs:24-85): seeded corpus → encode →
decode → bit-identical table + per-row sha256 equality + size ≤ the
pyarrow zstd Parquet oracle.
"""

import hashlib
import os
import shutil

import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq

from skar_ray.corpus import read_corpus_table
import pytest

from skar_ray.codecs import auto, base
from skar_ray.codecs.fsst import FsstCodec, SymbolTable
from skar_ray.corpus import ensure_corpus
from skar_ray.pipelines.decode_job import decoded_dataset, run_verify_job
from skar_ray.pipelines.encode_job import _cached_plan, corpus_sample, run_encode_job
from skar_ray.stages.encoder import encode_partition
from skar_ray.stages.partitioner import assign_pkeys, input_paths, make_plan, repo_size_prepass
from skar_ray.state import container, manifest

N_ROWS = 2000
OUT = "/tmp/skar_pytest_out"


@pytest.fixture(scope="module")
def corpus_dir():
    return ensure_corpus(N_ROWS)


@pytest.fixture(scope="module")
def encoded(ray_session, corpus_dir):
    shutil.rmtree(OUT, ignore_errors=True)
    corpus = os.path.join(corpus_dir, "corpus.parquet")
    summary = run_encode_job(corpus, OUT, target_partition_bytes=2 << 20, chunk_target_bytes=1 << 20)
    return corpus, summary


def _normalize(t: pa.Table) -> pa.Table:
    idx = pc.sort_indices(t, sort_keys=[(k, "ascending") for k in ["repo", "path", "commit", "content"]])
    return t.take(idx).combine_chunks()


def test_roundtrip_bit_identical(encoded):
    corpus, _ = encoded
    src = read_corpus_table(corpus)
    dec = decoded_dataset(OUT, verify=True).to_pandas()
    got = _normalize(pa.Table.from_pandas(dec).cast(src.schema))
    want = _normalize(src)
    assert got.num_rows == want.num_rows
    for col in want.column_names:
        assert got.column(col).equals(want.column(col)), f"column {col} differs"


def test_per_row_sha256_equality(encoded):
    corpus, _ = encoded
    src = read_corpus_table(corpus).select(["content"])
    want = sorted(hashlib.sha256(v.as_py().encode()).hexdigest() for v in src.column("content"))
    dec = decoded_dataset(OUT, columns=["content"]).to_pandas()
    got = sorted(hashlib.sha256(v.encode()).hexdigest() for v in dec["content"])
    assert got == want


def test_size_beats_reference_zstd(encoded, corpus_dir):
    _, summary = encoded
    enc_total = pc.sum(summary.column("enc_bytes")).as_py()
    ref = os.path.getsize(os.path.join(corpus_dir, "reference_zstd.parquet"))
    assert enc_total <= ref, f"encoded {enc_total} > reference zstd parquet {ref}"


def test_verify_job(encoded):
    corpus, _ = encoded
    v = run_verify_job(corpus, OUT)
    assert v["rows_match"] and v["digests_verified"]


def test_manifest_lineage(encoded):
    ms = manifest.scan_manifests(OUT)
    assert ms
    for m in ms.values():
        assert m.status == "done"
        assert set(m.columns) == {"repo", "path", "commit", "lang", "content"}
        for st in m.columns.values():
            assert st["codec"] in ("plain", "dict", "rle", "for_bitpack", "fsst", "delta")
        assert m.enc_bytes > 0 and m.raw_bytes > 0
        assert len(m.content_sha256) == 64


def test_skew_giant_repo_is_split(ray_session, corpus_dir):
    """The zipf giant repo (~30% of rows) must be salted across >1 partition."""
    import ray.data

    corpus = os.path.join(corpus_dir, "corpus.parquet")
    ds = ray.data.read_parquet(corpus)
    target = 1 << 20
    plan = make_plan(repo_size_prepass(ds), target)
    giant = max(plan.repos.items(), key=lambda kv: kv[1][1])
    assert giant[1][1] > 1, f"giant repo not split: {plan.repos}"
    # and no partition id collides across split buckets
    seen = set()
    for r, (start, nb) in plan.repos.items():
        for b in range(nb):
            if nb > 1:
                assert start + b not in seen
                seen.add(start + b)


def test_resume_skips_done_partitions(ray_session, encoded):
    corpus, first = encoded
    before = {
        f: os.path.getmtime(os.path.join(OUT, f))
        for f in os.listdir(OUT)
        if f.endswith(".skarc")
    }
    summary = run_encode_job(corpus, OUT, target_partition_bytes=2 << 20, chunk_target_bytes=1 << 20)
    skipped = summary.filter(pc.field("skipped")).num_rows
    assert skipped == summary.num_rows, "all partitions should resume from manifest"
    after = {
        f: os.path.getmtime(os.path.join(OUT, f))
        for f in os.listdir(OUT)
        if f.endswith(".skarc")
    }
    assert before == after, "resume must not rewrite finished partitions"


def test_copied_corpus_resumes_every_partition(ray_session, encoded, tmp_path):
    """Per-partition fingerprints key on file names, sizes and mtimes,
    not on where the corpus lives: a copy of the corpus (copytree keeps
    mtimes) encoded into the same store resume-skips every partition."""
    corpus, _ = encoded
    copy = str(tmp_path / "corpus.parquet")
    shutil.copytree(corpus, copy)
    before = {f: os.path.getmtime(os.path.join(OUT, f)) for f in os.listdir(OUT)}
    summary = run_encode_job(copy, OUT, target_partition_bytes=2 << 20, chunk_target_bytes=1 << 20)
    assert summary.filter(pc.field("skipped")).num_rows == summary.num_rows
    assert {f: os.path.getmtime(os.path.join(OUT, f)) for f in before} == before


def _fsst_symbols(path: str, column: str) -> list[bytes] | None:
    """The symbols of the table a container's first chunk embeds for
    ``column``; None when the column is not fsst-encoded."""
    header, blob_start = container.read_header(path)
    (cm,) = [c for c in header["chunks"][0]["columns"] if c["name"] == column]
    if cm["codec"] != "fsst":
        return None
    with open(path, "rb") as f:
        f.seek(blob_start + cm["offset"])
        blob = f.read(cm["length"])
    payload = auto.page_decompress(blob, cm["page"], cm["payload_len"])
    return SymbolTable.deserialize(base.unpack_sections(payload)[2]).symbols


def test_hashed_encode_shares_one_content_table(encoded):
    """A hashed encode trains ONE content table from the file-stratified
    sample, with the partition plan, and every container embeds it; a
    column the codec plan gives FSST embeds the plan's one table too."""
    corpus, summary = encoded
    files = sorted(os.path.join(OUT, f) for f in os.listdir(OUT) if f.endswith(".skarc"))
    assert len(files) > 1
    want = FsstCodec().make_table(corpus_sample(input_paths(corpus))[0]).symbols
    assert all(_fsst_symbols(f, "content") == want for f in files)
    plan, _ = _cached_plan(corpus, 2 << 20)
    for name, (codec, table, _) in plan.codecs.items():
        assert (table is not None) == (codec == "fsst"), name
        if table is not None:
            assert all(_fsst_symbols(f, name) == table.symbols for f in files), name


def test_content_sample_is_stratified_by_input_file(tmp_path):
    """Piece i (4 KiB) comes from input file ``i * n // 16``; a file's
    pieces are spread along the first 1 MiB of its content.  The row
    sample is each stratum's first 64 rows of the string-like columns,
    1024 in all; one file standing for all 16 strata gives its first
    1024 rows, here all 301."""
    def write(name, rows, **extra):
        path = str(tmp_path / name)
        pq.write_table(pa.table({"content": pa.array(rows, pa.large_string()), **extra}), path)
        return path

    many = [write(f"a{j:02d}.parquet", [chr(65 + j) * 5000] + [f"{j}:{i}" for i in range(300)],
                  n=pa.array(range(301), pa.int64()))
            for j in range(20)]
    pieces, rows = corpus_sample(many)
    assert pieces == b"".join(chr(65 + i * 20 // 16).encode() * 4096 for i in range(16))
    strata = [i * 20 // 16 for i in range(16)]
    assert rows.column_names == ["content"]  # the int column is not sampled
    assert rows.column("content").to_pylist() == [
        v for j in strata for v in [chr(65 + j) * 5000] + [f"{j}:{i}" for i in range(63)]
    ]
    assert corpus_sample(many[:1])[1].num_rows == 301
    text = "".join(f"{i:07d}\n" for i in range(1 << 18))  # 2 MiB in one row
    step = (1 << 20) // 8
    want = "".join(text[j * step : j * step + 4096] for j in range(8)).encode()
    assert corpus_sample([write(f"b{j}.parquet", [text]) for j in range(2)])[0] == want * 2


def test_corpus_sample_memory_is_bounded_on_null_content(tmp_path):
    """A file whose content is all null never fills the 1 MiB content
    head, so its content is read to the end; the sample still holds
    only its 1024 rows of the other columns, not the file's 19 MB of
    ``path`` values."""
    import gc

    n = 40_000
    path = str(tmp_path / "null_content.parquet")
    pq.write_table(pa.table({"content": pa.nulls(n, pa.large_string()),
                             "path": [f"{i:08d}" * 60 for i in range(n)]}), path)
    default = pa.default_memory_pool()
    pool = pa.proxy_memory_pool(default)
    pa.set_memory_pool(pool)
    try:
        pieces, rows = corpus_sample([path])
        paths = rows.column("path").to_pylist()
        del rows  # every buffer of the pool is freed before the pool is
    finally:
        pa.set_memory_pool(default)
    gc.collect()
    assert pool.bytes_allocated() == 0
    assert pieces == b"" and paths == [f"{i:08d}" * 60 for i in range(1024)]
    assert pool.max_memory() < 4 << 20


def test_fast_profile_trains_no_table(ray_session, corpus_dir, tmp_path, monkeypatch):
    """The fast profile overrides every column, so neither the driver
    nor a reduce task calls ``make_table``, even on a cold plan cache
    (a private corpus copy has a plan-cache key no test has warmed)."""
    import ray

    from skar_ray.pipelines import hash_exchange

    corpus = str(tmp_path / "corpus.parquet")
    shutil.copytree(os.path.join(corpus_dir, "corpus.parquet"), corpus)
    driver_calls = []
    real_make_table = FsstCodec.make_table
    monkeypatch.setattr(FsstCodec, "make_table",
                        lambda self, data: driver_calls.append(len(data)) or real_make_table(self, data))
    real_reduce = hash_exchange._reduce_encode._function

    @ray.remote
    def counting_reduce(*args, **kwargs):
        from skar_ray.codecs.fsst import FsstCodec as Codec

        calls = []
        orig = Codec.make_table
        Codec.make_table = lambda self, data: calls.append(len(data)) or orig(self, data)
        try:
            row = real_reduce(*args, **kwargs)
        finally:
            Codec.make_table = orig
        return {**row, "trained": len(calls)}

    monkeypatch.setattr(hash_exchange, "_reduce_encode", counting_reduce)
    s = run_encode_job(corpus, str(tmp_path / "fast"), target_partition_bytes=2 << 20,
                       chunk_target_bytes=1 << 20, profile="fast")
    assert s.num_rows > 1 and s.column("trained").to_pylist() == [0] * s.num_rows
    assert driver_calls == []


@pytest.mark.parametrize("content", ["all_null", "under_4_kib"])
def test_hashed_encode_of_sparse_content_verifies(ray_session, tmp_path, content):
    """The shared content table's sampler copes with a corpus whose
    content is all null (an empty sample: no shared table) or under
    4 KiB in total (the sample is all of it)."""
    from skar_ray.corpus import CorpusSpec, build_corpus

    t = build_corpus(CorpusSpec(n_rows=60, seed=3))
    i = t.column_names.index("content")
    if content == "all_null":
        col = pa.nulls(t.num_rows, pa.large_string())
    else:
        col = pa.array([f"x{r % 7} = {r}" for r in range(t.num_rows)], pa.large_string())
    t = t.set_column(i, "content", col)
    corpus = str(tmp_path / "corpus.parquet")
    os.makedirs(corpus)
    for k in range(3):
        pq.write_table(t.slice(20 * k, 20), os.path.join(corpus, f"part-{k:04d}.parquet"))
    assert len(corpus_sample(input_paths(corpus))[0]) < 4 << 10
    out = str(tmp_path / "store")
    s = run_encode_job(corpus, out, target_partition_bytes=1 << 10, chunk_target_bytes=1 << 20)
    assert s.num_rows >= 1
    v = run_verify_job(corpus, out)
    assert v["rows_match"] and v["digests_verified"]


def test_export_job_resumable(ray_session, encoded, tmp_path):
    from skar_ray.pipelines.decode_job import run_export_job

    corpus, _ = encoded
    dest = str(tmp_path / "export")
    r1 = run_export_job(OUT, dest)
    assert r1["exported"] > 0 and r1["skipped"] == 0
    r2 = run_export_job(OUT, dest)
    assert r2["exported"] == 0 and r2["skipped"] == r1["exported"]
    # exported parquet holds exactly the source rows
    back = read_corpus_table(dest)
    src = read_corpus_table(corpus)
    assert back.num_rows == src.num_rows
    got = _normalize(back.cast(src.schema))
    want = _normalize(src)
    for col in want.column_names:
        assert got.column(col).equals(want.column(col)), col


def test_hashed_mode_matches_inprocess_reference_and_resumes(ray_session, corpus_dir, tmp_path):
    corpus = os.path.join(corpus_dir, "corpus.parquet")
    out = str(tmp_path / "hashed")
    s1 = run_encode_job(corpus, out, target_partition_bytes=2 << 20,
                        chunk_target_bytes=1 << 20, mode="hashed")
    assert s1.num_rows > 1
    v = run_verify_job(corpus, out)
    assert v["rows_match"] and v["digests_verified"]
    # resume: all partitions skipped, files untouched
    before = {f: os.path.getmtime(os.path.join(out, f)) for f in os.listdir(out) if f.endswith(".skarc")}
    s2 = run_encode_job(corpus, out, target_partition_bytes=2 << 20,
                        chunk_target_bytes=1 << 20, mode="hashed")
    assert s2.filter(pc.field("skipped")).num_rows == s2.num_rows
    after = {f: os.path.getmtime(os.path.join(out, f)) for f in os.listdir(out) if f.endswith(".skarc")}
    assert before == after
    # reference with no exchange: assign pkeys to the whole corpus in
    # process and encode each pkey's rows directly — the exchange must
    # deliver exactly those rows to each partition, bit for bit
    # (with the plan's codecs and tables)
    plan, _ = _cached_plan(corpus, 2 << 20)
    keyed = assign_pkeys(read_corpus_table(corpus), plan)
    ref_dir = str(tmp_path / "reference")
    cols = ["partition_id", "n_rows", "raw_bytes", "enc_bytes", "content_sha256"]
    want = []
    for pk in sorted(set(keyed.column("pkey").to_pylist())):
        rows = keyed.filter(pc.equal(keyed.column("pkey"), pk))
        r = encode_partition(rows, ref_dir, 1 << 20, codec_plan=plan.codecs)
        want.append(tuple(r.column(c)[0].as_py() for c in cols))
    got = sorted(zip(*(s1.column(c).to_pylist() for c in cols)))
    assert got == sorted(want), "hash exchange must produce the reference partitions"


def test_unknown_encode_mode_raises(tmp_path, corpus_dir):
    corpus = os.path.join(corpus_dir, "corpus.parquet")
    with pytest.raises(ValueError, match="hashed.*sharded"):
        run_encode_job(corpus, str(tmp_path / "out"), mode="grouped")
    assert not os.path.exists(tmp_path / "out")


def test_map_side_streaming_buffer_is_transparent(ray_session, corpus_dir, tmp_path, monkeypatch):
    """The hash-exchange map side streams record batches through a
    bounded buffer (so a giant input file can't blow a worker's heap).
    Shrinking the buffer to 64 KiB forces many flushes per map task —
    the store must come out identical to the default single-flush run
    (content-derived salting + reducer lexsort make chunking invisible)."""
    from skar_ray.pipelines import hash_exchange

    corpus = os.path.join(corpus_dir, "corpus.parquet")
    monkeypatch.setattr(hash_exchange, "_MAP_BUFFER_BYTES", 64 << 10)
    out = str(tmp_path / "tiny_buf")
    s_tiny = run_encode_job(corpus, out, target_partition_bytes=2 << 20,
                            chunk_target_bytes=1 << 20, mode="hashed")
    v = run_verify_job(corpus, out)
    assert v["rows_match"] and v["digests_verified"]
    monkeypatch.undo()
    out2 = str(tmp_path / "default_buf")
    s_def = run_encode_job(corpus, out2, target_partition_bytes=2 << 20,
                           chunk_target_bytes=1 << 20, mode="hashed")
    tiny = sorted(zip(s_tiny.column("partition_id").to_pylist(),
                      s_tiny.column("content_sha256").to_pylist()))
    dflt = sorted(zip(s_def.column("partition_id").to_pylist(),
                      s_def.column("content_sha256").to_pylist()))
    assert tiny == dflt, "map-side buffer size must not change partition contents"


def test_corrupted_container_fails_verification(ray_session, tmp_path):
    """Round-trip proof must be falsifiable: flipping one payload byte in
    a .skarc makes the verify job raise (digest mismatch or codec
    error) instead of silently passing."""
    import glob

    import pytest as pt

    from skar_ray.corpus import ensure_corpus
    from skar_ray.pipelines.decode_job import run_verify_job
    from skar_ray.pipelines.encode_job import run_encode_job

    d = ensure_corpus(2000)
    corpus = os.path.join(d, "corpus.parquet")
    out = str(tmp_path / "enc")
    run_encode_job(corpus, out, target_partition_bytes=2 << 20, chunk_target_bytes=1 << 20)
    assert run_verify_job(corpus, out)["digests_verified"]
    p = sorted(glob.glob(os.path.join(out, "*.skarc")), key=os.path.getsize)[-1]
    with open(p, "r+b") as f:
        f.seek(os.path.getsize(p) - 64)  # inside the blob area
        b = f.read(1)
        f.seek(-1, 1)
        f.write(bytes([b[0] ^ 0xFF]))
    with pt.raises(Exception):
        run_verify_job(corpus, out)


def test_validate_before_publish_blocks_corrupt_encode(ray_session, tmp_path, monkeypatch):
    """The reference validates the written file BEFORE the atomic rename
    and manifest insert (skar_runner.rs:309-321): a corrupted encode
    must raise during the encode job and publish NOTHING — no .skarc,
    no temp file, no manifest row — rather than surfacing only in a
    later verify job."""
    import glob

    import pyarrow as pa

    from skar_ray.corpus import ensure_corpus, read_corpus_table
    from skar_ray.stages import encoder
    from skar_ray.state import container as cont

    d = ensure_corpus(500)
    t = read_corpus_table(os.path.join(d, "corpus.parquet")).slice(0, 200)
    t = t.append_column("pkey", pa.array([7] * t.num_rows, type=pa.int64()))
    out = str(tmp_path / "enc")

    real_read = cont.read_container

    def corrupted_read(path, *a, **kw):
        dec = real_read(path, *a, **kw)
        # swap one content value: decode "succeeded" but is wrong
        col = dec.column("content").to_pylist()
        col[0] = (col[0] or "") + "!"
        return pa.table({"content": pa.array(col, type=dec.column("content").type)})

    monkeypatch.setattr(cont, "read_container", corrupted_read)
    with pytest.raises(IOError, match="pre-publish"):
        encoder.encode_partition(t, out, chunk_target_bytes=1 << 20)
    assert glob.glob(os.path.join(out, "*.skarc")) == []
    assert glob.glob(os.path.join(out, "*.tmp*")) == []
    assert not os.path.exists(os.path.join(out, "_manifest", "part-000007.json"))

    # untampered encode publishes and records the validate timing
    monkeypatch.setattr(cont, "read_container", real_read)
    s = encoder.encode_partition(t, out, chunk_target_bytes=1 << 20)
    assert s.num_rows == 1 and not s.column("skipped")[0].as_py()
    assert glob.glob(os.path.join(out, "*.skarc"))
    m = manifest.read_manifest(out, 7)
    assert "validate" in m.extra["timings"]


def test_mutated_input_reencodes_only_affected_partitions(ray_session, tmp_path):
    """The reorg/rollback analog (reference detects reorged block ranges
    and re-encodes only affected folders, skar_runner.rs:107-158): after
    one input file of a multi-file corpus is mutated IN CONTENT ONLY
    (same row counts, same content lengths → identical partition plan),
    a resume run must re-encode exactly the partitions fed by that file,
    skip every other one untouched, and converge to the same store a
    from-scratch encode of the mutated corpus produces."""
    import glob

    from skar_ray.corpus import ensure_corpus

    src = ensure_corpus(2000)
    corpus = str(tmp_path / "corpus.parquet")
    shutil.copytree(os.path.join(src, "corpus.parquet"), corpus)
    out = str(tmp_path / "store")

    s1 = run_encode_job(corpus, out, target_partition_bytes=2 << 20,
                        chunk_target_bytes=1 << 20, mode="hashed")
    assert s1.num_rows > 2

    # mutate ONE part file: flip one row's content to different bytes of
    # the SAME length (keeps per-repo row counts and avg row size, hence
    # the plan and pkey numbering, bit-identical)
    victim = sorted(glob.glob(os.path.join(corpus, "*.parquet")))[0]
    t = pq.read_table(victim)
    col = t.column("content").to_pylist()
    col[0] = "Z" * len(col[0])
    idx = t.column_names.index("content")
    t = t.set_column(idx, "content", pa.array(col, type=pa.large_string()))
    pq.write_table(t, victim, compression="zstd")
    mutated_repos = set(pc.unique(t.column("repo")).to_pylist())

    before = {f: os.path.getmtime(os.path.join(out, f))
              for f in os.listdir(out) if f.endswith(".skarc")}
    s2 = run_encode_job(corpus, out, target_partition_bytes=2 << 20,
                        chunk_target_bytes=1 << 20, mode="hashed")
    redone = s2.filter(pc.invert(pc.field("skipped")))
    skipped = s2.filter(pc.field("skipped"))
    assert 0 < redone.num_rows < s2.num_rows, "mutation must re-encode SOME but not ALL"

    # exactly the partitions fed by the mutated file's repos re-encoded
    from skar_ray.pipelines.encode_job import _cached_plan

    plan, _ = _cached_plan(corpus, 2 << 20)
    affected = set()
    for r in mutated_repos:
        start, nb = plan.repos.get(r, (0, 1))
        affected.update(range(start, start + nb))
    assert set(redone.column("partition_id").to_pylist()) == affected

    # untouched partitions' containers were not rewritten
    after = {f: os.path.getmtime(os.path.join(out, f))
             for f in os.listdir(out) if f.endswith(".skarc")}
    ms = manifest.scan_manifests(out)
    for pid in skipped.column("partition_id").to_pylist():
        name = ms[pid].data_file
        assert before[name] == after[name], name

    # resumed store == from-scratch encode of the mutated corpus
    out2 = str(tmp_path / "scratch")
    s3 = run_encode_job(corpus, out2, target_partition_bytes=2 << 20,
                        chunk_target_bytes=1 << 20, mode="hashed", resume=False)
    assert sorted(s2.column("content_sha256").to_pylist()) == \
        sorted(s3.column("content_sha256").to_pylist())
    v = run_verify_job(corpus, out)
    assert v["rows_match"] and v["digests_verified"]


def test_reencode_with_shrunk_corpus_sweeps_orphans(ray_session, tmp_path):
    """Re-encoding a SMALLER corpus into an existing store must leave
    the store == encode(new corpus) EXACTLY: partitions the new plan no
    longer produces are swept (container + manifest), or every query —
    which scans all manifests — would read stale rows.  The rollback
    truncation analog (skar_runner.rs:160-213)."""
    import glob

    from skar_ray.corpus import ensure_corpus

    src = ensure_corpus(2000)
    big = os.path.join(src, "corpus.parquet")
    out = str(tmp_path / "store")
    run_encode_job(big, out, target_partition_bytes=1 << 20,
                   chunk_target_bytes=1 << 20, mode="hashed")
    n_before = len(manifest.scan_manifests(out))
    assert n_before > 3

    # smaller corpus: ONE part file of the original (fewer repos/rows)
    small = str(tmp_path / "small.parquet")
    os.makedirs(small)
    victim = sorted(glob.glob(os.path.join(big, "*.parquet")))[0]
    shutil.copy(victim, os.path.join(small, "part-0000.parquet"))

    run_encode_job(small, out, target_partition_bytes=1 << 20,
                   chunk_target_bytes=1 << 20, mode="hashed")
    ms = manifest.scan_manifests(out)
    assert len(ms) < n_before, "orphaned partitions must be swept"
    # every remaining container exists; no stray .skarc beyond manifests
    files = {f for f in os.listdir(out) if f.endswith(".skarc")}
    assert files == {m.data_file for m in ms.values()}
    v = run_verify_job(small, out)
    assert v["rows_match"] and v["digests_verified"]


def test_encode_partition_nullable_lowcard_string(tmp_path):
    """Regression: a null in a low-cardinality string column crashed the
    pruning-stats block (sorted() comparing None to str) AFTER the
    container was written — the manifest never published, so the
    partition re-encoded and re-crashed forever on resume."""
    from skar_ray.stages.encoder import encode_partition
    from skar_ray.state import container, manifest as mm

    t = pa.table({
        "repo": ["r1", "r1", "r1"],
        "path": ["a.py", "b.py", "c.py"],
        "commit": ["c" * 40] * 3,
        "lang": pa.array(["py", None, "py"]),
        "content": ["x = 1", "y = 2", "z = 3"],
    })
    s = encode_partition(t, str(tmp_path), 1 << 20)
    assert s.num_rows == 1
    m = mm.scan_manifests(str(tmp_path))[0]
    got = container.read_container(os.path.join(str(tmp_path), m.data_file))
    assert got.sort_by("path").equals(t.sort_by("path"))
