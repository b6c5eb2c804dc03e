"""The corpus-level codec plan: chosen once with the partition plan,
cached with it, and the only codec choice a hashed encode's reduces use."""

import json
import os
import pickle
import shutil

import pyarrow as pa
import pytest

from skar_ray.codecs.fsst import FsstCodec
from skar_ray.corpus import CorpusSpec, build_corpus, ensure_corpus
from skar_ray.pipelines import encode_job, hash_exchange
from skar_ray.pipelines.decode_job import run_verify_job
from skar_ray.stages.partitioner import PartitionPlan
from skar_ray.state import container, manifest

TARGET = 2 << 20


@pytest.fixture
def corpus(tmp_path):
    """A private copy of the 2,000-row corpus: its new path gives it a
    plan-cache key no other test has warmed."""
    path = str(tmp_path / "corpus.parquet")
    shutil.copytree(os.path.join(ensure_corpus(2000), "corpus.parquet"), path)
    return path


def _encode(corpus, out, **kw):
    return encode_job.run_encode_job(corpus, out, target_partition_bytes=TARGET,
                                     chunk_target_bytes=1 << 20, **kw)


def test_pickled_table_encodes_the_same_bytes():
    """Pickle keeps a trained table's chain order; ``serialize`` does not."""
    content = build_corpus(CorpusSpec(n_rows=300, seed=9)).column("content").combine_chunks()
    codec = FsstCodec()
    table = codec.make_table(b"".join(v.as_py().encode() for v in content[:200]))
    again = pickle.loads(pickle.dumps(table))
    assert again._multi == table._multi
    assert codec.encode(content, table=again) == codec.encode(content, table=table)


def test_plan_cache_rebuilds_an_old_shape_pickle(ray_session, corpus):
    """A plan pickled without ``codecs`` — the shape before codec plans —
    is rebuilt, whether it sits under the versioned key or under the
    unversioned key older code wrote."""
    cache_file = encode_job._plan_cache_file(corpus, TARGET)
    old = PartitionPlan(repos={"r": (0, 1)}, n_partitions=1, target_bytes=TARGET)
    del old.__dict__["codecs"]
    unversioned = cache_file.replace(f"-v{encode_job.PLAN_VERSION}-{encode_job._plan_code_hash()}.pkl", ".pkl")
    for path in (cache_file, unversioned):
        with open(path, "wb") as f:
            pickle.dump((old, TARGET), f)
    plan, target = encode_job._cached_plan(corpus, TARGET)
    assert target == TARGET and plan.n_partitions > 1
    assert set(plan.codecs) == {"repo", "path", "commit", "lang", "content"}
    with open(cache_file, "rb") as f:
        version, cached, _ = pickle.load(f)
    assert version == encode_job.PLAN_VERSION and set(cached.codecs) == set(plan.codecs)


def test_plan_cache_key_follows_the_codec_code(corpus, monkeypatch):
    """A plan cached by other codec or selector code is not loaded: the
    code's digest is part of the cache key."""
    before = encode_job._plan_cache_file(corpus, TARGET)
    encode_job._plan_code_hash.cache_clear()
    monkeypatch.setattr(encode_job, "codec_plan", lambda paths: {})
    try:
        assert encode_job._plan_cache_file(corpus, TARGET) != before
    finally:
        encode_job._plan_code_hash.cache_clear()


def test_cold_and_cached_plans_write_identical_stores(ray_session, corpus, tmp_path, monkeypatch):
    """An encode that makes the plan and one that loads it from the cache
    write byte-identical containers and identical partition digests."""
    cold, warm = str(tmp_path / "cold"), str(tmp_path / "warm")
    _encode(corpus, cold)

    def no_plan(paths):
        raise AssertionError("the second encode must load the cached codec plan")

    monkeypatch.setattr(encode_job, "codec_plan", no_plan)
    _encode(corpus, warm)
    files = {d: {p: m.data_file for p, m in manifest.scan_manifests(d).items()} for d in (cold, warm)}
    assert len(files[cold]) > 1 and files[cold].keys() == files[warm].keys()
    for pid, f in files[cold].items():
        with open(os.path.join(cold, f), "rb") as a, open(os.path.join(warm, files[warm][pid]), "rb") as b:
            assert a.read() == b.read(), pid
    digests = {d: {p: m.content_sha256 for p, m in manifest.scan_manifests(d).items()} for d in (cold, warm)}
    assert digests[cold] == digests[warm]


def test_reduces_select_and_train_nothing(ray_session, corpus, tmp_path, monkeypatch):
    """With the plan made, a max-profile hashed encode's reduces call
    neither the codec selector nor the FSST trainer, every container
    uses the plan's codecs with no per-container estimates, and the
    store verifies."""
    import ray

    plan, _ = encode_job._cached_plan(corpus, TARGET)
    real_reduce = hash_exchange._reduce_encode._function

    @ray.remote
    def counting_reduce(*args, **kwargs):
        from skar_ray.codecs import auto
        from skar_ray.codecs.fsst import FsstCodec as Codec

        calls = []
        orig_train, orig_select = Codec.make_table, auto.select_codec
        Codec.make_table = lambda self, data: calls.append("train") or orig_train(self, data)
        auto.select_codec = lambda *a, **k: calls.append("select") or orig_select(*a, **k)
        try:
            row = real_reduce(*args, **kwargs)
        finally:
            Codec.make_table, auto.select_codec = orig_train, orig_select
        return {**row, "calls": len(calls)}

    monkeypatch.setattr(hash_exchange, "_reduce_encode", counting_reduce)
    out = str(tmp_path / "store")
    s = _encode(corpus, out)
    assert s.num_rows > 1 and s.column("calls").to_pylist() == [0] * s.num_rows
    for m in manifest.scan_manifests(out).values():
        header, _ = container.read_header(os.path.join(out, m.data_file))
        for cm in header["chunks"][0]["columns"]:
            assert cm["codec"] == plan.codecs[cm["name"]][0] and cm["estimates"] == {}
    v = run_verify_job(corpus, out)
    assert v["rows_match"] and v["digests_verified"]


def test_overrides_win_column_by_column(ray_session, corpus, tmp_path):
    """A codec override replaces the plan's codec for its column only."""
    plan, _ = encode_job._cached_plan(corpus, TARGET)
    other = "plain" if plan.codecs["lang"][0] != "plain" else "dict"
    out = str(tmp_path / "store")
    _encode(corpus, out, codec_overrides={"lang": other})
    for m in manifest.scan_manifests(out).values():
        assert m.columns["lang"]["codec"] == other
        for name in ("repo", "path", "commit", "content"):
            assert m.columns[name]["codec"] == plan.codecs[name][0]
    with open(os.path.join(manifest.manifest_dir(out), "_job.json")) as f:
        assert "lang" not in json.load(f)["codec_plan"]


def test_job_json_records_plan_estimates_and_realized_bytes(ray_session, corpus, tmp_path):
    """``_job.json`` holds each planned column's codec, its sample
    estimates and the bytes it realized summed over the manifests."""
    out = str(tmp_path / "store")
    s = _encode(corpus, out)
    with open(os.path.join(manifest.manifest_dir(out), "_job.json")) as f:
        job = json.load(f)
    plan, _ = encode_job._cached_plan(corpus, TARGET)
    realized = {}
    for m in manifest.scan_manifests(out).values():
        for name, st in m.columns.items():
            realized[name] = realized.get(name, 0) + st["enc_bytes"]
    assert set(job["codec_plan"]) == set(plan.codecs)
    for name, (codec, _, estimates) in plan.codecs.items():
        rec = job["codec_plan"][name]
        assert rec["codec"] == codec and codec in rec["estimates"]
        assert rec["estimates"] == estimates and rec["enc_bytes"] == realized[name]
    assert sum(r["enc_bytes"] for r in job["codec_plan"].values()) == job["enc_bytes"]
    assert job["enc_bytes"] == sum(s.column("enc_bytes").to_pylist())


def test_fast_encode_leaves_the_codec_plan_to_the_next_encode(ray_session, corpus, tmp_path):
    """A fast-profile encode caches its partition plan without codecs;
    the next max-profile encode makes them, caches them and encodes
    with them."""
    def cached_codecs():
        with open(encode_job._plan_cache_file(corpus, TARGET), "rb") as f:
            return pickle.load(f)[1].codecs

    _encode(corpus, str(tmp_path / "fast"), profile="fast")
    assert cached_codecs() is None
    out = str(tmp_path / "max")
    _encode(corpus, out)
    codecs = cached_codecs()
    assert set(codecs) == {"repo", "path", "commit", "lang", "content"}
    for m in manifest.scan_manifests(out).values():
        header, _ = container.read_header(os.path.join(out, m.data_file))
        for cm in header["chunks"][0]["columns"]:
            assert cm["codec"] == codecs[cm["name"]][0] and cm["estimates"] == {}


def test_non_string_columns_select_per_partition(ray_session, tmp_path):
    """The plan covers string-like columns only.  An extra uint64 column
    whose file head holds small values and whose later rows reach 2**63
    (more than ``for_bitpack`` can hold) selects per partition, and the
    store keeps every value."""
    import pyarrow.parquet as pq

    from skar_ray.corpus import read_corpus_table
    from skar_ray.pipelines.decode_job import decoded_dataset

    t = read_corpus_table(os.path.join(ensure_corpus(2000), "corpus.parquet"))
    u = [i if i < 1024 else (1 << 63) + i for i in range(t.num_rows)]
    t = t.append_column("u", pa.array(u, pa.uint64()))
    corpus = str(tmp_path / "corpus")
    os.makedirs(corpus)
    pq.write_table(t, os.path.join(corpus, "part-0000.parquet"))
    out = str(tmp_path / "store")
    _encode(corpus, out)
    plan, _ = encode_job._cached_plan(corpus, TARGET)
    assert "u" not in plan.codecs and set(plan.codecs) == {"repo", "path", "commit", "lang", "content"}
    for m in manifest.scan_manifests(out).values():
        header, _ = container.read_header(os.path.join(out, m.data_file))
        (cm,) = [c for c in header["chunks"][0]["columns"] if c["name"] == "u"]
        assert cm["estimates"]  # selected for this partition
    got = decoded_dataset(out, columns=["u"]).to_pandas()["u"].tolist()
    assert sorted(got) == u
    v = run_verify_job(corpus, out)
    assert v["rows_match"] and v["digests_verified"]


def test_append_uses_the_plan_only_without_container_sources(ray_session, corpus, tmp_path):
    """An append of new repos alone (parquet sources only) encodes with
    the plan; one that touches an existing partition selects per
    partition, as its decoded rows are not in the plan's sample."""
    import pyarrow.parquet as pq

    from skar_ray.corpus import read_corpus_table
    from skar_ray.pipelines.append_job import run_append_job

    store = str(tmp_path / "store")
    _encode(corpus, store)
    plan, _ = encode_job._cached_plan(corpus, TARGET)
    schema = read_corpus_table(corpus).schema
    old_repo = next(r for r, (_, nb) in sorted(plan.repos.items()) if nb == 1)

    def append(name, repo):
        delta = pa.table({"repo": [repo] * 3, "path": ["a.py", "b.py", "c.py"],
                          "commit": ["c1", "c1", "c2"], "lang": ["python"] * 3,
                          "content": ["x = 1\n" * 20, "y = 2\n" * 30, "z = 3\n" * 40]}).cast(schema)
        os.makedirs(tmp_path / name)
        pq.write_table(delta, str(tmp_path / name / "delta.parquet"))
        r = run_append_job(str(tmp_path / name), store, base_corpus_path=corpus,
                           target_partition_bytes=TARGET, chunk_target_bytes=1 << 20)
        (pid,) = r["affected_partitions"]
        header, _ = container.read_header(
            os.path.join(store, manifest.read_manifest(store, pid).data_file))
        return {cm["name"]: cm for cm in header["chunks"][0]["columns"]}

    fresh = append("new", "zz-new/repo")
    assert all(cm["codec"] == plan.codecs[n][0] and cm["estimates"] == {} for n, cm in fresh.items())
    merged = append("old", old_repo)
    assert all(cm["estimates"] for cm in merged.values())
