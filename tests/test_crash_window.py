"""The crash window of every job that changes a published partition:
the job published its new containers, then died before writing their
manifests.

Emulated the same way for append, derive and drop_column: run the job
on one copy of the store, then build the crash state from another
pre-job copy plus every ``.skarc`` file the job wrote, copied in by
name, with the pre-job ``_manifest/`` kept.  In that state the store
must answer the pre-job snapshot exactly; re-running the job must
converge to the uninterrupted job's answers, pass the verify job and
leave no container that no manifest references."""

import filecmp
import os
import shutil

import pandas as pd
import pyarrow as pa
import pyarrow.parquet as pq
import pytest

from skar_ray.corpus import ensure_corpus, read_corpus_table
from skar_ray.pipelines.append_job import run_append_job
from skar_ray.pipelines.decode_job import decoded_dataset, run_verify_job
from skar_ray.pipelines.derive import run_derive_column_job, run_drop_column_job
from skar_ray.pipelines.encode_job import run_encode_job
from skar_ray.pipelines.query_encoded import query_encoded
from skar_ray.state import manifest as manifest_mod


@pytest.fixture(scope="module")
def base(ray_session, tmp_path_factory):
    """(base corpus file, encoded store, base table)."""
    root = tmp_path_factory.mktemp("crash_window")
    table = read_corpus_table(os.path.join(ensure_corpus(2000), "corpus.parquet"))
    os.makedirs(root / "src")
    corpus = str(root / "src" / "base.parquet")
    pq.write_table(table, corpus)
    store = str(root / "store")
    run_encode_job(corpus, store, target_partition_bytes=2 << 20, chunk_target_bytes=1 << 20)
    assert len(manifest_mod.scan_manifests(store)) >= 4
    return corpus, store, table


def _ordered(df: pd.DataFrame) -> pd.DataFrame:
    cols = sorted(df.columns)
    return df[cols].sort_values(cols).reset_index(drop=True)


def _answers(store: str, probe_path: str) -> list[pd.DataFrame]:
    """A digest-verified scan of the whole store, and a pruned point
    query on ``path``."""
    scan = decoded_dataset(store, verify=True).to_pandas()
    hit = query_encoded(store, filters=[[("path", "==", probe_path)]]).to_pandas()
    return [_ordered(scan), _ordered(hit)]


def _assert_same(a: list[pd.DataFrame], b: list[pd.DataFrame]) -> None:
    for x, y in zip(a, b):
        pd.testing.assert_frame_equal(x, y)


def _skarcs(store) -> set[str]:
    return {f for f in os.listdir(store) if f.endswith(".skarc")}


def _check_crash_window(tmp_path, store: str, op, verify_corpus: str, probe_path: str) -> None:
    pre, done, crash = (tmp_path / n for n in ("pre", "done", "crash"))
    shutil.copytree(store, pre)
    shutil.copytree(pre, done)
    op(str(done))
    shutil.copytree(pre, crash)
    wrote = [f for f in sorted(_skarcs(done))
             if not (pre / f).exists() or not filecmp.cmp(pre / f, done / f, shallow=False)]
    assert wrote, "the job wrote no container"
    for f in wrote:
        shutil.copy2(done / f, crash / f)

    # published containers without their manifests: the old snapshot
    _assert_same(_answers(str(crash), probe_path), _answers(str(pre), probe_path))

    # the retry converges to the uninterrupted job's store
    op(str(crash))
    v = run_verify_job(verify_corpus, str(crash))
    assert v["rows_match"] and v["digests_verified"], v
    _assert_same(_answers(str(crash), probe_path), _answers(str(done), probe_path))
    for d in (crash, done):
        live = manifest_mod.scan_manifests(str(d))
        assert _skarcs(d) == {m.data_file for m in live.values()}, d


def test_append_crash_window(base, tmp_path):
    corpus, store, table = base
    delta = pa.table({
        "repo": [table.column("repo")[0].as_py()] * 2 + ["zz-crash/repo"],
        "path": ["crash/a.py", "crash/b.py", "crash/c.go"],
        "commit": ["k1", "k2", "k3"],
        "lang": ["python", "python", "go"],
        "content": ["a = 1\n" * 30, "b = 2\n" * 40, "package c\n" * 20],
    }).cast(table.schema)
    os.makedirs(tmp_path / "delta")
    pq.write_table(delta, str(tmp_path / "delta" / "delta.parquet"))
    merged = tmp_path / "merged"
    os.makedirs(merged)
    shutil.copy(corpus, merged / "base.parquet")
    pq.write_table(delta, str(merged / "delta.parquet"))

    def append(d: str) -> None:
        run_append_job(str(tmp_path / "delta"), d, base_corpus_path=corpus,
                       target_partition_bytes=2 << 20, chunk_target_bytes=1 << 20)

    _check_crash_window(tmp_path, store, append, str(merged), "crash/a.py")


def test_derive_crash_window(base, tmp_path):
    corpus, store, table = base

    def derive(d: str) -> None:
        def content_len(t: pa.Table) -> pa.Array:
            import pyarrow.compute as pc

            return pc.cast(pc.utf8_length(t.column("content")), pa.int64())

        run_derive_column_job(d, "content_len", content_len, ["content"])

    _check_crash_window(tmp_path, store, derive, corpus, table.column("path")[0].as_py())


def test_drop_column_crash_window(base, tmp_path):
    corpus, store, table = base
    _check_crash_window(tmp_path, store, lambda d: run_drop_column_job(d, "lang"),
                        corpus, table.column("path")[0].as_py())
