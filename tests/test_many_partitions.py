"""Decode, query, budgeted paging and export over a store with more
than 4 x CPUs partitions — a wide store exercises the same single
task-pool decode stage as a small one, at many tasks per CPU."""

import os
import shutil

import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq
import pytest

from skar_ray.corpus import ensure_corpus, read_corpus_table
from skar_ray.pipelines.decode_job import run_export_job, run_verify_job
from skar_ray.pipelines.encode_job import run_encode_job
from skar_ray.pipelines.query_encoded import query_encoded, query_encoded_budgeted
from skar_ray.state import manifest as manifest_mod

OUT = "/tmp/skar_pytest_many_parts"
N = 2000
COLS = ["repo", "path", "lang"]
DNF = [[("lang", "==", "python")]]


def _sorted(df):
    return df.sort_values(list(df.columns)).reset_index(drop=True)


@pytest.fixture(scope="module")
def wide(ray_session):
    import ray

    corpus = os.path.join(ensure_corpus(N), "corpus.parquet")
    shutil.rmtree(OUT, ignore_errors=True)
    run_encode_job(corpus, OUT, target_partition_bytes=256 << 10, chunk_target_bytes=128 << 10)
    cpus = int(ray.cluster_resources()["CPU"])
    n_partitions = len(manifest_mod.scan_manifests(OUT))
    assert n_partitions > 4 * cpus, (n_partitions, cpus)
    return corpus


def test_verify_many_partitions(wide):
    r = run_verify_job(wide, OUT)
    assert r["rows_match"] and r["decoded_rows"] == N, r


def test_filtered_query_and_budgeted_pages_match_source(wide):
    src = read_corpus_table(wide)
    want = _sorted(src.filter(pc.equal(src["lang"], "python")).select(COLS).to_pandas())
    assert len(want) > 0

    got = _sorted(query_encoded(OUT, columns=COLS, filters=DNF).to_pandas())
    assert got.equals(want)

    pages, cursor = [], None
    while True:
        page, cursor = query_encoded_budgeted(
            OUT, columns=COLS, filters=DNF, row_budget=50, cursor=cursor,
        )
        pages.append(page)
        if cursor is None:
            break
    assert len(pages) > 1
    assert _sorted(pa.concat_tables(pages).to_pandas()).equals(want)


def test_export_round_trips_and_resumes(wide, tmp_path):
    dest = str(tmp_path / "export")
    n_partitions = len(manifest_mod.scan_manifests(OUT))
    ex = run_export_job(OUT, dest, columns=COLS)
    assert ex["exported"] == n_partitions and ex["skipped"] == 0
    src = read_corpus_table(wide).select(COLS)
    assert _sorted(pq.read_table(dest).to_pandas()).equals(_sorted(src.to_pandas()))

    again = run_export_job(OUT, dest, columns=COLS)
    assert again["skipped"] == n_partitions and again["exported"] == 0


def test_verify_with_row_filter_is_refused(wide):
    from skar_ray.stages.decoder import decode_manifest_batch

    pid, m = sorted(manifest_mod.scan_manifests(OUT).items())[0]
    batch = pa.table({
        "partition_id": pa.array([pid], type=pa.int64()),
        "data_file": pa.array([m.data_file]),
        "n_rows": pa.array([m.n_rows], type=pa.int64()),
        "content_sha256": pa.array([m.content_sha256]),
    })
    with pytest.raises(ValueError, match="full partitions"):
        decode_manifest_batch(batch, out_dir=OUT, verify=True, dnf=DNF, apply_dnf=True)
