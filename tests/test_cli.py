"""End-to-end test of the ``python -m skar_ray`` job entrypoint.

Runs the full CLI lifecycle in-process (the guarded ``ray.init`` in
``_ray_session`` attaches to the session fixture): synth -> encode ->
stats -> query -> export -> verify.  This is the surface a
``ray job submit`` invocation exercises.
"""

import json
import os

import pyarrow.parquet as pq
import pytest

from skar_ray.__main__ import main


def run_cli(capsys, *argv) -> dict:
    assert main(list(argv)) == 0
    out = capsys.readouterr().out.strip().splitlines()[-1]
    return json.loads(out)


def test_cli_lifecycle(ray_session, tmp_path, capsys):
    synth = run_cli(capsys, "synth", "--rows", "2000")
    corpus = synth["corpus"]
    assert os.path.isdir(corpus)

    store = str(tmp_path / "store")
    enc = run_cli(capsys, "encode", corpus, store, "--target-mb", "2")
    assert enc["rows"] == 2000
    assert enc["partitions"] > 1
    assert 0 < enc["enc_bytes"] < enc["raw_bytes"]

    # resume: a second run touches nothing and reports the same store
    enc2 = run_cli(capsys, "encode", corpus, store, "--target-mb", "2")
    assert enc2["partitions"] == enc["partitions"]
    assert enc2["enc_bytes"] == enc["enc_bytes"]

    st = run_cli(capsys, "stats", store)
    assert st["partitions"] == enc["partitions"]
    assert {c["column"] for c in st["columns"]} >= {"repo", "path", "content"}

    n_all = run_cli(capsys, "query", store)["rows"]
    assert n_all == 2000
    where = json.dumps([[["repo", "==", "org1/repo1"]]])
    n_one = run_cli(capsys, "query", store, "--where", where)["rows"]
    assert 0 < n_one < n_all

    out_dir = str(tmp_path / "q")
    q = run_cli(capsys, "query", store, "--where", where, "--columns",
                "repo,path", "--out", out_dir)
    assert q["rows"] == n_one
    t = pq.read_table(out_dir)
    assert t.column_names == ["repo", "path"]
    assert t.num_rows == n_one

    dest = str(tmp_path / "export")
    ex = run_cli(capsys, "export", store, dest)
    assert ex["exported"] == enc["partitions"] and ex["skipped"] == 0
    # re-export skips everything already written (resumable output)
    ex2 = run_cli(capsys, "export", store, dest)
    assert ex2["skipped"] == enc["partitions"]

    v = run_cli(capsys, "verify", corpus, store)
    assert v["rows_match"] and v["digests_verified"]


def test_cli_verify_fails_on_row_mismatch(ray_session, tmp_path, capsys):
    from skar_ray.corpus import ensure_corpus

    corpus = os.path.join(ensure_corpus(2000), "corpus.parquet")
    store = str(tmp_path / "store")
    run_cli(capsys, "encode", corpus, store, "--target-mb", "2")
    # a store encoded from a DIFFERENT corpus must fail verify loudly
    other = os.path.join(ensure_corpus(1000), "corpus.parquet")
    with pytest.raises(SystemExit):
        main(["verify", other, store])


def test_cli_grouped_mode_is_hashed_alias(ray_session, tmp_path, capsys):
    """``--mode grouped`` stays an accepted CLI choice: it runs the hash
    exchange, writes the same partitions and records ``hashed``."""
    from skar_ray.corpus import ensure_corpus
    from skar_ray.state import manifest

    corpus = os.path.join(ensure_corpus(2000), "corpus.parquet")
    digests = {}
    for mode in ("grouped", "hashed"):
        store = str(tmp_path / mode)
        run_cli(capsys, "encode", corpus, store, "--target-mb", "2", "--mode", mode)
        with open(os.path.join(manifest.manifest_dir(store), "_job.json")) as f:
            assert json.load(f)["mode"] == "hashed"
        digests[mode] = {p: m.content_sha256 for p, m in manifest.scan_manifests(store).items()}
    assert len(digests["hashed"]) > 1
    assert digests["grouped"] == digests["hashed"]


def test_cli_subprocess_owns_session(tmp_path):
    """The `ray job submit` execution mode: a fresh process runs
    `python -m skar_ray encode` and the guarded ray.init owns the
    session (RAY_ADDRESS=local is the sandbox default)."""
    import subprocess
    import sys

    from skar_ray.corpus import ensure_corpus

    corpus = os.path.join(ensure_corpus(1000), "corpus.parquet")
    store = str(tmp_path / "store")
    env = dict(os.environ, RAY_NUM_CPUS="4")
    r = subprocess.run(
        [sys.executable, "-m", "skar_ray", "encode", corpus, store,
         "--target-mb", "2", "--profile", "fast"],
        capture_output=True, text=True, timeout=300, env=env,
        cwd=os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
    )
    assert r.returncode == 0, r.stderr[-2000:]
    out = json.loads(r.stdout.strip().splitlines()[-1])
    assert out["rows"] == 1000 and out["partitions"] >= 1


@pytest.mark.skipif(
    not os.path.isdir("/root/testdata/sf0.001"), reason="driver testdata absent"
)
def test_cli_topk_and_distinct(ray_session, tmp_path, capsys):
    """The ranked-query and distinct subcommands over an encoded
    documents store match the raw table."""
    import pandas as pd

    docs = "/root/testdata/sf0.001/documents.parquet"
    store = str(tmp_path / "dstore")
    run_cli(capsys, "encode", docs, store, "--mode", "sharded")

    raw = pq.read_table(docs).to_pandas()
    tk = run_cli(capsys, "topk", store, "n_chars", "-k", "5")
    want = raw.sort_values(["n_chars", "doc_id"], ascending=[False, True]).head(5)
    assert [r["doc_id"] for r in tk["rows"]] == list(want["doc_id"])
    assert [r["n_chars"] for r in tk["rows"]] == list(want["n_chars"])

    where = json.dumps([[["lang", "==", "en"]]])
    tkf = run_cli(capsys, "topk", store, "n_chars", "-k", "3", "--where", where)
    wantf = (
        raw[raw["lang"] == "en"]
        .sort_values(["n_chars", "doc_id"], ascending=[False, True]).head(3)
    )
    assert [r["doc_id"] for r in tkf["rows"]] == list(wantf["doc_id"])

    di = run_cli(capsys, "distinct", store, "lang")
    assert set(di["values"]) == set(raw["lang"])
    assert di["decoded_chunks"] == 0  # lang served from metadata
    assert di["has_nan"] is False


def test_cli_distinct_reports_nan_as_flag(ray_session, tmp_path, capsys):
    """A float NaN leaves ``values`` and sets ``has_nan``; a string
    column holding 'NaN' keeps the string and reports no NaN."""
    import pyarrow as pa

    src = str(tmp_path / "nan.parquet")
    pq.write_table(pa.table({
        "doc_id": pa.array([1, 2, 3, 4], type=pa.int64()),
        "v": pa.array([1.5, float("nan"), 2.5, 1.5]),
        "s": pa.array(["NaN", "a", "NaN", "b"]),
    }), src)
    store = str(tmp_path / "nstore")
    run_cli(capsys, "encode", src, store, "--mode", "sharded")

    dv = run_cli(capsys, "distinct", store, "v")
    assert sorted(dv["values"]) == [1.5, 2.5]
    assert dv["has_nan"] is True
    ds = run_cli(capsys, "distinct", store, "s")
    assert sorted(ds["values"]) == ["NaN", "a", "b"]
    assert ds["has_nan"] is False
