"""Query-over-encoded-partitions: projection, DNF filters, pruning."""

import os
import shutil

import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq

from skar_ray.corpus import read_corpus_table
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from skar_ray.corpus import ensure_corpus
from skar_ray.pipelines.encode_job import run_encode_job
from skar_ray.pipelines.query_encoded import prune_partitions, query_encoded
from skar_ray.state import manifest as manifest_mod

OUT = "/tmp/skar_pytest_qenc"
N = 2000


@pytest.fixture(scope="module")
def encoded(ray_session):
    d = ensure_corpus(N)
    corpus = os.path.join(d, "corpus.parquet")
    shutil.rmtree(OUT, ignore_errors=True)
    run_encode_job(corpus, OUT, target_partition_bytes=2 << 20, chunk_target_bytes=1 << 20)
    return corpus


def test_projection_and_filter_match_source(encoded):
    src = read_corpus_table(encoded)
    langs = ["python", "rust"]
    want = (
        src.filter(pc.is_in(src["lang"], value_set=pa.array(langs)))
        .select(["repo", "path", "lang"])
        .to_pandas()
        .sort_values(["repo", "path", "lang"])
        .reset_index(drop=True)
    )
    got = (
        query_encoded(OUT, columns=["repo", "path", "lang"], filters=[[("lang", "in", langs)]])
        .to_pandas()
        .sort_values(["repo", "path", "lang"])
        .reset_index(drop=True)
    )
    assert got.equals(want)


def test_dnf_or_semantics(encoded):
    src = read_corpus_table(encoded)
    m1 = pc.equal(src["lang"], "go")
    m2 = pc.and_(pc.equal(src["lang"], "python"), pc.starts_with(src["path"], pattern="src/"))
    want = src.filter(pc.or_(m1, m2)).num_rows
    got = query_encoded(
        OUT,
        columns=["repo", "path", "lang"],
        filters=[[("lang", "==", "go")], [("lang", "==", "python"), ("path", "prefix", "src/")]],
    ).count()
    assert got == want


def test_partition_pruning_skips(encoded):
    manifests = manifest_mod.scan_manifests(OUT)
    assert len(manifests) >= 3
    # pick a repo that lives in exactly one partition
    repo_of = {}
    for pid, m in manifests.items():
        for r in (m.extra.get("stats", {}).get("repo", {}).get("distinct") or []):
            repo_of.setdefault(r, set()).add(pid)
    single = [r for r, pids in repo_of.items() if len(pids) == 1]
    assert single, "expected some repo confined to one partition"
    r = single[0]
    kept = prune_partitions(manifests, [[("repo", "==", r)]])
    assert len(kept) < len(manifests)
    # and the query still returns the right rows
    src = read_corpus_table(encoded)
    want = src.filter(pc.equal(src["repo"], r)).num_rows
    assert query_encoded(OUT, columns=["repo"], filters=[[("repo", "==", r)]]).count() == want


def test_limit(encoded):
    assert query_encoded(OUT, columns=["repo"], limit=7).count() == 7


def test_impossible_filter_prunes_everything(encoded):
    manifests = manifest_mod.scan_manifests(OUT)
    kept = prune_partitions(manifests, [[("repo", "==", "no-such/repo")]])
    assert kept == []


@pytest.mark.parametrize("filters", [
    [[("repo", "==", "zzzz-none")]],           # every partition pruned
    [[("content", "contains", "zzzz-none")]],  # partitions kept, no row matches
])
def test_empty_result_keeps_columns_in_pandas(encoded, filters):
    """A query that matches no row still has the projected columns, with
    their types, in its ``to_pandas()`` frame."""
    want = read_corpus_table(encoded).select(["repo", "lang", "content"]).slice(0, 0).to_pandas()
    got = query_encoded(OUT, columns=["repo", "lang", "content"], filters=filters).to_pandas()
    assert len(got) == 0
    assert list(got.columns) == ["repo", "lang", "content"]
    assert got.dtypes.to_dict() == want.dtypes.to_dict()


def test_chunk_pruning_correct_and_effective(encoded):
    """Row-group-analog pruning: chunk min/max on the sorted path column
    lets a prefix query skip chunks, with identical final results."""
    import glob

    from skar_ray.state import container

    paths = sorted(glob.glob(os.path.join(OUT, "*.skarc")))
    multi = [p for p in paths if len(container.read_header(p)[0]["chunks"]) > 1]
    assert multi, "need a multi-chunk container for this test"
    p = multi[0]
    header, _ = container.read_header(p)
    # probe with the max path of the LAST chunk's minmax → prunes earlier chunks
    last_mm = header["chunks"][-1]["columns"]
    mm = {cm["name"]: cm.get("minmax") for cm in last_mm}
    probe = mm["path"]["min"]
    dnf = [[("path", ">=", probe)]]
    full = container.read_container(p, columns=["path"])
    pruned = container.read_container(p, columns=["path"], dnf=dnf)
    assert pruned.num_rows <= full.num_rows
    import pyarrow.compute as pc2

    want = full.filter(pc2.greater_equal(full["path"], probe)).column("path").to_pylist()
    got = pruned.filter(pc2.greater_equal(pruned["path"], probe)).column("path").to_pylist()
    assert sorted(got) == sorted(want)


def test_encoded_form_filter_matches_decoded(encoded):
    """§2.10: equality filters evaluated on the dict/rle CODE stream
    must match post-decode filtering exactly — including the fast path
    in query_encoded (single equality clause)."""
    import glob

    import numpy as np

    from skar_ray.state import container

    p = sorted(glob.glob(os.path.join(OUT, "*.skarc")))[0]
    header, blob_start = container.read_header(p)
    full = container.read_container(p)
    for ch_i, ch in enumerate(header["chunks"]):
        for cm in ch["columns"]:
            if cm["codec"] not in ("dict", "rle") or cm["name"] == "content":
                continue
            with open(p, "rb") as f:
                f.seek(blob_start + cm["offset"])
                blob = f.read(cm["length"])
            col = container.read_container(p, columns=[cm["name"]], chunk_indices=[ch_i]).column(cm["name"])
            probe = col[0].as_py()
            mask = container.encoded_clause_mask(blob, cm, "in", [probe])
            if mask is None:
                continue
            want = np.asarray(pc.equal(col.combine_chunks(), probe))
            assert np.array_equal(mask, want), (cm["name"], cm["codec"])
    # end-to-end single-clause fast path
    langs = full.column("lang").to_pylist()
    target = max(set(langs), key=langs.count)
    got = query_encoded(OUT, columns=["repo", "path"], filters=[[("lang", "==", target)]]).count()
    src = read_corpus_table(OUT and os.path.join(os.path.dirname(OUT), "")) if False else None
    import pyarrow.dataset as pads

    from skar_ray.corpus import corpus_cache_dir

    srct = read_corpus_table(os.path.join(corpus_cache_dir(N), "corpus.parquet"))
    want_n = srct.filter(pc.equal(srct["lang"], target)).num_rows
    assert got == want_n


def test_dnf_remaining_ops(encoded):
    """!=, <, > ops through the generic DNF path (multi-clause, so the
    encoded-form fast path is bypassed and _apply_dnf is exercised)."""
    src = read_corpus_table(encoded)
    langs = sorted(set(src.column("lang").to_pylist()))
    lang0 = langs[0]
    repo_mid = sorted(set(src.column("repo").to_pylist()))[1]
    want = src.filter(
        pc.and_(pc.not_equal(src["lang"], lang0), pc.less(src["repo"], repo_mid))
    ).num_rows
    got = query_encoded(
        OUT, columns=["repo", "lang"],
        filters=[[("lang", "!=", lang0), ("repo", "<", repo_mid)]],
    ).count()
    assert got == want
    # > and <= combined via OR of two conjunctions
    want2 = src.filter(
        pc.or_(pc.greater(src["repo"], repo_mid), pc.less_equal(src["lang"], lang0))
    ).num_rows
    got2 = query_encoded(
        OUT, columns=["repo", "lang"],
        filters=[[("repo", ">", repo_mid)], [("lang", "<=", lang0)]],
    ).count()
    assert got2 == want2


def test_full_dnf_encoded_masks_match_source(encoded):
    """Range / != / prefix / conjunction clauses evaluated on the
    ENCODED form (dict/rle code streams, FoR int streams) must match
    plain decode-then-filter exactly."""
    src = read_corpus_table(encoded)
    cases = [
        [[("lang", "!=", "go")]],
        [[("lang", ">=", "python")]],
        [[("repo", "<", "org2")]],
        [[("path", "prefix", "src/"), ("lang", "in", ["go", "rust"])]],
        [[("lang", "==", "go")], [("repo", ">", "org8")]],
    ]
    import pandas as pd

    from skar_ray.pipelines.query_encoded import _apply_dnf

    for dnf in cases:
        want = (
            _apply_dnf(src, dnf).select(["repo", "path", "lang"]).to_pandas()
            .sort_values(["repo", "path", "lang"]).reset_index(drop=True)
        )
        got = (
            query_encoded(OUT, columns=["repo", "path", "lang"], filters=dnf)
            .to_pandas().sort_values(["repo", "path", "lang"]).reset_index(drop=True)
        )
        pd.testing.assert_frame_equal(got, want), dnf


def test_chunk_bloom_distinct_skips_point_lookup(encoded):
    """Per-chunk distinct/SBBF stats must let a selective path point
    query skip chunks (the reference's per-row-group indexes,
    build_parquet_idx.rs:89-115) with identical results."""
    import glob

    from skar_ray.state import container
    from skar_ray.state.container import _chunk_stats_of
    from skar_ray.state.pruning import dnf_possible

    paths = sorted(glob.glob(os.path.join(OUT, "*.skarc")))
    multi = [p for p in paths if len(container.read_header(p)[0]["chunks"]) > 1]
    assert multi, "need a multi-chunk container"
    p = multi[0]
    header, _ = container.read_header(p)
    # a path value present ONLY in the last chunk
    full = container.read_container(p, columns=["path"])
    last = container.read_container(p, columns=["path"], chunk_indices=[len(header["chunks"]) - 1])
    probe = None
    first_paths = set(
        container.read_container(p, columns=["path"], chunk_indices=[0]).column("path").to_pylist()
    )
    for v in last.column("path").to_pylist():
        if v not in first_paths:
            probe = v
            break
    assert probe is not None
    dnf = [[("path", "==", probe)]]
    kept = [ch for ch in header["chunks"] if dnf_possible(_chunk_stats_of(ch), dnf)]
    assert len(kept) < len(header["chunks"]), "point query should skip chunks"
    got = container.read_container(p, columns=["path"], dnf=dnf, apply_dnf=True)
    want = full.filter(pc.equal(full["path"], probe))
    assert sorted(got.column("path").to_pylist()) == sorted(want.column("path").to_pylist())


def test_budgeted_scan_row_budget_and_cursor(encoded):
    """Row-budget early stop + cursor resume (the reference's query
    time limit / row limits / cursor, handler.rs:104-107): chained
    budgeted calls must reconstruct the full result with no overlap."""
    from skar_ray.pipelines.query_encoded import query_encoded_budgeted

    full = query_encoded(OUT, columns=["repo", "path"]).to_pandas()
    got, cursor = [], None
    calls = 0
    while True:
        t, cursor = query_encoded_budgeted(
            OUT, columns=["repo", "path"], row_budget=300, cursor=cursor
        )
        calls += 1
        if t.num_rows:
            got.append(t.to_pandas())
        if cursor is None:
            break
        assert calls < 100
    assert calls > 1, "budget should have forced multiple pages"
    import pandas as pd

    got_df = pd.concat(got, ignore_index=True)
    assert len(got_df) == len(full)
    key = lambda df: sorted(zip(df["repo"], df["path"]))
    assert key(got_df) == key(full)


def test_budgeted_scan_time_budget(encoded):
    """A zero time budget returns (possibly empty) prefix + a cursor
    that can resume; an infinite budget completes with cursor None."""
    from skar_ray.pipelines.query_encoded import query_encoded_budgeted

    t, cur = query_encoded_budgeted(OUT, columns=["repo"], time_budget_s=0.0)
    # zero budget: must not claim completion unless everything was done in one batch
    t2, cur2 = query_encoded_budgeted(OUT, columns=["repo"], time_budget_s=1e9)
    assert cur2 is None
    full_rows = t2.num_rows
    # resume from wherever the zero-budget call stopped
    seen = t.num_rows
    while cur is not None:
        nxt, cur = query_encoded_budgeted(OUT, columns=["repo"], time_budget_s=1e9, cursor=cur)
        seen += nxt.num_rows
    assert seen == full_rows


def test_budgeted_scan_survives_block_splitting(encoded):
    """Ray's dynamic block splitting can deliver one partition's output
    as several blocks; a partition must count as finished only when ALL
    its rows arrived (regression: first-block completion could drop the
    rest of a split partition at a budget boundary)."""
    import ray.data

    from skar_ray.pipelines.query_encoded import query_encoded_budgeted

    ctx = ray.data.DataContext.get_current()
    old = ctx.target_max_block_size
    ctx.target_max_block_size = 64 * 1024
    try:
        full = query_encoded(OUT, columns=["repo", "path"]).to_pandas()
        got, cur, pages = 0, None, 0
        while True:
            t, cur = query_encoded_budgeted(OUT, columns=["repo", "path"], row_budget=300, cursor=cur)
            got += t.num_rows
            pages += 1
            assert pages < 200
            if cur is None:
                break
        assert got == len(full)
    finally:
        ctx.target_max_block_size = old


def test_budgeted_scan_zero_match_partition_no_livelock(encoded):
    """Regression (round-2 ADVICE): a partition kept by manifest pruning
    whose rows are ALL filtered out by the DNF emits only zero-row
    batches and can never enter `finished` via row accounting.  When the
    iterator runs to natural exhaustion the scan is complete regardless
    of whether a budget tripped on the last iteration — otherwise a
    `while cursor is not None` paging caller livelocks on the zero-row
    partition (same cursor back forever)."""
    from skar_ray.pipelines.query_encoded import query_encoded_budgeted

    manifests = manifest_mod.scan_manifests(OUT)
    # probe: min path of some partition + a low control char ⇒ lexically
    # inside the partition's [min,max] path range (kept by pruning) but
    # no real path has this prefix (zero rows match anywhere)
    some = next(iter(manifests.values()))
    pmin = some.extra["stats"]["path"]["min"]
    dnf = [[("path", "prefix", pmin + "\x01x")]]
    from skar_ray.pipelines.query_encoded import prune_partitions

    assert prune_partitions(manifests, dnf), "probe must keep >=1 partition"
    total, cur, pages = 0, None, 0
    while True:
        t, cur = query_encoded_budgeted(
            OUT, columns=["path"], filters=dnf, time_budget_s=0.0, cursor=cur
        )
        total += t.num_rows
        pages += 1
        assert pages < 20, "livelock: cursor never advanced past the zero-match partition"
        if cur is None:
            break
    assert total == 0


def test_semi_join_across_encoded_stores_prunes_b(ray_session, tmp_path):
    """Cross-store key-set propagation (the reference's logs→tx→blocks
    execution order, execution/mod.rs:21-65): the key set selected from
    store A must PRUNE store B's partitions via manifest min/max before
    any decode, and the joined result must match a plain computation."""
    import numpy as np
    import pandas as pd
    import ray.data

    from skar_ray.pipelines.encode_job import run_encode_job
    from skar_ray.pipelines.query_encoded import query_encoded_semi_join

    # store B: 20k rows, key strictly sorted ⇒ sharded partitions hold
    # disjoint key ranges ⇒ an `in` over a narrow key set prunes
    nb = 20_000
    b_df = pd.DataFrame({
        "k": np.arange(nb, dtype=np.int64),
        "payload": [f"val-{i:06d}" for i in range(nb)],
        "flag": (np.arange(nb) % 3 == 0),
    })
    b_src = str(tmp_path / "b.parquet")
    pq.write_table(pa.Table.from_pandas(b_df), b_src, row_group_size=1000)
    store_b = str(tmp_path / "store_b")
    run_encode_job(b_src, store_b, mode="sharded", chunk_target_bytes=64 << 10, resume=False)

    # store A: keys confined to one narrow range of B, behind a selector
    a_df = pd.DataFrame({
        "k": np.concatenate([np.arange(100, 140, dtype=np.int64),
                             np.arange(15_000, 15_010, dtype=np.int64)]),
        "seg": ["hot"] * 40 + ["cold"] * 10,
    })
    a_src = str(tmp_path / "a.parquet")
    pq.write_table(pa.Table.from_pandas(a_df), a_src)
    store_a = str(tmp_path / "store_a")
    run_encode_job(a_src, store_a, mode="sharded", chunk_target_bytes=64 << 10, resume=False)

    res = query_encoded_semi_join(
        store_a, store_b, key_a="k",
        dnf_a=[[("seg", "==", "hot")]],
        columns_b=["k", "payload"],
    ).to_pandas().sort_values("k").reset_index(drop=True)
    want = b_df[b_df["k"].isin(range(100, 140))][["k", "payload"]].reset_index(drop=True)
    assert res.equals(want)

    # pruning assertion: the propagated key set must skip most B partitions
    from skar_ray.pipelines.query_encoded import prune_partitions
    from skar_ray.state import manifest as manifest_mod

    manifests_b = manifest_mod.scan_manifests(store_b)
    keys = list(range(100, 140))
    kept = prune_partitions(manifests_b, [[("k", "in", keys)]])
    assert len(manifests_b) >= 4, "need multiple B partitions for a pruning test"
    assert len(kept) < len(manifests_b), (len(kept), len(manifests_b))

    # empty key set: A filter matches nothing ⇒ typed empty result
    empty = query_encoded_semi_join(
        store_a, store_b, key_a="k",
        dnf_a=[[("seg", "==", "no-such-segment")]],
        columns_b=["k", "payload"],
    )
    assert empty.count() == 0


def test_decoder_header_cache_hit_and_invalidation(encoded, monkeypatch):
    """decode_manifest_batch parses each container header once per
    worker process: repeated calls on the same partition must not
    re-parse, and an atomically-replaced file (different mtime/size)
    must invalidate."""
    import os as _os

    from skar_ray.stages import decoder as dec_mod
    from skar_ray.stages.decoder import decode_manifest_batch
    from skar_ray.state import container as cont_mod

    calls = {"n": 0}
    real = cont_mod.read_header

    def counting(path):
        calls["n"] += 1
        return real(path)

    monkeypatch.setattr(dec_mod.container, "read_header", counting)
    dec_mod._TASK_HEADER_CACHE.clear()

    manifests = manifest_mod.scan_manifests(OUT)
    pid, m = sorted(manifests.items())[0]
    batch = pa.table({
        "partition_id": pa.array([pid], type=pa.int64()),
        "data_file": pa.array([m.data_file]),
        "n_rows": pa.array([m.n_rows], type=pa.int64()),
        "content_sha256": pa.array([m.content_sha256]),
    })
    decode_manifest_batch(batch, out_dir=OUT, columns=["repo"])
    assert calls["n"] == 1
    decode_manifest_batch(batch, out_dir=OUT, columns=["repo"])
    assert calls["n"] == 1, "second call must hit the header cache"
    # touch the file (mtime change) => cache must invalidate
    path = _os.path.join(OUT, m.data_file)
    _os.utime(path, ns=(_os.stat(path).st_atime_ns, _os.stat(path).st_mtime_ns + 1))
    decode_manifest_batch(batch, out_dir=OUT, columns=["repo"])
    assert calls["n"] == 2, "replaced container must re-parse the header"


def test_query_encoded_with_tail_matches_union(encoded, tmp_path):
    """Store + raw un-encoded tail must answer like one table (the
    reference's compressed-folders + in-memory-tip query order,
    handler.rs:109-136), including when the DNF matches only tail rows
    or only store rows."""
    from skar_ray.pipelines.query_encoded import query_encoded_with_tail

    src = read_corpus_table(encoded)
    # tail: synthetic extra rows with a lang that exists and one that doesn't
    tail_tbl = pa.table({
        "repo": pa.array(["tail/repo"] * 3),
        "path": pa.array([f"tail/file{i}.py" for i in range(3)]),
        "commit": pa.array(["c0"] * 3),
        "lang": pa.array(["python", "python", "zz-new-lang"]),
        "content": pa.array(["tail content"] * 3, type=pa.large_string()),
    })
    tail_path = str(tmp_path / "tail.parquet")
    pq.write_table(tail_tbl, tail_path)

    got = (
        query_encoded_with_tail(OUT, tail_path, columns=["repo", "path", "lang"],
                                filters=[[("lang", "==", "python")]])
        .to_pandas().sort_values(["repo", "path"]).reset_index(drop=True)
    )
    want_store = src.filter(pc.equal(src["lang"], "python")).num_rows
    assert len(got) == want_store + 2
    assert (got["lang"] == "python").all()

    # tail-only match: store contributes its typed empty
    only_tail = query_encoded_with_tail(
        OUT, tail_path, columns=["repo", "lang"],
        filters=[[("lang", "==", "zz-new-lang")]],
    ).to_pandas()
    assert len(only_tail) == 1 and only_tail["repo"].iloc[0] == "tail/repo"


def test_tail_filter_column_outside_projection(encoded, tmp_path):
    """A DNF referencing a column OUTSIDE the projection must work on
    the tail half exactly like the encoded half (the decoder filters on
    the encoded form before projection; the tail read used to prune to
    the projection first and KeyError)."""
    from skar_ray.pipelines.query_encoded import query_encoded_with_tail

    src = read_corpus_table(encoded)
    tail_tbl = pa.table({
        "repo": pa.array(["tail/repo"] * 2),
        "path": pa.array(["tail/a.py", "tail/b.py"]),
        "commit": pa.array(["c0"] * 2),
        "lang": pa.array(["python", "go"]),
        "content": pa.array(["x", "y"], type=pa.large_string()),
    })
    tail_path = str(tmp_path / "tail2.parquet")
    pq.write_table(tail_tbl, tail_path)
    got = query_encoded_with_tail(
        OUT, tail_path, columns=["repo", "path"],
        filters=[[("lang", "==", "python")]],
    ).to_pandas()
    want = src.filter(pc.equal(src["lang"], "python")).num_rows + 1
    assert len(got) == want
    assert sorted(got.columns) == ["path", "repo"]


def test_dict_value_mask_empty_in():
    """Empty `in` set on the encoded-form evaluation path must match
    nothing instead of raising ArrowTypeError (null-typed empty array
    vs typed dictionary)."""
    import numpy as np

    from skar_ray.state.container import _dict_value_mask

    vals = pa.array(["a", "b", "c"])
    m = _dict_value_mask(vals, "in", [])
    assert m.dtype == bool and not m.any() and len(m) == 3


def test_budgeted_empty_pages_are_typed(encoded):
    """Empty budgeted pages (all-pruned store, or a pruning filter with
    a cursor past the end) must carry the store's real column types so
    a paging caller can pa.concat_tables typed and empty pages freely —
    regression: pa.table({}) raised a schema mismatch on concat."""
    from skar_ray.pipelines.query_encoded import query_encoded_budgeted

    # a filter no partition can satisfy: everything prunes
    t, cur = query_encoded_budgeted(
        OUT, columns=["repo", "path"], filters=[[("repo", "==", "no-such-repo")]]
    )
    assert cur is None and t.num_rows == 0
    assert t.column_names == ["repo", "path"]
    nonempty, _ = query_encoded_budgeted(OUT, columns=["repo", "path"])
    merged = pa.concat_tables([t, nonempty])  # must not raise
    assert merged.num_rows == nonempty.num_rows


def test_zorder_clusters_prune_on_both_keys(tmp_path):
    """Z-order (Morton) clustering: a store z-sorted on (lang, path)
    prunes chunks for filters on EITHER key, where the default
    (repo, path, commit) lexsort prunes neither (repo leads and is
    uncorrelated with both probes); filtered results are identical."""
    import glob

    import numpy as np

    from skar_ray.stages.encoder import encode_partition, zsort
    from skar_ray.state import container
    from skar_ray.state.container import _chunk_stats_of
    from skar_ray.state.pruning import dnf_possible

    rng = np.random.default_rng(1)
    n = 20000
    langs = ["go", "python", "rust", "ts", "java", "ruby", "c", "js"]
    t = pa.table(
        {
            "repo": [f"org{i % 7}/repo{i % 13}" for i in range(n)],
            "path": [f"src/dir{rng.integers(0, 50)}/f{i}.py" for i in range(n)],
            "commit": [f"c{rng.integers(0, 1000):04d}" for i in range(n)],
            "lang": [langs[rng.integers(0, 8)] for _ in range(n)],
            "content": [f"line {i} " * rng.integers(5, 50) for i in range(n)],
        }
    )

    def build(sort_fn, d):
        os.makedirs(d)
        encode_partition(t, str(d), chunk_target_bytes=64 << 10, sort_fn=sort_fn)
        return glob.glob(str(d) + "/*.skarc")[0]

    def kept(p, dnf):
        header, _ = container.read_header(p)
        return sum(1 for c in header["chunks"] if dnf_possible(_chunk_stats_of(c), dnf)), len(header["chunks"])

    p_lex = build(None, tmp_path / "lex")
    p_z = build(lambda tb: zsort(tb, ["lang", "path"]), tmp_path / "z")

    for dnf in ([[("lang", "==", "go")]], [[("path", "prefix", "src/dir7/")]]):
        kl, nl = kept(p_lex, dnf)
        kz, nz = kept(p_z, dnf)
        assert nl == nz and nl > 4, "need a multi-chunk store"
        assert kl == nl, "lexsort must not prune these probes (fixture premise)"
        assert kz < nl // 2, f"z-order must prune most chunks, kept {kz}/{nz} for {dnf}"
        a = container.read_container(p_lex, columns=["repo", "path", "lang"], dnf=dnf, apply_dnf=True)
        b = container.read_container(p_z, columns=["repo", "path", "lang"], dnf=dnf, apply_dnf=True)
        ka = sorted(zip(*[a.column(c).to_pylist() for c in ["repo", "path", "lang"]]))
        kb = sorted(zip(*[b.column(c).to_pylist() for c in ["repo", "path", "lang"]]))
        assert ka == kb and len(ka) > 0

    # round-trip stays bit-exact under the alternate clustering:
    # decoded rows == source rows as multisets (order differs by design)
    dec = container.read_container(p_z)
    assert dec.num_rows == n
    cols = ["repo", "path", "commit", "lang", "content"]
    got = sorted(zip(*[dec.column(c).to_pylist() for c in cols]))
    src = sorted(zip(*[t.column(c).to_pylist() for c in cols]))
    assert got == src


def test_contains_op_matches_source_and_prunes(encoded):
    """`contains` (substring) predicates: exact vs the raw table on both
    a dict/rle-coded column (dictionary-only evaluation) and the
    FSST-coded content column (decode + pc.match_substring), and the
    exact distinct sets prune partitions whose values lack the needle."""
    src = read_corpus_table(encoded)
    want = src.filter(
        pc.or_(
            pc.match_substring(src["lang"], "ython"),
            pc.and_(
                pc.match_substring(src["content"], "return"),
                pc.match_substring(src["path"], "/"),
            ),
        )
    ).num_rows
    got = query_encoded(
        OUT, columns=["repo", "path", "lang"],
        filters=[[("lang", "contains", "ython")],
                 [("content", "contains", "return"), ("path", "contains", "/")]],
    ).count()
    assert got == want

    # suffix op, dict column (encoded-form) and high-cardinality path
    want_sfx = src.filter(
        pc.or_(pc.ends_with(src["lang"], "ust"), pc.ends_with(src["path"], ".py"))
    ).num_rows
    got_sfx = query_encoded(
        OUT, columns=["repo"],
        filters=[[("lang", "suffix", "ust")], [("path", "suffix", ".py")]],
    ).count()
    assert got_sfx == want_sfx

    # distinct-set pruning: a needle absent from every lang prunes all
    from skar_ray.state.pruning import clause_possible
    manifests = manifest_mod.scan_manifests(OUT)
    stats = [m.extra.get("stats", {}).get("lang", {}) for m in manifests.values()]
    assert all(s.get("distinct") for s in stats), "lang should carry distinct sets"
    assert not any(clause_possible(s, "contains", "no-such-needle") for s in stats)
    assert any(clause_possible(s, "contains", "ython") for s in stats)
    empty = query_encoded(
        OUT, columns=["repo"], filters=[[("lang", "contains", "no-such-needle")]]
    ).count()
    assert empty == 0


def test_range_clause_nonfinite_threshold(ray_session, tmp_path):
    """NaN/±Inf float range thresholds must not crash the for_bitpack
    encoded-form fast path (math.floor raises on both) and must answer
    identically to the decode-and-compare path every other codec takes
    (regression: container.encoded_clause_mask now returns None for
    non-finite floats)."""
    import numpy as np
    import pandas as pd

    n = 4000
    df = pd.DataFrame({
        "k": np.arange(n, dtype=np.int64),
        "v": (np.arange(n, dtype=np.int64) * 37) % 1000,
        "tag": [f"t{i % 5}" for i in range(n)],
    })
    src = str(tmp_path / "nf.parquet")
    pq.write_table(pa.Table.from_pandas(df), src)
    store = str(tmp_path / "nf_store")
    run_encode_job(src, store, mode="sharded", chunk_target_bytes=32 << 10, resume=False)

    inf, nan = float("inf"), float("nan")
    assert query_encoded(store, columns=["k"], filters=[[("v", "<", inf)]]).count() == n
    assert query_encoded(store, columns=["k"], filters=[[("v", ">", -inf)]]).count() == n
    assert query_encoded(store, columns=["k"], filters=[[("v", ">", inf)]]).count() == 0
    assert query_encoded(store, columns=["k"], filters=[[("v", "<=", -inf)]]).count() == 0
    # IEEE: every comparison against NaN is false
    assert query_encoded(store, columns=["k"], filters=[[("v", "<", nan)]]).count() == 0
    assert query_encoded(store, columns=["k"], filters=[[("v", ">=", nan)]]).count() == 0


def test_grouped_operators_null_keys_and_values_match_duckdb(ray_session, tmp_path):
    """Every grouped operator over the encoded form follows DuckDB on a
    store whose group key, int value and string value columns all hold
    NULLs: a NULL key is a group of its own, COUNT(*) counts every row,
    SUM/MIN/MAX and the byte total skip NULLs (NULL for an all-NULL
    group), and a NULL never matches a filter clause.  Regressions: the
    decode fallbacks used to smear NULLs into INT64_MIN garbage
    (negative byte totals, a crashing bincount on NULL group codes) and
    to count a NULL key as the dictionary's first value."""
    import duckdb
    import numpy as np
    import pandas as pd

    from skar_ray.pipelines import stats

    n = 3000
    rng = np.random.default_rng(11)
    groups = np.array(["a", "b", "c", None], dtype=object)[rng.integers(0, 4, n)]
    vals = rng.integers(-500, 500, n).astype(object)
    vals[rng.random(n) < 0.15] = None          # scattered value nulls
    vals[groups == "c"] = None                 # one ALL-null group
    strs = np.array(["", "x", "yy", "zzz", "wwww"], dtype=object)[rng.integers(0, 5, n)]
    strs[rng.random(n) < 0.15] = None
    strs[groups == "c"] = None
    df = pd.DataFrame({"g": groups, "v": pd.array(vals, dtype="Int64"), "s": strs})
    src = str(tmp_path / "nulls.parquet")
    pq.write_table(pa.Table.from_pandas(df), src)
    store = str(tmp_path / "nulls_store")
    run_encode_job(src, store, mode="sharded", chunk_target_bytes=16 << 10, resume=False)

    def oracle(select, group, where=""):
        return duckdb.sql(
            f"SELECT {select} FROM read_parquet('{src}') {where} "
            f"GROUP BY {group} ORDER BY {group} NULLS LAST"
        ).df()

    def same(res, exp):
        assert list(res.columns) == list(exp.columns)
        assert len(res) == len(exp), (res, exp)
        for col in exp.columns:
            got, want = res[col].tolist(), exp[col].tolist()
            for a, b in zip(got, want):
                if pd.isna(b):
                    assert pd.isna(a), (col, got, want)
                else:
                    assert a == b or int(a) == int(b), (col, got, want)

    dnf = [[("v", ">=", 0)], [("s", "==", "yy")]]
    cases = [
        (stats.store_value_counts(store, "g"), oracle("g AS value, COUNT(*) AS n", "g")),
        (stats.store_value_counts(store, "s"), oracle("s AS value, COUNT(*) AS n", "s")),
        (stats.store_group_bytes(store, "g", "s"), oracle(
            "g AS value, COUNT(*) AS n, CAST(SUM(strlen(s)) AS BIGINT) AS total_bytes", "g")),
        (stats.store_group_pair_count(store, "g", "s"), oracle("g, s, COUNT(*) AS n", "g, s")),
        (stats.store_filtered_group_count(store, "g", dnf), oracle(
            "g AS value, COUNT(*) AS n", "g", "WHERE v >= 0 OR s = 'yy'")),
        (stats.store_group_minmax_sum(store, "g", "v"), oracle(
            "g AS value, COUNT(*) AS n, CAST(SUM(v) AS BIGINT) AS sum_v, "
            "MIN(v) AS min_v, MAX(v) AS max_v", "g")),
    ]
    for res, exp in cases:
        same(res, exp)


def test_store_topk_prunes_and_matches_bruteforce(ray_session, tmp_path):
    """Top-k pushdown: a store whose value column is chunk-clustered
    must decode only the chunks whose stat bound can beat the running
    k-th value; result == brute-force ORDER BY v DESC, id LIMIT k
    including boundary ties, and nulls never enter the top-k."""
    import os

    import numpy as np
    import pandas as pd
    import pyarrow as pa

    from skar_ray.pipelines.query_encoded import store_topk
    from skar_ray.state import container, manifest

    rng = np.random.default_rng(7)
    # 8 chunks x 100 rows, values clustered per chunk (chunk c holds
    # values ~ [1000*c, 1000*c + 999]) so stats are tight; inject ties
    # at the top boundary and a null
    n, rows = 8, 100
    vals = np.concatenate([
        rng.integers(1000 * c, 1000 * c + 1000, rows) for c in range(n)
    ]).astype("int64")
    vals[-1] = vals[-2]  # tie at the very top
    ids = rng.permutation(n * rows).astype("int64")
    v_obj = vals.astype(object)
    v_obj[3] = None  # a null in a low chunk
    t = pa.table({"doc_id": ids, "v": pa.array(list(v_obj), type=pa.int64())})
    out = str(tmp_path / "store")
    os.makedirs(out)
    container.write_container(
        os.path.join(out, "part-0.skarc"), t,
        chunk_rows=[(c * rows, rows) for c in range(n)],
    )
    manifest.write_manifest(out, manifest.PartitionManifest(
        partition_id=0, status="done", n_rows=n * rows, n_chunks=n,
        data_file="part-0.skarc", raw_bytes=1, enc_bytes=1,
        content_sha256=""))

    k = 30
    got, info = store_topk(out, "v", k=k, id_col="doc_id", with_info=True)
    df = pd.DataFrame({"doc_id": ids, "v": pd.array(list(v_obj), dtype="Int64")}).dropna()
    want = df.sort_values(["v", "doc_id"], ascending=[False, True]).head(k)
    assert list(got["v"]) == list(want["v"].astype("int64"))
    assert list(got["doc_id"]) == list(want["doc_id"])
    # k=30 < 100 rows/chunk: only the top chunk can hold the top-k
    assert info["chunks_total"] == n and info["chunks_decoded"] == 1

    # ascending variant: the bottom chunk serves alone
    got2, info2 = store_topk(out, "v", k=k, id_col="doc_id",
                             descending=False, with_info=True)
    want2 = df.sort_values(["v", "doc_id"]).head(k)
    assert list(got2["v"]) == list(want2["v"].astype("int64"))
    assert info2["chunks_decoded"] == 1

    # k spanning two chunks decodes exactly two
    got3, info3 = store_topk(out, "v", k=150, id_col="doc_id", with_info=True)
    want3 = df.sort_values(["v", "doc_id"], ascending=[False, True]).head(150)
    assert list(got3["v"]) == list(want3["v"].astype("int64"))
    assert info3["chunks_decoded"] == 2

    # k > total rows: everything decodes, full sorted table comes back
    got4 = store_topk(out, "v", k=10_000, id_col="doc_id")
    assert len(got4) == len(df)  # the null row never appears


def test_store_topk_rejects_null_ids(ray_session, tmp_path):
    """A null ``id_col`` cannot be ranked (object ids raised TypeError,
    float ids emitted NaN): store_topk raises a ValueError naming the
    column from the header, even when the null sits on the top-valued
    row or a filter would drop its chunk."""
    import os

    import pyarrow as pa

    from skar_ray.pipelines.query_encoded import store_topk
    from skar_ray.state import container, manifest

    for ids in ([3, 1, None, 2], ["c", "a", None, "b"], [3.0, 1.0, None, 2.0]):
        t = pa.table({"doc_id": ids, "v": pa.array([10, 20, 99, 5], type=pa.int64())})
        out = str(tmp_path / f"store-{type(ids[0]).__name__}")
        os.makedirs(out)
        container.write_container(os.path.join(out, "part-0.skarc"), t,
                                  chunk_rows=[(0, 2), (2, 2)])
        manifest.write_manifest(out, manifest.PartitionManifest(
            partition_id=0, status="done", n_rows=4, n_chunks=2,
            data_file="part-0.skarc", raw_bytes=1, enc_bytes=1,
            content_sha256=""))
        for filters in (None, [[("v", "<", 4)]]):  # the filter prunes every chunk
            with pytest.raises(ValueError, match="non-null id_col; 'doc_id'"):
                store_topk(out, "v", k=2, id_col="doc_id", filters=filters)


def test_store_topk_filtered_composes_pruning(ray_session, tmp_path):
    """WHERE + ORDER BY LIMIT composed on the encoded form: chunks
    failing the DNF's stats test drop header-only, the DNF row mask
    applies before ranking, and the k-th bound still prunes — result
    == brute-force filtered top-k."""
    import os

    import numpy as np
    import pandas as pd
    import pyarrow as pa

    from skar_ray.pipelines.query_encoded import store_topk
    from skar_ray.state import container, manifest

    rng = np.random.default_rng(11)
    n, rows = 8, 100
    vals = np.concatenate([
        rng.integers(1000 * c, 1000 * c + 1000, rows) for c in range(n)
    ]).astype("int64")
    ids = np.arange(n * rows, dtype="int64")
    # lang clusters per chunk: chunks 0-3 'go', 4-5 'py', 6-7 'rs' —
    # a lang filter prunes whole chunks from the header stats
    lang = np.repeat(["go"] * 4 + ["py"] * 2 + ["rs"] * 2, rows)
    t = pa.table({"doc_id": ids, "v": vals, "lang": lang})
    out = str(tmp_path / "store")
    os.makedirs(out)
    container.write_container(
        os.path.join(out, "part-0.skarc"), t,
        chunk_rows=[(c * rows, rows) for c in range(n)],
    )
    manifest.write_manifest(out, manifest.PartitionManifest(
        partition_id=0, status="done", n_rows=n * rows, n_chunks=n,
        data_file="part-0.skarc", raw_bytes=1, enc_bytes=1,
        content_sha256=""))

    df = pd.DataFrame({"doc_id": ids, "v": vals, "lang": lang})
    k = 30
    got, info = store_topk(out, "v", k=k, id_col="doc_id",
                           filters=[[("lang", "==", "py")]], with_info=True)
    want = (
        df[df["lang"] == "py"]
        .sort_values(["v", "doc_id"], ascending=[False, True]).head(k)
    )
    assert list(got["v"]) == list(want["v"])
    assert list(got["doc_id"]) == list(want["doc_id"])
    # 6 chunks fail the lang stats test; the top py chunk (5) serves
    # the k rows and its v_k prunes chunk 4
    assert info["dnf_pruned"] == 6 and info["chunks_decoded"] == 1

    # a filter that keeps only a few rows per chunk: the wave loop must
    # pull more prefixes until k rows are collected (or all decode)
    got2, info2 = store_topk(
        out, "v", k=10, id_col="doc_id",
        filters=[[("doc_id", "<", 150)]], with_info=True,
    )
    want2 = (
        df[df["doc_id"] < 150]
        .sort_values(["v", "doc_id"], ascending=[False, True]).head(10)
    )
    assert list(got2["v"]) == list(want2["v"])
    assert list(got2["doc_id"]) == list(want2["doc_id"])
    assert info2["dnf_pruned"] == 6  # doc_id stats kill chunks 2-7


def _tiny_store(t, nchunks):
    """Write ``t`` as one container split into ``nchunks`` chunks under
    a fresh temp dir (hypothesis examples can't reuse tmp_path)."""
    import os
    import tempfile

    from skar_ray.state import container, manifest

    out = tempfile.mkdtemp(prefix="skar_prop_store_")
    n = t.num_rows
    nchunks = max(1, min(nchunks, n))
    bounds = [round(c * n / nchunks) for c in range(nchunks + 1)]
    chunk_rows = [
        (lo, hi - lo) for lo, hi in zip(bounds, bounds[1:]) if hi > lo
    ]
    container.write_container(os.path.join(out, "part-0.skarc"), t,
                              chunk_rows=chunk_rows)
    manifest.write_manifest(out, manifest.PartitionManifest(
        partition_id=0, status="done", n_rows=n, n_chunks=len(chunk_rows),
        data_file="part-0.skarc", raw_bytes=1, enc_bytes=1,
        content_sha256=""))
    return out


@settings(max_examples=15, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(
    vals=st.lists(st.one_of(st.none(), st.integers(-1000, 1000)),
                  min_size=1, max_size=60),
    k=st.integers(1, 12),
    desc=st.booleans(),
    nchunks=st.integers(1, 4),
)
def test_store_topk_property(ray_session, vals, k, desc, nchunks):
    """Random values / chunking / direction / k: store_topk == pandas
    dropna + sort + head, ids tie-broken ascending."""
    import shutil

    import pandas as pd
    import pyarrow as pa

    from skar_ray.pipelines.query_encoded import store_topk

    ids = list(range(len(vals)))
    t = pa.table({"doc_id": pa.array(ids, type=pa.int64()),
                  "v": pa.array(vals, type=pa.int64())})
    out = _tiny_store(t, nchunks)
    try:
        got = store_topk(out, "v", k=k, id_col="doc_id", descending=desc)
        want = (
            pd.DataFrame({"doc_id": ids, "v": pd.array(vals, dtype="Int64")})
            .dropna()
            .sort_values(["v", "doc_id"], ascending=[not desc, True])
            .head(k)
        )
        assert list(got["doc_id"]) == list(want["doc_id"])
        assert list(got["v"]) == list(want["v"].astype("int64"))
    finally:
        shutil.rmtree(out, ignore_errors=True)


@settings(max_examples=15, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(
    vals=st.lists(
        st.one_of(st.none(), st.text(alphabet="abcxyz", max_size=4)),
        min_size=1, max_size=60,
    ),
    nchunks=st.integers(1, 4),
)
def test_store_distinct_property(ray_session, vals, nchunks):
    """Random strings-with-nulls and chunking: store_distinct == the
    exact distinct set, NULL included, whatever rung serves it."""
    import shutil

    import pyarrow as pa

    from skar_ray.pipelines.stats import store_distinct

    t = pa.table({"g": pa.array(vals, type=pa.string())})
    out = _tiny_store(t, nchunks)
    try:
        got = store_distinct(out, "g")
        assert set(got["value"]) == set(vals)
        assert len(got) == len(set(vals))
    finally:
        shutil.rmtree(out, ignore_errors=True)


def test_store_topk_edge_guards(ray_session, tmp_path):
    """k<1, non-numeric value_col and unknown columns fail loudly;
    float NaN rows rank with nulls (never in the top-k) and never
    poison the k-th bound."""
    import os

    import numpy as np
    import pyarrow as pa

    from skar_ray.pipelines.query_encoded import store_topk
    from skar_ray.pipelines.stats import store_distinct
    from skar_ray.state import container, manifest

    # chunk 0 is mostly NaN (its stats still bound its one real row);
    # chunk 1 holds the true top values
    v = [float("nan"), float("nan"), 1.5, None] + [10.0, 20.0, 30.0, 40.0]
    ids = list(range(8))
    t = pa.table({"doc_id": pa.array(ids, type=pa.int64()),
                  "v": pa.array(v, type=pa.float64())})
    out = str(tmp_path / "store")
    os.makedirs(out)
    container.write_container(os.path.join(out, "part-0.skarc"), t,
                              chunk_rows=[(0, 4), (4, 4)])
    manifest.write_manifest(out, manifest.PartitionManifest(
        partition_id=0, status="done", n_rows=8, n_chunks=2,
        data_file="part-0.skarc", raw_bytes=1, enc_bytes=1,
        content_sha256=""))

    got = store_topk(out, "v", k=5, id_col="doc_id")
    assert list(got["doc_id"]) == [7, 6, 5, 4, 2]  # NaN/None rows excluded
    assert list(got["v"]) == [40.0, 30.0, 20.0, 10.0, 1.5]

    import pytest as _pytest

    with _pytest.raises(ValueError, match="k >= 1"):
        store_topk(out, "v", k=0)
    t2 = pa.table({"doc_id": pa.array(ids, type=pa.int64()),
                   "s": pa.array([str(x) for x in ids])})
    out2 = str(tmp_path / "s2")
    os.makedirs(out2)
    container.write_container(os.path.join(out2, "part-0.skarc"), t2)
    manifest.write_manifest(out2, manifest.PartitionManifest(
        partition_id=0, status="done", n_rows=8, n_chunks=1,
        data_file="part-0.skarc", raw_bytes=1, enc_bytes=1,
        content_sha256=""))
    with _pytest.raises(Exception, match="numeric value_col"):
        store_topk(out2, "s", k=3)
    with _pytest.raises(Exception, match="not in store schema"):
        store_topk(out2, "nope", k=3)
    with _pytest.raises(Exception, match="not in store schema"):
        store_distinct(out2, "nope")

    # NaN dedups to ONE distinct value however many chunks carry it
    dv = store_distinct(out, "v")
    vals = list(dv["value"])
    assert vals[:4] == [1.5, 10.0, 20.0, 30.0]
    assert vals[4] == 40.0 and np.isnan(vals[5]) and vals[6] is None
    assert len(vals) == 7


def test_store_topk_unsigned_and_intmin(ray_session, tmp_path):
    """Regression: numpy unsigned negation wraps (0 would rank as the
    uint maximum) and int64 min negates to itself — ranking must not
    negate.  uint64 values including 0 and int64 values including the
    extreme minimum both order correctly, both directions."""
    import os

    import numpy as np
    import pandas as pd
    import pyarrow as pa

    from skar_ray.pipelines.query_encoded import store_topk
    from skar_ray.state import container, manifest

    def mk(tmpname, arr, typ):
        t = pa.table({"doc_id": pa.array(range(len(arr)), type=pa.int64()),
                      "v": pa.array(arr, type=typ)})
        out = str(tmp_path / tmpname)
        os.makedirs(out)
        container.write_container(os.path.join(out, "part-0.skarc"), t)
        manifest.write_manifest(out, manifest.PartitionManifest(
            partition_id=0, status="done", n_rows=len(arr), n_chunks=1,
            data_file="part-0.skarc", raw_bytes=1, enc_bytes=1,
            content_sha256=""))
        return out

    u = [0, 1, 5, 3, 0]
    out_u = mk("u64", u, pa.uint64())
    got = store_topk(out_u, "v", k=2, id_col="doc_id")
    assert list(got["v"]) == [5, 3] and list(got["doc_id"]) == [2, 3]
    got_a = store_topk(out_u, "v", k=2, id_col="doc_id", descending=False)
    assert list(got_a["v"]) == [0, 0] and list(got_a["doc_id"]) == [0, 4]

    s = [np.iinfo(np.int64).min, -1, 7]
    out_s = mk("i64", s, pa.int64())
    got_s = store_topk(out_s, "v", k=3, id_col="doc_id")
    assert list(got_s["v"]) == [7, -1, np.iinfo(np.int64).min]
