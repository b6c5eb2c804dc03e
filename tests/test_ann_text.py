"""ANN (brute-force exactness, IVF recall), text ops, multimodal plumbing."""

import numpy as np
import pandas as pd
import pytest

from skar_ray.stages import ann, multimodal, text


@pytest.fixture(scope="module")
def emb_ds(ray_session):
    import ray.data

    rng = np.random.default_rng(11)
    vecs = rng.normal(size=(300, 16)).astype(np.float32)
    df = pd.DataFrame({"vec_id": range(300), "embedding": list(vecs)})
    return ray.data.from_pandas(df), vecs


def _exact_topk(vecs: np.ndarray, q: np.ndarray, k: int) -> list[set]:
    m = vecs.astype(np.float64)
    m = m / np.linalg.norm(m, axis=1, keepdims=True)
    qq = q.astype(np.float64)
    qq = qq / np.linalg.norm(qq, axis=1, keepdims=True)
    sims = qq @ m.T
    return [set(np.argsort(-sims[i])[:k].tolist()) for i in range(len(q))]


def test_brute_force_matches_exact(emb_ds):
    ds, vecs = emb_ds
    q = vecs[:3]
    res = ann.brute_force_topk(ds, q, k=10).to_pandas()
    want = _exact_topk(vecs, q, 10)
    for qi in range(3):
        got = set(res[res.query_id == qi]["vec_id"])
        assert got == want[qi]


def test_ivf_recall(emb_ds):
    ds, vecs = emb_ds
    q = vecs[:3]
    res = ann.ivf_topk(ds, q, k=10, n_lists=8, nprobe=4).to_pandas()
    want = _exact_topk(vecs, q, 10)
    recalls = []
    for qi in range(3):
        got = set(res[res.query_id == qi]["vec_id"])
        recalls.append(len(got & want[qi]) / 10)
    assert np.mean(recalls) >= 0.6, recalls


@pytest.fixture(scope="module")
def ivf_index_dir(emb_ds, tmp_path_factory):
    from skar_ray.pipelines import ann_index

    ds, _ = emb_ds
    idx = str(tmp_path_factory.mktemp("ivf") / "index")
    ann_index.build_ivf_index(ds, idx, n_lists=8, seed=42)
    return idx


def test_ivf_index_prunes_partitions(emb_ds, ivf_index_dir):
    """The persisted index must READ only the probed lists' partitions
    — the index-at-write/prune-at-query invariant (same style as the
    chunk-pruning assertions in test_query_encoded)."""
    from skar_ray.pipelines import ann_index

    ds, vecs = emb_ds
    res, stats = ann_index.ivf_index_topk(
        ivf_index_dir, vecs[:1], k=10, nprobe=2, return_stats=True
    )
    assert stats["partitions_total"] == 8
    assert stats["partitions_read"] == 2  # exactly the probed lists
    assert len(res) == 10


def test_ivf_index_matches_in_memory_ivf(emb_ds, ivf_index_dir):
    """Persisted-index query == the in-memory ivf_topk: same centroids
    (same deterministic training), same assignment, and the encoded
    embedding column round-trips exactly.  IDs must match exactly;
    cosines only to ~ulp (BLAS picks different matvec kernels for the
    two paths' differently-shaped matrices)."""
    from skar_ray.pipelines import ann_index
    from skar_ray.stages import ann as ann_mod

    ds, vecs = emb_ds
    q = vecs[:3]
    got = ann_index.ivf_index_topk(ivf_index_dir, q, k=10, nprobe=4).to_pandas()
    want = ann_mod.ivf_topk(ds, q, k=10, n_lists=8, nprobe=4).to_pandas()
    assert got[["query_id", "vec_id"]].values.tolist() == want[["query_id", "vec_id"]].values.tolist()
    assert np.allclose(got["cosine"], want["cosine"], rtol=0, atol=1e-12)


def test_ivf_index_full_probe_is_exact(emb_ds, ivf_index_dir):
    """nprobe == n_lists through the persisted index reduces to exact
    brute force — end-to-end proof of build → encode → probe → decode."""
    from skar_ray.pipelines import ann_index

    ds, vecs = emb_ds
    q = vecs[:3]
    res = ann_index.ivf_index_topk(ivf_index_dir, q, k=10, nprobe=8).to_pandas()
    want = _exact_topk(vecs, q, 10)
    for qi in range(3):
        assert set(res[res.query_id == qi]["vec_id"]) == want[qi]


def test_ivf_index_edge_params(emb_ds, tmp_path):
    """n_lists beyond the training sample is capped by available rows;
    nprobe beyond n_lists is clamped and stays exact."""
    from skar_ray.pipelines import ann_index

    ds, vecs = emb_ds
    idx = str(tmp_path / "edge")
    meta = ann_index.build_ivf_index(ds, idx, n_lists=4, seed=7)
    assert meta["n_lists"] == 4
    res = ann_index.ivf_index_topk(idx, vecs[:2], k=5, nprobe=99).to_pandas()
    want = _exact_topk(vecs, vecs[:2], 5)
    for qi in range(2):
        assert set(res[res.query_id == qi]["vec_id"]) == want[qi]


def test_brute_force_pairs_row_cap_raises(emb_ds):
    """The O(n²) baseline must fail LOUDLY past its row cap instead of
    broadcasting a corpus-sized matrix (max_keys pattern)."""
    ds, _ = emb_ds
    with pytest.raises(ValueError, match="max_rows"):
        ann.brute_force_pairs(ds, threshold=0.4, max_rows=100)


def test_ivf_index_build_resumes(emb_ds, ivf_index_dir):
    """A completed build is a no-op on re-run (meta written last)."""
    import os

    from skar_ray.pipelines import ann_index

    ds, _ = emb_ds
    before = {
        f: os.path.getmtime(os.path.join(ivf_index_dir, f))
        for f in os.listdir(ivf_index_dir)
        if f.endswith(".skarc")
    }
    meta = ann_index.build_ivf_index(ds, ivf_index_dir, n_lists=8, seed=42)
    after = {
        f: os.path.getmtime(os.path.join(ivf_index_dir, f))
        for f in os.listdir(ivf_index_dir)
        if f.endswith(".skarc")
    }
    assert before == after  # nothing re-encoded
    assert meta["n_lists"] == 8 and meta["n_rows"] == 300


def test_ivf_index_rebuild_sweeps_stale_lists(ray_session, tmp_path):
    """Rebuilding into an existing index_dir must (a) not resume-skip
    when the input fingerprint changed, and (b) sweep list partitions
    the new assignment no longer produces — otherwise ivf_index_topk
    (which scans ALL manifests) would serve vectors from the previous
    build and the nprobe==n_lists exactness invariant breaks."""
    import os

    import ray.data

    from skar_ray.pipelines import ann_index
    from skar_ray.state import manifest as manifest_mod

    rng = np.random.default_rng(5)
    idx = str(tmp_path / "idx")
    vecs_a = rng.normal(size=(200, 8)).astype(np.float32)
    ds_a = ray.data.from_pandas(
        pd.DataFrame({"vec_id": range(200), "embedding": list(vecs_a)})
    )
    ann_index.build_ivf_index(ds_a, idx, n_lists=8, seed=3, input_fingerprint="v1")
    assert len(manifest_mod.scan_manifests(idx)) == 8

    # same row count, new content + fingerprint → REBUILD, not a resume
    # no-op; fewer lists → ids 4..7 become orphans and must be swept
    vecs_b = rng.normal(size=(200, 8)).astype(np.float32)
    ds_b = ray.data.from_pandas(
        pd.DataFrame({"vec_id": range(200), "embedding": list(vecs_b)})
    )
    meta = ann_index.build_ivf_index(ds_b, idx, n_lists=4, seed=3, input_fingerprint="v2")
    assert meta["input_fingerprint"] == "v2"
    live = manifest_mod.scan_manifests(idx)
    assert set(live) == {int(k) for k in meta["list_rows"]}
    assert max(live) < 4
    # no stale .skarc bytes on disk either
    skarcs = {f for f in os.listdir(idx) if f.endswith(".skarc")}
    assert skarcs == {m.data_file for m in live.values()}

    # full probe over the swept index == exact brute force on the NEW data
    res = ann_index.ivf_index_topk(idx, vecs_b[:2], k=5, nprobe=4).to_pandas()
    want = _exact_topk(vecs_b, vecs_b[:2], 5)
    for qi in range(2):
        assert set(res[res.query_id == qi]["vec_id"]) == want[qi]

    # unchanged fingerprint + params → resume no-op (meta returned as-is)
    again = ann_index.build_ivf_index(ds_b, idx, n_lists=4, seed=3, input_fingerprint="v2")
    assert again["list_rows"] == meta["list_rows"]


def test_token_counter_matches_duckdb(ray_session):
    import duckdb
    import ray.data

    df = pd.DataFrame(
        {"doc_id": [0, 1, 2, 3], "text": ["a b  c", "", "  lead", "tab\tsep\nnl end "]}
    )
    got = ray.data.from_pandas(df).map_batches(text.token_counts, batch_format="pandas").to_pandas()
    got = got.sort_values("doc_id").reset_index(drop=True)
    want = duckdb.connect().execute(
        r"SELECT doc_id, len(regexp_extract_all(text, '\S+')) AS n_tokens FROM df ORDER BY doc_id"
    ).df()
    assert got["n_tokens"].tolist() == want["n_tokens"].tolist()


def test_rolling_fp_shift_invariant_window():
    body = (
        "common body text here that is quite a bit longer than the window size and repeats tokens "
        * 3
    )
    df = pd.DataFrame({"doc_id": [0, 1, 2], "text": ["PREFIX " + body, body, body + " SUFFIX"]})
    out = text.fingerprints(df)
    # min-of-window rolling hash survives prefix/suffix shifts when the
    # minimal window lies in the shared body (it does for these fixtures)
    assert out["rolling_fp"].nunique() == 1


def test_rolling_fp_matches_naive_reference_on_unicode():
    """The vectorised windowed-min path must equal a straightforward
    per-window Horner reference over CODE POINTS (the SQL-oracle
    contract), including non-ASCII, short (<window) and empty strings."""
    from hypothesis import given, settings
    from hypothesis import strategies as st

    B, W, M = 1000003, 16, 1 << 64

    def naive(s: str) -> int:
        cps = [ord(c) for c in s]
        if not cps:
            return 0
        w = min(len(cps), W)
        best = None
        for i in range(len(cps) - w + 1):
            h = 0
            for x in cps[i : i + w]:
                h = (h * B + x) % M
            best = h if best is None else min(best, h)
        return best & ((1 << 63) - 1)

    @given(st.text(max_size=64))
    @settings(max_examples=200, deadline=None)
    def check(s):
        assert text._rolling_min(s) == naive(s)

    check()


def test_simhash_token_hash_matches_duckdb_md5_number_lower():
    """simhash's token hash is contractually DuckDB's
    md5_number_lower('<seed>:' || t) — the SQL oracle rebuilds every
    signature from it, so the byte-order/slice convention is pinned."""
    import duckdb
    import hashlib

    from skar_ray.stages.dedup import simhash

    con = duckdb.connect()
    for t in ["def", "return", "x1_y2", "a", "", "longer_token_here"]:
        ours = int.from_bytes(hashlib.md5(b"42:" + t.encode()).digest()[8:], "little")
        theirs = con.execute("select md5_number_lower('42:' || ?)", [t]).fetchone()[0]
        assert ours == theirs, t
        if t:  # a one-token document's signature IS that token's hash
            assert simhash(t, seed=42) == ours, t


def test_lang_id_english():
    df = pd.DataFrame({"doc_id": [0], "text": ["the cat and the dog ran to the house of a friend for it is warm"]})
    assert text.lang_id(df)["lang_pred"].iloc[0] == "en"


def test_multimodal_plumbing(ray_session):
    import pyarrow as pa
    import ray.data

    rows = pa.table(
        {
            "media_id": pa.array([0, 1], type=pa.int64()),
            "kind": pa.array(["image", "video"]),
            "payload": pa.array([b"\x89PNG fake payload" * 50, b"RIFF fake avi" * 99], type=pa.large_binary()),
            "source": pa.array(["s0", "s1"]),
        }
    )
    ds = ray.data.from_arrow(rows)
    meta = ds.map_batches(multimodal.decode_images, batch_format="pyarrow", batch_size=64).to_pandas()
    assert set(meta.columns) == {"media_id", "width", "height", "mode", "n_pixels"}
    assert (meta["n_pixels"] == meta["width"] * meta["height"]).all()
    # deterministic across runs
    meta2 = ds.map_batches(multimodal.decode_images, batch_format="pyarrow", batch_size=64).to_pandas()
    pd.testing.assert_frame_equal(meta.sort_values("media_id").reset_index(drop=True),
                                  meta2.sort_values("media_id").reset_index(drop=True))
    frames = ds.map_batches(multimodal.sample_frames, batch_format="pyarrow", batch_size=64).to_pandas()
    assert len(frames) == 8  # 4 frames per row
    assert frames.groupby("media_id")["frame"].apply(list).map(lambda l: l == [0, 1, 2, 3]).all()


def test_multimodal_resizer_and_audio(ray_session):
    import pyarrow as pa
    import ray.data

    rows = pa.table(
        {
            "media_id": pa.array([0, 1], type=pa.int64()),
            "kind": pa.array(["image", "audio"]),
            "payload": pa.array([b"imagebytes" * 40, b"\x01\x02\x03\x04" * 8000], type=pa.large_binary()),
            "source": pa.array(["s0", "s1"]),
        }
    )
    ds = ray.data.from_arrow(rows)
    resized = ds.map_batches(multimodal.resize_images, fn_kwargs=dict(width=64, height=48),
                             batch_format="pyarrow", batch_size=64).to_pandas()
    assert (resized["width"] == 64).all() and (resized["height"] == 48).all()
    assert resized["resized_digest"].nunique() == 2  # deterministic per payload
    audio = ds.map_batches(multimodal.audio_features, batch_format="pyarrow",
                           batch_size=64).to_pandas()
    assert (audio["duration_s"] > 0).all()
    assert audio.loc[1, "rms_energy"] > 0


def test_png_wav_real_decode():
    """Pure-Python PNG/WAV generation and decode: the media path is a
    REAL decode for these formats, no external library required."""
    import numpy as np

    png = multimodal.make_png(37, 21, seed=5)
    assert multimodal.parse_png(png) == (37, 21, "L")
    px = multimodal.decode_png_pixels(png)
    assert px is not None and px.shape == (21, 37)
    # pixel content is the seeded matrix, fully round-tripped
    rng = np.random.default_rng(5)
    assert (px == rng.integers(0, 256, (21, 37), dtype=np.uint8)).all()

    wav = multimodal.make_wav(1600, sample_rate=16000, freq=440.0)
    dur, samples = multimodal.parse_wav(wav)
    assert abs(dur - 0.1) < 1e-9
    assert len(samples) == 1600
    # a 440 Hz sine at amplitude 12000 has RMS ~ 12000/sqrt(2)
    rms = float(np.sqrt(np.mean(samples.astype(np.float64) ** 2)))
    assert abs(rms - 12000 / np.sqrt(2)) / rms < 0.02

    assert multimodal.parse_png(b"not a png") is None
    assert multimodal.parse_wav(b"not a wav") is None


def test_image_decoder_uses_real_png_metadata():
    png = multimodal.make_png(48, 32, seed=1)
    w, h, mode = multimodal._decode_image(png)
    assert (w, h) == (48, 32)
    assert mode in ("L",)  # PIL (if present) and the header parse agree on greyscale
    # non-PNG payloads still fall back deterministically
    w2, h2, m2 = multimodal._decode_image(b"opaque-bytes")
    assert m2 == "STUB" and (w2, h2) == multimodal._fake_dims(b"opaque-bytes")


def test_pil_branch_agrees_when_available():
    import pytest

    pytest.importorskip("PIL")
    from PIL import Image  # noqa: F401

    png = multimodal.make_png(25, 19, seed=2)
    assert multimodal._PIL is not None
    assert multimodal._decode_image(png)[:2] == (25, 19)


def test_audio_features_real_wav(ray_session):
    import numpy as np
    import pyarrow as pa
    import ray.data

    wav = multimodal.make_wav(3200, sample_rate=16000)
    t = pa.table({"media_id": pa.array([1], type=pa.int64()),
                  "payload": pa.array([wav], type=pa.large_binary())})
    out = ray.data.from_arrow(t).map_batches(
        multimodal.audio_features, batch_format="pyarrow"
    ).to_pandas()
    assert abs(out["duration_s"].iloc[0] - 0.2) < 1e-9  # true frames/rate, not byte-length guess
    assert abs(out["rms_energy"].iloc[0] - 12000 / np.sqrt(2)) / 12000 < 0.02


def test_kgram_positions_matches_naive():
    from hypothesis import given, settings
    from hypothesis import strategies as st

    def naive(texts, k):
        out = []
        for i, s in enumerate(texts):
            toks = s.split()
            for j in range(max(0, len(toks) - k + 1)):
                out.append((i, " ".join(toks[j : j + k])))
        return out

    @given(
        st.lists(st.text(alphabet="ab \t\n", max_size=30), max_size=8),
        st.integers(min_value=1, max_value=4),
    )
    @settings(max_examples=150, deadline=None)
    def check(texts, k):
        pos, grams = text.kgram_positions(pd.Series(texts, dtype="object"), k)
        assert list(zip(pos.tolist(), grams.tolist())) == naive(texts, k)

    check()


def test_repetition_stats_hand_computed():
    df = pd.DataFrame(
        {
            "doc_id": [0, 1, 2, 3],
            "text": [
                "a b\na b\nc",  # dup line; bigrams: "a b","b a","a b","b c" -> top 2
                "",  # one empty line, no tokens
                "solo",  # one token: no bigrams
                "x x x x",  # bigram "x x" ×3
            ],
        }
    )
    out = text.repetition_stats(df)
    assert out["n_lines"].tolist() == [3, 1, 1, 1]
    assert out["n_distinct_lines"].tolist() == [2, 1, 1, 1]
    assert out["n_bigrams"].tolist() == [4, 0, 0, 3]
    assert out["top_bigram_count"].tolist() == [2, 0, 0, 3]


def test_bpe_token_count_matches_duckdb_re2():
    """Python re and DuckDB RE2 must count the BPE pre-tokenizer
    pattern identically (leftmost-first alternation, explicit ASCII
    whitespace classes) — the token_count_bpe oracle contract."""
    import duckdb
    from hypothesis import given, settings
    from hypothesis import strategies as st

    con = duckdb.connect()
    sql_pat = text._BPE_PATTERN.replace("'", "''")

    @given(st.text(alphabet=st.characters(codec="ascii"), max_size=80))
    @settings(max_examples=200, deadline=None)
    def check(s):
        ours = int(text.bpe_token_counts(pd.DataFrame({"doc_id": [0], "text": [s]}))["n_bpe_tokens"].iloc[0])
        theirs = con.execute(
            f"select len(regexp_extract_all(?, '{sql_pat}'))", [s]
        ).fetchone()[0]
        assert ours == theirs, repr(s)

    check()
    # the canonical shapes: contractions, mixed runs, leading spaces
    df = pd.DataFrame({"doc_id": [0, 1, 2], "text": ["I'll go, won't you?", "x=1;  y+=2", ""]})
    assert text.bpe_token_counts(df)["n_bpe_tokens"].tolist() == [
        con.execute(f"select len(regexp_extract_all(?, '{sql_pat}'))", [t]).fetchone()[0]
        for t in df["text"]
    ]


def test_chunker_matches_bruteforce():
    """chunk_texts == the obvious per-row slicing, including the edge
    shapes: empty text (no chunks), text exactly one chunk long, text
    ending exactly on a stride boundary, and multi-chunk overlap."""
    size, overlap = 8, 3
    stride = size - overlap
    texts = ["", "a", "x" * size, "y" * stride, "z" * (stride * 2), "abcdefghijklmnop"]
    df = pd.DataFrame({"doc_id": range(len(texts)), "text": texts})
    got = text.chunk_texts(df, size, overlap)
    rows = []
    for d, t in zip(df["doc_id"], df["text"]):
        s, i = 0, 0
        while s < len(t):
            rows.append((d, i, t[s : s + size], len(t[s : s + size])))
            s += stride
            i += 1
    want = pd.DataFrame(rows, columns=["doc_id", "chunk_id", "chunk_text", "n_chunk_chars"])
    g = got.sort_values(["doc_id", "chunk_id"]).reset_index(drop=True)
    w = want.astype(g.dtypes.to_dict()).sort_values(["doc_id", "chunk_id"]).reset_index(drop=True)
    pd.testing.assert_frame_equal(g, w)
    # overlap really overlaps: chunk i's tail == chunk i+1's head
    two = g[g["doc_id"] == 5].reset_index(drop=True)
    assert two.loc[0, "chunk_text"][stride:] == two.loc[1, "chunk_text"][: overlap]
    with pytest.raises(ValueError):
        text.chunk_texts(df, 4, 4)


def test_heavy_hitters_prunes_and_stays_exact(ray_session):
    """Misra-Gries path with a vocab FAR larger than k (pruning
    engages in every batch): result must still equal the exact count
    filter, because candidates are recounted exactly."""
    import ray.data

    rng = np.random.default_rng(7)
    hot = [f"hot{i}" for i in range(5)]
    docs = []
    for d in range(400):
        toks = [hot[rng.integers(5)] for _ in range(20)]
        toks += [f"tail{d}_{j}" for j in range(30)]  # 12k unique tail tokens
        docs.append(" ".join(toks))
    df = pd.DataFrame({"doc_id": range(len(docs)), "text": docs})
    ds = ray.data.from_pandas(df).repartition(8)
    got = text.heavy_hitters(ds, frac_num=1, frac_den=100, k=128)
    # exact reference
    from collections import Counter

    c = Counter(w for t in docs for w in t.split())
    total = sum(c.values())
    thr = (total + 99) // 100
    want = sorted(((n, tok) for tok, n in c.items() if n >= thr), key=lambda x: (-x[0], x[1]))
    assert list(zip(got["n"], got["token"])) == want
    assert set(got["token"]) == set(hot)  # the tail never qualifies
    with pytest.raises(ValueError):
        text.heavy_hitters(ds, frac_num=1, frac_den=300, k=64)  # k+1 <= den


def test_boilerplate_lines_match_bruteforce(ray_session):
    """Exact repeated-line detection + removal vs a pure-python
    reference, incl. all-boilerplate docs (clean to empty string) and
    the empty-frequent-set path (threshold above every count)."""
    import ray.data

    rng = np.random.default_rng(0)
    boiler = ["// SPDX-License", "import os", ""]
    docs = []
    for i in range(200):
        lines = [f"unique {i} {j}" for j in range(rng.integers(1, 6))]
        for b in boiler:
            if rng.random() < 0.5:
                lines.insert(int(rng.integers(0, len(lines) + 1)), b)
        if i % 37 == 0:
            lines = ["import os", "// SPDX-License"]  # all-boilerplate doc
        docs.append("\n".join(lines))
    df = pd.DataFrame({"doc_id": range(200), "content": docs})

    from collections import Counter

    cnt = Counter()
    for s in docs:
        for line in set(s.split("\n")):
            cnt[line] += 1
    K = 10
    want_freq = {line for line, c in cnt.items() if c >= K}
    assert want_freq, "fixture must actually contain boilerplate"

    got = text.boilerplate_lines(ray.data.from_pandas(df), min_docs=K)
    assert set(got["line"]) == want_freq
    assert all(cnt[line] == n for line, n in zip(got["line"], got["n_docs"]))

    out = (
        text.remove_boilerplate_lines(ray.data.from_pandas(df), min_docs=K)
        .to_pandas().sort_values("doc_id").reset_index(drop=True)
    )
    assert (out["n_kept"] == 0).any(), "all-boilerplate docs must clean to empty"
    for i, s in enumerate(docs):
        lines = s.split("\n")
        kept = [line for line in lines if line not in want_freq]
        assert out.loc[i, "clean_content"] == "\n".join(kept)
        assert out.loc[i, "n_lines"] == len(lines)
        assert out.loc[i, "n_kept"] == len(kept)

    # threshold above every count -> empty frequent set -> identity
    out2 = (
        text.remove_boilerplate_lines(ray.data.from_pandas(df), min_docs=10**9)
        .to_pandas().sort_values("doc_id").reset_index(drop=True)
    )
    assert (out2["clean_content"] == df["content"]).all()

    with pytest.raises(ValueError, match="min_docs"):
        text.boilerplate_lines(ray.data.from_pandas(df), min_docs=1)


def test_dup_span_stats_match_bruteforce(ray_session):
    """ExactSubstr-style duplicated k-gram spans vs a pure-python
    reference: shared phrases across docs, docs shorter than k (zero
    grams), docs with no duplicated grams, and run-length maxima."""
    import ray.data

    K = 3
    docs = [
        "the quick brown fox jumps over the lazy dog",     # shares phrase with 1
        "a quick brown fox jumps over me",                 # shared run of grams
        "totally unique words here only once ever",        # no dups
        "tiny doc",                                        # shorter than k
        "the quick brown fox appears again quick brown fox jumps",  # internal repeat
    ]
    df = pd.DataFrame({"doc_id": range(len(docs)), "text": docs})

    from collections import Counter

    cnt = Counter()
    for s in docs:
        toks = s.split()
        for g in {" ".join(toks[i:i + K]) for i in range(len(toks) - K + 1)}:
            cnt[g] += 1
    dup = {g for g, c in cnt.items() if c >= 2}
    assert dup and any(c == 1 for c in cnt.values()), "fixture needs both classes"

    got = text.dup_span_stats(ray.data.from_pandas(df), k=K, min_docs=2)
    assert list(got["doc_id"]) == list(range(len(docs)))
    for r in got.itertuples():
        toks = docs[r.doc_id].split()
        grams = [" ".join(toks[i:i + K]) for i in range(max(0, len(toks) - K + 1))]
        flags = [g in dup for g in grams]
        mx = run = 0
        for f in flags:
            run = run + 1 if f else 0
            mx = max(mx, run)
        assert r.n_grams == len(grams)
        assert r.n_dup_grams == sum(flags)
        assert r.max_dup_run == mx
    assert got.loc[3, "n_grams"] == 0 and got.loc[3, "max_dup_run"] == 0
    assert got.loc[2, "n_dup_grams"] == 0


def test_pii_scrubber_edges(ray_session):
    import pandas as pd

    from skar_ray.stages import text

    docs = [
        "mail me at a.b+c@sub.example.org or 192.168.0.1 ok",   # one of each
        "user@10.0.0.1 bare",            # digit TLD: not an email, the ip scrubs
        "no pii here",                   # nothing
        "",                              # empty
        "1.2.3.4 5.6.7.8",               # two ips
        "x@y (no tld) and 300.300.300.300",  # invalid email (no dot-tld); ip regex is syntactic
    ]
    df = pd.DataFrame({"doc_id": range(len(docs)), "text": docs})
    out = text.pii_scrub(df)
    assert list(out["n_emails"]) == [1, 0, 0, 0, 0, 0]
    # row 5: the scrubber is syntactic (1-3 digit quads), like every
    # published PII pass — 300.300.300.300 matches
    assert list(out["n_ips"]) == [1, 1, 0, 0, 2, 1]
    import hashlib

    assert out.loc[0, "clean_md5"] == hashlib.md5(
        b"mail me at <EMAIL> or <IP> ok"
    ).hexdigest()
    assert out.loc[1, "clean_md5"] == hashlib.md5(b"user@<IP> bare").hexdigest()


def test_url_domain_stats_bruteforce(ray_session):
    import pandas as pd
    import ray

    from skar_ray.stages import text

    docs = [
        "see https://a.org/x and https://a.org/y plus http://b.com/z",
        "nothing here",
        "dup domain https://a.org/1 https://a.org/2",
        "",
        "trailing https://c.net",
    ]
    df = pd.DataFrame({"doc_id": range(len(docs)), "text": docs})
    got = text.url_domain_stats(ray.data.from_pandas(df))
    assert list(got["domain"]) == ["a.org", "b.com", "c.net"]
    assert list(got["n"]) == [4, 1, 1]
    assert list(got["n_docs"]) == [2, 1, 1]


def test_dedup_paragraphs_matches_bruteforce(ray_session):
    """Hand-built corpus with cross-doc repeats, WITHIN-doc repeats,
    an all-duplicate doc and an empty doc: only globally-first
    occurrences (by (doc_id, pos)) survive."""
    import pandas as pd
    import ray

    from skar_ray.stages import text

    docs = [
        "A\n\nB\n\nA",        # doc 0: within-doc repeat of A (pos 2 drops)
        "B\n\nC",             # doc 1: B first seen in doc 0 -> drops
        "A\n\nB",             # doc 2: both drop entirely
        "",                   # doc 3: one empty paragraph (first '' seen)
        "D",                  # doc 4: unique, untouched
        "",                   # doc 5: '' repeat of doc 3 -> drops
    ]
    df = pd.DataFrame({"doc_id": range(len(docs)), "text": docs})
    got = (
        text.dedup_paragraphs(ray.data.from_pandas(df))
        .to_pandas().sort_values("doc_id").reset_index(drop=True)
    )
    # brute force
    first = {}
    for i, t in enumerate(docs):
        for j, p in enumerate(t.split("\n\n")):
            first.setdefault(p, (i, j))
    want_clean, want_kept, want_paras = [], [], []
    for i, t in enumerate(docs):
        ps = t.split("\n\n")
        kept = [p for j, p in enumerate(ps) if first[p] == (i, j)]
        want_clean.append("\n\n".join(kept))
        want_kept.append(len(kept))
        want_paras.append(len(ps))
    assert list(got["clean_text"]) == want_clean
    assert list(got["n_kept"]) == want_kept
    assert list(got["n_paras"]) == want_paras
    assert got.loc[2, "n_kept"] == 0 and got.loc[2, "clean_text"] == ""
    assert got.loc[0, "clean_text"] == "A\n\nB"


def test_nfc_normalizer_composes(ray_session):
    import hashlib
    import pandas as pd

    from skar_ray.stages import text

    docs = ["cafe\u0301", "\u212b", "plain", ""]
    df = pd.DataFrame({"doc_id": range(4), "text": docs})
    out = text.nfc_normalize(df)
    assert list(out["changed"]) == [1, 1, 0, 0]
    assert list(out["nfc_len"]) == [4, 1, 5, 0]  # e+combining -> U+00E9
    assert out.loc[0, "nfc_md5"] == hashlib.md5("caf\u00e9".encode()).hexdigest()
    assert out.loc[1, "nfc_md5"] == hashlib.md5("\u00c5".encode()).hexdigest()


def test_pii_and_nfc_are_total_on_null_text():
    """A null ``text`` row scrubs and normalizes as '' (``str.count``
    used to yield NaN and fail the int cast; ``unicodedata.normalize``
    raised on None), and both registry oracles coalesce it to '' the
    same way, so the stage and its SQL still agree row for row."""
    import hashlib

    import duckdb

    from skar_ray.pipelines import registry

    documents = pd.DataFrame(
        {"doc_id": [0, 1, 2, 3], "text": ["a@b.org 1.2.3.4", None, "cafe\u0301", None]}
    )
    pii = text.pii_scrub(documents)
    assert list(pii["n_emails"]) == [1, 0, 0, 0] and list(pii["n_ips"]) == [1, 0, 0, 0]
    assert pii.loc[1, "clean_md5"] == pii.loc[3, "clean_md5"] == hashlib.md5(b"").hexdigest()
    nfc = text.nfc_normalize(documents)
    assert list(nfc["nfc_len"]) == [15, 0, 4, 0] and list(nfc["changed"]) == [0, 0, 1, 0]
    assert nfc.loc[1, "nfc_md5"] == hashlib.md5(b"").hexdigest()
    for name, inject, stage in (
        ("pii_scrub", registry._inject_pii, text.pii_scrub),
        ("normalize_nfc", registry._inject_decomposed, text.nfc_normalize),
    ):
        got = stage(inject(documents)).sort_values("doc_id").reset_index(drop=True)
        want = duckdb.sql(registry.QUERIES[name][1]).df().sort_values("doc_id").reset_index(drop=True)
        pd.testing.assert_frame_equal(got, want[list(got.columns)], check_dtype=False)


def test_dedup_paragraphs_large_doc_ids_stay_exact(ray_session):
    """Regression: keys compared through float64 would collapse
    adjacent (doc_id, pos) keys for doc_id >= 2^33 (float64 has 53
    mantissa bits; key = id*2^20 + pos) and silently KEEP a within-doc
    duplicate.  Integer-space comparison must drop it."""
    import pandas as pd
    import ray

    from skar_ray.stages import text

    big = 1 << 34  # inside the [0, 2^42) guard, beyond float64 exactness
    df = pd.DataFrame({
        "doc_id": [big, big + 1],
        "text": ["P\n\nP\n\nQ", "P"],  # within-doc repeat + cross-doc repeat
    })
    got = (
        text.dedup_paragraphs(ray.data.from_pandas(df))
        .to_pandas().sort_values("doc_id").reset_index(drop=True)
    )
    assert list(got["clean_text"]) == ["P\n\nQ", ""]
    assert list(got["n_kept"]) == [2, 0]


def test_dedup_paragraphs_property(ray_session):
    """Randomized corpora (seeded, 20 draws): dedup_paragraphs ==
    brute-force global first-occurrence keep."""
    import numpy as np
    import pandas as pd
    import ray

    from skar_ray.stages import text

    rng = np.random.default_rng(99)
    vocab = ["A", "B", "C", "x y", "z z", ""]
    for _ in range(20):
        n_docs = int(rng.integers(1, 9))
        texts = [
            "\n\n".join(rng.choice(vocab, size=rng.integers(0, 6)).tolist())
            for _ in range(n_docs)
        ]
        df = pd.DataFrame({"doc_id": range(n_docs), "text": texts})
        got = (
            text.dedup_paragraphs(ray.data.from_pandas(df))
            .to_pandas().sort_values("doc_id").reset_index(drop=True)
        )
        first = {}
        for i, t in enumerate(texts):
            for j, p in enumerate(t.split("\n\n")):
                first.setdefault(p, (i, j))
        for i, t in enumerate(texts):
            ps = t.split("\n\n")
            kept = [p for j, p in enumerate(ps) if first[p] == (i, j)]
            assert got.loc[i, "clean_text"] == "\n\n".join(kept), (texts, i)
            assert got.loc[i, "n_kept"] == len(kept)
            assert got.loc[i, "n_paras"] == len(ps)


def test_dedup_paragraphs_max_dup_guard(ray_session):
    """Past the broadcast cap the job must fail loudly, not build a
    corpus-sized paragraph map in the driver, and name the remedy."""
    import pandas as pd
    import pytest as _pytest
    import ray

    from skar_ray.stages import text

    df = pd.DataFrame({"doc_id": [0, 1], "text": ["A\n\nB", "A\n\nB"]})
    with _pytest.raises(ValueError, match="exceeds max_dup=1;.*driver memory.*raise max_dup") as e:
        text.dedup_paragraphs(ray.data.from_pandas(df), max_dup=1).to_pandas()
    assert "anti-join" not in str(e.value)


def test_dedup_paragraphs_null_text(ray_session):
    """NULL text rows must behave as empty text, not crash the rewrite."""
    import pandas as pd
    import ray

    from skar_ray.stages import text

    df = pd.DataFrame({"doc_id": [0, 1, 2], "text": ["A", None, "A"]})
    got = (
        text.dedup_paragraphs(ray.data.from_pandas(df))
        .to_pandas().sort_values("doc_id").reset_index(drop=True)
    )
    assert list(got["clean_text"]) == ["A", "", ""]
    # null == empty paragraph: doc 1 keeps it (first ''), doc 2's A drops
    assert list(got["n_kept"]) == [1, 1, 0]


def test_in_sorted_is_total():
    """Membership probe of the two-pass recounts: an empty candidate
    set matches nothing instead of raising IndexError."""
    h = np.array([3, 1, 7], dtype=np.int64)
    assert text._in_sorted(np.array([], dtype=np.int64), h).tolist() == [False] * 3
    assert text._in_sorted(np.array([1, 5, 7], dtype=np.int64), h).tolist() == [False, True, True]
    assert text._in_sorted(np.array([1, 5], dtype=np.int64), h[:0]).tolist() == []
