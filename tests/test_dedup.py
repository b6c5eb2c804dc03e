"""Dedup-suite oracles: planted duplicates must be found."""

import numpy as np
import pandas as pd
import pytest

import skar_ray.stages.dedup as dd

BASE = (
    "The quick brown fox jumps over the lazy dog. "
    "Pack my box with five dozen liquor jugs. "
    "How vexingly quick daft zebras jump. " * 4
)


_WORDS = BASE.replace(".", "").split()


@pytest.fixture(scope="module")
def docs_ds(ray_session):
    import ray.data

    rng = np.random.default_rng(123)
    rows = []
    for i in range(40):
        # independent docs: random word sequences (low cross-doc jaccard)
        words = rng.choice(_WORDS, size=60).tolist()
        rows.append({"doc_id": i, "text": f"doc {i}: " + " ".join(words), "lang": "en"})
    # exact duplicates
    rows.append({"doc_id": 100, "text": rows[0]["text"], "lang": "en"})
    rows.append({"doc_id": 101, "text": rows[0]["text"], "lang": "en"})
    # near duplicate of doc 5 (one word changed)
    rows.append({"doc_id": 102, "text": rows[5]["text"].replace("the", "thy", 1), "lang": "en"})
    return ray.data.from_pandas(pd.DataFrame(rows))


def test_exact_dedup_keeps_min_id(docs_ds):
    kept = sorted(dd.exact_dedup(docs_ds).to_pandas()["doc_id"])
    assert 0 in kept and 100 not in kept and 101 not in kept
    assert len(kept) == 41  # 40 unique + the near-dup (not exact)


def test_minhash_finds_planted_near_dup(docs_ds):
    pairs = dd.minhash_lsh_pairs(docs_ds, threshold=0.7).to_pandas()
    pairs_set = set(zip(pairs["doc_a"], pairs["doc_b"]))
    assert (5, 102) in pairs_set, pairs_set
    assert (0, 100) in pairs_set and (0, 101) in pairs_set


def test_minhash_jaccard_close_to_exact(docs_ds):
    pairs = dd.minhash_lsh_pairs(docs_ds, threshold=0.7).to_pandas()
    row = pairs[(pairs.doc_a == 0) & (pairs.doc_b == 100)]
    assert abs(row["jaccard"].iloc[0] - 1.0) < 1e-9  # exact dup ⇒ jaccard 1


def test_simhash_identical_docs_distance_zero(docs_ds):
    pairs = dd.simhash_pairs(docs_ds, max_hamming=3).to_pandas()
    d = dict(zip(zip(pairs["doc_a"], pairs["doc_b"]), pairs["hamming"]))
    assert d.get((0, 100)) == 0 and d.get((0, 101)) == 0


def test_ngram_jaccard_pairs(docs_ds):
    pairs = dd.ngram_jaccard_pairs(docs_ds, threshold=0.9, group_col="lang").to_pandas()
    pset = set(zip(pairs["doc_a"], pairs["doc_b"]))
    assert (0, 100) in pset and (100, 101) in pset


def test_embedding_near_dup(ray_session):
    import ray.data

    rng = np.random.default_rng(7)
    vecs = rng.normal(size=(60, 32))
    vecs[50] = vecs[3] + rng.normal(scale=0.01, size=32)  # planted near-dup
    vecs[51] = vecs[3]  # exact dup
    df = pd.DataFrame({"vec_id": range(60), "embedding": list(vecs.astype(np.float32))})
    ds = ray.data.from_pandas(df)
    pairs = dd.embedding_dup_pairs(ds, threshold=0.99).to_pandas()
    pset = set(zip(pairs["vec_a"], pairs["vec_b"]))
    assert (3, 50) in pset and (3, 51) in pset and (50, 51) in pset
    assert all(c >= 0.99 for c in pairs["cosine"])


def test_jaccard_helper():
    a = np.array([1, 2, 3, 4], dtype=np.uint64)
    b = np.array([3, 4, 5, 6], dtype=np.uint64)
    assert dd.jaccard(a, b) == pytest.approx(2 / 6)
    assert dd.jaccard(a, a) == 1.0


def test_pairwise_jaccard_matches_scalar():
    """The lexsort-batched jaccard kernel == the scalar reference on
    random variable-length uint64 sets, including empty/empty = 1.0."""
    rng = np.random.default_rng(3)
    sets_a, sets_b = [], []
    for _ in range(200):
        sets_a.append(np.unique(rng.integers(0, 40, size=rng.integers(0, 30)).astype(np.uint64)))
        sets_b.append(np.unique(rng.integers(0, 40, size=rng.integers(0, 30)).astype(np.uint64)))
    sets_a.append(np.array([], dtype=np.uint64))
    sets_b.append(np.array([], dtype=np.uint64))
    offs_a, flat_a = dd._flat_u64_segments([s.tobytes() for s in sets_a])
    offs_b, flat_b = dd._flat_u64_segments([s.tobytes() for s in sets_b])
    got = dd._pairwise_jaccard(flat_a, np.diff(offs_a), flat_b, np.diff(offs_b))
    want = np.array([dd.jaccard(a, b) for a, b in zip(sets_a, sets_b)])
    assert np.array_equal(got, want)


def test_gather_segments_matches_slicing():
    rng = np.random.default_rng(4)
    lens = rng.integers(0, 9, size=50)
    offs = np.zeros(51, dtype=np.int64)
    np.cumsum(lens, out=offs[1:])
    flat = rng.integers(0, 1000, size=int(lens.sum())).astype(np.uint64)
    idx = rng.integers(0, 50, size=30)
    vals, out_lens = dd._gather_segments(offs, flat, idx)
    want = np.concatenate([flat[offs[i]:offs[i + 1]] for i in idx]) if len(idx) else flat[:0]
    assert np.array_equal(vals, want)
    assert np.array_equal(out_lens, lens[idx])


def test_connected_components_and_keep_list(docs_ds):
    pairs = dd.minhash_lsh_pairs(docs_ds, threshold=0.7).to_pandas()
    comp = dd.connected_components(pairs)
    # 0,100,101 one cluster labelled 0; 5,102 one cluster labelled 5
    lbl = dict(zip(comp["node"], comp["label"]))
    assert lbl[100] == 0 and lbl[101] == 0 and lbl[102] == 5
    kept = dd.dedup_keep_list(docs_ds, pairs)["doc_id"].tolist()
    assert 0 in kept and 5 in kept
    assert 100 not in kept and 101 not in kept and 102 not in kept
    assert len(kept) == 40  # 43 docs - 3 dropped dups


def test_connected_components_chain():
    import pandas as pd

    pairs = pd.DataFrame({"doc_a": [1, 2, 3, 10], "doc_b": [2, 3, 4, 11]})
    comp = dd.connected_components(pairs)
    lbl = dict(zip(comp["node"], comp["label"]))
    assert lbl[1] == lbl[2] == lbl[3] == lbl[4] == 1
    assert lbl[10] == lbl[11] == 10


def test_pairs_with_feature_shuffle_path_matches_broadcast(docs_ds, monkeypatch):
    """The shuffle-join path (pair sets beyond the broadcast limit) must
    produce the same attachments as the broadcast path."""
    import pyarrow as pa
    import ray
    import ray.data

    feats = ray.data.from_arrow(pa.table({
        "doc_id": pa.array([0, 5, 100, 102], type=pa.int64()),
        "sh": pa.array([b"a", b"b", b"c", b"d"], type=pa.large_binary()),
    }))
    pairs = pa.table({"doc_a": pa.array([0, 0, 5], type=pa.int64()),
                      "doc_b": pa.array([100, 102, 102], type=pa.int64())})
    want = dd._pairs_with_feature(pairs, feats).to_pandas()
    monkeypatch.setattr(dd, "_BROADCAST_PAIR_LIMIT", 0)
    got = dd._pairs_with_feature(pairs, feats).to_pandas()
    key = lambda df: sorted(map(tuple, df[["doc_a", "doc_b", "f_a", "f_b"]].to_numpy()))
    assert key(got) == key(want) and len(got) == 3


def test_connected_components_distributed_matches_driver(ray_session):
    """The groupby-rounds CC (cluster-scale path) must equal the
    driver-side min-label propagation on the same pair set."""
    import pandas as pd
    import ray.data

    pairs = pd.DataFrame({
        "doc_a": [1, 2, 10, 11, 20, 3],
        "doc_b": [2, 3, 11, 12, 21, 7],
    })
    want = dd.connected_components(pairs).sort_values("node").reset_index(drop=True)
    got = dd.connected_components_distributed(ray.data.from_pandas(pairs))
    assert got.equals(want), (got, want)
    # chain of 6 — needs multiple propagation rounds
    chain = pd.DataFrame({"doc_a": [5, 6, 7, 8, 9], "doc_b": [6, 7, 8, 9, 100]})
    want2 = dd.connected_components(chain).sort_values("node").reset_index(drop=True)
    got2 = dd.connected_components_distributed(ray.data.from_pandas(chain))
    assert got2.equals(want2)
    assert set(got2["label"]) == {5}


def test_ngram_jaccard_cross_band_pair(ray_session):
    """Regression (round-2 ADVICE): a qualifying pair whose docs land in
    DIFFERENT log2 shingle-count bands must still be found.  Docs
    replicate upward (bands b..b+reach), so the pair co-occurs only in
    blocks with band >= max(bA, bB); the old guard evaluated pairs in
    the LOWER doc's own band — a block the higher doc never reaches —
    and silently dropped every cross-band pair."""
    import string

    import ray.data

    alphabet = string.ascii_letters + string.digits
    base = alphabet[:40]                    # ~36 distinct 5-char shingles: band 5
    longer = base + alphabet[40:62] + "~!@#$%^&*()_+[]{}"  # ~double: band 6
    sh_a, sh_b = dd._hash_shingles(base, 5), dd._hash_shingles(longer, 5)
    band_a, band_b = int(np.log2(len(sh_a))), int(np.log2(len(sh_b)))
    assert band_a != band_b, (len(sh_a), len(sh_b))
    j = dd.jaccard(sh_a, sh_b)
    thr = 0.4
    assert j >= thr, j
    ds = ray.data.from_pandas(pd.DataFrame([
        {"doc_id": 1, "text": base, "lang": "en"},
        {"doc_id": 2, "text": longer, "lang": "en"},
    ]))
    pairs = dd.ngram_jaccard_pairs(ds, threshold=thr, k=5, group_col="lang").to_pandas()
    pset = set(zip(pairs["doc_a"], pairs["doc_b"]))
    assert (1, 2) in pset, pset


def test_simhash_degenerate_bucket_exhaustive():
    """A >MAX_BUCKET degenerate bucket must still yield its FULL pair
    set (round-2's sorted-window fallback was explicitly
    non-exhaustive).  600 distinct hashes differing only inside one
    bucket's free bits; brute-force pairwise popcount is the oracle."""
    rng = np.random.default_rng(99)
    base = int(rng.integers(0, 2**63))
    # free bits of index (0,1,2): blocks 3..5 (bits 33..63); restrict
    # variation to 12 of them so plenty of pairs land within hamming<=3
    var_bits = [33, 34, 35, 36, 44, 45, 46, 47, 54, 55, 56, 57]
    seen, hashes = set(), []
    while len(hashes) < 600:
        k = int(rng.integers(0, 6))
        bits = tuple(sorted(rng.choice(var_bits, size=k, replace=False))) if k else ()
        h = base
        for b in bits:
            h ^= 1 << b
        if h not in seen:
            seen.add(h)
            hashes.append(h)
    h = np.array(hashes, dtype=np.uint64)
    ids = np.arange(600, dtype=np.int64)
    free = sum(1 << b for b in range(33, 64))
    found: dict = {}
    dd._sim_pairs_exhaustive(ids, h, free, 3, found)
    # oracle: full pairwise hamming
    x = (h[:, None] ^ h[None, :]).view(np.uint8).reshape(600, 600, 8)
    d = dd._SIM_POPCNT[x].sum(axis=2)
    ia, ib = np.where(np.triu(d <= 3, k=1))
    want = {(int(ids[i]), int(ids[j])): int(d[i, j]) for i, j in zip(ia, ib)}
    assert found == want, (len(found), len(want))


def test_simhash_identical_clique_star():
    """Free bits exhausted / all-equal hashes: a hamming-0 star to the
    min id — exact via transitivity (clique closure)."""
    h = np.full(700, 12345, dtype=np.uint64)
    ids = np.arange(700, dtype=np.int64)
    found: dict = {}
    dd._sim_pairs_exhaustive(ids, h, 0xFF00000000000000, 3, found)
    assert found == {(0, i): 0 for i in range(1, 700)}


def test_simhash_multi_index_end_to_end_exhaustive(docs_ds):
    """simhash_pairs output must equal brute-force pairwise hamming
    over the simhash signatures (small corpus: every bucket is small,
    so no clique-star approximation applies)."""
    df = docs_ds.to_pandas()
    sigs = {int(r.doc_id): dd.simhash(r.text) for r in df.itertuples()}
    ids = sorted(sigs)
    want = {}
    for i, a in enumerate(ids):
        for b in ids[i + 1:]:
            d = bin(sigs[a] ^ sigs[b]).count("1")
            if d <= 3:
                want[(a, b)] = d
    pairs = dd.simhash_pairs(docs_ds, max_hamming=3).to_pandas()
    got = {(int(a), int(b)): int(h) for a, b, h in zip(pairs.doc_a, pairs.doc_b, pairs.hamming)}
    assert got == want


def test_simhash_split_mask_exact_parts():
    """_split_mask must return exactly min(parts, n_bits) masks (sizes
    differing by <=1): ceil-division chunking returned 3 masks for 5, 6
    or 9 bits at parts=4, breaking the pigeonhole completeness."""
    for n_bits in range(1, 20):
        free = sum(1 << (3 * i) for i in range(n_bits))  # spread bits
        masks = dd._split_mask(free, 4)
        assert len(masks) == min(4, n_bits), (n_bits, masks)
        # disjoint and complete
        acc = 0
        for m in masks:
            assert acc & m == 0
            acc |= m
        assert acc == free
        sizes = [bin(m).count("1") for m in masks]
        assert max(sizes) - min(sizes) <= 1, sizes


def test_simhash_oversized_bucket_few_free_bits_exhaustive():
    """ADVICE repro: an oversized (>512) bucket with few free bits used
    to drop true hamming<=3 pairs (5 free bits -> only 3 sub-masks; a
    pair differing in bits touching all 3 was lost).  With the fix the
    pair set matches brute force exactly for 5 free bits, and is
    connectivity-equivalent for <=3 free bits (clique-star closure)."""
    import itertools

    # case A: 5 free bits (> max_hamming) -> must be EXACT
    var_bits = [0, 2, 4, 6, 8]
    free = sum(1 << b for b in var_bits)
    hashes = []
    # every subset of the 5 bits, replicated to exceed MAX_BUCKET
    combos = []
    for k in range(6):
        combos.extend(itertools.combinations(var_bits, k))
    base = 0x5A5A5A5A5A5A5A00
    n = 600
    h = np.empty(n, dtype=np.uint64)
    for i in range(n):
        v = base
        for b in combos[i % len(combos)]:
            v ^= 1 << b
        h[i] = v
    ids = np.arange(n, dtype=np.int64)
    found: dict = {}
    dd._sim_pairs_exhaustive(ids, h, free, 3, found)
    x = (h[:, None] ^ h[None, :]).view(np.uint8).reshape(n, n, 8)
    d = dd._SIM_POPCNT[x].sum(axis=2)
    ia, ib = np.where(np.triu(d <= 3, k=1))
    want = {(int(i), int(j)): int(d[i, j]) for i, j in zip(ia, ib)}
    # identical-hash duplicates exist -> compare up to clique-star
    # closure: every found distance must be the true hamming, and the
    # connected components must match brute force exactly
    for (a, b), dist in found.items():
        assert bin(int(h[a]) ^ int(h[b])).count("1") == dist

    def comps(pairs):
        lab = {i: i for i in range(n)}

        def root(x):
            while lab[x] != x:
                lab[x] = lab[lab[x]]
                x = lab[x]
            return x

        for a, b in pairs:
            ra, rb = root(a), root(b)
            if ra != rb:
                lab[max(ra, rb)] = min(ra, rb)
        return frozenset(frozenset(i for i in range(n) if root(i) == r)
                         for r in {root(i) for i in range(n)})

    assert comps(found.keys()) == comps(want.keys())

    # case B: 3 free bits (== max_hamming) -> fallback; connectivity-exact
    var_bits = [0, 2, 4]
    free = sum(1 << b for b in var_bits)
    h2 = np.empty(n, dtype=np.uint64)
    for i in range(n):
        v = base
        for b in var_bits:
            if (i >> b) & 1:
                v ^= 1 << b
        h2[i] = v
    found2: dict = {}
    dd._sim_pairs_exhaustive(ids, h2, free, 3, found2)
    x = (h2[:, None] ^ h2[None, :]).view(np.uint8).reshape(n, n, 8)
    d = dd._SIM_POPCNT[x].sum(axis=2)
    ia, ib = np.where(np.triu(d <= 3, k=1))
    want2 = {(int(i), int(j)) for i, j in zip(ia, ib)}
    for (a, b), dist in found2.items():
        assert bin(int(h2[a]) ^ int(h2[b])).count("1") == dist
    assert comps(found2.keys()) == comps(want2)


def test_keep_list_distributed_matches_driver(docs_ds):
    """The cluster-scale keep path (distributed CC + bucketed anti-join,
    nothing cluster-sized on the driver) must equal the driver-side
    broadcast path on the same pairs."""
    import ray.data

    pairs = dd.minhash_lsh_pairs(docs_ds, threshold=0.7).to_pandas()
    want = dd.dedup_keep_list(docs_ds, pairs)["doc_id"].tolist()
    kept = dd.dedup_keep_list_distributed(docs_ds, ray.data.from_pandas(pairs[["doc_a", "doc_b"]]))
    got = kept.to_pandas().sort_values("doc_id")["doc_id"].tolist()
    assert got == want
    assert 0 in got and 100 not in got and 101 not in got


def test_connected_components_distributed_as_dataset(ray_session):
    import ray.data

    pairs = pd.DataFrame({"doc_a": [1, 2, 10], "doc_b": [2, 3, 11]})
    labels = dd.connected_components_distributed(ray.data.from_pandas(pairs), as_dataset=True)
    got = labels.to_pandas().astype({"node": "int64", "label": "int64"}).sort_values("node").reset_index(drop=True)
    want = dd.connected_components(pairs).sort_values("node").reset_index(drop=True)
    assert got.equals(want)


def test_bucket_anti_join(ray_session):
    import ray.data

    from skar_ray.stages.joins import bucket_anti_join

    left = ray.data.from_pandas(pd.DataFrame({"doc_id": np.arange(100, dtype=np.int64),
                                              "x": np.arange(100) * 2}))
    right = ray.data.from_pandas(pd.DataFrame({"doc_id": np.array([3, 5, 97, 200], dtype=np.int64)}))
    out = bucket_anti_join(left, right, key="doc_id").to_pandas().sort_values("doc_id")
    assert sorted(out["doc_id"]) == [i for i in range(100) if i not in (3, 5, 97)]
    # non-key columns survive with their values
    assert dict(zip(out["doc_id"], out["x"]))[10] == 20


def test_bucketed_verify_paths_match_broadcast(docs_ds, monkeypatch):
    """Forcing the distributed (bucketed-join) verify tail must produce
    byte-identical pair sets to the broadcast tail for BOTH the minhash
    and the embedding families — pins the Arrow-buffer segment readers
    (_binary_col_segments) against the broadcast kernels."""
    import ray.data

    want_mh = dd.minhash_lsh_pairs(docs_ds, threshold=0.7).to_pandas()
    monkeypatch.setattr(dd, "_BROADCAST_ID_LIMIT", 0)
    monkeypatch.setattr(dd, "_BROADCAST_PAIR_LIMIT", 0)
    got_mh = dd.minhash_lsh_pairs(docs_ds, threshold=0.7).to_pandas()
    assert got_mh.equals(want_mh), (got_mh, want_mh)

    rng = np.random.default_rng(7)
    vecs = rng.normal(size=(60, 32))
    vecs[50] = vecs[3] + rng.normal(scale=0.01, size=32)
    vecs[51] = vecs[3]
    df = pd.DataFrame({"vec_id": range(60), "embedding": list(vecs.astype(np.float32))})
    ds = ray.data.from_pandas(df)
    got_emb = dd.embedding_dup_pairs(ds, threshold=0.99).to_pandas()
    monkeypatch.undo()
    want_emb = dd.embedding_dup_pairs(ds, threshold=0.99).to_pandas()
    assert got_emb.equals(want_emb), (got_emb, want_emb)
