"""Text-analysis stages for training-data pipelines over `documents`.

All stages are vectorised ``map_batches`` functions on Ray Data's task
pool: compiled regexes and lookup tables are module constants, built
once per worker process at import, and broadcast sets are read through
``groups.cached_get`` (analog of the reference holding parsed schemas
and hash sets per query, skar/src/query/execution/mod.rs:86-95).

Ops: token counting, quality scoring, md5/rolling-hash fingerprinting,
n-gram language identification.  The SQL-expressible ones are written
to match DuckDB semantics exactly (see pipelines/registry.py oracles).
"""

from __future__ import annotations

import hashlib
import re
import unicodedata

import numpy as np
import pandas as pd

_TOKEN_RE = re.compile(r"\S+")
_ALPHA_RE = re.compile(r"[A-Za-z]")
_DIGIT_RE = re.compile(r"[0-9]")

# GPT-2-style pre-tokenizer pattern (public, Radford et al. 2019),
# restricted to constructs Python re and DuckDB's RE2 share: explicit
# ASCII whitespace classes instead of \s (unicode-width differs) and no
# lookahead (RE2 has none).  Both engines use leftmost-first
# alternation, so match COUNTS agree exactly.
_BPE_PATTERN = (
    r"'(?:s|t|re|ve|m|ll|d)"
    r"| ?[A-Za-z]+"
    r"| ?[0-9]+"
    r"| ?[^ \t\n\r\f\vA-Za-z0-9]+"
    r"|[ \t\n\r\f\v]+"
)
_BPE_RE = re.compile(_BPE_PATTERN)

# tiny per-language stopword profiles for the n-gram/stopword heuristic
_LANG_PROFILES = {
    "en": frozenset({"the", "and", "of", "to", "a", "in", "is", "it", "that", "for"}),
    "de": frozenset({"der", "die", "das", "und", "ist", "nicht", "ein", "mit", "auf", "zu"}),
    "fr": frozenset({"le", "la", "les", "et", "est", "pas", "un", "une", "des", "dans"}),
    "es": frozenset({"el", "la", "los", "y", "es", "no", "un", "una", "que", "en"}),
    "code": frozenset({"def", "return", "import", "fn", "let", "func", "var", "const", "class", "pub"}),
}
_LANG_TOKEN_RE = re.compile(r"[A-Za-zäöüéèáíóúñ]+")

# Rabin-Karp rolling fingerprint parameters (see fingerprints)
_FP_BASE = np.uint64(1000003)
_FP_WINDOW = 16


def token_counts(batch: pd.DataFrame) -> pd.DataFrame:
    """doc_id, n_tokens — tokens are maximal non-whitespace runs,
    matching DuckDB ``len(regexp_extract_all(text, '\\S+'))``."""
    # str.count with the same compiled pattern: identical match
    # semantics to findall-len without materializing match lists
    n = batch["text"].str.count(_TOKEN_RE)
    return pd.DataFrame({"doc_id": batch["doc_id"], "n_tokens": n.astype("int64")})


def bpe_token_counts(batch: pd.DataFrame) -> pd.DataFrame:
    """doc_id, n_bpe_tokens — BPE-ish pre-tokenization count: the cost
    model for token-budgeted corpus curation (a real BPE merge table
    only subdivides these pieces, so this upper-bounds and tracks the
    true token count).  Same compiled-pattern ``str.count`` trick as
    ``token_counts``; the DuckDB oracle runs the identical pattern."""
    n = batch["text"].str.count(_BPE_RE)
    return pd.DataFrame({"doc_id": batch["doc_id"], "n_bpe_tokens": n.astype("int64")})


def quality_scores(batch: pd.DataFrame) -> pd.DataFrame:
    """Length / character-class ratios — each component reproduced
    bit-identically by the SQL oracle (integer counts divided as doubles)."""
    texts = batch["text"]
    n_chars = texts.str.len().astype("int64")
    n_tokens = texts.str.count(_TOKEN_RE).astype("int64")
    n_alpha = texts.str.count(_ALPHA_RE).astype("int64")
    n_digit = texts.str.count(_DIGIT_RE).astype("int64")
    denom = n_chars.replace(0, 1).astype("float64")
    return pd.DataFrame(
        {
            "doc_id": batch["doc_id"],
            "n_chars_calc": n_chars,
            "n_tokens": n_tokens,
            "alpha_ratio": n_alpha / denom,
            "digit_ratio": n_digit / denom,
        }
    )


def fingerprints(batch: pd.DataFrame) -> pd.DataFrame:
    """md5 fingerprint (SQL-checkable via DuckDB md5()) + a 64-bit
    Rabin-Karp rolling-hash document fingerprint: min over all 16-code-
    point window polynomial hashes (base 1000003, mod 2^64, masked to 63
    bits), shift-resistant.  Operates on Unicode CODE POINTS so the
    DuckDB oracle can recompute it exactly with unicode(substr(...)) +
    HUGEINT modular arithmetic (see pipelines/registry.py)."""
    md5s = batch["text"].map(lambda s: hashlib.md5(s.encode()).hexdigest())
    rolls = batch["text"].map(_rolling_min)
    return pd.DataFrame(
        {"doc_id": batch["doc_id"], "md5": md5s, "rolling_fp": rolls.astype("int64")}
    )


def _rolling_min(s: str) -> int:
    cp = np.frombuffer(s.encode("utf-32-le"), dtype=np.uint32).astype(np.uint64)
    n = len(cp)
    if n == 0:
        return 0
    # one vectorised path for both regimes: a string shorter than the
    # window is a single window (the polynomial sum IS the Horner
    # fold mod 2^64)
    w = min(n, _FP_WINDOW)
    powers = _FP_BASE ** np.arange(w - 1, -1, -1, dtype=np.uint64)
    win = np.lib.stride_tricks.sliding_window_view(cp, w)
    hashes = (win * powers).sum(axis=1, dtype=np.uint64)
    return int(hashes.min() & np.uint64(0x7FFFFFFFFFFFFFFF))


def kgram_positions(texts: pd.Series, k: int) -> tuple[np.ndarray, np.ndarray]:
    """All k-token n-grams of every row, vectorised.

    Tokens are maximal non-whitespace runs (the ``\\S+`` convention the
    SQL oracles share).  Returns ``(row_positions, grams)`` — parallel
    arrays with one entry per n-gram occurrence, ``row_positions``
    indexing into ``texts`` positionally.  O(k · total_tokens) numpy
    object ops; no per-row Python loop.
    """
    toks = texts.reset_index(drop=True).str.findall(_TOKEN_RE)
    ex = toks.explode().dropna()
    n = len(ex)
    empty = (np.array([], dtype=np.int64), np.array([], dtype=object))
    if n == 0:
        return empty
    idx = ex.index.to_numpy(dtype=np.int64)
    vals = ex.to_numpy(dtype=object)
    grams = vals.copy()
    valid = np.ones(n, dtype=bool)
    for j in range(1, k):
        if j >= n:
            return empty
        # gram starting at i stays valid iff token i+j exists in the same row
        ok = np.zeros(n, dtype=bool)
        ok[: n - j] = idx[j:] == idx[: n - j]
        valid &= ok
        nxt = np.empty(n, dtype=object)
        nxt[: n - j] = vals[j:]
        upd = np.empty(n, dtype=object)
        upd[valid] = grams[valid] + " " + nxt[valid]
        grams = upd
    if not valid.any():
        return empty
    return idx[valid], grams[valid]


def repetition_stats(batch: pd.DataFrame) -> pd.DataFrame:
    """Gopher-style repetition signals (Rae et al. 2021, public): per
    doc the duplicate-line and top-bigram concentrations that gate
    boilerplate/spam out of training corpora.  Integer counts only so
    the DuckDB oracle reproduces the hash exactly; the ratios
    (dup_line_frac = 1 - n_distinct_lines/n_lines, top_bigram_frac =
    top_bigram_count/n_bigrams) are derived downstream.  Fully
    vectorised: pandas explode + groupby for lines, ``kgram_positions``
    for bigrams.  Embarrassingly parallel — no shuffle at any scale."""
    b = batch.reset_index(drop=True)
    texts = b["text"]
    lines = texts.str.split("\n").explode()
    g = lines.groupby(level=0)
    n_lines = g.size().reindex(b.index, fill_value=0)
    n_distinct = g.nunique().reindex(b.index, fill_value=0)
    pos, grams = kgram_positions(texts, 2)
    if len(pos):
        bg = pd.DataFrame({"d": pos, "g": grams})
        counts = bg.groupby(["d", "g"], sort=False).size()
        top = counts.groupby(level=0).max().reindex(b.index, fill_value=0)
        n_big = bg.groupby("d").size().reindex(b.index, fill_value=0)
    else:
        top = pd.Series(0, index=b.index)
        n_big = pd.Series(0, index=b.index)
    return pd.DataFrame(
        {
            "doc_id": b["doc_id"],
            "n_lines": n_lines.astype("int64"),
            "n_distinct_lines": n_distinct.astype("int64"),
            "n_bigrams": n_big.astype("int64"),
            "top_bigram_count": top.astype("int64"),
        }
    )


def lang_id(batch: pd.DataFrame) -> pd.DataFrame:
    """Stopword-profile language/flavor guess (heuristic, rows-only check)."""
    preds = []
    for s in batch["text"]:
        toks = [t.lower() for t in _LANG_TOKEN_RE.findall(s)[:200]]
        if not toks:
            preds.append("unknown")
            continue
        scores = {
            lang: sum(t in prof for t in toks) for lang, prof in _LANG_PROFILES.items()
        }
        best = max(sorted(scores), key=lambda k: scores[k])
        preds.append(best if scores[best] > 0 else "unknown")
    return pd.DataFrame({"doc_id": batch["doc_id"], "lang_pred": preds})


def postings_batch(batch: pd.DataFrame) -> pd.DataFrame:
    """Per-batch inverted-index postings: (tok, doc_id, first_pos) with
    1-based token ordinals.  A document is a single row, so the
    per-batch ``groupby.min`` is already FINAL — the index build is a
    pure map-side op, no global reduce (the posting list for a token is
    the concatenation of these rows across batches; consumers that need
    them contiguous group on ``tok``, which is the only wide step).
    Reference analog: the per-row-group distinct value-set index build,
    /root/reference/skar/src/build_parquet_idx.rs:89-166."""
    toks = batch["text"].reset_index(drop=True).str.findall(_TOKEN_RE)
    ex = toks.explode().dropna()
    if not len(ex):
        return pd.DataFrame(
            {
                "tok": pd.Series([], dtype="object"),
                "doc_id": pd.Series([], dtype="int64"),
                "first_pos": pd.Series([], dtype="int64"),
            }
        )
    ords = ex.groupby(level=0).cumcount().to_numpy() + 1
    ids = batch["doc_id"].reset_index(drop=True)
    df = pd.DataFrame(
        {
            "tok": ex.to_numpy(dtype=object),
            "doc_id": ids.loc[ex.index].to_numpy(),
            "first_pos": ords,
        }
    )
    out = df.groupby(["tok", "doc_id"], as_index=False)["first_pos"].min()
    return out.astype({"doc_id": "int64", "first_pos": "int64"})


def length_quantile_stats(ds: "ray.data.Dataset") -> pd.DataFrame:
    """Per-language count / median / p90 of ``n_chars`` via MERGEABLE
    per-batch histograms — the scale-safe exact-quantile shape: each
    batch emits (lang, value, count) partials, the merged histogram is
    (n_langs × distinct lengths)-sized regardless of corpus size, and
    quantile_cont-style linear interpolation is evaluated on the exact
    counts (matches DuckDB ``median`` / ``quantile_cont`` semantics:
    h = (n-1)·q, v_lo + (h - ⌊h⌋)(v_hi - v_lo)).  Reference analog:
    the grouped per-folder column stats the write path computes,
    /root/reference/skar/src/build_parquet_idx.rs:50-84."""

    def partial(batch: pd.DataFrame) -> pd.DataFrame:
        g = batch.groupby(["lang", "n_chars"], as_index=False).size()
        return g.rename(columns={"size": "cnt"})

    parts = ds.map_batches(partial, batch_format="pandas").to_pandas()
    hist = parts.groupby(["lang", "n_chars"], as_index=False)["cnt"].sum()
    rows = []
    for lang, sub in hist.groupby("lang"):
        sub = sub.sort_values("n_chars")
        vals = sub["n_chars"].to_numpy(dtype=np.float64)
        cnt = sub["cnt"].to_numpy(dtype=np.int64)
        cum = np.cumsum(cnt)
        n = int(cum[-1])

        def q(frac: float) -> float:
            h = (n - 1) * frac
            lo = int(np.floor(h))
            v_lo = vals[np.searchsorted(cum, lo, side="right")]
            v_hi = vals[np.searchsorted(cum, min(lo + 1, n - 1), side="right")]
            return float(v_lo + (h - lo) * (v_hi - v_lo))

        rows.append((lang, n, q(0.5), q(0.9)))
    return pd.DataFrame(
        rows, columns=["lang", "n", "median_chars", "p90_chars"]
    ).sort_values("lang").reset_index(drop=True).astype({"n": "int64"})


def chunk_texts(batch: pd.DataFrame, size: int = 128, overlap: int = 32) -> pd.DataFrame:
    """Overlapping fixed-size character chunks — the context-window
    chunking step a training pipeline runs before tokenization.  One
    input row fans out to ceil(n_chars / stride) rows, so this is the
    flat-map shape: chunk starts are 0, stride, 2·stride, … while
    start < n_chars (an empty document yields no chunks).  Vectorized
    as one ``str.slice`` per offset (chunk count per doc is small and
    bounded), not a per-row loop.  Offsets are CHARACTER-based to match
    DuckDB ``substring``/``length`` semantics in the oracle.  Reference
    analog: the fixed-row-count chunk slicing of the write path,
    /root/reference/skar/src/write_parquet.rs:118-156."""
    if not 0 <= overlap < size:
        raise ValueError("need 0 <= overlap < size")
    stride = size - overlap
    texts = batch["text"].reset_index(drop=True)
    ids = batch["doc_id"].reset_index(drop=True).astype("int64")
    n = texts.str.len().to_numpy(dtype=np.int64)
    outs = []
    start, i = 0, 0
    while True:
        m = n > start
        if not m.any():
            break
        outs.append(
            pd.DataFrame(
                {
                    "doc_id": ids[m],
                    "chunk_id": np.int64(i),
                    "chunk_text": texts[m].str.slice(start, start + size),
                }
            )
        )
        start += stride
        i += 1
    if not outs:
        return pd.DataFrame(
            {
                "doc_id": pd.Series([], dtype="int64"),
                "chunk_id": pd.Series([], dtype="int64"),
                "chunk_text": pd.Series([], dtype="object"),
                "n_chunk_chars": pd.Series([], dtype="int64"),
            }
        )
    out = pd.concat(outs, ignore_index=True)
    out["n_chunk_chars"] = out["chunk_text"].str.len().astype("int64")
    return out


def heavy_hitters(
    ds: "ray.data.Dataset",
    frac_num: int = 1,
    frac_den: int = 100,
    k: int | None = None,
) -> pd.DataFrame:
    """EXACT counts of every token with global count ≥
    ceil(total·frac_num/frac_den), without ever shuffling the full
    vocabulary: per-batch Misra-Gries summaries (k counters — an exact
    batch count pruned by subtracting the (k+1)-th largest, the optimal
    MG summary of the batch, error ≤ n_b/(k+1)) are merged driver-side
    (k+1 metadata rows per batch), candidates = summed estimates within
    the accumulated decrement bound of the threshold, then ONE exact
    recount pass restricted to the broadcast candidate set.  Mergeable-
    summary guarantee (Agarwal et al., Mergeable Summaries, PODS'12):
    with k+1 > frac_den/frac_num the total decrement E < T, so no true
    heavy hitter can be missing from every partial.  Threshold
    arithmetic is integer-exact on both sides of the oracle:
    T = (total·frac_num + frac_den − 1) // frac_den.
    Reference analog: the distinct-value-set index build that feeds
    query pruning, /root/reference/skar/src/build_parquet_idx.rs:89-166."""
    import ray

    from .groups import cached_get

    if k is None:
        k = max(64, 2 * ((frac_den + frac_num - 1) // frac_num))
    if k + 1 <= frac_den // frac_num:
        raise ValueError(f"k={k} too small for threshold {frac_num}/{frac_den}")

    def partial(batch: pd.DataFrame) -> pd.DataFrame:
        ex = batch["text"].str.findall(_TOKEN_RE).explode().dropna()
        vc = ex.value_counts()  # exact batch counts, descending
        n_b = int(vc.sum())
        dec = 0
        if len(vc) > k:
            dec = int(vc.iloc[k])
            vc = vc.iloc[:k] - dec
            vc = vc[vc > 0]
        # sentinel row ("" can never be a \S+ token) carries the batch
        # token total and the decrement, so the driver can bound the
        # global underestimate by E = Σ dec_b
        return pd.DataFrame(
            {
                "token": np.append(vc.index.to_numpy(dtype=object), ""),
                "est": np.append(vc.to_numpy(dtype=np.int64), n_b),
                "dec": np.append(np.zeros(len(vc), dtype=np.int64), dec),
            }
        )

    parts = ds.map_batches(partial, batch_format="pandas").to_pandas()
    sent = parts["token"] == ""
    total = int(parts.loc[sent, "est"].sum())
    err = int(parts.loc[sent, "dec"].sum())
    threshold = (total * frac_num + frac_den - 1) // frac_den
    if total and err >= threshold:
        raise ValueError(
            f"decrement bound {err} >= threshold {threshold}: k={k} too small"
        )
    est = parts.loc[~sent].groupby("token")["est"].sum()
    cand = est[est >= threshold - err]
    cand_ref = ray.put(set(cand.index))

    def recount(batch: pd.DataFrame) -> pd.DataFrame:
        ex = batch["text"].str.findall(_TOKEN_RE).explode().dropna()
        vc = ex[ex.isin(cached_get(cand_ref))].value_counts()
        return pd.DataFrame(
            {"token": vc.index.to_numpy(dtype=object), "n": vc.to_numpy(np.int64)}
        )

    exact = (
        ds.map_batches(recount, batch_format="pandas")
        .to_pandas()
        .groupby("token", as_index=False)["n"]
        .sum()
    )
    out = exact[exact["n"] >= threshold].astype({"n": "int64"})
    return out.sort_values(["n", "token"], ascending=[False, True]).reset_index(drop=True)


def _distinct_doc_lines(texts: pd.Series) -> pd.DataFrame:
    """(row, line) with one row per DISTINCT line per document — each
    input row is one whole document, so per-row dedup here makes every
    downstream count an exact DISTINCT-DOCUMENT count."""
    ex = texts.reset_index(drop=True).str.split("\n").explode()
    return pd.DataFrame(
        {"row": ex.index.to_numpy(np.int64), "line": ex.to_numpy(object)}
    ).drop_duplicates(ignore_index=True)


def _in_sorted(cand: np.ndarray, h: np.ndarray) -> np.ndarray:
    """Membership mask of ``h`` in the SORTED array ``cand`` — the
    broadcast-candidate probe shared by every two-pass exact recount
    (clamping the out-of-range position to 0 is safe: that slot
    compares unequal unless it IS the value).  An empty ``cand``
    matches nothing."""
    if len(cand) == 0:
        return np.zeros(len(h), dtype=bool)
    pos = np.searchsorted(cand, h)
    pos[pos == len(cand)] = 0
    return cand[pos] == h


def _line_hashes(lines: np.ndarray) -> np.ndarray:
    # deterministic across processes (siphash with pandas' fixed
    # default key) — and correctness never depends on it: pass 2
    # recounts candidates by EXACT line text, so a collision can only
    # add a stray candidate, never a wrong final count
    return pd.util.hash_array(lines).view(np.int64)


def _frequent_items(
    ds: "ray.data.Dataset", extract, min_docs: int
) -> pd.DataFrame:
    """EXACT set of items appearing in >= ``min_docs`` distinct
    documents, without the item vocabulary ever shipping anywhere —
    the shared skeleton under ``boilerplate_lines`` (items = lines)
    and ``dup_span_stats`` (items = k-token grams).

    ``extract(batch) -> DataFrame['row', 'item']`` with one row per
    DISTINCT item per document, so every count below is an exact
    distinct-document count.

    1. count by 64-bit item HASH: per-batch partials (hash, count)
       through the native distributed groupby-sum (a vectorized
       sort-exchange; 16 bytes per distinct item per batch).
       Candidates = hashes with count >= min_docs, bounded by
       total_items / min_docs (each candidate needs min_docs holders);
    2. recount ONLY candidate items by exact text (same exchange, text
       confined to the bounded candidate set) — hash collisions from
       pass 1 can only add strays, dropped here, so the result is
       exact.

    Returns (item, n_docs) sorted by (-n_docs, item).
    Reference analog: the distinct-set index build feeding query
    pruning, /root/reference/skar/src/build_parquet_idx.rs:89-166.
    """
    import ray

    if min_docs < 2:
        raise ValueError("min_docs must be >= 2 (every item is in >= 1 doc)")

    _EMPTY = pd.DataFrame(
        {"item": pd.Series([], dtype="object"), "n_docs": pd.Series([], dtype="int64")}
    )

    def count_partial(batch: pd.DataFrame) -> pd.DataFrame:
        d = extract(batch)
        vc = pd.Series(_line_hashes(d["item"].to_numpy(object))).value_counts(sort=False)
        return pd.DataFrame(
            {"h": vc.index.to_numpy(np.int64), "c": vc.to_numpy(np.int64)}
        )

    # bucketed vectorised sum exchange (groups.bucketed_sum): the
    # Dataset-native groupby-sum pays per-distinct-group Python overhead
    # in its sort aggregate — measured 52 s over 230k distinct hashes vs
    # <2 s for one pandas groupby per coarse bucket, identical result
    from .groups import bucketed_sum, cached_get

    cand_df = (
        bucketed_sum(
            ds.map_batches(count_partial, batch_format="pandas"), ["h"], "c"
        )
        .map_batches(
            lambda b: b.loc[b["c"] >= min_docs, ["h"]], batch_format="pandas"
        )
        .to_pandas()
    )
    # an all-filtered Dataset can collect to a column-less frame
    cand = np.sort(cand_df["h"].to_numpy(np.int64)) if "h" in cand_df else np.array([], dtype=np.int64)
    if len(cand) == 0:
        return _EMPTY.copy()
    cand_ref = ray.put(cand)

    def candidate_count(batch: pd.DataFrame) -> pd.DataFrame:
        cand_ = cached_get(cand_ref)
        d = extract(batch)
        h = _line_hashes(d["item"].to_numpy(object))
        vc = d.loc[_in_sorted(cand_, h), "item"].value_counts(sort=False)
        return pd.DataFrame(
            {"item": vc.index.to_numpy(object), "c": vc.to_numpy(np.int64)}
        )

    exact = bucketed_sum(
        ds.map_batches(candidate_count, batch_format="pandas"),
        ["item"], "c",
    ).to_pandas()
    if "item" not in exact or not len(exact):  # all candidate partials empty
        return _EMPTY.copy()
    out = exact.loc[exact["c"] >= min_docs].rename(columns={"c": "n_docs"})
    return (
        out.sort_values(["n_docs", "item"], ascending=[False, True])
        .reset_index(drop=True)
        .astype({"n_docs": "int64"})
    )


def boilerplate_lines(
    ds: "ray.data.Dataset", min_docs: int = 10, text_col: str = "content"
) -> pd.DataFrame:
    """EXACT set of lines appearing in >= ``min_docs`` distinct
    documents — the repeated-line boilerplate detector (license
    headers, generated imports) of C4/RefinedWeb-style corpus cleaning.
    Scale shape: see ``_frequent_items`` (the line vocabulary never
    ships anywhere).  Returns (line, n_docs) sorted by (-n_docs, line).
    """

    def extract(batch: pd.DataFrame) -> pd.DataFrame:
        return _distinct_doc_lines(batch[text_col]).rename(columns={"line": "item"})

    out = _frequent_items(ds, extract, min_docs)
    return out.rename(columns={"item": "line"})


def remove_boilerplate_lines(
    ds: "ray.data.Dataset", min_docs: int = 10, text_col: str = "content"
) -> "ray.data.Dataset":
    """Rewrite every document with its boilerplate lines removed (lines
    in >= ``min_docs`` distinct docs, exact via ``boilerplate_lines``)
    — the repeated-line corpus cleaner.  Streaming output: the input
    columns with ``text_col`` replaced by ``clean_<text_col>`` plus
    ``n_lines`` / ``n_kept``; the only driver-held state is the
    bounded frequent-line set, broadcast once (``ray.put``)."""
    import ray

    from .groups import cached_get

    freq = boilerplate_lines(ds, min_docs=min_docs, text_col=text_col)
    freq_ref = ray.put(frozenset(freq["line"]))

    def clean(batch: pd.DataFrame) -> pd.DataFrame:
        freq_ = cached_get(freq_ref)  # broadcast: fetched once per worker process
        b = batch.reset_index(drop=True)
        splits = b[text_col].str.split("\n")
        ex = splits.explode()
        keep = ~ex.isin(freq_)
        joined = ex[keep].groupby(level=0).agg("\n".join)
        out = b.drop(columns=[text_col])
        out[f"clean_{text_col}"] = joined.reindex(b.index, fill_value="")
        out["n_lines"] = splits.str.len().to_numpy(np.int64)
        out["n_kept"] = (
            keep.groupby(level=0).sum().reindex(b.index, fill_value=0).to_numpy(np.int64)
        )
        return out

    return ds.map_batches(clean, batch_format="pandas")


def dup_span_stats(
    ds: "ray.data.Dataset", k: int = 4, min_docs: int = 2,
    text_col: str = "text", id_col: str = "doc_id",
) -> pd.DataFrame:
    """ExactSubstr-style duplicated-span statistics (Lee et al. 2021,
    "Deduplicating Training Data Makes Language Models Better" — the
    published suffix-array substring dedup, re-expressed over k-token
    grams): a gram is DUPLICATED if it appears in >= ``min_docs``
    DISTINCT documents; per document report ``n_grams``,
    ``n_dup_grams`` (positions whose gram is duplicated) and
    ``max_dup_run`` (longest consecutive run of duplicated positions —
    the span a substring-dedup pass would cut).

    Exact at any scale: the duplicated-gram set comes from
    ``_frequent_items``' two-pass skeleton (hash-count exchange,
    bounded candidate recount — the gram vocabulary never ships), then
    ONE broadcast pass computes all three stats vectorized (bincount +
    boundary-flag run detection; gram positions are consecutive within
    a document by construction, so runs break only on a non-duplicated
    gram or a row change)."""
    import ray

    from .groups import cached_get

    def extract(batch: pd.DataFrame) -> pd.DataFrame:
        rows, grams = kgram_positions(batch[text_col], k)
        return pd.DataFrame({"row": rows, "item": grams}).drop_duplicates()

    dup = _frequent_items(ds, extract, min_docs)
    dup_ref = ray.put(frozenset(dup["item"]))

    def span_stats(batch: pd.DataFrame) -> pd.DataFrame:
        b = batch.reset_index(drop=True)
        rows, grams = kgram_positions(b[text_col], k)
        n = len(b)
        zeros = np.zeros(n, dtype=np.int64)
        n_grams = np.bincount(rows, minlength=n).astype(np.int64) if len(rows) else zeros
        max_run = zeros.copy()
        n_dup = zeros.copy()
        if len(grams):
            m = pd.Series(grams).isin(cached_get(dup_ref)).to_numpy()
            if m.any():
                n_dup = np.bincount(rows[m], minlength=n).astype(np.int64)
                brk_prev = np.r_[True, (~m[:-1]) | (rows[1:] != rows[:-1])]
                brk_next = np.r_[(~m[1:]) | (rows[1:] != rows[:-1]), True]
                starts = np.flatnonzero(m & brk_prev)
                ends = np.flatnonzero(m & brk_next)
                runs = (
                    pd.DataFrame({"row": rows[starts], "L": ends - starts + 1})
                    .groupby("row")["L"].max()
                )
                max_run[runs.index.to_numpy()] = runs.to_numpy()
        return pd.DataFrame(
            {
                id_col: b[id_col].to_numpy(),
                "n_grams": n_grams,
                "n_dup_grams": n_dup,
                "max_dup_run": max_run,
            }
        )

    out = ds.map_batches(span_stats, batch_format="pandas").to_pandas()
    return out.sort_values(id_col).reset_index(drop=True)


# PII scrubbing — the privacy-cleaning pass every web-scale training
# corpus runs before tokenization (emails and IPv4 literals are the
# two patterns with exact, engine-portable semantics).  Patterns are
# restricted to constructs Python re and DuckDB's RE2 evaluate
# identically (explicit classes, no lookaround, ASCII \b), so the SQL
# oracle can re-derive the scrub byte-for-byte — the same
# single-source-of-truth discipline as _BPE_PATTERN above.
_EMAIL_PATTERN = r"[A-Za-z0-9._%+-]+@[A-Za-z0-9.-]+\.[A-Za-z][A-Za-z]+"
_IPV4_PATTERN = r"\b[0-9]{1,3}\.[0-9]{1,3}\.[0-9]{1,3}\.[0-9]{1,3}\b"
_EMAIL_RE = re.compile(_EMAIL_PATTERN)
# re.ASCII: RE2's \b is an ASCII word boundary; Python's default is
# Unicode-aware, which would disagree next to non-ASCII word chars
_IPV4_RE = re.compile(_IPV4_PATTERN, re.ASCII)


def pii_scrub(batch: pd.DataFrame) -> pd.DataFrame:
    """doc_id, n_emails, n_ips, clean_md5 — redact email addresses then
    IPv4 literals from ``text``.  Order matters: an IP-looking quad
    inside an email's domain (``u@x1.2.3.4u.org``) is consumed by the
    email redaction and never double-counted; counting each pattern on
    the string it is replaced IN makes the two-engine comparison exact.
    Vectorised: one compiled-regex ``str.count`` + ``str.replace`` per
    pattern, no Python row loop."""
    t = batch["text"].fillna("")  # null text scrubs as ''
    n_emails = t.str.count(_EMAIL_RE).astype("int64")
    t1 = t.str.replace(_EMAIL_RE, "<EMAIL>", regex=True)
    n_ips = t1.str.count(_IPV4_RE).astype("int64")
    t2 = t1.str.replace(_IPV4_RE, "<IP>", regex=True)
    return pd.DataFrame(
        {
            "doc_id": batch["doc_id"].to_numpy(),
            "n_emails": n_emails.to_numpy(),
            "n_ips": n_ips.to_numpy(),
            "clean_md5": t2.map(lambda s: hashlib.md5(s.encode()).hexdigest()),
        }
    )


# URL / domain extraction — provenance statistics (which hosts feed the
# corpus) used for source-mix curation and domain-level filtering.
_URL_PATTERN = r"https?://[^ \t\n\r]+"
_DOMAIN_PATTERN = r"https?://([^/]+)"
_URL_RE = re.compile(_URL_PATTERN)
_DOMAIN_RE = re.compile(_DOMAIN_PATTERN)


def url_domain_stats(ds: "ray.data.Dataset", text_col: str = "text",
                     id_col: str = "doc_id") -> pd.DataFrame:
    """(domain, n, n_docs): URL mentions and distinct mentioning
    documents per domain.  Per-batch partials (each document lives in
    exactly one batch row, so a per-batch ``nunique`` sums to the exact
    global distinct-doc count — the same disjointness argument as
    label_confusion's partial counts); the partials are summed through
    ``groups.bucketed_sum``, so the exchange carries only
    domain-cardinality rows and the driver collects only the final
    per-domain table.  Returns sorted by domain."""
    from .groups import bucketed_sum

    empty = pd.DataFrame(
        {"domain": pd.Series([], dtype="object"),
         "n": pd.Series([], dtype="int64"),
         "n_docs": pd.Series([], dtype="int64")}
    )

    def partial(batch: pd.DataFrame) -> pd.DataFrame:
        b = batch.reset_index(drop=True)
        urls = b[text_col].str.findall(_URL_RE)
        ex = urls.explode().dropna()
        if not len(ex):
            return empty
        # fillna(""): a URL with no extractable domain (https:///x)
        # groups under '' like DuckDB regexp_extract, instead of being
        # silently dropped by groupby's default dropna
        dom = ex.str.extract(_DOMAIN_RE, expand=False).fillna("")
        ids = b[id_col].reindex(ex.index.to_numpy())
        g = pd.DataFrame({"domain": dom.to_numpy(object), "doc": ids.to_numpy()})
        out = g.groupby("domain", as_index=False).agg(
            n=("doc", "size"), n_docs=("doc", "nunique")
        )
        return out.astype({"n": "int64", "n_docs": "int64"})

    out = bucketed_sum(
        ds.map_batches(partial, batch_format="pandas"), ["domain"], ["n", "n_docs"]
    ).to_pandas()
    if not len(out):
        return empty.copy()
    return (
        out.sort_values("domain").reset_index(drop=True)
        .astype({"n": "int64", "n_docs": "int64"})
    )


def dedup_paragraphs(
    ds: "ray.data.Dataset", text_col: str = "text", id_col: str = "doc_id",
    max_dup: int = 5_000_000,
) -> "ray.data.Dataset":
    """Global first-occurrence paragraph dedup — the C4/RefinedWeb
    cleaning step that removes every repeated paragraph except its
    globally FIRST occurrence (ordered by (id, position); within-doc
    repeats drop too).  Exact at any scale, three passes:

      1. occurrence-count exchange over paragraph HASHES (16 B per
         batch-distinct paragraph) → candidates with count ≥ 2;
      2. candidate occurrences re-keyed by EXACT text through a
         bucketed MIN exchange (a hash collision only adds a stray
         candidate whose own first occurrence keeps — never a wrong
         removal) → {paragraph: first_key}, broadcast once via
         ``ray.put`` — bounded by the DISTINCT duplicated paragraphs,
         the same driver-size class as the dedup keep-lists;
      3. one streaming rewrite pass drops occurrences whose
         (id, position) key is not the first.

    Output: input columns minus ``text_col`` plus ``clean_<text_col>``
    / ``n_paras`` / ``n_kept``.  Keys pack as id·2^20 + pos (loud
    guards), matching the SQL oracle's arithmetic.  ``max_dup`` bounds
    the broadcast first-key map, which is built in driver memory: past
    that many DISTINCT duplicated paragraphs the job raises loudly
    instead of building a corpus-sized map; the remedy is a larger
    ``max_dup`` when the driver can hold that many paragraphs.
    Reference analog: the dedup/compaction passes the reference runs
    before flushing folders (skar_runner.rs:233-308 ordering work).
    """
    import ray

    from .groups import bucketed_sum, cached_get

    _POS_LIMIT = 1 << 20

    def paragraphs(b: pd.DataFrame) -> pd.DataFrame:
        # null text counts as empty (real web corpora carry NULL rows;
        # a NaN paragraph would crash the rewrite join) — same one-
        # empty-paragraph result both engines give for ''
        ex = (
            b[text_col].reset_index(drop=True).fillna("")
            .str.split("\n\n", regex=False).explode()
        )
        pos = ex.groupby(level=0).cumcount().to_numpy(np.int64)
        if len(pos) and pos.max() >= _POS_LIMIT:
            raise ValueError(f"document has >= 2^20 paragraphs; key packing unsound")
        ids = b[id_col].reset_index(drop=True).reindex(ex.index).to_numpy(np.int64)
        if len(ids) and (ids.min() < 0 or ids.max() >= (1 << 42)):
            raise ValueError(f"{id_col} must be in [0, 2^42) to pack with position")
        return pd.DataFrame({
            "key": ids * _POS_LIMIT + pos,
            "para": ex.to_numpy(object),
        })

    def count_partial(b: pd.DataFrame) -> pd.DataFrame:
        p = paragraphs(b)
        vc = pd.Series(_line_hashes(p["para"].to_numpy(object))).value_counts(sort=False)
        return pd.DataFrame({"h": vc.index.to_numpy(np.int64), "c": vc.to_numpy(np.int64)})

    cand_df = (
        bucketed_sum(ds.map_batches(count_partial, batch_format="pandas"), ["h"], "c")
        .map_batches(lambda b: b.loc[b["c"] >= 2, ["h"]], batch_format="pandas")
        .to_pandas()
    )
    cand = np.sort(cand_df["h"].to_numpy(np.int64)) if "h" in cand_df else np.array([], dtype=np.int64)
    if len(cand) > max_dup:
        raise ValueError(
            f"{len(cand)} distinct duplicated paragraphs exceeds max_dup="
            f"{max_dup}; the broadcast first-key map is built in driver "
            "memory — raise max_dup if the driver can hold it"
        )

    dup_map: dict = {}
    if len(cand):
        cand_ref = ray.put(cand)

        def min_partial(b: pd.DataFrame) -> pd.DataFrame:
            cand_ = cached_get(cand_ref)
            p = paragraphs(b)
            h = _line_hashes(p["para"].to_numpy(object))
            p = p.loc[_in_sorted(cand_, h)]
            if not len(p):
                return pd.DataFrame({"para": pd.Series([], dtype="object"),
                                     "key": pd.Series([], dtype="int64")})
            return p.groupby("para", as_index=False)["key"].min()

        firsts = bucketed_sum(
            ds.map_batches(min_partial, batch_format="pandas"),
            ["para"], "key", how="min",
        ).to_pandas()
        if "para" in firsts and len(firsts):
            dup_map = dict(zip(firsts["para"], firsts["key"].astype(np.int64)))

    map_ref = ray.put(dup_map)

    def rewrite(b: pd.DataFrame) -> pd.DataFrame:
        dup = cached_get(map_ref)
        bb = b.reset_index(drop=True)
        splits = bb[text_col].fillna("").str.split("\n\n", regex=False)
        ex = splits.explode()
        pos = ex.groupby(level=0).cumcount().to_numpy(np.int64)
        ids = bb[id_col].reindex(ex.index).to_numpy(np.int64)
        key = ids * _POS_LIMIT + pos
        mk = ex.map(dup)
        # compare in INTEGER space: mk is an object series (dict ints +
        # NaN) and a .to_numpy()/float64 path would round keys above
        # 2^53, silently keeping duplicates for doc_id >= 2^33 — inside
        # the [0, 2^42) range the guard above allows.  fillna(-1) is
        # exact (object ints never pass through float) and -1 never
        # equals a real key (keys are >= 0).
        keep = mk.isna().to_numpy() | (
            mk.fillna(-1).astype("int64").to_numpy() == key
        )
        joined = ex[keep].groupby(level=0).agg("\n\n".join)
        out = bb.drop(columns=[text_col])
        out[f"clean_{text_col}"] = joined.reindex(bb.index, fill_value="")
        out["n_paras"] = splits.str.len().to_numpy(np.int64)
        out["n_kept"] = (
            pd.Series(keep).groupby(ex.index.to_numpy()).sum()
            .reindex(bb.index, fill_value=0).to_numpy(np.int64)
        )
        return out

    return ds.map_batches(rewrite, batch_format="pandas")


def nfc_normalize(batch: pd.DataFrame) -> pd.DataFrame:
    """doc_id, nfc_md5, nfc_len, changed — Unicode NFC normalization,
    the canonical-composition cleanup (decomposed e+COMBINING ACUTE,
    compatibility singletons like ANGSTROM SIGN) run before hashing /
    dedup so byte-different spellings of the same text unify.  Python
    ``unicodedata`` and DuckDB ``nfc_normalize`` both implement Unicode
    canonical composition, so the oracle recomputes the md5 exactly."""
    t = batch["text"].fillna("")  # null text normalizes as ''
    nfc = t.map(lambda s: unicodedata.normalize("NFC", s))
    return pd.DataFrame(
        {
            "doc_id": batch["doc_id"].to_numpy(),
            "nfc_md5": nfc.map(lambda s: hashlib.md5(s.encode()).hexdigest()),
            "nfc_len": nfc.str.len().astype("int64"),
            "changed": (nfc != t).astype("int64"),
        }
    )
