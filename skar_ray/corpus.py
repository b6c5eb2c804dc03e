"""Deterministic synthetic source-code corpus.

The engine's input table has exactly the BASELINE.json ``input_hint``
shape: ``(repo: string, path: string, commit: string, lang: string,
content: large_string)``.  This module synthesises it with a fixed seed
(the reference's golden-fixture strategy — skar feeds captured mainnet
block JSON through its full write path, /root/reference/skar/src/tests.rs:24-85;
we feed a seeded corpus through ours).

Design goals (FIXTURES.md F1):
- zipf-distributed repo sizes with one giant repo (~30% of rows) so the
  salted partitioner has real skew to handle;
- ``commit`` repeated across consecutive rows of a repo (dict/RLE target);
- ``lang`` very low cardinality, correlated with path extension;
- ``path`` with shared directory prefixes (FSST target);
- ``content`` code-like text: token-pool slices with per-row unique
  header, log-normal lengths, a heavy tail, plus edge rows (empty,
  1-char, high-unicode).

Generation is vectorised: per-language "template" buffers (~1 MiB of
synthetic code, built once) are sliced at seeded offsets, so producing
hundreds of MB is cheap and exactly reproducible.

The corpus doubles as the size/correctness oracle: ``reference_parquet``
writes the same table via ``pyarrow.parquet.write_table(compression="zstd")``
(the analog of skar's Plain-encoding + Zstd(9) pages,
/root/reference/skar/src/write_parquet.rs:232-244) and its byte size is
the footprint our encoded output must not exceed.
"""

from __future__ import annotations

import os
import hashlib
from dataclasses import dataclass

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq

SEED = 42

LANGS = [
    ("python", "py"),
    ("rust", "rs"),
    ("go", "go"),
    ("javascript", "js"),
    ("typescript", "ts"),
    ("java", "java"),
    ("c", "c"),
    ("cpp", "cc"),
    ("ruby", "rb"),
    ("shell", "sh"),
    ("markdown", "md"),
    ("yaml", "yaml"),
]

_KEYWORDS = {
    "python": ["def", "return", "import", "class", "self", "None", "for", "in", "if", "else", "raise", "with", "yield", "lambda", "True", "False"],
    "rust": ["fn", "let", "mut", "impl", "pub", "struct", "enum", "match", "Some", "None", "Result", "use", "mod", "trait", "async", "await"],
    "go": ["func", "return", "package", "import", "var", "type", "struct", "interface", "range", "defer", "go", "chan", "nil", "err", "if", "for"],
    "javascript": ["function", "const", "let", "var", "return", "import", "export", "class", "this", "async", "await", "null", "undefined", "=>", "new", "typeof"],
}
_DEFAULT_KEYWORDS = ["begin", "end", "value", "node", "index", "table", "block", "state", "write", "read", "cache", "batch", "chunk", "codec", "hash", "size"]

_IDENT_PARTS = [
    "data", "block", "chunk", "codec", "index", "write", "read", "state",
    "batch", "table", "value", "entry", "buffer", "offset", "column", "row",
    "parse", "build", "encode", "decode", "hash", "manifest", "partition",
    "stream", "worker", "config", "handler", "result", "query", "filter",
]

_DIRS = ["src", "lib", "core", "internal", "pkg", "tests", "util", "io", "net", "db", "query", "codec", "server", "client", "tools", "docs"]


def _make_template(lang: str, rng: np.random.Generator, size: int = 1 << 20) -> bytes:
    """Build ~size bytes of synthetic code text for one language."""
    kws = _KEYWORDS.get(lang, _DEFAULT_KEYWORDS)
    idents = [
        "_".join(rng.choice(_IDENT_PARTS, size=int(k)))
        for k in rng.integers(1, 4, size=200)
    ]
    pool = np.array(kws * 4 + idents + ["=", "+", "(", ")", "{", "}", "[", "]", ",", ".", "==", "->", "0", "1", "42", '"str"'], dtype=object)
    lines = []
    total = 0
    while total < size:
        n_tok = int(rng.integers(2, 12))
        indent = "    " * int(rng.integers(0, 4))
        line = indent + " ".join(rng.choice(pool, size=n_tok).tolist()) + "\n"
        lines.append(line)
        total += len(line)
    return "".join(lines).encode("utf-8")


@dataclass
class CorpusSpec:
    n_rows: int
    seed: int = SEED
    n_repos: int = 0           # 0 → derived from n_rows
    giant_share: float = 0.30  # fraction of rows in the single giant repo


def _repo_assignment(spec: CorpusSpec, rng: np.random.Generator) -> tuple[np.ndarray, list[str]]:
    n = spec.n_rows
    n_repos = spec.n_repos or max(3, int(np.sqrt(n) / 3))
    names = [f"org{i % 97}/repo{i}" for i in range(n_repos)]
    # zipf-ish weights for repos 1..; repo 0 takes giant_share outright
    w = 1.0 / np.arange(1, n_repos, dtype=np.float64)
    w = w / w.sum() * (1.0 - spec.giant_share)
    probs = np.concatenate([[spec.giant_share], w])
    repo_idx = rng.choice(n_repos, size=n, p=probs)
    repo_idx.sort()  # consecutive rows share repo → realistic RLE/dict locality
    return repo_idx, names


def build_corpus(spec: CorpusSpec) -> pa.Table:
    rng = np.random.default_rng(spec.seed)
    n = spec.n_rows
    repo_idx, repo_names = _repo_assignment(spec, rng)
    n_repos = len(repo_names)

    # language per row: each repo has a dominant language plus strays
    repo_lang = rng.integers(0, len(LANGS), size=n_repos)
    lang_idx = repo_lang[repo_idx].copy()
    stray = rng.random(n) < 0.08
    lang_idx[stray] = rng.integers(0, len(LANGS), size=int(stray.sum()))

    # commits: per repo a small pool, repeated over consecutive rows
    commits_per_repo = 8
    commit_pool = [
        hashlib.sha1(f"commit-{spec.seed}-{i}".encode()).hexdigest()
        for i in range(n_repos * commits_per_repo)
    ]
    # block-wise commit assignment: runs of ~32 rows share a commit
    run_id = np.arange(n) // 32
    n_runs = int(run_id[-1]) + 1 if n else 0
    run_commit = rng.integers(0, commits_per_repo, size=max(1, n_runs))
    commit_idx = repo_idx * commits_per_repo + run_commit[run_id]

    # paths: shared directory prefixes, extension from lang
    d1 = rng.integers(0, len(_DIRS), size=n)
    d2 = rng.integers(0, len(_DIRS), size=n)
    fid = rng.integers(0, 5000, size=n)
    exts = np.array([e for (_, e) in LANGS], dtype=object)

    # content: slices of per-lang templates + unique header
    templates = [_make_template(lang, np.random.default_rng(spec.seed * 1000 + li)) for li, (lang, _) in enumerate(LANGS)]
    tlen = np.array([len(t) for t in templates])
    # log-normal lengths, median ~2KB
    lens = np.exp(rng.normal(np.log(2048.0), 0.9, size=n)).astype(np.int64)
    lens = np.clip(lens, 16, 64 * 1024)
    # heavy tail: ~0.05% multi-MB blobs
    n_tail = max(0, n // 2000)
    if n_tail:
        tail_rows = rng.choice(n, size=n_tail, replace=False)
        lens[tail_rows] = rng.integers(1 << 20, 3 << 20, size=n_tail)
    offs = rng.integers(0, 1 << 30, size=n)

    repo_col = np.array(repo_names, dtype=object)[repo_idx]
    lang_col = np.array([l for (l, _) in LANGS], dtype=object)[lang_idx]
    commit_col = np.array(commit_pool, dtype=object)[commit_idx]
    path_col = np.array(
        [
            f"{_DIRS[a]}/{_DIRS[b]}/file{c}.{exts[li]}"
            for a, b, c, li in zip(d1, d2, fid, lang_idx)
        ],
        dtype=object,
    )

    contents: list[str] = []
    for i in range(n):
        li = lang_idx[i]
        t = templates[li]
        L = int(lens[i])
        start = int(offs[i]) % max(1, (len(t) - L)) if L < len(t) else 0
        if L >= len(t):
            body = (t * (L // len(t) + 1))[:L]
        else:
            body = t[start : start + L]
        header = f"// {repo_col[i]} {path_col[i]} @{commit_col[i][:12]} #{i}\n"
        contents.append(header + body.decode("utf-8", errors="ignore"))

    # edge rows (FIXTURES F1): empty, 1-char, high-unicode
    if n >= 10:
        contents[1] = ""
        contents[2] = "x"
        contents[3] = "λ→Ω 漢字 emoji🎯 " + contents[3][:64]

    return pa.table(
        {
            "repo": pa.array(repo_col, type=pa.string()),
            "path": pa.array(path_col, type=pa.string()),
            "commit": pa.array(commit_col, type=pa.string()),
            "lang": pa.array(lang_col, type=pa.string()),
            "content": pa.array(contents, type=pa.large_string()),
        }
    )


def corpus_cache_dir(n_rows: int, seed: int = SEED, root: str = "/tmp/skar_ray_corpus") -> str:
    return os.path.join(root, f"n{n_rows}-s{seed}-v2")


def ensure_corpus(n_rows: int, seed: int = SEED, root: str = "/tmp/skar_ray_corpus") -> str:
    """Build (once) and cache the corpus + its zstd-Parquet reference oracle.

    Returns the directory containing ``corpus.parquet`` (the input — a
    DIRECTORY of part files so a distributed read parallelises; a single
    giant file serialises `read_parquet` into one task) and
    ``reference_zstd.parquet`` (the size/sha256 oracle, one file).
    """
    d = corpus_cache_dir(n_rows, seed, root)
    done = os.path.join(d, "_DONE")
    if os.path.exists(done):
        return d
    os.makedirs(d, exist_ok=True)
    t = build_corpus(CorpusSpec(n_rows=n_rows, seed=seed))
    part_dir = os.path.join(d, "corpus.parquet")
    os.makedirs(part_dir, exist_ok=True)
    total_bytes = sum(c.nbytes for c in t.column("content").chunks) or 1
    n_parts = max(8, min(64, total_bytes // (64 << 20) or 1))
    per = (t.num_rows + n_parts - 1) // n_parts
    for i in range(n_parts):
        sl = t.slice(i * per, per)
        if sl.num_rows == 0:
            break
        pq.write_table(sl, os.path.join(part_dir, f"part-{i:04d}.parquet"), compression="zstd")
    # The reference footprint: same table, plain pyarrow zstd parquet
    # (mirrors skar's Plain + Zstd page compression baseline).
    pq.write_table(t, os.path.join(d, "reference_zstd.parquet"), compression="zstd")
    with open(done, "w") as f:
        f.write("ok")
    return d


def read_corpus_table(path: str) -> pa.Table:
    """Read the (possibly multi-file) corpus back as one pyarrow Table."""
    import pyarrow.dataset as pads

    return pads.dataset(path).to_table()


def rows_for_sf(sf: float, cap: int | None = None) -> int:
    """Scale-factor → corpus rows (sf0.001→5k, sf0.01→50k, sf0.1→500k)."""
    n = max(2000, int(5_000_000 * sf))
    return min(n, cap) if cap else n


def sf_from_dir(sf_dir: str) -> float:
    base = os.path.basename(os.path.normpath(sf_dir))
    if base.startswith("sf"):
        try:
            return float(base[2:])
        except ValueError:
            pass
    return 0.01
