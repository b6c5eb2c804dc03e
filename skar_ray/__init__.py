"""skar_ray — a Ray-Data-native per-column lightweight-compression engine.

A brand-new engine (NOT a port) with the columnarize-and-compact
capabilities of the reference (omahs/skar, a Rust Ethereum indexer that
sorts, compacts and compresses Arrow chunks into Parquet folders with
min/max + bloom indexes and a resume manifest — see
/root/reference/skar/src/skar_runner.rs:285-370 for the flush path this
engine mirrors).

Our domain is Parquet tables of source-code repositories
``(repo, path, commit, lang, content)``.  The engine streams Arrow
record batches through a sort-free hash exchange of Ray tasks (or
``ray.data.Dataset.map_batches`` per block), encodes every column with
a lightweight codec (dictionary, RLE, frame-of-reference +
bit-packing, FSST) chosen per column by a sampling auto-selector,
writes one container file + lineage-manifest row per partition (atomic
temp+rename, resumable), and proves round-trips bit-identical via
per-row content sha256.

Nothing here calls ``ray.init`` — callers own the Ray session.
"""

__version__ = "0.1.0"

CORPUS_SCHEMA_COLUMNS = ("repo", "path", "commit", "lang", "content")
