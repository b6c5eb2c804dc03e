"""``python -m skar_ray`` — the job entrypoint for ``ray job submit``.

The north rule runs the engine as a Ray *job* on a fixed-size cluster
(`ray job submit --working-dir . -- python -m skar_ray encode ...`);
this module is that entrypoint, the analog of the reference's binary
`main` (/root/reference/skar/src/main.rs:9-23: parse config, start the
runner, serve queries).  It is the ONE library-adjacent place allowed
to own a Ray session: `ray.init()` is guarded so that under
`ray job submit` (or any caller that already initialised Ray, e.g. the
test fixture) it attaches to the existing session instead of starting
a second one, and standalone invocations honour `RAY_ADDRESS`.

Subcommands (each prints ONE JSON line to stdout for scriptability):

    synth   --rows N                     build the deterministic demo corpus
    encode  CORPUS STORE [--profile ..]  corpus parquet -> encoded store
    verify  CORPUS STORE                 decode-verify store against corpus
    export  STORE DEST [--columns ..]    store -> partitioned parquet
    stats   STORE                        per-column codec/byte summary
    query   STORE [--columns ..] [--where DNF.json] [--limit N] [--out DIR]
    topk    STORE VALUE_COL [-k N] [--id-col ..] [--asc] [--where ..]
    distinct STORE COLUMN                DISTINCT from stats/dictionaries

`--where` takes the engine's DNF as JSON: a list of OR'd conjunctions,
each a list of `[column, op, value]` clauses, e.g.
`[[["lang", "==", "py"], ["content_len", ">", 1000]]]`.
"""

from __future__ import annotations

import argparse
import json
import sys
import time


def _ray_session():
    import ray

    if not ray.is_initialized():
        ray.init(include_dashboard=False)


def _emit(obj: dict) -> None:
    print(json.dumps(obj, sort_keys=True))


_OPS = {"==", "!=", "in", ">=", ">", "<=", "<", "prefix", "contains", "suffix"}


def _dnf(arg: str | None):
    if not arg:
        return None
    dnf = json.loads(arg)
    out = [[(c, o, v) for c, o, v in conj] for conj in dnf]
    # fail fast on the driver — an unknown op would otherwise surface
    # as a mid-query raise inside a Ray task (pruning.clause_compute)
    for conj in out:
        for _, o, _ in conj:
            if o not in _OPS:
                raise SystemExit(f"unknown DNF op {o!r}; one of {sorted(_OPS)}")
    return out


def cmd_synth(a) -> dict:
    from .corpus import ensure_corpus

    d = ensure_corpus(a.rows, seed=a.seed)
    return {"corpus": f"{d}/corpus.parquet", "rows": a.rows, "seed": a.seed}


def cmd_encode(a) -> dict:
    _ray_session()
    from .pipelines.encode_job import run_encode_job
    from .pipelines.stats import store_health

    t0 = time.time()
    run_encode_job(
        a.corpus,
        a.store,
        target_partition_bytes=(a.target_mb << 20) if a.target_mb else None,
        mode="hashed" if a.mode == "grouped" else a.mode,
        resume=not a.no_resume,
        profile=a.profile,
        validate=not a.no_validate,
    )
    h = store_health(a.store)
    h["seconds"] = round(time.time() - t0, 3)
    h.pop("fingerprints", None)
    return h


def cmd_verify(a) -> dict:
    _ray_session()
    from .pipelines.decode_job import run_verify_job

    res = run_verify_job(a.corpus, a.store)
    if not res["rows_match"]:
        _emit(res)
        raise SystemExit(1)
    return res


def cmd_export(a) -> dict:
    _ray_session()
    from .pipelines.decode_job import run_export_job

    cols = a.columns.split(",") if a.columns else None
    return run_export_job(a.store, a.dest, columns=cols)


def cmd_stats(a) -> dict:
    from .pipelines.stats import store_health, store_stats

    h = store_health(a.store)
    h["columns"] = store_stats(a.store).to_dict(orient="records")
    return h


def cmd_query(a) -> dict:
    _ray_session()
    from .pipelines.query_encoded import query_encoded

    cols = a.columns.split(",") if a.columns else None
    ds = query_encoded(a.store, columns=cols, filters=_dnf(a.where), limit=a.limit)
    if a.out:
        # stays a streamed Dataset write — rows never collect on the
        # driver; count from the written files' metadata (a ds.count()
        # here would re-execute the whole read+decode pipeline)
        ds.write_parquet(a.out)
        import pyarrow.dataset as pads

        n = sum(f.count_rows() for f in pads.dataset(a.out).get_fragments())
        return {"rows": n, "out": a.out}
    return {"rows": ds.count()}


def cmd_topk(a) -> dict:
    _ray_session()
    from .pipelines.query_encoded import store_topk

    res = store_topk(
        a.store, a.value_col, k=a.k, id_col=a.id_col,
        descending=not a.asc, filters=_dnf(a.where),
    )
    # to_json: numpy ints aren't json.dumps-serializable
    return {"rows": json.loads(res.to_json(orient="records"))}


def cmd_distinct(a) -> dict:
    _ray_session()
    from .pipelines.stats import store_distinct

    res, info = store_distinct(a.store, a.column, with_info=True)
    # a float NaN would serialize as the bare token NaN, which RFC 8259
    # parsers reject, and as a string it would read like a real 'NaN'
    # value — report it as a flag instead
    vals = [v for v in res["value"] if not (isinstance(v, float) and v != v)]
    return {"values": vals, "has_nan": len(vals) < len(res), **info}


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="python -m skar_ray", description=__doc__)
    sub = p.add_subparsers(dest="cmd", required=True)

    s = sub.add_parser("synth", help="build the deterministic demo corpus")
    s.add_argument("--rows", type=int, default=20_000)
    s.add_argument("--seed", type=int, default=42)
    s.set_defaults(fn=cmd_synth)

    s = sub.add_parser("encode", help="encode a corpus parquet into a store")
    s.add_argument("corpus")
    s.add_argument("store")
    s.add_argument("--profile", choices=["max", "fast"], default="max")
    s.add_argument("--mode", choices=["grouped", "hashed", "sharded"], default="hashed",
                   help="hashed: sort-free hash exchange (grouped is an alias that "
                   "writes identical partitions); sharded: one partition per input block")
    s.add_argument("--target-mb", type=int, default=None, help="partition size target")
    s.add_argument("--no-resume", action="store_true")
    s.add_argument("--no-validate", action="store_true")
    s.set_defaults(fn=cmd_encode)

    s = sub.add_parser("verify", help="decode-verify a store against its corpus")
    s.add_argument("corpus")
    s.add_argument("store")
    s.set_defaults(fn=cmd_verify)

    s = sub.add_parser("export", help="decode a store to partitioned parquet")
    s.add_argument("store")
    s.add_argument("dest")
    s.add_argument("--columns", default=None, help="comma-separated projection")
    s.set_defaults(fn=cmd_export)

    s = sub.add_parser("stats", help="store health + per-column codec summary")
    s.add_argument("store")
    s.set_defaults(fn=cmd_stats)

    s = sub.add_parser("query", help="pruned projected filtered read over a store")
    s.add_argument("store")
    s.add_argument("--columns", default=None)
    s.add_argument("--where", default=None, help="DNF as JSON [[clause,...],...]")
    s.add_argument("--limit", type=int, default=None)
    s.add_argument("--out", default=None, help="write result parquet here")
    s.set_defaults(fn=cmd_query)

    s = sub.add_parser("topk", help="ranked query: ORDER BY col LIMIT k, chunk-stat pruned")
    s.add_argument("store")
    s.add_argument("value_col")
    s.add_argument("-k", type=int, default=10)
    s.add_argument("--id-col", default="doc_id")
    s.add_argument("--asc", action="store_true", help="ascending (default descending)")
    s.add_argument("--where", default=None, help="DNF as JSON [[clause,...],...]")
    s.set_defaults(fn=cmd_topk)

    s = sub.add_parser("distinct", help="DISTINCT col from stats/dictionaries, no row decode")
    s.add_argument("store")
    s.add_argument("column")
    s.set_defaults(fn=cmd_distinct)
    return p


def main(argv: list[str] | None = None) -> int:
    a = build_parser().parse_args(argv)
    _emit(a.fn(a))
    return 0


if __name__ == "__main__":
    sys.exit(main())
