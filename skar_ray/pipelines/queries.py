"""skar query-API analogs over the testdata tables, Ray-Data-first.

Each function mirrors one capability of the reference's query engine
(/root/reference/skar/src/query/execution/mod.rs and net-types) on the
driver's TPC-H-ish tables; pipelines/registry.py pairs each with its
DuckDB oracle SQL.  Patterns:

- vectorised predicate filters inside ``map_batches`` (range filter
  analog, execution/mod.rs:341-353; IN-set filters :355-391);
- DNF selections — OR of (AND of predicates) — composed from
  ``pyarrow.compute`` boolean kernels (log/tx selection masks,
  execution/mod.rs:120-164,207-261);
- broadcast-small-side semi-joins: collect a small key set, probe with
  ``pc.is_in`` (logs→transactions→blocks propagation,
  execution/mod.rs:21-65,86-95,183-194);
- partial aggregation inside ``map_batches`` before the small shuffle
  (per-folder min/max/distinct index build, build_parquet_idx.rs:50-115).
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc

import ray.data
from ray.data.aggregate import Count, Max, Min, Sum

from . import query_encoded as qe

TS_LO = "2024-01-10 00:00:00"
TS_HI = "2024-01-20 00:00:00"
MKT_SET = ["BUILDING", "MACHINERY"]


def _read(sf_dir: str, table: str, columns=None, filter=None) -> "ray.data.Dataset":
    """Column-pruned read; optional pyarrow dataset-expression `filter`
    pushes the predicate into the Parquet scan so only row groups whose
    statistics admit a match are read — the reference reads only
    selected row groups of selected columns (data_provider.rs:121-183).
    The scanner applies the filter exactly; callers keep their
    map_batches re-filter as semantics documentation at zero cost."""
    kwargs = {}
    if filter is not None:
        kwargs["filter"] = filter
    return ray.data.read_parquet(f"{sf_dir}/{table}.parquet", columns=columns, **kwargs)


def range_filter(sf_dir: str) -> "ray.data.Dataset":
    """Block-range filter analog: ts >= lo AND ts < hi, projected."""
    import pyarrow.dataset as pads

    lo = pa.scalar(np.datetime64(TS_LO.replace(" ", "T"), "us"))
    hi = pa.scalar(np.datetime64(TS_HI.replace(" ", "T"), "us"))
    ds = _read(sf_dir, "events", columns=["event_id", "ts", "event_type", "value"],
               filter=(pads.field("ts") >= lo) & (pads.field("ts") < hi))
    return ds.map_batches(
        lambda t: t.filter(pc.and_(pc.greater_equal(t["ts"], lo), pc.less(t["ts"], hi))),
        batch_format="pyarrow",
    )


def in_set_filter(sf_dir: str) -> "ray.data.Dataset":
    """IN-set membership filter (binary-set analog)."""
    vs = pa.array(MKT_SET)
    ds = _read(sf_dir, "customer", columns=["c_custkey", "c_name", "c_mktsegment"])
    return ds.map_batches(
        lambda t: t.filter(pc.is_in(t["c_mktsegment"], value_set=vs)),
        batch_format="pyarrow",
    )


def in_set_pair(sf_dir: str) -> "ray.data.Dataset":
    """Composite-key probe analog of (block_number, transaction_index) ∈ set
    (execution/mod.rs:375-391): zip the pair into one u64 key, probe with is_in."""
    li = _read(sf_dir, "lineitem", columns=["l_orderkey", "l_linenumber", "l_partkey", "l_quantity"])
    keys = li.map_batches(
        lambda t: t.filter(pc.less(t["l_partkey"], 10)).select(["l_orderkey", "l_linenumber"]),
        batch_format="pyarrow",
    ).to_pandas()
    # stride 2^32 keeps the zip injective for any l_linenumber < 2^32
    # (a stride of 16 would silently collide if a regenerated fixture
    # ever exceeded 15 lines per order); orderkey < 2^31 keeps the sum
    # inside int64
    _STRIDE = 1 << 32
    key_set = pa.array(
        (keys["l_orderkey"].to_numpy().astype(np.int64) * _STRIDE + keys["l_linenumber"].to_numpy()).tolist(),
        type=pa.int64(),
    )

    def probe(t: pa.Table) -> pa.Table:
        zipped = pc.add(pc.multiply(t["l_orderkey"], pa.scalar(_STRIDE, type=pa.int64())), pc.cast(t["l_linenumber"], pa.int64()))
        return t.filter(pc.is_in(zipped, value_set=key_set)).select(
            ["l_orderkey", "l_linenumber", "l_quantity"]
        )

    return li.map_batches(probe, batch_format="pyarrow")


def dnf_selection(sf_dir: str) -> "ray.data.Dataset":
    """OR of (AND of predicates) — the reference's selection semantics."""
    import pyarrow.dataset as pads

    ds = _read(sf_dir, "events", columns=["event_id", "event_type", "value"],
               filter=((pads.field("event_type") == "click") & (pads.field("value") > 10.0))
               | ((pads.field("event_type") == "purchase") & (pads.field("value") < 5.0)))

    def mask(t: pa.Table) -> pa.Table:
        m1 = pc.and_(pc.equal(t["event_type"], "click"), pc.greater(t["value"], 10.0))
        m2 = pc.and_(pc.equal(t["event_type"], "purchase"), pc.less(t["value"], 5.0))
        return t.filter(pc.or_(m1, m2))

    return ds.map_batches(mask, batch_format="pyarrow")


def semi_join(sf_dir: str) -> "ray.data.Dataset":
    """logs→transactions analog: collect matched keys (ValueError above
    qe.MAX_SEMI_JOIN_KEYS), broadcast, probe the other table with is_in."""
    li = _read(sf_dir, "lineitem", columns=["l_orderkey", "l_partkey"])
    keys = li.map_batches(
        lambda t: t.filter(pc.less(t["l_partkey"], 50)).select(["l_orderkey"]),
        batch_format="pyarrow",
    ).to_pandas()["l_orderkey"].unique()
    qe.check_key_set(len(keys), qe.MAX_SEMI_JOIN_KEYS)
    key_set = pa.array(sorted(keys.tolist()), type=pa.int64())
    orders = _read(sf_dir, "orders", columns=["o_orderkey", "o_custkey", "o_totalprice"])
    return orders.map_batches(
        lambda t: t.filter(pc.is_in(t["o_orderkey"], value_set=key_set)),
        batch_format="pyarrow",
    )


def two_hop_semi_join(sf_dir: str) -> "ray.data.Dataset":
    """logs→transactions→blocks propagation analog (execution/mod.rs:21-65):
    lineitem filter → order keys → orders → customer keys → customers,
    each key set capped as in semi_join."""
    li = _read(sf_dir, "lineitem", columns=["l_orderkey", "l_partkey"])
    okeys = li.map_batches(
        lambda t: t.filter(pc.less(t["l_partkey"], 25)).select(["l_orderkey"]),
        batch_format="pyarrow",
    ).to_pandas()["l_orderkey"].unique()
    qe.check_key_set(len(okeys), qe.MAX_SEMI_JOIN_KEYS)
    oset = pa.array(sorted(okeys.tolist()), type=pa.int64())
    orders = _read(sf_dir, "orders", columns=["o_orderkey", "o_custkey"])
    ckeys = orders.map_batches(
        lambda t: t.filter(pc.is_in(t["o_orderkey"], value_set=oset)).select(["o_custkey"]),
        batch_format="pyarrow",
    ).to_pandas()["o_custkey"].unique()
    qe.check_key_set(len(ckeys), qe.MAX_SEMI_JOIN_KEYS)
    cset = pa.array(sorted(ckeys.tolist()), type=pa.int64())
    cust = _read(sf_dir, "customer", columns=["c_custkey", "c_name", "c_acctbal"])
    return cust.map_batches(
        lambda t: t.filter(pc.is_in(t["c_custkey"], value_set=cset)),
        batch_format="pyarrow",
    )


def projection(sf_dir: str) -> "ray.data.Dataset":
    """Field-selection analog (server.rs:233-257)."""
    return _read(sf_dir, "part").select_columns(["p_partkey", "p_brand", "p_size"])


def sort_limit_topk(sf_dir: str) -> "ray.data.Dataset":
    """Top-k by value with deterministic tie-break."""
    ds = _read(sf_dir, "orders", columns=["o_orderkey", "o_totalprice", "o_orderpriority"])
    return ds.sort(["o_totalprice", "o_orderkey"], descending=[True, False]).limit(20)


def minmax_stats(sf_dir: str) -> pd.DataFrame:
    """Per-group min/max/count — the folder/row-group index build analog
    (build_parquet_idx.rs:50-70)."""
    ds = _read(sf_dir, "lineitem", columns=["l_returnflag", "l_shipdate", "l_quantity"])
    out = ds.groupby("l_returnflag").aggregate(
        Min("l_shipdate", alias_name="min_shipdate"),
        Max("l_shipdate", alias_name="max_shipdate"),
        Count(alias_name="n"),
    )
    return out.to_pandas().sort_values("l_returnflag").reset_index(drop=True)


def distinct_values(sf_dir: str) -> pd.DataFrame:
    """Distinct-set build analog (build_parquet_idx.rs:89-115): per-batch
    pc.unique partials, tiny merge."""
    ds = _read(sf_dir, "events", columns=["event_type"])
    partial = ds.map_batches(
        lambda t: pa.table({"event_type": pc.unique(t["event_type"])}), batch_format="pyarrow"
    )
    vals = sorted(set(partial.to_pandas()["event_type"]))
    return pd.DataFrame({"event_type": vals})


def agg_q1(sf_dir: str) -> pd.DataFrame:
    """TPC-H-Q1-shaped grouped aggregate with per-batch PRE-AGGREGATION:
    map_batches emits one partial row per key per batch; the shuffle then
    moves only partials (pre-aggregate → small groupby pattern)."""
    ds = _read(
        sf_dir,
        "lineitem",
        columns=["l_returnflag", "l_linestatus", "l_quantity", "l_extendedprice", "l_discount", "l_shipdate"],
    )
    cut = pa.scalar(np.datetime64("1998-09-02", "us"))

    def partials(t: pa.Table) -> pa.Table:
        t = t.filter(pc.less_equal(t["l_shipdate"], cut))
        df = t.to_pandas()
        # exact integer-cent arithmetic: float sums are order-sensitive in
        # the last ulps, so distributed partials would drift from the
        # oracle; int64 cents sum exactly in any order
        cents = np.rint(df["l_extendedprice"].to_numpy() * 100).astype(np.int64)
        disc_bp = np.rint(df["l_discount"].to_numpy() * 100).astype(np.int64)
        df["price_cents"] = cents
        df["revenue_e4"] = cents * (100 - disc_bp)
        g = (
            df.groupby(["l_returnflag", "l_linestatus"], as_index=False)
            .agg(
                sum_qty=("l_quantity", "sum"),
                price_cents=("price_cents", "sum"),
                revenue_e4=("revenue_e4", "sum"),
                n=("l_quantity", "size"),
            )
        )
        return pa.Table.from_pandas(g)

    partial = ds.map_batches(partials, batch_format="pyarrow")
    out = (
        partial.groupby(["l_returnflag", "l_linestatus"])
        .aggregate(
            Sum("sum_qty", alias_name="sum_qty"),
            Sum("price_cents", alias_name="price_cents"),
            Sum("revenue_e4", alias_name="revenue_e4"),
            Sum("n", alias_name="n"),
        )
        .to_pandas()
    )
    out["n"] = out["n"].astype("int64")
    out["sum_base_price"] = out.pop("price_cents").astype("int64") / 100.0
    out["revenue"] = out.pop("revenue_e4").astype("int64") / 10000.0
    out = out[["l_returnflag", "l_linestatus", "sum_qty", "sum_base_price", "revenue", "n"]]
    return out.sort_values(["l_returnflag", "l_linestatus"]).reset_index(drop=True)


def count_by_type(sf_dir: str) -> pd.DataFrame:
    """Row-count accounting analog (server.rs:259-287)."""
    ds = _read(sf_dir, "events", columns=["event_type"])
    out = ds.groupby("event_type").aggregate(Count(alias_name="n")).to_pandas()
    out["n"] = out["n"].astype("int64")
    return out.sort_values("event_type").reset_index(drop=True)


def groupby_topk(sf_dir: str) -> pd.DataFrame:
    """Per-group top-k (window-function analog): top-3 customers by
    acctbal within each market segment, deterministic tie-break."""
    ds = _read(sf_dir, "customer", columns=["c_custkey", "c_mktsegment", "c_acctbal"])

    def topk(g: pd.DataFrame) -> pd.DataFrame:
        return g.sort_values(["c_acctbal", "c_custkey"], ascending=[False, True]).head(3)

    out = ds.groupby("c_mktsegment").map_groups(topk, batch_format="pandas").to_pandas()
    return out.sort_values(["c_mktsegment", "c_acctbal", "c_custkey"],
                           ascending=[True, False, True]).reset_index(drop=True)


def distinct_pairs(sf_dir: str) -> pd.DataFrame:
    """Multi-column distinct via per-batch partial unique → tiny merge."""
    ds = _read(sf_dir, "documents", columns=["lang", "source"])
    partial = ds.map_batches(
        lambda t: pa.Table.from_pandas(
            t.to_pandas().drop_duplicates(), preserve_index=False
        ),
        batch_format="pyarrow",
    )
    out = partial.to_pandas().drop_duplicates()
    return out.sort_values(["lang", "source"]).reset_index(drop=True)


def token_frequency(sf_dir: str) -> pd.DataFrame:
    """Corpus vocabulary: top-50 whitespace tokens by count — per-batch
    Counter partials pre-aggregate before the (tiny) global merge, the
    canonical shuffle-avoidance pattern for vocab building."""
    from collections import Counter
    import re

    ds = _read(sf_dir, "documents", columns=["text"])
    tok = re.compile(r"\S+")

    def partials(batch: pd.DataFrame) -> pd.DataFrame:
        c: Counter = Counter()
        for s in batch["text"]:
            c.update(tok.findall(s))
        if not c:
            return pd.DataFrame({"token": [], "n": []})
        items = c.most_common()
        return pd.DataFrame({"token": [k for k, _ in items], "n": [v for _, v in items]})

    merged = (
        ds.map_batches(partials, batch_format="pandas")
        .groupby("token")
        .aggregate(Sum("n", alias_name="n"))
        .to_pandas()
    )
    merged["n"] = merged["n"].astype("int64")
    out = merged.sort_values(["n", "token"], ascending=[False, True]).head(50)
    return out.reset_index(drop=True)


def json_props_stats(sf_dir: str) -> pd.DataFrame:
    """JSON payload parsing (the reference's core ingest skill —
    JSON-RPC response parsing, rpc-client/src/types.rs:252-311): parse
    the `props` JSON column per batch (compiled parser state in an
    actor would hold a schema; here stdlib json is enough), extract a
    field, aggregate order-insensitively per event_type."""
    import json as _json

    ds = _read(sf_dir, "events", columns=["event_type", "props"])

    def extract(b: pd.DataFrame) -> pd.DataFrame:
        ks = b["props"].map(lambda s: int(_json.loads(s)["k"]))
        return pd.DataFrame({"event_type": b["event_type"], "k": ks.astype("int64")})

    out = (
        ds.map_batches(extract, batch_format="pandas")
        .groupby("event_type")
        .aggregate(Count(alias_name="n"), Min("k", alias_name="min_k"), Max("k", alias_name="max_k"))
        .to_pandas()
    )
    out["n"] = out["n"].astype("int64")
    out[["min_k", "max_k"]] = out[["min_k", "max_k"]].astype("int64")
    return out.sort_values("event_type").reset_index(drop=True)


def distinct_users_exact(sf_dir: str) -> pd.DataFrame:
    """Exact distinct-count per group: per-batch distinct pairs
    (pre-aggregation) → groupby over the much smaller pair set →
    count.  The exact complement of the HLL sketch query."""
    ds = _read(sf_dir, "events", columns=["event_type", "user_id"])
    pairs = ds.map_batches(
        lambda t: pa.Table.from_pandas(t.to_pandas().drop_duplicates(), preserve_index=False),
        batch_format="pyarrow",
    )

    def dedupe(g: pd.DataFrame) -> pd.DataFrame:
        return g.drop_duplicates()

    uniq = pairs.groupby(["event_type", "user_id"]).map_groups(dedupe, batch_format="pandas")
    out = uniq.groupby("event_type").aggregate(Count(alias_name="n_users")).to_pandas()
    out["n_users"] = out["n_users"].astype("int64")
    return out.sort_values("event_type").reset_index(drop=True)


def join_agg_segments(sf_dir: str) -> pd.DataFrame:
    """Composed pipeline: broadcast join (orders ⋈ customer) feeding a
    grouped aggregate — order counts and exact-cents revenue per market
    segment."""
    import pyarrow.parquet as pq

    from ..stages.joins import broadcast_join_one_to_one

    orders = _read(sf_dir, "orders", columns=["o_custkey", "o_totalprice"])
    cust = pq.read_table(
        f"{sf_dir}/customer.parquet", columns=["c_custkey", "c_mktsegment"]
    ).to_pandas()
    joined = broadcast_join_one_to_one(orders, cust, "o_custkey", "c_custkey", validate=False)

    def partials(b: pd.DataFrame) -> pd.DataFrame:
        b = b.copy()
        b["cents"] = np.rint(b["o_totalprice"].to_numpy() * 100).astype(np.int64)
        g = b.groupby("c_mktsegment", as_index=False).agg(
            n_orders=("cents", "size"), cents=("cents", "sum")
        )
        return g

    out = (
        joined.map_batches(partials, batch_format="pandas")
        .groupby("c_mktsegment")
        .aggregate(Sum("n_orders", alias_name="n_orders"), Sum("cents", alias_name="cents"))
        .to_pandas()
    )
    out["n_orders"] = out["n_orders"].astype("int64")
    out["revenue"] = out.pop("cents").astype("int64") / 100.0
    return out.sort_values("c_mktsegment").reset_index(drop=True)


def cursor_page(sf_dir: str) -> "ray.data.Dataset":
    """Cursor-paging analog (next_block, handler.rs:252-258): ordered page
    after a cursor position."""
    import pyarrow.dataset as pads

    lo = pa.scalar(np.datetime64(TS_LO.replace(" ", "T"), "us"))
    ds = _read(sf_dir, "events", columns=["event_id", "ts", "user_id"],
               filter=pads.field("ts") >= lo)
    return (
        ds.map_batches(lambda t: t.filter(pc.greater_equal(t["ts"], lo)), batch_format="pyarrow")
        .sort(["ts", "event_id"])
        .limit(100)
    )
