"""Differential tests: a sample of registry queries vs DuckDB at sf0.001
(the full registry runs at sf0.01 via tools/check_oracles.py and the
grading driver)."""

import duckdb
import pandas as pd
import pytest

SF_DIR = "/root/testdata/sf0.001"
SAMPLE = [
    "range_filter",
    "in_set_pair",
    "dnf_selection",
    "two_hop_semi_join",
    "agg_q1",
    "dedup_exact",
    "token_count",
    "encode_roundtrip_documents",
]


@pytest.fixture(scope="module")
def harness(ray_session):
    import sys, os

    sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "tools"))
    import check_oracles

    con = duckdb.connect()
    for t in check_oracles.TABLES:
        con.execute(f"CREATE VIEW {t} AS SELECT * FROM '{SF_DIR}/{t}.parquet'")
    import __ray_entry__ as e

    return check_oracles, con, e.queries(), e.oracle_sql()


@pytest.mark.parametrize("name", SAMPLE)
def test_query_vs_oracle(harness, name):
    check_oracles, con, qs, sqls = harness
    mine = check_oracles.to_df(qs[name](SF_DIR))
    oracle = con.execute(sqls[name]).df()
    assert len(mine) == len(oracle)
    assert sorted(mine.columns) == sorted(oracle.columns)
    assert check_oracles.value_hash(mine) == check_oracles.value_hash(oracle)


def test_entry_smoke(ray_session):
    import __ray_entry__ as e

    out = e.entry()
    assert isinstance(out, pd.DataFrame)
    assert len(out) >= 1
    assert {"partition_id", "n_rows", "raw_bytes", "enc_bytes"} <= set(out.columns)


def test_rowgroup_pushdown_prunes(tmp_path):
    """The pushed-down predicate forms used by range_filter /
    dnf_selection / cursor_page must let pyarrow skip row groups via
    Parquet statistics — the reference reads only selected row groups
    (data_provider.rs:121-183).  Written sorted by ts with small row
    groups, a narrow ts range must materialize a strict subset."""
    import numpy as np
    import pyarrow as pa
    import pyarrow.dataset as pads
    import pyarrow.parquet as pq

    n = 20_000
    ts = np.datetime64("2024-01-01T00:00:00", "us") + np.arange(n) * np.timedelta64(60_000_000, "us")
    t = pa.table({"event_id": np.arange(n, dtype=np.int64), "ts": ts,
                  "value": np.linspace(0, 100, n)})
    path = str(tmp_path / "events_sorted.parquet")
    pq.write_table(t, path, row_group_size=1000)

    frag = next(iter(pads.dataset(path).get_fragments()))
    total = frag.num_row_groups
    assert total >= 10
    lo = pa.scalar(ts[5000])
    hi = pa.scalar(ts[7000])
    expr = (pads.field("ts") >= lo) & (pads.field("ts") < hi)
    kept = len(frag.split_by_row_group(expr))
    assert kept < total, (kept, total)
    assert kept <= 4  # 2000 rows / 1000-row groups (+ boundary slack)

    # and through Ray's read path the result is exact
    import ray.data

    got = ray.data.read_parquet(path, columns=["event_id", "ts"], filter=expr).count()
    assert got == 2000


def test_broadcast_semi_joins_cap_the_key_set(ray_session, monkeypatch):
    """The raw-table semi-joins collect their key sets into the driver;
    above the shared MAX_SEMI_JOIN_KEYS they raise the encoded
    semi-join's ValueError instead of broadcasting an unbounded set."""
    from skar_ray.pipelines import queries, query_encoded

    monkeypatch.setattr(query_encoded, "MAX_SEMI_JOIN_KEYS", 1)
    for fn in (queries.semi_join, queries.two_hop_semi_join):
        with pytest.raises(ValueError, match=r"semi-join key set has \d+ keys \(> max_keys=1\)"):
            fn(SF_DIR)
