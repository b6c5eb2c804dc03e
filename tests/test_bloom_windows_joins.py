"""SBBF bloom properties, window operators, join operators."""

import numpy as np
import pandas as pd
import pytest

from skar_ray.state.bloom import SplitBlockBloom


def test_bloom_no_false_negatives():
    vals = [f"src/dir{i}/file{i}.py".encode() for i in range(5000)]
    bf = SplitBlockBloom.build(vals)
    assert all(bf.might_contain(v) for v in vals)


def test_bloom_low_false_positive_rate():
    vals = [f"present-{i}".encode() for i in range(5000)]
    bf = SplitBlockBloom.build(vals, bits_per_value=16)
    probes = [f"absent-{i}".encode() for i in range(5000)]
    fp = sum(bf.might_contain(p) for p in probes) / len(probes)
    assert fp < 0.01, fp


def test_bloom_serialize_roundtrip():
    vals = [b"a", b"b", b"c"]
    bf = SplitBlockBloom.build(vals)
    bf2 = SplitBlockBloom.deserialize(bf.serialize())
    assert np.array_equal(bf.blocks, bf2.blocks)
    assert all(bf2.might_contain(v) for v in vals)


def test_bloom_empty():
    bf = SplitBlockBloom.build([])
    assert not bf.might_contain(b"anything")


@pytest.fixture(scope="module")
def events_ds(ray_session):
    import ray.data

    ts = pd.to_datetime(
        ["2024-01-01 00:00", "2024-01-01 00:30", "2024-01-01 05:00",
         "2024-01-02 10:00", "2024-01-02 10:10", "2024-01-02 10:20"]
    )
    df = pd.DataFrame(
        {
            "event_id": range(6),
            "ts": list(ts),
            "user_id": [1, 1, 1, 2, 2, 2],
            "value": [5.0, 1.0, 9.0, 2.0, 8.0, 3.0],
        }
    )
    return ray.data.from_pandas(df)


def test_tumbling_window(events_ds):
    from skar_ray.stages.windows import tumbling_window_counts

    out = tumbling_window_counts(events_ds)
    assert len(out) == 2
    u1 = out[out.user_id == 1].iloc[0]
    assert u1["n"] == 3 and u1["min_value"] == 1.0 and u1["max_value"] == 9.0


def test_session_window(events_ds):
    from skar_ray.stages.windows import session_windows

    out = session_windows(events_ds, gap_minutes=60)
    # user 1: 00:00,00:30 | 05:00 → 2 sessions; user 2: one session
    assert out[out.user_id == 1]["n_sessions"].iloc[0] == 2
    assert out[out.user_id == 2]["n_sessions"].iloc[0] == 1


def test_sliding_window_peak(events_ds):
    from skar_ray.stages.windows import sliding_window_peak

    out = sliding_window_peak(events_ds, window="1h")
    assert out[out.user_id == 1]["peak_count"].iloc[0] == 2
    assert out[out.user_id == 2]["peak_count"].iloc[0] == 3


def test_broadcast_join_validates_dangling(ray_session):
    import ray.data

    from skar_ray.stages.joins import broadcast_join_one_to_one

    left = ray.data.from_pandas(pd.DataFrame({"k": [1, 2, 3], "a": ["x", "y", "z"]}))
    small = pd.DataFrame({"kk": [1, 2], "b": [10, 20]})
    with pytest.raises(Exception, match="dangling|UserCode"):
        broadcast_join_one_to_one(left, small, "k", "kk").to_pandas()
    small_dup = pd.DataFrame({"kk": [1, 1, 2, 3], "b": [10, 11, 20, 30]})
    with pytest.raises(ValueError, match="duplicate"):
        broadcast_join_one_to_one(left, small_dup, "k", "kk")


def test_bucket_hash_join(ray_session):
    import ray.data

    from skar_ray.stages.joins import bucket_hash_join

    left = ray.data.from_pandas(pd.DataFrame({"k": [1, 2, 3, 4], "a": ["w", "x", "y", "z"]}))
    right = ray.data.from_pandas(pd.DataFrame({"k": [2, 3, 3, 5], "b": [20, 30, 31, 50]}))
    out = bucket_hash_join(left, right, "k", n_buckets=4).to_pandas()
    out = out.sort_values(["k", "b"]).reset_index(drop=True)
    assert out["k"].tolist() == [2, 3, 3]
    assert out["b"].tolist() == [20, 30, 31]


def test_bucket_joins_null_keys_sql_semantics(ray_session):
    """SQL semantics: a NULL key matches NOTHING.  pandas merge/isin
    treat NaN == NaN as a match (and ``groups.key_hash64`` hashes all
    nulls to one bucket, co-grouping them), so without explicit handling
    an inner join emits null-key pairs and an anti-join wrongly drops null-keyed
    left rows — regression for both."""
    import ray.data

    from skar_ray.stages.joins import bucket_anti_join, bucket_hash_join

    left = ray.data.from_pandas(pd.DataFrame(
        {"k": [1.0, None, 2.0, None], "a": ["w", "x", "y", "z"]}
    ))
    right = ray.data.from_pandas(pd.DataFrame(
        {"k": [2.0, None, 5.0], "b": [20, 99, 50]}
    ))
    out = bucket_hash_join(left, right, "k", n_buckets=4).to_pandas()
    # only the k=2 pair: the two null-key sides must NOT join
    assert len(out) == 1 and out["a"].tolist() == ["y"] and out["b"].tolist() == [20]

    anti = bucket_anti_join(left, right, key="k").to_pandas()
    # null-keyed left rows match nothing -> they SURVIVE the anti join
    assert sorted(anti["a"]) == ["w", "x", "z"]


def test_bucketed_group_apply_keeps_null_keys(ray_session):
    """SQL GROUP BY keeps a null-key group; pandas groupby's default
    dropna=True silently dropped those rows from every operator built
    on the shared exchange — regression."""
    import ray.data

    from skar_ray.stages.groups import bucketed_group_apply

    df = pd.DataFrame({"g": ["a", None, "a", None, "b"], "v": [1, 2, 3, 4, 5]})

    def agg(sub: pd.DataFrame) -> pd.DataFrame:
        if len(sub) == 0:
            return pd.DataFrame({"g": pd.Series(dtype="object"), "s": pd.Series(dtype="int64")})
        return pd.DataFrame({"g": [sub["g"].iloc[0]], "s": [int(sub["v"].sum())]})

    out = bucketed_group_apply(
        ray.data.from_pandas(df), ["g"], agg
    ).to_pandas()
    got = {(None if pd.isna(r.g) else r.g): int(r.s) for r in out.itertuples()}
    assert got == {"a": 4, "b": 5, None: 6}


def test_asof_join(events_ds, ray_session):
    import ray.data

    ts = pd.to_datetime(["2024-01-01 00:00", "2024-01-01 01:00", "2024-01-01 02:00", "2024-01-01 00:30"])
    df = pd.DataFrame(
        {
            "event_id": [10, 11, 12, 13],
            "ts": list(ts),
            "user_id": [1, 1, 1, 2],
            "event_type": ["click", "purchase", "purchase", "purchase"],
        }
    )
    from skar_ray.stages.windows import asof_join_events

    out = asof_join_events(ray.data.from_pandas(df))
    # purchases 11 and 12 both resolve to the 00:00 click; user 2 has no click
    assert out["event_id"].tolist() == [11, 12]
    assert (out["last_right_ts"] == ts[0]).all()


def test_hll_accuracy_and_merge():
    from skar_ray.state.hll import HyperLogLog

    h = HyperLogLog(12)
    h.add_many([f"u{i}".encode() for i in range(50000)])
    assert abs(h.estimate() - 50000) / 50000 < 0.05
    a, b = HyperLogLog(12), HyperLogLog(12)
    a.add_many([f"u{i}".encode() for i in range(30000)])
    b.add_many([f"u{i}".encode() for i in range(20000, 50000)])
    m = HyperLogLog.deserialize(a.merge(b).serialize())
    assert abs(m.estimate() - 50000) / 50000 < 0.05
    # vectorised integer path (splitmix64): same accuracy bound
    import numpy as np

    hi = HyperLogLog(12)
    hi.add_ints(np.arange(50000, dtype=np.int64))
    assert abs(hi.estimate() - 50000) / 50000 < 0.05


def test_validate_schema():
    import pyarrow as pa
    import pytest as pt

    from skar_ray.stages.validate import validate_schema

    good = pa.schema([("repo", pa.string()), ("path", pa.string()), ("commit", pa.string()),
                      ("lang", pa.string()), ("content", pa.large_string())])
    validate_schema(good)
    bad = pa.schema([("repo", pa.int64()), ("path", pa.string()), ("commit", pa.string()),
                     ("lang", pa.string()), ("content", pa.large_string())])
    with pt.raises(ValueError, match="repo"):
        validate_schema(bad)
    # generic tables: all columns must be encodable
    generic_ok = pa.schema([("x", pa.int64()), ("e", pa.list_(pa.float32()))])
    validate_schema(generic_ok)
    # structs/maps are now encodable (struct_child / map_child); a
    # nested list-of-lists still has no codec
    validate_schema(pa.schema([("s", pa.struct([("a", pa.int64())]))]))
    validate_schema(pa.schema([("m", pa.map_(pa.string(), pa.int64()))]))
    generic_bad = pa.schema([("s", pa.list_(pa.list_(pa.int64())))])
    with pt.raises(ValueError, match="unsupported"):
        validate_schema(generic_bad)


def _assert_windows_match_references(W, ds, df):
    """The salted session / sliding / asof operators over ``ds`` equal
    INDEPENDENT single-process pandas reimplementations over ``df``
    (the same events)."""
    import numpy as np
    import pandas as pd

    # sessionization reference
    gap = pd.Timedelta(minutes=60)
    ref_rows = []
    for u, g in df.sort_values("ts").groupby("user_id"):
        ref_rows.append((u, int((g["ts"].diff() > gap).sum()) + 1, len(g)))
    ref = pd.DataFrame(ref_rows, columns=["user_id", "n_sessions", "n_events"]).astype("int64")
    got = W.session_windows(ds, gap_minutes=60, salt_freq="1D")
    pd.testing.assert_frame_equal(got, ref.sort_values("user_id").reset_index(drop=True))

    # sliding peak reference (two-pointer per user)
    w = np.timedelta64(6 * 3600, "s")
    ref_rows = []
    for u, g in df.sort_values("ts").groupby("user_id"):
        ts = g["ts"].to_numpy()
        peak, j = 0, 0
        for i in range(len(ts)):
            while ts[i] - ts[j] >= w:
                j += 1
            peak = max(peak, i - j + 1)
        ref_rows.append((u, peak))
    ref = pd.DataFrame(ref_rows, columns=["user_id", "peak_count"]).astype("int64")
    got = W.sliding_window_peak(ds, window="6h", salt_freq="1D")
    pd.testing.assert_frame_equal(got, ref.sort_values("user_id").reset_index(drop=True))

    # asof reference (merge_asof per user over the full history)
    ref_parts = []
    for u, g in df.groupby("user_id"):
        left = g[g["event_type"] == "purchase"].sort_values(["ts", "event_id"])
        right = g[g["event_type"] == "click"].sort_values(["ts", "event_id"])
        if len(left) == 0 or len(right) == 0:
            continue
        m = pd.merge_asof(left[["event_id", "ts"]],
                          right[["ts"]].rename(columns={"ts": "last_right_ts"}),
                          left_on="ts", right_on="last_right_ts", direction="backward")
        m = m.dropna(subset=["last_right_ts"])
        m["user_id"] = u
        ref_parts.append(m[["event_id", "user_id", "last_right_ts"]])
    ref = (pd.concat(ref_parts, ignore_index=True).sort_values("event_id")
           .reset_index(drop=True).astype({"event_id": "int64", "user_id": "int64",
                                           "last_right_ts": "datetime64[us]"}))
    got = W.asof_join_events(ds, salt_freq="1D")
    pd.testing.assert_frame_equal(got, ref)


def test_windows_hot_key_salted_paths_exact(ray_session):
    """One synthetic user holding 50% of all events (the round-2
    hot-key ceiling): the time-salted session / sliding / asof paths
    must return exactly what the single-process pandas references
    return — including sessions and windows that straddle salt-bucket
    boundaries."""
    import numpy as np
    import pandas as pd
    import ray.data

    from skar_ray.stages import windows as W

    rng = np.random.default_rng(4242)
    n_hot, n_cold_users, n_cold_each = 4000, 40, 100
    base = np.datetime64("2024-01-01T00:00:00", "us")
    rows = []
    eid = 0
    # hot user 999: events spread over 10 days incl. bursts that cross
    # midnight (salt="1D" boundaries) within the session gap and window
    t = base
    for i in range(n_hot):
        # mixture: mostly small steps (minutes), occasional > gap jumps
        step = int(rng.choice([120, 600, 1800, 9000], p=[0.5, 0.3, 0.15, 0.05]))
        t = t + np.timedelta64(step, "s")
        rows.append((eid, t, 999, "click" if rng.random() < 0.6 else "purchase",
                     float(rng.random() * 20)))
        eid += 1
    for u in range(n_cold_users):
        t = base + np.timedelta64(int(rng.integers(0, 86_400)), "s")
        for i in range(n_cold_each):
            t = t + np.timedelta64(int(rng.choice([300, 5400])), "s")
            rows.append((eid, t, u, "click" if rng.random() < 0.5 else "purchase",
                         float(rng.random() * 20)))
            eid += 1
    df = pd.DataFrame(rows, columns=["event_id", "ts", "user_id", "event_type", "value"])
    df["ts"] = df["ts"].astype("datetime64[us]")
    ds = ray.data.from_pandas(df.sample(frac=1.0, random_state=7).reset_index(drop=True))

    _assert_windows_match_references(W, ds, df)


@pytest.mark.parametrize("seed", [11, 77])
def test_salted_windows_match_pandas_reference(ray_session, seed):
    """Randomized cross-check: the salted session / sliding / asof
    operators must match INDEPENDENT single-process pandas
    reimplementations on random event sets whose sessions and windows
    straddle salt boundaries."""
    import numpy as np
    import pandas as pd
    import ray.data

    from skar_ray.stages import windows as W

    rng = np.random.default_rng(seed)
    rows = []
    eid = 0
    base = np.datetime64("2024-03-01T00:00:00", "us")
    for u in range(12):
        t = base + np.timedelta64(int(rng.integers(0, 86_400)), "s")
        for _ in range(int(rng.integers(20, 120))):
            t = t + np.timedelta64(int(rng.choice([60, 1200, 4000, 40_000])), "s")
            rows.append((eid, t, u, rng.choice(["click", "purchase"]), float(rng.random())))
            eid += 1
    df = pd.DataFrame(rows, columns=["event_id", "ts", "user_id", "event_type", "value"])
    df["ts"] = df["ts"].astype("datetime64[us]")
    ds = ray.data.from_pandas(df.sample(frac=1.0, random_state=1).reset_index(drop=True))

    _assert_windows_match_references(W, ds, df)


def test_window_as_dataset_equals_dataframe(events_ds, ray_session):
    """as_dataset=True must be the SAME result, just not collected —
    the 100x-scale deliverable path (collect-free) pinned equal to the
    oracle-comparable DataFrame path."""
    import ray
    import ray.data

    from skar_ray.stages.windows import (
        asof_join_events,
        session_windows,
        sliding_window_peak,
        tumbling_window_counts,
    )

    for fn, kwargs, sort_cols in [
        (tumbling_window_counts, {}, ["user_id", "day"]),
        (session_windows, {"gap_minutes": 60}, ["user_id"]),
        (sliding_window_peak, {"window": "1h"}, ["user_id"]),
    ]:
        df = fn(events_ds, **kwargs)
        dset = fn(events_ds, as_dataset=True, **kwargs)
        assert isinstance(dset, ray.data.Dataset)
        got = dset.to_pandas().sort_values(sort_cols).reset_index(drop=True)
        pd.testing.assert_frame_equal(got, df, check_like=True)

    ts = pd.to_datetime(["2024-01-01 00:00", "2024-01-01 01:00", "2024-01-01 02:00"])
    df_in = pd.DataFrame({
        "event_id": [0, 1, 2], "ts": list(ts), "user_id": [1, 1, 1],
        "event_type": ["click", "purchase", "purchase"], "value": [0.0, 1.0, 2.0],
    })
    src = ray.data.from_pandas(df_in)
    df = asof_join_events(src)
    got = (
        asof_join_events(src, as_dataset=True)
        .to_pandas().sort_values("event_id").reset_index(drop=True)
    )
    pd.testing.assert_frame_equal(got, df, check_like=True)


def test_broadcast_interval_join(ray_session):
    """Overlapping bands: a value can match several intervals; values
    outside every band drop (inner); the width cap raises loudly."""
    import numpy as np
    import ray.data

    from skar_ray.stages.joins import broadcast_interval_join

    df = pd.DataFrame({"event_id": [0, 1, 2, 3], "value": [1.0, 6.0, 99.0, -5.0]})
    bands = pd.DataFrame({
        "band_id": [0, 1, 2],
        "lo": [0.0, 5.0, 5.5],
        "hi": [7.5, 12.5, 6.5],
    })
    out = (
        broadcast_interval_join(ray.data.from_pandas(df), bands, "value")
        .to_pandas().sort_values(["event_id", "band_id"]).reset_index(drop=True)
    )
    want = (
        df.merge(bands, how="cross")
        .query("value >= lo and value < hi")[["event_id", "band_id"]]
        .sort_values(["event_id", "band_id"]).reset_index(drop=True)
    )
    assert out[["event_id", "band_id"]].values.tolist() == want.values.tolist()
    assert 3 not in set(out["event_id"])  # -5.0 matches nothing
    assert (out[out.event_id == 1]["band_id"].tolist()) == [0, 1, 2]  # 6.0 in all three

    with pytest.raises(ValueError, match="max_intervals"):
        broadcast_interval_join(ray.data.from_pandas(df), bands, "value", max_intervals=2)


def test_bucket_hash_join_rejects_unsupported_how(ray_session):
    """The null-key handling inside join_bucket drops null-keyed RIGHT
    rows unconditionally, which would silently corrupt right/full-outer
    results — those `how` values must be rejected loudly."""
    import ray.data

    from skar_ray.stages.joins import bucket_hash_join

    left = ray.data.from_pandas(pd.DataFrame({"k": [1], "a": ["w"]}))
    right = ray.data.from_pandas(pd.DataFrame({"k": [1], "b": [9]}))
    for how in ("outer", "right", "cross"):
        with pytest.raises(ValueError, match="inner"):
            bucket_hash_join(left, right, "k", how=how)
