import numpy as np, pandas as pd
import pytest

def test_backends_equal(ray_session):
    import ray.data
    from skar_ray.stages.groups import bucketed_group_apply
    rng = np.random.default_rng(3)
    df = pd.DataFrame({
        "k1": rng.integers(0, 50, 5000),
        "k2": rng.choice(["x", "y", "z"], 5000),
        "v": rng.random(5000),
    })
    ds = ray.data.from_pandas(df)
    def agg(g):
        if len(g) == 0:
            return pd.DataFrame({"k1": pd.Series(dtype="int64"), "k2": pd.Series(dtype="object"),
                                 "n": pd.Series(dtype="int64"), "s": pd.Series(dtype="float64")})
        return pd.DataFrame({"k1": [g["k1"].iloc[0]], "k2": [g["k2"].iloc[0]],
                             "n": [len(g)], "s": [g["v"].sum()]})
    a = bucketed_group_apply(ds, ["k1", "k2"], agg).to_pandas()
    a = a.sort_values(["k1","k2"]).reset_index(drop=True)
    b = (df.groupby(["k1", "k2"], as_index=False)
         .agg(n=("v", "size"), s=("v", "sum"))
         .sort_values(["k1", "k2"]).reset_index(drop=True))
    pd.testing.assert_frame_equal(a, b, check_dtype=False, rtol=1e-12)


def test_empty_dataset_full_schema(ray_session):
    """Zero-block input: fn must still receive the FULL input schema
    (fns read non-key columns — e.g. exact_dedup's keep_first reads
    doc_id), not a keys-only frame."""
    import ray.data
    from skar_ray.stages.groups import bucketed_group_apply

    seen_cols = []

    def agg(g):
        seen_cols.append(sorted(g.columns))
        return pd.DataFrame({"k": g["k"], "doc_id": g["doc_id"]})

    # limit(0) executes to ZERO blocks while the schema stays known —
    # the exact shape that used to hand fn a keys-only frame
    ds = ray.data.from_pandas(
        pd.DataFrame({"k": [1], "doc_id": [2], "v": [0.5]})
    ).limit(0)
    out = bucketed_group_apply(ds, ["k"], agg).to_pandas()
    assert len(out) == 0
    assert seen_cols and seen_cols[0] == ["doc_id", "k", "v"]


def test_bucketed_sum_matches_pandas(ray_session):
    """bucketed_sum == pandas groupby-sum, including string keys, many
    distinct groups (the per-group-overhead regime it exists for), and
    multiple value columns."""
    import ray.data
    from skar_ray.stages.groups import bucketed_sum

    rng = np.random.default_rng(7)
    n = 20_000
    df = pd.DataFrame({
        "k": [f"item-{i}" for i in rng.integers(0, 15_000, n)],
        "c": rng.integers(1, 5, n).astype("int64"),
        "w": rng.integers(-3, 9, n).astype("int64"),
    })
    ds = ray.data.from_pandas(df).repartition(13)
    got = (
        bucketed_sum(ds, ["k"], ["c", "w"]).to_pandas()
        .sort_values("k").reset_index(drop=True)
    )
    want = (
        df.groupby("k", as_index=False)[["c", "w"]].sum()
        .sort_values("k").reset_index(drop=True)
    )
    pd.testing.assert_frame_equal(got, want)


def test_bucketed_sum_empty(ray_session):
    import ray.data
    from skar_ray.stages.groups import bucketed_sum

    ds = ray.data.from_pandas(pd.DataFrame({"k": [1], "c": [2]})).limit(0)
    out = bucketed_sum(ds, ["k"], "c")
    # ray 2.49 to_pandas() on an empty dataset drops columns; the schema
    # is the contract (callers guard `if "col" not in df` driver-side)
    assert out.schema().names == ["k", "c"]
    assert len(out.to_pandas()) == 0


def test_bucketed_sum_how_min_max(ray_session):
    """how= swaps the per-group reduction: every row of a fine group
    lands in one reduce task, so min/max over partials are exact."""
    import numpy as np
    import ray.data

    from skar_ray.stages.groups import bucketed_sum

    rng = np.random.default_rng(3)
    df = pd.DataFrame({
        "k": rng.integers(0, 40, 500),
        "v": rng.integers(-10_000, 10_000, 500),
    })
    ds = ray.data.from_pandas(df).repartition(7)
    for how in ("min", "max"):
        got = (
            bucketed_sum(ds, ["k"], "v", how=how).to_pandas()
            .sort_values("k").reset_index(drop=True)
        )
        want = (
            df.groupby("k", as_index=False)["v"].agg(how)
            .sort_values("k").reset_index(drop=True)
        )
        pd.testing.assert_frame_equal(got, want)
