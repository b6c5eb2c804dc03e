"""Stream-shaped windowed operators over the ordered `events` log.

Ray Data has no event-time windows; the reference is a micro-batch
tip-follower, not a window engine either (SURVEY §2.8).  We implement
the windows a training-data pipeline needs as ``bucketed_group_apply``
over per-key ts-sorted groups.  Hot-key safety: the session / sliding
/ asof operators group by TIME-SALTED keys ((key, floor(ts,
salt_freq)) with an exact boundary merge over bucket summaries), so a
key holding half the corpus splits across buckets instead of OOMing
one task.  Tumbling pre-aggregates per batch and never had the
assumption.
"""

from __future__ import annotations

import numpy as np
import pandas as pd

import ray.data

from .groups import bucketed_group_apply


def _finish(out: "ray.data.Dataset", sort_cols: list[str], astype: dict,
            as_dataset: bool):
    """Window deliverable: ``as_dataset=True`` keeps the result a
    (typed) Dataset so 100×-scale callers never collect — outputs are
    per-(key, window) aggregates, but at web scale even key×window
    cardinality shouldn't transit the driver; ``False`` returns the
    sorted DataFrame the oracles compare (equality pinned by pytest)."""
    if as_dataset:
        return out.map_batches(lambda b, t=astype: b.astype(t), batch_format="pandas")
    return (
        out.to_pandas().sort_values(sort_cols).reset_index(drop=True).astype(astype)
    )


def tumbling_window_counts(ds: "ray.data.Dataset", freq: str = "D",
                           as_dataset: bool = False) -> pd.DataFrame:
    """Per (user_id, day) tumbling window: row count + min/max value.

    Decomposable aggregates (count/min/max) pre-aggregate PER BATCH
    before the shuffle (the agg_q1 partial-aggregation pattern), so the
    exchange moves one row per (user, day, batch) and a hot user never
    concentrates in a single task — no whole-key-in-one-group
    assumption, unlike the session/sliding operators which genuinely
    need the key's full ordered history.
    """

    def partials(batch: pd.DataFrame) -> pd.DataFrame:
        b = batch.assign(day=batch["ts"].dt.floor(freq))
        return b.groupby(["user_id", "day"], as_index=False).agg(
            n=("event_id", "size"), min_value=("value", "min"), max_value=("value", "max")
        )

    def combine(g: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame({
            "user_id": [g["user_id"].iloc[0]],
            "day": [g["day"].iloc[0]],
            "n": [int(g["n"].sum())],
            "min_value": [g["min_value"].min()],
            "max_value": [g["max_value"].max()],
        })

    out = bucketed_group_apply(
        ds.map_batches(partials, batch_format="pandas"), ["user_id", "day"], combine
    )
    return _finish(out, ["user_id", "day"], {"n": "int64"}, as_dataset)


def session_windows(ds: "ray.data.Dataset", gap_minutes: int = 60,
                    salt_freq: str = "1D",
                    as_dataset: bool = False) -> pd.DataFrame:
    """Per-user session count + total events, sessions split at
    inactivity gaps > ``gap_minutes`` (classic sessionisation).

    Hot-key safety (the round-2 "one user's full history in one task"
    ceiling, now lifted): groups are salted by (user, floor(ts,
    salt_freq)), so a user holding half the corpus splits across time
    buckets; each bucket emits (n_events, n_sessions, first_ts,
    last_ts) and a second per-user merge — over BUCKET SUMMARIES, one
    tiny row per (user, bucket), never events — subtracts one session
    for every consecutive-bucket boundary whose gap is within the
    threshold.  EXACT: sessions inside a bucket are counted locally,
    and a session spanning k bucket boundaries is counted k+1 times
    locally and merged k times."""
    gap = pd.Timedelta(minutes=gap_minutes)

    def bucketed(batch: pd.DataFrame) -> pd.DataFrame:
        return batch.assign(__bkt=batch["ts"].dt.floor(salt_freq))

    def per_user_bucket(g: pd.DataFrame) -> pd.DataFrame:
        if len(g) == 0:
            return pd.DataFrame({"user_id": pd.Series(dtype="int64"),
                                 "__bkt": pd.Series(dtype="datetime64[us]"),
                                 "n_events": pd.Series(dtype="int64"),
                                 "n_sessions": pd.Series(dtype="int64"),
                                 "first_ts": pd.Series(dtype="datetime64[us]"),
                                 "last_ts": pd.Series(dtype="datetime64[us]")})
        g = g.sort_values("ts")
        gaps = g["ts"].diff() > gap
        return pd.DataFrame({
            "user_id": [g["user_id"].iloc[0]], "__bkt": [g["__bkt"].iloc[0]],
            "n_events": [len(g)], "n_sessions": [int(gaps.sum()) + 1],
            "first_ts": [g["ts"].iloc[0]], "last_ts": [g["ts"].iloc[-1]],
        })

    def merge_user(g: pd.DataFrame) -> pd.DataFrame:
        if len(g) == 0:
            return pd.DataFrame({"user_id": pd.Series(dtype="int64"),
                                 "n_sessions": pd.Series(dtype="int64"),
                                 "n_events": pd.Series(dtype="int64")})
        g = g.sort_values("__bkt")
        merged = 0
        if len(g) > 1:
            boundary = g["first_ts"].to_numpy()[1:] - g["last_ts"].to_numpy()[:-1]
            merged = int((boundary <= gap.to_timedelta64()).sum())
        return pd.DataFrame({
            "user_id": [g["user_id"].iloc[0]],
            "n_sessions": [int(g["n_sessions"].sum()) - merged],
            "n_events": [int(g["n_events"].sum())],
        })

    out = bucketed_group_apply(
        bucketed_group_apply(
            ds.map_batches(bucketed, batch_format="pandas"),
            ["user_id", "__bkt"], per_user_bucket,
        ),
        ["user_id"], merge_user,
    )
    return _finish(out, ["user_id"],
                   {"user_id": "int64", "n_sessions": "int64", "n_events": "int64"},
                   as_dataset)


def asof_join_events(ds: "ray.data.Dataset", left_type: str = "purchase",
                     right_type: str = "click",
                     salt_freq: str = "1D",
                     as_dataset: bool = False) -> pd.DataFrame:
    """As-of join inside the ordered log: for every `left_type` event,
    the most recent `right_type` event of the SAME user at ts <= left.ts
    (inner semantics — lefts with no prior right are dropped).

    Hot-key safety: groups are salted by (user, floor(ts, salt_freq)).
    Each bucket asof-joins its own lefts against its own rights
    (``pd.merge_asof``); lefts with no in-bucket predecessor are
    resolved in a second per-user pass against the bucket summaries
    (one max-right-ts row per (user, bucket) — any right in an earlier
    bucket precedes every left of a later bucket, and bucket right
    maxima are time-ordered, so the carry-forward is the summary of
    the latest earlier bucket that has rights).  The second pass moves
    only unmatched lefts (lefts before their bucket's first right) and
    summaries, never a user's event history."""

    def asof_of(left: pd.DataFrame, right: pd.DataFrame) -> pd.DataFrame:
        m = pd.merge_asof(
            left[["event_id", "ts"]],
            right[["ts"]].rename(columns={"ts": "last_right_ts"}),
            left_on="ts", right_on="last_right_ts", direction="backward",
        )
        m["user_id"] = left["user_id"].iloc[0] if len(left) else None
        return m

    def bucketed(batch: pd.DataFrame) -> pd.DataFrame:
        b = batch[batch["event_type"].isin([left_type, right_type])]
        return b.assign(__bkt=b["ts"].dt.floor(salt_freq))

    _EMPTY = pd.DataFrame({
        "kind": pd.Series(dtype="object"),
        "event_id": pd.Series(dtype="int64"),
        "user_id": pd.Series(dtype="int64"),
        "__bkt": pd.Series(dtype="datetime64[us]"),
        "last_right_ts": pd.Series(dtype="datetime64[us]"),
    })

    def per_user_bucket(g: pd.DataFrame) -> pd.DataFrame:
        if len(g) == 0:
            return _EMPTY
        left = g[g["event_type"] == left_type].sort_values(["ts", "event_id"])
        right = g[g["event_type"] == right_type].sort_values(["ts", "event_id"])
        uid = int(g["user_id"].iloc[0])
        bkt = g["__bkt"].iloc[0]
        rows = []
        if len(left):
            if len(right):
                m = asof_of(left, right)
                matched = m.dropna(subset=["last_right_ts"])
                rows.append(pd.DataFrame({
                    "kind": "m", "event_id": matched["event_id"].astype("int64"),
                    "user_id": uid, "__bkt": bkt,
                    "last_right_ts": matched["last_right_ts"],
                }))
                un = m[m["last_right_ts"].isna()]
            else:
                un = left
            if len(un):
                rows.append(pd.DataFrame({
                    "kind": "u", "event_id": un["event_id"].astype("int64"),
                    "user_id": uid, "__bkt": bkt, "last_right_ts": pd.NaT,
                }))
        if len(right):
            rows.append(pd.DataFrame({
                "kind": "s", "event_id": -1, "user_id": uid, "__bkt": bkt,
                "last_right_ts": [right["ts"].iloc[-1]],
            }))
        return pd.concat(rows, ignore_index=True) if rows else _EMPTY

    def resolve(g: pd.DataFrame) -> pd.DataFrame:
        # receives ONLY unmatched lefts + bucket summaries for one user
        # (matched rows bypass this groupby so a hot user's RESULTS never
        # re-concentrate in one task)
        out_empty = pd.DataFrame({"event_id": pd.Series(dtype="int64"),
                                  "user_id": pd.Series(dtype="int64"),
                                  "last_right_ts": pd.Series(dtype="datetime64[us]")})
        u = g[g["kind"] == "u"]
        s_ = g[g["kind"] == "s"].sort_values("__bkt")
        if len(u) == 0 or len(s_) == 0:
            return out_empty
        sb = s_["__bkt"].to_numpy()
        sr = s_["last_right_ts"].to_numpy()
        pos = np.searchsorted(sb, u["__bkt"].to_numpy(), side="left") - 1
        ok = pos >= 0
        if not ok.any():
            return out_empty
        return pd.DataFrame({
            "event_id": u["event_id"].to_numpy()[ok],
            "user_id": u["user_id"].to_numpy()[ok],
            "last_right_ts": sr[pos[ok]],
        })

    part = (
        bucketed_group_apply(
            ds.map_batches(bucketed, batch_format="pandas"),
            ["user_id", "__bkt"], per_user_bucket,
        )
        .materialize()  # consumed twice below; results-sized, distributed
    )
    matched = part.map_batches(
        lambda b: b[b["kind"] == "m"][["event_id", "user_id", "last_right_ts"]],
        batch_format="pandas",
    )
    resolved = bucketed_group_apply(
        part.map_batches(lambda b: b[b["kind"] != "m"], batch_format="pandas"),
        ["user_id"], resolve,
    )
    return _finish(matched.union(resolved), ["event_id"],
                   {"event_id": "int64", "user_id": "int64",
                    "last_right_ts": "datetime64[us]"}, as_dataset)


def sliding_window_peak(ds: "ray.data.Dataset", window: str = "6h", step_hours: int = 1,
                        salt_freq: str = "1D",
                        as_dataset: bool = False) -> pd.DataFrame:
    """Per user: the peak event count over sliding windows of `window`
    advancing by `step_hours` (late-data tolerant: windows are derived
    from event time, not arrival order). Returns (user_id, peak_count).

    Hot-key safety: groups are salted by (user, floor(ts, salt_freq))
    with ``salt_freq >= window`` enforced; events in the trailing
    `window` of each bucket REPLICATE into the next bucket as
    non-anchoring context, so a window straddling the boundary is
    counted exactly once (at its anchor's bucket) with its full
    content.  The per-user reduce runs over one peak row per (user,
    bucket)."""
    w = np.timedelta64(int(pd.Timedelta(window).total_seconds()), "s")

    def sweep(ts: np.ndarray, anchors: np.ndarray) -> int:
        # window (ts[i]-w, ts[i]]: start index = first j with ts[j] >
        # ts[i]-w, fully vectorised (searchsorted over the sorted ts);
        # anchors mask which events may anchor a window
        if len(ts) == 0 or not anchors.any():
            return 0
        starts = np.searchsorted(ts, ts - w, side="right")
        counts = np.arange(len(ts)) - starts + 1
        return int(counts[anchors].max())

    if pd.Timedelta(salt_freq) < pd.Timedelta(window):
        raise ValueError("salt_freq must be >= window so context spans one boundary only")

    def explode(batch: pd.DataFrame) -> pd.DataFrame:
        bkt = batch["ts"].dt.floor(salt_freq)
        own = pd.DataFrame({"user_id": batch["user_id"], "__bkt": bkt,
                            "ts": batch["ts"], "anchor": True})
        bkt_end = bkt + pd.Timedelta(salt_freq)
        tail = batch["ts"] >= (bkt_end - pd.Timedelta(window))
        ctx = pd.DataFrame({"user_id": batch.loc[tail, "user_id"],
                            "__bkt": bkt_end[tail], "ts": batch.loc[tail, "ts"],
                            "anchor": False})
        return pd.concat([own, ctx], ignore_index=True)

    def per_user_bucket(g: pd.DataFrame) -> pd.DataFrame:
        if len(g) == 0:
            return pd.DataFrame({"user_id": pd.Series(dtype="int64"),
                                 "peak_count": pd.Series(dtype="int64")})
        g = g.sort_values(["ts", "anchor"])
        peak = sweep(g["ts"].to_numpy(), g["anchor"].to_numpy())
        return pd.DataFrame({"user_id": [g["user_id"].iloc[0]], "peak_count": [peak]})

    def max_user(g: pd.DataFrame) -> pd.DataFrame:
        if len(g) == 0:
            return pd.DataFrame({"user_id": pd.Series(dtype="int64"),
                                 "peak_count": pd.Series(dtype="int64")})
        return pd.DataFrame({"user_id": [g["user_id"].iloc[0]],
                             "peak_count": [int(g["peak_count"].max())]})

    out = bucketed_group_apply(
        bucketed_group_apply(
            ds.map_batches(explode, batch_format="pandas"),
            ["user_id", "__bkt"], per_user_bucket,
        ),
        ["user_id"], max_user,
    )
    return _finish(out, ["user_id"],
                   {"user_id": "int64", "peak_count": "int64"}, as_dataset)
