"""The one key hash behind the partition salt and the join buckets.

``groups.key_hash64`` must be stable (golden values: salted partitions
are persisted, so a hash change must be a deliberate ``SALT_VERSION``
bump, never a silent library upgrade) and canonical (one logical value,
one hash, whatever its physical Arrow type or chunking).  The bucketed
joins lean on the second property: a key typed int32 on one side and
int64 on the other, or string against large_string, must meet in one
bucket.
"""

import numpy as np
import pandas as pd
import pyarrow as pa
import pytest

from skar_ray.stages.groups import key_hash64

GOLDEN = {
    # (values, type) -> expected uint64 hashes
    (("a", "bc", "", None), "string"): [
        13950350942979735504, 6429939465925716527, 1760245841805064774, 6616326155283851669,
    ],
    ((1, -2, 0, None), "int64"): [
        6238072747940578789, 15719503542151743746, 0, 6616326155283851669,
    ],
    ((2**64 - 1,), "uint64"): [13029008266876403067],
    ((0.5,), "double"): [306524380890059637],
}


@pytest.mark.parametrize("case", list(GOLDEN))
def test_golden_values(case):
    values, typ = case
    got = key_hash64(pa.array(list(values), type=pa.type_for_alias(typ)))
    assert got.dtype == np.uint64
    assert got.tolist() == GOLDEN[case]


STRINGS = ["src/a.py", "", "ünïcode/ß.rs", "b" * 300, "src/a.py", None]
INTS = [0, 1, -1, 127, -128, 99, None, 1]


@pytest.mark.parametrize("typ", [pa.string(), pa.large_string(), pa.binary(), pa.large_binary()])
def test_string_flavours_hash_their_bytes_alike(typ):
    want = key_hash64(pa.array(STRINGS))
    is_bin = pa.types.is_binary(typ) or pa.types.is_large_binary(typ)
    vals = [s.encode() if is_bin and s is not None else s for s in STRINGS]
    assert key_hash64(pa.array(vals, type=typ)).tolist() == want.tolist()
    assert key_hash64(pa.array(vals, type=typ).dictionary_encode()).tolist() == want.tolist()


@pytest.mark.parametrize("typ", [pa.int8(), pa.int16(), pa.int32(), pa.int64()])
def test_integer_widths_hash_alike(typ):
    want = key_hash64(pa.array(INTS, type=pa.int64()))
    assert key_hash64(pa.array(INTS, type=typ)).tolist() == want.tolist()
    unsigned = [v if v is None or v >= 0 else None for v in INTS]
    assert (key_hash64(pa.array(unsigned, type=pa.uint32())).tolist()
            == key_hash64(pa.array(unsigned, type=pa.int64())).tolist())


def test_float_widths_hash_alike_and_minus_zero_is_zero():
    vals = [0.5, -0.0, 0.0, 2.25, None]
    h = key_hash64(pa.array(vals, type=pa.float64()))
    assert key_hash64(pa.array(vals, type=pa.float32())).tolist() == h.tolist()
    assert h[1] == h[2]


def test_chunking_slicing_and_nulls_do_not_move_a_hash():
    arr = pa.array(STRINGS * 3)
    whole = key_hash64(arr)
    chunked = pa.chunked_array([arr.slice(0, 4), arr.slice(4, 0), arr.slice(4)])
    assert key_hash64(chunked).tolist() == whole.tolist()
    assert key_hash64(arr.slice(5, 7)).tolist() == whole[5:12].tolist()
    # a value hashes the same with or without nulls around it
    no_nulls = [s for s in STRINGS if s is not None]
    assert key_hash64(pa.array(no_nulls)).tolist() == [h for s, h in zip(STRINGS, whole) if s is not None]
    # every null maps to one value, whatever the type
    types = (pa.null(), pa.string(), pa.large_binary(), pa.int32(), pa.uint64(), pa.float64(), pa.date32())
    nulls = {int(key_hash64(pa.array([None], type=t))[0]) for t in types}
    assert len(nulls) == 1
    assert key_hash64(pa.chunked_array([], type=pa.string())).tolist() == []


def _sql_join(left: pd.DataFrame, right: pd.DataFrame, key: str, how: str) -> pd.DataFrame:
    """pandas merge with SQL null semantics: a null key matches nothing."""
    l, r = left[left[key].notna()], right[right[key].notna()]
    out = l.merge(r, on=key, how=how)
    if how == "left":
        out = pd.concat([out, left[left[key].isna()]], ignore_index=True)
    return out


def _rows(df: pd.DataFrame, cols: list[str]) -> list[tuple]:
    def norm(v):
        if v is None or (isinstance(v, float) and np.isnan(v)):
            return None
        return int(v) if isinstance(v, (int, np.integer, float, np.floating)) else v
    return sorted((tuple(norm(v) for v in row) for row in df[cols].itertuples(index=False)),
                  key=repr)


KEY_PAIRS = {
    "int32_vs_int64": ([3, 1, None, 7, 1, 12], pa.int32(), [1, 7, None, 9, 12, 12], pa.int64()),
    "string_vs_large_string": (["x", "y", None, "z", "x", "w"], pa.string(),
                               ["x", None, "z", "q", "w", "w"], pa.large_string()),
}


@pytest.mark.parametrize("case", list(KEY_PAIRS))
def test_bucket_joins_match_pandas_across_key_types(ray_session, case):
    import ray.data

    from skar_ray.stages.joins import bucket_anti_join, bucket_hash_join

    lk, lt, rk, rt = KEY_PAIRS[case]
    left = pa.table({"k": pa.array(lk, type=lt), "lv": list(range(len(lk)))})
    right = pa.table({"k": pa.array(rk, type=rt), "rv": [10 * i for i in range(len(rk))]})
    ldf, rdf = left.to_pandas(), right.to_pandas()
    for how in ("inner", "left"):
        got = bucket_hash_join(ray.data.from_arrow(left), ray.data.from_arrow(right),
                               "k", n_buckets=5, how=how).to_pandas()
        want = _sql_join(ldf, rdf, "k", how)
        assert _rows(got, ["k", "lv", "rv"]) == _rows(want, ["k", "lv", "rv"]), how
    got = bucket_anti_join(ray.data.from_arrow(left), ray.data.from_arrow(right), "k",
                           n_buckets=5).to_pandas()
    want = ldf[~ldf["k"].isin(rdf["k"].dropna())]
    assert _rows(got, ["k", "lv"]) == _rows(want, ["k", "lv"])
