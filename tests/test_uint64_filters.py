"""Integer filters on a uint64 column, through ``query_encoded``.

A Python int in a clause is compared in the column's own type; a value
outside that type's range (-1, or 2**64 - 1 against a column whose
values all sit lower) still answers exactly: ``==``/``in`` match
nothing, ``!=`` matches every non-null row, and order comparisons
resolve by which side of the range the value lies on.
"""

import operator

import pyarrow as pa
import pyarrow.compute as pc
import pytest

VALUES = [0, 5, 7, 2**63 - 1, 2**63, 2**64 - 1, None, 3, 5, 2**63 + 5]
PROBES = [5, -1, 2**63, 2**64 - 1]
OPS = {"==": operator.eq, "!=": operator.ne, "<": operator.lt, "<=": operator.le,
       ">": operator.gt, ">=": operator.ge}


@pytest.fixture(scope="module")
def store(tmp_path_factory):
    from skar_ray.stages.encoder import encode_partition

    out = str(tmp_path_factory.mktemp("u64"))
    t = pa.table({
        "pkey": pa.array([0] * 5 + [1] * 5, type=pa.int64()),
        "id": list(range(len(VALUES))),
        "u": pa.array(VALUES, type=pa.uint64()),
    })
    for pk in (0, 1):
        encode_partition(t.filter(pc.equal(t["pkey"], pk)), out, 1 << 20)
    return out


def _ids(store, clause) -> list[int]:
    from skar_ray.pipelines.query_encoded import query_encoded

    return sorted(r["id"] for r in query_encoded(store, columns=["id"], filters=[[clause]]).take_all())


@pytest.mark.parametrize("op", list(OPS) + ["in"])
@pytest.mark.parametrize("value", PROBES)
def test_uint64_filters_match_python(ray_session, store, op, value):
    if op == "in":
        want = [i for i, v in enumerate(VALUES) if v is not None and v in (value, 7)]
        assert _ids(store, ("u", "in", [value, 7])) == want
    else:
        want = [i for i, v in enumerate(VALUES) if v is not None and OPS[op](v, value)]
        assert _ids(store, ("u", op, value)) == want
