"""Shared pruning predicate logic for manifests (partition level) and
container chunk stats (row-group level) — skar's prune_query /
row-group-skip logic (/root/reference/skar/src/query/handler.rs:187-250,
data_provider.rs:250-333), conservative: unknown stats ⇒ possible."""

from __future__ import annotations


def _is_int(v) -> bool:
    return isinstance(v, int) and not isinstance(v, bool)


def clause_compute(a, op: str, value):
    """One DNF clause as a pyarrow.compute boolean mask — the single op
    dispatch shared by the decode-and-compare path (_apply_dnf), the
    dict/rle encoded-form evaluator (_dict_value_mask) and the pushdown
    aggregates.  One table: adding an op in one consumer but not the
    others would split behavior by codec."""
    import numpy as np
    import pyarrow as pa
    import pyarrow.compute as pc

    if pa.types.is_integer(a.type):
        # a Python int becomes a scalar of the column's type (pyarrow's
        # own inference picks int64 and raises on uint64 values >= 2**63)
        info = np.iinfo(a.type.to_pandas_dtype())
        lo, hi = int(info.min), int(info.max)
        if op == "in" and all(_is_int(v) for v in value):
            value = [v for v in value if lo <= v <= hi]
            if value:
                return pc.is_in(a, value_set=pa.array(sorted(value), type=a.type))
        elif op in ("==", "!=", "<", "<=", ">", ">=") and _is_int(value):
            if not lo <= value <= hi:
                # every stored value lies on one side of an out-of-range
                # value: answer with an always-true or always-false
                # comparison against the nearer bound (null rows stay null)
                above = value > hi
                everything = op == "!=" or op in (("<", "<=") if above else (">", ">="))
                if above:
                    value, op = hi, ("<=" if everything else ">")
                else:
                    value, op = lo, (">=" if everything else "<")
            value = pa.scalar(value, type=a.type)

    if op == "==":
        return pc.equal(a, value)
    if op == "!=":
        return pc.not_equal(a, value)
    if op == "in":
        if not value:
            # empty set matches nothing; pa.array([]) is null-typed and
            # is_in against a typed column would raise
            return pa.array([False] * len(a))
        return pc.is_in(a, value_set=pa.array(sorted(value)))
    if op == ">=":
        return pc.greater_equal(a, value)
    if op == ">":
        return pc.greater(a, value)
    if op == "<=":
        return pc.less_equal(a, value)
    if op == "<":
        return pc.less(a, value)
    if op == "prefix":
        return pc.starts_with(a, pattern=value)
    if op == "contains":
        return pc.match_substring(a, pattern=value)
    if op == "suffix":
        return pc.ends_with(a, pattern=value)
    raise ValueError(f"unknown op {op}")


def column_stats(name: str, col) -> dict:
    """Partition-level pruning stats for one column — min/max for every
    column, plus the exact distinct-value list for low-cardinality
    string columns and an SBBF sketch for high-cardinality ones (the
    analog of skar's per-folder min/max + distinct-set indexes,
    /root/reference/skar/src/build_parquet_idx.rs:50-115).  Shared by
    the encode path and the derived-column job so a derived column
    prunes exactly like an encode-time one."""
    import pyarrow as pa
    import pyarrow.compute as pc

    try:
        entry = minmax_stat(col)
    except Exception:
        entry = {}
    typ = col.type
    if pa.types.is_string(typ):
        distinct = pc.unique(col.combine_chunks() if isinstance(col, pa.ChunkedArray) else col)
        if len(distinct) <= 64:
            # drop null like container._chunk_stats: sorted() cannot
            # compare None to str, and equality/in clauses (the only
            # consumers) never match null anyway
            entry["distinct"] = sorted(v for v in distinct.to_pylist() if v is not None)
        elif name != "content" and len(distinct) <= 100_000:
            # SBBF sketch over the distinct set — skar's per-folder
            # bloom (build_parquet_idx.rs:96-115) for point lookups
            # on high-cardinality columns (path, commit)
            from .bloom import SplitBlockBloom

            entry["bloom"] = SplitBlockBloom.build(
                [v.encode() for v in distinct.to_pylist() if v is not None]
            ).serialize()
    return entry


def minmax_stat(col) -> dict:
    """Typed min/max stats entry for pruning: tag ``"s"`` for strings
    (truncated, U+10FFFF upper-bound sentinel) / ``"n"`` for numerics
    (native JSON numbers); other types get no min/max (never pruned).
    Comparisons happen in the native type in ``clause_possible`` —
    stringified numerics compare lexicographically and would prune
    wrongly (e.g. min='50', max='1200' claims '== 500' impossible)."""
    import pyarrow as pa
    import pyarrow.compute as pc

    t = col.type
    if len(col) == 0:
        return {}
    if pa.types.is_string(t) or pa.types.is_large_string(t):
        mm = pc.min_max(col)
        lo, hi = mm["min"].as_py(), mm["max"].as_py()
        if lo is None:
            return {}
        if len(lo) > 64:
            lo = lo[:64]
        if len(hi) > 64:
            hi = hi[:64] + "\U0010FFFF"  # truncated max must stay an upper bound
        return {"min": lo, "max": hi, "t": "s"}
    if (pa.types.is_integer(t) or pa.types.is_floating(t)) and not pa.types.is_boolean(t):
        mm = pc.min_max(col)
        lo, hi = mm["min"].as_py(), mm["max"].as_py()
        if lo is None:
            return {}
        return {"min": lo, "max": hi, "t": "n"}
    return {}


def _coerce(st: dict, value):
    """Coerce `value` into the stats' comparison domain.

    Stats carry a type tag: ``"s"`` (string min/max, possibly truncated
    with a U+10FFFF upper-bound sentinel) or ``"n"`` (native JSON
    numbers).  Returns the coerced value or None when comparison would
    be unsound (⇒ caller must not prune); untagged stats never prune.
    """
    t = st.get("t")
    if t == "n":
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            return None
        return value
    if t == "s" and isinstance(value, str):
        return value
    return None


def clause_possible(st: dict, op: str, value) -> bool:
    distinct = st.get("distinct")
    lo, hi = st.get("min"), st.get("max")
    if op in ("==", "in"):
        vals = value if op == "in" else [value]
        if distinct is not None:
            return any(v in distinct for v in vals)
        if st.get("bloom"):
            from .bloom import SplitBlockBloom

            bf = SplitBlockBloom.deserialize(st["bloom"])
            return any(bf.might_contain(str(v).encode()) for v in vals)
        if lo is not None:
            cvals = [_coerce(st, v) for v in vals]
            if any(c is None for c in cvals):
                return True  # mixed/unsound comparison: never prune
            return any(lo <= c <= hi for c in cvals)
        return True
    if op == "prefix" and lo is not None:
        v = _coerce(st, value)
        if not isinstance(v, str) or not isinstance(lo, str):
            return True
        return lo[: len(v)] <= v <= hi[: len(v)]
    if op in ("contains", "suffix"):
        # min/max can't bound a substring/suffix match, but the exact
        # distinct list (kept for low-cardinality string columns) can:
        # prune the partition when no stored value matches the needle
        if distinct is not None and isinstance(value, str):
            hit = (lambda d: value in d) if op == "contains" else (
                lambda d: d.endswith(value)
            )
            return any(isinstance(d, str) and hit(d) for d in distinct)
        return True
    if lo is None:
        return True
    v = _coerce(st, value)
    if v is None:
        return True
    if op in (">=", ">"):
        return hi >= v if op == ">=" else hi > v
    if op in ("<=", "<"):
        return lo <= v if op == "<=" else lo < v
    return True  # != and unknown ops never prune


def dnf_possible(stats_of_col, dnf) -> bool:
    """`stats_of_col(name) -> dict`; True if any disjunct might match."""
    if not dnf:
        return True
    return any(
        all(clause_possible(stats_of_col(c) or {}, op, v) for c, op, v in conj) for conj in dnf
    )
