"""The hash exchange's map side, reduce launch order and task calls.

A map writes each pkey's rows of a flush as one Arrow IPC stream and
puts it once; the driver launches the reduces of ready pkeys largest
first, by the bytes the maps reported.  The remote functions are called
only through ``.remote(...)`` with positional arguments, so a wrapper
that replaces them (a traced run's, or a test's) sees every call.
"""

import ast
import collections
import os
import pathlib

import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq

from skar_ray.corpus import ensure_corpus, read_corpus_table
from skar_ray.pipelines import encode_job, hash_exchange
from skar_ray.stages import partitioner


def _rows(t: pa.Table) -> collections.Counter:
    return collections.Counter(tuple(r.values()) for r in t.to_pylist())


def _flushes(files: list, buffer_bytes: int):
    """The map's flush buffers, rebuilt the way ``_map_split`` fills them."""
    buf, n = [], 0
    for t in hash_exchange._source_tables(files):
        buf.append(t)
        n += t.nbytes
        if n >= buffer_bytes:
            yield pa.concat_tables(buf)
            buf, n = [], 0
    if buf:
        yield pa.concat_tables(buf)


def test_map_split_puts_one_stream_per_flush_and_pkey(ray_session, monkeypatch):
    import ray

    corpus = os.path.join(ensure_corpus(2000), "corpus.parquet")
    files = partitioner.input_paths(corpus)
    plan, _ = encode_job._cached_plan(corpus, 1 << 20)
    keyed = partitioner.assign_pkeys(read_corpus_table(corpus), plan)
    pkeys = set(keyed.column("pkey").to_pylist())
    skip = frozenset({min(pkeys)})
    real_put = ray.put
    for buffer_bytes in (hash_exchange._MAP_BUFFER_BYTES, 256 << 10):
        puts = []
        monkeypatch.setattr(ray, "put", lambda x, **kw: puts.append(x) or real_put(x, **kw))
        out = hash_exchange._map_split._function(files, plan, skip, buffer_bytes)
        monkeypatch.undo()
        flushes = list(_flushes(files, buffer_bytes))
        expected = sum(len(set(partitioner.assign_pkeys(f, plan).column("pkey").to_pylist()) - skip)
                       for f in flushes)
        assert len(puts) == expected == sum(len(v) for v in out.values())
        assert set(out) == pkeys - skip
        if len(flushes) == 1:
            assert all(len(v) == 1 for v in out.values())
        else:
            assert len(puts) > len(out), "the small buffer made one flush"
        for pk, shipped in out.items():
            streams = ray.get([r for r, _ in shipped])
            assert [s.nbytes for s in streams] == [n for _, n in shipped]
            got = pa.concat_tables([pa.ipc.open_stream(pa.py_buffer(s)).read_all() for s in streams])
            assert _rows(got) == _rows(keyed.filter(pc.equal(keyed.column("pkey"), pk)))


def test_ready_reduces_launch_largest_first(ray_session, tmp_path, monkeypatch):
    """Pkeys ready together launch by the bytes the maps reported, the
    largest first; so do the pkeys only a container emits, which launch
    once every map is done."""
    import ray

    path = str(tmp_path / "part.parquet")
    pq.write_table(pa.table({"repo": ["r0", "r1", "r2"]}), path)
    plan = partitioner.PartitionPlan(repos={"r0": (0, 1), "r1": (1, 1), "r2": (2, 1)},
                                     n_partitions=3, target_bytes=1 << 20)
    sizes = {True: {0: 10, 1: 30, 2: 20}, False: {5: 1, 6: 50}}
    launched = []

    class Map:
        def remote(self, group, plan, skip_pkeys, buffer_bytes):
            shipped = sizes[isinstance(group[0], str)]
            return ray.put({pk: [(ray.put(pk), n)] for pk, n in shipped.items()})

    class Reduce:
        def remote(self, pkey, refs, *args):
            launched.append(pkey)
            return ray.put({"partition_id": pkey})

    monkeypatch.setattr(hash_exchange, "_map_split", Map())
    monkeypatch.setattr(hash_exchange, "_reduce_encode", Reduce())
    summary = hash_exchange.run_hashed_encode(
        [path, (str(tmp_path), "x.skarc", 5, "")], str(tmp_path / "out"), plan, 1 << 20, {})
    assert launched == [1, 2, 0, 6, 5]
    assert summary.column("partition_id").to_pylist() == launched


def test_remote_functions_are_called_only_through_remote():
    """A ``num_returns``/``.options`` design would bypass the wrappers
    that replace the remote functions, and a traced run would lose its
    exchange spans without failing."""
    tree = ast.parse(pathlib.Path(hash_exchange.__file__).read_text())
    decorated = [(node.name, ast.unparse(d)) for node in ast.walk(tree)
                 if isinstance(node, ast.FunctionDef) for d in node.decorator_list]
    # a bare decorator: no num_returns or other options
    assert all(d == "ray.remote" for _, d in decorated if "remote" in d), decorated
    remotes = {name for name, d in decorated if d == "ray.remote"}
    assert {"_map_split", "_reduce_encode"} <= remotes
    parent = {child: node for node in ast.walk(tree) for child in ast.iter_child_nodes(node)}
    uses = [n for n in ast.walk(tree) if isinstance(n, ast.Name) and n.id in remotes]
    assert uses
    for n in uses:
        attr = parent[n]
        assert isinstance(attr, ast.Attribute) and attr.attr == "remote", ast.unparse(attr)
        assert isinstance(parent[attr], ast.Call) and parent[attr].func is attr, ast.unparse(parent[attr])
    assert not any(isinstance(n, ast.Attribute) and n.attr == "options" for n in ast.walk(tree))
