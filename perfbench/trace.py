"""Span recording from outside the library, and self-time analysis.

A span is one call of a wrapped library function: name, op id, span
id, parent span id, pid, ``time.monotonic_ns()`` start and end, bytes
in and out, and a short note.  In the driver the wrappers replace module
attributes; in Ray workers the same wrappers are installed by
``worker_setup``, which the benchmark passes to ``ray.init`` as the
``worker_process_setup_hook``.  Spans stay in memory; a worker appends
its spans to ``<trace dir>/spans-<pid>.jsonl`` when its outermost span
ends, and the driver reads every file after the run.

``CLOCK_MONOTONIC`` is shared by all processes of one host, so a
worker's root span is attached to the innermost driver span that was
open when it started; self times then follow from one tree.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import threading
import time

TRACE_DIR_ENV = "PERFBENCH_TRACE_DIR"


class Recorder:
    """In-memory span store for one process."""

    def __init__(self, out_dir: str | None = None):
        self.pid = os.getpid()
        self.out_dir = out_dir
        self.spans: list[dict] = []
        self.op: int | None = None
        self._local = threading.local()
        self._lock = threading.Lock()
        self._next_id = 0
        self._unflushed = 0

    def _stack(self) -> list[int]:
        st = getattr(self._local, "stack", None)
        if st is None:
            st = self._local.stack = []
        return st

    def begin(self, name: str, note=None, launch_ns: int | None = None) -> dict:
        with self._lock:
            self._next_id += 1
            sid = self._next_id
        stack = self._stack()
        span = {"n": name, "id": sid, "p": stack[-1] if stack else None,
                "pid": self.pid, "op": self.op, "t0": time.monotonic_ns(),
                "t1": None, "bi": 0, "bo": 0, "note": note}
        if launch_ns is not None:
            span["launch"] = launch_ns
        stack.append(sid)
        return span

    def end(self, span: dict) -> None:
        span["t1"] = time.monotonic_ns()
        stack = self._stack()
        stack.pop()
        with self._lock:
            self.spans.append(span)
            self._unflushed += 1
        if not stack and self.out_dir is not None:
            self.flush()

    def flush(self) -> None:
        with self._lock:
            if not self._unflushed:
                return
            new = self.spans[-self._unflushed:]
            self._unflushed = 0
        path = os.path.join(self.out_dir, f"spans-{self.pid}.jsonl")
        with open(path, "a") as f:
            for s in new:
                f.write(json.dumps(s) + "\n")


def wrap(rec: Recorder, name: str, fn, bytes_in=None, bytes_out=None, note=None):
    """``fn`` with a span around every call.  ``bytes_in(args, kwargs)``,
    ``bytes_out(result)`` and ``note(args, kwargs, result)`` are optional
    extractors; an extractor that raises records 0 / None."""

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        span = rec.begin(name)
        try:
            result = fn(*args, **kwargs)
        except BaseException as e:
            span["note"] = f"raised {type(e).__name__}"
            rec.end(span)
            raise
        try:
            if bytes_in is not None:
                span["bi"] = int(bytes_in(args, kwargs))
            if bytes_out is not None:
                span["bo"] = int(bytes_out(result))
            if note is not None:
                span["note"] = note(args, kwargs, result)
        except Exception:  # extractors must never change the program's behaviour
            pass
        rec.end(span)
        return result

    traced.__wrapped_by_perfbench__ = True
    return traced


def patch(rec: Recorder, module: str, attr: str, name: str, **extractors) -> None:
    """Replace ``module.attr`` (or ``module.Class.method``) with a traced
    wrapper; a no-op when it is already wrapped or no longer exists."""
    mod = importlib.import_module(module)
    owner = mod
    *path, leaf = attr.split(".")
    for p in path:
        owner = getattr(owner, p, None)
        if owner is None:
            return
    fn = getattr(owner, leaf, None)
    if fn is None or getattr(fn, "__wrapped_by_perfbench__", False):
        return
    setattr(owner, leaf, wrap(rec, name, fn, **extractors))


# ---------------------------------------------------------------- workers

_WORKER_REC: Recorder | None = None


def worker_recorder() -> Recorder:
    global _WORKER_REC
    if _WORKER_REC is None:
        _WORKER_REC = Recorder(os.environ.get(TRACE_DIR_ENV))
    return _WORKER_REC


def worker_setup() -> None:
    """``worker_process_setup_hook``: install the worker-side wrappers."""
    from . import layers

    layers.install_worker(worker_recorder())


def traced_task(name: str, fn, launch_ns: int, *args, **kwargs):
    """Body of a replacement remote function: the original task body
    inside a span that also records when the driver launched it."""
    rec = worker_recorder()
    span = rec.begin(name, launch_ns=launch_ns)
    try:
        return fn(*args, **kwargs)
    finally:
        rec.end(span)


class TracedRemote:
    """Stands in for a ``@ray.remote`` function of the library: the same
    body and options, run inside ``traced_task``."""

    def __init__(self, orig, name: str):
        import ray

        self._name = name
        self._fn = orig._function
        self._remote = ray.remote(traced_task).options(**(orig._default_options or {}))

    def remote(self, *args, **kwargs):
        return self._remote.remote(self._name, self._fn, time.monotonic_ns(), *args, **kwargs)


# ---------------------------------------------------------------- analysis


def load_spans(trace_dir: str) -> list[dict]:
    spans: list[dict] = []
    for fn in sorted(os.listdir(trace_dir)):
        if fn.startswith("spans-") and fn.endswith(".jsonl"):
            with open(os.path.join(trace_dir, fn)) as f:
                spans.extend(json.loads(line) for line in f if line.strip())
    return spans


def union_ns(intervals: list[tuple[int, int]]) -> int:
    """Total length covered by a set of possibly overlapping intervals."""
    total = 0
    cur_s = cur_e = None
    for s, e in sorted(intervals):
        if cur_e is None or s > cur_e:
            if cur_e is not None:
                total += cur_e - cur_s
            cur_s, cur_e = s, e
        elif e > cur_e:
            cur_e = e
    if cur_e is not None:
        total += cur_e - cur_s
    return total


def build_tree(spans: list[dict], driver_pid: int) -> None:
    """Give every span a global key ``k`` and a parent key ``pk``.

    Within a process the recorded parent is used.  A root span of another
    process is attached to the innermost driver span open at its start
    (latest start among the driver spans containing it), and inherits
    that span's op id.
    """
    for s in spans:
        s["k"] = (s["pid"], s["id"])
        s["pk"] = (s["pid"], s["p"]) if s["p"] is not None else None
    driver = sorted((s for s in spans if s["pid"] == driver_pid), key=lambda s: s["t0"])
    by_key = {s["k"]: s for s in spans}
    for s in spans:
        if s["pid"] == driver_pid or s["pk"] is not None:
            continue
        best = None
        for d in driver:
            if d["t0"] > s["t0"]:
                break
            if d["t1"] >= s["t0"] and (best is None or d["t0"] >= best["t0"]):
                best = d
        if best is not None:
            s["pk"] = best["k"]
    # op ids flow down from the driver through attached worker roots
    def op_of(s):
        seen = []
        while s.get("op") is None and s["pk"] is not None and s["pk"] in by_key:
            seen.append(s)
            s = by_key[s["pk"]]
        op = s.get("op")
        for x in seen:
            x["op"] = op
        return op

    for s in spans:
        op_of(s)


def self_times(spans: list[dict]) -> None:
    """Set ``self_ns`` on every span: duration minus the part of it that
    its children's intervals cover (overlapping children counted once)."""
    children: dict = {}
    for s in spans:
        if s.get("pk") is not None:
            children.setdefault(s["pk"], []).append(s)
    for s in spans:
        kids = children.get(s["k"], [])
        covered = union_ns([(max(c["t0"], s["t0"]), min(c["t1"], s["t1"]))
                            for c in kids if c["t1"] > s["t0"] and c["t0"] < s["t1"]])
        s["self_ns"] = (s["t1"] - s["t0"]) - covered


def has_ancestor(s: dict, by_key: dict, names: set[str]) -> bool:
    k = s.get("pk")
    while k is not None and k in by_key:
        p = by_key[k]
        if p["n"] in names:
            return True
        k = p.get("pk")
    return False
