"""One benchmark run: a fresh Ray session, a seeded corpus, one workload.

Load shape: one driver process, one client, closed loop (each op starts
when the previous one has returned and been checked).  Every path the
run touches lies under ``<checkout>/.perfbench_work``.
"""

from __future__ import annotations

import os
import shutil
import signal
import time

from . import queries, stats, trace

# ~6 MB of raw content.  The generator adds one 1-3 MB blob row per 2000
# rows; below that, seeds no longer swing the compression ratio by +-10%
N_ROWS = 1999
# the giant repo salts over several partitions and the zipf tail packs
# into more (12-15).  A run refuses a plan of more than 4 x CPUs
# partitions, so every read takes the task pool: DecoderActor-pool scans
# swung 2.6-7.4 s between runs
TARGET_PARTITION_BYTES = 600_000
CHUNK_TARGET_BYTES = 1 << 20
MIN_ENCODES = 3
READ_CHECK_OPS = 30                # the read check after an encode loop: 27 lookups + 3 scans
MIN_QUERY_OPS = 40                 # the least ops a query_mix run makes, however long they take
SETUP_ROUNDS = 5                   # cold set-ups per run; setup_s takes their median
CORPUS_CACHE_KEEP = 32             # seeded corpora kept between runs (~5 MB each)
WORKLOADS = ("encode_max", "encode_fast", "query_mix")
PLAN_CACHE = "/tmp/skar_ray_plans"  # the library's plan / sidecar cache root


def host_cpus() -> int:
    return len(os.sched_getaffinity(0))


class HostTooSmall(RuntimeError):
    """The plan has more partitions than 4 x CPUs, so scans and verify
    would take the DecoderActor pool and the workloads would change
    meaning."""


# ------------------------------------------------------------ environment


_plan_root = PLAN_CACHE


def redirect_plan_cache(new_root: str) -> None:
    """Point the library's hard-wired plan/sidecar cache at ``new_root``
    by rewriting the string constants of the functions that build those
    paths.  Keeps the run inside its checkout and makes every run's plan
    cache cold."""
    global _plan_root
    from skar_ray.pipelines import encode_job, hash_exchange

    old_root = _plan_root
    _plan_root = new_root

    def fix(code):
        consts = []
        for c in code.co_consts:
            if isinstance(c, str) and c.startswith(old_root):
                c = new_root + c[len(old_root):]
            elif hasattr(c, "co_consts"):  # nested functions
                c = fix(c)
            consts.append(c)
        return code.replace(co_consts=tuple(consts))

    for mod in (encode_job, hash_exchange):
        for obj in list(vars(mod).values()):
            fn = getattr(obj, "_function", obj)  # unwrap @ray.remote
            if getattr(fn, "__module__", None) == mod.__name__ and hasattr(fn, "__code__"):
                fn.__code__ = fix(fn.__code__)


def corpus_for(work: str, seed: int) -> str:
    """The seeded corpus (``corpus.ensure_corpus``), cached between runs
    under the work dir; the least recently used copies beyond
    ``CORPUS_CACHE_KEEP`` are removed."""
    from skar_ray.corpus import corpus_cache_dir, ensure_corpus

    root = os.path.join(work, "corpus")
    d = ensure_corpus(N_ROWS, seed, root=root)
    os.utime(d)
    keep = corpus_cache_dir(N_ROWS, seed, root)
    dirs = sorted((os.path.join(root, x) for x in os.listdir(root)),
                  key=os.path.getmtime, reverse=True)
    for old in dirs[CORPUS_CACHE_KEEP:]:
        if old != keep:
            shutil.rmtree(old, ignore_errors=True)
    return d


def _children() -> dict[int, list[int]]:
    kids: dict[int, list[int]] = {}
    for p in os.listdir("/proc"):
        if not p.isdigit():
            continue
        try:
            with open(f"/proc/{p}/stat") as f:
                ppid = int(f.read().rsplit(")", 1)[1].split()[1])
        except (OSError, IndexError, ValueError):
            continue
        kids.setdefault(ppid, []).append(int(p))
    return kids


def descendants(pid: int) -> list[int]:
    kids = _children()
    out, todo = [], [pid]
    while todo:
        for c in kids.get(todo.pop(), []):
            out.append(c)
            todo.append(c)
    return out


def _alive(pid: int) -> bool:
    try:
        with open(f"/proc/{pid}/stat") as f:
            return f.read().rsplit(")", 1)[1].split()[0] != "Z"
    except OSError:
        return False


def worker_hwm_mb() -> float:
    """Largest VmHWM (peak resident set) of this run's Ray worker processes."""
    best = 0.0
    for pid in descendants(os.getpid()):
        try:
            with open(f"/proc/{pid}/cmdline", "rb") as f:
                cmd = f.read()
            if b"default_worker.py" not in cmd and not cmd.startswith(b"ray::"):
                continue
            with open(f"/proc/{pid}/status") as f:
                for line in f:
                    if line.startswith("VmHWM:"):
                        best = max(best, int(line.split()[1]) / 1024.0)
        except OSError:
            continue
    return best


class Session:
    """A Ray session owned by this run, stopped with all its processes."""

    def __init__(self, root: str, trace_dir: str | None):
        self.root = root
        self.trace_dir = trace_dir
        self.tmp = None

    def start(self) -> None:
        import ray

        os.environ["PYTHONPATH"] = os.pathsep.join(
            [self.root] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p])
        os.environ["RAY_USAGE_STATS_ENABLED"] = "0"
        kwargs = {}
        if self.trace_dir is not None:
            os.environ[trace.TRACE_DIR_ENV] = self.trace_dir
            kwargs["runtime_env"] = {"worker_process_setup_hook": "perfbench.trace.worker_setup"}
        # unix socket paths are capped at 107 bytes and Ray appends up to ~64
        # (session_<date>_<time>_<us>_<pid>/sockets/plasma_store); a deeper
        # checkout falls back to a private temp dir, removed in stop()
        self.tmp = os.path.join(self.root, ".perfbench_work", "ray")
        if len(self.tmp) > 42:
            import tempfile

            self.tmp = tempfile.mkdtemp(prefix="pfb")
        ray.init(num_cpus=host_cpus(), include_dashboard=False, log_to_driver=False,
                 logging_level="ERROR", object_store_memory=512 << 20,
                 _temp_dir=self.tmp, **kwargs)
        import ray.data

        ray.data.DataContext.get_current().enable_progress_bars = False

    def stop(self) -> None:
        import ray

        procs = descendants(os.getpid())
        if ray.is_initialized():
            ray.shutdown()
        deadline = time.monotonic() + 15
        while time.monotonic() < deadline and any(_alive(p) for p in procs):
            time.sleep(0.1)
        for p in procs:
            if _alive(p):
                try:
                    os.kill(p, signal.SIGKILL)
                except OSError:
                    pass
        deadline = time.monotonic() + 5
        while time.monotonic() < deadline and any(_alive(p) for p in procs):
            time.sleep(0.1)
        if self.tmp:
            shutil.rmtree(self.tmp, ignore_errors=True)


# ------------------------------------------------------------ the run


class Run:
    def __init__(self, root: str, workload: str, seed: int, seconds: float, traced: bool):
        if workload not in WORKLOADS:
            raise ValueError(f"unknown workload {workload!r}; choose from {WORKLOADS}")
        self.root = root
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.work = os.path.join(root, ".perfbench_work")
        self.run_dir = os.path.join(self.work, f"run-{os.getpid()}")
        self.trace_dir = os.path.join(self.run_dir, "trace") if traced else None
        self.rec = trace.Recorder() if traced else None
        self.ops: list[dict] = []
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.peak_rss = 0.0
        self.facts: dict = {}
        self._first_encode = None

    # -- ops ----------------------------------------------------------
    def op(self, kind: str, fn, *args, **kwargs):
        """Time one op; in traced runs it is also the root span of its work."""
        oid = len(self.ops) + 1
        span = None
        if self.rec is not None:
            self.rec.op = oid
            span = self.rec.begin("op", note=kind)
        t0 = time.monotonic_ns()
        try:
            return fn(*args, **kwargs)
        finally:
            t1 = time.monotonic_ns()
            if span is not None:
                self.rec.end(span)
                self.rec.op = None
            self.ops.append({"id": oid, "kind": kind, "t0": t0, "t1": t1})
            self.peak_rss = max(self.peak_rss, worker_hwm_mb())

    def last_ms(self) -> float:
        return (self.ops[-1]["t1"] - self.ops[-1]["t0"]) / 1e6

    def check(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.failures.append(what)

    # -- steps --------------------------------------------------------
    def encode(self, corpus: str, out: str, profile: str, n_rows: int, kind: str):
        """One encode into a fresh ``out``; checks that it wrote what the
        run's first encode wrote and every source row.  Returns the
        summary sorted by partition id."""
        from skar_ray.pipelines import encode_job

        shutil.rmtree(out, ignore_errors=True)
        summary = self.op(kind, encode_job.run_encode_job, corpus, out,
                          target_partition_bytes=TARGET_PARTITION_BYTES,
                          chunk_target_bytes=CHUNK_TARGET_BYTES, mode="hashed",
                          profile=profile, validate=True)
        summary = summary.to_pandas().sort_values("partition_id").reset_index(drop=True)
        shape = summary[["partition_id", "n_rows", "enc_bytes", "content_sha256"]]
        if self._first_encode is None:
            self._first_encode = shape
        self.check(shape.equals(self._first_encode),
                   "encode output differs from the run's first encode")
        self.check(int(summary["n_rows"].sum()) == n_rows, "encoded row count")
        return summary

    def query(self, store: str, q: dict, source) -> None:
        import pyarrow as pa
        import ray
        from skar_ray.pipelines import query_encoded

        def run():
            ds = query_encoded.query_encoded(store, columns=q["columns"], filters=q["filters"])
            parts = [t for t in ray.get(ds.to_arrow_refs()) if t.num_columns]
            return pa.concat_tables(parts) if parts else None

        got = self.op(q["kind"], run)
        want = queries.oracle(source, q["columns"], q["filters"])
        have = queries.digest(got.select(q["columns"])) if got is not None else (0, None)
        if want[0] == 0 and have[0] == 0:
            have = want
        self.check(have == want, f"{q['kind']} {q['filters']}: {have[0]} rows != {want[0]}")

    def verify(self, corpus: str, store: str) -> float:
        from skar_ray.pipelines import decode_job

        try:
            res = self.op("verify", decode_job.run_verify_job, corpus, store)
            self.check(bool(res["rows_match"]) and bool(res["digests_verified"]),
                       f"verify {res}")
        except Exception as e:  # a digest mismatch raises inside the job
            self.check(False, f"verify raised {type(e).__name__}: {e}")
        return self.last_ms() / 1e3

    def store_facts(self, store: str, summary) -> dict:
        """Exact byte and partition counts of a finished store."""
        from skar_ray.state import container, manifest

        per_col: dict[str, int] = {}
        header_bytes = 0
        for name in os.listdir(store):
            if not name.endswith(".skarc"):
                continue
            path = os.path.join(store, name)
            header, blob_start = container.read_header(path)
            header_bytes += blob_start
            for ch in header["chunks"]:
                for cm in ch["columns"]:
                    per_col[cm["name"]] = per_col.get(cm["name"], 0) + cm["length"]
        on_disk = sum(os.path.getsize(os.path.join(store, n))
                      for n in os.listdir(store) if n.endswith(".skarc"))
        mdir = manifest.manifest_dir(store)
        on_disk += sum(os.path.getsize(os.path.join(mdir, n)) for n in os.listdir(mdir))
        timings = 0.0
        for m in manifest.scan_manifests(store).values():
            t = (m.extra or {}).get("timings", {})
            timings += t.get("sort", 0) + t.get("sha256", 0) + t.get("validate", 0)
        raw = sorted(summary["raw_bytes"].tolist())
        return {"bytes": per_col, "header_bytes": header_bytes, "on_disk": on_disk,
                "enc_bytes": int(summary["enc_bytes"].sum()), "partitions": len(raw),
                "skew_ratio": raw[-1] / stats.median(raw), "manifest_timings_s": timings}

    # -- the workload -------------------------------------------------
    def execute(self) -> dict:
        import pyarrow.dataset as pads
        import pyarrow.compute as pc

        os.makedirs(self.run_dir, exist_ok=True)
        src_dir = corpus_for(self.work, self.seed)
        # a fresh copy per set-up round: its new path gives a new plan fingerprint
        copies = [os.path.join(self.run_dir, f"corpus-{i}.parquet") for i in range(SETUP_ROUNDS)]
        for c in copies:
            shutil.copytree(os.path.join(src_dir, "corpus.parquet"), c)
        ref_bytes = os.path.getsize(os.path.join(src_dir, "reference_zstd.parquet"))
        source = pads.dataset(copies[0]).to_table()
        raw_mb = pc.sum(pc.binary_length(source.column("content"))).as_py() / 1e6

        import skar_ray.pipelines.encode_job  # noqa: F401
        import skar_ray.pipelines.hash_exchange  # noqa: F401

        redirect_plan_cache(os.path.join(self.run_dir, "plans"))
        session = Session(self.root, self.trace_dir)
        if self.trace_dir is not None:
            os.makedirs(self.trace_dir, exist_ok=True)
        t_setup = time.monotonic()
        try:
            session.start()
            if self.rec is not None:
                from . import layers

                layers.install_driver(self.rec)
            return self._workload(t_setup, copies, source, raw_mb, ref_bytes)
        finally:
            session.stop()

    def setup_round(self, corpus: str, n_rows: int):
        """One cold set-up on a fresh corpus copy: a Ray Data row count,
        the partition-plan pre-pass and the file-repo sidecar reads.
        Returns the partition plan."""
        import ray.data
        from skar_ray.pipelines import encode_job, hash_exchange

        n = ray.data.read_parquet(corpus, columns=["repo"]).count()
        self.check(n == n_rows, f"source row count {n} != {n_rows}")
        plan, _ = encode_job._cached_plan(corpus, TARGET_PARTITION_BYTES)
        hash_exchange.file_repo_sets(sorted(
            os.path.join(corpus, f) for f in os.listdir(corpus) if f.endswith(".parquet")))
        return plan

    def _workload(self, t_setup, copies, source, raw_mb, ref_bytes) -> dict:
        profile = "fast" if self.workload == "encode_fast" else "max"
        session_s = time.monotonic() - t_setup
        rounds: list[float] = []
        for corpus in copies:
            plan = self.op("setup", self.setup_round, corpus, source.num_rows)
            rounds.append(self.last_ms() / 1e3)
            if plan.n_partitions > 4 * host_cpus():
                raise HostTooSmall(
                    f"the plan has {plan.n_partitions} partitions, more than 4 x {host_cpus()} "
                    f"CPUs; this benchmark needs at least {-(-plan.n_partitions // 4)} CPUs")
        setup_s = session_s + stats.median(rounds)
        store = os.path.join(self.run_dir, "store")
        encode_s: list[float] = []
        if self.workload == "query_mix":
            summary = self.encode(corpus, store, profile, source.num_rows, "build")
            encode_s.append(self.last_ms() / 1e3)
            setup_s += encode_s[-1]
            read_ops = queries.make_ops(source, self.seed, 100_000)
            t0 = time.monotonic()
            i = 0
            while i < MIN_QUERY_OPS or time.monotonic() - t0 < self.seconds:
                self.query(store, read_ops[i], source)
                i += 1
        else:
            # the session's first encode also imports the codecs into the
            # workers (2.8 s against 2.1-2.3 s warm on 4 CPUs); it is checked
            # but not timed
            self.encode(corpus, store, profile, source.num_rows, "warmup")
            t0 = time.monotonic()
            while len(encode_s) < MIN_ENCODES or time.monotonic() - t0 < self.seconds:
                summary = self.encode(corpus, store, profile, source.num_rows, "encode")
                encode_s.append(self.last_ms() / 1e3)
            for q in queries.make_ops(source, self.seed, READ_CHECK_OPS):
                self.query(store, q, source)
        verify_s = self.verify(corpus, store)

        self.facts = self.store_facts(store, summary)
        lookups = [(o["t1"] - o["t0"]) / 1e6 for o in self.ops if o["kind"] == "lookup"]
        scans = [(o["t1"] - o["t0"]) / 1e6 for o in self.ops if o["kind"] == "scan"]
        tail_pct, tail_ms, n_lookups = stats.tail_percentile(lookups)
        self.peak_rss = max(self.peak_rss, worker_hwm_mb())
        return {
            "setup_s": setup_s,
            "encode_mb_s": raw_mb / stats.median(encode_s),
            "compression_ratio": ref_bytes / self.facts["enc_bytes"],
            "file_compression_ratio": ref_bytes / self.facts["on_disk"],
            "lookup_p50_ms": stats.median(lookups),
            "lookup_tail_ms": tail_ms,
            "scan_p50_ms": stats.median(scans),
            "verify_mb_s": raw_mb / verify_s,
            "peak_worker_rss_mb": self.peak_rss,
            "error_rate": self.failed / max(1, self.attempted),
            "_samples": {"encodes": len(encode_s), "lookups": n_lookups,
                         "lookup_tail_pct": tail_pct, "scans": len(scans),
                         "raw_mb": raw_mb, "partitions": self.facts["partitions"],
                         "cpus": host_cpus(), "session_s": session_s, "setup_rounds": rounds},
        }

    def per_layer(self) -> dict[str, float]:
        from . import layers

        spans = list(self.rec.spans) + trace.load_spans(self.trace_dir)
        return layers.compute(spans, self.ops, os.getpid(), self.facts)
