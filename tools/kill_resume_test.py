"""Chaos test: SIGKILL an encode job mid-flight, resume, verify.

The strongest form of the resume guarantee (SURVEY §5d): a killed job
restarted against the same output directory must skip every completed
partition (files byte-identical), finish the remainder, and pass the
full sha256 verification.  Run standalone:

    python tools/kill_resume_test.py

(Not in the pytest gate: the subprocess+poll+SIGKILL dance takes ~1 min
and depends on timing; the deterministic manifest-deletion resume test
in tests/test_encode_job.py covers the same mechanics.)
"""

import os
import shutil
import signal
import subprocess
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

OUT = "/tmp/skar_kill_test"

CHILD = """
import ray, os, sys
ray.init(address="local", num_cpus=8, include_dashboard=False, logging_level="ERROR")
import ray.data; ray.data.DataContext.get_current().enable_progress_bars = False
sys.path.insert(0, %r)
from skar_ray.corpus import ensure_corpus
from skar_ray.pipelines.encode_job import run_encode_job
d = ensure_corpus(50000)
run_encode_job(os.path.join(d, "corpus.parquet"), %r,
               target_partition_bytes=8<<20, chunk_target_bytes=4<<20, mode="hashed")
""" % (os.path.dirname(os.path.dirname(os.path.abspath(__file__))), OUT)


def main() -> int:
    shutil.rmtree(OUT, ignore_errors=True)
    from skar_ray.state import manifest

    p = subprocess.Popen([sys.executable, "-c", CHILD], stdout=subprocess.DEVNULL,
                         stderr=subprocess.DEVNULL)
    t0 = time.time()
    while time.time() - t0 < 240:
        if len(manifest.scan_manifests(OUT)) >= 5:
            p.send_signal(signal.SIGKILL)
            break
        if p.poll() is not None:
            break
        time.sleep(0.5)
    p.wait()
    partial = manifest.scan_manifests(OUT)
    print(f"killed with {len(partial)} partitions done")
    assert partial, "job finished before the kill — rerun"

    import ray

    ray.init(address="local", num_cpus=8, include_dashboard=False, logging_level="ERROR")
    import ray.data

    ray.data.DataContext.get_current().enable_progress_bars = False
    import pyarrow.compute as pc

    from skar_ray.corpus import ensure_corpus
    from skar_ray.pipelines.decode_job import run_verify_job
    from skar_ray.pipelines.encode_job import run_encode_job

    d = ensure_corpus(50000)
    # the partitions the kill left committed; a container it published
    # without a manifest is swept by the resume, not reused
    before = {m.data_file: os.path.getmtime(os.path.join(OUT, m.data_file)) for m in partial.values()}
    s = run_encode_job(os.path.join(d, "corpus.parquet"), OUT,
                       target_partition_bytes=8 << 20, chunk_target_bytes=4 << 20, mode="hashed")
    skipped = s.filter(pc.field("skipped")).num_rows
    untouched = sum(1 for f in before if os.path.getmtime(os.path.join(OUT, f)) == before[f])
    print(f"resume: {s.num_rows} partitions, {skipped} skipped, files untouched {untouched}/{len(before)}")
    v = run_verify_job(os.path.join(d, "corpus.parquet"), OUT)
    print("verify:", v)
    ray.shutdown()
    ok = v["rows_match"] and v["digests_verified"] and untouched == len(before)
    print("KILL-RESUME", "OK" if ok else "FAILED")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
