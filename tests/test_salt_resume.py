"""A resume across a change of the salt function never mixes salts.

Finished partitions are skipped on resume when their manifest carries
the job's fingerprint.  A giant repo's rows are spread over its buckets
by the salt, so a resume that kept buckets written under one salt and
re-encoded the rest under another would drop some rows and duplicate
others.  ``partitioner.SALT_VERSION`` is part of every such fingerprint:
with it bumped, the resume re-encodes the whole store under the new salt.
"""

import collections
import hashlib
import os

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from skar_ray.corpus import ensure_corpus, read_corpus_table
from skar_ray.pipelines import hash_exchange
from skar_ray.pipelines.decode_job import decoded_dataset, run_verify_job
from skar_ray.pipelines.encode_job import _cached_plan, run_encode_job
from skar_ray.stages import partitioner
from skar_ray.state import container, manifest

COLUMNS = ["repo", "path", "commit", "lang", "content"]


def _row_digests(t: pa.Table) -> collections.Counter:
    cols = [t.column(c).to_pylist() for c in COLUMNS]
    return collections.Counter(hashlib.sha256(repr(row).encode()).hexdigest() for row in zip(*cols))


def test_resume_after_a_salt_change_holds_exactly_the_source_rows(ray_session, tmp_path, monkeypatch):
    import ray

    corpus = os.path.join(ensure_corpus(2000), "corpus.parquet")
    out = str(tmp_path / "store")
    target = 1 << 20
    run_encode_job(corpus, out, target_partition_bytes=target, chunk_target_bytes=1 << 20)
    plan, _ = _cached_plan(corpus, target)
    start, n_buckets = max(plan.repos.values(), key=lambda v: v[1])
    assert n_buckets > 1, "corpus has no salted repo"
    os.remove(os.path.join(manifest.manifest_dir(out), f"part-{start:06d}.json"))

    # another salt function: every salted row moves one bucket on.  The
    # maps run in Ray workers, so the swap happens inside the map task
    split = hash_exchange._map_split._function

    @ray.remote
    def map_split_other_salt(*args):
        from skar_ray.stages import partitioner as p

        real = p.assign_pkeys

        def rotated(batch, plan):
            keyed = real(batch, plan)
            s, nb = (np.array(v) for v in zip(*(plan.repos.get(r, (0, 1))
                                                 for r in batch.column("repo").to_pylist())))
            pkey = s + (np.asarray(keyed.column("pkey")) - s + 1) % nb
            return keyed.set_column(keyed.num_columns - 1, "pkey", pa.array(pkey, type=pa.int64()))

        p.assign_pkeys = rotated
        try:
            return split(*args)
        finally:
            p.assign_pkeys = real

    monkeypatch.setattr(hash_exchange, "_map_split", map_split_other_salt)
    monkeypatch.setattr(partitioner, "SALT_VERSION", partitioner.SALT_VERSION + 1)
    summary = run_encode_job(corpus, out, target_partition_bytes=target, chunk_target_bytes=1 << 20)

    verify = run_verify_job(corpus, out)
    assert verify["rows_match"], verify
    src = read_corpus_table(corpus)
    got = pa.Table.from_pandas(decoded_dataset(out, verify=True).to_pandas(), preserve_index=False)
    assert _row_digests(got) == _row_digests(src)
    assert not any(summary.column("skipped").to_pylist()), "a bucket kept its old salt"
    # the swap took effect: the first bucket holds other rows than the
    # real salt assigns it
    keyed = partitioner.assign_pkeys(src, plan)
    held = container.read_container(os.path.join(out, manifest.read_manifest(out, start).data_file))
    assert _row_digests(held) != _row_digests(src.filter(pc.equal(keyed.column("pkey"), start)))
