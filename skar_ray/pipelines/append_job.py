"""Incremental append — "new rows arrived → re-encode only affected
partitions".

The analog of the reference's tip-following flush loop: skar
accumulates incoming blocks and flushes only the folder(s) the new
block range touches (/root/reference/skar/src/skar_runner.rs:285-370),
never rewriting history.  Ours:

1. load the encoded dir's PERSISTED partition plan (saved at append
   time; falls back to the base corpus's cached plan);
2. size the new rows per repo (exact pre-pass — the delta is small);
3. extend the plan with brand-new repos (fresh pids appended after the
   existing range — existing pids never renumber);
4. affected pids = the pid ranges of every repo present in the delta;
5. one hash exchange (``hash_exchange.run_hashed_encode``) over the
   pending affected containers plus the delta's files: the maps decode
   ONLY those containers (digest-checked, no base corpus read) and
   stream the new rows, assign pkeys, and each affected pkey's reduce
   re-encodes it — untouched partitions are not even opened.  A map
   holding a container counts toward every pkey, so a pkey fed by both
   the delta and a container waits for both;
6. persist the extended plan for the next append.

A repo whose appended rows outgrow its bucket count keeps its pid
range (partitions grow past target); ``run_compact_job`` rebalances.

Idempotent on retry: each re-encoded manifest carries the append's
delta fingerprint, so a partially-failed append re-run skips the
partitions that already merged this delta and drops their delta rows
(``skip_pkeys``) — rows are never applied twice.
"""

from __future__ import annotations

import hashlib
import os
import pickle

import numpy as np

from ..stages import partitioner
from ..state import manifest as manifest_mod
from .encode_job import FAST_PROFILE_OVERRIDES, _cached_plan, _corpus_fingerprint, corpus_dataset
from .hash_exchange import container_sources, run_hashed_encode


def _plan_path(out_dir: str) -> str:
    return os.path.join(manifest_mod.manifest_dir(out_dir), "_plan.pkl")


def load_dir_plan(out_dir: str):
    p = _plan_path(out_dir)
    if os.path.exists(p):
        with open(p, "rb") as f:
            return pickle.load(f)
    return None


def save_dir_plan(out_dir: str, plan, target_bytes: int) -> None:
    os.makedirs(manifest_mod.manifest_dir(out_dir), exist_ok=True)
    tmp = _plan_path(out_dir) + ".tmp"
    with open(tmp, "wb") as f:
        pickle.dump((plan, target_bytes), f)
    os.replace(tmp, _plan_path(out_dir))


def run_append_job(
    new_rows_path: str,
    out_dir: str,
    base_corpus_path: str | None = None,
    target_partition_bytes: int | None = None,
    chunk_target_bytes: int = 16 << 20,
    codec_overrides: dict[str, str] | None = None,
    profile: str = "max",
) -> dict:
    """Append `new_rows_path` into the encoded store at `out_dir`,
    re-encoding only the partitions whose repos the delta touches.
    Returns a summary dict incl. the affected pid set."""
    if profile == "fast" and codec_overrides is None:
        codec_overrides = FAST_PROFILE_OVERRIDES
    loaded = load_dir_plan(out_dir)
    if loaded is not None:
        plan, target_bytes = loaded
    elif base_corpus_path is not None:
        plan, target_bytes = _cached_plan(base_corpus_path, target_partition_bytes, codec_overrides)
    else:
        raise ValueError("no persisted plan in out_dir and no base_corpus_path given")

    new_ds = corpus_dataset(new_rows_path)
    sizes = partitioner.repo_size_prepass(new_ds)
    new_repos = sizes.column("repo").to_pylist()
    new_bytes = sizes.column("bytes").to_pylist()
    # count the delta ONCE here, from the prepass we already paid for —
    # counting after the pending-partition filter would under-report a
    # retried append and re-execute the delta read just for the metric
    delta_rows = sum(sizes.column("rows").to_pylist())

    # extend the plan with brand-new repos; existing pids never renumber
    next_pid = plan.n_partitions
    for r, b in sorted((r, int(b)) for r, b in zip(new_repos, new_bytes)):
        if r in plan.repos:
            continue
        nb = max(1, int(np.ceil(b / max(1, target_bytes))))
        plan.repos[r] = (next_pid, nb)
        next_pid += nb
    plan.n_partitions = next_pid

    affected: set[int] = set()
    for r in new_repos:
        s, nb = plan.repos[r]
        affected.update(range(s, s + nb))

    plan_hash = hashlib.sha256(repr(sorted(plan.repos.items())).encode()).hexdigest()[:16]
    delta_fp = _corpus_fingerprint(new_rows_path)
    input_fingerprint = f"append:{delta_fp}:{target_bytes}:{plan_hash}:salt{partitioner.SALT_VERSION}"

    # idempotence: a partition whose manifest already carries THIS
    # append's fingerprint has the delta merged in — re-running a
    # partially-failed append must neither re-decode it nor add its
    # delta rows a second time
    manifests = manifest_mod.scan_manifests(out_dir)
    already = {pid for pid in affected
               if pid in manifests and manifests[pid].input_fingerprint == input_fingerprint}
    pending = affected - already
    if not pending:
        return {
            "affected_partitions": sorted(affected),
            "reencoded": 0,
            "appended_rows": 0,
            "already_done": len(already),
            "total_partitions": len(manifests),
        }
    # one exchange over the pending affected containers plus the delta;
    # delta rows of already-merged partitions drop at the map side.
    # Each reduce publishes a new container and then its manifest, so a
    # crash between the two leaves the old manifest on its old,
    # untouched file: the retry re-merges that partition from it, and
    # the sweep below removes every file no manifest references
    summary = run_hashed_encode(
        container_sources(out_dir, [manifests[pid] for pid in sorted(pending & set(manifests))])
        + partitioner.input_paths(new_rows_path),
        out_dir, plan, chunk_target_bytes,
        dict.fromkeys(range(plan.n_partitions), input_fingerprint),
        skip_pkeys=frozenset(already), codec_overrides=codec_overrides,
    )
    save_dir_plan(out_dir, plan, target_bytes)
    live = manifest_mod.scan_manifests(out_dir)
    manifest_mod.sweep_orphans(out_dir, live)
    return {
        "affected_partitions": sorted(affected),
        "reencoded": summary.num_rows,
        "appended_rows": int(delta_rows),
        "already_done": len(already),
        "total_partitions": len(live),
    }
