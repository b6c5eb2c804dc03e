"""Per-partition lineage manifest — the engine's checkpoint store.

The reference records every flushed folder in an embedded mdbx KV store
keyed by block range, resuming from the last key at startup
(/root/reference/skar/src/db/mod.rs:68-86,96-215).  Our analog is a
directory of one JSON file per partition under ``<out>/_manifest/``,
written atomically (temp + rename).  That write is a partition's
commit: its ``data_file`` names a container published just before under
a fresh name, and no container file is ever rewritten, so a crash before
the write leaves the old manifest on its old file.  A restarted job scans the
directory, treats present+complete rows as done, and filters those
partitions out of the work set — partition-granular resume with no
extra database.

Each row carries full lineage: partition id, input fingerprint, row
count, per-column codec choice + byte accounting, and the partition
content-sha256 digest (sha256 of the per-row sha256s in partition sort
order) — the invariant the decode/verify path re-derives, mirroring
skar's recompute-logs_bloom-after-write validation
(/root/reference/skar/src/validate_parquet.rs:31-63).
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, asdict, field


@dataclass
class PartitionManifest:
    partition_id: int
    status: str                     # "done"
    n_rows: int
    n_chunks: int
    data_file: str                  # relative to out_dir
    raw_bytes: int
    enc_bytes: int
    content_sha256: str             # digest over per-row sha256s, sort order
    columns: dict = field(default_factory=dict)   # name -> {codec, raw_bytes, enc_bytes}
    input_fingerprint: str = ""
    wall_s: float = 0.0
    extra: dict = field(default_factory=dict)


def manifest_dir(out_dir: str) -> str:
    return os.path.join(out_dir, "_manifest")


def _path_for(out_dir: str, pid: int) -> str:
    return os.path.join(manifest_dir(out_dir), f"part-{pid:06d}.json")


def write_manifest(out_dir: str, m: PartitionManifest) -> None:
    d = manifest_dir(out_dir)
    os.makedirs(d, exist_ok=True)
    p = _path_for(out_dir, m.partition_id)
    tmp = f"{p}.tmp-{os.getpid()}"
    with open(tmp, "w") as f:
        json.dump(asdict(m), f)
    os.replace(tmp, p)


def read_manifest(out_dir: str, pid: int) -> PartitionManifest | None:
    p = _path_for(out_dir, pid)
    if not os.path.exists(p):
        return None
    with open(p) as f:
        return PartitionManifest(**json.load(f))


def scan_manifests(out_dir: str) -> dict[int, PartitionManifest]:
    """All completed partitions — the resume cursor analog."""
    d = manifest_dir(out_dir)
    out: dict[int, PartitionManifest] = {}
    if not os.path.isdir(d):
        return out
    for fn in sorted(os.listdir(d)):
        if not (fn.startswith("part-") and fn.endswith(".json")):
            continue
        with open(os.path.join(d, fn)) as f:
            m = PartitionManifest(**json.load(f))
        if m.status == "done":
            out[m.partition_id] = m
    return out


def sweep_orphans(out_dir: str, live_ids) -> dict[int, PartitionManifest]:
    """Remove the manifest of every done partition NOT in ``live_ids``
    (a re-run can stop producing some ids, whose stale manifests every
    query would serve), then every ``.skarc`` in ``out_dir`` that no
    live manifest references: one a later write superseded (every
    write publishes a new file and never rewrites one) or one a crashed
    job published without its manifest.  The rollback-truncation
    analog shared by every writing job (reference:
    skar/src/skar_runner.rs:160-213).  Callers invoke this ONLY after a
    fully-successful job — a crashed job never sweeps, so the
    pre-crash manifests keep their files.  Missing files are tolerated
    (idempotent under races).

    Reader window: a query that read a manifest before a job's final
    sweep and opens that manifest's container after it raises
    ``FileNotFoundError``; since no file is ever rewritten, it never
    reads another generation's bytes.  Returns the live partitions'
    manifests, as read by the scan."""
    live = {int(p) for p in live_ids}
    kept: dict[int, PartitionManifest] = {}
    doomed = []
    for pid, m in scan_manifests(out_dir).items():
        if pid in live:
            kept[pid] = m
        else:
            doomed.append(_path_for(out_dir, pid))
    referenced = {m.data_file for m in kept.values()}
    doomed += [os.path.join(out_dir, fn) for fn in sorted(os.listdir(out_dir))
               if fn.endswith(".skarc") and fn not in referenced]
    for p in doomed:
        try:
            os.remove(p)
        except FileNotFoundError:
            pass
    return kept
