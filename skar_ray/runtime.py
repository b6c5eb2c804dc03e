"""Cluster-aware runtime sizing helpers.

Actor-pool stages must scale with the cluster, not a hard-coded cap —
a ``concurrency=(1, 4)`` pool starves 28 of 32 cores locally and
whole nodes on a real cluster.  ``pool_size()`` reads the connected
cluster's CPU count (works identically under ``ray.init(num_cpus=N)``
locally and on a multi-node cluster where resources sum over nodes).
"""

from __future__ import annotations


def pool_size() -> tuple[int, int]:
    """(min, max) autoscaling bounds for ``map_batches(Cls, concurrency=...)``:
    a floor of cpus/8 (≥2) and a ceiling of the CPU count (≥8).

    The floor is above one because Ray's autoscaler ramps from the
    minimum one actor at a time, which dominates the wall time of
    second-scale stages (measured ~2× on a 10 s decode).
    """
    import ray

    cpus = int(ray.cluster_resources().get("CPU", 8)) if ray.is_initialized() else 8
    return (max(2, cpus // 8), max(8, cpus))
