"""Sources — Ray Dataset constructors for every format the engine speaks.

The reference's sources are JSON-RPC (network) and its own Parquet
folders (/root/reference/skar/src/query/data_provider.rs:121-183).
Ours: Parquet (primary), JSON/CSV (debug-scale), and `.skarc`
container directories (the engine's own encoded format, read back as a
first-class projected source by ``pipelines.query_encoded``).
"""

from __future__ import annotations

import ray.data


def read_parquet(path: str, columns: list[str] | None = None, **kwargs) -> "ray.data.Dataset":
    """Column-pruned parquet read (row-group predicate pushdown via
    ``filter=`` pyarrow expression kwarg)."""
    return ray.data.read_parquet(path, columns=columns, **kwargs)


def read_json(path: str, **kwargs) -> "ray.data.Dataset":
    return ray.data.read_json(path, **kwargs)


def read_csv(path: str, **kwargs) -> "ray.data.Dataset":
    return ray.data.read_csv(path, **kwargs)


def read_arrow_ipc(path: str) -> "ray.data.Dataset":
    """Read back an Arrow IPC file written by ``sinks.write_arrow_ipc``
    — the reference's /query/arrow-ipc response body (server.rs:133-166)
    as a first-class source, completing the sink/source round trip.
    IPC files are small/aggregate results by contract, so a single
    driver-side open is the right shape (zstd buffer decompression is
    handled by Arrow)."""
    import pyarrow.ipc as ipc

    with ipc.open_file(path) as r:
        table = r.read_all()
    return ray.data.from_arrow(table)
