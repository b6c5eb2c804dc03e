"""Sources — the Arrow IPC reader; every other format reads directly.

The reference's sources are JSON-RPC (network) and its own Parquet
folders (/root/reference/skar/src/query/data_provider.rs:121-183).
Ours: Parquet (read with ``ray.data.read_parquet`` or, by the hash
exchange, file by file), `.skarc` container directories (the engine's
own encoded format, read back as a first-class projected source by
``pipelines.query_encoded``), and the Arrow IPC files written by
``sinks.write_arrow_ipc`` (below).
"""

from __future__ import annotations

import ray.data


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
