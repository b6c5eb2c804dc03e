"""skar_ray benchmark: one workload, one fresh Ray session, one seed.

    python3 perfbench/run.py --workload encode_max --seed 1 --seconds 8 --trace 0

Prints a human-readable report, then as its last line one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``: the
end-to-end metrics of BENCHMARK.json with ``--trace 0``, its per-layer
metrics with ``--trace 1``.  Exits 1 when a correctness check fails and
2 when it cannot run at all (no ``skar_ray`` package beside it, or too
few CPUs for the plan's partitions).
See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import sys
import traceback

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

# every end-to-end metric the harness computes, with its unit
END_TO_END_UNITS = {
    "setup_s": "s",
    "encode_mb_s": "MB/s",
    "compression_ratio": "x",
    "file_compression_ratio": "x",
    "lookup_p50_ms": "ms",
    "lookup_tail_ms": "ms",
    "scan_p50_ms": "ms",
    "verify_mb_s": "MB/s",
    "peak_worker_rss_mb": "MB",
    "error_rate": "ratio",
}


def benchmark_spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def _on_sigterm(signum, frame):
    raise SystemExit(143)


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    sys.path.insert(0, ROOT)
    try:
        import skar_ray

        spec = benchmark_spec()
    except (ImportError, OSError) as e:
        print(f"perfbench: cannot run here: {e}", file=sys.stderr)
        return 2
    if os.path.dirname(os.path.dirname(os.path.abspath(skar_ray.__file__))) != ROOT:
        print(f"perfbench: skar_ray is not this checkout's ({skar_ray.__file__})", file=sys.stderr)
        return 2
    from perfbench import harness, stats

    signal.signal(signal.SIGTERM, _on_sigterm)
    probe_before = stats.host_probe()
    steal_before = stats.cpu_steal()
    try:
        run = harness.Run(ROOT, args.workload, args.seed, args.seconds, bool(args.trace))
    except ValueError as e:
        print(f"perfbench: {e}", file=sys.stderr)
        return 2
    try:
        res = run.execute()
        layer = run.per_layer() if args.trace else None
    except harness.HostTooSmall as e:
        print(f"perfbench: cannot run here: {e}", file=sys.stderr)
        return 2
    except Exception:
        traceback.print_exc()
        print("perfbench: the run did not complete; no result", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(run.run_dir, ignore_errors=True)
    steal_after = stats.cpu_steal()
    probe_after = stats.host_probe()

    smp = res.pop("_samples")
    print(f"workload {args.workload}  seed {args.seed}  seconds {args.seconds:g}  "
          f"trace {args.trace}  cpus {smp['cpus']}  rows {harness.N_ROWS}  "
          f"raw {smp['raw_mb']:.2f} MB  partitions {smp['partitions']}")
    print(f"set-up: session start {smp['session_s']:.2f} s, cold rounds "
          + " ".join(f"{r:.2f}" for r in smp["setup_rounds"]) + " s (median taken)")
    notes = {
        "encode_mb_s": f"median of {smp['encodes']} encode(s)",
        "lookup_p50_ms": f"n={smp['lookups']}",
        "lookup_tail_ms": f"p{smp['lookup_tail_pct']:g}, n={smp['lookups']}",
        "scan_p50_ms": f"n={smp['scans']}",
        "error_rate": f"{run.failed}/{run.attempted} checks failed",
    }
    for name, unit in END_TO_END_UNITS.items():
        print(f"  {name:<24} {res[name]:>14.4f} {unit:<6} {notes.get(name, '')}")
    steal = (steal_after[0] - steal_before[0]) / max(1, steal_after[1] - steal_before[1])
    print(f"host_probe_s before {probe_before:.5f} after {probe_after:.5f}  "
          f"cpu_steal_share {steal:.3f}")
    for f in run.failures:
        print(f"FAILED: {f}")

    if args.trace:
        for m in spec["per_layer"]:
            print(f"  {m['name']:<34} {layer[m['name']]:>14.6f} {m['unit']}")
        metrics = {m["name"]: {"value": layer[m["name"]], "unit": m["unit"]}
                   for m in spec["per_layer"]}
    else:
        metrics = {m["name"]: {"value": res[m["name"]], "unit": m["unit"]}
                   for m in spec["end_to_end"]}
    correct = run.failed == 0
    print(json.dumps({"correct": correct, "attempted": run.attempted,
                      "failed": run.failed, "metrics": metrics}), flush=True)
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
