"""Run the benchmark over several seeds and report each metric's spread.

    python3 perfbench/spread.py --workloads encode_max query_mix --seeds 1 2 3 4 5

Runs are untraced.  It prints each run's host probe and result line,
then for every workload and end-to-end metric the median, the quartile
distance over the median (``statistics.quantiles(n=4)``) and that
spread as a share of the metric's bound in BENCHMARK.json.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, ROOT)

from perfbench.stats import iqr_share, median  # noqa: E402


def main() -> int:
    spec = json.load(open(os.path.join(ROOT, "BENCHMARK.json")))
    ap = argparse.ArgumentParser()
    ap.add_argument("--workloads", nargs="+", default=[w["name"] for w in spec["workloads"]])
    ap.add_argument("--seeds", nargs="+", type=int, default=list(range(1, 11)))
    ap.add_argument("--seconds", type=int, default=spec["run_seconds"])
    args = ap.parse_args()
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    bad = False
    for w in args.workloads:
        values: dict[str, list[float]] = {}
        for seed in args.seeds:
            cmd = spec["command"] + ["--workload", w, "--seed", str(seed),
                                     "--seconds", str(args.seconds), "--trace", "0"]
            p = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
            last = p.stdout.strip().splitlines()[-1] if p.stdout.strip() else ""
            if p.returncode != 0 or not last.startswith("{"):
                failed = [ln for ln in p.stdout.splitlines() if ln.startswith("FAILED")]
                # Ray's native stack frames would crowd the Python traceback out
                err = "\n".join(ln for ln in p.stderr.splitlines() if ".so(" not in ln)
                print(f"{w} seed {seed}: exit {p.returncode}", *failed, err[-3000:], sep="\n")
                bad = True
                continue
            res = json.loads(last)
            probe = [ln for ln in p.stdout.splitlines() if ln.startswith("host_probe_s")]
            print(f"{w} seed {seed}: {probe[-1] if probe else ''}\n{last}", flush=True)
            for name, m in res["metrics"].items():
                values.setdefault(name, []).append(m["value"])
            bad |= not res["correct"]
        for name, vs in values.items():
            if len(vs) < 2:
                continue
            share = iqr_share(vs)
            bound = bounds.get(name)
            rel = f"{share / bound:6.2f} of bound" if bound else ""
            print(f"{w:<12} {name:<34} median {median(vs):14.4f}  spread {share:7.4f}  {rel}",
                  flush=True)
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
