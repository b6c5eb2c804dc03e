"""Smoke runs of every workload on a tiny corpus, and the contract checks.

Each run starts its own Ray session, so this file takes about two
minutes:  python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import os
import re
import shutil
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
sys.path.insert(0, ROOT)

from perfbench import harness, layers, run  # noqa: E402

SPEC = json.load(open(os.path.join(ROOT, "BENCHMARK.json")))


def test_benchmark_json_names_what_the_harness_computes():
    for m in SPEC["end_to_end"]:
        assert run.END_TO_END_UNITS[m["name"]] == m["unit"]
    assert [(m["name"], m["unit"]) for m in SPEC["per_layer"]] == list(layers.PER_LAYER.items())
    assert [w["name"] for w in SPEC["workloads"]] == list(harness.WORKLOADS)


@pytest.fixture
def tiny(monkeypatch):
    monkeypatch.setattr(harness, "N_ROWS", 600)
    monkeypatch.setattr(harness, "TARGET_PARTITION_BYTES", 200_000)


def _run(capsys, *args) -> tuple[int, str]:
    code = run.main(list(args))
    return code, capsys.readouterr().out


@pytest.mark.parametrize("workload", harness.WORKLOADS)
def test_smoke_prints_every_metric_with_its_unit(tiny, capsys, workload):
    code, out = _run(capsys, "--workload", workload, "--seed", "3", "--seconds", "0.5")
    assert code == 0, out
    for name, unit in run.END_TO_END_UNITS.items():
        assert re.search(rf"^\s+{re.escape(name)}\s+\S+\s+{re.escape(unit)}\b", out, re.M), name
    assert re.search(r"^\s+error_rate\s+0\.0000 ratio", out, re.M)
    res = json.loads(out.strip().splitlines()[-1])
    assert res["correct"] and res["failed"] == 0 and res["attempted"] >= 1
    assert {k: v["unit"] for k, v in res["metrics"].items()} == {
        m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert all(v["value"] > 0 for v in res["metrics"].values())


def test_smoke_traced_prints_every_layer_metric(tiny, capsys):
    code, out = _run(capsys, "--workload", "encode_fast", "--seed", "3",
                     "--seconds", "0.5", "--trace", "1")
    assert code == 0, out
    res = json.loads(out.strip().splitlines()[-1])
    assert list(res["metrics"]) == list(layers.PER_LAYER)
    assert 0 < res["metrics"]["trace.encode_coverage"]["value"] < 1
    # the fast profile overrides every column: no selector, no FSST encode
    assert res["metrics"]["auto.select_codec_calls"]["value"] == 0
    assert res["metrics"]["fsst.encode_s"]["value"] == 0


def test_refuses_more_partitions_than_the_task_pool_takes(tiny, capsys, monkeypatch):
    # 600 rows at 200 kB make more than 4 partitions: on one CPU every
    # scan would take the DecoderActor pool
    monkeypatch.setattr(harness, "host_cpus", lambda: 1)
    code, out = _run(capsys, "--workload", "encode_fast", "--seed", "3", "--seconds", "0.5")
    assert code == 2
    assert not out.strip()


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(os.path.join(ROOT, "perfbench"), tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    p = subprocess.run(SPEC["command"] + ["--workload", "encode_max", "--seed", "1",
                                          "--seconds", "1", "--trace", "0"],
                       cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert p.returncode != 0
    assert not p.stdout.strip()
