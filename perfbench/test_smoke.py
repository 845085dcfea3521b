"""Smoke tests of the benchmark: a tiny slice of every workload.

    python3 -m pytest -q perfbench/test_smoke.py

Each workload runs once untraced and once traced (``--smoke``: one deep
instance, five sweep jobs), with different seeds.  The tests check that
every metric named in BENCHMARK.json is printed, that every fingerprint
matches perfbench/expected.json, and that the deep fingerprints do not
depend on the seed.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
SPEC = json.loads((BENCH / "spec.json").read_text())
EXPECTED = json.loads((BENCH / "expected.json").read_text())


def _run(workload: str, seed: int, trace: int, cwd: Path = ROOT):
    cmd = [sys.executable, str(cwd / "perfbench" / "run.py"),
           "--workload", workload, "--seed", str(seed), "--seconds", "1",
           "--trace", str(trace), "--smoke"]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True,
                          timeout=170)


def _smoke(workload: str, seed: int, trace: int):
    proc = _run(workload, seed, trace)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    record = json.loads((ROOT / json.loads(lines[-2])["record"]).read_text())
    return result, record


@pytest.mark.parametrize("workload", [w["name"] for w in BENCHMARK["workloads"]])
def test_smoke_slice(workload):
    known = SPEC["known_failures"].get(workload, {})
    runs = [_smoke(workload, 1, 0), _smoke(workload, 2, 1)]
    kinds = ["end_to_end", "per_layer"]
    for (result, record), kind in zip(runs, kinds):
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"], record["jobs"]
        assert result["attempted"] >= 1
        units = {m["name"]: m["unit"] for m in BENCHMARK[kind]}
        assert {k: v["unit"] for k, v in result["metrics"].items()} == units
        for v in result["metrics"].values():
            assert isinstance(v["value"], (int, float))
        for job, *_times, reason in record["jobs"]:
            assert reason is None or job in known, (job, reason)
        for job, fp in record["fingerprints"].items():
            assert fp == EXPECTED[workload][job], job
    deep = [{k: v for k, v in rec["fingerprints"].items() if k.startswith("deep:")}
            for _res, rec in runs]
    assert deep[0] and deep[0] == deep[1]
    sweep = [[j for j, *_rest in rec["jobs"] if j.startswith("sweep:")]
             for _res, rec in runs]
    assert sweep[0] != sweep[1]  # the seed orders the sweep pool


def test_same_seed_same_inputs():
    sys.path.insert(0, str(BENCH))
    sys.path.insert(0, str(ROOT / "src"))
    try:
        import workloads
        for name in workloads.BUILDERS:
            a, b = workloads.build(name, 7), workloads.build(name, 7)
            assert [j.id for j in a.deep + a.sweep] == \
                [j.id for j in b.deep + b.sweep]
    finally:
        sys.path.remove(str(BENCH))
        sys.path.remove(str(ROOT / "src"))


def test_fails_without_the_library(tmp_path):
    """A directory holding only the benchmark must not produce a result."""
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run("mc_search", 1, 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
