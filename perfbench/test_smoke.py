"""Smoke test of the benchmark itself, at a tiny size per workload.

  python3 -m pytest -q perfbench/test_smoke.py

Checks that every metric BENCHMARK.json names is printed with its unit, that
a corrupted reference digest is reported as a failure, and that a directory
without the monodiv sources is refused without a result.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
NAMES = [w["name"] for w in BENCH["workloads"]]
TINY_TRACE_OPS = 3


def run(*args, cwd=ROOT):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", *args], cwd=cwd, capture_output=True, text=True, timeout=170
    )
    lines = proc.stdout.strip().splitlines()
    return proc.returncode, (json.loads(lines[-1]) if lines else None), proc


def expected_units(kind):
    return {m["name"]: m["unit"] for m in BENCH[kind]}


def assert_result(result, kind):
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["attempted"] >= 1
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    assert got == expected_units(kind)
    for m in result["metrics"].values():
        assert isinstance(m["value"], (int, float))


@pytest.mark.parametrize("workload", NAMES)
def test_end_to_end_metrics(workload):
    code, result, proc = run("--workload", workload, "--seed", "7", "--seconds", "0.3", "--trace", "0")
    assert code == 0, proc.stderr
    assert_result(result, "end_to_end")
    assert result["correct"] and result["failed"] == 0
    assert all(m["value"] > 0 for m in result["metrics"].values())


@pytest.mark.parametrize("workload", NAMES)
def test_per_layer_metrics(workload):
    code, result, proc = run(
        "--workload", workload, "--seed", "7", "--trace", "1", "--trace-ops", str(TINY_TRACE_OPS)
    )
    assert code == 0, proc.stderr
    assert_result(result, "per_layer")
    assert result["correct"]


def copy_benchmark(dest, with_sources):
    shutil.copy(ROOT / "BENCHMARK.json", dest)
    shutil.copytree(HERE, dest / "perfbench", ignore=shutil.ignore_patterns("__pycache__", "out"))
    if with_sources:
        shutil.copytree(ROOT / "src", dest / "src", ignore=shutil.ignore_patterns("__pycache__"))


@pytest.mark.parametrize("workload", [w for w in NAMES if w != "torsion"])
def test_corrupted_digest_fails(workload, tmp_path):
    copy_benchmark(tmp_path, with_sources=True)
    path = tmp_path / "perfbench" / "reference.json"
    reference = json.loads(path.read_text())
    digest = reference[workload]["digest"]
    reference[workload]["digest"] = ("0" if digest[0] != "0" else "1") + digest[1:]
    path.write_text(json.dumps(reference))
    code, result, proc = run("--workload", workload, "--seed", "7", "--seconds", "0.1", "--trace", "0", cwd=tmp_path)
    assert code != 0
    assert result["correct"] is False and result["failed"] > 0
    assert "anchor digest" in proc.stderr


def test_refuses_checkout_without_sources(tmp_path):
    copy_benchmark(tmp_path, with_sources=False)
    code, result, proc = run("--workload", NAMES[0], "--seed", "1", "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert code != 0
    assert result is None
