"""Smoke tests for the benchmark itself (not part of the library's suite).

    python3 -m pytest perfbench/tests -q

Every workload runs at a tiny size, untraced and traced, and must emit
every metric BENCHMARK.json names, with its unit.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [w["name"] for w in SPEC["workloads"]]

sys.path[:0] = [str(BENCH), str(ROOT / "src")]
import check  # noqa: E402
import jobs  # noqa: E402
import run  # noqa: E402
import worker  # noqa: E402


def _run(args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args], cwd=cwd, capture_output=True, text=True, timeout=300
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_tiny_run_emits_every_metric(workload, trace):
    out = _run(["--workload", workload, "--seed", "3", "--seconds", "0", "--trace", str(trace), "--tiny"])
    assert out.returncode == 0, out.stderr
    result = json.loads(out.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1 and result["failed"] == 0
    wanted = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {m["name"]: m["unit"] for m in wanted}
    assert all(isinstance(v["value"], (int, float)) for v in result["metrics"].values())


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    out = _run(["--workload", "sampling", "--seed", "1", "--seconds", "1", "--trace", "0"], cwd=tmp_path)
    assert out.returncode != 0
    assert out.stdout == ""


@pytest.mark.parametrize("workload", WORKLOADS)
def test_seed_changes_inputs_not_the_job_mix(workload, tmp_path):
    data = ROOT / "src" / "hypercert" / "data"
    first = jobs.build(workload, 1, tmp_path / "a", data)
    again = jobs.build(workload, 1, tmp_path / "b", data)
    other = jobs.build(workload, 2, tmp_path / "c", data)
    assert first == again
    for name in (tmp_path / "a").iterdir():
        assert name.read_bytes() == (tmp_path / "b" / name.name).read_bytes()
    assert sorted((j["id"], j["once"], j["argv"][0]) for j in first) == sorted(
        (j["id"], j["once"], j["argv"][0]) for j in other
    )
    assert [j["argv"] for j in first] != [j["argv"] for j in other]


def test_checker_rejects_a_corrupted_certificate(tmp_path, monkeypatch):
    import hypercert.cli as cli

    job_list = jobs.build("quadric", 1, tmp_path, ROOT / "src" / "hypercert" / "data")
    job = next(j for j in job_list if j["id"] == "ladder-n4")
    monkeypatch.chdir(tmp_path)
    _, outcome = worker.run_job(cli.main, job["argv"])
    assert check.check(job, outcome) == ("ok", "")
    payload = json.loads(outcome["stdout"])
    corner = payload["pencil"]["matrices"][0][0]
    corner[0] = str(Fraction(corner[0]) - 3)  # no longer definite at e = (1, 0, 0, 0)
    bad = dict(outcome, stdout=json.dumps(payload))
    assert check.check(job, bad)[0] == "wrong"


def test_capacity_error_counts_as_wrong_outside_the_baseline():
    outcome = {"rc": 64, "stdout": "", "raised": None,
               "stderr": "input error: at most 8 forms are supported\n"}
    job = {"id": "defect-8forms", "expect": {"type": "certified"}}
    assert check.check(job, outcome)[0] == "capacity"
    assert check.check(dict(job, id="ladder-n8"), outcome)[0] == "wrong"


def test_only_unexpected_outcomes_count_as_failed():
    statuses = {0: ("ok", ""), 1: ("capacity", "at most 8 forms"), 2: ("wrong", "exit code 3"), 3: ("ok", "")}
    executions = [(0, 0.1, False), (1, 0.1, False), (2, 0.1, False), (3, 0.1, False), (3, 0.1, False)]
    assert run.count_outcomes(executions, statuses, set()) == (2, 1)
    assert run.count_outcomes(executions, statuses, {1, 3}) == (4, 4)  # a repeat that differs is wrong
