"""Tests of the benchmark itself: metric names, oracles, repeatable counts.

Run from the repository root:  python3 -m pytest perfbench/test_perfbench.py
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [HERE, os.path.join(ROOT, "src")]

import run  # noqa: E402
import workloads  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _fh:
    SPEC = json.load(_fh)


def _bench(*args: str, cwd: str = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=300)


_TRACED: dict = {}


def _traced(name: str, attempt: int) -> dict:
    if (name, attempt) not in _TRACED:
        res = _bench("--workload", name, "--seed", "5", "--seconds", "0.5",
                     "--trace", "1", "--size", "tiny")
        assert res.returncode == 0, res.stderr
        _TRACED[name, attempt] = json.loads(res.stdout.splitlines()[-1])
    return _TRACED[name, attempt]


def test_spec_names_the_workloads():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.NAMES)


@pytest.mark.parametrize("name", workloads.NAMES)
def test_untraced_run_emits_every_end_to_end_metric(name):
    res = _bench("--workload", name, "--seed", "5", "--seconds", "0.5",
                 "--trace", "0", "--size", "tiny")
    assert res.returncode == 0, res.stderr
    out = json.loads(res.stdout.splitlines()[-1])
    assert set(out) == {"correct", "attempted", "failed", "metrics"}
    assert out["correct"] and out["failed"] == 0 and out["attempted"] >= 1
    assert {k: v["unit"] for k, v in out["metrics"].items()} == \
        {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert all(v["value"] > 0 for v in out["metrics"].values())


@pytest.mark.parametrize("name", workloads.NAMES)
def test_traced_run_emits_every_per_layer_metric(name):
    out = _traced(name, 0)
    assert out["correct"] and out["failed"] == 0
    assert {k: v["unit"] for k, v in out["metrics"].items()} == \
        {m["name"]: m["unit"] for m in SPEC["per_layer"]}


@pytest.mark.parametrize("name", workloads.NAMES)
def test_call_counts_repeat_across_runs(name):
    def calls(out):
        return {k: v["value"] for k, v in out["metrics"].items()
                if k.endswith(".calls") or k.endswith(".errors")}

    first, second = calls(_traced(name, 0)), calls(_traced(name, 1))
    assert first == second
    assert sum(first.values()) > 0


def test_planted_wrong_margin_counts_as_failure(monkeypatch):
    prepared = workloads.prepare("contact_highdim", 3, "tiny")
    lat, failed = run._loop(prepared.ops, 0.0, len(prepared.ops))
    assert failed == 0
    monkeypatch.setitem(workloads.EXPECTED_MARGIN, "R", 1.0 + 1e-3)
    lat, failed = run._loop(prepared.ops, 0.0, len(prepared.ops))
    assert failed == sum(op.label.startswith("R") for op in prepared.ops) > 0
    assert len(lat) == len(prepared.ops)


def test_planted_wrong_word_counts_as_failure(tmp_path):
    import numpy as np
    from contactcalc import scenario

    case = workloads.generate_scenario(np.random.default_rng(4), 80, str(tmp_path))
    first = next(line for line in case.report.splitlines() if line.startswith("cover:"))
    label, word = first.split("\t")[:2]
    bad = workloads.ScenarioCase(
        case.text, case.report.replace(first, first.replace(word, word + " zz"), 1),
        case.files, case.statements)

    def op(expect):
        return workloads.Op("scenario", lambda: scenario.run_scenario(
            scenario.parse_scenario(case.text), out_dir=str(tmp_path)),
            lambda result: workloads.scenario_ok(expect, str(tmp_path), result))

    assert run._loop([op(case)], 0.0)[1] == 0
    assert run._loop([op(bad)], 0.0)[1] == 1


def test_throughput_is_the_median_window_rate():
    # One slow op moves a mean rate but not the median over windows.
    assert run._throughput([1.0, 1.0, 1.0, 9.0], 1) == 1.0
    assert run._throughput([1.0, 1.0, 1.0, 9.0], 2) == 1.0
    # Fewer ops than one window: ops over their summed time.
    assert run._throughput([1.0, 3.0], 3) == 0.5


def test_free_reduce_matches_hand_reduction():
    assert workloads.free_reduce([("a", 1), ("b", 2), ("b", -2), ("a", -1)]) == []
    assert workloads.free_reduce([("a", 1), ("a", 2), ("b", -1)]) == [("a", 3), ("b", -1)]
    assert workloads.word_text([("a", 1), ("b", -2)]) == "a b^-2"


def test_kirby_oracle_matches_documented_example():
    text = workloads.kirby_cover_text("genus1", ["a", "b"], 2)
    with open(os.path.join(ROOT, "tests", "data", "branched_cover_q2.kirby"),
              encoding="utf-8") as fh:
        documented = fh.read()
    # The documented example carries one BASE line; the workload passes none.
    assert text == documented.replace("L(2,1) as -2 surgery on unknot\n", "")


def test_exits_nonzero_without_sources(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    res = _bench("--workload", "verify_numeric", "--seed", "1", "--seconds", "1",
                 "--trace", "0", cwd=str(tmp_path))
    assert res.returncode != 0
    assert "correct" not in res.stdout
