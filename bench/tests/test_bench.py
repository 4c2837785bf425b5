"""Tests of the benchmark itself.

    python3 -m pytest -q bench/tests
"""
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

from spans import Recorder, covered, self_times  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def run(workload, trace, seed=5, cwd=ROOT, script=BENCH / "run.py"):
    cmd = [sys.executable, str(script), "--workload", workload, "--seed", str(seed),
           "--seconds", "1", "--trace", str(trace), "--size", "tiny"]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170)


def result(done):
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("trace", [0, 1])
def test_tiny_run(workload, trace):
    res = result(run(workload, trace))
    assert set(res) == {"correct", "attempted", "failed", "metrics"}
    assert res["correct"] is True
    assert res["attempted"] >= 1 and 0 <= res["failed"] <= res["attempted"]
    spec = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert list(res["metrics"]) == [m["name"] for m in spec]
    for m in spec:
        got = res["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert isinstance(got["value"], (int, float))
    if not trace:
        assert all(res["metrics"][m["name"]]["value"] > 0 for m in spec)


def test_traced_counts_repeat_at_one_seed():
    keys = ["sdpcore.iterations"] + [m["name"] for m in SPEC["per_layer"]
                                     if m["name"].startswith("sdpcore.verdict.")]
    first, second = (result(run("random-checks", 1, seed=11))["metrics"] for _ in range(2))
    assert first["sdpcore.iterations"]["value"] > 0
    assert [first[k] for k in keys] == [second[k] for k in keys]


def test_refuses_checkout_without_library(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    done = run("scale", 0, cwd=tmp_path, script=tmp_path / "bench" / "run.py")
    assert done.returncode != 0
    assert '"correct"' not in done.stdout


def test_covered_is_union_clipped_to_parent():
    assert covered([(1, 3), (2, 5), (9, 12)], 0, 10) == 5
    assert covered([], 0, 10) == 0
    assert covered([(2, 4), (2, 4)], 0, 10) == 2


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def test_self_time_is_duration_minus_children():
    clock = FakeClock()
    rec = Recorder(clock)
    outer = rec.open("outer")
    clock.now = 1.0
    child = rec.open("child")
    clock.now = 3.0
    grandchild = rec.open("grandchild")
    clock.now = 4.0
    rec.close(grandchild)
    rec.add_leaf("leaf", 0.5)
    clock.now = 6.0
    rec.close(child)
    clock.now = 7.0
    second = rec.open("second")
    clock.now = 9.0
    rec.close(second)
    clock.now = 10.0
    rec.close(outer)
    assert [s.parent for s in rec.spans] == [None, 0, 1, 0]
    assert self_times(rec.spans) == [10 - 5 - 2, 5 - 1, 1, 2]
    assert child.leaves == {"leaf": [1, 0.5]}


def test_wrappers_record_spans_and_leaves():
    rec = Recorder()
    leaf = rec.leaf_fn("leaf", lambda x: x + 1)
    inner = rec.span_fn("inner", lambda x: leaf(x) * 2,
                        on_result=lambda span, r: setattr(span, "info", {"r": r}))
    outer = rec.span_fn("outer", lambda x: inner(x) + inner(x))
    assert outer(1) == 8
    assert [(s.name, s.parent, s.info) for s in rec.spans] == [
        ("outer", None, None), ("inner", 0, {"r": 4}), ("inner", 0, {"r": 4})]
    assert rec.spans[1].leaves["leaf"][0] == 1
    assert rec.stack == []
