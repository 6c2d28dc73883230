"""Tests of the benchmark itself, at a tiny size (one round per run).

    python3 -m pytest -q bench/tests
"""

import json
import os
import random
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402

run.load_program()

import harness  # noqa: E402
import reference  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from steinkit import brieskorn, criteria  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
GOLDEN = json.loads((BENCH / "golden.json").read_text())
NAMES = [w["name"] for w in SPEC["workloads"]]


def test_every_workload_is_listed():
    assert list(workloads.WORKLOADS) == NAMES


def bench(workload, trace, seed=7):
    return subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed",
         str(seed), "--seconds", "0", "--min-ops", "1", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=300)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", NAMES)
def test_every_metric_is_printed_with_its_unit(workload, trace):
    proc = bench(workload, trace)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    expected = SPEC["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in expected} == {
        name: m["unit"] for name, m in result["metrics"].items()
    }
    for m in expected:
        assert any(line.startswith(f"{m['name']} = ") for line in lines), m["name"]
    # fail_ratio is 0 at the seed commit, and the result agrees
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 15
    assert any(line.startswith("fail_ratio = 0 ratio") for line in lines)
    if trace == 0:
        assert all(m["value"] > 0 for m in result["metrics"].values())


def first_spec(name, stratum=0):
    workload = workloads.WORKLOADS[name]
    return workload, workload.build(stratum, 0)


def test_wrong_output_counts_as_a_failure():
    workload, spec = first_spec("fronts-query")
    result = workload.run(spec)
    assert harness.judge(workload, spec, result, None, GOLDEN[workload.name]) is None
    wrong = json.loads(json.dumps(result))
    wrong["tb_r"][0][0] += 1
    assert harness.judge(workload, spec, wrong, None, GOLDEN[workload.name])
    # an output that matches no golden digest still meets the oracles alone
    assert workload.check(spec, wrong)


def test_wrong_stabilization_deltas_fail_the_oracle():
    workload = workloads.WORKLOADS["cli"]
    spec = workload.build(workload.strata.index("torus-knot-stabilize-json"), 0)
    _, p, q, _, schedule, _ = spec.data["argv"]
    up, down = map(int, schedule.split(","))
    p, q = int(p), int(q)
    right = {"tb": (p - 1) * q - p - up - down, "r": down - up}
    assert workload.check(spec, {"stdout": json.dumps(right), "stderr": ""}) == []
    wrong = dict(right, r=right["r"] + 1)
    assert workload.check(spec, {"stdout": json.dumps(wrong), "stderr": ""})


def test_wrong_error_or_no_error_counts_as_a_failure():
    workload, spec = first_spec("milnor")
    broken = workload.mutate(spec, random.Random(1))
    golden = GOLDEN[workload.name]
    assert harness.judge(workload, broken, None, broken.expect, golden) is None
    assert harness.judge(workload, broken, None, "SomeOtherError", golden)
    assert harness.judge(workload, broken, workload.run(spec), None, golden)
    assert harness.judge(workload, spec, None, "InvalidParams", golden)


@pytest.mark.parametrize("name", ["fronts-query", "milnor"])
def test_self_times_are_non_negative_and_within_wall_time(tmp_path, name):
    workload = workloads.WORKLOADS[name]
    runner = harness.Runner(workload, GOLDEN[name], harness.Context(str(tmp_path)))
    tracer = spans.Tracer()
    runner.tracer = tracer
    original = criteria.milnor_invariants
    tracer.install()
    try:
        assert criteria.milnor_invariants is not original
        start = time.perf_counter()
        records = runner.run(harness.rounds(workload, 3), seconds=0)
        wall = time.perf_counter() - start
    finally:
        tracer.restore()
    assert criteria.milnor_invariants is original is brieskorn.milnor_invariants
    assert not [r.failure for r in records if r.failure]
    totals = spans.self_times(tracer.spans)
    assert totals and all(v >= 0 for v in totals.values())
    assert sum(totals.values()) <= wall


def test_scaled_times_follow_the_reference_kernel():
    assert reference.scale(1, 0.7) == 1
    assert reference.scale(2, 0.7) < 1 < reference.scale(0.5, 0.7)
    assert reference.scale(2, 1.0) == 0.5
    assert reference.scale(2, 0.0) == 1
    assert all(reference.slowness(name) > 0 for name in reference.KERNELS)
    assert {w.kernel for w in workloads.WORKLOADS.values()} <= set(reference.KERNELS)


def test_self_time_subtracts_children():
    recorded = [[1, "a", -1, 0.0, 10.0], [1, "b", 0, 1.0, 4.0], [1, "c", 1, 2.0, 3.0],
                [1, spans.HOOK, 0, 5.0, 6.0]]
    assert spans.self_times(recorded) == {"a": 6.0, "b": 2.0, "c": 1.0}


def test_inputs_depend_only_on_the_seed():
    workload = workloads.WORKLOADS["cli"]
    a, b = harness.rounds(workload, 5), harness.rounds(workload, 5)
    assert [next(a) for _ in range(3)] == [next(b) for _ in range(3)]
    assert workload.build(4, 2).data == workload.build(4, 2).data


def test_refuses_a_directory_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    env = dict(os.environ)
    env.pop("PYTHONPATH", None)
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "milnor", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=180)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
