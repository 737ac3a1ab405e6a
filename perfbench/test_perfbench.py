"""Self-tests of the benchmark: every named metric is emitted with its
unit, the bypass predictions hold on smoke-sized runs, the correctness
checks fire on corrupted results, and a checkout without the program
exits non-zero without a result.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import copy
import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import run  # noqa: E402
import worker  # noqa: E402
from worker import WORKLOADS  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json")) as _fh:
    SPEC = json.load(_fh)

SIM = ("halo-actop", "heartbeat")
# Layers each workload must leave untouched (the predictions of "no
# change" in README.md rest on these being exactly zero).
BYPASSED = {
    "heartbeat": ("partitioning.", "commtable.", "spacesaving.", "transport.",
                  "aio.", "pools."),
    "stageflow-tcp": ("partitioning.", "commtable.", "spacesaving.",
                      "engine.", "stage.", "cpu.", "network.", "server."),
    "halo-actop": ("transport.", "aio.", "pools."),
}


def _run(workload: str, trace: int, cwd: str = ROOT):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", "3", "--seconds", "2", "--trace", str(trace), "--smoke"],
        cwd=cwd, capture_output=True, text=True, timeout=170)


@pytest.fixture(scope="module")
def smoke():
    """(workload, trace) -> (result line, detail) of one smoke-sized run."""
    cache = {}

    def get(workload: str, trace: int):
        if (workload, trace) not in cache:
            proc = _run(workload, trace)
            assert proc.returncode == 0, proc.stderr
            lines = proc.stdout.strip().splitlines()
            cache[workload, trace] = (json.loads(lines[-1]),
                                      json.loads(lines[-2])["detail"])
        return cache[workload, trace]

    return get


def test_benchmark_json_follows_the_contract():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)
    names = [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    assert len(names) == len(set(names))
    bounds = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}
    assert all(0 < b <= 0.25 for b in bounds.values())
    assert bounds["setup_s"] == max(bounds.values())


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_metric_is_emitted_with_its_unit(smoke, workload, trace):
    result, _ = smoke(workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1 and result["failed"] == 0
    listed = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in listed]
    for spec in listed:
        metric = result["metrics"][spec["name"]]
        assert metric["unit"] == spec["unit"]
        assert isinstance(metric["value"], (int, float))
        if not trace:
            assert metric["value"] > 0, spec["name"]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_bypassed_layers_stay_at_zero(smoke, workload):
    metrics = smoke(workload, 1)[0]["metrics"]
    for name, metric in metrics.items():
        if name.startswith(BYPASSED[workload]):
            assert metric["value"] == 0, name
    active = {"halo-actop": "partitioning.rounds", "heartbeat": "cpu.submits",
              "stageflow-tcp": "transport.frames"}[workload]
    assert metrics[active]["value"] > 0


@pytest.mark.parametrize("workload", SIM)
def test_sim_statistics_identical_traced_and_untraced(smoke, workload):
    _, detail = smoke(workload, 1)
    untraced, traced = detail["reps"]
    assert untraced["digest"] == traced["digest"]


def test_stageflow_run_s_is_the_ladder_cpu(smoke):
    rep = smoke("stageflow-tcp", 0)[1]["reps"][0]
    assert [r["rate"] for r in rep["rungs"]] == [r for r, _ in worker.LADDER]
    assert rep["host_run_s"] == sum(r["cpu_s"] for r in rep["rungs"])
    assert rep["run_s"] == sum(r["cpu_ref_s"] for r in rep["rungs"])


def test_sliced_run_leaves_the_simulation_unchanged():
    def digest(sliced: bool):
        experiment, _ = worker._build_sim("heartbeat", 5, worker.HEARTBEAT_SMOKE)
        if sliced:
            experiment.runtime.run = worker.SlicedRun(experiment.runtime)
        result = experiment._measure(worker.HEARTBEAT_SMOKE.warmup,
                                     worker.HEARTBEAT_SMOKE.duration)
        return (result.median, result.p99, result.requests,
                experiment.runtime.sim.events_processed)

    assert digest(True) == digest(False)


def test_checks_fire_on_corrupted_results(smoke):
    reps = {w: smoke(w, 1)[1]["reps"] for w in WORKLOADS}
    for workload, rs in reps.items():
        assert run.check_run(workload, rs) == []

    def fires(workload, mutate):
        rs = copy.deepcopy(reps[workload])
        mutate(rs)
        return run.check_run(workload, rs)

    for workload in WORKLOADS:
        assert fires(workload, lambda rs: rs[0]["checks"].update(
            completed=rs[0]["checks"]["completed"] - 1))
    assert fires("halo-actop", lambda rs: rs[1]["digest"].update(
        p99_ms=rs[1]["digest"]["p99_ms"] * (1 + 1e-12)))
    assert fires("heartbeat", lambda rs: rs[0]["checks"].update(
        beats_counted=rs[0]["checks"]["beats_counted"] + 1))
    assert fires("stageflow-tcp", lambda rs: rs[0]["checks"].update(
        mismatched=1))
    assert fires("stageflow-tcp", lambda rs: rs[0]["checks"]["handled"].update(
        enrich=rs[0]["checks"]["handled"]["enrich"] - 1))


def test_run_fails_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run("heartbeat", 0, cwd=str(tmp_path))
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
