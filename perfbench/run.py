"""The repository benchmark: run one workload from a seed, check it, and
print every metric by name and unit.

    python3 perfbench/run.py --workload halo-actop --seed 1 --seconds 30 --trace 0

Run it from the root of a checkout.  Each measured repetition runs in a
fresh worker process (``worker.py``), so set-up time and peak RSS belong
to that repetition.  ``--trace 0`` prints the end-to-end metrics listed
in ``BENCHMARK.json``; ``--trace 1`` runs the workload once untraced and
once traced, checks that the two agree, and prints the per-layer
metrics.  The last line of standard output is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``; the line
before it holds the details (host calibration, interpreter, every
repetition, the ladder, the span table).  The exit code is 1 when a
correctness check fails and 2 when the program cannot run at all.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from typing import Optional

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKER = os.path.join(HERE, "worker.py")
OUT_DIR = os.path.join(ROOT, ".perfbench-out")
WORKER_TIMEOUT_S = 160.0
MIN_SETUP_SAMPLES = 7

sys.path.insert(0, HERE)
from worker import NOMINAL_RATE, SLO_P99_MS, WORKLOADS, probe_s  # noqa: E402


class WorkerFailed(RuntimeError):
    """A worker process crashed or printed no result."""


def run_worker(workload: str, seed: int, *extra: str) -> dict:
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    cmd = [sys.executable, WORKER, "--workload", workload, "--seed", str(seed),
           *extra]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True,
                              text=True, timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired as exc:
        raise WorkerFailed(f"{' '.join(cmd)} timed out") from exc
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise WorkerFailed(f"{' '.join(cmd)} exited {proc.returncode}:\n"
                           f"{proc.stderr[-4000:]}")
    return json.loads(lines[-1])


# ----------------------------------------------------------------------
# Correctness
# ----------------------------------------------------------------------
def check_rep(workload: str, rep: dict) -> list[str]:
    """Failures of one repetition's own accounting (empty when correct)."""
    c = rep["checks"]
    failures = []
    answered = c["completed"] + c["failed"] + c["unanswered"]
    if c["issued"] != answered:
        failures.append(f"issued {c['issued']} != completed {c['completed']}"
                        f" + failed {c['failed']}"
                        f" + unanswered {c['unanswered']}")
    if workload == "stageflow-tcp":
        if c["mismatched"]:
            failures.append(f"{c['mismatched']} requests returned another "
                            f"payload than they sent")
        for stage, handled in c["handled"].items():
            exact = c["failed"] + c["unanswered"] == 0
            if handled < c["completed"] or (exact and handled != c["completed"]):
                failures.append(f"stage {stage} handled {handled} requests, "
                                f"{c['completed']} completed")
        return failures
    if c["unanswered"]:
        failures.append(f"{c['unanswered']} requests never answered")
    if c["completed"] != c["runtime_completed"]:
        failures.append(f"{c['completed']} completions seen, runtime counted "
                        f"{c['runtime_completed']}")
    if workload == "heartbeat" and c["beats_counted"] != c["beats_completed"]:
        failures.append(f"monitors counted {c['beats_counted']} beats, "
                        f"{c['beats_completed']} beats completed")
    return failures


def check_run(workload: str, reps: list[dict]) -> list[str]:
    failures = []
    for i, rep in enumerate(reps):
        failures += [f"rep {i}: {f}" for f in check_rep(workload, rep)]
    if workload != "stageflow-tcp":
        # Simulated statistics repeat bit for bit for a seed, traced or not.
        first = reps[0]["digest"]
        for i, rep in enumerate(reps[1:], 1):
            if rep["digest"] != first:
                failures.append(f"rep {i}: simulated statistics differ from "
                                f"rep 0: {rep['digest']} != {first}")
    return failures


# ----------------------------------------------------------------------
# Metrics
# ----------------------------------------------------------------------
def nominal_rung(rep: dict) -> dict:
    return next(r for r in rep["rungs"] if r["rate"] == NOMINAL_RATE)


def max_rps_under_slo(rep: dict) -> float:
    """Highest rung with p99 within the SLO, no failures, and no growing
    backlog: at most the requests the SLO admits in flight (Little's law,
    rate x p99 limit) still outstanding when the rung's schedule ends."""
    best = 0.0
    for r in rep["rungs"]:
        in_flight = r["rate"] * SLO_P99_MS / 1e3
        if (r["p99_ms"] <= SLO_P99_MS and r["failed"] + r["unanswered"] == 0
                and r["backlog_end"] <= in_flight):
            best = max(best, float(r["rate"]))
    return best


def end_to_end(workload: str, reps: list[dict], setups: list[float]) -> dict:
    if workload == "stageflow-tcp":
        rung = nominal_rung(reps[0])
        cpu_ms = rung["cpu_ref_s"] / max(1, rung["completed"]) * 1e3
    else:
        cpu_ms = statistics.median(r["cpu_s"] / r["requests"] * 1e3 for r in reps)
    return {
        "setup_s": statistics.median(setups),
        "run_s": statistics.median(r["run_s"] for r in reps),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in reps),
        "cpu_ms_per_req": cpu_ms,
    }


def per_layer(workload: str, untraced: dict, traced: dict) -> dict:
    spans, layers = traced["spans"], traced["layers"]
    extra = traced["span_extra"]

    def n(name: str) -> int:
        return spans.get(name, [0, 0.0])[0]

    def s(*names: str) -> float:
        return sum(spans.get(name, [0, 0.0])[1] for name in names)

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    sim = workload != "stageflow-tcp"
    m = {
        "engine.events": layers.get("engine.events", 0),
        "engine.events_per_req": ratio(layers.get("engine.events", 0),
                                       traced["requests"]) if sim else 0.0,
        "stage.submits": n("stage.submit"),
        "stage.submit_s": s("stage.submit"),
        "stage.queue_wait_ms": layers.get("stage.queue_wait_ms", 0.0),
        "cpu.submits": n("cpu.submit"),
        "cpu.submit_s": s("cpu.submit"),
        "cpu.ready_ms": layers.get("cpu.ready_ms", 0.0),
        "cpu.utilization": layers.get("cpu.utilization", 0.0),
        "server.delivers": n("server.deliver"),
        "server.deliver_s": s("server.deliver"),
        "server.msgs_local": layers.get("server.msgs_local", 0),
        "server.msgs_remote": layers.get("server.msgs_remote", 0),
        "network.delivers": n("network.deliver"),
        "network.bytes": layers.get("network.bytes", 0),
        "network.deliver_s": s("network.deliver"),
        "directory.lookups": n("directory.lookup"),
        "directory.lookup_s": s("directory.lookup"),
        "commtable.records": n("commtable.record"),
        "commtable.record_s": s("commtable.record"),
        "commtable.drain_s": s("commtable.drain"),
        "spacesaving.offers": n("spacesaving.offer"),
        "spacesaving.offer_s": s("spacesaving.offer"),
        "spacesaving.decay_s": s("spacesaving.decay"),
        "spacesaving.hit_ratio": ratio(extra.get("spacesaving.hits", 0),
                                       n("spacesaving.offer")),
        "partitioning.rounds": n("partitioning.round"),
        "partitioning.round_s": s("partitioning.round"),
        "partitioning.build_view_s": s("partitioning.build_view"),
        "partitioning.fold_s": s("partitioning.fold"),
        "partitioning.serve_s": s("partitioning.serve"),
        "partitioning.accept_ratio": ratio(
            layers.get("partitioning.accepted", 0),
            layers.get("partitioning.initiated", 0)),
        "partitioning.migrations": layers.get("partitioning.migrations", 0),
        "threads.solves": n("threads.solve"),
        "threads.solve_s": s("threads.solve", "threads.integerize"),
        "threads.reallocations": layers.get("threads.reallocations", 0),
        "pools.routes": n("pools.route"),
        "pools.route_s": s("pools.route"),
        "aio.turns": layers.get("aio.turns", 0),
        "aio.msgs_remote": layers.get("aio.msgs_remote", 0),
        "aio.timeouts": layers.get("aio.timeouts", 0),
        "aio.late_responses": layers.get("aio.late_responses", 0),
        "transport.connections_opened": n("transport.open_connection"),
        "transport.frames": n("transport.write"),
        "transport.bytes": extra.get("transport.bytes", 0),
        "transport.pickle_s": s("transport.pickle_dumps",
                                "transport.pickle_loads"),
        "transport.pickle_failures": layers.get("transport.pickle_failures", 0),
        "trace.overhead": ratio(traced["run_s"], untraced["run_s"]),
    }
    attempted = untraced["checks"]["issued"] + traced["checks"]["issued"]
    lost = sum(r["checks"]["failed"] + r["checks"]["unanswered"]
               for r in (untraced, traced))
    m["failed_share"] = ratio(lost, attempted)
    if sim:
        digest = untraced["digest"]
        m.update({
            "remote_fraction": digest["remote_fraction"],
            "sim_p50_ms": digest["p50_ms"], "sim_p99_ms": digest["p99_ms"],
            "wall_p50_ms": 0.0, "wall_p99_ms": 0.0,
            "max_rps_under_slo": 0.0,
            "gen.sent": 0, "gen.late_p99_ms": 0.0, "gen.backlog_end": 0,
        })
    else:
        rung = nominal_rung(untraced)
        m.update({
            "remote_fraction": ratio(
                layers["aio.msgs_remote"],
                layers["aio.msgs_remote"] + layers["aio.msgs_local"]),
            "sim_p50_ms": 0.0, "sim_p99_ms": 0.0,
            "wall_p50_ms": statistics.median(rung["window_p50_ms"]),
            "wall_p99_ms": statistics.median(rung["window_p99_ms"]),
            "max_rps_under_slo": max_rps_under_slo(untraced),
            "gen.sent": sum(r["sent"] for r in untraced["rungs"]),
            "gen.late_p99_ms": rung["late_p99_ms"],
            "gen.backlog_end": max(r["backlog_end"] for r in untraced["rungs"]),
        })
    return m


def emit(values: dict, listed: list[dict]) -> dict:
    """Every metric listed in BENCHMARK.json, by name, with its unit."""
    return {spec["name"]: {"value": values[spec["name"]], "unit": spec["unit"]}
            for spec in listed}


# ----------------------------------------------------------------------
def measure(workload: str, seed: int, seconds: float, trace: bool,
            smoke: bool) -> tuple[list[dict], list[dict]]:
    """Run the repetitions; returns (repetitions, set-up samples)."""
    common = ["--seconds", str(seconds)] + (["--smoke"] if smoke else [])
    # Untimed first set-up: compiles bytecode and warms the file cache.
    run_worker(workload, seed, "--setup-only", *common)
    reps = [run_worker(workload, seed, *common)]
    if trace:
        os.makedirs(OUT_DIR, exist_ok=True)
        spans = os.path.join(OUT_DIR, f"{workload}-spans.npz")
        reps.append(run_worker(workload, seed, "--trace-to", spans, *common))
    elif workload != "stageflow-tcp":
        # Repeat the fixed simulated horizon while another fits in the
        # run's seconds; run_s is the median over the repetitions.
        while (sum(r["host_run_s"] for r in reps) + reps[-1]["host_run_s"]
               <= seconds):
            reps.append(run_worker(workload, seed, *common))
    setups = [{k: rep[k] for k in ("setup_s", "host_setup_s")} for rep in reps]
    while len(setups) < MIN_SETUP_SAMPLES:
        setups.append(run_worker(workload, seed, "--setup-only", *common))
    return reps, setups


def main(argv: Optional[list] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny workload sizes, for the self-tests")
    args = parser.parse_args(argv)

    if not os.path.isdir(os.path.join(ROOT, "src", "repro")):
        print(f"perfbench: no program source under {ROOT}/src/repro",
              file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)

    # Best of five probes: context for comparing hosts, not gated.
    calibration = min(probe_s() for _ in range(5))
    try:
        reps, setups = measure(args.workload, args.seed, args.seconds,
                               bool(args.trace), args.smoke)
    except WorkerFailed as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2

    failures = check_run(args.workload, reps)
    if args.trace:
        metrics = emit(per_layer(args.workload, reps[0], reps[1]),
                       spec["per_layer"])
    else:
        metrics = emit(end_to_end(args.workload, reps,
                                  [s["setup_s"] for s in setups]),
                       spec["end_to_end"])
    detail = {
        "workload": args.workload, "seed": args.seed,
        "python": platform.python_version(),
        "host_probe_s": calibration,
        "setup_samples_s": setups,
        "reps": [{k: v for k, v in rep.items() if k != "spans"}
                 for rep in reps],
        "spans": reps[-1].get("spans"),
        "failures": failures,
    }
    print(json.dumps({"detail": detail}))
    for failure in failures:
        print(f"perfbench: check failed: {failure}", file=sys.stderr)
    print(json.dumps({
        "correct": not failures,
        "attempted": sum(rep["checks"]["issued"] for rep in reps),
        "failed": sum(rep["checks"]["failed"] + rep["checks"]["unanswered"]
                      for rep in reps),
        "metrics": metrics,
    }))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
