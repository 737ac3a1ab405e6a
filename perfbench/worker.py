"""One run of one benchmark workload, in a process of its own.

``run.py`` starts this script once per measured repetition, so that
set-up time (imports included) and peak RSS belong to that repetition
alone.  The script prints one JSON document of raw measurements as its
last line of standard output; ``run.py`` checks and aggregates them.

    PYTHONPATH=src python3 perfbench/worker.py --workload heartbeat --seed 1
    PYTHONPATH=src python3 perfbench/worker.py --workload halo-actop \
        --seed 1 --trace-to .perfbench-out/halo.npz
"""

from __future__ import annotations

import time

# Host speed.  The host is shared, and its speed drifts by up to 2x over
# tens of seconds while the work stays the same.  A fixed pure-Python
# loop, run before and after every timed slice of work, measures that
# speed; each slice's host time is scaled by PROBE_REF_S over the mean
# loop time around it, so the timings read as seconds on a host where
# the loop takes PROBE_REF_S.  The loop calls nothing of the program and
# allocates nothing the cyclic collector tracks, so a change to the
# program moves the timings and never the yardstick.
PROBE_LOOPS = 60_000
PROBE_REF_S = 0.005


def probe_s(loops: int = PROBE_LOOPS) -> float:
    """Host seconds for the fixed pure-Python loop."""
    t0 = time.perf_counter()
    acc = 0
    for i in range(loops):
        acc += i * i % 7
    return time.perf_counter() - t0


def host_scale(before: float, after: float, loops: int = PROBE_LOOPS) -> float:
    """Factor from host seconds to reference seconds for a slice of work
    between two probes of ``loops`` iterations."""
    return PROBE_REF_S * loops / PROBE_LOOPS / ((before + after) / 2)


def _probe_median() -> float:
    return sorted(probe_s() for _ in range(3))[1]


_PROBE_BEFORE_SETUP = _probe_median()
_T_START = time.perf_counter()  # set-up time counts from here, imports included

import argparse  # noqa: E402
import json  # noqa: E402
import random  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
from collections import Counter  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from typing import Optional  # noqa: E402

WORKLOADS = ("halo-actop", "heartbeat", "stageflow-tcp")


@dataclass(frozen=True)
class SimShape:
    """One simulated workload run: the arguments of its experiment in
    ``repro.bench.harness``, then the warm-up and the measured window
    (simulated seconds)."""

    experiment: dict
    warmup: float
    duration: float


# Halo Presence at the calibrated 80%-utilization point: a load fraction
# of 0.2 at 10K players is 12.7K paper req/s on the harness's 10 silos.
# Partitioning starts at 15 s; the measured window opens 10 s later.
HALO = SimShape(dict(players=10_000, load_fraction=0.2, partitioning=True,
                     thread_allocation=True), warmup=25.0, duration=25.0)
HALO_SMOKE = SimShape(dict(players=800, load_fraction=0.2, num_servers=4,
                           partitioning=True, thread_allocation=True),
                      warmup=16.0, duration=4.0)
# Heartbeat at the harness defaults: the paper's 15K req/s top load on
# one silo, 800 monitors.
HEARTBEAT = SimShape(dict(thread_allocation=True), warmup=25.0, duration=35.0)
HEARTBEAT_SMOKE = SimShape(dict(monitors=200, thread_allocation=True),
                           warmup=4.5, duration=1.0)
# The simulated horizon is timed in slices of this many simulated
# seconds (0.1-0.3 s of host time each), with a host probe between them.
SLICE_SIM_S = 0.5

# Stageflow over TCP: an open-loop ladder of offered rates (requests per
# wall second).  Each rung is (rate, share of the run's seconds).  The
# nominal rung sits below the knee (700-1000 rps on a 2-core host,
# depending on how busy the host is) and is the one the CPU and latency
# metrics read.  The rungs above it climb to about twice the knee, so
# that a faster transport has room to raise ``max_rps_under_slo``; they
# are short enough that the backlog they build drains well inside the
# 5 s call timeout.
NOMINAL_RATE = 400
LADDER = ((200, 0.04), (NOMINAL_RATE, 0.2),
          *((rate, 0.03) for rate in range(500, 1101, 100)),
          *((rate, 0.025) for rate in range(1200, 1801, 200)))
SLO_P99_MS = 50.0
STAGEFLOW_SILOS = 4
HEAVY_FRACTION = 0.1
PAYLOAD_BYTES = 64
# Each rung's latencies are also split into this many equal windows by
# due time; the nominal figures are the median over the windows, so one
# host stall moves one window instead of the whole rung's p99.
WINDOWS = 3
# The ladder's CPU time is scaled by a short host probe (about 0.5 ms)
# run from the event loop this often.
LOOP_PROBE_LOOPS = 6_000
LOOP_PROBE_PERIOD_S = 0.1


def _setup_s() -> tuple[float, float]:
    """(set-up time in reference seconds, in host seconds), from the
    start of the script to now."""
    host = time.perf_counter() - _T_START
    return host * host_scale(_PROBE_BEFORE_SETUP, _probe_median()), host


class SlicedRun:
    """Stands in for ``runtime.run``: advances the simulator to the
    horizon in slices of :data:`SLICE_SIM_S`, probing the host between
    slices, and sums each slice's wall and CPU time, on the host and
    scaled to the reference host.  Slicing a run leaves the simulation
    bit for bit the same (the engine stops after the last event due by
    ``until``)."""

    def __init__(self, runtime):
        self.runtime, self.run = runtime, runtime.run
        self.probe = probe_s()
        self.wall = self.cpu = self.wall_ref = self.cpu_ref = 0.0

    def __call__(self, until: float) -> None:
        t = self.runtime.sim.now
        while t < until:
            t = min(until, t + SLICE_SIM_S)
            wall0, cpu0 = time.perf_counter(), time.process_time()
            self.run(until=t)
            wall = time.perf_counter() - wall0
            cpu = time.process_time() - cpu0
            probe = probe_s()
            scale = host_scale(self.probe, probe)
            self.probe = probe
            self.wall += wall
            self.cpu += cpu
            self.wall_ref += wall * scale
            self.cpu_ref += cpu * scale


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _percentile(sorted_values: list, q: float) -> float:
    """Nearest-rank percentile of an ascending list (0 when empty).

    Kept apart from the program's own recorders, so that a change to
    them cannot move the benchmark's readings."""
    if not sorted_values:
        return 0.0
    rank = max(1, -(-len(sorted_values) * q // 100))
    return sorted_values[int(rank) - 1]


class RequestLedger:
    """Counts client requests per method as they are issued and answered.

    Installed on a runtime instance in place of ``client_request``; it
    adds a completion hook and nothing else, so the simulation is
    unchanged (hooks draw no RNG and schedule nothing).
    """

    def __init__(self, runtime, error_type: type):
        self.issued: Counter = Counter()
        self.completed: Counter = Counter()
        self.failed: Counter = Counter()
        original = runtime.client_request

        def client_request(ref, method, *args, on_complete=None, **kwargs):
            self.issued[method] += 1

            def done(latency, result):
                if isinstance(result, error_type):
                    self.failed[method] += 1
                else:
                    self.completed[method] += 1
                if on_complete is not None:
                    on_complete(latency, result)

            return original(ref, method, *args, on_complete=done, **kwargs)

        runtime.client_request = client_request

    def outstanding(self) -> int:
        return (sum(self.issued.values()) - sum(self.completed.values())
                - sum(self.failed.values()))


# ----------------------------------------------------------------------
# Simulated workloads
# ----------------------------------------------------------------------
def _build_sim(workload: str, seed: int, shape: SimShape):
    """Import, build the cluster and install the workload (set-up)."""
    from repro.actor.errors import ActorError
    from repro.bench.harness import HaloExperiment, HeartbeatExperiment

    kind = HaloExperiment if workload == "halo-actop" else HeartbeatExperiment
    experiment = kind(seed=seed, **shape.experiment)
    ledger = RequestLedger(experiment.runtime, ActorError)
    # The experiment's run() is start() then _measure(); starting here
    # counts installing the workload (Halo's 10K-player bootstrap) as
    # set-up rather than as part of the timed horizon.
    experiment.workload.start()
    experiment.cluster.start()
    return experiment, ledger


def _stage_totals(runtime) -> tuple[int, float, float]:
    """(completions, summed queue wait, summed CPU ready wait) over
    every stage of every silo."""
    completions, queue_wait, ready = 0, 0.0, 0.0
    for silo in runtime.silos:
        for stage in silo.server.stages.values():
            st = stage.stats
            completions += st.completions
            queue_wait += st.sum_queue_wait
            ready += st.sum_ready
    return completions, queue_wait, ready


def _reallocations(actop) -> int:
    """Thread re-allocations that changed some stage's thread count."""
    changes = 0
    for controller in actop.controllers:
        previous = None
        for event in controller.allocations:
            if event.allocation != previous:
                changes += 1
            previous = event.allocation
    return changes


def run_sim(workload: str, seed: int, smoke: bool, tracer) -> dict:
    if workload == "halo-actop":
        shape = HALO_SMOKE if smoke else HALO
    else:
        shape = HEARTBEAT_SMOKE if smoke else HEARTBEAT
    experiment, ledger = _build_sim(workload, seed, shape)
    setup_s, host_setup_s = _setup_s()
    rt, actop, ts = experiment.runtime, experiment.actop, experiment.time_scale

    # The harness resets the latency recorders when the measured window
    # opens; the stage totals are taken at that same point.
    window_open: list = []
    reset_latency_stats = rt.reset_latency_stats

    def reset_and_snapshot() -> None:
        window_open.append(_stage_totals(rt))
        reset_latency_stats()

    rt.reset_latency_stats = reset_and_snapshot
    if tracer is not None:
        tracer.install_sim()
    sliced = SlicedRun(rt)
    rt.run = sliced
    result = experiment._measure(shape.warmup, shape.duration)
    rt.run = sliced.run
    if tracer is not None:
        tracer.close()
    issued_in_run = sum(ledger.issued.values())

    stages0, stages1 = window_open[0], _stage_totals(rt)
    completions = max(1, stages1[0] - stages0[0])
    layers = {
        "engine.events": rt.sim.events_processed,
        "stage.queue_wait_ms": (stages1[1] - stages0[1]) / completions / ts * 1e3,
        "cpu.ready_ms": (stages1[2] - stages0[2]) / completions / ts * 1e3,
        "cpu.utilization": result.cpu_utilization,
        "server.msgs_local": rt.msgs_local,
        "server.msgs_remote": rt.msgs_remote,
        "network.bytes": rt.network.bytes_sent,
        "partitioning.initiated": sum(a.exchanges_initiated for a in actop.agents),
        "partitioning.accepted": sum(a.exchanges_accepted for a in actop.agents),
        "partitioning.migrations": rt.migrations_total if actop.agents else 0,
        "threads.reallocations": _reallocations(actop),
    }
    # Everything here is simulated, so it must repeat bit for bit for a
    # seed: across fresh processes and between traced and untraced runs.
    digest = {
        "p50_ms": result.median * 1e3,
        "p99_ms": result.p99 * 1e3,
        "samples": result.requests,
        "remote_fraction": result.remote_fraction,
        "issued": issued_in_run,
        "events": rt.sim.events_processed,
        "migrations": rt.migrations_total,
        "network_bytes": rt.network.bytes_sent,
    }

    # Drain: stop new arrivals and let every issued request finish, so
    # that issued = completed + failed can be checked exactly.
    experiment.workload.stop()
    horizon = shape.warmup + shape.duration
    step = 1.0
    while ledger.outstanding() and rt.sim.now < horizon + 60.0:
        rt.run(until=rt.sim.now + step)

    checks = {
        "issued": sum(ledger.issued.values()),
        "completed": sum(ledger.completed.values()),
        "failed": sum(ledger.failed.values()),
        "unanswered": ledger.outstanding(),
        "runtime_completed": rt.requests_completed,
    }
    if workload == "heartbeat":
        checks["beats_completed"] = ledger.completed["beat"]
        checks["beats_counted"] = sum(
            a.instance.beats for silo in rt.silos
            for a in silo.activations.values())
    return {
        "setup_s": setup_s, "run_s": sliced.wall_ref, "cpu_s": sliced.cpu_ref,
        "host_setup_s": host_setup_s, "host_run_s": sliced.wall,
        "host_cpu_s": sliced.cpu,
        "requests": issued_in_run, "digest": digest, "layers": layers,
        "checks": checks,
    }


# ----------------------------------------------------------------------
# Stageflow over TCP on the asyncio backend
# ----------------------------------------------------------------------
def ladder(seconds: float) -> list[tuple[int, float]]:
    """(offered rate, rung seconds) pairs for a run of ``seconds``."""
    return [(rate, share * seconds) for rate, share in LADDER]


def make_schedule(seed: int, seconds: float) -> list[list[tuple]]:
    """Per rung, the precomputed open-loop requests: (offset seconds,
    kind, payload).  Depends on the seed alone."""
    rng = random.Random(f"stageflow-tcp/{seed}")
    rungs, seq = [], 0
    for rate, duration in ladder(seconds):
        requests, t = [], 0.0
        while True:
            t += rng.expovariate(rate)
            if t >= duration:
                break
            kind = "heavy" if rng.random() < HEAVY_FRACTION else "light"
            requests.append((t, kind, (seq, rng.randbytes(PAYLOAD_BYTES))))
            seq += 1
        rungs.append(requests)
    return rungs


def _build_stageflow():
    from repro.actor.errors import ActorError
    from repro.actor.runtime import ClusterConfig
    from repro.cluster import build_cluster
    from repro.workloads.stageflow import StageflowConfig, StageflowWorkload

    # The cluster's own seed (actor placement, gateway choice) is fixed:
    # --seed varies the request schedule, not the deployment, so runs on
    # different seeds measure the same system under different inputs.
    cluster = build_cluster(ClusterConfig(num_servers=STAGEFLOW_SILOS, seed=0),
                            backend="asyncio", transport="tcp")
    workload = StageflowWorkload(cluster.runtime, StageflowConfig())
    cluster.start()
    workload.start(arrivals=False)
    return cluster, workload, ActorError


class LoopProbe:
    """Probes the host from the event loop every LOOP_PROBE_PERIOD_S and
    sums the process CPU time between probes (the probes' own excluded),
    on the host and scaled to the reference host.  A probe between rungs
    alone samples the host too seldom to follow it through the 6 s
    nominal rung; this one is short (about 0.5 ms), so it stalls the
    open-loop schedule by a fraction of its p50 latency."""

    def __init__(self, clock):
        self.clock = clock
        self.probe = probe_s(LOOP_PROBE_LOOPS)
        self.mark = time.process_time()
        self.cpu = self.cpu_ref = 0.0
        self.handle = clock.schedule(LOOP_PROBE_PERIOD_S, self._tick)

    def cut(self) -> tuple[float, float]:
        """Close the current interval; returns the (host, scaled) CPU
        totals so far."""
        cpu = time.process_time() - self.mark
        probe = probe_s(LOOP_PROBE_LOOPS)
        self.cpu += cpu
        self.cpu_ref += cpu * host_scale(self.probe, probe, LOOP_PROBE_LOOPS)
        self.probe = probe
        self.mark = time.process_time()
        return self.cpu, self.cpu_ref

    def _tick(self) -> None:
        self.cut()
        self.handle = self.clock.schedule(LOOP_PROBE_PERIOD_S, self._tick)

    def close(self) -> None:
        self.handle.cancel()


def _run_rung(backend, workload, error_type, requests, rate, duration,
              sampler) -> dict:
    """Issue one rung on its schedule, then wait for every answer."""
    clock = backend.clock
    outstanding: dict = {}
    latencies: list[list[float]] = [[] for _ in range(WINDOWS)]
    lateness: list[float] = []
    tally = {"completed": 0, "failed": 0, "mismatched": 0}
    pipelines = workload.config.pipelines

    def issue(due: float, kind: str, payload: tuple) -> None:
        lateness.append(clock.now - due)
        seq = payload[0]
        ref = backend.ref(workload.PIPELINE, seq % pipelines)

        def done(_latency, result) -> None:
            outstanding.pop(seq, None)
            if isinstance(result, error_type):
                tally["failed"] += 1
                return
            tally["completed"] += 1
            if result != payload:
                tally["mismatched"] += 1
            window = min(WINDOWS - 1, int((due - start) * WINDOWS / duration))
            latencies[window].append(clock.now - due)  # timed from due time

        outstanding[seq] = backend.client_request(
            ref, "process", kind, payload, size=PAYLOAD_BYTES + 64,
            on_complete=done)

    start = clock.now + 0.005
    for offset, kind, payload in requests:
        due = start + offset
        clock.schedule(due - clock.now, issue, due, kind, payload)
    wall0 = time.perf_counter()
    cpu0, ref0 = sampler.cut()
    backend.run(until=start + duration)
    while len(lateness) < len(requests):   # generator running late
        backend.run(until=clock.now + 0.01)
    backlog = len(outstanding)
    # Drain on the outstanding futures themselves, not on run_until_idle
    # (which can report idle while TCP frames are still in flight).
    # Every client request carries the backend's call timeout, so a
    # request still unanswered well past it is counted as never answered.
    deadline = time.perf_counter() + (backend.call_timeout or 0.0) + 10.0
    while outstanding and time.perf_counter() < deadline:
        backend.flush(timeout=1.0)
    wall = time.perf_counter() - wall0
    cpu1, ref1 = sampler.cut()
    lateness.sort()
    windows = [sorted(w) for w in latencies]
    everything = sorted(x for w in latencies for x in w)
    return {
        "rate": rate, "seconds": duration, "sent": len(requests),
        "completed": tally["completed"], "failed": tally["failed"],
        "mismatched": tally["mismatched"], "unanswered": len(outstanding),
        "backlog_end": backlog,
        "p50_ms": _percentile(everything, 50) * 1e3,
        "p99_ms": _percentile(everything, 99) * 1e3,
        "window_p50_ms": [_percentile(w, 50) * 1e3 for w in windows],
        "window_p99_ms": [_percentile(w, 99) * 1e3 for w in windows],
        "late_p99_ms": _percentile(lateness, 99) * 1e3,
        "wall_s": wall, "cpu_s": cpu1 - cpu0, "cpu_ref_s": ref1 - ref0,
    }


def run_stageflow(seed: int, seconds: float, tracer) -> dict:
    cluster, workload, error_type = _build_stageflow()
    setup_s, host_setup_s = _setup_s()
    backend = cluster.runtime
    schedule = make_schedule(seed, seconds)
    if tracer is not None:
        tracer.install_sim()
        tracer.install_pools()
        tracer.install_transport()
    try:
        sampler = LoopProbe(backend.clock)
        rungs = [_run_rung(backend, workload, error_type, requests, rate,
                           duration, sampler)
                 for requests, (rate, duration) in zip(schedule,
                                                       ladder(seconds))]
        sampler.close()
        handled = {}
        for pool in workload.pools:
            total = 0
            for silo in backend.silos:
                for activation in silo.activations.values():
                    if activation.actor_id.actor_type == pool.worker_type:
                        inst = activation.instance
                        total += inst.handled + inst.handled_heavy
            handled[pool.name] = total
        layers = {
            "aio.turns": sum(a.messages_handled for silo in backend.silos
                             for a in silo.activations.values()),
            "aio.msgs_local": backend.msgs_local,
            "aio.msgs_remote": backend.msgs_remote,
            "aio.timeouts": backend.requests_timed_out,
            "aio.late_responses": backend.late_responses,
            "transport.pickle_failures": backend.pickle_copy_failures,
        }
    finally:
        if tracer is not None:
            tracer.close()
        cluster.shutdown()
    sent = sum(r["sent"] for r in rungs)
    return {
        # The ladder's wall time is set by its schedule; the process CPU
        # it takes to serve that fixed schedule is what a slower runtime
        # or transport moves, below the knee and above it.
        "setup_s": setup_s, "run_s": sum(r["cpu_ref_s"] for r in rungs),
        "host_setup_s": host_setup_s,
        "host_run_s": sum(r["cpu_s"] for r in rungs),
        "rungs": rungs, "layers": layers, "requests": sent,
        "checks": {
            "issued": sent,
            "completed": sum(r["completed"] for r in rungs),
            "failed": sum(r["failed"] for r in rungs),
            "unanswered": sum(r["unanswered"] for r in rungs),
            "mismatched": sum(r["mismatched"] for r in rungs),
            "handled": handled,
        },
    }


# ----------------------------------------------------------------------
def main(argv: Optional[list] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0,
                        help="length of the stageflow-tcp ladder")
    parser.add_argument("--smoke", action="store_true",
                        help="tiny sizes, for the self-tests")
    parser.add_argument("--setup-only", action="store_true",
                        help="import, build and install, then exit")
    parser.add_argument("--trace-to", metavar="NPZ", default=None,
                        help="wrap the layers, record spans, write them here")
    args = parser.parse_args(argv)

    if args.setup_only:
        if args.workload == "stageflow-tcp":
            cluster = _build_stageflow()[0]
            setup_s, host_setup_s = _setup_s()
            cluster.shutdown()
        else:
            shape = {"halo-actop": HALO_SMOKE if args.smoke else HALO,
                     "heartbeat": HEARTBEAT_SMOKE if args.smoke else HEARTBEAT}
            _build_sim(args.workload, args.seed, shape[args.workload])
            setup_s, host_setup_s = _setup_s()
        print(json.dumps({"setup_s": setup_s, "host_setup_s": host_setup_s,
                          "peak_rss_mb": _peak_rss_mb()}))
        return 0

    tracer = None
    if args.trace_to:
        from layers import Tracer

        tracer = Tracer()
    if args.workload == "stageflow-tcp":
        result = run_stageflow(args.seed, args.seconds, tracer)
    else:
        result = run_sim(args.workload, args.seed, args.smoke, tracer)
    result["peak_rss_mb"] = _peak_rss_mb()
    if tracer is not None:
        result["spans"] = tracer.table()
        result["span_extra"] = tracer.extra
        result["spans_written"] = tracer.save(args.trace_to)
        result["spans_dropped"] = tracer.dropped
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
