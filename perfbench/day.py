"""One simulated day of one workload, in a fresh interpreter.

``run.py`` starts this script once per measured day, so every day pays
the set-up a CLI call pays: interpreter start, ``import repro.api``,
cluster build, trace generation and RM construction.  Usage::

    python3 perfbench/day.py WORKLOAD SEED MODE LAUNCHED

``MODE`` is ``day`` (plain run, telemetry off, no spans), ``traced``
(telemetry session, layer spans and a mid-day snapshot capture) or
``setup`` (build the day, run no event).  ``LAUNCHED`` is the
``CLOCK_MONOTONIC`` reading the parent took just before starting this
process.  The last stdout line is one JSON object with the measurements.

The day is driven through :class:`repro.snapshot.SimWorld` in both the
plain and the traced mode, in ``SLICES`` equal slices of simulated time;
at mid-day it reads the queue depth (and, when traced, captures a
snapshot).  Splitting a day at event boundaries is event-identical to one
straight run.

Host-speed normalisation: the host's vCPUs switch between a fast and a
contended state (1.5 to 2 times slower) every few seconds.  A fixed probe,
:func:`probe`, runs before the first slice and then whenever the slices
since the last probe took ``PROBE_EVERY_S``, outside the timed intervals.
The host time between two probes is scaled by ``PROBE_REF_S`` over their
mean, so the reported times read as seconds on a host where the probe
takes ``PROBE_REF_S``.  The raw figures are reported beside them.
"""

from __future__ import annotations

import hashlib
import json
import resource
import statistics
import sys
import time
import typing as t
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

#: slices of simulated time a day is run in; even, so mid-day is a boundary
SLICES = 128
#: least host time between two probes; shorter slices are grouped
PROBE_EVERY_S = 0.1
#: probe rounds: about 8 ms on a fast vCPU of the host it was tuned on
PROBE_ROUNDS = 30
#: probe time that normalised seconds refer to (that host's fast state)
PROBE_REF_S = 0.008

_PROBE_TABLE = {i: i * 7 for i in range(1024)}
_PROBE_VALUES = [float(i) for i in range(1024)]


def probe() -> float:
    """Host time of a fixed piece of interpreter work.

    It touches a small dict and list and creates no GC-tracked object, so
    it neither triggers nor pays for a collection of the day's heap.
    """
    table, values = _PROBE_TABLE, _PROBE_VALUES
    start = time.perf_counter()
    key, acc = 1, 0.0
    for _ in range(PROBE_ROUNDS):
        for value in values:
            key = (key * 1103515245 + 12345) & 1023
            table[key] = table[key] + 1
            acc += value * 0.5 if key & 1 else -value
    return time.perf_counter() - start


def digest(payload: t.Any) -> str:
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def build_world(workload: str, seed: int) -> t.Any:
    """A paused :class:`SimWorld` for ``workload`` at simulator seed ``seed``."""
    from workloads import TRACE_SEED, WORKLOADS
    from repro.api import prepare_rm_day, quick_cluster, rm_kwargs_for_config
    from repro.snapshot.world import SimWorld

    class BenchWorld(SimWorld):
        """``SimWorld`` whose job trace has a seed of its own.

        ``SimWorld`` seeds cluster and trace from ``config.seed``; this
        builds the same world with the trace from ``TRACE_SEED``.
        """

        def __init__(self, config: t.Any, trace_seed: int) -> None:
            self.config = config
            self.cluster = quick_cluster(
                n_nodes=config.n_nodes,
                n_satellites=config.n_satellites,
                seed=config.seed,
                failures=config.failures,
                monitoring=config.monitoring,
            )
            self.sim = self.cluster.sim
            self.rm, self.trace_jobs = prepare_rm_day(
                config.rm,
                self.cluster,
                n_jobs=config.n_jobs,
                seed=trace_seed,
                horizon_s=config.horizon_s,
                workload=config.workload,
                estimator=config.estimator,
                **rm_kwargs_for_config(config, self.cluster),
            )
            self.horizon_end = self.sim.now + config.horizon_s
            self.rm.run_trace(self.trace_jobs, until=None)

    return BenchWorld(WORKLOADS[workload](seed), TRACE_SEED)


def workload_report(world: t.Any, queue_mid: int) -> dict[str, t.Any]:
    """Regime figures: offered load, throughput, wait, queue stationarity."""
    config = world.config
    jobs = world.trace_jobs
    schedule = world.report().schedule
    return {
        "offered_load": sum(j.n_nodes * j.runtime_s for j in jobs)
        / (config.n_nodes * config.horizon_s),
        "trace_jobs": len(jobs),
        "submitted": len(world.rm.jobs),
        "completed": schedule.n_completed,
        "mean_wait_s": schedule.avg_wait_s,
        "queue_mid": queue_mid,
        "queue_end": len(world.rm.queue),
        # as the program reports it (ScheduleMetrics.from_jobs)
        "utilization": schedule.utilization,
    }


def layer_metrics(
    tracer: t.Any,
    counters: dict[str, float],
    gauges: dict[str, dict[str, float]],
    day: tuple[float, float],
    day_wall_s: float,
) -> dict[str, float]:
    """The per-layer metrics of one traced day."""
    spans = tracer.summary(day)

    def calls(name: str) -> int:
        return int(spans.get(name, {}).get("calls", 0))

    def self_s(*names: str) -> float:
        return sum(spans.get(n, {}).get("self_s", 0.0) for n in names)

    submit = sorted(tracer.durations("rm.submit"))

    def quantile_us(q: float) -> float:
        return submit[min(len(submit) - 1, int(q * len(submit)))] * 1e6 if submit else 0.0

    fits = counters.get("sched.backfill.attempts", 0.0)
    predictions = calls("estimate.predict")
    memo_calls = calls("network.memo_forest")
    return {
        "simkit.events": counters.get("sim.events", 0.0),
        "simkit.heap_peak": gauges.get("sim.heap.peak", {}).get("max", 0.0),
        "simkit.self_s": day_wall_s - sum(rec["top_s"] for rec in spans.values()),
        "sched.passes": counters.get("sched.passes", 0.0),
        "sched.fits": fits,
        "sched.fit_yield": counters.get("sched.backfill.starts", 0.0) / fits if fits else 0.0,
        "sched.plan_s": self_s("sched.plan"),
        "sched.resize_s": self_s("sched.resize"),
        "sched.pool_s": self_s("sched.pool"),
        "rm.submit_s": self_s("rm.submit"),
        "rm.submit_p50_us": quantile_us(0.50),
        "rm.submit_p99_us": quantile_us(0.99),
        "rm.submit_calls": float(len(submit)),
        "rm.lifecycle_s": self_s("rm.lifecycle"),
        "rm.build_s": self_s("rm.build"),
        "rm.broadcasts": counters.get("rm.broadcasts", 0.0),
        "rm.heartbeat_rounds": counters.get("rm.heartbeat_rounds", 0.0),
        "rm.master_msgs": counters.get("rm.master.msgs", 0.0),
        "estimate.calls": float(predictions),
        "estimate.trainings": counters.get("estimate.trainings", 0.0),
        "estimate.svr_fits": float(calls("estimate.svr_fit")),
        "estimate.svr_fit_s": self_s("estimate.svr_fit"),
        "estimate.kmeans_fit_s": self_s("estimate.kmeans_fit"),
        "estimate.predict_s": self_s("estimate.predict"),
        "estimate.adopted_ratio": (
            tracer.hits["estimate.predict"] / predictions if predictions else 0.0
        ),
        "network.forest_calls": float(calls("network.forest")),
        "network.forest_s": self_s("network.forest", "network.memo_forest"),
        "network.memo_hit_ratio": (
            tracer.childless("network.memo_forest", "network.forest") / memo_calls
            if memo_calls
            else 0.0
        ),
        "network.fabric_s": self_s("network.fabric"),
        "network.sockets_s": self_s("network.sockets"),
        "network.messages": counters.get("net.messages", 0.0),
        "fptree.constructs": float(calls("fptree.construct")),
        "fptree.construct_s": self_s("fptree.construct"),
        "fptree.rebuilds": counters.get("rm.heartbeat.fptree_rebuilds", 0.0),
        "cluster.predicted_failed_s": self_s("cluster.predicted_failed"),
        "cluster.build_s": self_s("cluster.build"),
        "workload.trace_s": self_s("workload.trace"),
    }


def run(workload_name: str, seed: int, mode: str, launched: float) -> dict[str, t.Any]:
    first_probe = probe()
    sys.path.insert(0, str(ROOT / "src"))
    start = time.perf_counter()
    import repro.api  # noqa: F401  (timed: every CLI call pays it)

    import_s = time.perf_counter() - start
    if not Path(repro.api.__file__).resolve().is_relative_to(ROOT / "src"):
        raise RuntimeError(f"repro imported from outside this checkout: {repro.api.__file__}")
    out: dict[str, t.Any] = {"import_s": import_s}
    tracer = tel = None
    if mode == "traced":
        import tracer as tracing
        from repro.telemetry import facade as telemetry

        # Installed for the life of this process, which ends with the day.
        tracer = tracing.Tracer()
        tracing.install(tracer)
        tel = telemetry.install()
    world = build_world(workload_name, seed)
    setup_raw_s = time.clock_gettime(time.CLOCK_MONOTONIC) - launched - first_probe
    probes = [probe()]
    out["setup_s"] = setup_raw_s * PROBE_REF_S / ((first_probe + probes[0]) / 2.0)
    out["raw"] = {"setup_s": setup_raw_s}
    if mode == "setup":
        return out
    day_start, horizon = world.sim.now, world.config.horizon_s
    # host time of each run of slices between two probes
    walls: list[float] = []
    cpus: list[float] = []
    wall_run = cpu_run = 0.0
    queue_mid = 0
    for k in range(1, SLICES + 1):
        cpu0, wall0 = time.process_time(), time.perf_counter()
        if k < SLICES:
            world.run_until(day_start + horizon * k / SLICES)
        else:
            world.run_to_horizon()
        wall1, cpu1 = time.perf_counter(), time.process_time()
        wall_run += wall1 - wall0
        cpu_run += cpu1 - cpu0
        if k == 1:
            window_start = wall0
        window_end = wall1
        if wall_run >= PROBE_EVERY_S or k in (SLICES // 2, SLICES):
            walls.append(wall_run)
            cpus.append(cpu_run)
            wall_run = cpu_run = 0.0
            probes.append(probe())
        if k == SLICES // 2:
            queue_mid = len(world.rm.queue)
            if tracer is not None:
                from repro.snapshot import capture
                from repro.snapshot.capture import canonical_state_json

                captured = time.perf_counter()
                snap = capture(world, detach=True)
                out["snapshot"] = {
                    "capture_s": time.perf_counter() - captured,
                    "bytes": len(canonical_state_json(snap.state).encode()),
                }
    scale = [PROBE_REF_S / ((a + b) / 2.0) for a, b in zip(probes, probes[1:])]
    out["day_wall_s"] = sum(w * f for w, f in zip(walls, scale))
    out["day_cpu_s"] = sum(c * f for c, f in zip(cpus, scale))
    out["raw"].update(day_wall_s=sum(walls), day_cpu_s=sum(cpus))
    out["probe_s"] = statistics.median(probes)
    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    outcome = dict(world.final_payload(), queue_mid=queue_mid, queue_end=len(world.rm.queue))
    out["outcome"] = digest(outcome)
    out["report"] = workload_report(world, queue_mid)
    if tel is not None and tracer is not None:
        snapshot = tel.snapshot()
        counters = {k: v for k, v in snapshot["counters"].items() if not k.startswith("host.")}
        out["counters"] = digest(counters)
        out["layers"] = layer_metrics(
            tracer, counters, snapshot["gauges"], (window_start, window_end),
            out["raw"]["day_wall_s"],
        )
        tracer.dump(HERE / "out" / f"spans-{workload_name}-seed{seed}.json")
    return out


if __name__ == "__main__":
    name, seed_arg, mode_arg, launched_arg = sys.argv[1:5]
    if mode_arg not in ("day", "traced", "setup"):
        sys.exit(f"unknown mode {mode_arg!r}")
    print(json.dumps(run(name, int(seed_arg), mode_arg, float(launched_arg))))
