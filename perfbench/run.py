"""The repository benchmark: simulated ESLURM days, end to end and per layer.

Run from the root of a checkout::

    python3 perfbench/run.py --workload all --seed 0            # every workload
    python3 perfbench/run.py --workload overload-16k --seed 3 --seconds 40 --trace 0
    python3 perfbench/run.py --workload steady-65k --seed 3 --seconds 40 --trace 1

Each measured day runs in a fresh interpreter (``day.py``), one at a time,
with the BLAS/OpenMP pools pinned to one thread.  ``--trace 0`` repeats
plain days until ``--seconds`` would be exceeded and reports medians of
the end-to-end metrics; ``--trace 1`` does the same and then one traced
day, and reports the per-layer metrics.  Times are normalised to a fixed
host speed by probes between slices of the day (see ``day.py``).  Every
day's simulated outcome is digested and checked (see ``README.md``).  The last stdout line is one
JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``.

``--seed n`` selects the simulator seeds ``4n .. 4n+3``; a run's days
cycle through them, so its medians average over several failure
histories.  ``--record`` runs one traced day per simulator seed of
``--seed`` and stores its outcome and counter digests under ``digests/``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
import typing as t
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
DIGESTS = HERE / "digests"

sys.path.insert(0, str(HERE))
from day import PROBE_REF_S  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

#: thread pools pinned in every measured process (set before numpy loads)
THREAD_ENV = {
    name: "1"
    for name in (
        "OMP_NUM_THREADS",
        "OPENBLAS_NUM_THREADS",
        "MKL_NUM_THREADS",
        "BLIS_NUM_THREADS",
        "VECLIB_MAXIMUM_THREADS",
        "NUMEXPR_NUM_THREADS",
    )
}

#: simulator seeds per ``--seed``; day ``i`` of a run uses ``SEEDS * seed + i % SEEDS``
SEEDS = 4
#: fewest set-up samples behind a reported ``setup_s`` median
MIN_SETUPS = 5
#: every run must end well inside the 180 s a run is allowed
RUN_LIMIT_S = 170.0

END_TO_END_UNITS = {"day_wall_s": "s", "day_cpu_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}


def per_layer_units() -> dict[str, str]:
    config = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in config["per_layer"]}


class ChildFailed(Exception):
    pass


class Runner:
    """Starts ``day.py`` children one at a time within the run's time limit."""

    def __init__(self, workload: str) -> None:
        self.workload = workload
        self.started = time.monotonic()
        self.env = {**os.environ, **THREAD_ENV}

    def elapsed(self) -> float:
        return time.monotonic() - self.started

    def child(self, mode: str, sim_seed: int) -> dict[str, t.Any]:
        launched = time.clock_gettime(time.CLOCK_MONOTONIC)
        cmd = [sys.executable, str(HERE / "day.py"), self.workload, str(sim_seed), mode,
               repr(launched)]
        try:
            proc = subprocess.run(
                cmd, cwd=ROOT, env=self.env, capture_output=True, text=True,
                timeout=max(1.0, RUN_LIMIT_S - self.elapsed()),
            )
        except subprocess.TimeoutExpired as exc:
            raise ChildFailed(f"{mode} day timed out") from exc
        if proc.returncode != 0:
            tail = proc.stderr.strip().splitlines()[-1:] or ["no output"]
            raise ChildFailed(f"{mode} day exited {proc.returncode}: {tail[0]}")
        return json.loads(proc.stdout.strip().splitlines()[-1])


def load_digests(workload: str) -> dict[str, dict[str, str]]:
    """Recorded digests of ``workload``, keyed by simulator seed."""
    path = DIGESTS / f"{workload}.json"
    return json.loads(path.read_text()) if path.exists() else {}


def check_report(report: dict[str, t.Any]) -> list[str]:
    """Bookkeeping any correct simulated day satisfies."""
    problems = []
    if not 0 <= report["completed"] <= report["submitted"] <= report["trace_jobs"]:
        problems.append("completed <= submitted <= trace jobs does not hold")
    if min(report["queue_mid"], report["queue_end"]) < 0 or report["offered_load"] <= 0:
        problems.append("negative queue depth or no offered load")
    return problems


def print_report(report: dict[str, t.Any]) -> None:
    regime = "overload" if report["offered_load"] > 1.0 else "steady"
    print(
        f"  workload: rho={report['offered_load']:.3f} ({regime}), "
        f"trace jobs={report['trace_jobs']}, submitted={report['submitted']}, "
        f"completed={report['completed']}, mean wait={report['mean_wait_s']:.1f} s"
    )
    print(
        f"  queue depth: mid-day={report['queue_mid']}, horizon={report['queue_end']}; "
        f"utilisation (as the program reports it)={report['utilization']:.3f}"
    )


def measure(
    workload: str, seed: int, seconds: float, trace: bool
) -> tuple[bool, int, int, dict[str, dict[str, t.Any]]]:
    """One run of one workload: ``(correct, attempted, failed, metrics)``."""
    runner = Runner(workload)
    recorded = load_digests(workload)
    days: list[dict[str, t.Any]] = []
    setups: list[float] = []
    errors: list[str] = []
    attempted = 0

    def attempt(mode: str, sim_seed: int) -> dict[str, t.Any] | None:
        nonlocal attempted
        attempted += 1
        try:
            return dict(runner.child(mode, sim_seed), sim_seed=sim_seed)
        except (ChildFailed, json.JSONDecodeError, IndexError) as exc:
            errors.append(str(exc))
            return None

    seeds = [SEEDS * seed + i for i in range(SEEDS)]
    print(f"{workload} seed={seed}: simulator seeds {seeds}; threads pinned "
          f"({', '.join(f'{k}=1' for k in THREAD_ENV)})")
    while True:
        before = runner.elapsed()
        day = attempt("day", seeds[len(days) % SEEDS])
        if day is not None:
            days.append(day)
            setups.append(day["setup_s"])
        if day is None or runner.elapsed() + (runner.elapsed() - before) > seconds:
            break
    while days and len(setups) < MIN_SETUPS:
        probe = attempt("setup", seeds[0])
        if probe is None:
            break
        setups.append(probe["setup_s"])
    traced = attempt("traced", seeds[0]) if trace and days else None
    if not days or (trace and traced is None):
        for error in errors:
            print(f"  error: {error}", file=sys.stderr)
        raise ChildFailed(f"{workload}: no day completed")

    # -- outcome check --------------------------------------------------
    # Per simulator seed, the expected digest is the recorded one or, for
    # an unrecorded seed, that of the seed's first day in this run.
    expected: dict[int, str] = {}
    for day in days:
        entry = recorded.get(str(day["sim_seed"]))
        expected.setdefault(day["sim_seed"], entry["outcome"] if entry else day["outcome"])
    measured = days + ([traced] if traced is not None else [])
    mismatched = sum(day["outcome"] != expected[day["sim_seed"]] for day in measured)
    problems = errors + [p for day in days for p in check_report(day["report"])]
    if mismatched:
        problems.append(f"{mismatched} day(s) differ from their seed's expected outcome")
    counters = recorded.get(str(seeds[0]), {}).get("counters")
    if traced is not None and counters is not None and traced["counters"] != counters:
        mismatched += 1
        problems.append("traced telemetry counters differ from the recorded digest")
    failed = len(errors) + mismatched
    n_recorded = sum(str(s) in recorded for s in expected)
    verdict = "ok" if not problems else "FAILED: " + "; ".join(problems)
    print_report(days[0]["report"])
    walls = [d["day_wall_s"] for d in days]
    print(f"  days: {len(days)} plain" + (" + 1 traced" if traced else "")
          + f"; walls {', '.join(f'{w:.3f}' for w in walls)} s (normalised)")
    raw_walls = [d["raw"]["day_wall_s"] for d in days]
    print(f"  raw: walls {', '.join(f'{w:.3f}' for w in raw_walls)} s; "
          f"median probe {statistics.median(d['probe_s'] for d in days) * 1e3:.2f} ms "
          f"(reference {PROBE_REF_S * 1e3:.2f} ms)")
    print(f"  outcome check: {verdict} ({len(expected)} seed(s), {n_recorded} with a "
          "recorded digest; the others must agree across their days)")

    if traced is None:
        values = {
            "day_wall_s": statistics.median(walls),
            "day_cpu_s": statistics.median(d["day_cpu_s"] for d in days),
            "setup_s": statistics.median(setups),
            "peak_rss_mb": statistics.median(d["peak_rss_mb"] for d in days),
        }
        units = END_TO_END_UNITS
    else:
        values = dict(traced["layers"])
        values.update({
            "api.import_s": traced["import_s"],
            "workload.offered_load": traced["report"]["offered_load"],
            "snapshot.capture_s": traced["snapshot"]["capture_s"],
            "snapshot.bytes": traced["snapshot"]["bytes"],
            "telemetry.trace_overhead_s": traced["day_wall_s"] - statistics.median(
                d["day_wall_s"] for d in days if d["sim_seed"] == seeds[0]
            ),
        })
        units = per_layer_units()
        values = {name: values[name] for name in units}
    metrics = {name: {"value": values[name], "unit": units[name]} for name in units}
    for name, metric in metrics.items():
        print(f"  {name:<30} {metric['value']:>16.6g} {metric['unit']}")
    return not problems, attempted, failed, metrics


def record(workload: str, seed: int) -> None:
    """Store the outcome and counter digests of one traced day per simulator seed."""
    digests = load_digests(workload)
    for sim_seed in range(SEEDS * seed, SEEDS * (seed + 1)):
        traced = Runner(workload).child("traced", sim_seed)
        digests[str(sim_seed)] = {"outcome": traced["outcome"], "counters": traced["counters"]}
        print(f"{workload} simulator seed {sim_seed}: outcome {traced['outcome'][:12]}")
    DIGESTS.mkdir(exist_ok=True)
    path = DIGESTS / f"{workload}.json"
    path.write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all", choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", action="store_true")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro" / "api" / "__init__.py").is_file():
        print(f"no program source under {ROOT / 'src'}; run from a repository checkout",
              file=sys.stderr)
        return 2
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    if args.record:
        for name in names:
            record(name, args.seed)
        return 0
    correct, attempted, failed, metrics = True, 0, 0, {}
    for name in names:
        try:
            ok, tried, bad, values = measure(name, args.seed, args.seconds, bool(args.trace))
        except ChildFailed as exc:
            print(exc, file=sys.stderr)
            return 1
        correct, attempted, failed = correct and ok, attempted + tried, failed + bad
        prefix = "" if len(names) == 1 else f"{name}."
        metrics.update({prefix + key: value for key, value in values.items()})
    print(json.dumps(
        {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}
    ))
    return 0


if __name__ == "__main__":
    sys.exit(main())
