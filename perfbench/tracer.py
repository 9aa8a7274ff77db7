"""Outside-in span tracing of the program's layer boundaries.

:func:`install` wraps public functions of each layer with a stack-based
recorder.  Every call becomes one span: name, start, end and the index of
the enclosing span.  Spans stay in memory until :meth:`Tracer.dump`.
A span's self time is its duration minus the time its direct children
cover; since spans nest on one stack, the children never overlap.

Hot calls such as ``NodePool.fits`` (1.2M per overloaded day) are not
wrapped; their counts come from the program's own telemetry counters.
"""

from __future__ import annotations

import functools
import json
import time
import typing as t
from pathlib import Path

_clock = time.perf_counter


class Tracer:
    """Spans in parallel columns, appended in call order."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self._stack: list[int] = []
        #: per-span-name counts of calls whose result met a predicate
        self.hits: dict[str, int] = {}

    def wrap(
        self,
        owner: t.Any,
        attr: str,
        name: str,
        hit: t.Callable[[tuple, t.Any], bool] | None = None,
    ) -> None:
        """Replace ``owner.attr`` with a recording wrapper.

        ``hit(args, result)`` — when given — counts the calls whose
        result it accepts under ``self.hits[name]``.
        """
        original = owner.__dict__[attr]
        names, starts, ends, parents, stack = (
            self.names, self.starts, self.ends, self.parents, self._stack
        )
        self.hits.setdefault(name, 0)
        hits = self.hits

        @functools.wraps(original)
        def recorded(*args: t.Any, **kwargs: t.Any) -> t.Any:
            index = len(names)
            names.append(name)
            parents.append(stack[-1] if stack else -1)
            ends.append(0.0)
            stack.append(index)
            starts.append(_clock())
            try:
                result = original(*args, **kwargs)
            finally:
                ends[index] = _clock()
                stack.pop()
            if hit is not None and hit(args, result):
                hits[name] += 1
            return result

        setattr(owner, attr, recorded)

    # -- aggregation -------------------------------------------------------
    def self_times(self) -> list[float]:
        """Per-span duration minus the duration of its direct children."""
        own = [end - start for start, end in zip(self.starts, self.ends)]
        for index, parent in enumerate(self.parents):
            if parent >= 0:
                own[parent] -= self.ends[index] - self.starts[index]
        return own

    def summary(self, window: tuple[float, float]) -> dict[str, dict[str, float]]:
        """Per name: calls, total self time, and top-level time in ``window``.

        ``top_s`` sums the durations of parentless spans that start
        inside ``window`` — what the simulated day spent inside any
        wrapped layer.
        """
        out: dict[str, dict[str, float]] = {}
        lo, hi = window
        for index, own in enumerate(self.self_times()):
            rec = out.setdefault(self.names[index], {"calls": 0, "self_s": 0.0, "top_s": 0.0})
            rec["calls"] += 1
            rec["self_s"] += own
            if self.parents[index] < 0 and lo <= self.starts[index] < hi:
                rec["top_s"] += self.ends[index] - self.starts[index]
        return out

    def durations(self, name: str) -> list[float]:
        return [
            end - start
            for n, start, end in zip(self.names, self.starts, self.ends)
            if n == name
        ]

    def childless(self, name: str, child: str) -> int:
        """How many ``name`` spans have no direct ``child`` span."""
        with_child = {
            self.parents[i] for i, n in enumerate(self.names) if n == child and self.parents[i] >= 0
        }
        return sum(
            1 for i, n in enumerate(self.names) if n == name and i not in with_child
        )

    def dump(self, path: Path) -> None:
        """Write every span as ``[name, start_s, end_s, parent]`` rows."""
        path.parent.mkdir(parents=True, exist_ok=True)
        rows = zip(self.names, self.starts, self.ends, self.parents)
        path.write_text(json.dumps({"columns": ["name", "start_s", "end_s", "parent"],
                                    "spans": [list(r) for r in rows]}))


def install(tracer: Tracer) -> None:
    """Wrap the layer boundaries the per-layer metrics are read from."""
    import repro.api as api
    from repro.cluster.monitoring import HealthMonitor
    from repro.cluster.spec import ClusterSpec
    from repro.estimate.framework import EslurmEstimator
    from repro.estimate.kmeans import KMeans
    from repro.estimate.svr import SVR
    from repro.fptree.constructor import FPTreeConstructor
    from repro.network.broadcast import MemoizedBroadcast
    from repro.network.fabric import NetworkFabric
    from repro.network.sockets import ConnectionTracker
    from repro.network.structures import TreeBroadcast
    from repro.rm.base import ResourceManager
    from repro.rm.lifecycle import JobLifecycle
    from repro.sched.allocator import NodePool
    from repro.sched.backfill import BackfillScheduler

    def adopted(args: tuple, result: t.Any) -> bool:
        # a model answer: anything but the user's own request
        job = args[1]
        return result is not None and result != job.user_estimate_s

    wrap = tracer.wrap
    # set-up
    wrap(api, "generate_trace", "workload.trace")
    wrap(api, "build_rm", "rm.build")
    wrap(ClusterSpec, "build", "cluster.build")
    # rm
    wrap(ResourceManager, "submit", "rm.submit")
    wrap(JobLifecycle, "begin", "rm.lifecycle")
    # sched
    wrap(BackfillScheduler, "plan", "sched.plan")
    wrap(BackfillScheduler, "plan_resizes", "sched.resize")
    wrap(NodePool, "allocate", "sched.pool")
    wrap(NodePool, "release", "sched.pool")
    # estimate
    wrap(EslurmEstimator, "estimate", "estimate.predict", hit=adopted)
    wrap(SVR, "fit", "estimate.svr_fit")
    wrap(KMeans, "fit", "estimate.kmeans_fit")
    # network
    wrap(TreeBroadcast, "simulate_forest", "network.forest")
    wrap(MemoizedBroadcast, "simulate_forest", "network.memo_forest")
    wrap(NetworkFabric, "transfer_delays_pairwise", "network.fabric")
    wrap(ConnectionTracker, "pulse", "network.sockets")
    # fptree / cluster
    wrap(FPTreeConstructor, "construct", "fptree.construct")
    wrap(HealthMonitor, "predicted_failed", "cluster.predicted_failed")
