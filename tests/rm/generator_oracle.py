"""The generator job lifecycle: the reference the FSM engine is checked against.

Every job once ran as one :class:`~repro.simkit.process.Process` —
a generator that yields a ``Timeout`` per phase and takes kills and
resize retimes as a thrown ``ProcessInterrupt`` — and the heartbeat,
user-RPC, scheduler-tick and crash loops were generator processes too.
The flat FSM in :mod:`repro.rm.lifecycle` and the timer-lane loops of
:meth:`ResourceManager._start_flat_loops` replaced it on every path the
program runs.  This module keeps that engine, method for method, as the
readable oracle the FSM is held byte-identical to.

:func:`engine` patches the methods onto
:class:`~repro.rm.base.ResourceManager` for the duration of a ``with``
block (the ``generator_lifecycle`` fixture does the same for one test),
so a plain ``run_simulation(SimulationConfig(...))``, ``run_trace`` or
RM construction inside it runs the generator arm.
"""

from __future__ import annotations

import contextlib
import inspect
import typing as t
from unittest import mock

import pytest

from repro.errors import ProcessInterrupt
from repro.network.message import MessageKind
from repro.rm.base import ResourceManager
from repro.rm.lifecycle import RESIZE_CAUSE
from repro.sched.job import Job, JobState


class GeneratorEngine:
    """The generator lifecycle; ``self`` is the patched ResourceManager."""

    def start(self) -> None:
        """Spawn background processes; call once before running."""
        if self._started:
            return
        self._started = True
        p = self.profile
        self.master_acct.set_tracked(nodes=self.cluster.n_nodes, jobs=0)
        if p.persistent_socket_frac > 0:
            self.master_acct.sockets.open(int(p.persistent_socket_frac * self.cluster.n_nodes))
        self.master_acct.start_sampler(self.sample_interval_s)
        self.sim.process(self._heartbeat_loop(), name=f"{self.rm_name}.heartbeat")
        if self.user_rpc_rate > 0:
            self.sim.process(self._user_rpc_loop(), name=f"{self.rm_name}.user_rpc")
        self.sim.process(self._scheduler_tick_loop(), name=f"{self.rm_name}.sched_tick")
        if p.crash_node_hours != float("inf"):
            self.sim.process(self._crash_loop(), name=f"{self.rm_name}.crashes")
        self.cluster.failures.subscribe(self._on_failure_event)

    def _crash_loop(self) -> t.Generator:
        p = self.profile
        rng = self.sim.rng.stream(f"{self.rm_name}.crashes")
        mtbf_s = p.crash_node_hours / max(self.cluster.n_nodes, 1) * 3600.0
        while True:
            yield self.sim.timeout(rng.exponential(mtbf_s))
            self.crash_count += 1
            self._crashed_until = self.sim.now + p.reboot_minutes * 60.0
            # Orphan a fraction of running jobs: their processes outlive
            # the daemon but their bookkeeping does not.
            victims = [
                job_id
                for job_id in list(self.pool.running)
                if rng.random() < self.CRASH_ORPHAN_FRACTION
            ]
            for job_id in victims:
                proc = self._job_procs.get(job_id)
                if proc is not None and proc.is_alive:
                    proc.interrupt(cause="master crash")
            yield self.sim.timeout(p.reboot_minutes * 60.0)
            self._schedule_pass()  # reboot: work through the backlog

    def _scheduler_tick_loop(self) -> t.Generator:
        while True:
            yield self.sim.timeout(self.profile.scheduler_tick_s)
            self._schedule_pass()

    def _launch_decisions(self, decisions: list[tuple[Job, tuple[int, ...]]]) -> None:
        for job, nodes in decisions:
            for nid in nodes:
                self.cluster.node(nid).allocate(job.job_id)
            proc = self.sim.process(self._run_job(job, nodes), name=f"job{job.job_id}")
            self._job_procs[job.job_id] = proc

    def _malleable_work(self, job: Job) -> t.Generator:
        """Interruptible work loop: a width-``w`` allocation burns ``w``
        node-seconds per second of a fixed total (work conservation, the
        DMR model) — growing shortens the remaining wall clock, shrinking
        stretches it.  Resize interrupts retime; any other interrupt
        propagates to the kill path.
        """
        work = float(job.n_nodes) * job.effective_runtime_s
        self._resize_ok.add(job.job_id)
        try:
            while work > 1e-9:
                width = max(len(job.allocated_nodes), 1)
                seg_start = self.sim.now
                try:
                    yield self.sim.timeout(work / width)
                except ProcessInterrupt as intr:
                    if intr.cause != RESIZE_CAUSE:
                        raise
                    work -= (self.sim.now - seg_start) * width
                else:
                    work = 0.0
        finally:
            self._resize_ok.discard(job.job_id)

    def _run_job(self, job: Job, nodes: tuple[int, ...]) -> t.Generator:
        submit_like = self.sim.now  # resources held from this instant
        teardown = False
        try:
            p = self.profile
            self.master_acct.charge_cpu(
                p.launch_cpu_ms / 1e3 + p.launch_cpu_per_node_us / 1e6 * len(nodes)
            )
            launch = self._broadcast(MessageKind.JOB_LAUNCH, nodes)
            self._bcast_tally.record(launch.makespan_s)
            yield self.sim.timeout(launch.makespan_s)
            job.start(self.sim.now, nodes)
            self.master_acct.set_tracked(jobs=len(self.pool.running) + len(self.queue))
            if job.malleable:
                yield from self._malleable_work(job)
            else:
                yield self.sim.timeout(job.effective_runtime_s)
            # A crashed master cannot process the completion: the job's
            # resources stay occupied until the daemon is back.
            if self.master_down:
                yield self.sim.timeout(self._crashed_until - self.sim.now)
            end_state = JobState.TIMEOUT if job.will_timeout else JobState.COMPLETED
            # Resizes may have changed the allocation since launch.
            term_targets = job.allocated_nodes or nodes
            term = self._broadcast(MessageKind.JOB_TERMINATE, term_targets)
            self._bcast_tally.record(term.makespan_s)
            yield self.sim.timeout(term.makespan_s)
            job.finish(self.sim.now, end_state)
        except ProcessInterrupt:
            # Node failure killed the job mid-flight.
            if job.state is JobState.RUNNING:
                job.finish(self.sim.now, JobState.FAILED)
            elif job.state is JobState.PENDING:
                job.state = JobState.FAILED
                job.end_time = self.sim.now
        except GeneratorExit:
            # Simulator teardown: the run ended with this job in flight
            # and the generator is being closed (typically by GC long
            # after the run).  No bookkeeping — the simulation is over,
            # and a *later* run's telemetry session may be active, so a
            # release here would count scheduler passes into it.
            teardown = True
            raise
        finally:
            if not teardown:
                self._release(job, nodes, submit_like)

    def _heartbeat_loop(self) -> t.Generator:
        p = self.profile
        while True:
            yield self.sim.timeout(p.heartbeat_interval_s)
            if not self.master_down:
                self._heartbeat_round()

    def _user_rpc_loop(self) -> t.Generator:
        rng = self.sim.rng.stream(f"{self.rm_name}.user_rpc")
        while True:
            yield self.sim.timeout(rng.exponential(1.0 / self.user_rpc_rate))
            self.master_acct.charge_cpu(self.profile.user_rpc_cpu_ms / 1e3)
            self.master_acct.sockets.pulse(1, self.estimated_response_time())


_METHODS = {
    name: fn for name, fn in vars(GeneratorEngine).items() if inspect.isfunction(fn)
}


def engine(lifecycle: str) -> t.ContextManager[t.Any]:
    """Run every ResourceManager on ``lifecycle`` inside the block:
    ``"fsm"`` is the program as it stands, ``"generator"`` patches the
    oracle in."""
    if lifecycle == "fsm":
        return contextlib.nullcontext()
    if lifecycle != "generator":
        raise ValueError(f"unknown lifecycle {lifecycle!r}")
    return mock.patch.multiple(ResourceManager, create=True, **_METHODS)


@pytest.fixture
def generator_lifecycle() -> t.Iterator[None]:
    """The generator lifecycle for the whole test."""
    with engine("generator"):
        yield
