"""FSM vs generator lifecycle: per-job equivalence across the scenario matrix.

The flat table-driven FSM lifecycle must be observably
indistinguishable from the generator oracle
(:mod:`tests.rm.generator_oracle`) on the same seeded trace — per job
(state, start, end), per daemon (CPU charged, crash count), per resize
counter — across {rigid, malleable} x {clean, node-failure,
master-crash}.  The deterministic matrix pins every combination; the
hypothesis sweep then varies the seed so the equivalence is a property,
not an anecdote.  A last check proves the oracle arm really runs
generator processes, so the matrix never compares the FSM with itself.
"""

import dataclasses

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.cluster.failures import FailureModel
from repro.cluster.spec import ClusterSpec
from repro.rm.eslurm import EslurmRM
from repro.rm.lifecycle import JobLifecycle
from repro.rm.profiles import ESLURM
from repro.sched.backfill import BackfillScheduler
from repro.simkit import Simulator
from repro.simkit.process import Process
from repro.workload.synthetic import WorkloadConfig, generate_trace
from tests.rm.generator_oracle import engine, generator_lifecycle  # noqa: F401

DAY = 86_400.0
N_NODES = 128
N_JOBS = 25

SCENARIOS = ("clean", "node-failure", "master-crash")

#: ~3 master crashes over the day on a 128-node machine (mtbf = 8 h)
_CRASHY = dataclasses.replace(ESLURM, crash_node_hours=8.0 * N_NODES, reboot_minutes=10.0)


def _fingerprint(lifecycle: str, seed: int, malleable: bool, scenario: str):
    """Every observable of one full day, as a comparable value."""
    with engine(lifecycle):
        sim, rm, jobs = _build(seed, malleable, scenario)
        rm.run_trace(jobs, until=DAY)
    return {
        "jobs": [
            (j.job_id, j.state.name, j.submit_time, j.start_time, j.end_time, j.n_nodes)
            for j in rm.jobs
        ],
        "master_cpu_s": rm.master_acct.cpu_time_s,
        "crashes": rm.crash_count,
        "grows": rm.resize_grows,
        "shrinks": rm.resize_shrinks,
        "free": rm.pool.n_free,
        "now": sim.now,
    }


def _build(seed: int, malleable: bool, scenario: str):
    sim = Simulator(seed=seed)
    model = (
        FailureModel(mtbf_node_hours=1200.0, burst_per_day=1.5)
        if scenario == "node-failure"
        else FailureModel.disabled()
    )
    cluster = ClusterSpec(
        n_nodes=N_NODES, n_satellites=2, failure_model=model, name="lc-eq"
    ).build(sim)
    if scenario == "node-failure":
        cluster.failures.start()
        cluster.monitor.start()
    kwargs = {"scheduler": BackfillScheduler(malleable=True)} if malleable else {}
    if scenario == "master-crash":
        kwargs["profile"] = _CRASHY
    rm = EslurmRM(sim, cluster, **kwargs)
    jobs = generate_trace(
        WorkloadConfig(max_nodes=N_NODES // 4, malleable_fraction=0.5 if malleable else 0.0),
        N_JOBS,
        seed=seed,
    )
    return sim, rm, jobs


class TestScenarioMatrix:
    """Deterministic coverage of every (shape, scenario) combination."""

    @pytest.mark.parametrize("malleable", [False, True], ids=["rigid", "malleable"])
    @pytest.mark.parametrize("scenario", SCENARIOS)
    def test_fsm_matches_generator(self, malleable, scenario):
        fsm = _fingerprint("fsm", 3, malleable, scenario)
        gen = _fingerprint("generator", 3, malleable, scenario)
        assert fsm == gen

    def test_crashy_profile_actually_crashes(self):
        # The master-crash column must exercise the reboot path, or the
        # matrix silently degenerates to a second clean column.
        assert _fingerprint("fsm", 3, False, "master-crash")["crashes"] > 0

    def test_failure_scenario_actually_kills_nodes(self):
        # The injector must change what the day looks like, or the
        # node-failure column is a second clean column in disguise.
        assert _fingerprint("fsm", 3, False, "node-failure") != _fingerprint(
            "fsm", 3, False, "clean"
        )


class TestSeedSweep:
    """The same equivalence as a seed-indexed property."""

    @settings(
        max_examples=8,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
    )
    @given(
        seed=st.integers(min_value=0, max_value=63),
        malleable=st.booleans(),
        scenario=st.sampled_from(SCENARIOS),
    )
    def test_fsm_matches_generator_any_seed(self, seed, malleable, scenario):
        fsm = _fingerprint("fsm", seed, malleable, scenario)
        gen = _fingerprint("generator", seed, malleable, scenario)
        assert fsm == gen


class TestOracleIsTheGenerator:
    """A patch that silently failed to apply would make every comparison
    above the FSM against itself — and always pass."""

    @staticmethod
    def _live_job_procs():
        sim, rm, jobs = _build(3, malleable=True, scenario="node-failure")
        rm.run_trace(jobs)
        seen = []
        for hour in range(1, 25):
            sim.run(until=hour * 3600.0)
            seen.extend(rm._job_procs.values())
        assert seen, "no job was in flight at any hourly checkpoint"
        return seen

    def test_fixture_runs_every_job_as_a_generator_process(self, generator_lifecycle):
        assert all(isinstance(proc, Process) for proc in self._live_job_procs())

    def test_default_runs_every_job_as_an_fsm_lifecycle(self):
        assert all(isinstance(proc, JobLifecycle) for proc in self._live_job_procs())
