"""Integration tests for the RM engines (centralized + ESLURM)."""

import pytest

from repro.cluster import ClusterSpec, FailureModel
from repro.errors import ConfigurationError, SchedulingError
from repro.rm import CentralizedRM, EslurmRM, RM_PROFILES
from repro.sched.job import Job, JobState
from repro.simkit import Simulator

HOUR = 3600.0


def build(rm_name="slurm", n=64, sats=2, seed=0, failures=False, **kw):
    sim = Simulator(seed=seed)
    model = FailureModel() if failures else FailureModel.disabled()
    cluster = ClusterSpec(n_nodes=n, n_satellites=sats, failure_model=model).build(sim)
    if failures:
        cluster.failures.start()
    if rm_name == "eslurm":
        rm = EslurmRM(sim, cluster, **kw)
    else:
        rm = CentralizedRM.from_name(rm_name, sim, cluster, **kw)
    return sim, cluster, rm


def job(job_id, n_nodes=4, runtime=100.0, est=200.0, submit=1.0):
    return Job(job_id, f"j{job_id}.sh", "u", n_nodes, runtime, est, submit)


class TestLifecycle:
    def test_single_job_completes(self):
        sim, cluster, rm = build()
        j = job(1)
        rm.run_trace([j], until=2 * HOUR)
        assert j.state is JobState.COMPLETED
        assert j.start_time is not None
        assert j.end_time > j.start_time
        assert rm.pool.n_free == 64

    def test_underestimated_job_times_out(self):
        sim, _, rm = build()
        j = job(1, runtime=1000.0, est=300.0)
        rm.run_trace([j], until=2 * HOUR)
        assert j.state is JobState.TIMEOUT
        # killed at the wall limit, not at the true runtime
        assert j.end_time - j.start_time < 500.0

    def test_nodes_allocated_and_released_in_cluster(self):
        sim, cluster, rm = build()
        j = job(1, n_nodes=8)
        rm.start()
        sim.call_at(1.0, lambda: rm.submit(j))
        sim.run(until=30.0)  # mid-flight
        assert sum(n.running_job == 1 for n in cluster.nodes) == 8
        sim.run(until=HOUR)
        assert all(n.running_job is None for n in cluster.nodes)

    def test_too_large_job_rejected(self):
        sim, _, rm = build(n=16)
        rm.start()
        with pytest.raises(SchedulingError):
            rm.submit(job(1, n_nodes=100))

    def test_queueing_when_machine_full(self):
        sim, _, rm = build(n=8)
        j1, j2 = job(1, n_nodes=8, runtime=100.0), job(2, n_nodes=8, runtime=100.0, submit=2.0)
        rm.run_trace([j1, j2], until=HOUR)
        assert j1.state is JobState.COMPLETED
        assert j2.state is JobState.COMPLETED
        assert j2.start_time >= j1.end_time  # had to wait for release

    def test_occupation_time_recorded(self):
        sim, _, rm = build()
        rm.run_trace([job(1, runtime=50.0)], until=HOUR)
        rep = rm.report(horizon_s=HOUR)
        assert rep.occupation_mean_s > 50.0
        assert rep.n_broadcasts == 2  # launch + terminate

    def test_past_submit_rejected(self):
        sim, _, rm = build()
        sim.run(until=100.0)
        with pytest.raises(SchedulingError):
            rm.run_trace([job(1, submit=1.0)])


class TestAccountingDuringRun:
    def test_master_charged_for_everything(self):
        sim, _, rm = build()
        rm.run_trace([job(i, submit=float(i)) for i in range(1, 11)], until=2 * HOUR)
        assert rm.master_acct.cpu_time_s > 0
        assert rm.master_acct.sockets.total_opened > 0

    def test_heartbeats_cost_cpu_even_when_idle(self):
        sim, _, rm = build()
        rm.start()
        sim.run(until=HOUR)
        assert rm.master_acct.cpu_time_s > 0

    def test_persistent_sockets_for_sge(self):
        sim, _, rm = build("sge", n=64)
        rm.start()
        sim.run(until=60.0)
        assert rm.master_acct.sockets.current >= 64  # one per node

    def test_report_summary_renders(self):
        sim, _, rm = build()
        rm.run_trace([job(1)], until=HOUR)
        text = rm.report(horizon_s=HOUR).summary()
        assert "master:" in text and "utilization" in text


class TestFailureHandling:
    def test_node_failure_kills_running_job(self):
        sim, cluster, rm = build()
        j = job(1, n_nodes=4, runtime=10_000.0)
        rm.start()
        sim.call_at(1.0, lambda: rm.submit(j))
        sim.run(until=100.0)
        assert j.state is JobState.RUNNING
        victim = j.allocated_nodes[0]
        cluster.fail_nodes([victim])
        rm._on_failure_event("point", [victim], sim.now)
        sim.run(until=200.0)
        assert j.state is JobState.FAILED
        assert j.job_id not in rm.pool.running

    def test_failed_node_not_reallocated_until_recovery(self):
        sim, cluster, rm = build(n=8)
        cluster.fail_nodes([0, 1])
        rm.start()
        rm._on_failure_event("point", [0, 1], sim.now)
        j = job(1, n_nodes=8, runtime=10.0)
        sim.call_at(1.0, lambda: rm.submit(j))
        sim.run(until=100.0)
        assert j.state is JobState.PENDING  # only 6 nodes available
        cluster.recover_nodes([0, 1])
        rm._on_failure_event("recover", [0, 1], sim.now)
        sim.run(until=HOUR)
        assert j.state is JobState.COMPLETED


class TestEslurm:
    def test_broadcasts_go_via_satellites(self):
        sim, cluster, rm = build("eslurm", n=64, sats=2)
        rm.run_trace([job(1, n_nodes=32)], until=HOUR)
        tasks = sum(d.stats.tasks_received for d in rm.sat_pool.daemons)
        assert tasks >= 2  # launch + terminate, at least
        assert rm.report(HOUR).satellites  # satellite summaries present

    def test_master_sockets_bounded_by_satellites(self):
        sim, cluster, rm = build("eslurm", n=256, sats=4)
        rm.run_trace([job(i, n_nodes=64, submit=float(i)) for i in range(1, 6)], until=HOUR)
        assert rm.master_acct.sockets.peak() <= 10  # talks to <= 4 sats + users

    def test_satellite_death_failover_keeps_jobs_running(self):
        sim, cluster, rm = build("eslurm", n=64, sats=2)
        rm.start()
        cluster.satellites[0].fail()
        j = job(1, n_nodes=32, runtime=50.0)
        sim.call_at(1.0, lambda: rm.submit(j))
        sim.run(until=HOUR)
        assert j.state is JobState.COMPLETED

    def test_all_satellites_dead_master_takes_over(self):
        sim, cluster, rm = build("eslurm", n=64, sats=2)
        rm.start()
        for s in cluster.satellites:
            s.fail()
        j = job(1, n_nodes=32, runtime=50.0)
        sim.call_at(1.0, lambda: rm.submit(j))
        sim.run(until=HOUR)
        assert j.state is JobState.COMPLETED
        assert rm.sat_pool.master_takeovers > 0

    def test_auto_estimator_sets_limits(self):
        sim, cluster, rm = build("eslurm", n=64, sats=2, estimator="auto")
        jobs = [
            Job(i, "repeat.sh", "u", 2, 100.0, 5000.0, submit_time=float(i * 200))
            for i in range(1, 60)
        ]
        rm.run_trace(jobs, until=6 * HOUR)
        # once trained, planned runtimes should drop far below the 5000s
        # user ask — while the kill limit stays the user's request
        late = [j for j in jobs if j.job_id > 45 and j.state is JobState.COMPLETED]
        assert late
        assert any(j.planned_s < 1000.0 for j in late)
        assert all(j.limit_s == 5000.0 for j in late)

    def test_fptree_ablation_flag(self):
        sim, cluster, rm = build("eslurm", n=64, sats=2, use_fptree=False)
        rm.run_trace([job(1, n_nodes=32)], until=HOUR)
        assert rm.fptree_stats.predicted_total == 0

    def test_heartbeat_cache_reused_until_liveness_changes(self):
        sim, cluster, rm = build("eslurm", n=128, sats=2)
        rm.start()
        sim.run(until=300.0)
        key_before = rm._hb_cache_key
        sim.run(until=600.0)
        assert rm._hb_cache_key == key_before  # nothing changed
        cluster.fail_nodes([5])
        sim.run(until=700.0)
        assert rm._hb_cache_key != key_before

    def test_heartbeat_rebuild_walks_only_the_changed_part(self):
        sim, cluster, rm = build("eslurm", n=128, sats=2)
        rm.start()
        sim.run(until=300.0)
        walked = []
        engine = rm._fp_engine
        real = engine.simulate_forest

        def spy(tasks, size_bytes, fabric):
            walked.append([(root, list(targets)) for root, targets in tasks])
            return real(tasks, size_bytes, fabric)

        engine.simulate_forest = spy
        key_before = rm._hb_cache_key
        cluster.monitor.raise_alert(100, spurious=True)
        sim.run(until=360.0)
        assert rm._hb_cache_key != key_before  # the alert forced a rebuild ...
        # ... which walked one tree: the second satellite's half
        assert len(walked) == 1 and len(walked[0]) == 1
        root, targets = walked[0][0]
        assert root == rm.sat_pool.running()[1].node.node_id
        assert targets == list(range(64, 128))


class TestCentralizedFactory:
    def test_unknown_name_rejected(self):
        sim = Simulator()
        cluster = ClusterSpec(n_nodes=4).build(sim)
        with pytest.raises(ConfigurationError):
            CentralizedRM.from_name("pbspro", sim, cluster)

    def test_eslurm_name_rejected(self):
        sim = Simulator()
        cluster = ClusterSpec(n_nodes=4).build(sim)
        with pytest.raises(ConfigurationError):
            CentralizedRM.from_name("eslurm", sim, cluster)

    def test_all_centralized_profiles_run(self):
        for name in ("slurm", "lsf", "sge", "torque", "openpbs"):
            sim, _, rm = build(name, n=32)
            rm.run_trace([job(1, n_nodes=4, runtime=20.0)], until=HOUR)
            assert rm.jobs[0].state is JobState.COMPLETED
