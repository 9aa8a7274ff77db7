"""The incremental heartbeat sweep against the whole-forest oracle.

``EslurmRM._heartbeat_sweep`` re-walks only the satellite parts whose
predicted-failed or down nodes changed and replays the rest from its
per-part cache.  :func:`full_forest_sweep` is the sweep it replaced —
every part rebuilt and walked in one forest on every rebuild — kept
here as the reference.  Both run the same scripted day; the makespans,
construction statistics, construct-observer calls and telemetry must
agree exactly.  Histogram ``sum``/``mean`` fields are left out: the
incremental sweep observes arrivals tree by tree, so float sums may
differ in the last bits while every count, bucket and extreme matches.
Host-clock (``host.*``) metrics are never comparable.
"""

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.cluster import ClusterSpec, FailureModel
from repro.cluster.monitoring import MonitoringConfig
from repro.network.fabric import FabricConfig
from repro.network.message import DEFAULT_SIZES, MessageKind
from repro.rm import EslurmRM
from repro.simkit import Simulator
from repro.telemetry import facade as telemetry


def full_forest_sweep(rm, running):
    """Every running satellite's part, FP-constructed and walked as one forest."""
    parts = rm.sat_pool.split(rm.cluster.compute_ids(), max(len(running), 1))
    sweep = rm._fp_engine.simulate_forest(
        [(d.node.node_id, part) for d, part in zip(running, parts)],
        DEFAULT_SIZES[MessageKind.HEARTBEAT],
        rm.fabric,
    )
    return max((r.makespan_s for r in sweep), default=0.0)


class OracleRM(EslurmRM):
    """ESLURM with the whole-forest heartbeat sweep."""

    def _heartbeat_sweep(self, running):
        return full_forest_sweep(self, running)


def build(rm_cls, n, sats, jitter, audit):
    sim = Simulator(seed=7)
    spec = ClusterSpec(
        n_nodes=n,
        n_satellites=sats,
        failure_model=FailureModel.disabled(),
        # short TTL so scripted alerts expire within the day; no
        # background alarms, the script raises every alert itself
        monitoring=MonitoringConfig(alert_ttl_hours=0.05, false_alarm_per_node_hour=0.0),
    )
    cluster = spec.build(sim)
    rm = rm_cls(sim, cluster, fabric_config=FabricConfig(jitter_frac=0.1 if jitter else 0.0))
    calls = []
    if audit:
        rm.fp_constructor.construct_observers.append(
            lambda targets, ordered, leaf_idx, predicted: calls.append(
                hash((tuple(targets), tuple(ordered), tuple(leaf_idx), frozenset(predicted)))
            )
        )
    return sim, cluster, rm, calls


def run_script(rm_cls, ops, n=512, sats=4, jitter=False, audit=False):
    """Run ``ops`` against a fresh world; returns everything that must match."""
    with telemetry.session() as tel:
        sim, cluster, rm, calls = build(rm_cls, n, sats, jitter, audit)
        interval = rm.profile.heartbeat_interval_s
        sat_ids = [s.node_id for s in cluster.satellites]
        rm.start()
        makespans = []
        for op, arg in ops:
            if op == "alert":
                cluster.monitor.raise_alert(arg % n, indicator="voltage")
            elif op == "fail":
                cluster.fail_nodes([arg % n])
            elif op == "recover":
                cluster.recover_nodes([arg % n])
            elif op == "sat_fail":
                cluster.fail_nodes([sat_ids[arg % sats]])
            elif op == "sat_recover":
                cluster.recover_nodes([sat_ids[arg % sats]])
            elif op == "wait":
                sim.run(until=sim.now + arg * interval)
            sim.run(until=sim.now + 2 * interval)
            makespans.append((sim.now, len(rm.sat_pool.running()), rm.last_heartbeat_makespan_s))
        snap = tel.snapshot()
    histograms = {
        name: {k: v for k, v in h.items() if k not in ("sum", "mean")}
        for name, h in snap["histograms"].items()
        if not name.startswith("host.")
    }
    return {
        "makespans": makespans,
        "stats": rm.fptree_stats.totals(),
        "observer_calls": calls,
        "counters": {k: v for k, v in snap["counters"].items() if not k.startswith("host.")},
        "histograms": histograms,
    }


#: alert raised then expired, a node failing and recovering, a satellite
#: dying (new layout) and coming back, then every satellite down
SCRIPT = [
    ("wait", 1),
    ("alert", 37),
    ("wait", 6),  # past the 3-minute TTL: the alert expires ...
    ("alert", 300),  # ... so the next rebuild re-walks parts 0 and 2
    ("fail", 200),
    ("recover", 200),
    ("fail", 201),
    ("alert", 201),
    ("sat_fail", 1),
    ("alert", 5),
    ("sat_recover", 1),
    ("recover", 201),
    ("sat_fail", 0),
    ("sat_fail", 1),
    ("sat_fail", 2),
    ("sat_fail", 3),
    ("alert", 400),
    ("sat_recover", 2),
]


class TestScriptedDay:
    @pytest.mark.parametrize("audit", [False, True], ids=["plain", "audited"])
    @pytest.mark.parametrize("jitter", [False, True], ids=["exact", "jitter"])
    def test_matches_full_forest(self, jitter, audit):
        new = run_script(EslurmRM, SCRIPT, jitter=jitter, audit=audit)
        ref = run_script(OracleRM, SCRIPT, jitter=jitter, audit=audit)
        assert new == ref

    def test_script_covers_the_edge_cases(self):
        out = run_script(EslurmRM, SCRIPT)
        running = [r for _, r, _ in out["makespans"]]
        assert 3 in running and 4 in running  # a satellite died: new layout
        # zero running satellites: the sweep is empty and costs nothing
        idle = [m for _, r, m in out["makespans"] if r == 0]
        assert idle and all(m == 0.0 for m in idle)
        assert out["counters"]["rm.heartbeat.fptree_rebuilds"] >= 10
        # node 200 down (step 4) costs its parent a timeout in the walk
        assert out["makespans"][4][2] > 100 * out["makespans"][3][2]


def test_parts_cached_with_telemetry_off_rewalk_in_a_session():
    """A part walked with no session has no delta to replay into one."""

    def counters(rm_cls):
        sim, cluster, rm, _ = build(rm_cls, 512, 4, jitter=False, audit=False)
        rm.start()
        sim.run(until=120.0)  # parts cached with telemetry off
        with telemetry.session() as tel:
            cluster.monitor.raise_alert(300, indicator="voltage")
            sim.run(until=180.0)
            snap = tel.snapshot()["counters"]
        return {k: v for k, v in snap.items() if not k.startswith("host.")}

    new, ref = counters(EslurmRM), counters(OracleRM)
    assert new["net.messages"] == ref["net.messages"] == 512
    assert new == ref


@pytest.mark.slow
class TestSeedSweep:
    """The same equivalence over random op sequences."""

    ops = st.lists(
        st.tuples(
            st.sampled_from(["alert", "fail", "recover", "sat_fail", "sat_recover", "wait"]),
            st.integers(0, 511),
        ).map(lambda op: (op[0], op[1] % 8) if op[0] == "wait" else op),
        min_size=1,
        max_size=25,
    )

    @settings(max_examples=50, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(ops=ops, jitter=st.booleans(), audit=st.booleans())
    def test_matches_full_forest_any_script(self, ops, jitter, audit):
        assert run_script(EslurmRM, ops, jitter=jitter, audit=audit) == run_script(
            OracleRM, ops, jitter=jitter, audit=audit
        )


@pytest.mark.slow
def test_machine_scale_matches_full_forest():
    """65,536 nodes under 32 satellites: the steady-65k machine."""
    n = 65536
    script = [
        ("wait", 1),
        ("alert", 1000),
        ("fail", 40000),
        ("alert", 40001),
        ("recover", 40000),
        ("sat_fail", 5),
        ("alert", 65000),
        ("sat_recover", 5),
    ]
    assert run_script(EslurmRM, script, n=n, sats=32) == run_script(
        OracleRM, script, n=n, sats=32
    )
