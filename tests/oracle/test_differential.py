"""Differential relations: hold on the real tree, fail when perturbed.

Every relation is exercised in both directions — the paper-shaped
ordering must hold on the code as written, and a deliberately broken
pairing must be *rejected*.  An oracle that cannot fail verifies
nothing.

:class:`LifecycleEquivalenceRelation` is defined here rather than in the
program's registry: its reference arm, the generator lifecycle, is the
test-side oracle in :mod:`tests.rm.generator_oracle`.
"""

import typing as t
from dataclasses import asdict

import pytest

from repro.api import SimulationConfig, TelemetryConfig, canonical_json, run_simulation
from repro.fptree.predictor import NullPredictor
from repro.oracle.differential import (
    DAY,
    DIFFERENTIAL_RELATIONS,
    EstimatorGateRelation,
    FPTreeFailureBoundRelation,
    MalleableThroughputRelation,
    MasterOffloadRelation,
    SnapshotEquivalenceRelation,
    TopologyPlacementRelation,
)
from repro.oracle.relations import Relation, RelationResult
from tests.rm.generator_oracle import engine


class TestRelationsHold:
    def test_master_offload(self, oracle_seed):
        result = MasterOffloadRelation().run(seed=oracle_seed)
        assert result.ok, result.detail

    def test_fptree_failure_bound(self, oracle_seed):
        result = FPTreeFailureBoundRelation().run(seed=oracle_seed)
        assert result.ok, result.detail

    def test_estimator_aea_gate(self, oracle_seed):
        result = EstimatorGateRelation().run(seed=oracle_seed)
        assert result.ok, result.detail

    def test_malleable_throughput(self, oracle_seed):
        result = MalleableThroughputRelation().run(seed=oracle_seed)
        assert result.ok, result.detail

    def test_topology_placement(self, oracle_seed):
        result = TopologyPlacementRelation().run(seed=oracle_seed)
        assert result.ok, result.detail

    def test_snapshot_equivalence(self, oracle_seed):
        result = SnapshotEquivalenceRelation(n_jobs=20).run(seed=oracle_seed)
        assert result.ok, result.detail

    def test_lifecycle_equivalence(self, oracle_seed):
        # Full size (60 jobs): the size ``repro verify`` ran it at.
        result = LifecycleEquivalenceRelation().run(seed=oracle_seed)
        assert result.ok, result.detail

    def test_registry_is_the_six_relations(self):
        assert [type(r) for r in DIFFERENTIAL_RELATIONS] == [
            MasterOffloadRelation,
            FPTreeFailureBoundRelation,
            EstimatorGateRelation,
            MalleableThroughputRelation,
            TopologyPlacementRelation,
            SnapshotEquivalenceRelation,
        ]


class LifecycleEquivalenceRelation(Relation):
    """Flat FSM lifecycle vs the generator oracle, byte for byte.

    Both arms replay the identical seeded trace on the identical
    machine; the only difference is the job-lifecycle engine (the
    program's FSM vs :mod:`tests.rm.generator_oracle`).  Every
    *observable* — master accounting, schedule metrics, broadcast
    counts, and every domain telemetry counter and histogram — must be
    byte-identical under canonical JSON.  The comparison strips exactly
    two groups of keys: host-clock metrics (``host.*``, wall-time noise)
    and the event-loop's own shape (``sim.events``, ``sim.heap.depth``)
    — the flat timer lane exists precisely to dispatch fewer heap
    events, so the event count is the mechanism under test, not an
    observable of the modelled system.  That saving is pinned as an
    ordering instead: the FSM arm must not process more events than the
    generator arm.
    """

    name = "lifecycle-equivalence"
    layer = "differential"
    section = "VI (simulation methodology)"
    claim = "FSM lifecycle byte-identical to the generator reference on all observables"

    #: telemetry keys describing the event loop itself, excluded from
    #: the byte-compare (see class docstring)
    EVENT_LOOP_KEYS = frozenset({"sim.events", "sim.heap.depth"})

    def __init__(
        self,
        n_nodes: int = 256,
        n_satellites: int = 2,
        n_jobs: int = 60,
        horizon_s: float = DAY,
    ) -> None:
        self.n_nodes = n_nodes
        self.n_satellites = n_satellites
        self.n_jobs = n_jobs
        self.horizon_s = horizon_s

    def _observable(self, tel: dict[str, dict[str, t.Any]]) -> dict[str, t.Any]:
        return {
            section: {
                key: value
                for key, value in metrics.items()
                if not key.startswith("host.") and key not in self.EVENT_LOOP_KEYS
            }
            for section, metrics in tel.items()
        }

    def _arm(
        self, rm: str, lifecycle: str, seed: int, malleable: bool
    ) -> tuple[str, float]:
        with engine(lifecycle):
            result = run_simulation(
                SimulationConfig(
                    rm=rm,
                    n_nodes=self.n_nodes,
                    n_satellites=self.n_satellites,
                    seed=seed,
                    failures=True,
                    n_jobs=self.n_jobs,
                    horizon_s=self.horizon_s,
                    malleable=malleable,
                    telemetry=TelemetryConfig(enabled=True),
                )
            )
        rep = result.report
        assert result.telemetry is not None
        payload = canonical_json(
            {
                "master": dict(rep.master),
                "schedule": asdict(rep.schedule) if rep.schedule is not None else None,
                "n_broadcasts": rep.n_broadcasts,
                "occupation_mean_s": rep.occupation_mean_s,
                "telemetry": self._observable(result.telemetry),
            }
        )
        events = float(result.telemetry["counters"].get("sim.events", 0.0))
        return payload, events

    def run(self, seed: int = 0) -> RelationResult:
        breaches: list[str] = []
        savings: list[str] = []
        for rm, malleable in (("eslurm", True), ("slurm", False)):
            fsm, fsm_events = self._arm(rm, "fsm", seed, malleable)
            gen, gen_events = self._arm(rm, "generator", seed, malleable)
            if fsm != gen:
                breaches.append(f"{rm}: observables diverged between lifecycle engines")
            if fsm_events > gen_events:
                breaches.append(
                    f"{rm}: fsm dispatched {fsm_events:.0f} events !<= "
                    f"generator's {gen_events:.0f}"
                )
            savings.append(f"{rm} {fsm_events:.0f}/{gen_events:.0f} events")
        detail = (
            f"n={self.n_nodes} jobs={self.n_jobs} seed={seed}: "
            f"fsm vs generator byte-identical ({', '.join(savings)})"
        )
        if breaches:
            detail += " | " + "; ".join(breaches)
        return self._result(not breaches, detail)


class _SkewedSeeds(LifecycleEquivalenceRelation):
    """Feeds the generator arm a different trace — bytes must now differ."""

    def _arm(self, rm, lifecycle, seed, malleable):
        return super()._arm(
            rm, lifecycle, seed + 1 if lifecycle == "generator" else seed, malleable
        )


class _SwappedArms(MasterOffloadRelation):
    """Runs slurm where eslurm should be — the ordering must now fail."""

    def _arm(self, rm, seed):
        return super()._arm("eslurm" if rm == "slurm" else "slurm", seed)




class TestPerturbationsAreCaught:
    def test_swapped_arms_fail_master_offload(self):
        result = _SwappedArms().run(seed=0)
        assert not result.ok
        assert "!<" in result.detail

    def test_null_predictor_fails_fptree_bound(self, monkeypatch):
        # With no prediction the "FP" tree degenerates to the plain tree,
        # so the strict ordering against the plain tree must be rejected.
        monkeypatch.setattr(
            "repro.oracle.differential.OraclePredictor", lambda cluster: NullPredictor()
        )
        result = FPTreeFailureBoundRelation().run(seed=0)
        assert not result.ok

    def test_skewed_trace_fails_lifecycle_equivalence(self):
        result = _SkewedSeeds(n_jobs=30).run(seed=0)
        assert not result.ok
        assert "diverged" in result.detail

    def test_impossible_tolerance_fails_estimator_gate(self):
        # Demanding the gated error be ~0x of the user error is unsatisfiable;
        # the relation must report the breach rather than clamp it away.
        relation = EstimatorGateRelation()
        relation.TOLERANCE = 1e-6
        result = relation.run(seed=0)
        assert not result.ok

    def test_crippled_elastic_arm_fails_throughput(self):
        # Give the malleable arm a quarter of the horizon: it must now
        # complete fewer jobs, and the ordering has to catch it.
        class Crippled(MalleableThroughputRelation):
            def _arm(self, seed, malleable):
                if not malleable:
                    return super()._arm(seed, malleable)
                saved = self.horizon_s
                self.horizon_s = saved / 4
                try:
                    return super()._arm(seed, malleable)
                finally:
                    self.horizon_s = saved

        result = Crippled().run(seed=0)
        assert not result.ok
        assert "fewer jobs" in result.detail

    def test_spread_placement_fails_fragmentation(self, monkeypatch):
        # A "topology" policy that strides across the free list scatters
        # allocations and drops the first-fit floor: it must score worse
        # than first-fit on some pool state, which the relation rejects.
        import repro.oracle.differential as diff

        class Spread(diff.TopologyAwarePlacement):
            def _compact_pick(self, candidates, k):
                step = max(1, len(candidates) // k)
                pick = candidates[::step][:k]
                if len(pick) < k:
                    pick = candidates[:k]
                return tuple(pick)

        monkeypatch.setattr(diff, "TopologyAwarePlacement", Spread)
        result = TopologyPlacementRelation().run(seed=0)
        assert not result.ok
        assert "scored worse" in result.detail

    def test_leaky_restore_fails_snapshot_equivalence(self, monkeypatch):
        # A restore that schedules one stray no-op event after replay is
        # no longer byte-identical — the extra event shifts every
        # subsequent (time, priority, seq) triple and the cold arm must
        # be rejected, not absorbed.
        import repro.snapshot as snap

        real_restore = snap.restore

        def leaky(snapshot, verify=True, on_build=None):
            world = real_restore(snapshot, verify=verify, on_build=on_build)
            world.sim.call_at(world.sim.now, lambda: None)
            return world

        monkeypatch.setattr(snap, "restore", leaky)
        result = SnapshotEquivalenceRelation(n_jobs=10).run(seed=0)
        assert not result.ok
        assert "cold restore diverged" in result.detail
