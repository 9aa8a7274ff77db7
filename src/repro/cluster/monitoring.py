"""The monitoring/diagnostic subsystem abstraction.

The Tianhe systems run a three-layer monitoring stack (Board / Chassis /
System Management Units) over a dedicated diagnostic network, exposing
200+ hardware indicators.  The FP-Tree only consumes one bit of all
this: *"has this node raised an alert recently?"* — the paper's
over-prediction principle deliberately treats every alert as a failure
prediction because a wrong prediction merely demotes a healthy node to
a leaf of the broadcast tree.

:class:`HealthMonitor` reproduces exactly that interface:

* the failure injector calls :meth:`on_failure_scheduled` when a fault
  has been decided but not yet applied — with probability ``recall``
  the monitor raises a *precursor alert*;
* a background process raises *false alarms* at a configurable rate
  (the over-prediction);
* :meth:`predicted_failed` returns the set of currently-alerted nodes,
  which is what the FP-Tree constructor's predictor plugin reads.
"""

from __future__ import annotations

import typing as t
from dataclasses import dataclass

from repro.errors import ConfigurationError

if t.TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.cluster.spec import Cluster
    from repro.simkit.core import Simulator

HOUR = 3600.0

#: A representative slice of the >200 hardware indicators the paper lists.
INDICATOR_CATEGORIES = (
    "voltage",
    "current",
    "temperature",
    "humidity",
    "liquid-cooling",
    "air-cooling",
    "hsn-nic",
    "memory-ecc",
    "power-supply",
    "fan-speed",
)


@dataclass(frozen=True)
class MonitoringConfig:
    """Tunables of the monitoring subsystem.

    Args:
        recall: probability that an actual failure is preceded by an
            alert.  The paper reports 81.7 % of failed nodes ended up on
            leaves; recall is the dominant term of that figure.
        false_alarm_per_node_hour: rate of spurious alerts per node per
            hour (the deliberate over-prediction).
        alert_ttl_hours: how long an alert keeps its node in the
            predicted-failed set.
        precursor_fraction: alerts fire this fraction of the lead time
            *before* the failure lands (1.0 = immediately at decision).
    """

    recall: float = 0.85
    false_alarm_per_node_hour: float = 1e-4
    alert_ttl_hours: float = 6.0
    precursor_fraction: float = 1.0

    def __post_init__(self) -> None:
        if not 0.0 <= self.recall <= 1.0:
            raise ConfigurationError("recall must be a probability")
        if self.false_alarm_per_node_hour < 0:
            raise ConfigurationError("false-alarm rate cannot be negative")
        if self.alert_ttl_hours <= 0:
            raise ConfigurationError("alert TTL must be positive")
        if not 0.0 < self.precursor_fraction <= 1.0:
            raise ConfigurationError("precursor_fraction must be in (0, 1]")


@dataclass
class Alert:
    """One alert raised by the monitoring subsystem."""

    time: float
    node_id: int
    indicator: str
    spurious: bool


class HealthMonitor:
    """Alert stream + currently-predicted-failed set for a cluster."""

    def __init__(self, sim: "Simulator", cluster: "Cluster", config: MonitoringConfig) -> None:
        self.sim = sim
        self.cluster = cluster
        self.config = config
        self.alerts: list[Alert] = []
        #: node id -> alert expiry time
        self._alerted: dict[int, float] = {}
        self._rng = sim.rng.stream("monitoring")
        self._started = False

    # -- alert intake ----------------------------------------------------
    def raise_alert(self, node_id: int, indicator: str | None = None, spurious: bool = False) -> None:
        """Record an alert and mark the node predicted-failed until TTL."""
        if indicator is None:
            indicator = INDICATOR_CATEGORIES[int(self._rng.integers(len(INDICATOR_CATEGORIES)))]
        self.alerts.append(Alert(self.sim.now, node_id, indicator, spurious))
        self._alerted[node_id] = self.sim.now + self.config.alert_ttl_hours * HOUR

    def on_failure_scheduled(self, node_ids: t.Sequence[int], at: float) -> None:
        """Hook called by the failure injector before a fault lands.

        For each node, with probability ``recall`` a precursor alert is
        raised ``precursor_fraction`` of the way into the lead window —
        but never more than half the alert TTL early, so that a
        long-scheduled event (e.g. maintenance announced days ahead)
        still has a *live* alert when it actually happens.
        """
        ttl_s = self.config.alert_ttl_hours * HOUR
        for nid in node_ids:
            if self._rng.random() >= self.config.recall:
                continue
            lead = max(0.0, at - self.sim.now)
            when = max(at - lead * self.config.precursor_fraction, at - 0.5 * ttl_s)
            if when <= self.sim.now:
                self.raise_alert(nid)
            else:
                self.sim.call_at(when, lambda n=nid: self.raise_alert(n))

    # -- background false alarms -------------------------------------------
    def start(self) -> None:
        """Arm the false-alarm timer (idempotent).

        One re-armed :class:`~repro.simkit.events.Timer` replaces the
        historical generator loop; the handler raises the alert first and
        draws the next interval afterwards, preserving the ``monitoring``
        stream's draw order.
        """
        if self._started or self.config.false_alarm_per_node_hour == 0:
            return
        self._started = True
        n = self.cluster.n_nodes
        rate_per_s = n * self.config.false_alarm_per_node_hour / HOUR

        def fire() -> None:
            node_id = int(self._rng.integers(n))
            self.raise_alert(node_id, spurious=True)
            timer.arm(self._rng.exponential(1.0 / rate_per_s))

        timer = self.sim.timer(fire, label="monitoring.false_alarms")
        timer.arm(self._rng.exponential(1.0 / rate_per_s))

    # -- predictor interface ---------------------------------------------
    def predicted_failed(self, among: t.Iterable[int] | None = None) -> set[int]:
        """Currently-alerted node ids (optionally restricted to ``among``).

        Expired alerts are pruned lazily on read.  The restriction is one
        C-level intersection; passing a ``set`` as ``among`` makes it cost
        O(alerts) instead of O(len(among)).
        """
        now = self.sim.now
        expired = [nid for nid, exp in self._alerted.items() if exp <= now]
        for nid in expired:
            del self._alerted[nid]
        if among is None:
            return set(self._alerted)
        return self._alerted.keys() & among

    # -- statistics ----------------------------------------------------------
    def alert_count(self) -> int:
        return len(self.alerts)

    def spurious_fraction(self) -> float:
        """Fraction of alerts that were false alarms (over-prediction)."""
        if not self.alerts:
            return 0.0
        return sum(a.spurious for a in self.alerts) / len(self.alerts)
