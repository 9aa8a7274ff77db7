"""Failure-prediction plugins for the FP-Tree constructor.

The paper implements failure prediction as a *plugin* so that
alternative predictors can be dropped in (Section IV-C).  We mirror that
with a tiny protocol — ``predict(candidates) -> set of node ids`` — and
three implementations:

* :class:`MonitorAlertPredictor` — the production one: a node is
  predicted failed iff the monitoring/diagnostic subsystem has an
  active alert for it (the over-prediction principle: every alert
  counts, because a wrong prediction only demotes a node to a leaf);
* :class:`OraclePredictor` — reads the true down set from the cluster,
  an upper bound used in ablations;
* :class:`StaticSetPredictor` — a fixed set, for tests and worked
  examples.
"""

from __future__ import annotations

import typing as t

if t.TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.cluster.spec import Cluster


class FailurePredictor(t.Protocol):
    """Protocol every predictor plugin implements."""

    def predict(self, candidates: t.Collection[int]) -> set[int]:
        """Subset of ``candidates`` expected to fail soon.

        The verdict on a node must not depend on the other candidates:
        ``predict(A) & B == predict(B)`` for ``B`` within ``A``.  The
        heartbeat sweep relies on it to ask once for the whole machine
        (as a ``set``) and then split the answer per satellite part.
        """
        ...  # pragma: no cover - protocol body


class MonitorAlertPredictor:
    """Predicts failure for every node with an active monitoring alert."""

    def __init__(self, cluster: "Cluster") -> None:
        self.cluster = cluster

    def predict(self, candidates: t.Collection[int]) -> set[int]:
        return self.cluster.monitor.predicted_failed(among=candidates)


class OraclePredictor:
    """Perfect knowledge of the current down set (ablation upper bound)."""

    def __init__(self, cluster: "Cluster") -> None:
        self.cluster = cluster

    def predict(self, candidates: t.Collection[int]) -> set[int]:
        down = self.cluster.down_ids()
        return {nid for nid in candidates if nid in down}


class StaticSetPredictor:
    """A fixed predicted-failed set (tests, documentation examples)."""

    def __init__(self, predicted: t.Iterable[int]) -> None:
        self.predicted = set(predicted)

    def predict(self, candidates: t.Collection[int]) -> set[int]:
        return {nid for nid in candidates if nid in self.predicted}


class NullPredictor:
    """Predicts nothing — turns the FP-Tree back into a plain tree
    (the paper's "ESLURM without FP-Tree" ablation)."""

    def predict(self, candidates: t.Collection[int]) -> set[int]:
        return set()
