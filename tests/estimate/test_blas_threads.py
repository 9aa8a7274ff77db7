"""Estimator outputs must not depend on the BLAS thread count.

An ``EslurmEstimator`` replay runs in two fresh interpreters, one with
the BLAS/OpenMP pools pinned to one thread and one with two.  The
SHA-256 over every SVR's dual coefficients and every submit-time
estimate must be the same in both.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import repro

REPLAY = """
import hashlib
import numpy as np
from repro.estimate import EslurmEstimator, EstimatorConfig, evaluate_estimator
from repro.estimate.svr import SVR
from repro.workload import WorkloadConfig, generate_trace

digest = hashlib.sha256()
fit = SVR.fit
fits = []

def hashed_fit(self, X, y):
    fit(self, X, y)
    fits.append(len(y))
    digest.update(self._beta.tobytes())
    return self

SVR.fit = hashed_fit

class Hashed:
    name = "hashed"

    def __init__(self, inner):
        self.inner = inner

    def observe(self, job, now):
        self.inner.observe(job, now)

    def estimate(self, job, now):
        pred = self.inner.estimate(job, now)
        digest.update(np.float64(np.nan if pred is None else pred).tobytes())
        return pred

jobs = generate_trace(WorkloadConfig(max_nodes=64), 400, seed=5)
cfg = EstimatorConfig(window=200, min_history=20, refresh_jobs=60, k_clusters=8, aea_gate=0.0)
evaluate_estimator(Hashed(EslurmEstimator(cfg, rng=np.random.default_rng(2))), jobs, warmup=50)
print(len(fits), digest.hexdigest())
"""

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


def _replay_digest(threads: int) -> str:
    env = dict(os.environ)
    env.update({var: str(threads) for var in THREAD_VARS})
    env["PYTHONPATH"] = str(Path(repro.__file__).resolve().parents[1])
    out = subprocess.run(
        [sys.executable, "-c", REPLAY],
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
        check=True,
    )
    n_fits, digest = out.stdout.split()
    assert int(n_fits) > 0
    return digest


def test_replay_digest_independent_of_blas_threads():
    assert _replay_digest(1) == _replay_digest(2)
