"""The lean L-BFGS-B driver against ``scipy.optimize.minimize``.

``SVR.fit`` solves its box-constrained dual through
:func:`repro.estimate.svr._lbfgsb_box`, which calls scipy's ``setulb``
kernel directly.  The reference here is the call it replaced,
``minimize(..., method="L-BFGS-B", bounds=[(0, C)] * 2n)``: every fit
must give the same dual coefficients and predictions, bit for bit.
The same comparison guards against a change of ``setulb``'s signature
or of ``_minimize_lbfgsb``'s loop in a newer scipy.
"""

from __future__ import annotations

import contextlib
import typing as t

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import minimize

from repro.estimate import EslurmEstimator, EstimatorConfig, evaluate_estimator
from repro.estimate import svr as svr_mod
from repro.estimate.svr import SVR
from repro.workload import WorkloadConfig, generate_trace


def minimize_box(fun_and_grad, n: int, upper: float, max_iter: int) -> np.ndarray:
    """The reference solver: scipy's public L-BFGS-B entry point."""
    res = minimize(
        fun_and_grad,
        np.zeros(n),
        jac=True,
        method="L-BFGS-B",
        bounds=[(0.0, upper)] * n,
        options={"maxiter": max_iter},
    )
    minimize_box.last = res
    return res.x


@contextlib.contextmanager
def solver(box: t.Callable[..., np.ndarray]) -> t.Iterator[list[np.ndarray]]:
    """Route ``SVR.fit`` through ``box`` and collect every solution ``x``."""
    xs: list[np.ndarray] = []

    def recording(fun_and_grad, n, upper, max_iter):
        x = box(fun_and_grad, n, upper, max_iter)
        xs.append(x.copy())
        return x

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(svr_mod, "_lbfgsb_box", recording)
        yield xs


def fit_both(X: np.ndarray, y: np.ndarray, **kw) -> tuple[SVR, SVR, np.ndarray]:
    """Fit with the driver and with the reference; returns the driver's x."""
    with solver(svr_mod._lbfgsb_box) as xs:
        lean = SVR(**kw).fit(X, y)
    with solver(minimize_box):
        ref = SVR(**kw).fit(X, y)
    return lean, ref, xs[0]


def assert_identical(lean: SVR, ref: SVR, probe: np.ndarray) -> None:
    assert np.array_equal(lean._beta, ref._beta)
    assert np.array_equal(lean.predict(probe), ref.predict(probe))


@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(1, 120),
    d=st.integers(1, 13),
    seed=st.integers(0, 2**32 - 1),
    C=st.floats(0.01, 1e3),
    epsilon=st.floats(0.0, 2.0),
    kernel=st.sampled_from(["rbf", "linear", "rbf+linear"]),
    gamma=st.one_of(st.none(), st.floats(1e-3, 10.0)),
    y_scale=st.floats(1e-2, 1e4),
    coarse=st.booleans(),
)
def test_driver_matches_minimize(n, d, seed, C, epsilon, kernel, gamma, y_scale, coarse):
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(n, d))
    if coarse:  # repeated rows and ties, as in the paper's job features
        X = np.round(X)
    y = rng.normal(size=n) * y_scale
    lean, ref, x = fit_both(X, y, C=C, epsilon=epsilon, kernel=kernel, gamma=gamma)
    assert_identical(lean, ref, rng.normal(size=(7, d)))
    assert x.shape == (2 * n,)
    assert x.min() >= 0.0 and x.max() <= C


def test_constant_target_converges_at_start():
    X = np.random.default_rng(3).normal(size=(20, 4))
    lean, ref, x = fit_both(X, np.full(20, 7.5))
    assert not x.any()
    assert_identical(lean, ref, X)
    assert np.array_equal(lean.predict(X), np.full(20, 7.5))


@pytest.mark.parametrize("max_iter", [1, 5])
def test_iteration_limit_stop(max_iter):
    rng = np.random.default_rng(11)
    X = rng.normal(size=(40, 5))
    y = rng.normal(size=40) * 100.0
    lean, ref, _ = fit_both(X, y, C=100.0, max_iter=max_iter)
    assert minimize_box.last.nit == max_iter  # the 504 stop fired
    assert_identical(lean, ref, X)


def test_evaluation_limit_stop():
    """An ill-conditioned dual runs into scipy's ``maxfun`` = 15000 rule."""
    n = 20
    X = np.diag(np.sqrt(np.logspace(0, 12, n) * n))
    y = np.linspace(-1.0, 1.0, n) * 1e6
    lean, ref, x = fit_both(X, y, C=1e9, epsilon=0.0, kernel="linear", max_iter=10**6)
    res = minimize_box.last
    assert res.nfev > 15000 and res.nit < 10**6  # the 502 stop fired
    assert_identical(lean, ref, X)
    assert x.min() >= 0.0 and x.max() <= 1e9


def test_estimator_replay_retrains_identically():
    """Every per-cluster fit of an ``EslurmEstimator`` replay matches."""
    jobs = generate_trace(WorkloadConfig(max_nodes=64), 500, seed=4)

    def replay(box):
        cfg = EstimatorConfig(window=200, min_history=20, refresh_jobs=60, k_clusters=8, aea_gate=0.0)
        est = EslurmEstimator(cfg, rng=np.random.default_rng(1))
        with solver(box) as xs:
            rep = evaluate_estimator(est, jobs, warmup=50)
        return xs, rep, est.trainings

    lean_xs, lean_rep, trainings = replay(svr_mod._lbfgsb_box)
    ref_xs, ref_rep, _ = replay(minimize_box)
    assert trainings > 1 and len(lean_xs) > trainings
    assert len(lean_xs) == len(ref_xs)
    for a, b in zip(lean_xs, ref_xs):
        assert np.array_equal(a, b)
    assert lean_rep == ref_rep
