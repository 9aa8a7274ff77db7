"""ε-insensitive support vector regression, from scratch.

Solves the standard SVR dual with the bias absorbed into the kernel
(adding a constant term to K), which removes the equality constraint
and leaves a smooth box-constrained QP over (α, α*)::

    min_{α,α* ∈ [0,C]}  ½ (α-α*)ᵀ K̃ (α-α*) - yᵀ(α-α*) + ε·1ᵀ(α+α*)

solved with L-BFGS-B through :func:`_lbfgsb_box`, a lean driver over
scipy's ``setulb`` kernel that produces the same iterates as
``scipy.optimize.minimize(method="L-BFGS-B")`` without its
per-evaluation wrapper.  Predictions are ``f(x) = Σ (αᵢ-α*ᵢ) K̃(xᵢ, x)``.
RBF and linear kernels; per-cluster training sets in the paper's
framework are a few hundred samples, well within dense-kernel territory.
"""

from __future__ import annotations

import typing as t

import numpy as np
from scipy.optimize import _lbfgsb

from repro.errors import EstimationError


def _lbfgsb_box(
    fun_and_grad: t.Callable[[np.ndarray], tuple[float, np.ndarray]],
    n: int,
    upper: float,
    max_iter: int,
) -> np.ndarray:
    """Minimise over ``[0, upper]ⁿ`` from ``x = 0`` with L-BFGS-B.

    Mirrors the loop of ``scipy.optimize._lbfgsb_py._minimize_lbfgsb``
    (scipy ≥ 1.15: the C ``setulb`` with integer ``task``) at the
    defaults ``minimize`` uses: ``maxcor=10``, ``ftol=2.22e-9``,
    ``gtol=1e-5``, ``maxls=20``, ``maxfun=15000``.  L-BFGS-B's iterates
    depend only on the ``(f, g)`` values ``setulb`` receives, and
    ``fun_and_grad`` is a pure function of ``x``, so evaluating it on
    every request instead of through scipy's memoising
    ``ScalarFunction`` hands ``setulb`` the same values and returns the
    same ``x``, bit for bit.  Evaluations are counted as
    ``ScalarFunction.nfev`` counts them (its evaluation at ``x0`` stands
    in for ``setulb``'s first request), so the iteration-limit (504) and
    evaluation-limit (502) stops fire at the same iterate.

    ``fun_and_grad`` receives ``setulb``'s own ``x``: it must neither
    write to it nor keep it.
    """
    m = 10
    x = np.zeros(n)
    low = np.zeros(n)
    up = np.full(n, float(upper))
    nbd = np.full(n, 2, dtype=np.int32)  # 2: bounded below and above
    f = 0.0
    g = np.zeros(n)
    wa = np.zeros(2 * m * n + 5 * n + 11 * m * m + 8 * m)
    iwa = np.zeros(3 * n, dtype=np.int32)
    task = np.zeros(2, dtype=np.int32)
    ln_task = np.zeros(2, dtype=np.int32)
    lsave = np.zeros(4, dtype=np.int32)
    isave = np.zeros(44, dtype=np.int32)
    dsave = np.zeros(29)
    factr = 2.2204460492503131e-09 / np.finfo(float).eps
    n_iter = nfev = 0
    while True:
        _lbfgsb.setulb(m, x, low, up, nbd, f, g, factr, 1e-5, wa, iwa, task,
                       lsave, isave, dsave, 20, ln_task)
        if task[0] == 3:  # evaluate f and g at the current x
            f, g = fun_and_grad(x)
            nfev += 1
        elif task[0] == 1:  # a new iterate
            n_iter += 1
            if n_iter >= max_iter:
                task[0], task[1] = 5, 504
            elif nfev > 15000:
                task[0], task[1] = 5, 502
        else:
            return x


def _rbf(
    X: np.ndarray, Y: np.ndarray, gamma: float, y_sq: np.ndarray | None = None
) -> np.ndarray:
    if y_sq is None:
        y_sq = (Y * Y).sum(axis=1)[None, :]
    d = (X * X).sum(axis=1)[:, None] - 2.0 * X @ Y.T + y_sq
    return np.exp(-gamma * np.maximum(d, 0.0))


class SVR:
    """ε-SVR with RBF (default) or linear kernel.

    Args:
        C: box constraint (regularisation inverse), finite.
        epsilon: width of the insensitive tube.
        kernel: ``"rbf"`` or ``"linear"``.
        gamma: RBF width; ``None`` uses 1 / (n_features · var(X)), the
            'scale' heuristic.
        bias_term: constant added to the kernel to absorb the intercept.
    """

    def __init__(
        self,
        C: float = 10.0,
        epsilon: float = 0.05,
        kernel: str = "rbf",
        gamma: float | None = None,
        bias_term: float = 1.0,
        max_iter: int = 300,
    ) -> None:
        if not 0 < C < np.inf or epsilon < 0:
            raise EstimationError("C must be positive and finite, epsilon non-negative")
        if kernel not in ("rbf", "linear", "rbf+linear"):
            raise EstimationError(f"unknown kernel {kernel!r}")
        self.C = C
        self.epsilon = epsilon
        self.kernel = kernel
        self.gamma = gamma
        self.bias_term = bias_term
        self.max_iter = max_iter
        self._X: np.ndarray | None = None
        self._X_sq: np.ndarray | None = None
        self._beta: np.ndarray | None = None
        self._gamma_eff: float = 1.0
        self._y_mean: float = 0.0

    # -- kernels ---------------------------------------------------------
    def _kernel(
        self, X: np.ndarray, Y: np.ndarray, y_sq: np.ndarray | None = None
    ) -> np.ndarray:
        if self.kernel == "rbf":
            K = _rbf(X, Y, self._gamma_eff, y_sq)
        elif self.kernel == "linear":
            K = X @ Y.T / max(X.shape[1], 1)
        else:  # rbf+linear: local memory plus global (scaling) trends
            K = _rbf(X, Y, self._gamma_eff, y_sq) + 0.3 * (X @ Y.T) / max(X.shape[1], 1)
        return K + self.bias_term

    # -- fit ------------------------------------------------------------
    def fit(self, X: np.ndarray, y: np.ndarray) -> "SVR":
        X = np.asarray(X, dtype=float)
        y = np.asarray(y, dtype=float).ravel()
        if X.ndim != 2 or X.shape[0] != y.shape[0] or X.shape[0] == 0:
            raise EstimationError("fit needs matching non-empty X, y")
        n = X.shape[0]
        if self.gamma is None:
            var = X.var()
            self._gamma_eff = 1.0 / (X.shape[1] * var) if var > 1e-12 else 1.0
        else:
            self._gamma_eff = self.gamma
        # Centre the target: with the bias absorbed into the kernel, an
        # uncentred target forces a large constant component Σβ whose
        # far-field value is unconstrained; centring makes predictions
        # far from the data revert to the training mean instead.
        self._y_mean = float(y.mean())
        y = y - self._y_mean
        K = self._kernel(X, X)
        eps = self.epsilon
        C = self.C

        def objective(theta: np.ndarray) -> tuple[float, np.ndarray]:
            a, a_star = theta[:n], theta[n:]
            beta = a - a_star
            Kb = K @ beta
            val = 0.5 * beta @ Kb - y @ beta + eps * (a.sum() + a_star.sum())
            grad = np.concatenate([Kb - y + eps, -Kb + y + eps])
            return val, grad

        theta = _lbfgsb_box(objective, 2 * n, C, self.max_iter)
        self._beta = theta[:n] - theta[n:]
        self._X = X
        # Support-vector row norms, reused by every prediction — the
        # submit-path predict_one is the estimator's hot loop.
        self._X_sq = (X * X).sum(axis=1)[None, :]
        return self

    @property
    def fitted(self) -> bool:
        return self._beta is not None

    @property
    def n_support(self) -> int:
        """Number of support vectors (non-negligible dual coefficients)."""
        if self._beta is None:
            raise EstimationError("SVR not fitted")
        return int((np.abs(self._beta) > 1e-8).sum())

    # -- predict ------------------------------------------------------------
    def predict(self, X: np.ndarray) -> np.ndarray:
        if self._beta is None or self._X is None:
            raise EstimationError("SVR not fitted")
        X = np.atleast_2d(np.asarray(X, dtype=float))
        return self._kernel(X, self._X, self._X_sq) @ self._beta + self._y_mean

    def predict_one(self, x: np.ndarray) -> float:
        return float(self.predict(x[None, :])[0])
