"""Reference kernels, timed beside every request to gauge the host's speed.

On a shared host the speed of a core swings by up to 1.5x, in stretches
that last a minute and more, and every wall time swings with it; taking
the fastest or the median request of a run does not help when the whole
run falls in a slow stretch. So the runner times one of these kernels
between every two requests and divides each request's latency by the
mean of the kernel times on either side of it. The kernels are fixed
(their inputs do not depend on the workload seed) and call nothing in
eps_planner, so a change to the package cannot make them faster or
slower; they only follow the host.

Different work slows by different amounts in the same stretch (pure
Python more than BLAS-bound numpy), so each workload gets a kernel with
its own mix: a large Hessian build for ``plan-wide``, many small
gradient steps for ``tables-sgd``, and text parsing plus a Hessian build
for ``cli-ingest``.
"""
from __future__ import annotations

import csv
import io

import numpy as np

# one fixed stream for every kernel input
KERNEL_SEED = 20220607


def _inputs(n: int, p: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    rng = np.random.default_rng(KERNEL_SEED)
    X = rng.standard_normal((n, p))
    X /= np.linalg.norm(X, axis=1).max()
    y = np.where(rng.random(n) < 0.5, -1.0, 1.0)
    return X, y, rng.standard_normal(p) / np.sqrt(p)


def _logistic_pass(X: np.ndarray, y: np.ndarray, theta: np.ndarray):
    """Mean logistic loss, gradient and Hessian: the shape of a Newton step."""
    n = X.shape[0]
    m = y * (X @ theta)
    s = 0.5 * (1.0 + np.tanh(0.5 * m))
    loss = float(np.logaddexp(0.0, -m).mean())
    grad = X.T @ ((s - 1.0) * y) / n
    hess = (X * (s * (1.0 - s))[:, None]).T @ X / n
    return loss, grad, 0.5 * (hess + hess.T)


def _gradient_steps(X: np.ndarray, y: np.ndarray, theta: np.ndarray, steps: int) -> np.ndarray:
    """Fixed-size full-gradient steps, each building a Hessian it ignores."""
    for _ in range(steps):
        _, grad, _ = _logistic_pass(X, y, theta)
        theta = theta - 0.01 * (grad + 0.01 * theta)
    return theta


def hessian_kernel():
    """For plan-wide: two BLAS-bound Hessian builds on 20000x100 data."""
    X, y, theta = _inputs(20000, 100)

    def run():
        for _ in range(2):
            _logistic_pass(X, y, theta)

    return run


def small_steps_kernel():
    """For tables-sgd: one sgd_repro training's worth of small numpy calls."""
    X, y, theta = _inputs(5000, 10)
    return lambda: _gradient_steps(X, y, theta, 100)


def ingest_kernel():
    """For cli-ingest: parse 1000 rows of csv and of svmlight-style text,
    then four Hessian builds on 20000x50 data."""
    X, y, theta = _inputs(20000, 50)
    head = X[:1000].tolist()
    labels = [int(v) for v in y[:1000]]
    csv_text = "".join(",".join(map(repr, x)) + f",{c}\n" for x, c in zip(head, labels))
    sparse_text = "".join(
        f"{c} " + " ".join(f"{j + 1}:{v!r}" for j, v in enumerate(x)) + "\n"
        for x, c in zip(head, labels)
    )

    def run():
        parsed = [[float(v) for v in row] for row in csv.reader(io.StringIO(csv_text))]
        for line in sparse_text.splitlines():
            label, *feats = line.split()
            parsed.append([float(label)] + [float(t.split(":", 1)[1]) for t in feats])
        for _ in range(4):
            _logistic_pass(X, y, theta)
        return parsed

    return run
