"""Margin losses: values, gradients, Hessians and bound constants.

All four losses are functions of the margin m = y * <theta, x>, so the
per-example Hessian is always kappa * x x^T for a scalar curvature
kappa = l''(m) >= 0. The vectorized `margin_*` helpers operate on whole
margin arrays and give l, l' and l'' separately.

`aggregate` always returns the mean gradient and computes the mean value
and the O(n p^2) mean Hessian only on request; `hessian` builds the
Hessian alone. Each caller asks for what it uses: a training step for the
gradient, a line-search candidate for value and gradient, and only an
accepted Newton iterate or the sensitivity system matrix for a Hessian.

Both build the Hessian the same way: streamed over row blocks of about
HESSIAN_BLOCK_BYTES (512 KB) of features, each block adding its
curvature-weighted outer products to one p x p sum, so the extra memory
is one block, not a scaled copy of all n rows. Rows of curvature exactly
0 add nothing and are dropped before the product: huber_svm outside its
band, and logistic or smooth_hinge rows whose sigmoid saturates to 1.
NaN curvatures are kept, so non-finite input stays loud. Data that fits
in one block gets the single product's bits.
"""
from __future__ import annotations

import math

import numpy as np
from scipy.special import expit

from .model import Dataset, LossSpec


def _softplus(x):
    # stable log(1 + e^x) for any magnitude of x
    x = np.asarray(x, dtype=np.float64)
    return np.maximum(x, 0.0) + np.log1p(np.exp(-np.abs(x)))


def smooth_hinge(t: float, margin) -> float:
    """Smoothed hinge t * log(1 + e^{(1-margin)/t}); approaches the hinge as t -> 0."""
    if not t > 0:
        raise ValueError("smoothing temperature t must be positive")
    out = t * _softplus((1.0 - np.asarray(margin, dtype=np.float64)) / t)
    return float(out) if np.isscalar(margin) else out


def margin_values(spec: LossSpec, margins: np.ndarray) -> np.ndarray:
    """Vector of per-example loss values l(m)."""
    m = np.asarray(margins, dtype=np.float64)
    if spec.kind == "logistic":
        return _softplus(-m)
    if spec.kind == "quadratic":
        return 0.5 * (1.0 - m) ** 2
    if spec.kind == "smooth_hinge":
        return spec.smooth_t * _softplus((1.0 - m) / spec.smooth_t)
    # huber_svm: flat above 1+h, quadratic within the band, linear below 1-h
    h = spec.huber_h
    out = np.zeros_like(m)
    band = np.abs(1.0 - m) <= h
    low = m < 1.0 - h
    out[band] = (1.0 + h - m[band]) ** 2 / (4.0 * h)
    out[low] = 1.0 - m[low]
    return out


def margin_slopes(spec: LossSpec, margins: np.ndarray) -> np.ndarray:
    """Vector of first derivatives l'(m)."""
    m = np.asarray(margins, dtype=np.float64)
    if spec.kind == "logistic":
        return expit(m) - 1.0
    if spec.kind == "quadratic":
        return m - 1.0
    if spec.kind == "smooth_hinge":
        return -expit((1.0 - m) / spec.smooth_t)
    h = spec.huber_h
    d1 = np.zeros_like(m)
    band = np.abs(1.0 - m) <= h
    low = m < 1.0 - h
    d1[band] = -(1.0 + h - m[band]) / (2.0 * h)
    d1[low] = -1.0
    return d1


def margin_curvatures(spec: LossSpec, margins: np.ndarray) -> np.ndarray:
    """Vector of second derivatives l''(m)."""
    m = np.asarray(margins, dtype=np.float64)
    if spec.kind == "logistic":
        s = expit(m)
        return s * (1.0 - s)
    if spec.kind == "quadratic":
        return np.ones_like(m)
    if spec.kind == "smooth_hinge":
        s = expit((1.0 - m) / spec.smooth_t)
        return s * (1.0 - s) / spec.smooth_t
    d2 = np.zeros_like(m)
    d2[np.abs(1.0 - m) <= spec.huber_h] = 1.0 / (2.0 * spec.huber_h)
    return d2


def _margins(theta: np.ndarray, d: Dataset) -> np.ndarray:
    theta = np.asarray(theta, dtype=np.float64)
    if theta.shape[0] != d.p:
        raise ValueError(f"theta has length {theta.shape[0]}, dataset has p={d.p}")
    return d.labels * (d.features @ theta)


# bytes of features per Hessian row block: a block and its scaled copy
# stay in cache, and the build's extra memory does not grow with n
HESSIAN_BLOCK_BYTES = 512 * 1024


def _mean_hessian(d: Dataset, curvatures: np.ndarray) -> np.ndarray:
    rows = max(1, HESSIAN_BLOCK_BYTES // (8 * d.p))
    hessL = None
    for start in range(0, d.n, rows):
        xb = d.features[start : start + rows]
        kb = curvatures[start : start + rows]
        # a row of zero curvature adds nothing; NaN rows are kept
        curved = kb != 0.0
        if not curved.all():
            xb, kb = xb[curved], kb[curved]
        block = (xb * kb[:, None]).T @ xb
        hessL = block if hessL is None else hessL + block
    hessL /= d.n
    return 0.5 * (hessL + hessL.T)


def aggregate(
    spec: LossSpec,
    theta: np.ndarray,
    d: Dataset,
    *,
    with_value: bool = True,
    with_hessian: bool = True,
) -> tuple[float | None, np.ndarray, np.ndarray | None]:
    """Mean loss, mean gradient and mean Hessian over the dataset.

    The gradient is always computed. The value costs O(n) transcendental
    work and the Hessian O(n p^2), so callers that do not use them pass
    with_value=False or with_hessian=False and get None in that slot;
    the parts that are computed carry the same bits either way. The
    Hessian is the symmetric PSD matrix (1/n) sum_i kappa_i x_i x_i^T.
    """
    m = _margins(theta, d)
    L = float(margin_values(spec, m).mean()) if with_value else None
    gradL = d.features.T @ (margin_slopes(spec, m) * d.labels) / d.n
    hessL = _mean_hessian(d, margin_curvatures(spec, m)) if with_hessian else None
    return L, gradL, hessL


def hessian(spec: LossSpec, theta: np.ndarray, d: Dataset) -> np.ndarray:
    """Mean Hessian alone, for a point whose value and gradient are known.

    Bit-identical to the third part of `aggregate` at the same theta.
    """
    return _mean_hessian(d, margin_curvatures(spec, _margins(theta, d)))


# max |sigma (1-sigma) (1-2 sigma)|, the logistic third-derivative bound
_LOGISTIC_THIRD = 1.0 / (6.0 * math.sqrt(3.0))


def default_bounds(
    kind: str,
    p: int,
    mode: str = "paper",
    *,
    huber_h: float = 0.1,
    smooth_t: float = 0.1,
    quad_zeta: float | None = None,
) -> tuple[float, float, float]:
    """(zeta, lambda_hess, s_third) for a loss kind and dimensionality.

    "paper" mode reproduces the 2*sqrt(p) / p configuration used by the
    reference experiments. "tight" mode returns analytic bounds valid
    under ||x|| <= 1; for quadratic the gradient bound is data dependent,
    so the caller may supply `quad_zeta` (defaults to 2, valid whenever
    ||theta|| <= 1).
    """
    if p < 1:
        raise ValueError("p must be >= 1")
    if mode not in ("paper", "tight"):
        raise ValueError(f"unknown bounds mode {mode!r}")

    if kind == "logistic":
        s = 0.1  # 1/(6*sqrt(3)) ~ 0.0962, rounded up
    elif kind == "huber_svm":
        s = 0.0  # piecewise-constant curvature: third derivative vanishes a.e.
    elif kind == "quadratic":
        s = 0.0
    elif kind == "smooth_hinge":
        s = _LOGISTIC_THIRD / smooth_t**2
    else:
        raise ValueError(f"unknown loss kind {kind!r}")

    if mode == "paper":
        return 2.0 * math.sqrt(p), float(p), s

    if kind == "logistic":
        return 1.0, 0.25, s
    if kind == "huber_svm":
        if not huber_h > 0:
            raise ValueError("huber_h must be positive")
        return 1.0, 1.0 / (2.0 * huber_h), s
    if kind == "quadratic":
        return (2.0 if quad_zeta is None else float(quad_zeta)), 1.0, s
    # smooth_hinge
    if not smooth_t > 0:
        raise ValueError("smooth_t must be positive")
    return 1.0, 1.0 / (4.0 * smooth_t), s


def make_loss_spec(
    kind: str,
    p: int,
    mode: str = "paper",
    *,
    huber_h: float = 0.1,
    smooth_t: float = 0.1,
    quad_zeta: float | None = None,
) -> LossSpec:
    """LossSpec with bound constants filled in from default_bounds."""
    zeta, lam, s = default_bounds(
        kind, p, mode, huber_h=huber_h, smooth_t=smooth_t, quad_zeta=quad_zeta
    )
    return LossSpec(
        kind=kind, zeta=zeta, lambda_hess=lam, s_third=s, huber_h=huber_h, smooth_t=smooth_t
    )
