"""Margin losses: values, gradients, Hessians and bound constants.

All four losses are functions of the margin m = y * <theta, x>, so the
per-example Hessian is always kappa * x x^T for a scalar curvature
kappa = l''(m) >= 0. The vectorized `margin_*` helpers operate on whole
margin arrays and give l, l' and l'' separately.

A `Dataset` holds the label-folded rows z_i = y_i x_i, so, as y_i^2 = 1,
the margins are z theta, the loss gradient z^T l' / n and the Hessian
z^T diag(l'') z / n. `margins(theta, d)` computes z theta for every
caller but the sgd_repro loop, which calls `margin_slopes` itself (see
trainer). `aggregate` and `hessian` take that margins vector, not theta,
so a caller that needs value, gradient and Hessian at one point computes
its margins once and passes them to each. `aggregate` returns the mean
value and the mean gradient. `hessian` is the one Hessian path, called
only by an accepted Newton iterate and by the sensitivity solve.

`margin_slopes` writes l'(m) into `out`, which may be the margins array
itself, as the sgd loop's buffer is. It takes at most five in-place
ufunc passes with no select or mask, so no pass allocates and a NaN
margin gives a NaN slope: logistic is -1/(1 + e^m) (exp, +1, a divide),
smooth_hinge the same form at u = (m - 1)/t, huber_svm
clip((m - (1+h))/(2h), -1, 0) and quadratic m - 1. The curvatures come
from sigmoid' on e^{-|x|}, which never overflows.

Where every row has the same curvature c > 0, the Hessian is
c * G with G = X^T X / n, which depends on the data alone: the quadratic
loss at every point, and logistic and smooth_hinge at theta = 0, the
exact solver's start point. `hessian` then scales G, built once per
`Dataset` by the blocked build below at unit curvature and cached on it
read-only. Scaling by c is exact when sqrt(c) is a power of two (c = 1,
and 1/4 for logistic at 0), so those Hessians keep the blocked build's
bits; other values of c (smooth_hinge at 0) move the last bit. Zero and
NaN curvatures always take the blocked build.

The Hessian is streamed over row blocks of about HESSIAN_BLOCK_BYTES
(512 KB) of rows, so the extra memory is one block, not a scaled
copy of all n rows. The square roots of all curvatures are taken once.
Each block scales its rows by sqrt(kappa) into one buffer allocated per
build and adds them to the upper triangle of one p x p sum with a single
symmetric rank-k update (BLAS dsyrk), about half the flops of a full
product; the triangle is mirrored at the end, so the Hessian is exactly
symmetric, and its last bits differ from a general product's. Rows of
curvature exactly 0 add nothing and are dropped first: huber_svm outside
its band, and logistic or smooth_hinge rows whose e^{-|x|} underflows.
NaN curvatures are kept, so non-finite input stays loud.
"""
from __future__ import annotations

import math

import numpy as np
from scipy.linalg.blas import dsyrk

from .model import Dataset, LossSpec


def _softplus(x):
    # stable log(1 + e^x) for any magnitude of x
    x = np.asarray(x, dtype=np.float64)
    return np.maximum(x, 0.0) + np.log1p(np.exp(-np.abs(x)))


def _sigmoid_prime(x):
    """sigmoid(x) * sigmoid(-x), for any x.

    Built on e = e^{-|x|} <= 1, so nothing overflows, and a tail value is
    about e, not 0: the logistic curvature at a margin of 40 is 4.2e-18.
    """
    e = np.exp(-np.abs(x))
    return e / (1.0 + e) ** 2


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
    r = 1.0 + h - m[band]
    # r lies in [0, 2h], so r**2 can overflow only from h = 6.7e153 on,
    # where the value (at most h) does not; there it is r * (r / 4h)
    out[band] = r**2 / (4.0 * h) if h < 1e150 else r * (r / (4.0 * h))
    out[low] = 1.0 - m[low]
    return out


def margin_slopes(
    spec: LossSpec, margins: np.ndarray, out: np.ndarray | None = None
) -> np.ndarray:
    """Vector of first derivatives l'(m), written into `out` (which may be
    the margins array itself) in at most five in-place passes."""
    m = np.asarray(margins, dtype=np.float64)
    s = np.empty_like(m) if out is None else out
    if spec.kind == "quadratic":
        return np.subtract(m, 1.0, out=s)
    if spec.kind == "huber_svm":
        h = spec.huber_h
        np.subtract(m, 1.0 + h, out=s)
        s /= 2.0 * h
        return np.clip(s, -1.0, 0.0, out=s)
    if spec.kind == "smooth_hinge":
        # l'(m) = -sigmoid(-u) at u = (m - 1)/t, the logistic form below
        np.subtract(m, 1.0, out=s)
        m = np.divide(s, spec.smooth_t, out=s)
    # -sigmoid(-m) = -1/(1 + e^m): past m = 709.78 e^m is inf and the
    # slope is -0, where the true slope's magnitude is below 2.3e-308
    with np.errstate(over="ignore"):
        np.exp(m, out=s)
    s += 1.0
    return np.divide(-1.0, s, out=s)


def margin_curvatures(spec: LossSpec, margins: np.ndarray) -> np.ndarray:
    """Vector of second derivatives l''(m)."""
    m = np.asarray(margins, dtype=np.float64)
    if spec.kind == "logistic":
        return _sigmoid_prime(m)
    if spec.kind == "quadratic":
        return np.ones_like(m)
    if spec.kind == "smooth_hinge":
        return _sigmoid_prime((1.0 - m) / spec.smooth_t) / spec.smooth_t
    d2 = np.zeros_like(m)
    d2[np.abs(1.0 - m) <= spec.huber_h] = 1.0 / (2.0 * spec.huber_h)
    return d2


def margins(theta: np.ndarray, d: Dataset) -> np.ndarray:
    """Vector of margins <theta, z_i> = y_i <theta, x_i>; theta must have length p."""
    theta = np.asarray(theta, dtype=np.float64)
    if theta.shape[0] != d.p:
        raise ValueError(f"theta has length {theta.shape[0]}, dataset has p={d.p}")
    return d.rows @ theta


# bytes of rows per Hessian row block: a block and its scaled copy
# stay in cache, and the build's extra memory does not grow with n
HESSIAN_BLOCK_BYTES = 512 * 1024


def _mean_hessian(d: Dataset, curvatures: np.ndarray) -> np.ndarray:
    rows = max(1, HESSIAN_BLOCK_BYTES // (8 * d.p))
    # kappa >= 0 for every loss, so kappa z z^T = (sqrt(kappa) z)(sqrt(kappa) z)^T
    roots = np.sqrt(curvatures)
    # each block's scaled rows go to the leading rows of one buffer
    buf = np.empty((min(rows, d.n), d.p))
    # dsyrk adds a a^T into the upper triangle of a Fortran-ordered sum;
    # a.T of a C-ordered block is Fortran-ordered, so BLAS gets it uncopied
    upper = np.zeros((d.p, d.p), order="F")
    for start in range(0, d.n, rows):
        zb = d.rows[start : start + rows]
        sb = roots[start : start + rows]
        # a row of zero curvature adds nothing; NaN rows are kept
        curved = sb != 0.0
        if not curved.all():
            zb, sb = zb[curved], sb[curved]
        a = np.multiply(zb, sb[:, None], out=buf[: len(zb)])
        upper = dsyrk(1.0, a.T, beta=1.0, c=upper, trans=0, lower=0, overwrite_c=1)
    upper /= d.n
    # exact zeros lie below the diagonal, so upper + upper.T is the exactly
    # symmetric mirror, but with a doubled diagonal, which is put back
    hessL = upper + upper.T
    np.fill_diagonal(hessL, upper.diagonal())
    return hessL


def _check_margins(m: np.ndarray, d: Dataset) -> np.ndarray:
    m = np.asarray(m, dtype=np.float64)
    if m.shape != (d.n,):
        raise ValueError(f"margins have shape {m.shape}, expected length n={d.n}")
    return m


def aggregate(spec: LossSpec, m: np.ndarray, d: Dataset) -> tuple[float, np.ndarray]:
    """Mean loss and mean gradient over the dataset, at the point whose
    margins `m = margins(theta, d)` are given."""
    m = _check_margins(m, d)
    L = float(margin_values(spec, m).mean())
    return L, d.rows.T @ margin_slopes(spec, m) / d.n


def _gram(d: Dataset) -> np.ndarray:
    """X^T X / n, the Hessian build at unit curvature: built on first use,
    read-only, and kept on the dataset outside its dataclass fields."""
    G = getattr(d, "_gram", None)
    if G is None:
        G = _mean_hessian(d, np.ones(d.n))
        G.setflags(write=False)
        # a racing thread builds the same bits, so either copy may stay
        object.__setattr__(d, "_gram", G)
    return G


def hessian(spec: LossSpec, m: np.ndarray, d: Dataset) -> np.ndarray:
    """Mean loss Hessian (1/n) sum_i kappa_i x_i x_i^T, symmetric PSD, at
    the point whose margins `m = margins(theta, d)` are given."""
    k = margin_curvatures(spec, _check_margins(m, d))
    # one curvature c > 0 for every row (NaN equals nothing): c * X^T X / n
    if k.size and k[0] > 0.0 and (k == k[0]).all():
        return k[0] * _gram(d)
    return _mean_hessian(d, k)


# max |sigma (1-sigma) (1-2 sigma)|, the logistic third-derivative bound
_LOGISTIC_THIRD = 1.0 / (6.0 * math.sqrt(3.0))


# the --bounds modes make_loss_spec accepts
BOUNDS_MODES = ("paper", "tight")


def make_loss_spec(
    kind: str,
    p: int,
    mode: str = "paper",
    *,
    huber_h: float = 0.1,
    smooth_t: float = 0.1,
) -> LossSpec:
    """LossSpec for a loss kind and dimensionality, bound constants filled in.

    "paper" mode reproduces the 2*sqrt(p) / p configuration used by the
    reference experiments. "tight" mode uses analytic bounds valid
    under ||x|| <= 1; for quadratic the gradient bound is data dependent,
    and tight mode takes 2, valid whenever ||theta|| <= 1 (a caller who
    needs another bound builds the LossSpec directly). A finite smooth_t
    or huber_h whose constants leave the float range is a ValueError
    naming it.
    """
    if p < 1:
        raise ValueError("p must be >= 1")
    if mode not in BOUNDS_MODES:
        raise ValueError(f"unknown bounds mode {mode!r}")
    if kind == "huber_svm" and not huber_h > 0:
        raise ValueError("huber_h must be positive")
    if kind == "smooth_hinge" and not smooth_t > 0:
        raise ValueError("smooth_t must be positive")

    if kind == "logistic":
        s = 0.1  # 1/(6*sqrt(3)) ~ 0.0962, rounded up
    elif kind in ("huber_svm", "quadratic"):
        s = 0.0  # piecewise-constant curvature: third derivative vanishes a.e.
    elif kind == "smooth_hinge":
        # smooth_t**2 overflows above about 1.3e154 and is 0 below about 1e-162
        try:
            s = _LOGISTIC_THIRD / smooth_t**2
        except (OverflowError, ZeroDivisionError):
            s = math.inf
    else:
        raise ValueError(f"unknown loss kind {kind!r}")

    if mode == "paper":
        zeta, lam = 2.0 * math.sqrt(p), float(p)
    elif kind == "logistic":
        zeta, lam = 1.0, 0.25
    elif kind == "huber_svm":
        zeta, lam = 1.0, 1.0 / (2.0 * huber_h)
    elif kind == "quadratic":
        zeta, lam = 2.0, 1.0
    else:  # smooth_hinge
        zeta, lam = 1.0, 1.0 / (4.0 * smooth_t)
    if not (s < math.inf and 0 < lam < math.inf):
        name, value = ("huber_h", huber_h) if kind == "huber_svm" else ("smooth_t", smooth_t)
        raise ValueError(
            f"{name}={value!r} is too extreme: the loss's bound constants leave the float range"
        )
    return LossSpec(
        kind=kind, zeta=zeta, lambda_hess=lam, s_third=s, huber_h=huber_h, smooth_t=smooth_t
    )
