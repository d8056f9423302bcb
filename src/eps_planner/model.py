"""Shared domain types and their invariants.

Everything here is immutable after construction and safe to share across
threads. Array fields are read-only float64 arrays; a writable array
passed in is copied, since the caller may still write to it or to a view
of it. A `Dataset` folds its labels into its features, z_i = y_i x_i, in
place in an array nothing else holds (its own float64 conversion, or one
from `load_dataset` or `gen_synthetic`), else into a new array. The one
later write is `losses`' cache of X^T X / n on a `Dataset`, a read-only
array set once outside the dataclass fields (equality, repr and `subset`
ignore it); two threads racing to set it compute the same bits, so the
race is harmless. No numerics beyond validation live in this module.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, fields
from numbers import Integral

import numpy as np

from .errors import DataError

NORM_SLACK = 1e-9

LOSS_KINDS = ("logistic", "huber_svm", "quadratic", "smooth_hinge")
SOLVER_MODES = ("exact", "sgd_repro")


# the two value rules of the package's entry points, each stated once here
def _positive(name: str, value) -> None:
    if not 0 < value < math.inf:
        raise ValueError(f"{name} must be positive and finite, got {value}")


def _count(name: str, value, least: int) -> None:
    if not isinstance(value, Integral) or value < least:
        raise ValueError(f"{name} must be an integer >= {least}, got {value!r}")


def _readonly(a) -> np.ndarray:
    out = np.ascontiguousarray(a, dtype=np.float64)
    # `a` itself or a view of the caller's memory, which the caller may still write
    if out.flags.writeable and (out is a or out.base is not None):
        out = out.copy()
    out.setflags(write=False)
    return out


def _adopt(features: np.ndarray, labels: np.ndarray) -> "Dataset":
    """A Dataset over fresh arrays nothing else holds, folded in place."""
    features *= labels[:, None]
    return _hold(object.__new__(Dataset), features, labels)


def _hold(d: "Dataset", rows: np.ndarray, labels: np.ndarray) -> "Dataset":
    """`d` holding `rows` and `labels`, both made read-only."""
    for name, a in (("rows", rows), ("labels", labels)):
        a.setflags(write=False)
        object.__setattr__(d, name, a)
    return d


class _FieldwiseEq:
    """Equality over the dataclass fields: np.array_equal for arrays, ==
    for the rest. Defining __eq__ here leaves the subclasses unhashable."""

    def __eq__(self, other):
        if not isinstance(other, type(self)):
            return NotImplemented
        return all(
            np.array_equal(a, b) if isinstance(a, np.ndarray) else a == b
            for a, b in ((getattr(self, f.name), getattr(other, f.name)) for f in fields(self))
        )


@dataclass(frozen=True, eq=False, init=False)
class Dataset(_FieldwiseEq):
    """Ordered collection of examples, stored as dense arrays.

    Built from the n x p matrix `features` and the matching +/-1 vector
    `labels`, it stores the label-folded rows z_i = y_i x_i and the labels.
    `features` unfolds the rows on each read, exact for labels +/-1, which
    validate_dataset enforces with the other content invariants.
    """

    rows: np.ndarray
    labels: np.ndarray

    def __init__(self, features, labels):
        y = np.atleast_1d(_readonly(labels))
        X = np.atleast_2d(np.ascontiguousarray(features, dtype=np.float64))
        if X.ndim != 2 or y.ndim != 1:
            raise DataError("features must be a 2-d matrix and labels a vector")
        if X.shape[0] != y.shape[0]:
            raise DataError(f"feature rows ({X.shape[0]}) and labels ({y.shape[0]}) disagree")
        # an ndarray's float64 copy, which nothing else holds, is folded in place
        fresh = isinstance(features, np.ndarray) and X is not features and X.base is None
        # a label outside +-1, which validate_dataset names, may overflow or give 0 * inf
        with np.errstate(over="ignore", invalid="ignore"):
            _hold(self, np.multiply(X, y[:, None], out=X if fresh else None), y)

    @property
    def features(self) -> np.ndarray:
        X = self.rows * self.labels[:, None]
        X.setflags(write=False)
        return X

    @property
    def n(self) -> int:
        return self.rows.shape[0]

    @property
    def p(self) -> int:
        return self.rows.shape[1]

    def subset(self, indices) -> "Dataset":
        idx = np.asarray(indices, dtype=np.intp)
        return _hold(object.__new__(Dataset), self.rows[idx], self.labels[idx])


def validate_dataset(d: Dataset) -> Dataset:
    """Check all dataset invariants; return `d` unchanged if they hold.

    Raises DataError on: empty data, no feature columns, labels outside
    {-1, +1}, a non-finite feature value, or a feature row with L2 norm
    above 1 + 1e-9. Finiteness is checked first, so an inf or NaN row is
    reported as such and not as a norm violation.
    """
    if d.n < 1:
        raise DataError("empty dataset")
    if d.p < 1:
        raise DataError("no feature columns")
    bad = np.flatnonzero(~np.isin(d.labels, (-1.0, 1.0)))
    if bad.size:
        raise DataError(f"invalid label {d.labels[bad[0]]!r} at row {bad[0]}")
    # z_i = +-x_i, with x_i's finiteness and norm
    finite = np.isfinite(d.rows)
    if not finite.all():
        row = np.flatnonzero(~finite.all(axis=1))[0]
        raise DataError(f"non-finite feature value at row {row}")
    norms = np.linalg.norm(d.rows, axis=1)
    over = np.flatnonzero(norms > 1.0 + NORM_SLACK)
    if over.size:
        raise DataError(
            f"feature norm {norms[over[0]]:.12g} exceeds 1 at row {over[0]}"
        )
    return d


@dataclass(frozen=True)
class PrivacyBudget:
    """(epsilon, delta) pair with 0 < epsilon < inf and 0 < delta < 1."""

    epsilon: float
    delta: float

    def __post_init__(self):
        _positive("epsilon", self.epsilon)
        if not 0 < self.delta < 1:
            raise ValueError(f"delta must lie in (0, 1), got {self.delta}")


@dataclass(frozen=True)
class LossSpec:
    """Which loss to use, its shape parameters and its bound constants.

    zeta bounds the per-example gradient norm, lambda_hess the
    per-example Hessian spectral norm, s_third the third-derivative
    norm used by the error-scale advisory.
    """

    kind: str
    zeta: float
    lambda_hess: float
    s_third: float
    huber_h: float = 0.1
    smooth_t: float = 0.1

    def __post_init__(self):
        if self.kind not in LOSS_KINDS:
            raise ValueError(f"unknown loss kind {self.kind!r}")
        _positive("zeta", self.zeta)
        _positive("lambda_hess", self.lambda_hess)
        if not 0 <= self.s_third < math.inf:
            raise ValueError(f"s_third must be nonnegative and finite, got {self.s_third}")
        if self.kind == "huber_svm" and not self.huber_h > 0:
            raise ValueError("huber_h must be positive for huber_svm")
        if self.kind == "smooth_hinge" and not self.smooth_t > 0:
            raise ValueError("smooth_t must be positive for smooth_hinge")


@dataclass(frozen=True, eq=False)
class NoiseDraw(_FieldwiseEq):
    """The fixed standard-normal base vector u behind the linear noise term.

    Generated once per training run; scaling by sigma(eps) later makes the
    noise a differentiable function of eps while u stays constant. Two
    draws with the same seed and length are bit-identical: generation uses
    the Box-Muller transform over a PCG64 stream seeded with `seed`.
    """

    base_u: np.ndarray
    seed: int

    def __post_init__(self):
        object.__setattr__(self, "base_u", np.atleast_1d(_readonly(self.base_u)))
        object.__setattr__(self, "seed", int(self.seed))

    @classmethod
    def generate(cls, p: int, seed: int) -> "NoiseDraw":
        _count("p", p, 1)
        return cls(_box_muller(p, seed), seed)

    @property
    def p(self) -> int:
        return self.base_u.shape[0]


def _box_muller(p: int, seed: int) -> np.ndarray:
    """Standard normals via Box-Muller over numpy's PCG64 bit generator.

    Pinning the transform (rather than relying on the generator's own
    normal method) keeps draws bit-reproducible even if numpy changes
    its internal normal algorithm.
    """
    rng = np.random.Generator(np.random.PCG64(seed))
    pairs = (p + 1) // 2
    # random() yields [0, 1); shift to (0, 1] so the log is finite
    u1 = 1.0 - rng.random(pairs)
    u2 = rng.random(pairs)
    r = np.sqrt(-2.0 * np.log(u1))
    z = np.concatenate([r * np.cos(2.0 * np.pi * u2), r * np.sin(2.0 * np.pi * u2)])
    return z[:p]


@dataclass(frozen=True, eq=False)
class PrivateModel(_FieldwiseEq):
    """A trained parameter vector together with everything that produced it."""

    theta: np.ndarray
    budget: PrivacyBudget
    reg_lambda: float
    noise: NoiseDraw
    loss: LossSpec
    grad_norm_at_solution: float
    solver_mode: str
    iterations_used: int

    def __post_init__(self):
        object.__setattr__(self, "theta", np.atleast_1d(_readonly(self.theta)))
        if self.solver_mode not in SOLVER_MODES:
            raise ValueError(f"unknown solver mode {self.solver_mode!r}")
        if self.reg_lambda < 0:
            raise ValueError("reg_lambda must be nonnegative")
        if self.theta.shape != self.noise.base_u.shape:
            raise ValueError("theta and noise draw dimensionality disagree")

    @property
    def theta_norm(self) -> float:
        return float(np.linalg.norm(self.theta))


@dataclass(frozen=True, eq=False)
class SensitivityReport(_FieldwiseEq):
    """Result of the implicit-differentiation solve at one budget:
    dtheta_deps is d(theta-hat)/d(eps)."""

    dtheta_deps: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "dtheta_deps", np.atleast_1d(_readonly(self.dtheta_deps)))


@dataclass(frozen=True)
class ExtrapolationLine:
    """The affine utility predictor produced by one measuring run."""

    measure_eps: float
    base_utility: float
    slope: float

    def __post_init__(self):
        _positive("measure_eps", self.measure_eps)
