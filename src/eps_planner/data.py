"""Dataset ingestion and synthetic data generation.

Two file formats are supported:

  csv         -- header row, one example per row, label in a named column
                 (default "label"), every other column a feature.
  sparse_text -- svmlight-style lines "label index:value ...", indices
                 1-based; dimensionality inferred from the largest index
                 unless given.

Ingestion canonicalizes labels to {-1, +1} ({0, 1} input is remapped) and
rescales features by the max row norm whenever that norm exceeds 1, so
the bound constants computed for ||x|| <= 1 apply.
"""
from __future__ import annotations

import csv
import io

import numpy as np

from .errors import DataError
from .model import Dataset, validate_dataset

FORMATS = ("csv", "sparse_text")


def _canonical_label(raw: str, where: str) -> float:
    try:
        value = float(raw)
    except ValueError:
        raise DataError(f"unknown label symbol {raw!r} at {where}") from None
    if value in (-1.0, 1.0):
        return value
    if value == 0.0:
        return -1.0
    raise DataError(f"unknown label symbol {raw!r} at {where}")


def _normalize(X: np.ndarray) -> np.ndarray:
    norms = np.linalg.norm(X, axis=1)
    max_norm = norms.max() if norms.size else 0.0
    # an inf or NaN row is left as it is for validate_dataset to report
    if 1.0 < max_norm < np.inf:
        X = X / max_norm
    return X


def load_dataset(
    path: str,
    format: str = "csv",
    label_col: str = "label",
    p: int | None = None,
) -> Dataset:
    """Parse, canonicalize and normalize a dataset file."""
    if format not in FORMATS:
        raise ValueError(f"unknown format {format!r}; expected one of {FORMATS}")
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise DataError(f"cannot read {path}: {exc}") from None
    if format == "csv":
        X, y = _parse_csv(text, label_col)
    else:
        X, y = _parse_sparse(text, p)
    if X.shape[0] == 0:
        raise DataError(f"empty file: {path}")
    return validate_dataset(Dataset(_normalize(X), y))


def _parse_csv(text: str, label_col: str) -> tuple[np.ndarray, np.ndarray]:
    reader = csv.reader(io.StringIO(text))
    rows = [row for row in reader if row]
    if not rows:
        raise DataError("empty file")
    header = [h.strip() for h in rows[0]]
    if label_col not in header:
        raise DataError(f"no column named {label_col!r} in header {header}")
    label_idx = header.index(label_col)
    feats, labels = [], []
    for lineno, row in enumerate(rows[1:], start=2):
        if len(row) != len(header):
            raise DataError(f"line {lineno}: expected {len(header)} fields, got {len(row)}")
        try:
            feats.append(
                [float(v) for i, v in enumerate(row) if i != label_idx]
            )
        except ValueError as exc:
            raise DataError(f"line {lineno}: {exc}") from None
        labels.append(_canonical_label(row[label_idx].strip(), f"line {lineno}"))
    return np.array(feats, dtype=np.float64), np.array(labels, dtype=np.float64)


def _parse_sparse(text: str, p: int | None) -> tuple[np.ndarray, np.ndarray]:
    entries = []
    labels = []
    max_idx = 0
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        labels.append(_canonical_label(parts[0], f"line {lineno}"))
        row = {}
        for tok in parts[1:]:
            try:
                idx_s, val_s = tok.split(":", 1)
                idx, val = int(idx_s), float(val_s)
            except ValueError:
                raise DataError(f"line {lineno}: bad feature token {tok!r}") from None
            if idx < 1:
                raise DataError(f"line {lineno}: feature index {idx} is not 1-based")
            row[idx - 1] = val
            max_idx = max(max_idx, idx)
        entries.append(row)
    if not labels:
        raise DataError("empty file")
    dim = max_idx if p is None else p
    if dim < max_idx:
        raise DataError(f"feature index {max_idx} exceeds declared dimensionality {p}")
    if dim == 0:
        raise DataError("no features found and no dimensionality given")
    X = np.zeros((len(labels), dim), dtype=np.float64)
    for i, row in enumerate(entries):
        for j, v in row.items():
            X[i, j] = v
    return X, np.array(labels, dtype=np.float64)


def gen_synthetic(n: int, p: int, separation: float, seed: int) -> Dataset:
    """Two Gaussian clusters at +/- separation along a seeded direction.

    Rows are rescaled so the largest norm is exactly 1 and the class
    labels follow the generating cluster. separation=0 gives label-free
    noise; large separation gives nearly separable classes. Deterministic
    per seed.
    """
    if n < 2:
        raise ValueError("n must be >= 2")
    if p < 1:
        raise ValueError("p must be >= 1")
    if separation < 0:
        raise ValueError("separation must be nonnegative")
    rng = np.random.default_rng(seed)
    w = rng.standard_normal(p)
    w /= np.linalg.norm(w)
    y = np.ones(n)
    y[n // 2 :] = -1.0
    X = rng.standard_normal((n, p)) + np.outer(y, separation * w)
    order = rng.permutation(n)
    X, y = X[order], y[order]
    X = X / np.linalg.norm(X, axis=1).max()
    return validate_dataset(Dataset(X, y))


def write_csv_dataset(d: Dataset, path: str) -> None:
    """Write a dataset in the csv format load_dataset reads back."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow([f"f{j + 1}" for j in range(d.p)] + ["label"])
        for i in range(d.n):
            writer.writerow(
                [repr(float(v)) for v in d.features[i]] + [str(int(d.labels[i]))]
            )
