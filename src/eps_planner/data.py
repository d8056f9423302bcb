"""Dataset ingestion and synthetic data generation.

Two file formats are supported:

  csv         -- header row, one example per row, label in a named column
                 (default "label"), every other column a feature.
  sparse_text -- svmlight-style lines "label index:value ...", indices
                 1-based; the dimensionality is the largest index. A
                 repeated index keeps its last value.

Files are read in blocks of BLOCK_ROWS lines (csv: records, one line
each unless a quoted field holds a newline). Each block is split (by
one csv reader over the file, or by whole-block string operations for
sparse_text) and converted by one numpy pass over its fields; only a
block that fails a check is scanned again line by line, to report the
fault at the file's physical line. Memory is therefore the parsed arrays (twice over
while the blocks are joined) plus one block, not one Python object per
field. `write_csv_dataset` also converts BLOCK_ROWS rows at a time.

Ingestion canonicalizes labels to {-1, +1} ({0, 1} input is remapped) and
rescales features by the max row norm whenever that norm exceeds 1, so
the bound constants computed for ||x|| <= 1 apply.
"""
from __future__ import annotations

import csv
from itertools import chain, islice
from operator import itemgetter, methodcaller

import numpy as np

from .errors import DataError
from .model import Dataset, validate_dataset

FORMATS = ("csv", "sparse_text")

# lines parsed per block: 1024 rows of 50 features are about 1 MB of
# text; on 20000 x 50 files, 4096-row blocks parsed no faster and raised
# the peak memory of a sparse_text load by 40 MB
BLOCK_ROWS = 1024


def _canonical_labels(values: np.ndarray) -> np.ndarray:
    """Labels in {-1, +1}, 0 read as -1; ValueError if any value is not 0 or +/-1."""
    if not ((values == 1.0) | (values == -1.0) | (values == 0.0)).all():
        raise ValueError("unknown label symbol")
    return np.where(values == 0.0, -1.0, values)


def _floats(fields: list) -> np.ndarray:
    """float() of every field, so Python's number syntax is kept exactly."""
    return np.fromiter(map(float, fields), np.float64, len(fields))


def _check_label(raw: str, where: str) -> None:
    """DataError unless _canonical_labels accepts the one label `raw`."""
    try:
        _canonical_labels(_floats([raw]))
    except ValueError:
        raise DataError(f"unknown label symbol {raw!r} at {where}") from None


def _line_blocks(fh):
    """Successive lists of up to BLOCK_ROWS lines of an open text file."""
    return iter(lambda: list(islice(fh, BLOCK_ROWS)), [])


def _stack(blocks: list, width: int) -> np.ndarray:
    """Row blocks, each at most `width` columns wide, in one zero-padded matrix."""
    X = np.zeros((sum(map(len, blocks)), width))
    row = 0
    for block in blocks:
        X[row:row + len(block), :block.shape[1]] = block
        row += len(block)
    return X


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
) -> Dataset:
    """Parse, canonicalize and normalize a dataset file."""
    if format not in FORMATS:
        raise ValueError(f"unknown format {format!r}; expected one of {FORMATS}")
    try:
        with open(path, "r", encoding="utf-8") as fh:
            if format == "csv":
                X, y = _parse_csv(fh, label_col)
            else:
                X, y = _parse_sparse(fh)
    except OSError as exc:
        raise DataError(f"cannot read {path}: {exc}") from None
    if X.shape[0] == 0:
        raise DataError(f"empty file: {path}")
    return validate_dataset(Dataset(_normalize(X), y))


def _parse_csv(fh, label_col: str) -> tuple[np.ndarray, np.ndarray]:
    reader = csv.reader(fh)
    header = next(filter(None, reader), None)
    if header is None:
        raise DataError("empty file")
    header = [h.strip() for h in header]
    if label_col not in header:
        raise DataError(f"no column named {label_col!r} in header {header}")
    label_idx = header.index(label_col)
    width = len(header)
    labels, feats = [], []
    while True:
        # a quoted field may hold newlines, so a block of records can span
        # more physical lines than it has records
        line = reader.line_num + 1
        records = list(islice(reader, BLOCK_ROWS))
        if not records:
            break
        try:
            values = _csv_values(records, width)
            labels.append(_canonical_labels(values[:, label_idx]))
        except ValueError:
            _locate_csv_error(records, line, width, label_idx)
        feats.append(np.delete(values, label_idx, axis=1))
    return _stack(feats, width - 1), np.concatenate(labels or [np.empty(0)])


def _csv_values(records: list, width: int) -> np.ndarray:
    """A block's records as a float matrix; ValueError for a record with
    the wrong number of fields or a field float() rejects."""
    records = list(filter(None, records))
    if list(map(len, records)).count(width) != len(records):
        raise ValueError("wrong number of fields")
    return _floats(list(chain.from_iterable(records))).reshape(-1, width)


def _locate_csv_error(records, line: int, width: int, label_idx: int):
    """Raise the DataError of the first bad record in a rejected csv block.

    `line` is the physical line the first record starts on; a record
    covers one line, plus one per newline inside its quoted fields.
    """
    for row in records:
        if row:
            where = f"line {line}"
            if len(row) != width:
                raise DataError(f"{where}: expected {width} fields, got {len(row)}")
            try:
                [float(v) for i, v in enumerate(row) if i != label_idx]
            except ValueError as exc:
                raise DataError(f"{where}: {exc}") from None
            _check_label(row[label_idx].strip(), where)
        line += 1 + sum(field.count("\n") for field in row)
    raise RuntimeError("csv block rejected, but every record parses")


def _parse_sparse(fh) -> tuple[np.ndarray, np.ndarray]:
    labels, blocks = [], []
    max_idx, line = 0, 1
    for chunk in _line_blocks(fh):
        lines = "".join(chunk).splitlines()
        try:
            y, rows, idx, vals = _sparse_block(lines)
        except (ValueError, OverflowError):
            _locate_sparse_error(lines, line)
        labels.append(y)
        if idx.size:
            max_idx = max(max_idx, int(idx.max()))
        blocks.append(_scatter(len(y), rows, idx - 1, vals))
        line += len(lines)
    return _stack(blocks, max_idx), np.concatenate(labels or [np.empty(0)])


def _sparse_block(lines: list):
    """(labels, row, index, value) of a block's examples and index:value
    pairs. Any fault _locate_sparse_error names raises ValueError, or
    OverflowError for an index past the int64 range."""
    lines = map(itemgetter(0), map(methodcaller("partition", "#"), lines))
    tokens = list(filter(None, map(str.split, lines)))
    y = _canonical_labels(_floats(list(map(itemgetter(0), tokens))))
    counts = np.fromiter(map(len, tokens), np.intp, len(tokens)) - 1
    pairs = chain.from_iterable(map(itemgetter(slice(1, None)), tokens))
    idx, vals = _pairs(" ".join(pairs), int(counts.sum()))
    if (idx < 1).any():
        raise ValueError("feature index is not 1-based")
    return y, np.repeat(np.arange(len(tokens)), counts), idx, vals


def _pairs(text: str, count: int) -> tuple[np.ndarray, np.ndarray]:
    """Indices and values of `count` space-joined index:value tokens.

    ValueError unless each token holds exactly one colon, with an int()
    before it and a float() after it. One scan of the separator bytes
    checks the colons of all tokens: colons and joining spaces alternate,
    starting and ending with a colon.
    """
    if not text:
        return np.empty(0, np.int64), np.empty(0)
    seps = np.frombuffer(text.encode(), np.uint8)
    seps = seps[(seps == ord(":")) | (seps == ord(" "))]
    if (
        len(seps) != 2 * count - 1
        or (seps[0::2] != ord(":")).any()
        or (seps[1::2] != ord(" ")).any()
    ):
        raise ValueError("not one index:value pair per token")
    fields = text.replace(" ", ":").split(":")
    return np.fromiter(map(int, fields[0::2]), np.int64, count), _floats(fields[1::2])


def _scatter(n: int, rows: np.ndarray, cols: np.ndarray, vals: np.ndarray) -> np.ndarray:
    """Dense n-row block holding vals at (rows, cols); of the values given
    for one position, the last is kept."""
    width = int(cols.max()) + 1 if cols.size else 0
    out = np.zeros((n, width))
    pos = rows * width + cols
    if (np.diff(pos) <= 0).any():
        last = len(pos) - 1 - np.unique(pos[::-1], return_index=True)[1]
        pos, vals = pos[last], vals[last]
    out.ravel()[pos] = vals
    return out


def _locate_sparse_error(lines: list, line: int):
    """Raise the DataError of the first bad line in a rejected sparse
    block whose first line is physical line `line`."""
    for lineno, text in enumerate(lines, start=line):
        text = text.split("#", 1)[0].strip()
        if not text:
            continue
        parts = text.split()
        _check_label(parts[0], f"line {lineno}")
        for tok in parts[1:]:
            try:
                idx_s, val_s = tok.split(":", 1)
                idx, _ = int(idx_s), float(val_s)
            except ValueError:
                raise DataError(f"line {lineno}: bad feature token {tok!r}") from None
            if idx < 1:
                raise DataError(f"line {lineno}: feature index {idx} is not 1-based")
            if idx > np.iinfo(np.int64).max:
                raise DataError(f"line {lineno}: feature index {idx} is too large")
    raise RuntimeError("sparse block rejected, but every line parses")


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
        # the bytes csv.writer writes: no header or float repr needs
        # quoting, and its rows end in \r\n
        fh.write(",".join([f"f{j + 1}" for j in range(d.p)] + ["label"]) + "\r\n")
        # Python floats, not numpy scalars: repr gives the same shortest
        # digits; converted one block of rows at a time, so the extra
        # memory is one block's lists, not a list copy of all n rows
        for start in range(0, d.n, BLOCK_ROWS):
            block = slice(start, start + BLOCK_ROWS)
            fh.writelines(
                f"{','.join(map(repr, row))},{int(label)}\r\n"
                for row, label in zip(d.features[block].tolist(), d.labels[block].tolist())
            )
