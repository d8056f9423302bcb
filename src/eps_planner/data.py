"""Dataset ingestion and synthetic data generation.

Two file formats are supported:

  csv         -- header row, one example per row, label in a named column
                 (default "label"), every other column a feature.
  sparse_text -- svmlight-style lines "label index:value ...", indices
                 1-based; the dimensionality is the largest index. A
                 repeated index keeps its last value.

Files are read in blocks of BLOCK_ROWS physical lines. numpy's C reader
(`np.loadtxt`) parses a csv block with no quote character, and a
sparse_text block whose lines each hold the same number of index:value
pairs, one space apart, in one pass. It declines any other block, and
any block with a field it would read otherwise than float() and int(),
such as `1_0`; a declined block is parsed one field at a time, and so is
the rest of a csv file (a quoted field may hold newlines). Both routes
accept the same syntax and give the same bits. Only a block that fails a
check is scanned again line by line, to report the fault at its physical
line. Memory is the parsed arrays (twice over while the blocks are
joined) plus one block, not one Python object per field.
`write_csv_dataset` also converts BLOCK_ROWS rows at a time.

Ingestion canonicalizes labels to {-1, +1} ({0, 1} input is remapped) and
rescales features by the max row norm whenever that norm exceeds 1, so
the bound constants computed for ||x|| <= 1 apply. A file whose squared
entries overflow (|x| above about 1.3e154) is first divided by its
largest absolute entry, so it too loads at unit max norm.
"""
from __future__ import annotations

import contextlib
import csv
from itertools import chain, islice
from operator import itemgetter, methodcaller

import numpy as np

from .errors import DataError
from .model import Dataset, _adopt, _count, validate_dataset

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
    """DataError, naming the label stripped, unless _canonical_labels
    accepts the one label field `raw`."""
    try:
        _canonical_labels(_floats([raw]))
    except ValueError:
        raise DataError(f"unknown label symbol {raw.strip()!r} at {where}") from None


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


def _max_row_norm(X: np.ndarray) -> tuple[np.ndarray, float]:
    """(X, its largest row norm), with X first divided by its largest
    absolute entry if it is finite and its norm overflows."""
    # squaring an entry above about 1.3e154 overflows; the inf it gives is
    # handled below, so numpy's overflow warning is not raised
    with np.errstate(over="ignore"):
        norms = np.linalg.norm(X, axis=1)
    max_norm = norms.max() if norms.size else 0.0
    if max_norm == np.inf and np.isfinite(X).all():
        # every entry is finite: rows divided by max |x| have norms in
        # [0, sqrt(p)], so a division by the largest brings it to 1
        X = X / np.abs(X).max()
        max_norm = np.linalg.norm(X, axis=1).max()
    return X, max_norm


def _normalize(X: np.ndarray) -> np.ndarray:
    X, max_norm = _max_row_norm(X)
    # an inf or NaN row is left as it is for validate_dataset to report
    if 1.0 < max_norm < np.inf:
        X = X / max_norm
    return X


def load_dataset(
    path: str,
    format: str = "csv",
    label_col: str = "label",
) -> Dataset:
    """Parse, canonicalize and normalize a dataset file; a leading UTF-8 BOM is skipped."""
    if format not in FORMATS:
        raise ValueError(f"unknown format {format!r}; expected one of {FORMATS}")
    try:
        with open(path, "r", encoding="utf-8-sig") as fh:
            if format == "csv":
                X, y = _parse_csv(fh, label_col)
            else:
                X, y = _parse_sparse(fh)
    except OSError as exc:
        raise DataError(f"cannot read {path}: {exc}") from None
    if X.shape[0] == 0:
        raise DataError(f"empty file: {path}")
    return validate_dataset(_adopt(_normalize(X), y))


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
    labels, feats = [np.empty(0)], []
    for y, values in _csv_blocks(fh, reader.line_num, width, label_idx):
        labels.append(y)
        feats.append(np.delete(values, label_idx, axis=1))
    return _stack(feats, width - 1), np.concatenate(labels)


def _csv_blocks(fh, line: int, width: int, label_idx: int):
    """(labels, values) of each block of the rest of a csv file, of
    which `line` physical lines are read. Blocks go to numpy's C reader
    until one is declined; the csv reader parses the rest."""
    for lines in _line_blocks(fh):
        try:
            values = _loadtxt_csv(lines, width)
            y = _canonical_labels(values[:, label_idx])
        except ValueError:
            yield from _csv_records(csv.reader(chain(lines, fh)), line, width, label_idx)
            return
        yield y, values
        line += len(lines)


# float() keeps \x1c-\x1f around an ASCII number, where loadtxt strips
# them as whitespace; a quote may start a field that spans lines
_CSV_DECLINED = '"\x1c\x1d\x1e\x1f'


def _loadtxt_csv(lines: list, width: int) -> np.ndarray:
    """A block of csv lines as a float matrix, by numpy's C reader.

    ValueError for a block the C reader declines: one that holds no data
    or a character of _CSV_DECLINED, or has a field loadtxt rejects or a
    record of other than `width` fields.
    """
    text = "".join(lines)
    if text.isspace() or any(map(text.__contains__, _CSV_DECLINED)):
        raise ValueError("block needs the csv reader")
    values = np.loadtxt(lines, delimiter=",", comments=None, ndmin=2)
    if values.shape[1] != width:
        raise ValueError("wrong number of fields")
    return values


def _csv_records(reader, before: int, width: int, label_idx: int):
    """(labels, values) of each block of BLOCK_ROWS records of a csv
    reader whose first line is physical line before + 1; a fault raises
    its DataError."""
    while True:
        # a quoted field may hold newlines, so a block of records can span
        # more physical lines than it has records
        line = before + reader.line_num + 1
        records = list(islice(reader, BLOCK_ROWS))
        if not records:
            return
        try:
            values = _csv_values(records, width)
            y = _canonical_labels(values[:, label_idx])
        except ValueError:
            _locate_csv_error(records, line, width, label_idx)
        yield y, values


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
            _check_label(row[label_idx], where)
        line += 1 + sum(field.count("\n") for field in row)
    raise RuntimeError("csv block rejected, but every record parses")


def _parse_sparse(fh) -> tuple[np.ndarray, np.ndarray]:
    labels, blocks = [], []
    max_idx, line = 0, 1
    for lines in _line_blocks(fh):
        try:
            y, rows, idx, vals = _sparse_block(lines)
        except (ValueError, OverflowError):
            _locate_sparse_error(lines, line)
        labels.append(y)
        if idx.size:
            max_idx = max(max_idx, int(idx.max()))
        with _allocating(max_idx):
            blocks.append(_scatter(len(y), rows, idx - 1, vals))
        line += len(lines)
    with _allocating(max_idx):
        X = _stack(blocks, max_idx)
    return X, np.concatenate(labels or [np.empty(0)])


@contextlib.contextmanager
def _allocating(max_idx: int):
    """Report a dense matrix that memory cannot hold, as wide as the
    largest sparse_text index `max_idx`, as one DataError naming it."""
    try:
        yield
    # numpy raises ValueError for a size past the address range
    except (MemoryError, ValueError):
        raise DataError(
            f"feature index {max_idx} is too large: its dense feature matrix "
            "does not fit in memory"
        ) from None


def _sparse_block(lines: list):
    """(labels, row, index, value) of a block's examples and index:value
    pairs. Any fault _locate_sparse_error names raises ValueError, or
    OverflowError for an index past the int64 range."""
    try:
        raw, counts, idx, vals = _loadtxt_sparse(lines)
    except ValueError:
        raw, counts, idx, vals = _sparse_fields(lines)
    y = _canonical_labels(raw)
    if (idx < 1).any():
        raise ValueError("feature index is not 1-based")
    return y, np.repeat(np.arange(len(y)), counts), idx, vals


def _sparse_fields(lines: list):
    """(raw labels, pairs per example, indices, values) of a block, one
    field at a time: the text before any #, split at whitespace."""
    lines = map(itemgetter(0), map(methodcaller("partition", "#"), lines))
    tokens = list(filter(None, map(str.split, lines)))
    counts = np.fromiter(map(len, tokens), np.intp, len(tokens)) - 1
    pairs = chain.from_iterable(map(itemgetter(slice(1, None)), tokens))
    idx, vals = _pairs(" ".join(pairs), int(counts.sum()))
    return _floats(list(map(itemgetter(0), tokens))), counts, idx, vals


# every byte above the space but ":"
_TOKEN_BYTES = bytes(range(33, 256)).replace(b":", b"")


def _loadtxt_sparse(lines: list):
    """_sparse_fields of a block, by numpy's C reader in one pass.

    ValueError unless every line is ASCII `label index:value ...` with the
    same number k >= 1 of pairs, one space between tokens: deleting all
    but its separators (colons, and the bytes up to the space, among them
    every one str.split or loadtxt splits at) must leave " :" k times and
    the line end, so the label holds no colon and each pair one. With
    colons read as spaces, loadtxt then takes only lines of 2k + 1
    fields, and parses them as float64 (label, values) and int64
    (indices), rejecting any field float() or int() would read otherwise.
    """
    text = "".join(lines)
    k = lines[0].count(":")
    if not text.endswith("\n"):
        text += "\n"
    # a ragged block, as in most svmlight files, declines at the count
    if (
        k == 0
        or text.count(":") != k * len(lines)
        or not text.isascii()
        or text.encode().translate(None, _TOKEN_BYTES) != (b" :" * k + b"\n") * len(lines)
    ):
        raise ValueError("block needs the per-field route")
    table = np.loadtxt(
        [line.replace(":", " ") for line in lines],
        dtype="f8" + ",i8,f8" * k, comments=None, ndmin=1,
    )
    # every field is 8 bytes wide, so a row reads as 2k + 1 of either type
    cells = table.view(np.float64).reshape(len(lines), -1)
    idx = table.view(np.int64).reshape(len(lines), -1)[:, 1::2]
    return cells[:, 0], k, idx.ravel(), cells[:, 2::2].ravel()


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

    Rows are rescaled so the largest norm is exactly 1 (first divided by
    the largest entry where its square overflows, from a separation of
    about 1.3e154) and the class labels follow the generating cluster.
    separation=0 gives label-free noise; large separation gives nearly
    separable classes. Deterministic per seed.
    """
    _count("n", n, 2)
    _count("p", p, 1)
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
    X, max_norm = _max_row_norm(X)
    X = X / max_norm
    return validate_dataset(_adopt(X, y))


def write_csv_dataset(d: Dataset, path: str) -> None:
    """Write a dataset in the csv format load_dataset reads back."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        # the bytes csv.writer writes: no header or float repr needs
        # quoting, and its rows end in \r\n
        fh.write(",".join([f"f{j + 1}" for j in range(d.p)] + ["label"]) + "\r\n")
        # Python floats, not numpy scalars: repr gives the same shortest
        # digits; unfolded and converted one block of rows at a time, so the
        # extra memory is one block's lists, not a list copy of all n rows
        for start in range(0, d.n, BLOCK_ROWS):
            block = d.subset(range(start, min(start + BLOCK_ROWS, d.n)))
            fh.writelines(
                f"{','.join(map(repr, row))},{int(label)}\r\n"
                for row, label in zip(block.features.tolist(), block.labels.tolist())
            )
