import csv
import hashlib
import io
import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from eps_planner import data
from eps_planner.data import BLOCK_ROWS, gen_synthetic, load_dataset, write_csv_dataset
from eps_planner.errors import DataError
from eps_planner.losses import make_loss_spec
from eps_planner.model import Dataset, NoiseDraw, PrivacyBudget
from eps_planner.trainer import TrainConfig, train, utility


class TestCsvLoader:
    def test_hand_constructed_row(self, tmp_path):
        f = tmp_path / "d.csv"
        f.write_text("f1,f2,label\n0.6,0.8,+1\n")
        d = load_dataset(str(f), "csv")
        assert (d.n, d.p) == (1, 2)
        assert np.linalg.norm(d.features[0]) == pytest.approx(1.0, rel=1e-12)
        assert d.labels[0] == 1.0

    def test_label_column_position_free(self, tmp_path):
        f = tmp_path / "d.csv"
        f.write_text("label,f1,f2\n-1,0.1,0.2\n1,0.3,0.4\n")
        d = load_dataset(str(f), "csv")
        assert np.array_equal(d.labels, [-1.0, 1.0])
        assert np.array_equal(d.features[1], [0.3, 0.4])

    def test_zero_one_labels_remapped(self, tmp_path):
        f = tmp_path / "d.csv"
        f.write_text("f1,label\n0.5,0\n0.5,1\n")
        d = load_dataset(str(f), "csv")
        assert np.array_equal(d.labels, [-1.0, 1.0])

    def test_unknown_label_symbol(self, tmp_path):
        f = tmp_path / "d.csv"
        f.write_text("f1,label\n0.5,positive\n")
        with pytest.raises(DataError, match="line 2"):
            load_dataset(str(f), "csv")

    def test_bad_feature_reports_line(self, tmp_path):
        f = tmp_path / "d.csv"
        f.write_text("f1,label\n0.5,1\nxyz,1\n")
        with pytest.raises(DataError, match="line 3"):
            load_dataset(str(f), "csv")

    def test_error_names_physical_line(self, tmp_path):
        """Blank lines count: the bad row is line 5 of the file."""
        f = tmp_path / "d.csv"
        f.write_text("f1,label\n0.5,1\n\n\nxyz,1\n")
        with pytest.raises(DataError, match=r"^line 5: could not convert string to float: 'xyz'$"):
            load_dataset(str(f), "csv")

    @pytest.mark.parametrize("block_rows", [1, 2, 3, BLOCK_ROWS])
    def test_quoted_record_spans_lines(self, tmp_path, monkeypatch, block_rows):
        """A quoted field may hold a newline; the record after it is
        numbered by physical line, wherever the blocks split the file."""
        monkeypatch.setattr(data, "BLOCK_ROWS", block_rows)
        body = 'f1,label\n"0.5\n",1\n\n"0.25",0\n'
        f = tmp_path / "d.csv"
        f.write_text(body)
        d = load_dataset(str(f), "csv")
        assert d.features.tolist() == [[0.5], [0.25]]
        assert d.labels.tolist() == [1.0, -1.0]
        f.write_text(body + "xyz,1\n")
        with pytest.raises(DataError, match=r"^line 6: could not convert string to float: 'xyz'$"):
            load_dataset(str(f), "csv")

    def test_rows_one_field_short_of_the_header(self, tmp_path):
        """Every row short by one: numpy's C reader takes the block as a
        2-column matrix, its width check declines it, and the csv reader
        names the first short line."""
        f = tmp_path / "d.csv"
        f.write_text("f1,f2,label\n0.1,1\n0.2,-1\n")
        with pytest.raises(DataError, match="^line 2: expected 3 fields, got 2$"):
            load_dataset(str(f), "csv")

    def test_byte_order_mark_is_skipped(self, tmp_path):
        """A header read as '\\ufefflabel' had no column named 'label'."""
        text = "label,f1,f2\n-1,0.1,0.2\n1,0.3,0.4\n"
        plain, marked = tmp_path / "plain.csv", tmp_path / "marked.csv"
        plain.write_text(text, encoding="utf-8")
        marked.write_text("\ufeff" + text, encoding="utf-8")
        assert marked.read_bytes().startswith(b"\xef\xbb\xbf")
        d, back = load_dataset(str(plain), "csv"), load_dataset(str(marked), "csv")
        assert np.array_equal(back.features, d.features) and np.array_equal(back.labels, d.labels)

    def test_unknown_format(self, tmp_path):
        f = tmp_path / "d.json"
        f.write_text("{}")
        with pytest.raises(ValueError, match="^unknown format 'json'"):
            load_dataset(str(f), "json")

    def test_missing_label_column(self, tmp_path):
        f = tmp_path / "d.csv"
        f.write_text("a,b\n1,2\n")
        with pytest.raises(DataError, match="label"):
            load_dataset(str(f), "csv")

    def test_empty_file(self, tmp_path):
        f = tmp_path / "d.csv"
        f.write_text("")
        with pytest.raises(DataError, match="empty"):
            load_dataset(str(f), "csv")

    def test_norms_above_one_rescaled(self, tmp_path):
        f = tmp_path / "d.csv"
        f.write_text("f1,f2,label\n3.0,4.0,1\n1.0,0.0,-1\n")
        d = load_dataset(str(f), "csv")
        norms = np.linalg.norm(d.features, axis=1)
        assert norms.max() == pytest.approx(1.0, rel=1e-12)
        # both rows divided by the same max norm (5.0)
        assert d.features[1, 0] == pytest.approx(0.2, rel=1e-12)

    def test_rescale_divides_by_the_max_row_norm(self, tmp_path):
        """Rows with finite norms are divided by numpy's max row norm, bit for bit."""
        X = np.array([[3.0, 4.0], [1e150, 2e150], [0.1, -0.7]])
        f = tmp_path / "d.csv"
        f.write_text("f1,f2,label\n" + "".join(f"{a!r},{b!r},1\n" for a, b in X.tolist()))
        d = load_dataset(str(f), "csv")
        np.testing.assert_array_equal(d.features, X / np.linalg.norm(X, axis=1).max())

    def test_entries_whose_squares_overflow_rescale_to_unit_norm(self, tmp_path):
        """1e200 squared overflows, yet every entry is finite: the file
        rescales to unit max norm, with no warning."""
        f = tmp_path / "d.csv"
        f.write_text("f1,f2,label\n1e200,1e200,1\n0.5,0.5,-1\n")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            d = load_dataset(str(f), "csv")
        assert abs(np.linalg.norm(d.features[0]) - 1.0) <= 1e-15
        assert np.isfinite(d.features).all()
        assert d.labels.tolist() == [1.0, -1.0]


@pytest.mark.parametrize("format, text", [
    ("csv", "label\n1\n-1\n"),
    ("sparse_text", "1\n-1\n"),
])
def test_labels_without_features_are_data_error(tmp_path, format, text):
    f = tmp_path / "nofeat"
    f.write_text(text)
    with pytest.raises(DataError, match="^no feature columns$"):
        load_dataset(str(f), format)


class TestSparseLoader:
    def test_format_definition(self, tmp_path):
        f = tmp_path / "d.sp"
        f.write_text("-1 1:0.5 3:0.5\n")
        d = load_dataset(str(f), "sparse_text")
        assert np.array_equal(d.features, [[0.5, 0.0, 0.5]])
        assert d.labels[0] == -1.0

    def test_dimensionality_inferred(self, tmp_path):
        f = tmp_path / "d.sp"
        f.write_text("+1 2:0.25\n-1 4:0.5\n")
        d = load_dataset(str(f), "sparse_text")
        assert d.p == 4

    def test_adult_scale_file(self, tmp_path):
        """A file advertised as 45,220 x 104 loads with those dimensions."""
        rng = np.random.default_rng(0)
        lines = []
        for i in range(45_220):
            label = "+1" if i % 3 else "-1"
            idx = sorted(rng.choice(104, size=4, replace=False) + 1)
            if i == 0:
                idx[-1] = 104  # pin the advertised dimensionality
            feats = " ".join(f"{j}:0.25" for j in idx)
            lines.append(f"{label} {feats}")
        f = tmp_path / "adult_like.sp"
        f.write_text("\n".join(lines) + "\n")
        d = load_dataset(str(f), "sparse_text")
        assert (d.n, d.p) == (45_220, 104)

    def test_bad_token_reports_line(self, tmp_path):
        f = tmp_path / "d.sp"
        f.write_text("+1 1:0.5\n-1 2:abc\n")
        with pytest.raises(DataError, match="line 2"):
            load_dataset(str(f), "sparse_text")

    def test_index_beyond_int64_rejected(self, tmp_path):
        f = tmp_path / "d.sp"
        f.write_text("+1 1:0.5\n-1 99999999999999999999:0.5\n")
        with pytest.raises(DataError, match="^line 2: feature index 99999999999999999999 is too large$"):
            load_dataset(str(f), "sparse_text")

    @pytest.mark.parametrize("rows, index", [
        ("1 1000000000000000:0.25\n-1 1:0.5\n", 10**15),
        ("1 1:0.25 1000000000000000:0.5\n-1 2:0.5\n", 10**15),
        ("1 1000000000000000000:0.25\n-1 1:0.5\n", 10**18),
    ])
    def test_index_past_memory_is_data_error(self, tmp_path, rows, index):
        """Two rows as wide as index 10**15 ask numpy for 16 PB, more than
        the address space holds, so the allocation is refused under any
        overcommit policy and touches no page (MemoryError); at 10**18
        numpy refuses the size itself (ValueError). Both are one DataError."""
        f = tmp_path / "d.svm"
        f.write_text(rows)
        with pytest.raises(DataError, match=f"^feature index {index} is too large: "):
            load_dataset(str(f), "sparse_text")

    def test_byte_order_mark_is_skipped(self, tmp_path):
        """The first label was read as the unknown symbol '\\ufeff1'."""
        text = "1 1:0.5 3:0.25\n-1 2:0.5\n"
        plain, marked = tmp_path / "plain.svm", tmp_path / "marked.svm"
        plain.write_text(text, encoding="utf-8")
        marked.write_text("\ufeff" + text, encoding="utf-8")
        d = load_dataset(str(plain), "sparse_text")
        back = load_dataset(str(marked), "sparse_text")
        assert np.array_equal(back.features, d.features) and np.array_equal(back.labels, d.labels)

    def test_zero_based_index_rejected(self, tmp_path):
        f = tmp_path / "d.sp"
        f.write_text("+1 0:0.5\n")
        with pytest.raises(DataError, match="1-based"):
            load_dataset(str(f), "sparse_text")

    def test_form_feed_separates_tokens_not_lines(self, tmp_path):
        """Only \\n ends a line: \\f (like \\u2028) is whitespace between
        tokens, and a bad line is named by its physical line number."""
        f = tmp_path / "d.sp"
        f.write_text("1 1:0.5\f2:0.25\n-1 1:0.3\u2028\n")
        d = load_dataset(str(f), "sparse_text")
        assert d.features.tolist() == [[0.5, 0.25], [0.3, 0.0]]
        f.write_text("1 1:0.5\f2:0.25\n-1 1:0.3\n1 1:x\n")
        with pytest.raises(DataError, match=r"^line 3: bad feature token '1:x'$"):
            load_dataset(str(f), "sparse_text")


class TestGenSynthetic:
    def test_deterministic_and_balanced(self):
        a = gen_synthetic(4, 2, 1.0, 123)
        b = gen_synthetic(4, 2, 1.0, 123)
        assert a == b
        assert int(np.sum(a.labels == 1)) == 2

    def test_max_norm_exactly_one(self):
        d = gen_synthetic(500, 6, 2.0, 5)
        assert np.linalg.norm(d.features, axis=1).max() == pytest.approx(1.0, abs=1e-12)

    def test_zero_separation_is_noise(self):
        """Inseparable classes: the regularized fit stays near log 2."""
        d = gen_synthetic(2000, 5, 0.0, 7)
        spec = make_loss_spec("logistic", 5, "tight")
        cfg = TrainConfig(reg_lambda=0.01)
        m = train(d, spec, cfg, PrivacyBudget(1e9, 0.5), NoiseDraw(np.zeros(5), 0))
        assert abs(utility(m.theta, d, spec) - math.log(2.0)) < 0.1

    def test_wide_separation_is_nearly_separable(self):
        d = gen_synthetic(2000, 5, 5.0, 7)
        spec = make_loss_spec("logistic", 5, "tight")
        cfg = TrainConfig(reg_lambda=0.01)
        m = train(d, spec, cfg, PrivacyBudget(1e9, 0.5), NoiseDraw(np.zeros(5), 0))
        assert utility(m.theta, d, spec) < 0.1

    @staticmethod
    def digest(datasets):
        h = hashlib.sha256()
        for d in datasets:
            h.update(d.features.tobytes())
            h.update(d.labels.tobytes())
        return h.hexdigest()

    def test_benchmark_datasets_keep_their_bits(self):
        """The plan-wide and tables-sgd inputs, whose reference tables
        were made from these bits."""
        assert self.digest([gen_synthetic(20000, 100, 2.0, 1)]) == (
            "11eab90918bfe66163292dd96de9c8f127050fcb6ccc34cf9419bbdb0f2738e8"
        )
        assert self.digest([gen_synthetic(5000, 10, 2.0, k) for k in range(32)]) == (
            "633a54d5267c30ae7e4c8f27bcac15935e2fc82a8a786d70415888fe5991c13a"
        )

    @pytest.mark.parametrize("separation", [1e150, 1e154])
    def test_separation_below_overflow_keeps_the_one_division(self, separation):
        rng = np.random.default_rng(3)
        w = rng.standard_normal(4)
        w /= np.linalg.norm(w)
        y = np.ones(40)
        y[20:] = -1.0
        X = rng.standard_normal((40, 4)) + np.outer(y, separation * w)
        order = rng.permutation(40)
        X = X[order]
        d = gen_synthetic(40, 4, separation, 3)
        assert np.array_equal(d.features, X / np.linalg.norm(X, axis=1).max())
        assert np.array_equal(d.labels, y[order])

    @pytest.mark.parametrize("separation", [2e154, 1e200, 1e300, 1.7e308])
    def test_separation_whose_squares_overflow_is_scaled(self, separation):
        """The rows are nearly +-w; they are scaled down first and keep a
        largest norm of 1, with no overflow warning (an error under the
        warning filter)."""
        d = gen_synthetic(6, 3, separation, 2)
        norms = np.linalg.norm(d.features, axis=1)
        assert norms.max() == pytest.approx(1.0, abs=1e-12)
        assert (norms > 0.99).all()
        # each row points along its label's cluster
        assert (d.features @ d.features[0] * d.labels * d.labels[0] > 0).all()

    def test_rejects_bad_shape(self):
        with pytest.raises(ValueError):
            gen_synthetic(1, 2, 1.0, 0)
        with pytest.raises(ValueError):
            gen_synthetic(4, 0, 1.0, 0)
        with pytest.raises(ValueError, match="separation must be nonnegative"):
            gen_synthetic(100, 3, -1.0, 0)


class TestCsvRoundTrip:
    def test_write_then_load_is_identity(self, tmp_path):
        d = gen_synthetic(50, 3, 1.5, 9)
        path = tmp_path / "out.csv"
        write_csv_dataset(d, str(path))
        back = load_dataset(str(path), "csv")
        assert back == d

    @staticmethod
    def csv_writer_bytes(d):
        """One csv.writer row of numpy-scalar reprs per example, CRLF line
        ends included."""
        ref = io.StringIO(newline="")
        writer = csv.writer(ref)
        writer.writerow([f"f{j + 1}" for j in range(d.p)] + ["label"])
        for i in range(d.n):
            writer.writerow([repr(float(v)) for v in d.features[i]] + [str(int(d.labels[i]))])
        return ref.getvalue().encode("utf-8")

    def test_bytes_match_per_row_csv_writer(self, tmp_path):
        g = gen_synthetic(20, 3, 1.5, 4)
        X = g.features.copy()
        X[0] = [-0.0, 1e-300, 1.0 / 3.0]
        d = Dataset(X, g.labels)
        path = tmp_path / "out.csv"
        write_csv_dataset(d, str(path))
        assert path.read_bytes() == self.csv_writer_bytes(d)

    @pytest.mark.parametrize(
        "features, labels",
        [
            ([[-0.0], [5e-324], [1e308], [-1e308], [-5e-324]], [1, -1, 1, -1, -1]),
            ([[-0.0, 5e-324, 1e308], [1e-300, -0.0, -1e308]], [-1, 1]),
        ],
        ids=["p=1", "p=3"],
    )
    def test_bytes_equal_csv_writer_on_edge_values(self, tmp_path, features, labels):
        """Signed zero, the smallest subnormal, values near the float
        maximum and both labels are written as csv.writer writes them."""
        d = Dataset(features, labels)
        path = tmp_path / "edge.csv"
        write_csv_dataset(d, str(path))
        assert path.read_bytes() == self.csv_writer_bytes(d)


def write_svmlight(d, path):
    """Sparse text for d with a comment line, blank lines, trailing
    comments, labels written as 1/+1 and 0/-1, and on some lines a decoy
    value for index 1 that the real one, written later, replaces."""
    lines = ["# round-trip file"]
    for i, (x, y) in enumerate(zip(d.features.tolist(), d.labels.tolist())):
        label = ("+1" if i % 2 else "1") if y > 0 else ("0" if i % 3 else "-1")
        feats = [f"{j + 1}:{v!r}" for j, v in enumerate(x)]
        if i % 5 == 0:
            feats.insert(0, "1:999.0")
        lines.append(" ".join([label] + feats) + (" # note" if i % 7 == 0 else ""))
        if i % 500 == 0 or i in (BLOCK_ROWS - 2, BLOCK_ROWS - 1):
            lines.append("")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


class TestBlockBoundaries:
    """Files longer than one block: 2 * BLOCK_ROWS + 3 rows."""

    N = 2 * BLOCK_ROWS + 3

    def test_csv_round_trip_is_bit_identical(self, tmp_path):
        d = gen_synthetic(self.N, 4, 1.5, 3)
        path = tmp_path / "d.csv"
        write_csv_dataset(d, str(path))
        lines = path.read_text().splitlines()
        for i in range(1, len(lines), 3):  # labels as 0 / +1
            lines[i] = lines[i][:-3] + ",0" if lines[i].endswith(",-1") else lines[i][:-2] + ",+1"
        for i in sorted((2, BLOCK_ROWS - 1, BLOCK_ROWS, BLOCK_ROWS + 1, 2 * BLOCK_ROWS), reverse=True):
            lines.insert(i, "")
        path.write_text("\n".join(lines) + "\n")
        back = load_dataset(str(path), "csv")
        assert back.features.tobytes() == d.features.tobytes()
        assert back.labels.tobytes() == d.labels.tobytes()

    def test_csv_write_matches_one_shot_conversion(self, tmp_path):
        """Rows written block by block give the bytes of one conversion of
        the whole matrix."""
        d = gen_synthetic(self.N, 4, 1.5, 5)
        path = tmp_path / "d.csv"
        write_csv_dataset(d, str(path))
        header = ",".join([f"f{j + 1}" for j in range(d.p)] + ["label"]) + "\r\n"
        rows = "".join(
            f"{','.join(map(repr, row))},{int(label)}\r\n"
            for row, label in zip(d.features.tolist(), d.labels.tolist())
        )
        assert path.read_bytes() == (header + rows).encode("utf-8")

    def test_csv_write_memory_is_one_block(self, tmp_path):
        d = gen_synthetic(16 * BLOCK_ROWS, 4, 1.5, 1)
        path = tmp_path / "big.csv"
        tracemalloc.start()
        try:
            write_csv_dataset(d, str(path))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # converting all rows at once peaks at about 7 times the array's
        # bytes; one block of 16 peaks at about half of them
        assert peak < d.features.nbytes

    @pytest.mark.parametrize("source", ["gen_synthetic", "csv"])
    def test_dataset_is_built_without_a_copy(self, tmp_path, source):
        """gen_synthetic and load_dataset hand their fresh arrays to the
        Dataset read-only, so it takes them uncopied: the peak is about
        2.2 times the features' bytes, and 3.2 times with a copy."""
        path = tmp_path / "wide.csv"
        if source == "csv":
            write_csv_dataset(gen_synthetic(20000, 50, 2.0, 1), str(path))
        tracemalloc.start()
        try:
            if source == "csv":
                d = load_dataset(str(path), "csv")
            else:
                d = gen_synthetic(20000, 50, 2.0, 1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert (d.n, d.p) == (20000, 50)
        assert peak < 2.5 * d.features.nbytes

    def test_svmlight_round_trip_is_bit_identical(self, tmp_path):
        d = gen_synthetic(self.N, 4, 1.5, 4)
        path = tmp_path / "d.svm"
        write_svmlight(d, str(path))
        back = load_dataset(str(path), "sparse_text")
        assert back.features.shape == (self.N, d.p)
        assert back.features.tobytes() == d.features.tobytes()
        assert back.labels.tobytes() == d.labels.tobytes()

    # format, a bad line, and its DataError message, pinned verbatim
    MALFORMED = [
        ("sparse_text", "+1 1:0.5 2:1:3", "line {line}: bad feature token '2:1:3'"),
        ("sparse_text", "+1 5 1:2:3", "line {line}: bad feature token '5'"),
        ("sparse_text", "+1 0:0.5", "line {line}: feature index 0 is not 1-based"),
        ("sparse_text", "+1 1:abc", "line {line}: bad feature token '1:abc'"),
        ("sparse_text", "x 1:0.5", "unknown label symbol 'x' at line {line}"),
        ("csv", "0.5,0.5,1", "line {line}: expected 2 fields, got 3"),
        ("csv", "abc,1", "line {line}: could not convert string to float: 'abc'"),
        ("csv", '"1,5",1', "line {line}: could not convert string to float: '1,5'"),
        ("csv", "0.5,x", "unknown label symbol 'x' at line {line}"),
    ]

    @pytest.mark.parametrize("fmt,bad,message", MALFORMED)
    @pytest.mark.parametrize("row", [3, BLOCK_ROWS + 5])
    def test_malformed_line_is_named(self, tmp_path, fmt, bad, message, row):
        if fmt == "csv":
            head, good = ["f1,label"], "0.25,1"
        else:
            head, good = [], "-1 1:0.25 2:0.5"
        rows = [good] * (BLOCK_ROWS + 10)
        rows[row] = bad
        path = tmp_path / "bad.txt"
        path.write_text("\n".join(head + rows) + "\n")
        with pytest.raises(DataError) as info:
            load_dataset(str(path), fmt)
        assert str(info.value) == message.format(line=len(head) + row + 1)


def write_dense_svmlight(d, path):
    """Sparse text with every feature written, one space apart: the
    form of an svmlight file written from a dense matrix."""
    with open(path, "w", encoding="utf-8") as fh:
        for x, y in zip(d.features.tolist(), d.labels.tolist()):
            fh.write(" ".join([str(int(y))] + [f"{j + 1}:{v!r}" for j, v in enumerate(x)]) + "\n")


@pytest.fixture
def per_field_calls(monkeypatch):
    """List with one entry per call of the per-field parsers, the route a
    block takes when numpy's C reader declines it."""
    calls = []
    for name in ("_floats", "_pairs"):
        def counting(*args, _original=getattr(data, name), _name=name):
            calls.append(_name)
            return _original(*args)
        monkeypatch.setattr(data, name, counting)
    return calls


def test_regular_files_make_no_per_field_call(tmp_path, per_field_calls):
    """Every block of a 3-block csv file and of a dense svmlight file goes
    to numpy's C reader: a numpy upgrade or an over-strict check that
    sends them to the per-field route fails here, not only as a slower
    load."""
    d = gen_synthetic(2 * BLOCK_ROWS + 3, 4, 1.5, 8)
    write_csv_dataset(d, str(tmp_path / "d.csv"))
    write_dense_svmlight(d, str(tmp_path / "d.svm"))
    for name, fmt in (("d.csv", "csv"), ("d.svm", "sparse_text")):
        back = load_dataset(str(tmp_path / name), fmt)
        assert back.features.tobytes() == d.features.tobytes()
        assert back.labels.tobytes() == d.labels.tobytes()
    assert per_field_calls == []


def test_regular_sparse_text_without_final_newline(tmp_path, per_field_calls):
    """A regular sparse_text file whose last line has no newline loads,
    through numpy's C reader, bit for bit as the same file with one."""
    text = "1 1:0.5 3:0.25\n-1 2:0.3 3:0.125\n1 1:0.2 2:0.4"
    (tmp_path / "a.sp").write_text(text)
    (tmp_path / "b.sp").write_text(text + "\n")
    a, b = (load_dataset(str(tmp_path / name), "sparse_text") for name in ("a.sp", "b.sp"))
    assert a.features.tobytes() == b.features.tobytes()
    assert a.labels.tobytes() == b.labels.tobytes()
    assert a.features.shape == (3, 3)
    assert per_field_calls == []


def _decline(*args):
    raise ValueError("declined")


def _outcome(path, fmt, block_rows, c_reader):
    """What load_dataset gives for a file: the bits of its arrays or its
    DataError message, with the warnings raised on the way."""
    with pytest.MonkeyPatch.context() as mp, warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        mp.setattr(data, "BLOCK_ROWS", block_rows)
        if not c_reader:
            mp.setattr(data, "_loadtxt_csv", _decline)
            mp.setattr(data, "_loadtxt_sparse", _decline)
        try:
            d = load_dataset(path, fmt)
            result = (d.features.shape, d.features.tobytes(), d.labels.tobytes())
        except DataError as exc:
            result = str(exc)
    return result, [(w.category, str(w.message)) for w in caught]


# numbers float() reads; loadtxt declines "1_0" and the non-ASCII digits
NUMBERS = st.one_of(
    st.floats().map(repr),
    st.sampled_from([
        "inf", "-Infinity", "nan", "+.5", "5.", "1e400", "-0", "+1", "01", "1.0",
        "1_0", "\u0663", "\uff11",
    ]),
)
BAD_NUMBERS = st.sampled_from(["", "x", "0x1", "1e", "\u0663x"])
LABELS = st.sampled_from(["1", "-1", "0", "+1", "01", "1.0", "-1e0", "1_0", "\u0661"])
BAD_LABELS = st.sampled_from(["2", "x", "", "0.5"])
# indices int() reads, and some it rejects
INDICES = st.one_of(st.integers(1, 4).map(str), st.sampled_from(["+1", "01", "1_0", "\u0661"]))
BAD_INDICES = st.sampled_from(["0", "-1", "1.0", "1e0", "99999999999999999999", "x", ""])
SPACES = st.sampled_from(
    [" ", "\t", "  ", "\x0b", "\x0c", "\x1c", "\x1f", "\x85", "\xa0", "\u2028", "\u2003"]
)
LINE_ENDS = st.sampled_from(["\n", "\r\n", "\r"])


def _mostly(draw, good, bad, hostile):
    """A draw from `good`, or at times from `bad` in a hostile file."""
    return draw(bad if hostile and draw(st.integers(0, 7)) == 0 else good)


@st.composite
def csv_texts(draw):
    """A csv file: regular rows of numbers in the forms float() reads,
    padded with one kind of whitespace, and in hostile files bad fields,
    blank, whitespace-only and ragged lines and quoted fields, some
    holding a newline."""
    p = draw(st.integers(0, 3))
    hostile = draw(st.booleans())
    pad = draw(SPACES) if draw(st.booleans()) else ""
    numbers = NUMBERS if hostile else st.floats(allow_nan=False).map(repr)
    labels = LABELS if hostile else st.sampled_from(["1", "-1", "0"])

    def field(good, bad):
        value = _mostly(draw, good, bad, hostile)
        return draw(st.sampled_from(["", pad])) + value + draw(st.sampled_from(["", pad]))

    lines = [",".join([f"f{j + 1}" for j in range(p)] + ["label"]) + "\n"]
    for _ in range(draw(st.integers(0, 8))):
        fields = [field(numbers, BAD_NUMBERS) for _ in range(p)] + [field(labels, BAD_LABELS)]
        kind = draw(st.integers(0, 9) if hostile else st.sampled_from([0, 0, 0, 2]))
        if kind == 1:
            fields.append(field(numbers, BAD_NUMBERS))
        elif kind == 2:
            fields = [""]
        elif kind == 3:
            fields = [draw(SPACES)]
        elif kind == 4:
            i = draw(st.integers(0, p))
            fields[i] = '"' + fields[i] + draw(st.sampled_from(["", "\n"])) + '"'
        lines.append(",".join(fields) + draw(LINE_ENDS))
    return "".join(lines)


@st.composite
def sparse_texts(draw):
    """A sparse_text file: lines of k pairs, one space apart, of numbers
    and indices in the forms float() and int() read, and in hostile files
    bad fields, ragged lines, other whitespace, bad tokens, repeated and
    unsorted indices, comments and blank lines."""
    hostile = draw(st.booleans())
    numbers = NUMBERS if hostile else st.floats(allow_nan=False).map(repr)
    labels = LABELS if hostile else st.sampled_from(["1", "-1", "0", "+1"])
    indices = INDICES if hostile else st.integers(1, 4).map(str)
    k = draw(st.integers(0, 3))
    lines = []
    for _ in range(draw(st.integers(0, 8))):
        ragged = hostile and draw(st.integers(0, 3)) == 0
        tokens = [_mostly(draw, labels, BAD_LABELS, hostile)] + [
            f"{_mostly(draw, indices, BAD_INDICES, hostile)}:"
            f"{_mostly(draw, numbers, BAD_NUMBERS, hostile)}"
            for _ in range(draw(st.integers(0, 4)) if ragged else k)
        ]
        if ragged:
            tokens.append(draw(st.sampled_from(["", "5", "1:2:3", ":5", "5:", "# c 1:2", "#"])))
            line = draw(st.sampled_from(["", " "])) + draw(SPACES).join(tokens)
        else:
            line = " ".join(tokens)
        if hostile and draw(st.integers(0, 5)) == 0:
            line = draw(st.sampled_from(["", " ", "# 1 1:2", "\x0c"]))
        lines.append(line + draw(LINE_ENDS if hostile else st.just("\n")))
    return "".join(lines)


# files where a looser check on the C reader's side would change the
# result: float() rejects an ASCII number next to \x1c, loadtxt warns on
# a block of blank lines, and the pieces of "1:0.5\u20282" and ":4" add
# up to two pairs, where str.split finds the bad token "2"
KNOWN_TEXTS = {
    "csv": [
        "label\n1\x1c\n", "f1,label\n1\x1f,1\n", "f1,label\n\u20032\u2028,1\n",
        "f1,label\n0.5,1\n\n0.25,0\n",
    ],
    "sparse_text": ["1 1:0.5\u20282 :4\n", "1 1:0.5 2:0.25\n-1 1:0.3\u2028\n"],
}


@pytest.mark.parametrize("fmt, texts", [("csv", csv_texts()), ("sparse_text", sparse_texts())])
def test_both_routes_load_the_same(tmp_path, fmt, texts):
    """A file loads to the same arrays, bit for bit, or the same DataError
    whether or not numpy's C reader takes its blocks, wherever the blocks
    split it."""
    path = tmp_path / "f.txt"

    def compare(text):
        path.write_text(text, encoding="utf-8", newline="")
        for block_rows in (1, 2, 3, BLOCK_ROWS):
            assert _outcome(str(path), fmt, block_rows, True) == _outcome(
                str(path), fmt, block_rows, False
            )

    for text in KNOWN_TEXTS[fmt]:
        compare(text)
    settings(max_examples=100, deadline=None, derandomize=True, database=None)(
        given(texts)(compare)
    )()
