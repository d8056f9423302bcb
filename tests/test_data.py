import csv
import io
import math

import numpy as np
import pytest

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


class TestSparseLoader:
    def test_format_definition(self, tmp_path):
        f = tmp_path / "d.sp"
        f.write_text("-1 1:0.5 3:0.5\n")
        d = load_dataset(str(f), "sparse_text", p=3)
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

    def test_zero_based_index_rejected(self, tmp_path):
        f = tmp_path / "d.sp"
        f.write_text("+1 0:0.5\n")
        with pytest.raises(DataError, match="1-based"):
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

    def test_rejects_bad_shape(self):
        with pytest.raises(ValueError):
            gen_synthetic(1, 2, 1.0, 0)
        with pytest.raises(ValueError):
            gen_synthetic(4, 0, 1.0, 0)


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

    def test_svmlight_round_trip_is_bit_identical(self, tmp_path):
        d = gen_synthetic(self.N, 4, 1.5, 4)
        path = tmp_path / "d.svm"
        write_svmlight(d, str(path))
        back = load_dataset(str(path), "sparse_text", p=d.p + 2)
        assert back.features.shape == (self.N, d.p + 2)
        assert back.features[:, :d.p].tobytes() == d.features.tobytes()
        assert not back.features[:, d.p:].any()
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
