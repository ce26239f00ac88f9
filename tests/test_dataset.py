import csv
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from psc import dataset
from psc.dataset import (
    DatasetError,
    LabeledMatrix,
    class_stats,
    load_csv,
    make_rng,
    simulate_fig1,
    simulate_hdlss,
    standard_normal,
    stratified_kfold,
    write_csv,
)
from tests.oracles import (
    class_stats_reference,
    load_csv_reference,
    standard_normal_reference,
    write_csv_reference,
)


def write_rows(path, header, rows):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(str(v) for v in row) + "\n")


class TestLabeledMatrix:
    def test_rejects_nan(self):
        with pytest.raises(DatasetError, match="non-finite"):
            LabeledMatrix([[0.0], [np.nan]], [1, -1])

    def test_rejects_single_class(self):
        with pytest.raises(DatasetError, match="per class"):
            LabeledMatrix([[0.0], [1.0]], [1, 1])

    def test_rejects_length_mismatch(self):
        with pytest.raises(DatasetError, match="label count"):
            LabeledMatrix([[0.0], [1.0]], [1, -1, 1])

    @pytest.mark.parametrize("samples, labels, names, message", [
        ([0.0, 1.0], [1, -1], None, "samples must be a 2-D matrix"),
        ([[0.0]], [1], None, "need at least 2 samples"),
        ([[0.0], [1.0], [2.0]], [1, 0, -1], None, r"labels must be \+1 or -1"),
        # the int cast made these [1, -1]
        ([[0.0], [1.0]], [1.7, -1.2], None, r"labels must be \+1 or -1"),
        ([[0.0, 1.0], [1.0, 0.0]], [1, -1], ("f0",), "feature_names length does not match column count"),
        (np.empty((2, 0)), [1, -1], (), "need at least one feature column"),
    ], ids=["1-D", "one-row", "label-0", "label-1.7", "feature-names", "no-feature-columns"])
    def test_rejects_a_malformed_input(self, samples, labels, names, message):
        with pytest.raises(DatasetError, match=message):
            LabeledMatrix(samples, labels, names)

    def test_immutable(self):
        data = LabeledMatrix([[0.0], [1.0]], [1, -1])
        with pytest.raises(ValueError):
            data.samples[0, 0] = 5.0


class TestLoadCsv:
    def test_alon_shape(self, tmp_path):
        # 62 x 2000 with a 22/40 normal/tumor split, the Table-1 Alon layout
        rng = make_rng(42)
        path = tmp_path / "alon_like.csv"
        header = [f"g{i}" for i in range(2000)] + ["tissue"]
        rows = []
        for i in range(62):
            label = "normal" if i < 22 else "tumor"
            rows.append([format(v, ".17g") for v in rng.random(2000)] + [label])
        write_rows(path, header, rows)
        data = load_csv(path, "tissue", {"normal"})
        stats = class_stats(data)
        assert (data.n, data.d) == (62, 2000)
        assert (stats.n1, stats.n2) == (22, 40)

    def test_binarization(self, tmp_path):
        path = tmp_path / "t.csv"
        write_rows(path, ["x", "y"], [[1, "a"], [2, "a"], [3, "b"]])
        data = load_csv(path, "y", {"a"})
        assert data.labels.tolist() == [1, 1, -1]
        assert data.samples[:, 0].tolist() == [1.0, 2.0, 3.0]

    @pytest.mark.parametrize("header", [["label", "f0", "f1"], ["f0", "f1", "label"]])
    def test_a_leading_byte_order_mark_is_not_part_of_the_header(self, tmp_path, header):
        path = tmp_path / "t.csv"
        rows = [[{"label": lab, "f0": 1.5 * i, "f1": -i}[h] for h in header]
                for i, lab in enumerate(["1", "1", "-1"])]
        write_rows(path, header, rows)
        path.write_bytes(b"\xef\xbb\xbf" + path.read_bytes())
        data = load_csv(path, "label", {"1"})
        assert data.feature_names == ("f0", "f1")
        assert data.labels.tolist() == [1, 1, -1]
        assert data.samples.tolist() == [[0.0, 0.0], [1.5, -1.0], [3.0, -2.0]]

    def test_nan_cell_reports_location(self, tmp_path):
        path = tmp_path / "t.csv"
        write_rows(path, ["x", "y"], [[1, "a"], ["NaN", "b"]])
        with pytest.raises(DatasetError, match=r"row 3, column 'x'"):
            load_csv(path, "y", {"a"})

    def test_unparseable_cell_reports_location(self, tmp_path):
        path = tmp_path / "t.csv"
        write_rows(path, ["x", "y"], [[1, "a"], ["oops", "b"]])
        with pytest.raises(DatasetError, match="row 3"):
            load_csv(path, "y", {"a"})

    def test_missing_file(self, tmp_path):
        with pytest.raises(DatasetError, match="no such file"):
            load_csv(tmp_path / "absent.csv", "y", {"a"})

    def test_missing_column(self, tmp_path):
        path = tmp_path / "t.csv"
        write_rows(path, ["x", "y"], [[1, "a"], [2, "b"]])
        with pytest.raises(DatasetError, match="label column"):
            load_csv(path, "z", {"a"})

    def test_a_label_column_named_twice_is_rejected(self, tmp_path):
        path = tmp_path / "t.csv"
        write_rows(path, ["f0", "f1", "f2", "f1"], [[1, 2, 3, "1"], [4, 5, 6, "-1"]])
        with pytest.raises(DatasetError, match="label column 'f1' appears more than once"):
            load_csv(path, "f1", {"1"})

    def test_write_rejects_a_label_column_that_names_a_feature(self, tmp_path):
        path = tmp_path / "t.csv"
        with pytest.raises(DatasetError, match="label column 'f1' is also a feature name"):
            write_csv(simulate_hdlss(3, 2, 2, seed=0), path, label_column="f1")
        assert not path.exists()

    @pytest.mark.parametrize("text, message", [
        ("", "empty file"),
        ("x,y\n1,a\n2\n", "row 3 has 1 cells, expected 2"),
        ("x,y\n", "no data rows"),
        ("y\na\nb\n", "need at least one feature column"),
    ], ids=["empty", "short-row", "header-only", "label-column-only"])
    def test_rejects_a_malformed_file(self, tmp_path, text, message):
        path = tmp_path / "t.csv"
        path.write_text(text, encoding="utf-8")
        with pytest.raises(DatasetError, match=f"t.csv: {message}"):
            load_csv(path, "y", {"a"})

    def test_all_one_class_rejected(self, tmp_path):
        path = tmp_path / "t.csv"
        write_rows(path, ["x", "y"], [[1, "a"], [2, "a"]])
        with pytest.raises(DatasetError, match="single class"):
            load_csv(path, "y", {"a"})

    def test_round_trip_bit_exact(self, tmp_path):
        data = simulate_hdlss(7, 4, 3, seed=9)
        p1 = tmp_path / "a.csv"
        write_csv(data, p1)
        again = load_csv(p1, "label", {"1"})
        assert np.array_equal(again.samples, data.samples)
        assert np.array_equal(again.labels, data.labels)

    def test_cells_parse_to_float_bits_on_the_cv_psc_csv(self, tmp_path):
        data = simulate_hdlss(2000, 22, 40, seed=3)
        path = tmp_path / "cv.csv"
        write_csv(data, path)
        with open(path, newline="", encoding="utf-8") as fh:
            rows = list(csv.reader(fh))[1:]
        expected = np.array([[float(cell) for cell in row[:-1]] for row in rows])
        loaded = load_csv(path, "label", {"1"})
        assert loaded.samples.tobytes() == expected.tobytes()
        assert loaded.samples.tobytes() == data.samples.tobytes()

    # whitespace, underscores, a bare fraction, signed zero, underflow to a
    # subnormal and to zero, and non-ASCII digits all parse as float() does
    EDGE_CELLS = [" 1.5 ", "1_000", "+.5", "\t-2e-3 ", "-0", "4.9e-324", "1e-400", "\uff11\uff12",
                  "1e5_0", "0.1", "1.7976931348623157e308"]

    def test_edge_cells_parse_to_float_bits(self, tmp_path):
        path = tmp_path / "t.csv"
        header = [f"x{i}" for i in range(len(self.EDGE_CELLS))] + ["y"]
        write_rows(path, header, [self.EDGE_CELLS + ["a"], self.EDGE_CELLS[::-1] + ["b"]])
        loaded = load_csv(path, "y", {"a"})
        expected = np.array([[float(c) for c in self.EDGE_CELLS],
                             [float(c) for c in self.EDGE_CELLS[::-1]]])
        assert loaded.samples.tobytes() == expected.tobytes()

    @pytest.mark.parametrize("cell", ["1e400", "nan", "-inf", "Infinity"])
    def test_a_non_finite_cell_reports_its_location(self, tmp_path, cell):
        path = tmp_path / "t.csv"
        write_rows(path, ["x", "z", "y"], [[1, 2, "a"], [3, cell, "b"]])
        with pytest.raises(DatasetError, match=rf"row 3, column 'z': non-finite value '{cell}'"):
            load_csv(path, "y", {"a"})

    @pytest.mark.parametrize("cells, message", [
        (["inf", "oops"], "column 'x': non-finite value 'inf'"),
        (["oops", "inf"], "column 'x': cannot parse 'oops'"),
        (["1", "oops"], "column 'z': cannot parse 'oops'"),
    ])
    def test_the_first_bad_cell_in_column_order_is_reported(self, tmp_path, cells, message):
        path = tmp_path / "t.csv"
        write_rows(path, ["x", "y", "z"], [[1, "a", 2], [cells[0], "b", cells[1]]])
        with pytest.raises(DatasetError, match=f"row 3, {message}"):
            load_csv(path, "y", {"a"})

    def test_a_non_finite_row_is_reported_before_a_later_unparseable_one(self, tmp_path):
        path = tmp_path / "t.csv"
        write_rows(path, ["x", "y"], [[1, "a"], ["nan", "b"], ["oops", "b"]])
        with pytest.raises(DatasetError, match="row 3, column 'x': non-finite value 'nan'"):
            load_csv(path, "y", {"a"})


def layout_cases():
    """Three rows, the label column first, in the middle and last, with CRLF
    and LF line ends, with and without a BOM."""
    cases = {}
    for where in (0, 1, 2):
        lines = []
        for cells in [["f0", "f1"], ["1.5", "-0"], ["2e-3", "0.1"], ["7", "1e-400"]]:
            cells.insert(where, "y" if not lines else "ab"[len(lines) % 2])
            lines.append(",".join(cells))
        for end, end_name in (("\r\n", "crlf"), ("\n", "lf")):
            for bom, bom_name in (("", ""), ("\ufeff", "-bom")):
                cases[f"label-at-{where}-{end_name}{bom_name}"] = bom + end.join(lines) + end
    return cases


# cells that parse, three times as often as the rest: non-finite numbers,
# cells float() rejects and quoting that csv.reader resolves
CELLS = 3 * ["1", "-0", " 2.5 ", "1e-400", '"1"', "1_0", "\uff11", "0.1"] + [
    "1e400", "nan", "-inf", "", "#", "a", " a", '"a"', '"a,b"', 'a"b', '"a""b"', '"a\nb"', '"a"b']


@st.composite
def csv_texts(draw):
    """A header of y and one or two features, then up to five rows, most of
    the header's width, ending in any line end or none."""
    header = draw(st.sampled_from(["x,y", "y,x", "x,y,z", "x,z,y", "y,x,z"]))
    width = header.count(",") + 1
    text = header + "\n"
    for _ in range(draw(st.integers(0, 5))):
        n = draw(st.sampled_from([width] * 6 + [width - 1, width + 1]))
        text += ",".join(draw(st.lists(st.sampled_from(CELLS), min_size=n, max_size=n)))
        text += draw(st.sampled_from(["\n"] * 3 + ["\r\n", "\r", "\n\n", ""]))
    return text


class TestCsvMatchesReference:
    """write_csv and load_csv against the cell-by-cell code they replaced:
    the same bytes written, and the same samples, labels and feature names
    read, bit for bit, or the same DatasetError."""

    EDGE = TestLoadCsv.EDGE_CELLS
    FILES = {
        "edge-cells": ",".join(f"x{i}" for i in range(len(EDGE))) + ",y\n"
                      + ",".join(EDGE) + ",a\n" + ",".join(EDGE[::-1]) + ",b\n",
        "quoted-cells": 'x,"y",z\r\n"1.5",a,"2"\r\n3,"b",4\r\n',
        "quoted-labels": 'x,y\n1,"a,b"\n2,"c""d"\n3,a\n4,"a"\n',
        "label-spaces": "x,y\n1, a\n2,a \n3,a\n",
        "quoted-newline-label": 'x,y\n1,"a\nb"\n2,"a\r\n\r\nb"\n3,a\n',
        "blank-line-middle": "x,y\n1,a\n\n2,b\n",
        "blank-line-end": "x,y\n1,a\n2,b\n\n",
        "blank-line-end-crlf": "x,y\r\n1,a\r\n2,b\r\n\r\n",
        "blank-line-first": "x,y\n\n1,a\n2,b\n",
        "blank-lines-only": "x,y\n\n\n",
        "whitespace-line": "x,y\n1,a\n \n2,b\n",
        "hash-cell": "x,y\n#1,a\n2,b\n",
        "hash-label": "x,y\n1,#\n2,b\n",
        "trailing-comma": "x,y\n1,a,\n2,b,\n",
        # every row one cell short of, or one past, the header, yet all parse
        "every-row-short": "x,y,z\n1,a\n2,b\n",
        "every-row-long": "y,x\na,1,2\nb,3,4\n",
        "cr-line-ends": "x,y\r1,a\r2,b\r",
        "no-final-line-end": "x,y\n1,a\n2,b",
        "empty-label": "x,y\n1,\n2,b\n",
        "empty-cell": "x,z,y\n1,,a\n2,3,b\n",
        "underscore": "x,y\n1_0,a\n2,b\n",
        "one-row": "x,y\n1,a\n",
        "single-class": "x,y\n1,a\n2,a\n",
        "nan-before-oops": "x,y\n1,a\nnan,b\noops,b\n",
        "oops-before-nan": "x,y\n1,a\noops,b\nnan,b\n",
        "inf-before-oops": "x,z,y\n1,2,a\ninf,oops,b\n",
        "oops-before-inf": "x,z,y\n1,2,a\noops,inf,b\n",
        "1e400-before-oops": "x,y\n1,a\n1e400,b\n3,b\noops,a\n",
        "oops-before-1e400": "x,y\n1,a\n3,b\noops,a\n1e400,b\n",
        # test_rejects_a_malformed_file's inputs
        "empty": "",
        "short-row": "x,y\n1,a\n2\n",
        "header-only": "x,y\n",
        "header-only-crlf": "x,y\r\n",
        "label-column-only": "y\na\nb\n",
    } | layout_cases()
    POSITIVE = {"a", "a,b", 'c"d', "#", "a\nb", "", "1", "-0"}

    @staticmethod
    def outcome(load, path):
        try:
            data = load(path, "y", TestCsvMatchesReference.POSITIVE)
        except DatasetError as exc:
            return str(exc)
        return (data.samples.shape, data.samples.tobytes(), data.labels.tobytes(),
                data.feature_names)

    @pytest.mark.parametrize("name", FILES)
    def test_load_matches_the_reference(self, tmp_path, name):
        path = tmp_path / "t.csv"
        path.write_bytes(self.FILES[name].encode("utf-8"))
        assert self.outcome(load_csv, path) == self.outcome(load_csv_reference, path)

    @settings(max_examples=300, deadline=None)
    @given(text=st.one_of(csv_texts(), st.text(alphabet='01.e-a,"\n\r #', max_size=30).map(
        lambda body: "x,y\n" + body)))
    def test_random_files_load_as_the_reference_does(self, tmp_path_factory, text):
        path = tmp_path_factory.mktemp("csv") / "t.csv"
        path.write_bytes(text.encode("utf-8"))
        assert self.outcome(load_csv, path) == self.outcome(load_csv_reference, path)

    TABLES = {
        "hdlss": simulate_hdlss(7, 4, 3, seed=9),
        "extremes": LabeledMatrix(
            [[-0.0, 1e-310, 5e300, 4.9e-324], [1.7976931348623157e308, 0.1, 1 / 3, 1e17],
             [-1e-5, 123456789.0, -2.5, 1e16]], [1, -1, 1]),
        "quoted-names": LabeledMatrix([[1.0, 2.0, 3.0, 4.0], [5.0, 6.0, 7.0, 8.0]], [-1, 1],
                                      ("a,b", 'q"uote', " space", "new\nline")),
    }

    @pytest.mark.parametrize("name", TABLES)
    @pytest.mark.parametrize("label_column", ["label", "class,name"])
    def test_write_matches_the_reference(self, tmp_path, name, label_column):
        data = self.TABLES[name]
        write_csv(data, tmp_path / "new.csv", label_column)
        write_csv_reference(data, tmp_path / "ref.csv", label_column)
        assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()
        again = load_csv(tmp_path / "new.csv", label_column, {"1"})
        assert again.samples.tobytes() == data.samples.tobytes()
        assert again.labels.tobytes() == data.labels.tobytes()

    def test_the_cv_psc_file_matches_the_reference(self, tmp_path):
        data = simulate_hdlss(2000, 22, 40, seed=1)
        write_csv(data, tmp_path / "new.csv")
        write_csv_reference(data, tmp_path / "ref.csv")
        assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()
        got = load_csv(tmp_path / "new.csv", "label", {"1"})
        ref = load_csv_reference(tmp_path / "new.csv", "label", {"1"})
        assert got.samples.tobytes() == ref.samples.tobytes() == data.samples.tobytes()
        assert got.labels.tobytes() == ref.labels.tobytes()


class TestClassStats:
    def test_hand_example(self):
        data = LabeledMatrix([[0.0], [2.0], [5.0], [7.0]], [1, 1, -1, -1])
        s = class_stats(data)
        assert s.u1[0] == 1.0 and s.u2[0] == 6.0
        assert (s.n1, s.n2) == (2, 2)

    def test_imbalance_factor(self):
        data = LabeledMatrix(np.zeros((110, 1)) + np.arange(110)[:, None],
                             [1] * 100 + [-1] * 10)
        s = class_stats(data)
        assert (s.n1, s.n2) == (100, 10)

    def test_constant_class_mean(self):
        data = LabeledMatrix([[3.5], [3.5], [0.0], [1.0]], [1, 1, -1, -1])
        assert class_stats(data).u1[0] == 3.5

    # the hand examples above, an n = 2 set, and rows scaled by 1e-5 to 1e7
    MEAN_CASES = [
        LabeledMatrix([[0.0], [2.0], [5.0], [7.0]], [1, 1, -1, -1]),
        LabeledMatrix(np.zeros((110, 1)) + np.arange(110)[:, None], [1] * 100 + [-1] * 10),
        LabeledMatrix([[3.5], [3.5], [0.0], [1.0]], [1, 1, -1, -1]),
        LabeledMatrix([[0.1, -0.0, 3.0], [0.2, -0.0, -1e-300]], [-1, 1]),
        LabeledMatrix(standard_normal_reference(make_rng(4), (23, 57))
                      * np.logspace(-5, 7, 23)[:, None],
                      [1, -1, -1, 1, -1] * 4 + [-1, 1, -1]),
    ]

    @pytest.mark.parametrize("data", MEAN_CASES)
    def test_matches_the_copying_reference_bit_for_bit(self, data):
        got, ref = class_stats(data), class_stats_reference(data)
        assert (got.n1, got.n2) == (ref.n1, ref.n2)
        assert got.u1.tobytes() == ref.u1.tobytes()
        assert got.u2.tobytes() == ref.u2.tobytes()

    @pytest.mark.parametrize("data", MEAN_CASES)
    def test_the_mean_is_formed_once_with_its_formula_bits(self, data):
        s = class_stats(data)
        assert s.mean is s.mean and not s.mean.flags.writeable
        want = (s.n1 * s.u1 + s.n2 * s.u2) / (s.n1 + s.n2)
        assert s.mean.tobytes() == want.tobytes()


class TestStratifiedKfold:
    def test_alon_fold_sizes(self):
        labels = np.array([1] * 22 + [-1] * 40)
        plan = stratified_kfold(labels, 5, seed=0)
        pos_sizes = sorted(
            int(((plan.assignments == f) & (labels == 1)).sum()) for f in range(5)
        )
        neg_sizes = [int(((plan.assignments == f) & (labels == -1)).sum()) for f in range(5)]
        assert pos_sizes == [4, 4, 4, 5, 5]
        assert neg_sizes == [8, 8, 8, 8, 8]

    def test_two_fold_forced(self):
        plan = stratified_kfold([1, 1, -1, -1], 2, seed=3)
        labels = np.array([1, 1, -1, -1])
        for f in range(2):
            fold = labels[plan.assignments == f]
            assert sorted(fold.tolist()) == [-1, 1]

    def test_deterministic(self):
        labels = np.array([1] * 9 + [-1] * 14)
        a = stratified_kfold(labels, 3, seed=11).assignments
        b = stratified_kfold(labels, 3, seed=11).assignments
        assert np.array_equal(a, b)

    def test_reassembly(self):
        labels = np.array([1] * 13 + [-1] * 8)
        plan = stratified_kfold(labels, 4, seed=5)
        combined = np.concatenate([plan.test_indices(f) for f in range(4)])
        assert sorted(combined.tolist()) == list(range(21))

    def test_class_smaller_than_k(self):
        with pytest.raises(DatasetError, match="fewer than k"):
            stratified_kfold([1, 1, -1, -1, -1], 3, seed=0)

    def test_rejects_a_negative_seed(self):
        with pytest.raises(DatasetError, match="seed must be a non-negative integer, got -1"):
            stratified_kfold([1, 1, -1, -1], 2, seed=-1)

    def test_rejects_one_fold(self):
        with pytest.raises(DatasetError, match="k must be at least 2"):
            stratified_kfold([1, 1, -1, -1], 1, seed=0)

    def test_rejects_a_label_other_than_plus_or_minus_one(self):
        # the 0 and 5 rows got fold numbers from uninitialised memory
        with pytest.raises(DatasetError, match=r"labels must be \+1 or -1"):
            stratified_kfold([1, 1, -1, -1, 0, 5], 2, seed=0)

    def test_rejects_a_label_the_int_cast_would_truncate_to_one(self):
        with pytest.raises(DatasetError, match=r"labels must be \+1 or -1"):
            stratified_kfold([1.7, 1, -1.2, -1], 2, seed=0)


class TestSimulators:
    def test_scaling_constant(self):
        # 2c*sqrt(d) = 2.7 pins c = 1.35/sqrt(d)
        assert 1.35 / np.sqrt(50) == pytest.approx(0.19091883092, abs=1e-10)
        data = simulate_hdlss(50, 3, 3, seed=0)
        assert data.d == 50

    def test_hdlss_mean_lln(self):
        n = 100_000
        d = 4
        c = 1.35 / np.sqrt(d)
        data = simulate_hdlss(d, n, 1, seed=123)
        emp = data.samples[:n].mean(axis=0)
        assert np.all(np.abs(emp - c) < 5.0 / np.sqrt(n))

    def test_experiment1_shape(self):
        data = simulate_hdlss(800, 100, 10, seed=1)
        assert data.n == 110 and (data.labels == 1).sum() == 100

    def test_deterministic(self):
        a = simulate_hdlss(20, 5, 7, seed=77)
        b = simulate_hdlss(20, 5, 7, seed=77)
        assert np.array_equal(a.samples, b.samples)

    def test_fig1_counts(self):
        a = simulate_fig1(5, 65, seed=0)
        s = class_stats(a)
        assert (s.n1, s.n2) == (5, 65)
        d = simulate_fig1(65, 65, seed=0)
        s = class_stats(d)
        assert (s.n1, s.n2) == (65, 65)

    def test_fig1_covariance_mc(self):
        data = simulate_fig1(100_000, 1, seed=2024)
        pos = data.samples[data.labels == 1]
        cov = np.cov(pos.T)
        assert np.abs(cov - dataset.FIG1_SIGMA).max() < 0.05
        assert np.abs(pos.mean(axis=0) - dataset.FIG1_MU).max() < 0.05

    def test_box_muller_is_standard_normal(self):
        z = standard_normal(make_rng(1), (200_000,))
        assert abs(z.mean()) < 0.02
        assert abs(z.std() - 1.0) < 0.02

    @pytest.mark.parametrize("simulate, args, message", [
        (simulate_hdlss, (5, 0, 3), "d and class counts must be positive"),
        (simulate_fig1, (3, 0), "class counts must be positive"),
    ], ids=["hdlss", "fig1"])
    def test_rejects_a_zero_class_count(self, simulate, args, message):
        with pytest.raises(DatasetError, match=message):
            simulate(*args, seed=0)

    def test_rejects_a_negative_seed(self):
        with pytest.raises(DatasetError, match="seed must be a non-negative integer, got -2"):
            simulate_hdlss(5, 3, 3, -2)
        with pytest.raises(DatasetError, match="seed must be a non-negative integer, got -1"):
            make_rng(-1)


class TestBoxMullerMatchesReference:
    """The in-place, blocked draw against the allocating reference, for odd
    and even counts, and for counts whose half is at and around a multiple
    of the angle block."""

    @pytest.mark.parametrize("shape", [
        (1,), (1, 1), (2, 3), (7,), (101, 13), (62, 2000), (30, 20000),
        (0,), (3, 0),
        (65533,), (65534,),  # half 32767
        (65535,), (65536,),  # half 32768
        (65537,), (65538,),  # half 32769
        (196617,), (196618,),  # half 3 * 32768 + 5
    ])
    def test_standard_normal_bit_for_bit(self, shape):
        for seed in range(20):
            got = standard_normal(make_rng(seed), shape)
            ref = standard_normal_reference(make_rng(seed), shape)
            assert got.shape == ref.shape
            assert got.tobytes() == ref.tobytes()

    def test_simulators_bit_for_bit(self, monkeypatch):
        for seed in range(20):
            got = (simulate_fig1(5 + seed, 65, seed), simulate_hdlss(50, 7, 4 + seed, seed))
            with monkeypatch.context() as m:
                m.setattr(dataset, "standard_normal", standard_normal_reference)
                ref = (simulate_fig1(5 + seed, 65, seed), simulate_hdlss(50, 7, 4 + seed, seed))
            for a, b in zip(got, ref):
                assert a.samples.tobytes() == b.samples.tobytes()


def traced_peak(fn, *args) -> int:
    """Bytes that fn(*args) holds at its peak, beyond what was live before."""
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestPeakMemory:
    def test_standard_normal_peaks_at_one_point_one_outputs(self):
        out_bytes = 200 * 2000 * 8
        assert traced_peak(standard_normal, make_rng(0), (200, 2000)) <= 1.1 * out_bytes

    def test_class_stats_copies_no_class(self):
        data = simulate_hdlss(20000, 20, 10, seed=0)
        one_class_bytes = 10 * data.d * 8
        assert traced_peak(class_stats, data) < one_class_bytes

    # a Python float per cell of the 62 x 2000 matrix would hold about 4 MB
    def test_write_csv_holds_one_rows_text(self, tmp_path):
        data = simulate_hdlss(2000, 22, 40, seed=0)
        assert traced_peak(write_csv, data, tmp_path / "cv.csv") < 0.5 * data.samples.nbytes

    def test_load_csv_holds_the_table_and_one_copy(self, tmp_path):
        data = simulate_hdlss(2000, 22, 40, seed=0)
        write_csv(data, tmp_path / "cv.csv")
        peak = traced_peak(load_csv, tmp_path / "cv.csv", "label", {"1"})
        assert peak < 2.5 * data.samples.nbytes
