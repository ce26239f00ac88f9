import csv

import numpy as np
import pytest

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
        assert stats.m == pytest.approx(1.82, abs=0.005)

    def test_binarization(self, tmp_path):
        path = tmp_path / "t.csv"
        write_rows(path, ["x", "y"], [[1, "a"], [2, "a"], [3, "b"]])
        data = load_csv(path, "y", {"a"})
        assert data.labels.tolist() == [1, 1, -1]
        assert data.samples[:, 0].tolist() == [1.0, 2.0, 3.0]

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


class TestClassStats:
    def test_hand_example(self):
        data = LabeledMatrix([[0.0], [2.0], [5.0], [7.0]], [1, 1, -1, -1])
        s = class_stats(data)
        assert s.u1[0] == 1.0 and s.u2[0] == 6.0
        assert (s.n1, s.n2, s.m) == (2, 2, 1.0)

    def test_imbalance_factor(self):
        data = LabeledMatrix(np.zeros((110, 1)) + np.arange(110)[:, None],
                             [1] * 100 + [-1] * 10)
        assert class_stats(data).m == 10.0

    def test_constant_class_mean(self):
        data = LabeledMatrix([[3.5], [3.5], [0.0], [1.0]], [1, 1, -1, -1])
        assert class_stats(data).u1[0] == 3.5


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

    def test_rejects_a_label_other_than_plus_or_minus_one(self):
        # the 0 and 5 rows got fold numbers from uninitialised memory
        with pytest.raises(DatasetError, match=r"labels must be \+1 or -1"):
            stratified_kfold([1, 1, -1, -1, 0, 5], 2, seed=0)


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
        assert class_stats(a).m == 13.0
        d = simulate_fig1(65, 65, seed=0)
        assert class_stats(d).m == 1.0

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
