import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from psc.metrics import (
    ConfusionMatrix,
    MetricsError,
    bccr,
    evaluate,
    mwe,
    report_from_confusion,
    roc_curve,
    save_roc_csv,
)
from tests.table_fixtures import TABLE_ROWS

rates = st.floats(0.0, 1.0, allow_nan=False)


class TestBccr:
    def test_published_psc_row(self):
        assert bccr(0.829167, 0.767677) == pytest.approx(0.796914, abs=1e-4)

    def test_perfect(self):
        assert bccr(1.0, 1.0) == 1.0

    def test_one_sided(self):
        assert bccr(1.0, 0.0) == pytest.approx(0.5 * math.exp(-0.5), abs=1e-12)

    def test_out_of_range(self):
        with pytest.raises(MetricsError):
            bccr(1.2, 0.5)

    @settings(max_examples=100)
    @given(a=rates, b=rates)
    def test_bounded_by_mean(self, a, b):
        assert bccr(a, b) <= (a + b) / 2 + 1e-15


class TestMwe:
    def test_published_psc_row(self):
        assert 1 - mwe(0.829167, 0.767677) == pytest.approx(0.798422, abs=1e-4)

    def test_perfect(self):
        assert mwe(1.0, 1.0) == 0.0

    @settings(max_examples=100)
    @given(a=rates, b=rates)
    def test_bccr_mwe_identity(self, a, b):
        lhs = bccr(a, b)
        rhs = (1 - mwe(a, b)) * math.exp(-((a - b) ** 2) / 2)
        assert lhs == pytest.approx(rhs, abs=1e-15)


class TestConfusion:
    def test_counts_validated(self):
        with pytest.raises(MetricsError):
            ConfusionMatrix(tp=-1, fn=0, fp=0, tn=1)

    def test_alon_aggregate(self):
        rep = report_from_confusion(ConfusionMatrix(tp=597, fn=123, fp=92, tn=304))
        assert rep.ccr1 == pytest.approx(0.829167, abs=1e-4)
        assert rep.ccr2 == pytest.approx(0.767677, abs=1e-4)
        assert rep.total_ccr == pytest.approx(0.807348, abs=1e-4)
        assert 1 - rep.mwe == pytest.approx(0.798422, abs=1e-4)
        assert rep.bccr == pytest.approx(0.796914, abs=1e-4)


class TestPublishedTables:
    @pytest.mark.parametrize(
        "dataset,method,tp,fn,fp,tn,ccr1,ccr2,total,one_minus_mwe,bccr_val",
        TABLE_ROWS,
        ids=[f"{r[0]}-{r[1]}" for r in TABLE_ROWS],
    )
    def test_row_identities(self, dataset, method, tp, fn, fp, tn,
                            ccr1, ccr2, total, one_minus_mwe, bccr_val):
        rep = report_from_confusion(ConfusionMatrix(tp=tp, fn=fn, fp=fp, tn=tn))
        assert rep.ccr1 == pytest.approx(ccr1, abs=1e-4)
        assert rep.ccr2 == pytest.approx(ccr2, abs=1e-4)
        assert rep.total_ccr == pytest.approx(total, abs=1e-4)
        assert 1 - rep.mwe == pytest.approx(one_minus_mwe, abs=1e-4)
        assert rep.bccr == pytest.approx(bccr_val, abs=1e-4)


class TestEvaluate:
    def test_perfect_ordering(self):
        labels = np.array([1, 1, -1, -1])
        rep = evaluate(labels, np.array([2.0, 1.0, -1.0, -2.0]))
        assert rep.auc == 1.0
        assert rep.bccr == 1.0

    def test_all_equal_decisions(self):
        labels = np.array([1, 1, -1, -1])
        rep = evaluate(labels, np.zeros(4))
        assert rep.auc == pytest.approx(0.5, abs=1e-12)
        # sign(0) = +1: every sample predicted positive
        assert rep.confusion.tp == 2 and rep.confusion.fp == 2

    def test_boundary_prediction_positive(self):
        rep = evaluate(np.array([1, -1]), np.array([0.0, -1.0]))
        assert rep.confusion.tp == 1 and rep.confusion.tn == 1

    def test_roc_endpoints_monotone(self):
        rng = np.random.default_rng(3)
        labels = np.array([1] * 10 + [-1] * 15)
        rep = evaluate(labels, rng.standard_normal(25))
        roc = np.asarray(rep.roc)
        assert tuple(roc[0]) == (0.0, 0.0) and tuple(roc[-1]) == (1.0, 1.0)
        assert (np.diff(roc[:, 0]) >= 0).all() and (np.diff(roc[:, 1]) >= 0).all()

    def test_auc_invariant_increasing_transform(self):
        rng = np.random.default_rng(4)
        labels = np.array([1] * 8 + [-1] * 12)
        d = rng.standard_normal(20)
        base = evaluate(labels, d).auc
        assert evaluate(labels, 2 * d + 3).auc == pytest.approx(base, abs=1e-12)
        assert evaluate(labels, d ** 3).auc == pytest.approx(base, abs=1e-12)

    def test_label_swap_duality(self):
        rng = np.random.default_rng(5)
        labels = np.array([1] * 7 + [-1] * 9)
        d = rng.standard_normal(16)
        a = evaluate(labels, d)
        b = evaluate(-labels, -d)  # exact while no decision is exactly zero
        assert b.auc == pytest.approx(a.auc, abs=1e-12)
        assert b.ccr1 == pytest.approx(a.ccr2, abs=1e-12)
        assert b.ccr2 == pytest.approx(a.ccr1, abs=1e-12)
        assert b.mwe == pytest.approx(a.mwe, abs=1e-12)
        assert b.bccr == pytest.approx(a.bccr, abs=1e-12)

    def test_single_class_flags_roc_absent(self):
        rep = evaluate(np.array([1, 1]), np.array([1.0, -1.0]))
        assert rep.roc is None and rep.auc is None

    def test_length_mismatch(self):
        with pytest.raises(MetricsError):
            evaluate(np.array([1, -1]), np.array([1.0]))

    def test_rejects_a_label_of_zero(self):
        with pytest.raises(MetricsError, match="labels must be"):
            evaluate(np.array([1, 0]), np.array([1.0, -1.0]))

    def test_report_from_confusion_needs_both_classes(self):
        with pytest.raises(MetricsError, match="both classes"):
            report_from_confusion(ConfusionMatrix(tp=3, fn=1, fp=0, tn=0))

    def test_no_roc_csv_without_roc_points(self, tmp_path):
        report = report_from_confusion(ConfusionMatrix(tp=3, fn=1, fp=2, tn=4))
        with pytest.raises(MetricsError, match="no ROC"):
            save_roc_csv(report, tmp_path / "roc.csv")
        assert not (tmp_path / "roc.csv").exists()


class TestRocCurve:
    def test_tie_grouping_matches_rank_auc(self):
        rng = np.random.default_rng(6)
        labels = np.array([1] * 20 + [-1] * 30)
        d = np.round(rng.standard_normal(50), 1)  # force ties
        _, auc = roc_curve(labels, d)
        pos = d[labels == 1][:, None]
        neg = d[labels == -1][None, :]
        rank_auc = ((pos > neg).sum() + 0.5 * (pos == neg).sum()) / (20 * 30)
        assert auc == pytest.approx(rank_auc, abs=1e-12)
