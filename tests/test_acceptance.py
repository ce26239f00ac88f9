"""Acceptance gate: one test per release criterion, each ending in a single
PASS line (or a pytest FAIL). Criterion 6 asserts the simulated dimension
trend: PSC beats the SVM at every d, and gets closer to Bayes as d falls.
"""

import time
import tracemalloc

import numpy as np
import pytest
from scipy.stats import binomtest, mannwhitneyu

from psc.classifier import Hyperparams, bayes_oracle, fit_cssvm, fit_psc, prepare
from psc.dataset import (
    LabeledMatrix,
    class_stats,
    simulate_hdlss,
    write_csv,
)
from psc.intercept import Projections, gap_intercept, min_misclass_intercept
from psc.metrics import ConfusionMatrix, evaluate, report_from_confusion
from psc.qp import BoxQP, solve_smo
from psc.smw import apply_inverse, build_operator, gram, lambda_cap
from tests.oracles import brute_force_small, dense_scatter, objective
from tests.table_fixtures import TABLE_ROWS
from tests.test_intercept import misclass_count


def ok(n, text):
    print(f"[criterion {n}] PASS: {text}")


def test_criterion_1_table_arithmetic():
    rep = report_from_confusion(ConfusionMatrix(tp=597, fn=123, fp=92, tn=304))
    assert rep.ccr1 == pytest.approx(0.8292, abs=1e-4)
    assert rep.ccr2 == pytest.approx(0.7677, abs=1e-4)
    assert rep.total_ccr == pytest.approx(0.8073, abs=1e-4)
    assert 1 - rep.mwe == pytest.approx(0.7984, abs=1e-4)
    assert rep.bccr == pytest.approx(0.7969, abs=1e-4)
    for ds, method, tp, fn, fp, tn, ccr1, ccr2, total, omw, bc in TABLE_ROWS:
        r = report_from_confusion(ConfusionMatrix(tp=tp, fn=fn, fp=fp, tn=tn))
        for got, want in ((r.ccr1, ccr1), (r.ccr2, ccr2), (r.total_ccr, total),
                          (1 - r.mwe, omw), (r.bccr, bc)):
            assert got == pytest.approx(want, abs=1e-4), f"{ds}/{method}"
    ok(1, f"published arithmetic reproduced on {len(TABLE_ROWS)} rows at 1e-4")


def test_criterion_2_smw_oracle_equivalence():
    gammas = (0.1, 0.3, 0.5, 0.7, 0.9)
    rng = np.random.default_rng(20240826)
    for case in range(200):
        n = int(rng.integers(4, 21))
        d = int(rng.integers(2, 51))
        n1 = int(rng.integers(2, n - 1))
        data = LabeledMatrix(rng.standard_normal((n, d)),
                             [1] * n1 + [-1] * (n - n1))
        stats = class_stats(data)
        factor = prepare(data).factor
        lam = gammas[case % 5] * lambda_cap(factor)
        op = build_operator(factor, lam)
        dense = np.linalg.inv(np.eye(d) - lam * dense_scatter(data, stats))

        m_smw = apply_inverse(op, np.eye(d))
        assert np.abs(m_smw - dense).max() <= 1e-8 * np.abs(dense).max()

        y = data.labels.astype(float)
        x = data.samples
        xc = x - x.mean(axis=0)
        g_dense = (y[:, None] * y[None, :]) * (xc @ dense @ xc.T)
        g = gram(op, data)
        assert np.abs(g - g_dense).max() <= 1e-8 * max(np.abs(g_dense).max(), 1.0)
        # the uncentred Gram gives the same dual where y^T alpha = 0
        g_raw = (y[:, None] * y[None, :]) * (x @ dense @ x.T)
        proj = np.eye(n) - np.outer(y, y) / n
        diff = proj @ (g - g_raw) @ proj
        assert np.abs(diff).max() <= 1e-8 * max(np.abs(g_raw).max(), 1.0)

        caps = np.where(y > 0, 1.0, stats.n1 / stats.n2)
        alpha = solve_smo(BoxQP(g, y, caps)).alpha
        rhs = x.T @ (y * alpha)
        w_smw = apply_inverse(op, rhs[:, None])[:, 0]
        w_dense = dense @ rhs
        assert np.linalg.norm(w_smw - w_dense) <= 1e-8 * max(np.linalg.norm(w_dense), 1.0)
    ok(2, "M, G, w match dense inverses at 1e-8 on 200 random instances")


def test_criterion_3_qp_oracle_equivalence():
    rng = np.random.default_rng(77)
    grid_points = 201
    for _ in range(100):
        n = int(rng.integers(2, 4))
        a = rng.standard_normal((n, n))
        g = a @ a.T + 1e-3 * np.eye(n)
        y = np.ones(n)
        y[rng.integers(0, n)] = -1.0
        upper = rng.uniform(0.2, 2.0, n)
        problem = BoxQP(g, y, upper)
        smo = solve_smo(problem)
        grid = brute_force_small(problem, grid_points)
        assert smo.kkt_residual <= 1e-6
        # the SMO point is feasible, so it can't beat the true optimum by
        # more than its own KKT slack; the grid point can lag by one cell
        h = upper.max() / (grid_points - 1)
        grad_bound = np.abs(g @ smo.alpha - 1.0).sum() + np.abs(g).sum() * h
        smo_objective, grid_objective = objective(problem, smo.alpha), objective(problem, grid)
        assert smo_objective >= grid_objective - 1e-9
        assert grid_objective >= smo_objective - grad_bound * h * n
    ok(3, "SMO matches the grid oracle within resolution on 100 instances")


def test_criterion_4_intercept_formulas():
    rng = np.random.default_rng(4)
    # gap identity and split values
    for n_pos, n_neg in [(2, 2), (3, 48), (48, 3), (7, 5)]:
        lo, hi = sorted(rng.uniform(-5, 5, 2))
        pos = np.linspace(hi, hi + 1.0, n_pos)
        neg = np.linspace(lo - 1.0, lo, n_neg)
        p = Projections(pos, neg)
        b = gap_intercept(p, 2.0)
        b_plus, b_minus = hi + b, -(lo + b)
        assert b_plus + b_minus == pytest.approx(hi - lo, abs=1e-12)
    balanced = gap_intercept(Projections([3.0, 4.0], [0.0, 1.0]), 2.0)
    assert balanced == pytest.approx(-2.0, abs=1e-10)
    m16 = Projections([3.0, 4.0], np.linspace(0.0, 1.0, 32))
    r = 16.0 ** -0.25
    assert r == pytest.approx(0.5, abs=1e-10)
    b = gap_intercept(m16, 2.0)
    assert 3.0 + b == pytest.approx((4.0 / 3.0) * (2.0 / 2.0), abs=1e-10)
    # exhaustive minimum of the misclassification count
    for _ in range(100):
        pos = rng.standard_normal(int(rng.integers(1, 9))) + 0.5
        neg = rng.standard_normal(int(rng.integers(1, 9)))
        p = Projections(pos, neg)
        b_hat = min_misclass_intercept(p)
        best = min(misclass_count(p, g) for g in np.linspace(-12, 12, 6001))
        assert misclass_count(p, b_hat) <= best
    ok(4, "gap-split identities at 1e-10; misclassification scan exact on 100 sets")


def test_criterion_5_lambda_zero_svm_reduction():
    rng = np.random.default_rng(55)
    for case in range(20):
        n_half = int(rng.integers(3, 8))
        d = int(rng.integers(5, 30))
        pos = rng.standard_normal((n_half, d)) + 3.0
        neg = rng.standard_normal((n_half, d)) - 3.0
        data = LabeledMatrix(np.vstack([pos, neg]), [1] * n_half + [-1] * n_half)
        psc = fit_psc(data, Hyperparams(gamma=1e-9, c0=1.0))
        svm = fit_cssvm(data, c0=1.0)
        cos = psc.w @ svm.w / (np.linalg.norm(psc.w) * np.linalg.norm(svm.w))
        assert cos >= 1 - 1e-4
    ok(5, "gamma=1e-9 direction matches the soft-margin SVM on 20 instances")


def test_criterion_6_dimension_trend():
    """PSC beats the cost-sensitive SVM at every simulated d, and its BCCR
    shortfall from the Bayes rule shrinks as d falls toward the sample size.
    """
    hp = Hyperparams(gamma=0.5, c0=1.0)
    dims = (50, 200, 800)
    means, shortfall = {}, {}
    for d in dims:
        mu = np.full(d, 1.35 / np.sqrt(d))
        bayes = bayes_oracle(mu, -mu, np.eye(d))
        rows = []
        for rep in range(10):
            train = simulate_hdlss(d, 100, 10, seed=1000 * d + rep)
            test = simulate_hdlss(d, 1500, 1500, seed=7_000_000 + 1000 * d + rep)
            psc = fit_psc(train, hp)
            row = {}
            for name, model in (("psc", psc),
                                ("svm", fit_cssvm(train, c0=1.0)),
                                ("bayes", bayes)):
                dec = test.samples @ model.w + model.b
                row[name] = report_from_confusion(
                    _confusion(test.labels, dec)).bccr
            # printed only, with 0.9*Bayes: b = 0 is the population-optimal
            # threshold for any w here, so BCCR at b = 0 bounds every
            # intercept on PSC's w
            fitted = evaluate(test.labels, test.samples @ psc.w + psc.b)
            at_zero = evaluate(test.labels, test.samples @ psc.w)
            row.update(ccr1=fitted.ccr1, ccr2=fitted.ccr2,
                       bccr_b0=at_zero.bccr, auc=at_zero.auc)
            rows.append(row)
        means[d] = {k: float(np.mean([r[k] for r in rows])) for k in rows[0]}
        means[d]["wins"] = sum(r["psc"] > r["svm"] for r in rows)
        means[d]["ties"] = sum(r["psc"] == r["svm"] for r in rows)
        shortfall[d] = [r["bayes"] - r["psc"] for r in rows]
        m = means[d]
        print(f"[criterion 6] d={d}: psc ccr1={m['ccr1']:.4f} "
              f"ccr2={m['ccr2']:.4f} bccr={m['psc']:.4f} "
              f"bccr(b=0)={m['bccr_b0']:.4f} auc={m['auc']:.4f}; "
              f"svm bccr={m['svm']:.4f}; bayes bccr={m['bayes']:.4f}, "
              f"0.9*bayes={0.9 * m['bayes']:.4f}")
    # PSC gets closer to the Bayes rule as d falls
    for low, high in zip(dims, dims[1:]):
        p_value = mannwhitneyu(shortfall[low], shortfall[high],
                               alternative="less").pvalue
        assert p_value <= 0.05, (
            f"shortfall bayes-psc at d={low} is not below d={high}: "
            f"Mann-Whitney p={p_value:.4g}")
        print(f"[criterion 6] trend clause d={low} < d={high} PASS: shortfall "
              f"{np.mean(shortfall[low]):.4f} < {np.mean(shortfall[high]):.4f}, "
              f"p={p_value:.4g}")
    # PSC beats the SVM at every d
    for d in dims:
        m = means[d]
        assert m["psc"] > m["svm"], (
            f"d={d}: mean BCCR psc={m['psc']:.4f} <= svm={m['svm']:.4f}")
        trials = 10 - m["ties"]
        p_value = binomtest(m["wins"], trials, 0.5, alternative="greater").pvalue
        assert p_value <= 0.05, f"d={d}: sign test p={p_value}"
        print(f"[criterion 6] d={d} clause PASS: psc={m['psc']:.4f} > "
              f"svm={m['svm']:.4f}, wins={m['wins']}/{trials}, p={p_value:.4g}")
    ok(6, "psc beats svm at every d, and its Bayes shortfall falls with d")


def _confusion(labels, decisions):
    pred = np.where(np.asarray(decisions) >= 0.0, 1, -1)
    labels = np.asarray(labels)
    return ConfusionMatrix(
        tp=int(((labels == 1) & (pred == 1)).sum()),
        fn=int(((labels == 1) & (pred == -1)).sum()),
        fp=int(((labels == -1) & (pred == 1)).sum()),
        tn=int(((labels == -1) & (pred == -1)).sum()),
    )


def test_criterion_7_full_cv_on_benchmark_shape(tmp_path):
    from psc.cli import main

    data = simulate_hdlss(2000, 22, 40, seed=314159)
    csv_path = tmp_path / "benchmark.csv"
    write_csv(data, csv_path)
    t0 = time.perf_counter()
    rc = main(["cv", "--data", str(csv_path), "--seed", "0",
               "--out-dir", str(tmp_path / "full")])
    elapsed = time.perf_counter() - t0
    assert rc == 0
    assert elapsed <= 300.0, f"cv took {elapsed:.1f}s"
    import json

    summary = json.loads((tmp_path / "full" / "summary.json").read_text())
    pooled = summary["pooled"]["confusion"]
    assert sum(pooled.values()) == 18 * 62
    # determinism at reduced repeat count (full determinism is criterion 9)
    blobs = []
    for tag in ("r1", "r2"):
        out = tmp_path / tag
        main(["cv", "--data", str(csv_path), "--seed", "0", "--repeats", "2",
              "--out-dir", str(out)])
        blobs.append((out / "summary.json").read_bytes() +
                     (out / "repeat_001.json").read_bytes())
    assert blobs[0] == blobs[1]
    ok(7, f"18-repeat nested cv finished in {elapsed:.1f}s, "
          f"pooled counts sum to {18 * 62}, reruns byte-identical")


def test_criterion_8_complexity_sanity():
    hp = Hyperparams(gamma=0.5, c0=1.0)

    def min_fit_time(d):
        data = simulate_hdlss(d, 100, 10, seed=d)
        best = np.inf
        for _ in range(5):
            t0 = time.perf_counter()
            fit_psc(data, hp)
            best = min(best, time.perf_counter() - t0)
        return best

    min_fit_time(800)  # warm caches and jit before timing
    t800 = min_fit_time(800)
    t3200 = min_fit_time(3200)
    ratio = t3200 / t800
    assert ratio <= 6.0, f"time grew {ratio:.2f}x for 4x dimension"

    d_big = 20_000
    data = simulate_hdlss(d_big, 20, 10, seed=1)
    tracemalloc.start()
    fit_psc(data, hp)
    _, peak = tracemalloc.get_traced_memory()
    tracemalloc.stop()
    dxd_bytes = d_big * d_big * 8
    assert peak < dxd_bytes / 10, f"peak {peak} bytes suggests a d x d allocation"
    nxd_bytes = data.samples.nbytes
    assert peak < nxd_bytes, f"peak {peak} bytes holds an n x d temporary ({nxd_bytes} bytes)"
    ok(8, f"4x dimension cost {ratio:.2f}x time; peak alloc {peak / 1e6:.1f} MB "
          f"at d={d_big} (d x d would be {dxd_bytes / 1e9:.1f} GB, "
          f"n x d {nxd_bytes / 1e6:.1f} MB)")


def test_criterion_9_subcommand_determinism(tmp_path):
    from psc.cli import main

    outputs = []
    for tag in ("first", "second"):
        root = tmp_path / tag
        root.mkdir()
        main(["simulate", "--d", "30", "--n-pos", "20", "--n-neg", "8",
              "--seed", "5", "--out", str(root / "train.csv")])
        main(["fit", "--train", str(root / "train.csv"), "--gamma", "0.5",
              "--c0", "1.0", "--out", str(root / "model.json")])
        main(["predict", "--model", str(root / "model.json"),
              "--data", str(root / "train.csv"), "--out", str(root / "preds.csv")])
        main(["evaluate", "--pred", str(root / "preds.csv"),
              "--truth", str(root / "train.csv"), "--out", str(root / "report.json"),
              "--roc-out", str(root / "roc.csv")])
        main(["cv", "--data", str(root / "train.csv"), "--repeats", "2",
              "--outer-folds", "2", "--inner-folds", "2",
              "--gamma-grid", "0.3,0.7", "--c0-grid", "0.5,2.0",
              "--seed", "5", "--out-dir", str(root / "cv")])
        main(["demo-fig1", "--seed", "5", "--out-dir", str(root / "fig1")])
        names = ["train.csv", "model.json", "preds.csv", "report.json", "roc.csv",
                 "cv/summary.json", "cv/repeat_000.json", "cv/repeat_001.json"]
        names += [f"fig1/fig1_{t}_{kind}.csv" for t in "abcd"
                  for kind in ("samples", "boundaries")]
        outputs.append({n: (root / n).read_bytes() for n in names})
    assert outputs[0] == outputs[1]
    ok(9, f"{len(outputs[0])} output files byte-identical across reruns")
