import json

import numpy as np
import pytest

from psc import metrics
from psc.classifier import Hyperparams
from psc.cli import build_parser, main
from psc.dataset import load_csv


def run(*argv, capsys=None):
    return main([str(a) for a in argv])


class TestSimulate:
    def test_writes_expected_shape(self, tmp_path):
        out = tmp_path / "train.csv"
        rc = run("simulate", "--d", 50, "--n-pos", 100, "--n-neg", 10,
                 "--seed", 7, "--out", out)
        assert rc == 0
        data = load_csv(out, "label", {"1"})
        assert (data.n, data.d) == (110, 50)
        assert (data.labels == 1).sum() == 100

    def test_fig1_mode(self, tmp_path):
        out = tmp_path / "fig1.csv"
        assert run("simulate", "--fig1", "--n-pos", 5, "--n-neg", 65,
                   "--seed", 1, "--out", out) == 0
        data = load_csv(out, "label", {"1"})
        assert (data.n, data.d) == (70, 2)

    def test_env_seed_default(self, tmp_path, monkeypatch):
        monkeypatch.setenv("PSC_SEED", "33")
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        run("simulate", "--d", 5, "--n-pos", 4, "--n-neg", 3, "--out", a)
        run("simulate", "--d", 5, "--n-pos", 4, "--n-neg", 3, "--seed", 33, "--out", b)
        assert a.read_bytes() == b.read_bytes()


class TestFitPredictEvaluate:
    @pytest.fixture()
    def train_test(self, tmp_path):
        train, test = tmp_path / "train.csv", tmp_path / "test.csv"
        run("simulate", "--d", 40, "--n-pos", 30, "--n-neg", 10, "--seed", 1,
            "--out", train)
        run("simulate", "--d", 40, "--n-pos", 50, "--n-neg", 50, "--seed", 2,
            "--out", test)
        return train, test

    @pytest.mark.parametrize("method", ["psc", "cssvm", "rmdd"])
    def test_pipeline(self, tmp_path, method, train_test):
        train, test = train_test
        model = tmp_path / "model.json"
        preds = tmp_path / "preds.csv"
        report = tmp_path / "report.json"
        roc = tmp_path / "roc.csv"
        assert run("fit", "--method", method, "--train", train,
                   "--gamma", 0.5, "--c0", 1.0, "--out", model) == 0
        assert run("predict", "--model", model, "--data", test, "--out", preds) == 0
        assert run("evaluate", "--pred", preds, "--truth", test,
                   "--out", report, "--roc-out", roc) == 0
        doc = json.loads(report.read_text())
        assert 0.0 <= doc["bccr"] <= 1.0
        first = roc.read_text().splitlines()[0]
        assert first == "fpr,tpr"

    def test_evaluate_matches_library(self, tmp_path, train_test):
        train, test = train_test
        model = tmp_path / "model.json"
        preds = tmp_path / "preds.csv"
        report = tmp_path / "report.json"
        run("fit", "--train", train, "--out", model)
        run("predict", "--model", model, "--data", test, "--out", preds)
        run("evaluate", "--pred", preds, "--truth", test, "--out", report)
        doc = json.loads(report.read_text())
        decisions = np.array([float(line.split(",")[1])
                              for line in preds.read_text().splitlines()[1:]])
        truth = load_csv(test, "label", {"1"})
        direct = metrics.evaluate(truth.labels, decisions)
        assert doc["bccr"] == pytest.approx(direct.bccr, abs=1e-12)
        assert doc["auc"] == pytest.approx(direct.auc, abs=1e-12)


class TestFlagDefaults:
    def test_fit_and_demo_defaults_are_hyperparams_defaults(self):
        hp = Hyperparams()
        fit = build_parser().parse_args(["fit", "--train", "t.csv", "--out", "m.json"])
        assert (fit.gamma, fit.c0, fit.r_scale, fit.tol, fit.max_iter) == (
            hp.gamma, hp.c0, hp.r_scale, hp.tol, hp.max_iter)
        demo = build_parser().parse_args(["demo-fig1", "--out-dir", "fig1"])
        assert (demo.gamma, demo.c0) == (hp.gamma, hp.c0)

    def test_fit_checks_settings_for_every_method(self, tmp_path, capsys):
        data = tmp_path / "d.csv"
        run("simulate", "--d", 5, "--n-pos", 6, "--n-neg", 4, "--seed", 0, "--out", data)
        rc = run("fit", "--method", "cssvm", "--gamma", 1.5, "--train", data,
                 "--out", tmp_path / "m.json")
        assert rc == 1
        assert "gamma must be in" in capsys.readouterr().err


class TestCv:
    def test_config_file_with_flag_override(self, tmp_path):
        data = tmp_path / "data.csv"
        run("simulate", "--d", 15, "--n-pos", 12, "--n-neg", 8, "--seed", 5,
            "--out", data)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "method": "rmdd",
            "outer_folds": 2,
            "inner_folds": 2,
            "repeats": 5,
            "gamma_grid": [0.5],
            "c0_grid": [1.0],
        }))
        out_dir = tmp_path / "cv"
        # --repeats flag must beat the config file's 5
        assert run("cv", "--data", data, "--config", cfg, "--repeats", 2,
                   "--seed", 3, "--out-dir", out_dir) == 0
        summary = json.loads((out_dir / "summary.json").read_text())
        assert summary["method"] == "rmdd"
        assert summary["repeats"] == 2
        assert (out_dir / "repeat_000.json").exists()
        assert (out_dir / "repeat_001.json").exists()
        assert not (out_dir / "repeat_002.json").exists()

    def test_experiment1_style_run(self, tmp_path):
        data = tmp_path / "data.csv"
        run("simulate", "--d", 180, "--n-pos", 20, "--n-neg", 10, "--seed", 11,
            "--out", data)
        out_dir = tmp_path / "cv"
        rc = run("cv", "--data", data, "--repeats", 5, "--outer-folds", 2,
                 "--inner-folds", 2, "--gamma-grid", "0.5", "--c0-grid", "1.0",
                 "--seed", 0, "--out-dir", out_dir)
        assert rc == 0
        reports = sorted(out_dir.glob("repeat_*.json"))
        assert len(reports) == 5
        for path in reports:
            doc = json.loads(path.read_text())
            assert "pooled" in doc


class TestDemoFig1:
    def test_emits_all_artifacts(self, tmp_path):
        out_dir = tmp_path / "fig1"
        assert run("demo-fig1", "--seed", 0, "--out-dir", out_dir) == 0
        for tag in "abcd":
            assert (out_dir / f"fig1_{tag}_samples.csv").exists()
            lines = (out_dir / f"fig1_{tag}_boundaries.csv").read_text().splitlines()
            assert lines[0] == "method,w0,w1,b"
            methods = {line.split(",")[0] for line in lines[1:]}
            assert methods == {"psc", "cssvm", "rmdd", "bayes"}


class TestErrorsAndDeterminism:
    def test_missing_file_exit_code(self, tmp_path, capsys):
        rc = run("fit", "--train", tmp_path / "absent.csv",
                 "--out", tmp_path / "m.json")
        assert rc == 1
        assert "error:" in capsys.readouterr().err

    def test_malformed_config_exit_code(self, tmp_path, capsys):
        data = tmp_path / "d.csv"
        run("simulate", "--d", 5, "--n-pos", 6, "--n-neg", 4, "--seed", 0,
            "--out", data)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"method": "unknown"}))
        rc = run("cv", "--data", data, "--config", cfg,
                 "--out-dir", tmp_path / "cv")
        assert rc == 1
        assert "error:" in capsys.readouterr().err

    def test_unknown_config_key_exit_code(self, tmp_path, capsys):
        data = tmp_path / "d.csv"
        run("simulate", "--d", 5, "--n-pos", 6, "--n-neg", 4, "--seed", 0,
            "--out", data)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"repeat": 2}))
        rc = run("cv", "--data", data, "--config", cfg,
                 "--out-dir", tmp_path / "cv")
        assert rc == 1
        assert "unknown config keys: repeat" in capsys.readouterr().err
        assert not (tmp_path / "cv").exists()

    def test_byte_identical_reruns(self, tmp_path):
        files = {}
        for tag in ("x", "y"):
            d = tmp_path / tag
            d.mkdir()
            run("simulate", "--d", 12, "--n-pos", 10, "--n-neg", 6, "--seed", 4,
                "--out", d / "data.csv")
            run("fit", "--train", d / "data.csv", "--gamma", 0.3, "--c0", 2.0,
                "--seed", 4, "--out", d / "model.json")
            run("cv", "--data", d / "data.csv", "--repeats", 2,
                "--outer-folds", 2, "--inner-folds", 2,
                "--gamma-grid", "0.3,0.7", "--c0-grid", "0.5,2.0",
                "--seed", 4, "--out-dir", d / "cv")
            files[tag] = {
                "data": (d / "data.csv").read_bytes(),
                "model": (d / "model.json").read_bytes(),
                "summary": (d / "cv" / "summary.json").read_bytes(),
                "rep0": (d / "cv" / "repeat_000.json").read_bytes(),
            }
        assert files["x"] == files["y"]
