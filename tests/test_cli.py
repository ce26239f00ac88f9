import json

import numpy as np
import pytest

from psc import classifier, metrics
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

    def test_fit_warns_when_the_dual_solver_did_not_converge(self, tmp_path, capsys, train_test):
        model = tmp_path / "model.json"
        assert run("fit", "--train", train_test[0], "--max-iter", 1, "--out", model) == 0
        assert json.loads(model.read_text())["converged"] is False
        assert "warning: dual solver did not reach tolerance" in capsys.readouterr().err

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

    def test_predict_uses_the_coordinates_fit_trained_in(self, tmp_path, train_test):
        train, _ = train_test
        model, preds = tmp_path / "model.json", tmp_path / "preds.csv"
        assert run("fit", "--train", train, "--out", model) == 0
        assert run("predict", "--model", model, "--data", train, "--out", preds) == 0
        decisions = np.array([float(line.split(",")[1])
                              for line in preds.read_text().splitlines()[1:]])
        direct = classifier.decision(classifier.load_model(model),
                                     load_csv(train, "label", {"1"}).samples)
        assert decisions.tobytes() == direct.tobytes()


class TestFlagDefaults:
    def test_fit_and_demo_defaults_are_hyperparams_defaults(self):
        hp = Hyperparams()
        fit = build_parser().parse_args(["fit", "--train", "t.csv", "--out", "m.json"])
        assert (fit.gamma, fit.c0, fit.r_scale, fit.tol, fit.max_iter) == (
            hp.gamma, hp.c0, hp.r_scale, hp.tol, hp.max_iter)
        demo = build_parser().parse_args(["demo-fig1", "--out-dir", "fig1"])
        assert (demo.gamma, demo.c0) == (hp.gamma, hp.c0)

    def test_fit_has_no_seed_flag(self):
        with pytest.raises(SystemExit) as caught:
            build_parser().parse_args(["fit", "--train", "t.csv", "--seed", "1",
                                       "--out", "m.json"])
        assert caught.value.code == 2

    def test_fit_checks_settings_for_every_method(self, tmp_path, capsys):
        data = tmp_path / "d.csv"
        run("simulate", "--d", 5, "--n-pos", 6, "--n-neg", 4, "--seed", 0, "--out", data)
        rc = run("fit", "--method", "cssvm", "--gamma", 1.5, "--train", data,
                 "--out", tmp_path / "m.json")
        assert rc == 1
        assert "gamma must be in" in capsys.readouterr().err


def cv_with_config(tmp_path, name, doc, *flags):
    """psc cv with doc as its config file; returns the exit code and out dir."""
    data = tmp_path / "data.csv"
    if not data.exists():
        run("simulate", "--d", 15, "--n-pos", 12, "--n-neg", 8, "--seed", 5, "--out", data)
    cfg = tmp_path / f"{name}.json"
    cfg.write_text(json.dumps(doc))
    rc = run("cv", "--data", data, "--config", cfg, *flags, "--out-dir", tmp_path / name)
    return rc, tmp_path / name


SMALL_CV = {"outer_folds": 2, "inner_folds": 2, "repeats": 1,
            "gamma_grid": [0.5], "c0_grid": [1.0, 2.0]}


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

    def test_config_file_seed_applies_without_the_flag(self, tmp_path):
        rc, from_file = cv_with_config(tmp_path, "file", {**SMALL_CV, "seed": 7})
        assert rc == 0
        rc, from_flag = cv_with_config(tmp_path, "flag", SMALL_CV, "--seed", 7)
        assert rc == 0
        summary = (from_file / "summary.json").read_bytes()
        assert json.loads(summary)["seed"] == 7
        assert summary == (from_flag / "summary.json").read_bytes()

    def test_warns_when_an_outer_fold_model_did_not_converge(self, tmp_path, capsys):
        rc, _ = cv_with_config(tmp_path, "default", SMALL_CV)
        assert rc == 0
        assert "warning" not in capsys.readouterr().err
        rc, capped_dir = cv_with_config(tmp_path, "capped", {**SMALL_CV, "max_iter": 1})
        assert rc == 0
        assert "warning: dual solver did not reach tolerance in 2 outer-fold model(s)" \
            in capsys.readouterr().err
        folds = json.loads((capped_dir / "repeat_000.json").read_text())["folds"]
        assert [fold["converged"] for fold in folds] == [False, False]


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

    @pytest.mark.parametrize("doc, message", [
        ({"gamma_grid": 0.5}, "gamma_grid must be a list of numbers, got 0.5"),
        ({"outer_folds": 2.5}, "outer_folds must be of type int, got 2.5"),
        ({"repeats": "2"}, "repeats must be of type int, got '2'"),
        ([1, 2], "a config file holds one JSON object"),
        ({"tol": float("nan")}, "tol must be finite and positive, got nan"),
        ({"max_iter": 0}, "max_iter must be at least 1, got 0"),
        ({"c0_grid": [float("nan")]}, "c0 and r_scale must be positive, got nan"),
    ])
    def test_wrongly_typed_config_exit_code(self, tmp_path, capsys, doc, message):
        rc, out_dir = cv_with_config(tmp_path, "cv", doc)
        assert rc == 1
        assert f"error: {message}" in capsys.readouterr().err
        assert not out_dir.exists()

    def test_c0_grid_order_changes_neither_artifacts_nor_solves(self, tmp_path, monkeypatch):
        data = tmp_path / "data.csv"
        run("simulate", "--d", 150, "--n-pos", 10, "--n-neg", 14, "--seed", 3, "--out", data)
        grid = [0.03125, 0.125, 0.5, 2.0, 8.0]
        solves = []
        real = classifier.qp.solve_smo

        def counting(problem, tol, max_iter):
            solves.append(problem.n)
            return real(problem, tol, max_iter)

        monkeypatch.setattr(classifier.qp, "solve_smo", counting)
        outputs, counts = [], []
        for name, c0s in (("up", grid), ("down", grid[::-1])):
            solves.clear()
            assert run("cv", "--data", data, "--repeats", 1, "--outer-folds", 3,
                       "--inner-folds", 3, "--gamma-grid", "0.3,0.7",
                       "--c0-grid", ",".join(map(str, c0s)), "--seed", 2,
                       "--out-dir", tmp_path / name) == 0
            counts.append(len(solves))
            outputs.append([(tmp_path / name / f).read_bytes()
                            for f in ("summary.json", "repeat_000.json")])
        assert outputs[0] == outputs[1]
        assert counts[0] == counts[1] < 3 * (3 * 2 * len(grid) + 1)

    def test_byte_identical_reruns(self, tmp_path):
        files = {}
        for tag in ("x", "y"):
            d = tmp_path / tag
            d.mkdir()
            run("simulate", "--d", 12, "--n-pos", 10, "--n-neg", 6, "--seed", 4,
                "--out", d / "data.csv")
            run("fit", "--train", d / "data.csv", "--gamma", 0.3, "--c0", 2.0,
                "--out", d / "model.json")
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


class TestModelAndPredictionFiles:
    @pytest.fixture()
    def saved(self, tmp_path):
        data, model = tmp_path / "data.csv", tmp_path / "model.json"
        run("simulate", "--d", 6, "--n-pos", 8, "--n-neg", 5, "--seed", 2, "--out", data)
        assert run("fit", "--train", data, "--out", model) == 0
        return data, model

    def test_a_model_file_with_a_seed_provenance_key_still_loads(self, tmp_path, saved):
        # model.json files written before the key was dropped carry it
        data, model = saved
        legacy = tmp_path / "legacy.json"
        legacy.write_text(json.dumps(json.loads(model.read_text()) | {"seed_provenance": "seed=0"}))
        got, want = classifier.load_model(legacy), classifier.load_model(model)
        assert got.w.tobytes() == want.w.tobytes()
        assert classifier.model_to_dict(got) == classifier.model_to_dict(want)
        outputs = []
        for name, path in (("now", model), ("legacy", legacy)):
            assert run("predict", "--model", path, "--data", data,
                       "--out", tmp_path / f"{name}.csv") == 0
            outputs.append((tmp_path / f"{name}.csv").read_bytes())
        assert outputs[0] == outputs[1]

    @staticmethod
    def predict_with(tmp_path, capsys, data, doc) -> str:
        """Run predict on a model file holding doc; return stderr."""
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        assert run("predict", "--model", path, "--data", data, "--out", tmp_path / "p.csv") == 1
        assert not (tmp_path / "p.csv").exists()
        return capsys.readouterr().err.replace(f"{path}: ", "<path>: ")

    @pytest.mark.parametrize("doc, message", [
        ([1, 2], "a model file holds one JSON object"),
        ({"b": 0.0, "method_tag": "psc"}, "missing key 'w'"),
    ])
    def test_predict_rejects_a_file_that_holds_no_model(self, tmp_path, capsys, saved,
                                                        doc, message):
        assert f"error: <path>: {message}" in self.predict_with(tmp_path, capsys, saved[0], doc)

    @pytest.mark.parametrize("changes, message", [
        ({"b": None}, "b must be a number, got None"),
        ({"kkt_residual": "0"}, "kkt_residual must be a number, got '0'"),
        ({"c0": True}, "c0 must be a number, got True"),
        ({"w": {"a": 1}}, "w must be a list of numbers"),
        ({"converged": "false"}, "converged must be true or false, got 'false'"),
        ({"n1": 2.7}, "n1 must be a whole number, got 2.7"),
        ({"n2": None}, "n2 must be a whole number, got None"),
        ({"d": 7}, "d is 7.0 but w has 6 entries"),
        ({"method_tag": 1}, "method_tag must be a string, got 1.0"),
    ])
    def test_predict_rejects_a_malformed_model(self, tmp_path, capsys, saved, changes, message):
        data, model = saved
        doc = json.loads(model.read_text()) | changes
        assert f"error: <path>: {message}" in self.predict_with(tmp_path, capsys, data, doc)

    def test_a_model_with_null_settings_and_no_counts_loads(self, tmp_path, saved):
        _, model = saved
        doc = json.loads(model.read_text())
        for key in ("n1", "n2", "d", "converged", "kkt_residual"):
            del doc[key]
        loaded = tmp_path / "loaded.json"
        loaded.write_text(json.dumps(doc | {"gamma": None, "lambda": None, "n1": 3}))
        got = classifier.load_model(loaded)
        assert (got.gamma, got.lam, got.n1, got.n2, got.converged, got.kkt_residual) == (
            None, None, 3, 0, True, 0.0)
        assert type(got.n1) is int and type(got.b) is float

    @pytest.mark.parametrize("text, message", [
        ("id,prediction\n0,1\n", "no 'decision' column in the header"),
        ("", "no 'decision' column in the header"),
        ("id,decision,prediction\n0\n", "row 2 has no decision"),
        ("id,decision,prediction\n0,0.5,1\n1,high,1\n", "row 3: cannot parse decision 'high'"),
    ])
    def test_evaluate_rejects_a_malformed_predictions_file(self, tmp_path, capsys, saved,
                                                           text, message):
        data, _ = saved
        preds = tmp_path / "preds.csv"
        preds.write_text(text)
        rc = run("evaluate", "--pred", preds, "--truth", data, "--out", tmp_path / "r.json")
        assert rc == 1
        assert f"error: {preds}: {message}" in capsys.readouterr().err
