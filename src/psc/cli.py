"""Command-line driver: simulate / fit / predict / evaluate / cv / demo-fig1.

All outputs are plain CSV/JSON so runs with the same config and seed are
byte-identical.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import json
import sys
from pathlib import Path

import numpy as np

from . import classifier, crossval, dataset, metrics
from .classifier import Hyperparams
from .crossval import ExperimentConfig
from .dataset import LabeledMatrix


def _load(path: str, label_column: str, positive: str) -> LabeledMatrix:
    positive_labels = set(positive.split(",")) if positive else {"1", "+1"}
    return dataset.load_csv(path, label_column, positive_labels)


def cmd_simulate(args) -> int:
    if args.fig1:
        data = dataset.simulate_fig1(args.n_pos, args.n_neg, args.seed)
    else:
        data = dataset.simulate_hdlss(args.d, args.n_pos, args.n_neg, args.seed)
    dataset.write_csv(data, args.out, label_column=args.label_column)
    print(f"wrote {data.n} x {data.d} samples to {args.out}")
    return 0


def cmd_fit(args) -> int:
    data = _load(args.train, args.label_column, args.positive)
    hp = Hyperparams(gamma=args.gamma, c0=args.c0, r_scale=args.r_scale)
    model = classifier.fit(args.method, data, hp)
    classifier.save_model(model, args.out)
    print(f"fitted {args.method} on {data.n} x {data.d}; model written to {args.out}")
    if not model.converged:
        print("warning: dual solver did not reach tolerance", file=sys.stderr)
    return 0


def cmd_predict(args) -> int:
    model = classifier.load_model(args.model)
    data = _load(args.data, args.label_column, args.positive)
    if data.d != model.d:
        raise classifier.FitError(f"{args.data}: {data.d} features, but {args.model} takes {model.d}")
    decisions = classifier.decision(model, data.samples).tolist()
    dataset.write_rows(args.out, ["id", "decision", "prediction"],
                       ([i, dec, 1 if dec >= 0.0 else -1] for i, dec in enumerate(decisions)))
    print(f"wrote {len(decisions)} predictions to {args.out}")
    return 0


def cmd_evaluate(args) -> int:
    with open(args.pred, newline="", encoding="utf-8-sig") as fh:
        reader = csv.DictReader(fh)
        try:
            if "decision" not in (reader.fieldnames or ()):
                raise metrics.MetricsError(f"{args.pred}: no 'decision' column in the header")
            decisions = []
            for row in reader:
                cell = row["decision"]
                if cell is None:  # the row ends before the decision column
                    raise metrics.MetricsError(f"{args.pred}: row {reader.line_num} has no decision")
                try:
                    decisions.append(float(cell))
                except ValueError:
                    raise metrics.MetricsError(
                        f"{args.pred}: row {reader.line_num}: cannot parse decision {cell!r}") from None
        except (UnicodeDecodeError, csv.Error) as exc:  # not UTF-8, or a cell over the field limit
            raise metrics.MetricsError(f"{args.pred}: {exc}") from None
        decisions = np.array(decisions)
    truth = _load(args.truth, args.label_column, args.positive)
    if decisions.size != truth.n:
        raise metrics.MetricsError(f"{args.pred}: {decisions.size} predictions, but {args.truth} "
                                   f"has {truth.n} rows")
    report = metrics.evaluate(truth.labels, decisions)
    dataset.write_json(dataclasses.asdict(report), args.out)
    if args.roc_out:  # load_csv refuses a one-class truth file, so report.roc is set
        dataset.write_rows(args.roc_out, ["fpr", "tpr"], report.roc)
    print(f"bccr={report.bccr:.6f} total_ccr={report.total_ccr:.6f} auc={report.auc}")
    return 0


def cmd_cv(args) -> int:
    config_doc = {}
    if args.config:
        with open(args.config, encoding="utf-8-sig") as fh:
            try:
                config_doc = json.load(fh)
            except ValueError as exc:  # a JSON syntax or a UTF-8 decoding error
                raise crossval.ConfigError(f"{args.config}: not a JSON file: {exc}") from None
        if not isinstance(config_doc, dict):
            raise crossval.ConfigError(f"{args.config}: a config file holds one JSON object")
    fields = ExperimentConfig.__dataclass_fields__
    unknown = sorted(set(config_doc) - set(fields))
    if unknown:
        raise crossval.ConfigError(f"{args.config}: unknown config keys: {', '.join(unknown)}")
    grids = ("gamma_grid", "c0_grid")
    # flags win over config-file fields
    for key, value in vars(args).items():
        if key in fields and value is not None:
            config_doc[key] = tuple(float(v) for v in value.split(",")) if key in grids else value
    config = ExperimentConfig(**config_doc)
    data = _load(args.data, args.label_column, args.positive)
    result = crossval.cv_run(data, config)
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    dataset.write_json(result["summary"], out_dir / "summary.json")
    for rep in result["repeats"]:
        dataset.write_json(rep, out_dir / f"repeat_{rep['repeat']:03d}.json")
    pooled = result["summary"]["pooled"]
    print(f"cv done: pooled bccr={pooled['bccr']:.6f} total_ccr={pooled['total_ccr']:.6f}")
    unconverged = sum(not fold.get("converged", True)
                      for rep in result["repeats"] for fold in rep["folds"])
    if unconverged:
        print(f"warning: dual solver did not reach tolerance in {unconverged} outer-fold model(s)",
              file=sys.stderr)
    return 0


FIG1_CONFIGS = (("a", 5, 65), ("b", 12, 65), ("c", 32, 65), ("d", 65, 65))


def cmd_demo_fig1(args) -> int:
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    bayes = classifier.bayes_oracle(dataset.FIG1_MU, -dataset.FIG1_MU, dataset.FIG1_SIGMA)
    hp = Hyperparams(gamma=args.gamma, c0=args.c0)
    for tag, n_pos, n_neg in FIG1_CONFIGS:
        data = dataset.simulate_fig1(n_pos, n_neg, args.seed + ord(tag))
        dataset.write_csv(data, out_dir / f"fig1_{tag}_samples.csv")
        models = {m: classifier.fit(m, data, hp) for m in classifier.METHODS}
        models["bayes"] = bayes
        dataset.write_rows(out_dir / f"fig1_{tag}_boundaries.csv", ["method", "w0", "w1", "b"],
                           ([name, *model.w, model.b] for name, model in models.items()))
    print(f"wrote sample sets and fitted boundaries to {out_dir}")
    return 0


def _add_data_flags(p) -> None:
    p.add_argument("--label-column", default="label")
    p.add_argument("--positive", default="", help="comma-separated positive label strings (default: 1,+1)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="psc", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="write a simulated data set to CSV")
    p.add_argument("--d", type=int, default=50)
    p.add_argument("--n-pos", type=int, required=True)
    p.add_argument("--n-neg", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--fig1", action="store_true", help="use the 2-D correlated-Gaussian setup")
    p.add_argument("--label-column", default="label")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("fit", help="train a model on a CSV data set")
    p.add_argument("--method", choices=classifier.METHODS, default="psc")
    p.add_argument("--train", required=True)
    _add_data_flags(p)
    p.add_argument("--gamma", type=float, default=Hyperparams.gamma)
    p.add_argument("--c0", type=float, default=Hyperparams.c0)
    p.add_argument("--r-scale", type=float, default=Hyperparams.r_scale)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_fit)

    p = sub.add_parser("predict", help="apply a saved model to a CSV data set")
    p.add_argument("--model", required=True)
    p.add_argument("--data", required=True)
    _add_data_flags(p)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_predict)

    p = sub.add_parser("evaluate", help="score predictions against true labels")
    p.add_argument("--pred", required=True)
    p.add_argument("--truth", required=True)
    _add_data_flags(p)
    p.add_argument("--out", required=True)
    p.add_argument("--roc-out", default=None)
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("cv", help="repeated nested cross-validation")
    p.add_argument("--data", required=True)
    _add_data_flags(p)
    p.add_argument("--config", default=None, help="JSON config; flags override its fields")
    p.add_argument("--method", choices=classifier.METHODS, default=None)
    p.add_argument("--outer-folds", type=int, default=None)
    p.add_argument("--inner-folds", type=int, default=None)
    p.add_argument("--repeats", type=int, default=None)
    p.add_argument("--selection-metric", choices=crossval.SELECTION_METRICS, default=None)
    p.add_argument("--gamma-grid", default=None, help="comma-separated values")
    p.add_argument("--c0-grid", default=None, help="comma-separated values")
    p.add_argument("--r-scale", type=float, default=None)
    p.add_argument("--seed", type=int, default=None, help="overrides the config file's seed (default 0)")
    p.add_argument("--out-dir", required=True)
    p.set_defaults(func=cmd_cv)

    p = sub.add_parser("demo-fig1", help="emit the 2-D border-variability demo as CSV")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--gamma", type=float, default=Hyperparams.gamma)
    p.add_argument("--c0", type=float, default=Hyperparams.c0)
    p.add_argument("--out-dir", required=True)
    p.set_defaults(func=cmd_demo_fig1)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
