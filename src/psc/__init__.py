"""Linear binary classification for imbalanced high-dimension
low-sample-size data: scatter-regularized max-margin training with a
low-rank-accelerated operator, baselines, metrics and a CV harness."""

from .classifier import (
    Hyperparams,
    LinearModel,
    bayes_oracle,
    decision,
    fit_cssvm,
    fit_psc,
    fit_rmdd,
    load_model,
    predict,
    save_model,
)
from .crossval import ExperimentConfig, cv_run
from .dataset import (
    ClassStats,
    FoldPlan,
    LabeledMatrix,
    class_stats,
    load_csv,
    simulate_fig1,
    simulate_hdlss,
    stratified_kfold,
    write_csv,
)
from .intercept import Projections, choose_intercept
from .metrics import ConfusionMatrix, EvalReport, bccr, evaluate, mwe
from .qp import BoxQP, DualSolution, solve_smo
from .smw import (
    PopulationFactor,
    SmwOperator,
    apply_inverse,
    beta,
    build_factor,
    build_operator,
    gram,
    lambda_cap,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
