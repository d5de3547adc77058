"""The paper's contribution: a controlled benchmark harness for traffic models."""

from .analysis import (VolatilityProfile, error_volatility_correlation,
                       per_sensor_errors, volatility_profile)
from .export import export_predictions, load_predictions, predictions_to_csv
from .experiment import (EvaluationResult, RunResult, TrainingConfig,
                         TrainingHistory, evaluate_model, predict,
                         run_experiment, train_model)
from .intervals import (difficult_mask, interval_segments, moving_std,
                        prediction_mask)
from .matrix import BenchmarkMatrix
from .metrics import (HORIZON_STEPS, HorizonMetrics, evaluate_horizons, mae,
                      mape, rmse)
from .rankings import RankTable, friedman_test, leaderboard, rank_models
from .report import fig1_table, fig2_table, fig3_series, format_table, table3
from .results import (AggregateResult, MetricSummary, aggregate_runs,
                      load_results, save_results)
from .horizon_curve import curve_steepness, horizon_curve, render_curves
from .patterns import PatternMasks, classify_intervals, evaluate_patterns
from .robustness import (Corruption, add_noise, drop_sensors,
                         robustness_probe, stale_feed)
from .significance import Comparison, compare_models, welch_test
from .visualization import sparkline

__all__ = [
    "mae", "rmse", "mape", "HorizonMetrics", "evaluate_horizons",
    "HORIZON_STEPS",
    "moving_std", "difficult_mask", "prediction_mask", "interval_segments",
    "TrainingConfig", "TrainingHistory", "EvaluationResult", "RunResult",
    "train_model", "predict", "evaluate_model", "run_experiment",
    "MetricSummary", "AggregateResult", "aggregate_runs",
    "save_results", "load_results",
    "fig1_table", "table3", "fig2_table", "fig3_series", "format_table",
    "Comparison", "welch_test", "compare_models",
    "sparkline",
    "horizon_curve", "curve_steepness", "render_curves",
    "PatternMasks", "classify_intervals", "evaluate_patterns",
    "RankTable", "rank_models", "friedman_test", "leaderboard",
    "Corruption", "drop_sensors", "add_noise", "stale_feed",
    "robustness_probe",
    "error_volatility_correlation", "volatility_profile",
    "VolatilityProfile", "per_sensor_errors", "BenchmarkMatrix",
    "export_predictions", "load_predictions", "predictions_to_csv",
]
