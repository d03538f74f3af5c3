"""The paper's contribution: comparative performance prediction from ASTs.

``TreeFeaturizer`` turns source into model-ready trees; ``build_model``
assembles encoder F (tree-LSTM or GCN) + classifier C; ``Trainer``
optimizes BCE over code pairs; ``evaluate``/``pipeline`` implement the
paper's measurement protocols end to end.

Every name below is imported from its submodule on first access
(:mod:`repro._lazy`), so importing one of them loads only what it needs.
"""

from .._lazy import lazy_exports

#: The encoder kinds ``build_model`` accepts. Defined here rather than
#: in :mod:`repro.core.model` so the CLI can offer them as choices
#: without loading numpy.
ENCODER_KINDS = ("treelstm", "gcn", "lstm")

__getattr__ = lazy_exports(__name__, {
    "features": ("TreeFeatures", "TreeFeaturizer", "ForestFeatures",
                 "pack_forest"),
    "encoders": ("TreeLstmEncoder", "GcnEncoder", "LstmEncoder"),
    "classifier": ("PairClassifier",),
    "model": ("ComparativeModel", "build_model", "model_from_config"),
    "trainer": ("TrainConfig", "TrainHistory", "Trainer"),
    "metrics": ("accuracy", "confusion", "RocCurve", "roc_curve", "auc"),
    "evaluate": ("EvalResult", "evaluate_on_pairs", "sensitivity_curve"),
    "pipeline": ("ExperimentConfig", "ExperimentResult", "run_experiment",
                 "PerformanceGate"),
    "baselines": ("NodeCountHeuristic", "LoopNestingHeuristic",
                  "WeightedConstructHeuristic", "AbsoluteRuntimeRegressor",
                  "baseline_accuracy"),
})

__all__ = [
    "TreeFeatures", "TreeFeaturizer", "ForestFeatures", "pack_forest",
    "TreeLstmEncoder", "GcnEncoder", "LstmEncoder", "PairClassifier",
    "ComparativeModel", "build_model", "model_from_config", "ENCODER_KINDS",
    "TrainConfig", "TrainHistory", "Trainer",
    "accuracy", "confusion", "RocCurve", "roc_curve", "auc",
    "EvalResult", "evaluate_on_pairs", "sensitivity_curve",
    "ExperimentConfig", "ExperimentResult", "run_experiment",
    "PerformanceGate",
    "NodeCountHeuristic", "LoopNestingHeuristic",
    "WeightedConstructHeuristic", "AbsoluteRuntimeRegressor",
    "baseline_accuracy",
]
