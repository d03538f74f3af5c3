"""End-to-end pipeline (the paper's Fig. 1 and the "development-phase"
integration of Section I).

``run_experiment`` goes from a submission list to a trained model and
its disjoint-split accuracy in one call — the unit every benchmark
composes. ``PerformanceGate`` wraps a trained model as the tool the
paper envisions: given the current and the proposed version of a
source file, flag likely regressions before any test is run.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..corpus.problem import Submission
from ..data.pairs import CodePair, sample_pairs
from ..data.splits import split_submissions
from ..engine import train_pairs_model
from .evaluate import EvalResult, evaluate_on_pairs
from .model import ComparativeModel
from .trainer import TrainConfig, Trainer

__all__ = ["ExperimentConfig", "ExperimentResult", "run_experiment",
           "PerformanceGate"]


@dataclass
class ExperimentConfig:
    """One training run's knobs (model + data + optimization)."""

    encoder_kind: str = "treelstm"
    embedding_dim: int = 24
    hidden_size: int = 24
    num_layers: int = 1
    direction: str = "alternating"
    train_fraction: float = 0.75
    train_pairs: int = 150
    eval_pairs: int = 120
    two_way: bool = False
    seed: int = 0
    train: TrainConfig = field(default_factory=lambda: TrainConfig(
        epochs=10, batch_size=16, learning_rate=5e-3))


@dataclass
class ExperimentResult:
    trainer: Trainer
    evaluation: EvalResult | None
    train_submissions: list[Submission]
    test_submissions: list[Submission]
    history: object


def run_experiment(submissions: list[Submission],
                   config: ExperimentConfig | None = None,
                   model: ComparativeModel | None = None,
                   callbacks=(),
                   resume_from=None, resume_cast: bool = False) -> ExperimentResult:
    """Split -> pair -> train (via :mod:`repro.engine`) -> evaluate.

    ``callbacks`` are the engine's callbacks (checkpointing, custom
    instrumentation). ``resume_from`` continues a killed run from
    its training checkpoint: the data split and pair sample are
    re-derived deterministically from ``config.seed``, while weights,
    optimizer moments, and the shuffle RNG come from the checkpoint —
    so the finished run is bitwise-identical to an uninterrupted one.
    Setting ``config.eval_pairs = 0`` skips the held-out evaluation
    (``evaluation`` is then ``None``), which the paper-figure drivers
    use when they score the model themselves later.
    """
    config = config or ExperimentConfig()
    rng = np.random.default_rng(config.seed)
    train_subs, test_subs = split_submissions(
        submissions, config.train_fraction, rng)
    train_pairs = sample_pairs(train_subs, config.train_pairs, rng,
                               two_way=config.two_way)
    test_pairs = (sample_pairs(test_subs, config.eval_pairs, rng)
                  if config.eval_pairs else [])
    run = train_pairs_model(
        train_pairs, train=config.train, callbacks=callbacks, model=model,
        encoder_kind=config.encoder_kind, embedding_dim=config.embedding_dim,
        hidden_size=config.hidden_size, num_layers=config.num_layers,
        direction=config.direction, seed=config.seed,
        resume_from=resume_from, resume_cast=resume_cast)
    trainer = run.trainer
    evaluation = evaluate_on_pairs(trainer, test_pairs) if test_pairs else None
    return ExperimentResult(trainer=trainer, evaluation=evaluation,
                            train_submissions=train_subs,
                            test_submissions=test_subs, history=run.history)


class PerformanceGate:
    """Developer-facing wrapper: compare two versions of a program.

    ``check(old, new)`` returns the model's probability that the *new*
    version is slower than the old one, plus an accept/flag decision at
    a confidence threshold chosen per Section VII (raising it trades
    recall for precision on regressions).
    """

    def __init__(self, model: ComparativeModel, flag_threshold: float = 0.5):
        if not 0.0 < flag_threshold < 1.0:
            raise ValueError("flag_threshold must be in (0, 1)")
        self.model = model
        self.flag_threshold = flag_threshold

    def regression_probability(self, old_source: str, new_source: str) -> float:
        """P(new is slower-or-equal than old).

        Eq. (1) labels a pair (p_i, p_j) with 1 when p_i is slower; to
        score the *new* version we place it first.
        """
        return self.model.predict_probability(new_source, old_source)

    def check(self, old_source: str, new_source: str) -> dict:
        prob = self.regression_probability(old_source, new_source)
        return {
            "regression_probability": prob,
            "flagged": prob >= self.flag_threshold,
            "threshold": self.flag_threshold,
        }
