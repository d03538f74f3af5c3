"""The one build-model-and-train entry point every caller composes.

``train_pairs_model`` is the single place a model meets an
:class:`~repro.engine.Engine`: the pipeline's ``run_experiment``, every
paper-figure driver, the Fig. 5 ablations, and the HPO objective all
funnel through it (none of them owns an epoch loop anymore).
"""

from __future__ import annotations

from dataclasses import dataclass

from .loop import Engine, TrainConfig, TrainHistory

__all__ = ["TrainRun", "train_pairs_model"]


@dataclass
class TrainRun:
    """A completed (or resumed-and-completed) training run."""

    model: object
    engine: Engine
    history: TrainHistory

    @property
    def trainer(self):
        """A :class:`~repro.core.Trainer` facade over this run's engine
        (for result objects whose consumers expect the Trainer API)."""
        from ..core.trainer import Trainer

        return Trainer(self.model, engine=self.engine)


def train_pairs_model(pairs, *, train: TrainConfig | None = None,
                      callbacks=(), model=None,
                      encoder_kind: str = "treelstm", embedding_dim: int = 32,
                      hidden_size: int = 32, num_layers: int = 1,
                      direction: str = "alternating",
                      classifier_hidden: int = 0, seed: int = 0,
                      resume_from=None, resume_cast: bool = False) -> TrainRun:
    """Build (or resume) a model and fit it on ``pairs`` via the engine.

    ``callbacks`` are the engine's callbacks (checkpointing, telemetry).
    With ``resume_from`` set, the model/optimizer/RNG come from that
    training checkpoint and ``fit`` continues at the stored epoch —
    ``pairs`` must be the same training pairs the checkpointed run used
    (derive them with the same seeds) for the continuation to be
    bitwise-faithful. ``train`` then overrides the stored config (e.g.
    a larger ``epochs`` budget). ``resume_cast=True`` permits resuming
    across a dtype change (see ``Engine.from_checkpoint``).
    """
    if resume_from is not None:
        # callbacks ride along into from_checkpoint so stateful ones are
        # installed before the restore and recover their saved state
        engine = Engine.from_checkpoint(resume_from, config=train,
                                        callbacks=callbacks,
                                        cast=resume_cast)
    else:
        # Imported lazily: repro.core imports the engine package (the
        # Trainer facade), so a module-level import here would cycle.
        from ..core.model import build_model

        if model is None:
            model = build_model(
                encoder_kind=encoder_kind, embedding_dim=embedding_dim,
                hidden_size=hidden_size, num_layers=num_layers,
                direction=direction, classifier_hidden=classifier_hidden,
                seed=seed)
        engine = Engine(model, train or TrainConfig(), callbacks=callbacks)
    history = engine.fit(pairs)
    return TrainRun(model=engine.model, engine=engine, history=history)
