"""repro.engine — the single resumable, instrumented training loop.

Every training flow in the repository (``Trainer``, ``run_experiment``,
the paper-figure drivers, HPO trials, ``repro train``) is a thin facade
over one :class:`Engine`: an event-driven epoch/step loop that records
each epoch's loss (and validation accuracy, when validation pairs are
given) and each step's pre-clip grad norm in its history, and calls
:class:`~repro.engine.callbacks.Callback` hooks for everything else —
periodic checkpointing, telemetry, benchmark timers.

The engine checkpoints *complete* training state (weights + encoder
config + vocab + optimizer moments + RNG stream + counters + history;
checkpoint format v2, :mod:`repro.serve.checkpoint`), so a run killed at
epoch k and resumed from its checkpoint finishes **bitwise identical**
to the uninterrupted run — and every checkpoint still loads for plain
inference/serving.

Writing a custom callback is three lines — subclass, override a hook,
pass it in::

    from repro.engine import Callback, Engine, TrainConfig

    class LossPlateauWarning(Callback):
        '''Warn when the mean epoch loss stops moving.'''

        def on_epoch_end(self, engine):
            losses = engine.state.history.losses
            if len(losses) >= 2 and abs(losses[-1] - losses[-2]) < 1e-4:
                print(f"epoch {engine.state.epoch}: loss plateaued "
                      f"at {losses[-1]:.4f}")

    engine = Engine(model, TrainConfig(epochs=12),
                    callbacks=[LossPlateauWarning()])
    history = engine.fit(train_pairs, val_pairs=val_pairs)

Hooks: ``on_fit_start``, ``on_epoch_start``, ``on_batch_end``,
``on_epoch_end``, ``on_checkpoint(engine, path)``, ``on_fit_end`` — all
read ``engine.state`` (history, val accuracy, last grad norm and step
time, epoch/step counters). A callback with a ``state_key`` plus
``state_dict``/``load_state_dict`` persists itself inside training
checkpoints (that is how a ``MetricsCallback``'s series survive a
resume).
"""

from .callbacks import Callback, Checkpointing
from .loop import Engine, EngineState, TrainConfig, TrainHistory
from .run import TrainRun, train_pairs_model

__all__ = [
    "Engine", "EngineState", "TrainConfig", "TrainHistory",
    "Callback", "Checkpointing",
    "TrainRun", "train_pairs_model",
]
