"""Training callbacks for :class:`repro.engine.Engine`.

Each hook receives the engine; everything interesting lives on
``engine.state`` (an :class:`~repro.engine.loop.EngineState`) and
``engine.config``. Hooks fire in callback-list order, so a checkpoint
written at epoch end contains the state of every callback installed
before :class:`Checkpointing`.

Callbacks that carry state across epochs implement ``state_dict`` /
``load_state_dict`` and set a unique ``state_key``; the engine folds
those payloads into its training checkpoints so a resumed run restores
them (e.g. :class:`~repro.obs.engine_callback.MetricsCallback`'s
registry).
"""

from __future__ import annotations

__all__ = ["Callback", "Checkpointing"]


class Callback:
    """Base class: every hook is a no-op; override what you need.

    ``state_key`` (a unique string) opts a callback into checkpoint
    persistence via ``state_dict``/``load_state_dict``. ``reset`` is
    called when a fresh (non-resumed) ``fit`` starts.
    """

    state_key: str | None = None

    def on_fit_start(self, engine) -> None:
        pass

    def on_epoch_start(self, engine) -> None:
        pass

    def on_batch_end(self, engine) -> None:
        pass

    def on_epoch_end(self, engine) -> None:
        pass

    def on_checkpoint(self, engine, path) -> None:
        pass

    def on_fit_end(self, engine) -> None:
        pass

    def reset(self) -> None:
        pass

    def state_dict(self) -> dict:
        return {}

    def load_state_dict(self, state: dict) -> None:
        pass


class Checkpointing(Callback):
    """Write a resumable training checkpoint every ``every`` epochs.

    The same path is overwritten each time (a checkpoint is a resume
    point, not an archive); a final checkpoint is always written when
    the run ends, so ``path`` doubles as the run's output model. A
    caller that performs its own end-of-run save to the same path (the
    CLI does, to stamp the evaluation into ``extra``) passes
    ``final_write=False`` to skip the redundant fit-end write. Install
    it *after* the stateful callbacks whose epoch-end update the saved
    state should include.
    """

    def __init__(self, path, every: int = 1, extra: dict | None = None,
                 final_write: bool = True):
        if every < 1:
            raise ValueError("checkpoint interval must be >= 1")
        self.path = path
        self.every = every
        self.extra = extra
        self.final_write = final_write
        self._last_epoch_written = -1

    def reset(self) -> None:
        # a fresh fit() on the same engine must checkpoint again even if
        # the previous run ended on the same epoch number
        self._last_epoch_written = -1

    def _write(self, engine) -> None:
        engine.save_checkpoint(self.path, extra=self.extra)
        self._last_epoch_written = engine.state.epoch

    def on_epoch_end(self, engine) -> None:
        if engine.state.epoch % self.every == 0:
            self._write(engine)

    def on_fit_end(self, engine) -> None:
        # final state always captured — but not twice, when the last
        # epoch already wrote it (or the caller writes its own final)
        if self.final_write and engine.state.epoch != self._last_epoch_written:
            self._write(engine)
