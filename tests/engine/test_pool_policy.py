"""The engine's buffer-pool policy: one trim per training step bounds
the backend pool to the previous step's working set, and pooling never
changes what training computes."""

import numpy as np
import pytest

from repro.core import build_model
from repro.data import sample_pairs
from repro.engine import Callback, Engine, TrainConfig
from repro.nn import backend as nn_backend

BACKENDS = ["numpy64", "numpy32"]


class TestStepBoundedPool:
    """The engine trims the backend's buffer pool once per step: the
    pool never holds more than the previous step took, and what it
    recycles cannot change training."""

    def _fit(self, corpus, callbacks=()):
        # Tree-LSTM batches of varying forest size: each step's (K, 2h)
        # pass gradients take the batch's own class count K.
        pairs = sample_pairs(corpus, 21, np.random.default_rng(5))
        engine = Engine(build_model(embedding_dim=8, hidden_size=8, seed=4),
                        TrainConfig(epochs=2, batch_size=4, seed=6),
                        callbacks=callbacks)
        engine.fit(pairs)
        return engine

    @pytest.mark.parametrize("name", BACKENDS)
    def test_pool_holds_one_step_after_each_trim(self, name, corpus_c,
                                                 monkeypatch):
        with nn_backend.use(name) as backend:
            pool = backend.pool
            pool.clear()
            step_bytes = [0]            # bytes taken since the last trim
            trims = []                  # (held before, held after, taken)
            take, trim = pool.take, pool.trim

            def counting_take(shape, dtype):
                buf = take(shape, dtype)
                step_bytes[-1] += buf.nbytes
                return buf

            def recording_trim():
                before = pool.stats()["held_bytes"]
                trim()
                trims.append((before, pool.stats()["held_bytes"],
                              step_bytes[-1]))
                step_bytes.append(0)

            monkeypatch.setattr(pool, "take", counting_take)
            monkeypatch.setattr(pool, "trim", recording_trim)
            engine = self._fit(corpus_c)
            stats = pool.stats()
        assert len(trims) == engine.state.step == 12
        assert all(after <= taken for _, after, taken in trims)
        # shapes of earlier batches were dropped, parameter-shaped
        # buffers kept recycling
        assert any(after < before for before, after, _ in trims)
        assert stats["hits"] > stats["misses"]

    @pytest.mark.parametrize("name", BACKENDS)
    def test_trimmed_pool_trains_bitwise_as_a_cleared_pool(self, name,
                                                           corpus_c):
        class ClearPool(Callback):
            def on_batch_end(self, engine):
                nn_backend.active().pool.clear()

        with nn_backend.use(name):
            pooled = self._fit(corpus_c)
            cleared = self._fit(corpus_c, callbacks=[ClearPool()])
        assert pooled.state.history.losses == cleared.state.history.losses
        assert (pooled.state.history.grad_norms
                == cleared.state.history.grad_norms)
        a, b = pooled.model.state_dict(), cleared.model.state_dict()
        assert a.keys() == b.keys()
        for key in a:
            assert np.array_equal(a[key], b[key]), f"weight drift in {key}"
