"""`MetricsCallback` acceptance: attaching telemetry must not perturb
training (bitwise), and its registry must ride checkpoints through
kill-and-resume via the `state_key` mechanism."""

import numpy as np
import pytest

from repro.core import build_model
from repro.data import sample_pairs
from repro.engine import Callback, Checkpointing, Engine, TrainConfig
from repro.obs.engine_callback import MetricsCallback
from repro.obs.metrics import MetricsRegistry


def _make_model():
    return build_model(encoder_kind="gcn", embedding_dim=8, hidden_size=8,
                       seed=2)


def _fit(corpus, *, callbacks=(), epochs=3):
    pairs = sample_pairs(corpus, 12, np.random.default_rng(3))
    engine = Engine(_make_model(),
                    TrainConfig(epochs=epochs, batch_size=6, seed=9))
    for callback in callbacks:
        engine.add_callback(callback)
    history = engine.fit(pairs)
    return engine, history


def _counter_total(registry, name):
    family = registry.get(name)
    if family is None:
        return 0.0
    return sum(v for _, v in family.snapshot()["values"])


def _gauge(registry, name):
    [(_, value)] = registry.get(name).snapshot()["values"]
    return value


class TestReadOnly:
    def test_training_with_callback_is_bitwise_identical(self, corpus_c):
        bare, bare_history = _fit(corpus_c)
        metered, metered_history = _fit(corpus_c,
                                        callbacks=[MetricsCallback()])
        assert metered_history.losses == bare_history.losses
        assert metered_history.grad_norms == bare_history.grad_norms
        for (name_a, a), (name_b, b) in zip(
                bare.model.state_dict().items(),
                metered.model.state_dict().items()):
            assert name_a == name_b
            assert np.array_equal(a, b), f"weight drift in {name_a}"


class TestTelemetry:
    def test_epoch_and_step_series_are_recorded(self, corpus_c):
        callback = MetricsCallback()
        engine, history = _fit(corpus_c, callbacks=[callback])
        reg = callback.registry
        assert _counter_total(reg, "repro_train_epochs_total") == 3
        assert _counter_total(
            reg, "repro_train_steps_total") == engine.state.step
        # one latency observation per optimizer step
        hist = reg.get("repro_train_step_latency_seconds")
        [(_, dumped)] = hist.snapshot()["values"]
        assert dumped["count"] == engine.state.step
        # the gauges hold the latest value of each history series
        assert _gauge(reg, "repro_train_epoch_loss") == history.losses[-1]
        assert (_gauge(reg, "repro_train_grad_norm")
                == history.grad_norms[-1])
        assert reg.get("repro_train_pool").snapshot()["values"]

    def test_series_carry_backend_and_dtype_labels(self, corpus_c):
        from repro.nn import backend as nn_backend

        callback = MetricsCallback()
        _fit(corpus_c, callbacks=[callback], epochs=1)
        info = nn_backend.describe()
        family = callback.registry.get("repro_train_epochs_total")
        assert family.labelnames == ("backend", "dtype")
        [(labelvalues, _)] = family.snapshot()["values"]
        assert labelvalues == [str(info["name"]), str(info["dtype"])]

    def test_shared_registry_is_used_in_place(self, corpus_c):
        shared = MetricsRegistry()
        callback = MetricsCallback(registry=shared)
        _fit(corpus_c, callbacks=[callback], epochs=1)
        assert callback.registry is shared
        assert _counter_total(shared, "repro_train_epochs_total") == 1


class KillAfter(Callback):
    class Killed(RuntimeError):
        pass

    def __init__(self, epoch: int):
        self.epoch = epoch

    def on_epoch_end(self, engine):
        if engine.state.epoch == self.epoch:
            raise self.Killed(f"killed at epoch {self.epoch}")


class TestResume:
    def test_state_dict_round_trips_registry(self, corpus_c):
        callback = MetricsCallback()
        _fit(corpus_c, callbacks=[callback], epochs=2)
        state = callback.state_dict()
        fresh = MetricsCallback()
        fresh.load_state_dict(state)
        assert fresh.registry.snapshot() == callback.registry.snapshot()

    def test_stored_records_are_ignored(self, corpus_c):
        """A checkpoint written while the callback still kept per-epoch
        records stores them beside the registry; only the registry
        loads."""
        callback = MetricsCallback()
        _fit(corpus_c, callbacks=[callback], epochs=2)
        state = {**callback.state_dict(),
                 "records": [{"epoch": 1, "loss": 0.7, "grad_norm": 1.2,
                              "pool": {}}]}
        fresh = MetricsCallback()
        fresh.load_state_dict(state)
        assert fresh.state_dict() == callback.state_dict()

    def test_metric_history_survives_kill_and_resume(self, corpus_c,
                                                     tmp_path):
        pairs = sample_pairs(corpus_c, 12, np.random.default_rng(3))
        config = TrainConfig(epochs=4, batch_size=6, seed=9)

        straight_cb = MetricsCallback()
        straight = Engine(_make_model(), config)
        straight.add_callback(straight_cb)
        straight.fit(pairs)

        ckpt = tmp_path / "metered.npz"
        killed_cb = MetricsCallback()
        killed = Engine(_make_model(), config)
        # metrics first: hooks run in add order, so the epoch's update
        # must land before Checkpointing snapshots callback state
        killed.add_callback(killed_cb)
        killed.add_callback(Checkpointing(ckpt, every=1))
        killed.add_callback(KillAfter(2))
        with pytest.raises(KillAfter.Killed):
            killed.fit(pairs)

        resumed_cb = MetricsCallback()
        resumed = Engine.from_checkpoint(ckpt, callbacks=[resumed_cb])
        # epoch-2 state came back before any new training
        assert _counter_total(resumed_cb.registry,
                              "repro_train_epochs_total") == 2
        resumed.fit(pairs)

        # the series continued instead of restarting: counter totals and
        # the last epoch's loss match the uninterrupted run exactly
        assert _counter_total(resumed_cb.registry,
                              "repro_train_epochs_total") == 4
        assert (_gauge(resumed_cb.registry, "repro_train_epoch_loss")
                == _gauge(straight_cb.registry, "repro_train_epoch_loss"))
        assert (_counter_total(resumed_cb.registry,
                               "repro_train_steps_total")
                == _counter_total(straight_cb.registry,
                                  "repro_train_steps_total"))
