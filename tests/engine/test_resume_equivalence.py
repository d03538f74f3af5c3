"""The engine's acceptance bar: kill a run at epoch k, resume from its
checkpoint, and the finished run must be **bitwise identical** to an
uninterrupted one — weights, loss history, grad norms, and eval logits.
This forces optimizer moments and the shuffle RNG stream to be
first-class checkpoint state, for every encoder kind.
"""

from dataclasses import asdict

import numpy as np
import pytest

from repro.core import ENCODER_KINDS, build_model
from repro.data import sample_pairs
from repro.engine import Callback, Checkpointing, Engine, TrainConfig
from repro.nn.tensor import no_grad
from repro.obs import MetricsCallback
from repro.serve import load_checkpoint

from ..helpers import pre_removal_checkpoint


class KillAfter(Callback):
    """Simulate a hard interrupt: raise out of fit() after epoch n."""

    class Killed(RuntimeError):
        pass

    def __init__(self, epoch: int):
        self.epoch = epoch

    def on_epoch_end(self, engine):
        if engine.state.epoch == self.epoch:
            raise self.Killed(f"killed at epoch {self.epoch}")


def _make_model(kind: str):
    return build_model(encoder_kind=kind, embedding_dim=8, hidden_size=8,
                       seed=2)


def _eval_logits(model, pairs):
    feats = [(model.featurizer(p.first.source),
              model.featurizer(p.second.source)) for p in pairs]
    with no_grad():
        return model.pair_logits(feats).data.copy()


@pytest.mark.parametrize("kind", ENCODER_KINDS)
def test_kill_at_epoch_k_and_resume_is_bitwise_identical(
        kind, corpus_c, tmp_path):
    pairs = sample_pairs(corpus_c, 16, np.random.default_rng(3))
    config = TrainConfig(epochs=4, batch_size=8, learning_rate=8e-3, seed=9)

    # Uninterrupted reference run.
    straight = Engine(_make_model(kind), config)
    straight_history = straight.fit(pairs)

    # Interrupted run: checkpoint each epoch, die after epoch 2.
    ckpt = tmp_path / f"{kind}.npz"
    killed = Engine(_make_model(kind), config)
    killed.add_callback(Checkpointing(ckpt, every=1))
    killed.add_callback(KillAfter(2))
    with pytest.raises(KillAfter.Killed):
        killed.fit(pairs)

    # Resume from the epoch-2 checkpoint and finish the budget.
    resumed = Engine.from_checkpoint(ckpt)
    assert resumed.state.epoch == 2
    resumed_history = resumed.fit(pairs)

    # Bitwise: weights ...
    for (name_a, a), (name_b, b) in zip(
            straight.model.state_dict().items(),
            resumed.model.state_dict().items()):
        assert name_a == name_b
        assert np.array_equal(a, b), f"weight drift in {name_a}"
    # ... loss history and grad norms (exact float equality, not approx) ...
    assert resumed_history.losses == straight_history.losses
    assert resumed_history.grad_norms == straight_history.grad_norms
    # ... and eval logits on held-out-style pairs.
    probe = sample_pairs(corpus_c, 10, np.random.default_rng(17))
    np.testing.assert_array_equal(_eval_logits(straight.model, probe),
                                  _eval_logits(resumed.model, probe))


def test_resumed_optimizer_continues_not_restarts(corpus_c, tmp_path):
    """Adam's step counter must survive: a resume that silently reset the
    bias correction would still 'train' but diverge from the reference."""
    pairs = sample_pairs(corpus_c, 12, np.random.default_rng(1))
    config = TrainConfig(epochs=2, batch_size=6, seed=4)
    engine = Engine(_make_model("gcn"), config)
    engine.fit(pairs)
    steps = engine.state.step
    assert engine.optimizer._t == steps > 0
    ckpt = engine.save_checkpoint(tmp_path / "opt.npz")
    resumed = Engine.from_checkpoint(ckpt)
    assert resumed.optimizer._t == steps
    assert resumed.state.step == steps
    for m_a, m_b in zip(engine.optimizer._m, resumed.optimizer._m):
        np.testing.assert_array_equal(m_a, m_b)


def test_training_checkpoint_still_loads_for_inference(corpus_c, tmp_path):
    """A v2 training checkpoint is also a serving checkpoint: the
    training-only arrays are skipped and predictions match exactly."""
    pairs = sample_pairs(corpus_c, 12, np.random.default_rng(5))
    engine = Engine(_make_model("treelstm"),
                    TrainConfig(epochs=2, batch_size=6, seed=0))
    engine.fit(pairs)
    ckpt = engine.save_checkpoint(tmp_path / "v2.npz")
    served = load_checkpoint(ckpt)
    first = pairs[0].first.source
    second = pairs[0].second.source
    assert served.predict_probability(first, second) == \
        engine.model.predict_probability(first, second)


def test_resume_with_extended_epoch_budget(corpus_c, tmp_path):
    """Passing a config override to from_checkpoint extends the run."""
    pairs = sample_pairs(corpus_c, 12, np.random.default_rng(6))
    engine = Engine(_make_model("gcn"), TrainConfig(epochs=2, batch_size=6))
    engine.fit(pairs)
    ckpt = engine.save_checkpoint(tmp_path / "short.npz")
    longer = Engine.from_checkpoint(
        ckpt, config=TrainConfig(epochs=5, batch_size=6))
    history = longer.fit(pairs)
    assert len(history.losses) == 5
    assert longer.state.epoch == 5


class EpochCounter(Callback):
    """Stateful user callback: counts epochs across kill/resume."""

    state_key = "epoch_counter"

    def __init__(self):
        self.epochs_seen = 0

    def on_epoch_end(self, engine):
        self.epochs_seen += 1

    def state_dict(self):
        return {"epochs_seen": self.epochs_seen}

    def load_state_dict(self, state):
        self.epochs_seen = int(state["epochs_seen"])


def test_extra_callback_state_restored_through_train_pairs_model(
        corpus_c, tmp_path):
    """Caller-supplied (extra) callbacks passed at resume time must be
    installed before the state restore, so their checkpointed state
    comes back — the extension point the module advertises."""
    from repro.engine import train_pairs_model

    pairs = sample_pairs(corpus_c, 12, np.random.default_rng(2))
    engine = Engine(_make_model("gcn"), TrainConfig(epochs=2, batch_size=6))
    counter = EpochCounter()
    engine.add_callback(counter)
    engine.fit(pairs)
    assert counter.epochs_seen == 2
    ckpt = engine.save_checkpoint(tmp_path / "cb.npz")

    fresh = EpochCounter()
    run = train_pairs_model(pairs, resume_from=ckpt, callbacks=[fresh],
                            train=TrainConfig(epochs=4, batch_size=6))
    assert run.engine.state.epoch == 4
    assert fresh.epochs_seen == 4          # 2 restored + 2 resumed


def test_ndarray_callback_state_is_checkpointable(corpus_c, tmp_path):
    """A callback state_dict holding ndarrays (a metric buffer, say)
    must serialize instead of crashing the checkpoint write."""
    class BufferCallback(Callback):
        state_key = "buffer"

        def __init__(self):
            self.running = np.zeros(3)

        def state_dict(self):
            return {"running": self.running}

        def load_state_dict(self, state):
            self.running = np.asarray(state["running"], dtype=float)

    pairs = sample_pairs(corpus_c, 12, np.random.default_rng(9))
    engine = Engine(_make_model("gcn"), TrainConfig(epochs=1, batch_size=6))
    buffer = BufferCallback()
    buffer.running[:] = (1.5, 2.5, 3.5)
    engine.add_callback(buffer)
    engine.fit(pairs)
    ckpt = engine.save_checkpoint(tmp_path / "buf.npz")

    fresh = BufferCallback()
    Engine.from_checkpoint(ckpt, callbacks=[fresh])
    np.testing.assert_array_equal(fresh.running, [1.5, 2.5, 3.5])


class TestPreRemovalCheckpoint:
    """A checkpoint whose header still stores the removed options (at
    their off values), ``stopped_early`` and the metrics records resumes
    to the uninterrupted run; one that had an option switched on is
    refused, naming it."""

    CONFIG = TrainConfig(epochs=4, batch_size=6, seed=9)

    def _killed_at_two(self, corpus, tmp_path):
        pairs = sample_pairs(corpus, 12, np.random.default_rng(3))
        ckpt = tmp_path / "killed.npz"
        killed = Engine(_make_model("gcn"), self.CONFIG)
        killed.add_callback(MetricsCallback())
        killed.add_callback(Checkpointing(ckpt, every=1))
        killed.add_callback(KillAfter(2))
        with pytest.raises(KillAfter.Killed):
            killed.fit(pairs)
        return pairs, ckpt

    def test_resumes_bitwise(self, corpus_c, tmp_path):
        pairs, ckpt = self._killed_at_two(corpus_c, tmp_path)
        straight = Engine(_make_model("gcn"), self.CONFIG)
        straight_history = straight.fit(pairs)

        legacy = pre_removal_checkpoint(ckpt, tmp_path / "legacy.npz")
        metrics = MetricsCallback()
        resumed = Engine.from_checkpoint(legacy, callbacks=[metrics])
        assert resumed.config == self.CONFIG
        epochs = metrics.registry.get("repro_train_epochs_total")
        assert sum(v for _, v in epochs.snapshot()["values"]) == 2
        history = resumed.fit(pairs)

        for (name_a, a), (name_b, b) in zip(
                straight.model.state_dict().items(),
                resumed.model.state_dict().items()):
            assert name_a == name_b
            assert np.array_equal(a, b), f"weight drift in {name_a}"
        assert history.losses == straight_history.losses
        assert history.grad_norms == straight_history.grad_norms

    @pytest.mark.parametrize("option", [{"accum_steps": 2},
                                        {"early_stop_patience": 3}])
    def test_switched_on_option_is_refused(self, option, corpus_c,
                                           tmp_path):
        _, ckpt = self._killed_at_two(corpus_c, tmp_path)
        legacy = pre_removal_checkpoint(ckpt, tmp_path / "legacy.npz",
                                        **option)
        [key] = option
        with pytest.raises(ValueError, match=key):
            Engine.from_checkpoint(legacy)


class TestConfigPayload:
    """``TrainConfig.from_payload`` rebuilds the config a training
    checkpoint stores; a removed option is dropped only at its off
    value."""

    CONFIG = TrainConfig(epochs=7, batch_size=5, learning_rate=1e-3,
                         grad_clip=2.0, seed=4, eval_batch_size=32)

    def test_round_trips_asdict(self):
        assert TrainConfig.from_payload(asdict(self.CONFIG)) == self.CONFIG

    @pytest.mark.parametrize("key, off", [("accum_steps", 1),
                                          ("early_stop_patience", 0),
                                          ("verbose", False)])
    def test_removed_option_at_off_value_is_dropped(self, key, off):
        payload = {**asdict(self.CONFIG), key: off}
        assert TrainConfig.from_payload(payload) == self.CONFIG

    @pytest.mark.parametrize("key, on", [("accum_steps", 2),
                                         ("early_stop_patience", 3),
                                         ("verbose", True)])
    def test_removed_option_switched_on_is_refused(self, key, on):
        with pytest.raises(ValueError, match=key):
            TrainConfig.from_payload({**asdict(self.CONFIG), key: on})

    def test_payload_is_left_untouched(self):
        payload = {**asdict(self.CONFIG), "accum_steps": 1}
        before = dict(payload)
        TrainConfig.from_payload(payload)
        assert payload == before

    def test_unknown_key_is_refused(self):
        with pytest.raises(TypeError):
            TrainConfig.from_payload({**asdict(self.CONFIG),
                                      "momentum": 0.9})
