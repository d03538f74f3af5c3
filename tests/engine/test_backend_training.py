"""Backend-facing training guarantees: the pooled training step is
repeatable bit for bit, resume stays bitwise *within* each backend, and
checkpoints refuse a silent cross-dtype load."""

import json

import numpy as np
import pytest

from repro.core import build_model
from repro.data import sample_pairs
from repro.engine import Engine, TrainConfig
from repro.nn import backend as nn_backend
from repro.serve import load_checkpoint, save_checkpoint
from repro.serve.checkpoint import (CheckpointDtypeError,
                                    load_training_checkpoint,
                                    read_checkpoint_meta)

BACKENDS = ["numpy64", "numpy32"]


def _drop_dtype_fields(meta: dict) -> None:
    meta.pop("dtype")
    meta.pop("backend")


def _stamp_cnative(meta: dict) -> None:
    meta["backend"] = "cnative"


def _rewrite_meta(path, out, rewrite):
    """Copy the checkpoint at ``path`` to ``out`` with ``rewrite``
    applied to its JSON metadata in place."""
    data = dict(np.load(path, allow_pickle=False))
    meta = json.loads(data["__meta__"].tobytes().decode("utf-8"))
    rewrite(meta)
    data["__meta__"] = np.frombuffer(json.dumps(meta).encode("utf-8"),
                                     dtype=np.uint8)
    np.savez(out, **data)
    return out


def _model(kind="gcn", seed=2):
    return build_model(encoder_kind=kind, embedding_dim=8, hidden_size=8,
                       seed=seed)


class TestFusedStep:
    def _grads(self, corpus):
        pairs = sample_pairs(corpus, 12, np.random.default_rng(3))
        engine = Engine(_model(), TrainConfig(epochs=1, batch_size=12,
                                              seed=7))
        batch = engine._featurize_pairs(pairs)
        engine._accumulate_gradients(batch)
        return [p.grad.copy() for p in engine.optimizer.parameters]

    def test_pooled_step_is_bitwise_repeatable(self, corpus_c):
        # The pooled buffers start zeroed, so two identical steps
        # cannot differ.
        a = self._grads(corpus_c)
        b = self._grads(corpus_c)
        for g1, g2 in zip(a, b):
            np.testing.assert_array_equal(g1, g2)


class TestResumePerBackend:
    @pytest.mark.parametrize("name", BACKENDS)
    def test_resume_is_bitwise_within_backend(self, name, corpus_c, tmp_path):
        with nn_backend.use(name):
            pairs = sample_pairs(corpus_c, 10, np.random.default_rng(4))

            straight = Engine(_model(seed=3),
                              TrainConfig(epochs=3, batch_size=5, seed=11))
            straight.fit(pairs)

            ckpt = tmp_path / f"{name}.npz"
            half = Engine(_model(seed=3),
                          TrainConfig(epochs=2, batch_size=5, seed=11))
            half.fit(pairs)
            half.save_checkpoint(ckpt)
            resumed = Engine.from_checkpoint(
                ckpt, config=TrainConfig(epochs=3, batch_size=5, seed=11))
            resumed.fit(pairs)

            for (key_a, a), (key_b, b) in zip(
                    straight.model.state_dict().items(),
                    resumed.model.state_dict().items()):
                assert key_a == key_b
                assert a.dtype == nn_backend.default_dtype()
                assert np.array_equal(a, b), f"weight drift in {key_a}"


class TestCheckpointDtype:
    def test_meta_records_dtype_and_backend(self, corpus_c, tmp_path):
        with nn_backend.use("numpy32"):
            path = save_checkpoint(_model(), tmp_path / "m32.npz")
            meta = read_checkpoint_meta(path)
        assert meta["dtype"] == "float32"
        assert meta["backend"] == "numpy32"

    def test_default_backend_records_float64(self, corpus_c, tmp_path):
        with nn_backend.use("numpy64"):
            path = save_checkpoint(_model(), tmp_path / "m64.npz")
        assert read_checkpoint_meta(path)["dtype"] == "float64"

    def test_cross_dtype_load_refuses_without_cast(self, corpus_c, tmp_path):
        with nn_backend.use("numpy64"):
            path = save_checkpoint(_model(), tmp_path / "m64.npz")
        with nn_backend.use("numpy32"):
            with pytest.raises(CheckpointDtypeError) as err:
                load_checkpoint(path)
        assert err.value.stored == "float64"
        assert err.value.active == "float32"
        assert "--cast" in str(err.value)

    def test_cast_converts_weights_to_active_dtype(self, corpus_c, tmp_path):
        with nn_backend.use("numpy64"):
            model = _model()
            path = save_checkpoint(model, tmp_path / "m64.npz")
        with nn_backend.use("numpy32"):
            loaded = load_checkpoint(path, cast=True)
            for key, value in loaded.state_dict().items():
                assert value.dtype == np.float32, key
                np.testing.assert_allclose(
                    value, model.state_dict()[key].astype(np.float32))

    def test_training_checkpoint_gated_too(self, corpus_c, tmp_path):
        with nn_backend.use("numpy64"):
            pairs = sample_pairs(corpus_c, 8, np.random.default_rng(6))
            engine = Engine(_model(), TrainConfig(epochs=1, batch_size=4))
            engine.fit(pairs)
            ckpt = engine.save_checkpoint(tmp_path / "train64.npz")
        with nn_backend.use("numpy32"):
            with pytest.raises(CheckpointDtypeError):
                load_training_checkpoint(ckpt)
            resumed = Engine.from_checkpoint(ckpt, cast=True)
            for p in resumed.optimizer.parameters:
                assert p.data.dtype == np.float32

    def test_same_dtype_load_needs_no_cast(self, corpus_c, tmp_path):
        with nn_backend.use("numpy32"):
            path = save_checkpoint(_model(), tmp_path / "m32.npz")
            loaded = load_checkpoint(path)
            assert all(v.dtype == np.float32
                       for v in loaded.state_dict().values())

    @pytest.mark.parametrize("rewrite", [_drop_dtype_fields,
                                         _stamp_cnative],
                             ids=["pre-backend", "cnative"])
    def test_pre_backend_checkpoints_default_to_float64(self, rewrite,
                                                        corpus_c,
                                                        tmp_path):
        # A checkpoint written before the dtype field existed, or one the
        # deleted float64 ``cnative`` backend stamped, loads unchanged on
        # the default backend without a cast: loaders compare the dtype
        # only, never the backend name. Both checkpoint kinds are covered.
        with nn_backend.use("numpy64"):
            model = _model()
            plain = save_checkpoint(model, tmp_path / "plain.npz")
            pairs = sample_pairs(corpus_c, 8, np.random.default_rng(6))
            engine = Engine(_model(), TrainConfig(epochs=1, batch_size=4))
            engine.fit(pairs)
            training = engine.save_checkpoint(tmp_path / "train.npz")

            loaded = load_checkpoint(
                _rewrite_meta(plain, tmp_path / "plain_rw.npz", rewrite))
            resumed = Engine.from_checkpoint(
                _rewrite_meta(training, tmp_path / "train_rw.npz", rewrite))
        for original, restored in ((model, loaded),
                                   (engine.model, resumed.model)):
            for key, value in original.state_dict().items():
                stored = restored.state_dict()[key]
                assert stored.dtype == np.float64, key
                np.testing.assert_array_equal(stored, value)
        assert resumed.state.epoch == engine.state.epoch
