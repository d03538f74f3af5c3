"""Versioned checkpoint round-trips across every encoder kind."""

import numpy as np
import pytest

from repro.core import ENCODER_KINDS, build_model
from repro.serve import (
    CHECKPOINT_FORMAT, CHECKPOINT_VERSION, load_checkpoint,
    read_checkpoint_meta, save_checkpoint,
)

FAST = "int main() { int n; cin >> n; cout << n * (n + 1) / 2; return 0; }"
SLOW = """
int main() {
    int n; cin >> n;
    long long s = 0;
    for (int i = 1; i <= n; i++)
        for (int j = 1; j <= i; j++)
            s += j;
    cout << s;
    return 0;
}
"""
MEDIUM = """
int main() {
    int n; cin >> n;
    long long s = 0;
    for (int i = 1; i <= n; i++) s += i;
    cout << s;
    return 0;
}
"""
PAIRS = [(FAST, SLOW), (SLOW, FAST), (FAST, MEDIUM), (MEDIUM, SLOW)]


@pytest.mark.parametrize("kind", ENCODER_KINDS)
def test_roundtrip_bitwise_equal_logits(kind, tmp_path):
    """save -> load into a fresh model -> bitwise-equal logits."""
    model = build_model(encoder_kind=kind, embedding_dim=8, hidden_size=8,
                        seed=3)
    expected = [model.predict_probability(a, b) for a, b in PAIRS]
    path = save_checkpoint(model, tmp_path / f"{kind}.npz")
    loaded = load_checkpoint(path)
    # a fresh process-style model: nothing shared with the original
    assert loaded is not model
    assert loaded.featurizer is not model.featurizer
    got = [loaded.predict_probability(a, b) for a, b in PAIRS]
    assert got == expected  # bitwise, not approx


@pytest.mark.parametrize("kind", ENCODER_KINDS)
def test_roundtrip_preserves_architecture(kind, tmp_path):
    model = build_model(encoder_kind=kind, embedding_dim=8, hidden_size=8,
                        classifier_hidden=4)
    path = save_checkpoint(model, tmp_path / "m.npz")
    loaded = load_checkpoint(path)
    assert loaded.config == model.config
    assert type(loaded.encoder) is type(model.encoder)
    for (na, a), (nb, b) in zip(model.named_parameters(),
                                loaded.named_parameters()):
        assert na == nb
        np.testing.assert_array_equal(a.data, b.data)


def test_suffixless_path_roundtrip(tmp_path):
    model = build_model(embedding_dim=8, hidden_size=8)
    written = save_checkpoint(model, tmp_path / "ckpt")  # no .npz
    assert written.name == "ckpt.npz"
    assert load_checkpoint(tmp_path / "ckpt").config == model.config


def test_meta_header_contents(tmp_path):
    model = build_model(encoder_kind="gcn", embedding_dim=8, hidden_size=8)
    path = save_checkpoint(model, tmp_path / "m.npz",
                           extra={"accuracy": 0.91, "tag": "C"})
    meta = read_checkpoint_meta(path)
    assert meta["format"] == CHECKPOINT_FORMAT
    # inference-only payloads use no v2 feature, so they stay v1-readable
    assert meta["version"] == 1
    assert meta["model"]["encoder_kind"] == "gcn"
    assert meta["extra"] == {"accuracy": 0.91, "tag": "C"}
    assert len(meta["vocab"]["kinds"]) == model.config["vocab_size"] - 1


def test_vocab_travels_with_checkpoint(tmp_path):
    """The loaded featurizer must encode identically to training."""
    model = build_model(embedding_dim=8, hidden_size=8)
    path = save_checkpoint(model, tmp_path / "m.npz")
    loaded = load_checkpoint(path)
    np.testing.assert_array_equal(loaded.featurizer(SLOW).node_ids,
                                  model.featurizer(SLOW).node_ids)


def test_rejects_plain_state_archive(tmp_path):
    from repro.serve import NotACheckpointError

    model = build_model(embedding_dim=8, hidden_size=8)
    np.savez(tmp_path / "plain.npz", **model.state_dict())
    with pytest.raises(NotACheckpointError,
                       match="not a repro-model-checkpoint"):
        load_checkpoint(tmp_path / "plain.npz")


def test_future_version_is_not_a_legacy_fallback(tmp_path):
    """A newer-version checkpoint must surface its version error, not be
    mistaken for a plain state-dict archive (NotACheckpointError)."""
    from repro.nn.serialize import load_state_with_meta, save_state
    from repro.serve import NotACheckpointError

    model = build_model(embedding_dim=8, hidden_size=8)
    path = save_checkpoint(model, tmp_path / "m.npz")
    state, meta = load_state_with_meta(path)
    meta["version"] = CHECKPOINT_VERSION + 1
    save_state(state, tmp_path / "future.npz", meta=meta)
    with pytest.raises(ValueError) as excinfo:
        load_checkpoint(tmp_path / "future.npz")
    assert not isinstance(excinfo.value, NotACheckpointError)


def test_rejects_future_version(tmp_path):
    from repro.nn.serialize import load_state_with_meta, save_state

    model = build_model(embedding_dim=8, hidden_size=8)
    path = save_checkpoint(model, tmp_path / "m.npz")
    state, meta = load_state_with_meta(path)
    meta["version"] = CHECKPOINT_VERSION + 1
    save_state(state, tmp_path / "future.npz", meta=meta)
    with pytest.raises(ValueError, match="newer than this loader"):
        load_checkpoint(tmp_path / "future.npz")


def test_model_without_config_refused(tmp_path):
    from repro.core import ComparativeModel, TreeFeaturizer, PairClassifier
    from repro.core.encoders import TreeLstmEncoder

    featurizer = TreeFeaturizer()
    encoder = TreeLstmEncoder(len(featurizer.vocab), embedding_dim=8,
                              hidden_size=8)
    model = ComparativeModel(encoder, PairClassifier(8), featurizer)
    with pytest.raises(ValueError, match="no .config"):
        save_checkpoint(model, tmp_path / "m.npz")


# ---------------------------------------------------------------------------
# format v2: v1 back-compat and training-state handling
# ---------------------------------------------------------------------------
def _write_v1(model, path):
    """A PR-4-era checkpoint: save_checkpoint still writes exactly that
    (version 1, no training section) for inference-only payloads."""
    written = save_checkpoint(model, path)
    meta = read_checkpoint_meta(written)
    assert meta["version"] == 1 and "training" not in meta
    return written


def test_v1_checkpoint_still_loads_for_inference(tmp_path):
    model = build_model(embedding_dim=8, hidden_size=8, seed=3)
    path = _write_v1(model, tmp_path / "v1.npz")
    assert read_checkpoint_meta(path)["version"] == 1
    loaded = load_checkpoint(path)
    assert loaded.predict_probability(FAST, SLOW) == \
        model.predict_probability(FAST, SLOW)


def test_v1_checkpoint_refuses_training_resume(tmp_path):
    from repro.serve import load_training_checkpoint

    model = build_model(embedding_dim=8, hidden_size=8)
    path = _write_v1(model, tmp_path / "v1.npz")
    with pytest.raises(ValueError, match="inference-only"):
        load_training_checkpoint(path)


def test_training_checkpoint_roundtrips_optimizer_and_rng(tmp_path):
    from repro.engine import Engine, TrainConfig
    from repro.serve import (
        TRAINING_KEY_PREFIX, load_training_checkpoint,
        save_training_checkpoint,
    )

    model = build_model(embedding_dim=8, hidden_size=8, seed=1)
    engine = Engine(model, TrainConfig(epochs=3, seed=7))
    engine.rng.standard_normal(5)          # advance the stream mid-run
    engine.optimizer._t = 11
    for m in engine.optimizer._m:
        m += 0.25
    path = save_training_checkpoint(engine, tmp_path / "train.npz",
                                    extra={"tag": "C"})
    meta = read_checkpoint_meta(path)
    assert meta["version"] == CHECKPOINT_VERSION == 2
    assert meta["training"]["config"]["epochs"] == 3
    assert meta["extra"]["tag"] == "C"

    restored_model, optimizer, training = load_training_checkpoint(path)
    assert optimizer._t == 11
    for m_a, m_b in zip(engine.optimizer._m, optimizer._m):
        np.testing.assert_array_equal(m_a, m_b)
    # RNG stream continues exactly where the saved engine stood
    np.testing.assert_array_equal(
        engine.rng.standard_normal(3),
        _generator_from(training["rng"]).standard_normal(3))
    # training model stays in train mode; weights match bitwise
    assert restored_model.training
    for (name, a), (_, b) in zip(model.named_parameters(),
                                 restored_model.named_parameters()):
        assert np.array_equal(a.data, b.data), name
    # moment arrays travel under the reserved prefix, invisible to
    # the plain inference loader
    from repro.nn.serialize import load_state_with_meta

    state, _ = load_state_with_meta(path)
    assert any(k.startswith(TRAINING_KEY_PREFIX) for k in state)
    assert load_checkpoint(path).training is False


def _generator_from(rng_state):
    rng = np.random.default_rng(0)
    rng.bit_generator.state = rng_state
    return rng
