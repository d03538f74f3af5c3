"""Optimizer state_dict round-trips: exactness, dtype tolerance,
validation, and the checkpoint-reconstruction factory."""

import numpy as np
import pytest

from repro.nn.module import Module, Parameter
from repro.nn.optim import Adam, OPTIMIZERS, optimizer_from_state
from repro.nn.serialize import load_state_with_meta, save_state


class TinyModel(Module):
    def __init__(self):
        super().__init__()
        self.w = Parameter(np.arange(6, dtype=float).reshape(2, 3) / 7.0)
        self.b = Parameter(np.zeros(3))

    def loss(self):
        return ((self.w + self.b) ** 2).sum()


def _take_steps(optimizer, model, n):
    for _ in range(n):
        optimizer.zero_grad()
        model.loss().backward()
        optimizer.step()


ALL_KINDS = [
    ("adam", lambda m: Adam(m.parameters(), lr=0.01)),
]


@pytest.mark.parametrize("kind,factory", ALL_KINDS)
def test_roundtrip_continues_bitwise(kind, factory):
    """load_state_dict into a fresh optimizer -> further steps match the
    uninterrupted original exactly."""
    source_model, resumed_model = TinyModel(), TinyModel()
    source = factory(source_model)
    _take_steps(source, source_model, 3)
    state = source.state_dict()
    assert state["type"] == kind

    resumed_model.load_state_dict(source_model.state_dict())
    resumed = factory(resumed_model)
    resumed.load_state_dict(state)
    _take_steps(source, source_model, 3)
    _take_steps(resumed, resumed_model, 3)
    for (name, a), (_, b) in zip(source_model.named_parameters(),
                                 resumed_model.named_parameters()):
        assert np.array_equal(a.data, b.data), name


def test_adam_state_round_trips_through_npz(tmp_path):
    """Moments survive disk serialization bit-exactly (the path training
    checkpoints take)."""
    model = TinyModel()
    adam = Adam(model.parameters(), lr=0.02)
    _take_steps(adam, model, 4)
    state = adam.state_dict()
    arrays = {f"m.{i}": a for i, a in enumerate(state["m"])}
    arrays.update({f"v.{i}": a for i, a in enumerate(state["v"])})
    save_state(arrays, tmp_path / "opt.npz", meta={})
    loaded, _ = load_state_with_meta(tmp_path / "opt.npz")
    for i, original in enumerate(state["m"]):
        assert np.array_equal(loaded[f"m.{i}"], original)
    for i, original in enumerate(state["v"]):
        assert np.array_equal(loaded[f"v.{i}"], original)


@pytest.mark.parametrize("dtype", [np.float64, np.float32, np.float16,
                                   np.int64])
def test_load_accepts_any_castable_dtype(dtype):
    """Checkpoint arrays may come back in narrower dtypes; loading casts
    to each parameter's training dtype instead of failing."""
    model = TinyModel()
    adam = Adam(model.parameters(), lr=0.01)
    state = adam.state_dict()
    state["m"] = [np.ones_like(m).astype(dtype) for m in state["m"]]
    adam.load_state_dict(state)
    for p, m in zip(adam.parameters, adam._m):
        assert m.dtype == p.data.dtype
        np.testing.assert_array_equal(m, np.ones_like(m))


def test_shape_mismatch_rejected():
    model = TinyModel()
    adam = Adam(model.parameters(), lr=0.01)
    state = adam.state_dict()
    state["m"][0] = np.zeros((5, 5))
    with pytest.raises(ValueError, match="shape"):
        adam.load_state_dict(state)


def test_array_count_mismatch_rejected():
    model = TinyModel()
    adam = Adam(model.parameters(), lr=0.01)
    state = adam.state_dict()
    state["v"] = state["v"][:1]
    with pytest.raises(ValueError, match="arrays for"):
        adam.load_state_dict(state)


def test_wrong_type_tag_rejected():
    model = TinyModel()
    adam = Adam(model.parameters(), lr=0.01)
    state = dict(adam.state_dict(), type="sgd")
    with pytest.raises(ValueError, match="'sgd', not 'adam'"):
        adam.load_state_dict(state)


def test_optimizer_from_state_rebuilds_each_kind():
    for kind, factory in ALL_KINDS:
        model = TinyModel()
        original = factory(model)
        _take_steps(original, model, 2)
        rebuilt = optimizer_from_state(model.parameters(),
                                       original.state_dict())
        assert type(rebuilt) is OPTIMIZERS[kind]
        assert rebuilt.lr == original.lr
        assert rebuilt.state_dict().keys() == original.state_dict().keys()


@pytest.mark.parametrize("kind", ["lion", "sgd"])
def test_optimizer_from_state_unknown_type(kind):
    with pytest.raises(ValueError, match="unknown optimizer type"):
        optimizer_from_state(TinyModel().parameters(),
                             {"type": kind, "lr": 0.1})
