"""Versioned model checkpoints: one ``.npz``, zero caller-side config.

A checkpoint bundles everything a fresh process needs to serve a
trained :class:`~repro.core.ComparativeModel`:

* the flat weight state dict (the arrays of ``Module.state_dict``),
* the architecture config (``encoder_kind``, dims, layers, ...),
* the node vocabulary (so featurization is bit-identical to training),
* free-form user metadata (training accuracy, corpus tag, ...),

all inside the single archive, using the JSON metadata header of
:mod:`repro.nn.serialize`. ``load_checkpoint(path)`` therefore
reconstructs a ready-to-predict model with no sidecar files and no
re-specified hyper-parameters — the property the serving layer depends
on for hot checkpoint swaps. The header readers
(:func:`read_checkpoint_meta`, :func:`checkpoint_signature`) live in
the numpy-free :mod:`repro.serve.checkpoint_meta` and are re-exported
here.

Format versions
---------------
* **v1** (PR 4): inference payload only — weights + config + vocab.
* **v2**: adds an optional ``training`` section so a run can *resume*
  bitwise-identically: the optimizer's full state (Adam moments and
  step counter as extra arrays under the reserved ``__train__.``
  prefix), the shuffle RNG's bit-generator state, epoch/step counters,
  the metric history, and checkpoint-persistent callback state (e.g.
  a ``MetricsCallback``'s registry). Written by
  :func:`save_training_checkpoint` / ``Engine.save_checkpoint``.

Both versions load for inference through :func:`load_checkpoint` (v2's
training arrays are simply skipped); :func:`load_training_checkpoint`
additionally rebuilds the optimizer and returns the training section.
Loaders reject checkpoints from a *newer* format than they understand
rather than mis-reading them.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

from ..core.features import TreeFeaturizer
from ..core.model import ComparativeModel, model_from_config
from ..lang.vocab import NodeVocab
from ..nn import backend as nn_backend
from ..nn.optim import Optimizer, optimizer_from_state
from ..nn.serialize import load_state_with_meta, save_state
from .checkpoint_meta import (
    CHECKPOINT_FORMAT, CHECKPOINT_VERSION, NotACheckpointError,
    checkpoint_signature, read_checkpoint_meta, validated_meta,
)

__all__ = ["save_checkpoint", "load_checkpoint", "read_checkpoint_meta",
           "save_training_checkpoint", "load_training_checkpoint",
           "checkpoint_signature", "NotACheckpointError",
           "CheckpointDtypeError",
           "CHECKPOINT_FORMAT", "CHECKPOINT_VERSION", "TRAINING_KEY_PREFIX"]

#: Archive keys under this prefix are training-only state (optimizer
#: moment arrays), invisible to inference loads.
TRAINING_KEY_PREFIX = "__train__."


class CheckpointDtypeError(ValueError):
    """The checkpoint's recorded dtype differs from the active backend's.

    Loading a float64 checkpoint into a float32 process (or vice versa)
    silently changes every weight — and, on resume, breaks the bitwise
    continuation guarantee — so cross-dtype loads must be requested
    explicitly with ``cast=True`` (CLI: ``--cast``). Carries the facts a
    caller needs to decide: ``stored``, ``active``, and ``path``.
    """

    def __init__(self, stored: str, active: str, path):
        self.stored = stored
        self.active = active
        self.path = str(path)
        super().__init__(
            f"checkpoint {path} stores {stored} weights but the active "
            f"backend runs {active}; pass cast=True (CLI: --cast) to "
            "convert explicitly, or select a matching backend "
            "(REPRO_BACKEND / --backend)")


def _checkpoint_dtype(model: ComparativeModel) -> str:
    for p in model.parameters():
        return np.dtype(p.data.dtype).name
    return np.dtype(nn_backend.default_dtype()).name


def _check_dtype(meta: dict, path, cast: bool) -> None:
    # Pre-v2 checkpoints predate the dtype policy: everything was float64.
    stored = str(meta.get("dtype", "float64"))
    active = np.dtype(nn_backend.default_dtype()).name
    if stored != active and not cast:
        raise CheckpointDtypeError(stored, active, path)


def _model_meta(model: ComparativeModel, extra: dict | None,
                version: int = 1) -> dict:
    config = getattr(model, "config", None)
    if not isinstance(config, dict):
        raise ValueError(
            "model has no .config dict; build it with build_model()/"
            "model_from_config() or set model.config before checkpointing")
    return {
        "format": CHECKPOINT_FORMAT,
        "version": version,
        "model": dict(config),
        "vocab": model.featurizer.vocab.to_payload(),
        # The weights' float width + producing backend: loaders refuse a
        # silent cross-dtype load (see CheckpointDtypeError).
        "dtype": _checkpoint_dtype(model),
        "backend": nn_backend.active().name,
        "extra": dict(extra) if extra else {},
    }


def save_checkpoint(model: ComparativeModel, path,
                    extra: dict | None = None) -> Path:
    """Write ``model`` (weights + config + vocab) to one ``.npz``.

    ``model`` must carry the ``config`` dict that :func:`~repro.core.build_model`
    attaches; hand-assembled models need to set it before checkpointing.
    ``extra`` is any JSON-serializable user metadata (e.g. eval
    accuracy); it is returned verbatim by :func:`read_checkpoint_meta`.
    Returns the normalized path actually written.

    The archive is stamped **version 1**: an inference-only payload uses
    no v2 feature, so v1-era readers stay able to load it. Only
    :func:`save_training_checkpoint` (which adds the training section)
    stamps version 2.
    """
    return save_state(model.state_dict(), path,
                      meta=_model_meta(model, extra, version=1))


def save_training_checkpoint(engine, path, extra: dict | None = None) -> Path:
    """Write a **resumable** checkpoint for a mid-run training engine.

    ``engine`` is a :class:`repro.engine.Engine` (duck-typed: ``model``,
    ``optimizer``, ``training_state()``). The archive carries the full
    v1 inference payload plus the optimizer's moment arrays (under
    ``__train__.opt.<key>.<index>``) and a JSON ``training`` section
    with the RNG stream, counters, history, and callback state —
    everything :func:`load_training_checkpoint` needs to continue the
    run bitwise-identically.
    """
    meta = _model_meta(engine.model, extra, version=CHECKPOINT_VERSION)
    training = engine.training_state()
    optimizer_state = engine.optimizer.state_dict()
    arrays = dict(engine.model.state_dict())
    optimizer_meta = {}
    array_lists = {}
    for key, value in optimizer_state.items():
        if isinstance(value, list) and value and isinstance(value[0], np.ndarray):
            array_lists[key] = len(value)
            for i, arr in enumerate(value):
                arrays[f"{TRAINING_KEY_PREFIX}opt.{key}.{i:04d}"] = arr
        else:
            optimizer_meta[key] = value
    optimizer_meta["array_lists"] = array_lists
    training["optimizer"] = optimizer_meta
    meta["training"] = training
    return save_state(arrays, path, meta=meta)


def _rebuild_model(state: dict, meta: dict) -> ComparativeModel:
    vocab = NodeVocab.from_payload(meta["vocab"])
    featurizer = TreeFeaturizer(vocab=vocab)
    model = model_from_config(meta["model"], featurizer=featurizer)
    weights = {k: v for k, v in state.items()
               if not k.startswith(TRAINING_KEY_PREFIX)}
    model.load_state_dict(weights)
    return model


def load_checkpoint(path, cast: bool = False) -> ComparativeModel:
    """Rebuild a ready model from a checkpoint written by
    :func:`save_checkpoint` (or a v2 training checkpoint, whose
    training-only arrays are skipped without being read) —
    architecture, vocabulary, and weights all come from the archive.

    If the recorded dtype differs from the active backend's, the load
    fails with :class:`CheckpointDtypeError` unless ``cast=True``
    explicitly requests the conversion.
    """
    state, meta = load_state_with_meta(path,
                                       skip_prefix=TRAINING_KEY_PREFIX)
    meta = validated_meta(meta, path)
    _check_dtype(meta, path, cast)
    model = _rebuild_model(state, meta)
    model.eval()
    return model


def load_training_checkpoint(path, cast: bool = False,
                             ) -> tuple[ComparativeModel, Optimizer, dict]:
    """Rebuild ``(model, optimizer, training_section)`` from a v2
    training checkpoint, ready for ``Engine.from_checkpoint`` to resume.

    The model comes back in *train* mode; the optimizer is
    reconstructed from its recorded type/hyper-parameters with its
    moment arrays and step counter restored exactly. Cross-dtype resume
    breaks the bitwise-continuation guarantee, so it requires an
    explicit ``cast=True`` (which converts weights *and* moments to the
    active dtype) — otherwise :class:`CheckpointDtypeError`.
    """
    state, meta = load_state_with_meta(path)
    meta = validated_meta(meta, path)
    _check_dtype(meta, path, cast)
    training = meta.get("training")
    if not training:
        raise ValueError(
            f"{path} is an inference-only checkpoint (no training state); "
            "use load_checkpoint() or restart training from scratch")
    model = _rebuild_model(state, meta)
    model.train()
    optimizer_meta = dict(training["optimizer"])
    array_lists = optimizer_meta.pop("array_lists", {})
    for key, count in array_lists.items():
        optimizer_meta[key] = [
            state[f"{TRAINING_KEY_PREFIX}opt.{key}.{i:04d}"]
            for i in range(int(count))]
    optimizer = optimizer_from_state(model.parameters(), optimizer_meta)
    return model, optimizer, training
