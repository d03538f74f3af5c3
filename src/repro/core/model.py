"""ComparativeModel: the full F + C pipeline of the paper (Fig. 1)."""

from __future__ import annotations

import numpy as np

from ..nn.module import Module
from ..nn.tensor import Tensor, no_grad
from . import ENCODER_KINDS
from .classifier import PairClassifier
from .encoders import GcnEncoder, LstmEncoder, TreeLstmEncoder
from .features import TreeFeatures, TreeFeaturizer

__all__ = ["ComparativeModel", "build_model", "model_from_config",
           "ENCODER_KINDS"]


class ComparativeModel(Module):
    """Encoder + pair classifier over featurized ASTs."""

    def __init__(self, encoder: Module, classifier: PairClassifier,
                 featurizer: TreeFeaturizer):
        super().__init__()
        self.encoder = encoder
        self.classifier = classifier
        self.featurizer = featurizer

    # ------------------------------------------------------------------
    def pair_logit(self, first: TreeFeatures, second: TreeFeatures) -> Tensor:
        z_i = self.encoder(first)
        z_j = self.encoder(second)
        return self.classifier.logit(z_i, z_j)

    def pair_logits(self, pairs: list[tuple[TreeFeatures, TreeFeatures]]) -> Tensor:
        """Batched logits, (B,): all 2B trees encoded in ONE fused pass.

        This is the training/eval hot path: the whole batch shares one
        forward (and, during training, one backward) graph instead of 2B
        separate encoder invocations. Row ``b`` is numerically
        equivalent to ``pair_logit(*pairs[b])``.
        """
        if not pairs:
            raise ValueError("pair_logits requires at least one pair")
        feats = [f for pair in pairs for f in pair]
        z = self.encoder.encode_batch(feats)      # (2B, d), interleaved
        return self.classifier.logits(z[0::2], z[1::2])

    def pair_logit_from_source(self, source_i: str, source_j: str) -> Tensor:
        return self.pair_logit(self.featurizer(source_i),
                               self.featurizer(source_j))

    # ------------------------------------------------------------------
    def predict_probability(self, source_i: str, source_j: str) -> float:
        """P(label=1) = P(first is slower-or-equal | both ASTs)."""
        with no_grad():
            return float(self.pair_logit_from_source(source_i, source_j)
                         .sigmoid().data)

    def predict_label(self, source_i: str, source_j: str,
                      threshold: float = 0.5) -> int:
        return int(self.predict_probability(source_i, source_j) >= threshold)

    def embed(self, source: str) -> np.ndarray:
        """Latent code vector for one source (for Fig. 7 and reuse)."""
        with no_grad():
            return self.encoder(self.featurizer(source)).data.copy()

    def embed_batch(self, sources: list[str], batch_size: int = 64) -> np.ndarray:
        """Latent code vectors for many sources, (T, d), forest-batched.

        Identical sources are encoded **once** and fanned back out to
        every position that requested them (submission corpora and
        serving traffic both repeat sources heavily), so the encoder
        only ever sees the unique trees.
        """
        if batch_size < 1:
            raise ValueError("batch_size must be positive")
        if not sources:
            return np.zeros((0, self.encoder.output_size))
        unique: dict[str, int] = {}
        slot_of = [unique.setdefault(s, len(unique)) for s in sources]
        ordered = list(unique)
        codes = np.empty((len(ordered), self.encoder.output_size))
        with no_grad():
            for start in range(0, len(ordered), batch_size):
                chunk = ordered[start:start + batch_size]
                feats = [self.featurizer(s) for s in chunk]
                codes[start:start + len(chunk)] = \
                    self.encoder.encode_batch(feats).data
        return codes[slot_of]


def build_model(encoder_kind: str = "treelstm", vocab_size: int | None = None,
                embedding_dim: int = 32, hidden_size: int = 32,
                num_layers: int = 1, direction: str = "alternating",
                classifier_hidden: int = 0,
                seed: int = 0,
                featurizer: TreeFeaturizer | None = None) -> ComparativeModel:
    """Factory with experiment-friendly defaults.

    Note the *paper-scale* configuration is ``embedding_dim=120,
    hidden_size=100`` (Section V-C); the defaults here are smaller so
    the pure-numpy stack trains in seconds. Both are exercised in the
    benchmark harness.
    """
    if encoder_kind not in ENCODER_KINDS:
        raise ValueError(f"unknown encoder kind {encoder_kind!r}")
    featurizer = featurizer if featurizer is not None else TreeFeaturizer()
    if vocab_size is None:
        vocab_size = len(featurizer.vocab)
    rng = np.random.default_rng(seed)
    if encoder_kind == "treelstm":
        encoder = TreeLstmEncoder(vocab_size, embedding_dim=embedding_dim,
                                  hidden_size=hidden_size,
                                  num_layers=num_layers, direction=direction,
                                  rng=rng)
    elif encoder_kind == "gcn":
        encoder = GcnEncoder(vocab_size, embedding_dim=embedding_dim,
                             hidden_size=hidden_size, num_layers=num_layers,
                             rng=rng)
    else:
        if num_layers != 1:
            raise ValueError("the sequential lstm encoder is single-layer; "
                             "got num_layers=%d" % num_layers)
        if direction != "alternating":
            raise ValueError("direction is a tree-LSTM knob; the sequential "
                             "lstm encoder does not accept "
                             f"direction={direction!r}")
        encoder = LstmEncoder(vocab_size, embedding_dim=embedding_dim,
                              hidden_size=hidden_size, rng=rng)
    classifier = PairClassifier(encoder.output_size,
                                hidden=classifier_hidden, rng=rng)
    model = ComparativeModel(encoder, classifier, featurizer)
    model.config = {
        "encoder_kind": encoder_kind, "vocab_size": vocab_size,
        "embedding_dim": embedding_dim, "hidden_size": hidden_size,
        "num_layers": num_layers, "direction": direction,
        "classifier_hidden": classifier_hidden, "seed": seed,
    }
    return model


def model_from_config(config: dict,
                      featurizer: TreeFeaturizer | None = None) -> ComparativeModel:
    """Rebuild a :func:`build_model` model from its ``config`` dict.

    This is the construct-from-checkpoint half of
    :mod:`repro.serve.checkpoint`: the config travels inside the
    checkpoint's metadata header, so loading never requires the caller
    to re-specify architecture knobs.
    """
    known = {"encoder_kind", "vocab_size", "embedding_dim", "hidden_size",
             "num_layers", "direction", "classifier_hidden", "seed"}
    unknown = set(config) - known
    if unknown:
        raise ValueError(f"unknown model config keys: {sorted(unknown)}")
    return build_model(featurizer=featurizer, **config)
