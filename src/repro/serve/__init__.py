"""Online prediction serving: keep a trained model resident and answer
a stream of "is new.cpp faster than old.cpp?" queries.

The paper frames the model as "a pipeline that can be integrated into
the development phase of applications"; the offline CLI trains and
evaluates, and this package is the missing online half. Every request
walks the same lifecycle::

          +-----------+   +----------------+   +--------------+
  source  | featurize |   | canonical hash |   |  LRU cache   |  hit
  ------->| parse ->  |-->| kinds+topology |-->| (embeddings) |------> answer
          | simplify  |   | (cache.py)     |   +------+-------+
          +-----------+   +----------------+          | miss
                                                      v
                                       +-----------------------------+
                                       | micro-batcher (batcher.py)  |
                                       | size / latency flush        |
                                       +--------------+--------------+
                                                      v
                                       +-----------------------------+
                                       | fused forest encode         |
                                       | pack_forest + encode_batch  |
                                       +--------------+--------------+
                                                      v
                                         classifier GEMM -> answer

1. **parse** — :class:`~repro.core.TreeFeaturizer` runs the frontend
   (parse -> simplify -> flatten -> vocab IDs), memoized on raw source.
2. **canonical hash** — :func:`~repro.serve.cache.canonical_key`
   digests the *simplified AST* (node kinds + topology), so
   reformatted or α-renamed resubmissions share a key.
3. **cache** — :class:`~repro.serve.cache.LruCache` holds bounded
   recent embeddings; a hit never touches the encoder.
4. **batcher** — misses queue in a
   :class:`~repro.serve.batcher.MicroBatcher` and are flushed —
   size- or latency-triggered — as **one** fused forest
   (``pack_forest`` + ``encode_batch``), then demultiplexed.
5. **forest encode** — the PR-1 batched tree-LSTM/GCN/LSTM pass; its
   rows are cached and combined by the pair classifier (a GEMM) into
   compare/rank answers.

Checkpoints (:mod:`~repro.serve.checkpoint`) bundle weights + encoder
config + vocabulary into one versioned ``.npz`` so
``PredictionService.from_checkpoint(path)`` boots with no sidecar
config; format v2 additionally carries resumable training state
(optimizer moments, RNG stream, counters) for :mod:`repro.engine`,
and still loads here for inference. The CLI front door is
``python -m repro serve`` (JSONL over stdin/stdout, or bulk
``--requests``/``--out`` files).

Every name below is imported from its submodule on first access
(:mod:`repro._lazy`); the cluster tier
(``ClusterServer``/``ClusterClient``/``Supervisor``/``FaultPlan``) is
imported from its submodules directly, e.g. ``from repro.serve.cluster
import ClusterServer``. The front door and supervisor need only the
numpy-free modules (``cluster``, ``supervisor``, ``protocol``, ``cache``,
``checkpoint_meta``); see ``docs/serving.md``.
"""

from .._lazy import lazy_exports

__getattr__ = lazy_exports(__name__, {
    "service": ("PredictionService",),
    "protocol": ("RequestSourceError",),
    "batcher": ("MicroBatcher", "Ticket"),
    "cache": ("LruCache", "canonical_key"),
    "checkpoint": ("save_checkpoint", "load_checkpoint",
                   "save_training_checkpoint", "load_training_checkpoint",
                   "TRAINING_KEY_PREFIX"),
    "checkpoint_meta": ("read_checkpoint_meta", "checkpoint_signature",
                        "NotACheckpointError", "CHECKPOINT_FORMAT",
                        "CHECKPOINT_VERSION"),
})

__all__ = [
    "PredictionService", "RequestSourceError", "MicroBatcher", "Ticket",
    "LruCache", "canonical_key", "save_checkpoint", "load_checkpoint",
    "save_training_checkpoint", "load_training_checkpoint",
    "read_checkpoint_meta", "checkpoint_signature", "NotACheckpointError",
    "CHECKPOINT_FORMAT", "CHECKPOINT_VERSION", "TRAINING_KEY_PREFIX",
]
