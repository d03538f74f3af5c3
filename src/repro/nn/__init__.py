"""A from-scratch neural-network framework on numpy.

The paper assumes a deep-learning stack (tree-LSTM, GCN, embeddings,
BCE training on a GPU). No such stack is available offline, so this
package implements exactly what the paper's models run, with
reverse-mode autodiff:

* :mod:`repro.nn.tensor` — autograd engine
* :mod:`repro.nn.backend` — the hot kernels and their dtype policy
  (``numpy64`` / ``numpy32``)
* :mod:`repro.nn.layers` — Linear / Embedding
* :mod:`repro.nn.rnn` — sequential LSTM (paper eq. 3)
* :mod:`repro.nn.treelstm` — child-sum tree-LSTM (paper eq. 4) and the
  uni/bi/alternating multi-layer stacks of Section IV-C
* :mod:`repro.nn.gcn` — the GCN baseline encoder
* :mod:`repro.nn.loss` / :mod:`repro.nn.optim` — BCE and Adam
* :mod:`repro.nn.policy` — the backends' names and float widths,
  readable without numpy

Every name below is imported from its submodule on first access
(:mod:`repro._lazy`), so the serving front door can read
:mod:`repro.nn.policy` without loading numpy.
"""

from .._lazy import lazy_exports

__getattr__ = lazy_exports(__name__, {
    "backend": ("backend",),
    "tensor": ("Tensor", "no_grad"),
    "module": ("Module", "Parameter"),
    "layers": ("Linear", "Embedding"),
    "rnn": ("LSTM", "LSTMCell"),
    "treelstm": ("ChildSumTreeLSTM", "TreeLSTMStack", "TreeSchedule",
                 "ForestSchedule", "schedule_for", "DIRECTIONS"),
    "gcn": ("GCN", "GraphConv", "normalized_adjacency"),
    "loss": ("bce_with_logits",),
    "optim": ("Optimizer", "Adam", "clip_grad_norm"),
    "serialize": ("save_state",),
})

__all__ = [
    "Tensor", "no_grad", "Module", "Parameter", "backend",
    "Linear", "Embedding",
    "LSTM", "LSTMCell",
    "ChildSumTreeLSTM", "TreeLSTMStack", "TreeSchedule", "ForestSchedule",
    "schedule_for", "DIRECTIONS",
    "GCN", "GraphConv", "normalized_adjacency",
    "bce_with_logits",
    "Optimizer", "Adam", "clip_grad_norm",
    "save_state",
]
