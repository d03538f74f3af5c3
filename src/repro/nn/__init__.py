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
"""

from . import backend
from .gcn import GCN, GraphConv, normalized_adjacency
from .layers import Embedding, Linear
from .loss import bce_with_logits
from .module import Module, Parameter
from .optim import Adam, Optimizer, clip_grad_norm
from .rnn import LSTM, LSTMCell
from .serialize import save_state
from .tensor import Tensor, no_grad
from .treelstm import (DIRECTIONS, ChildSumTreeLSTM, ForestSchedule,
                       TreeLSTMStack, TreeSchedule, schedule_for)

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
