"""Hyper-parameter optimization (Optuna stand-in, paper Section V-C).

A :class:`Study` runs an objective over ``n_trials`` trials, each
drawing its parameters from a sampler that sees the finished trials.
``run_hpo`` in :mod:`repro.experiments` trains every trial through
:class:`repro.engine.Engine`.
"""

from .samplers import RandomSampler, TpeLiteSampler
from .search import FrozenTrial, Study, Trial

__all__ = ["Study", "Trial", "FrozenTrial", "RandomSampler",
           "TpeLiteSampler"]
