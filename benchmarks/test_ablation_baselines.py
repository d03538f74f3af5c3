"""Ablation (DESIGN.md design-choice check): learned model vs static
heuristics vs absolute-runtime regression.

This quantifies the paper's motivating comparison on *our* corpus — and
documents an honest divergence: because the synthetic slow variants
carry visibly more loop structure than the fast ones, simple static
heuristics are *competitive in-domain here* (they would not be on real
Codeforces submissions, where style noise buries such cues — the gap
the paper's learned model exists to close). Transfer across problems is
hard for every comparator trained/fit on a single problem. The bench
asserts structural validity and the in-domain learnability floor, and
*reports* the full comparison to ``benchmarks/results/``.
"""

import numpy as np

import pytest

from repro.core import (
    AbsoluteRuntimeRegressor, LoopNestingHeuristic, NodeCountHeuristic,
    WeightedConstructHeuristic, baseline_accuracy,
)
from repro.data import sample_pairs
from repro.experiments import train_problem_model
from repro.viz import table

from .conftest import write_result

# Builds/loads the full bench corpora and trains real models: minutes on
# a cold cache, so excluded from the CI benchmark smoke pass (-m "not slow").
pytestmark = pytest.mark.slow


def run_ablation(table1_db, profile, train_tag="C", transfer_tag="A",
                 seed=0):
    subs = table1_db.submissions(train_tag)
    trained = train_problem_model(subs, profile, seed=seed, tag=train_tag)
    rng = np.random.default_rng(seed + 1)
    in_domain = sample_pairs(trained.test_submissions, profile.eval_pairs, rng)
    transfer = sample_pairs(table1_db.submissions(transfer_tag),
                            profile.eval_pairs, rng)

    regressor = AbsoluteRuntimeRegressor().fit(trained.train_submissions)
    contenders = {
        "tree-LSTM (learned)": trained.trainer.model,
        "node-count heuristic": NodeCountHeuristic(),
        "loop-nesting heuristic": LoopNestingHeuristic(),
        "weighted constructs": WeightedConstructHeuristic(),
        "absolute-runtime regressor": regressor,
    }
    rows = {}
    for name, comparator in contenders.items():
        rows[name] = (baseline_accuracy(comparator, in_domain),
                      baseline_accuracy(comparator, transfer))
    return rows


def test_ablation_learned_vs_baselines(benchmark, table1_db, profile,
                                       results_dir):
    rows = benchmark.pedantic(run_ablation, args=(table1_db, profile),
                              rounds=1, iterations=1)
    rendered = table(
        ["comparator", "in-domain acc (C)", "transfer acc (A)"],
        [[name, f"{in_acc:.3f}", f"tr {tr_acc:.3f}"]
         for name, (in_acc, tr_acc) in rows.items()])
    write_result(results_dir, "ablation_baselines", rendered)

    for name, (in_acc, tr_acc) in rows.items():
        assert 0.0 <= in_acc <= 1.0 and 0.0 <= tr_acc <= 1.0, name
    learned_in, _ = rows["tree-LSTM (learned)"]
    # The learned model must clear the in-domain learnability floor.
    assert learned_in > 0.6
    # The absolute-runtime regressor works in-domain (it can memorize
    # this problem's runtime range) — the comparison point the paper's
    # related work establishes.
    regressor_in, _ = rows["absolute-runtime regressor"]
    assert regressor_in > 0.6
