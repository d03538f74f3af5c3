"""One driver per table/figure of the paper's evaluation (Section VI).

Every driver takes a :class:`~repro.experiments.profiles.ScaleProfile`
and the cached corpora, runs the experiment at that scale, and returns
a result object with a ``render()`` method that prints the same rows /
series the paper reports. The pytest-benchmark harness calls these
one-to-one and writes each rendered result to ``benchmarks/results/``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..corpus import SubmissionDatabase, TABLE1_COUNTS
from ..core import (
    ExperimentConfig, TrainConfig, Trainer, evaluate_on_pairs, roc_curve,
    run_experiment, sensitivity_curve,
)
from ..corpus.problem import Submission
from ..data import sample_pairs, split_submissions, subset_submissions
from ..engine import train_pairs_model
from ..tuning import Study, TpeLiteSampler
from ..viz import (
    box_summary, code_embedding_map, line_plot, node_embedding_atlas,
    scatter_plot, table,
)
from .profiles import ScaleProfile

__all__ = [
    "train_problem_model", "TrainedProblemModel",
    "Table1Result", "run_table1",
    "Fig3Result", "run_fig3",
    "Table2Result", "run_table2",
    "Table3Result", "run_table3",
    "Fig4Result", "run_fig4",
    "Fig5Result", "run_fig5",
    "Fig6Result", "run_fig6",
    "Fig7Result", "run_fig7",
    "HpoResult", "run_hpo",
]

#: Paper-reported reference numbers used in the rendered comparisons.
PAPER_TABLE1_MEDIANS = {"A": 1269, "B": 658, "C": 437, "D": 534, "E": 80,
                        "F": 214, "G": 90, "H": 9, "I": 285}


# ---------------------------------------------------------------------------
# shared training helper
# ---------------------------------------------------------------------------
@dataclass
class TrainedProblemModel:
    tag: str
    trainer: Trainer
    train_submissions: list[Submission]
    test_submissions: list[Submission]
    encoder_kind: str


def train_problem_model(submissions: list[Submission], profile: ScaleProfile,
                        encoder_kind: str = "treelstm", num_layers: int = 1,
                        direction: str = "alternating", seed: int = 0,
                        tag: str = "?", epochs: int | None = None,
                        two_way: bool = False) -> TrainedProblemModel:
    """Split -> pair -> train one model; the unit every driver composes.

    A thin profile adapter over :func:`repro.core.run_experiment` (and
    through it the single :mod:`repro.engine` loop): ``eval_pairs=0``
    skips the pipeline's own held-out evaluation because the drivers
    score their models against many pools afterwards.
    """
    config = ExperimentConfig(
        encoder_kind=encoder_kind, embedding_dim=profile.embedding_dim,
        hidden_size=profile.hidden_size, num_layers=num_layers,
        direction=direction, train_fraction=0.75,
        train_pairs=profile.train_pairs, eval_pairs=0, two_way=two_way,
        seed=seed,
        train=TrainConfig(
            epochs=epochs if epochs is not None else profile.epochs,
            batch_size=profile.batch_size,
            learning_rate=profile.learning_rate, seed=seed))
    result = run_experiment(submissions, config)
    return TrainedProblemModel(tag=tag, trainer=result.trainer,
                               train_submissions=result.train_submissions,
                               test_submissions=result.test_submissions,
                               encoder_kind=encoder_kind)


def _eval_on(trained: TrainedProblemModel, submissions: list[Submission],
             count: int, seed: int = 17) -> float:
    rng = np.random.default_rng(seed)
    pairs = sample_pairs(submissions, count, rng)
    return evaluate_on_pairs(trained.trainer, pairs).accuracy


# ---------------------------------------------------------------------------
# Table I — dataset statistics
# ---------------------------------------------------------------------------
@dataclass
class Table1Result:
    rows: list[tuple]          # tag, count, min, median, max, std

    def render(self) -> str:
        header = ["Tag", "Count", "Min(ms)", "Median(ms)", "Max(ms)",
                  "StdDev", "PaperMedian(ms)", "PaperCount"]
        body = [[tag, count, f"{mn:.0f}", f"{med:.0f}", f"{mx:.0f}",
                 f"{sd:.0f}", PAPER_TABLE1_MEDIANS[tag], TABLE1_COUNTS[tag]]
                for tag, count, mn, med, mx, sd in self.rows]
        return table(header, body)


def run_table1(db: SubmissionDatabase) -> Table1Result:
    rows = []
    for stats in db.all_stats():
        rows.append((stats.tag, stats.count, stats.min_ms, stats.median_ms,
                     stats.max_ms, stats.stddev_ms))
    return Table1Result(rows=rows)


# ---------------------------------------------------------------------------
# Figure 3 — tree-LSTM vs GCN, same-problem lines + cross-problem boxes
# ---------------------------------------------------------------------------
@dataclass
class Fig3Result:
    same_problem: dict          # (encoder, tag) -> accuracy (line plots)
    cross_problem: dict         # (encoder, tag) -> list of accuracies (boxes)

    def mean_same(self, encoder: str) -> float:
        vals = [v for (enc, _), v in self.same_problem.items()
                if enc == encoder]
        return float(np.mean(vals))

    def render(self) -> str:
        parts = []
        for encoder in ("treelstm", "gcn"):
            tags = sorted(t for (enc, t) in self.same_problem if enc == encoder)
            accs = [self.same_problem[(encoder, t)] for t in tags]
            parts.append(f"[{encoder}] same-problem accuracy by training set")
            parts.append(table(["tag"] + tags, [["acc"] + [f"{a:.3f}"
                                                           for a in accs]]))
            parts.append(f"[{encoder}] cross-problem accuracy distribution")
            parts.append(box_summary({t: self.cross_problem[(encoder, t)]
                                      for t in tags}))
        parts.append(f"mean same-problem: treelstm="
                     f"{self.mean_same('treelstm'):.3f} "
                     f"gcn={self.mean_same('gcn'):.3f} "
                     f"(paper: tree-LSTM wins everywhere; up to .84/.73)")
        return "\n".join(parts)


def run_fig3(table1_db: SubmissionDatabase, mp_db: SubmissionDatabase,
             profile: ScaleProfile, encoders=("treelstm", "gcn"),
             tags: tuple = ("A", "B", "C", "D", "E", "F", "G", "H", "I"),
             include_mp: bool = True, seed: int = 0) -> Fig3Result:
    same_problem: dict = {}
    cross_problem: dict = {}
    pools = {tag: table1_db.submissions(tag) for tag in tags}
    mp_pool: list[Submission] = []
    if include_mp:
        for tag in mp_db.problems():
            mp_pool.extend(mp_db.submissions(tag))

    for encoder in encoders:
        layers = 6 if encoder == "gcn" else 1   # paper's tuned GCN depth
        for tag in tags:
            trained = train_problem_model(
                pools[tag], profile, encoder_kind=encoder, seed=seed,
                num_layers=layers, tag=tag)
            same_problem[(encoder, tag)] = _eval_on(
                trained, trained.test_submissions, profile.eval_pairs)
            others = []
            for other_tag in tags:
                if other_tag == tag:
                    continue
                others.append(_eval_on(
                    trained, pools[other_tag],
                    max(10, profile.eval_pairs // 3)))
            cross_problem[(encoder, tag)] = others
        if include_mp and mp_pool:
            trained = train_problem_model(mp_pool, profile,
                                          encoder_kind=encoder,
                                          num_layers=layers,
                                          seed=seed, tag="MP")
            same_problem[(encoder, "MP")] = _eval_on(
                trained, trained.test_submissions, profile.eval_pairs)
            cross_problem[(encoder, "MP")] = [
                _eval_on(trained, pools[t], max(10, profile.eval_pairs // 3))
                for t in tags]
    return Fig3Result(same_problem=same_problem, cross_problem=cross_problem)


# ---------------------------------------------------------------------------
# Table II — cross-problem matrix for the DFS/graph group (F, G, I)
# ---------------------------------------------------------------------------
@dataclass
class Table2Result:
    matrix: dict                # (train_tag, test_tag) -> accuracy
    tags: tuple = ("F", "G", "I")

    def render(self) -> str:
        header = ["train\\test"] + list(self.tags)
        body = [[row] + [f"{self.matrix[(row, col)]:.2f}"
                         for col in self.tags] for row in self.tags]
        note = ("paper Table II: F/G (same algorithmic class) transfer "
                "better than partial-overlap I")
        return table(header, body) + "\n" + note

    def within_group_mean(self) -> float:
        cells = [self.matrix[(a, b)] for a in ("F", "G") for b in ("F", "G")]
        return float(np.mean(cells))

    def partial_overlap_mean(self) -> float:
        cells = [self.matrix[(a, "I")] for a in ("F", "G")] + \
            [self.matrix[("I", b)] for b in ("F", "G")]
        return float(np.mean(cells))


def run_table2(table1_db: SubmissionDatabase, profile: ScaleProfile,
               seed: int = 0) -> Table2Result:
    tags = ("F", "G", "I")
    matrix = {}
    for train_tag in tags:
        trained = train_problem_model(table1_db.submissions(train_tag),
                                      profile, seed=seed, tag=train_tag)
        for test_tag in tags:
            if test_tag == train_tag:
                pool = trained.test_submissions
            else:
                pool = table1_db.submissions(test_tag)
            matrix[(train_tag, test_tag)] = _eval_on(
                trained, pool, profile.eval_pairs)
    return Table2Result(matrix=matrix)


# ---------------------------------------------------------------------------
# Table III — layers x {uni, bi, alternating} on problems A and C
# ---------------------------------------------------------------------------
@dataclass
class Table3Result:
    accuracies: dict            # (problem, direction, layers) -> accuracy

    def render(self) -> str:
        rows = []
        for (problem, direction, layers), acc in sorted(self.accuracies.items()):
            rows.append([problem, direction, layers, f"{acc:.3f}"])
        note = ("paper Table III: accuracy is flat in depth; alternating "
                "matches bi-directional at half the parameters")
        return table(["problem", "direction", "layers", "accuracy"], rows) \
            + "\n" + note


def run_table3(table1_db: SubmissionDatabase, profile: ScaleProfile,
               problems: tuple = ("A", "C"),
               layer_counts: tuple = (1, 2, 3),
               seed: int = 0) -> Table3Result:
    accuracies = {}
    for problem in problems:
        subs = table1_db.submissions(problem)
        for direction in ("uni", "bi"):
            for layers in layer_counts:
                trained = train_problem_model(
                    subs, profile, direction=direction, num_layers=layers,
                    seed=seed, tag=problem)
                accuracies[(problem, direction, layers)] = _eval_on(
                    trained, trained.test_submissions, profile.eval_pairs)
        trained = train_problem_model(subs, profile, direction="alternating",
                                      num_layers=3, seed=seed, tag=problem)
        accuracies[(problem, "alternating", 3)] = _eval_on(
            trained, trained.test_submissions, profile.eval_pairs)
    return Table3Result(accuracies=accuracies)


# ---------------------------------------------------------------------------
# Figure 4 — ROC of the multi-layer alternating tree-LSTM on problem A
# ---------------------------------------------------------------------------
@dataclass
class Fig4Result:
    fpr: np.ndarray
    tpr: np.ndarray
    auc: float

    def render(self) -> str:
        plot = line_plot(self.fpr, self.tpr, title="Fig.4 ROC (problem A)",
                         x_label="FPR", y_label="TPR")
        return f"{plot}\nAUC = {self.auc:.3f} (paper: 0.85)"


def run_fig4(table1_db: SubmissionDatabase, profile: ScaleProfile,
             tag: str = "A", seed: int = 0) -> Fig4Result:
    trained = train_problem_model(table1_db.submissions(tag), profile,
                                  direction="alternating", num_layers=3,
                                  seed=seed, tag=tag)
    rng = np.random.default_rng(seed + 1)
    pairs = sample_pairs(trained.test_submissions, profile.eval_pairs, rng)
    probs = trained.trainer.predict_probabilities(pairs)
    labels = np.array([p.label for p in pairs])
    curve = roc_curve(labels, probs)
    return Fig4Result(fpr=curve.fpr, tpr=curve.tpr, auc=curve.auc)


# ---------------------------------------------------------------------------
# Figure 5 — data sampling and augmentation ablations
# ---------------------------------------------------------------------------
@dataclass
class Fig5Result:
    submissions_curve: list     # (n_submissions, accuracy)
    pair_fraction_curve: list   # (fraction, accuracy)
    one_way_accuracy: float
    two_way_accuracy: float

    def render(self) -> str:
        a = line_plot([n for n, _ in self.submissions_curve],
                      [acc for _, acc in self.submissions_curve],
                      title="Fig.5a accuracy vs training submissions",
                      x_label="#submissions", y_label="accuracy")
        b = line_plot([f for f, _ in self.pair_fraction_curve],
                      [acc for _, acc in self.pair_fraction_curve],
                      title="Fig.5b accuracy vs pair fraction",
                      x_label="fraction of pairs", y_label="accuracy")
        c = (f"ordering ablation: one-way={self.one_way_accuracy:.3f} "
             f"two-way={self.two_way_accuracy:.3f} "
             f"(paper: two-way helps by up to ~2%)")
        return "\n".join([a, b, c])


def run_fig5(table1_db: SubmissionDatabase, profile: ScaleProfile,
             tag: str = "A", submission_sizes: tuple = (8, 12, 18, 27),
             fractions: tuple = (0.1, 0.25, 0.5, 0.75, 1.0),
             seed: int = 0) -> Fig5Result:
    subs = table1_db.submissions(tag)
    rng = np.random.default_rng(seed)
    train_pool, test_pool = split_submissions(subs, 0.75, rng)
    test_pairs = sample_pairs(test_pool, profile.eval_pairs, rng)

    def train_eval(train_subs, n_pairs, two_way=False, run_seed=0):
        # One engine call per ablation point: sample, train, score.
        local_rng = np.random.default_rng(run_seed)
        pairs = sample_pairs(train_subs, n_pairs, local_rng, two_way=two_way)
        run = train_pairs_model(
            pairs, embedding_dim=profile.embedding_dim,
            hidden_size=profile.hidden_size, seed=run_seed,
            train=TrainConfig(
                epochs=profile.epochs, batch_size=profile.batch_size,
                learning_rate=profile.learning_rate, seed=run_seed))
        return evaluate_on_pairs(run.engine, test_pairs).accuracy

    submissions_curve = []
    for size in submission_sizes:
        size = min(size, len(train_pool))
        chosen = subset_submissions(train_pool, size,
                                    np.random.default_rng(seed + size))
        n_pairs = max(4, int(0.75 * size * (size - 1)))
        n_pairs = min(n_pairs, profile.train_pairs)
        submissions_curve.append((size, train_eval(chosen, n_pairs,
                                                   run_seed=seed + size)))

    fixed = subset_submissions(train_pool, min(20, len(train_pool)),
                               np.random.default_rng(seed + 99))
    total_pairs = len(fixed) * (len(fixed) - 1)
    pair_fraction_curve = []
    for fraction in fractions:
        n_pairs = max(4, int(fraction * total_pairs))
        n_pairs = min(n_pairs, profile.train_pairs * 2)
        pair_fraction_curve.append(
            (fraction, train_eval(fixed, n_pairs,
                                  run_seed=seed + int(fraction * 100))))

    budget = min(profile.train_pairs, total_pairs)
    one_way = train_eval(fixed, budget, two_way=False, run_seed=seed + 7)
    two_way = train_eval(fixed, budget, two_way=True, run_seed=seed + 7)
    return Fig5Result(submissions_curve=submissions_curve,
                      pair_fraction_curve=pair_fraction_curve,
                      one_way_accuracy=one_way, two_way_accuracy=two_way)


# ---------------------------------------------------------------------------
# Figure 6 — prediction sensitivity to the minimum runtime gap
# ---------------------------------------------------------------------------
@dataclass
class Fig6Result:
    curves: dict                # tag -> list of (threshold, accuracy, n)

    def render(self) -> str:
        parts = []
        for tag, curve in sorted(self.curves.items()):
            xs = [t for t, acc, n in curve if n > 0]
            ys = [acc for t, acc, n in curve if n > 0]
            parts.append(line_plot(
                xs, ys, title=f"Fig.6 sensitivity (problem {tag})",
                x_label="min runtime gap (ms)", y_label="accuracy"))
        parts.append("paper: accuracy rises monotonically with the gap, "
                     "nearing 1.0 for large gaps")
        return "\n".join(parts)


def run_fig6(table1_db: SubmissionDatabase, profile: ScaleProfile,
             tags: tuple = ("A", "B", "C"), seed: int = 0) -> Fig6Result:
    curves = {}
    for tag in tags:
        trained = train_problem_model(table1_db.submissions(tag), profile,
                                      seed=seed, tag=tag)
        rng = np.random.default_rng(seed + 5)
        pairs = sample_pairs(trained.test_submissions,
                             profile.eval_pairs, rng)
        gaps = sorted(p.gap_ms for p in pairs)
        thresholds = [0.0] + [float(np.percentile(gaps, q))
                              for q in (25, 50, 75, 90)]
        curves[tag] = sensitivity_curve(trained.trainer, pairs, thresholds)
    return Fig6Result(curves=curves)


# ---------------------------------------------------------------------------
# Figure 7 — t-SNE of node and code embeddings
# ---------------------------------------------------------------------------
@dataclass
class Fig7Result:
    node_points: np.ndarray
    node_categories: list
    code_points: np.ndarray
    code_labels: list
    node_silhouette: float      # crude cluster-quality score
    code_silhouette: float

    def render(self) -> str:
        a = scatter_plot(self.node_points, self.node_categories,
                         title="Fig.7a node embeddings (by category)")
        b = scatter_plot(self.code_points, self.code_labels,
                         title="Fig.7b code embeddings (by problem)")
        return (f"{a}\n{b}\nnode-category separation={self.node_silhouette:.3f} "
                f"problem separation={self.code_silhouette:.3f} "
                f"(higher = tighter clusters)")


def _separation(points: np.ndarray, labels: list) -> float:
    """Mean between-centroid distance / mean within-group spread."""
    groups = {}
    for point, label in zip(points, labels):
        groups.setdefault(label, []).append(point)
    centroids = {k: np.mean(v, axis=0) for k, v in groups.items()
                 if len(v) >= 2}
    if len(centroids) < 2:
        return 0.0
    within = np.mean([np.linalg.norm(np.asarray(v) - centroids[k], axis=1).mean()
                      for k, v in groups.items() if k in centroids])
    keys = list(centroids)
    between = np.mean([np.linalg.norm(centroids[a] - centroids[b])
                       for idx, a in enumerate(keys) for b in keys[idx + 1:]])
    return float(between / max(within, 1e-9))


def run_fig7(table1_db: SubmissionDatabase, profile: ScaleProfile,
             tags: tuple = ("A", "F", "H"), seed: int = 0) -> Fig7Result:
    pool = []
    for tag in tags:
        pool.extend(table1_db.submissions(tag))
    trained = train_problem_model(pool, profile, seed=seed, tag="+".join(tags))
    model = trained.trainer.model

    atlas = node_embedding_atlas(model, n_iter=250, seed=seed)
    groups = {tag: table1_db.submissions(tag)[:12] for tag in tags}
    code_points, code_labels = code_embedding_map(model, groups,
                                                  n_iter=250, seed=seed)
    return Fig7Result(
        node_points=atlas.points, node_categories=atlas.categories,
        code_points=code_points, code_labels=code_labels,
        node_silhouette=_separation(atlas.points, atlas.categories),
        code_silhouette=_separation(code_points, code_labels),
    )


# ---------------------------------------------------------------------------
# Section V-C — hyper-parameter tuning (Optuna stand-in)
# ---------------------------------------------------------------------------
@dataclass
class HpoResult:
    best_gcn_accuracy: float
    best_gcn_params: dict
    treelstm_accuracy: float
    trials: int

    def render(self) -> str:
        return (f"HPO: best GCN acc={self.best_gcn_accuracy:.3f} with "
                f"{self.best_gcn_params}; tree-LSTM acc="
                f"{self.treelstm_accuracy:.3f} "
                f"(paper: GCN best 68.5% < tree-LSTM 73%)")


def run_hpo(table1_db: SubmissionDatabase, profile: ScaleProfile,
            tag: str = "C", n_trials: int = 6,
            seed: int = 0) -> HpoResult:
    """Section V-C hyper-parameter search over GCN depth and width: each
    of ``n_trials`` trials trains through the engine and is scored on
    held-out pairs, and a tree-LSTM at the profile's size is trained
    for comparison."""
    subs = table1_db.submissions(tag)
    rng = np.random.default_rng(seed)
    train_subs, test_subs = split_submissions(subs, 0.75, rng)
    train_pairs = sample_pairs(train_subs, profile.train_pairs, rng)
    test_pairs = sample_pairs(test_subs, profile.eval_pairs, rng)

    def objective(trial):
        layers = trial.suggest_int("layers", 1, 8)
        hidden = trial.suggest_int("hidden", 8, 32)
        run = train_pairs_model(
            train_pairs, encoder_kind="gcn",
            embedding_dim=profile.embedding_dim, hidden_size=hidden,
            num_layers=layers, seed=seed,
            train=TrainConfig(
                epochs=max(2, profile.epochs // 2),
                batch_size=profile.batch_size,
                learning_rate=profile.learning_rate, seed=seed))
        return evaluate_on_pairs(run.engine, test_pairs).accuracy

    study = Study(direction="maximize", sampler=TpeLiteSampler(seed=seed))
    study.optimize(objective, n_trials=n_trials)

    trained = train_problem_model(subs, profile, seed=seed, tag=tag)
    tree_acc = _eval_on(trained, trained.test_submissions, profile.eval_pairs)
    return HpoResult(best_gcn_accuracy=study.best_value,
                     best_gcn_params=study.best_params,
                     treelstm_accuracy=tree_acc, trials=n_trials)
