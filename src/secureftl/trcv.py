"""Transfer cross-validation: score the federated model on source-side labels.

The source party holds the only trustworthy labels, so model selection works
by K-fold validation on its rows: train on the complement of a fold, push
pseudo-labels to every target row, retrain with the parties' roles swapped
(the pseudo-labeled target now acts as the label holder), and let the
retrained target-side prototype label the held-out source rows. A config
whose transferred knowledge is real survives the round trip; one that
overfits the overlap does not.

Held-out labels never enter any training phase: fold rows are dropped from
the phase-one complement and re-enter the mirrored world only as unlabeled
prediction queries.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .baselines import train_logistic
from .datasets import FederationSplit, weighted_f1
from .nets import fresh_network
from .plain import TrainingConfig
from .protocol import Engine


@dataclass
class FoldPlan:
    """A seeded partition of the source party's rows into K shares."""

    k: int
    folds: list[np.ndarray]

    def validate(self, ids: np.ndarray):
        if self.k != len(self.folds):
            raise ValueError("fold count disagrees with K")
        if any(len(fold) == 0 for fold in self.folds):
            raise ValueError("empty fold")
        merged = np.concatenate(self.folds)
        if len(merged) != len(set(merged.tolist())):
            raise ValueError("folds are not disjoint")
        if set(merged.tolist()) != set(np.asarray(ids).tolist()):
            raise ValueError("folds do not cover the id set")
        sizes = [len(fold) for fold in self.folds]
        if max(sizes) - min(sizes) > 1:
            raise ValueError("fold sizes differ by more than one")


def make_folds(ids, k: int, seed: int = 0) -> FoldPlan:
    """Shuffle once with the seed, then cut into K contiguous shares."""
    ids = np.asarray(ids, dtype=int)
    if k < 2:
        raise ValueError("need at least two folds")
    if k > len(ids):
        raise ValueError(f"cannot cut {len(ids)} rows into {k} non-empty folds")
    rng = np.random.default_rng(seed)
    plan = FoldPlan(k, list(np.array_split(rng.permutation(ids), k)))
    plan.validate(ids)
    return plan


@dataclass
class CandidateResult:
    config_id: int
    per_fold: list[float]

    @property
    def mean(self) -> float:
        return sum(self.per_fold) / len(self.per_fold)


@dataclass
class FoldReport:
    candidates: list[CandidateResult]
    selected: int

    @property
    def per_fold(self) -> list[float]:
        return self.candidates[self.selected].per_fold

    @property
    def mean(self) -> float:
        return self.candidates[self.selected].mean


def restrict_source(split: FederationSplit, drop_ids) -> FederationSplit:
    """The training complement: source rows and pairs outside the fold."""
    drop = np.asarray(drop_ids, dtype=int)
    keep = ~np.isin(split.ids_source, drop)
    return FederationSplit(
        ids_source=split.ids_source[keep],
        x_source=split.x_source[keep],
        labels_source=split.labels_source[keep],
        ids_target=split.ids_target,
        x_target=split.x_target,
        overlap_ids=split.overlap_ids[~np.isin(split.overlap_ids, drop)],
        labeled_ids=split.labeled_ids[~np.isin(split.labeled_ids, drop)],
        eval_ids=split.eval_ids,
        labels_eval=split.labels_eval,
    )


def mirror_split(split: FederationSplit, labels_target: np.ndarray,
                 heldout_ids) -> FederationSplit:
    """Swap the parties: the target, now fully (pseudo-)labeled, becomes the
    label-rich side; the source becomes the featureless-label side whose
    held-out rows want predictions."""
    heldout = np.asarray(heldout_ids, dtype=int)
    return FederationSplit(
        ids_source=split.ids_target,
        x_source=split.x_target,
        labels_source=labels_target,
        ids_target=split.ids_source,
        x_target=split.x_source,
        overlap_ids=split.overlap_ids[~np.isin(split.overlap_ids, heldout)],
        labeled_ids=split.labeled_ids[~np.isin(split.labeled_ids, heldout)],
        eval_ids=heldout,
        labels_eval=split.labels_for(heldout),
    )


def run_fold(split: FederationSplit, fold_ids: np.ndarray, cfg: TrainingConfig,
             dims_source: list[int], dims_target: list[int], engine: Engine = Engine(),
             seed: int = 0, pretrain_epochs: int = 0) -> float:
    """One fold: train on the complement, pseudo-label, retrain mirrored,
    score the held-out source rows. Returns the weighted F1."""
    if len(fold_ids) == 0:
        raise ValueError("empty fold")
    sub = restrict_source(split, fold_ids)
    net_a = fresh_network(dims_source, seed, sub.x_source, pretrain_epochs)
    net_b = fresh_network(dims_target, seed + 1, sub.x_target, pretrain_epochs)
    engine.train(sub, net_a, net_b, cfg, seed)

    # Pseudo-label every target row, the kept labeled pairs too: the target
    # learns only predicted labels, never one of the source's true labels.
    labels_target = engine.predict(sub, net_a, net_b, split.ids_target, seed)

    mirrored = mirror_split(split, labels_target, fold_ids)
    net_b2 = fresh_network(dims_target, seed + 2, mirrored.x_source, pretrain_epochs)
    net_a2 = fresh_network(dims_source, seed + 3, mirrored.x_target, pretrain_epochs)
    engine.train(mirrored, net_b2, net_a2, cfg, seed + 1)
    predicted = engine.predict(mirrored, net_b2, net_a2, fold_ids, seed + 1)
    return weighted_f1(predicted, split.labels_for(fold_ids)).weighted_f1


def run_trcv(split: FederationSplit, candidates: list[TrainingConfig], k: int,
             dims_source: list[int], dims_target: list[int], engine: Engine = Engine(),
             seed: int = 0, pretrain_epochs: int = 0) -> FoldReport:
    """Score every candidate config by K-fold transfer validation and select
    the best mean; ties break toward the first candidate."""
    if not candidates:
        raise ValueError("no candidate configs")
    plan = make_folds(split.ids_source, k, seed)
    results = []
    for ci, cfg in enumerate(candidates):
        scores = [run_fold(split, fold, cfg, dims_source, dims_target, engine,
                           seed + 100 * ci + fi, pretrain_epochs)
                  for fi, fold in enumerate(plan.folds)]
        results.append(CandidateResult(ci, scores))
    means = [r.mean for r in results]
    return FoldReport(results, int(np.argmax(means)))


def local_cv(x: np.ndarray, labels: np.ndarray, k: int, seed: int = 0) -> float:
    """Mean weighted F1 of logistic regression over min(k, rows) seeded
    folds of the rows, each fold scored by a model trained on the others."""
    rows = np.arange(len(labels))
    scores = []
    for fold in make_folds(rows, min(k, len(labels)), seed).folds:
        train_rows = np.setdiff1d(rows, fold)
        model = train_logistic(x[train_rows], labels[train_rows], seed=seed)
        scores.append(weighted_f1(model.predict(x[fold]), labels[fold]).weighted_f1)
    return sum(scores) / len(scores)


@dataclass
class SafeguardDecision:
    """Whether transferred knowledge beats learning from the labeled pool alone."""

    transfer: bool
    ftl_score: float
    baseline_score: float


def self_learning_safeguard(x_labeled: np.ndarray, labels: np.ndarray,
                            ftl_score: float, k: int = 3,
                            seed: int = 0) -> SafeguardDecision:
    """Compare the transfer model's validation score against logistic
    regression cross-validated on the labeled pool alone.

    Returns transfer=False when the transfer score is strictly worse; ties
    favor transfer. A single-class pool trains a majority-class predictor.
    """
    labels = np.asarray(labels, dtype=int)
    if len(labels) == 0:
        raise ValueError("labeled pool is empty")
    if len(labels) < 2:
        model = train_logistic(x_labeled, labels, seed=seed)
        baseline = weighted_f1(model.predict(x_labeled), labels).weighted_f1
    else:
        baseline = local_cv(x_labeled, labels, k, seed)
    return SafeguardDecision(ftl_score >= baseline, ftl_score, baseline)
