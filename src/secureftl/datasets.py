"""Data ingestion, federation simulation, and evaluation metrics.

A federation splits one logical dataset between a label-rich source party and
a label-poor target party: disjoint feature columns, partially overlapping
sample ids. The overlap supplies alignment pairs; a subset of the target's
rows whose labels the source holds supplies the supervised pairs; held-out
target rows with known truth support evaluation.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field

import numpy as np


# The most latent draws synth_two_view takes for one row to clear its margin:
# a margin that the normal projection clears with probability p fails a row
# with probability (1 - p)^MARGIN_DRAWS, about e^-27 at margin 3.
MARGIN_DRAWS = 10_000


class IngestionError(ValueError):
    """A CSV cell or column could not be interpreted."""


@dataclass
class FederationSplit:
    """Who holds what: features per party, labels at the source only.

    overlap_ids are the co-occurring pairs used by the alignment loss;
    labeled_ids are target rows whose labels sit at the source (both id sets
    live in both parties). eval_ids are target rows reserved for scoring,
    with ground truth carried alongside for the evaluator, never for training.
    """

    ids_source: np.ndarray
    x_source: np.ndarray
    labels_source: np.ndarray
    ids_target: np.ndarray
    x_target: np.ndarray
    overlap_ids: np.ndarray
    labeled_ids: np.ndarray
    eval_ids: np.ndarray = field(default_factory=lambda: np.zeros(0, dtype=int))
    labels_eval: np.ndarray = field(default_factory=lambda: np.zeros(0, dtype=int))

    def __post_init__(self):
        for name in ("ids_source", "ids_target", "overlap_ids", "labeled_ids", "eval_ids"):
            setattr(self, name, np.asarray(getattr(self, name), dtype=int))
        self.labels_source = np.asarray(self.labels_source, dtype=int)
        self.labels_eval = np.asarray(self.labels_eval, dtype=int)
        self.x_source = np.asarray(self.x_source, dtype=float)
        self.x_target = np.asarray(self.x_target, dtype=float)
        self._source_pos = {int(i): k for k, i in enumerate(self.ids_source)}
        self._target_pos = {int(i): k for k, i in enumerate(self.ids_target)}

    def validate(self):
        for name in ("ids_source", "ids_target", "overlap_ids", "labeled_ids", "eval_ids"):
            ids = getattr(self, name)
            if len(np.unique(ids)) != len(ids):
                raise ValueError(f"duplicate ids in {name}")
        if len(self.ids_source) != len(self.x_source) or len(self.ids_source) != len(self.labels_source):
            raise ValueError("source ids, features and labels disagree in length")
        if len(self.ids_target) != len(self.x_target):
            raise ValueError("target ids and features disagree in length")
        if not np.all(np.isin(self.labels_source, (-1, 1))):
            raise ValueError("source labels must be +-1")
        source_set, target_set = set(self._source_pos), set(self._target_pos)
        both = source_set & target_set
        if not set(self.overlap_ids.tolist()) <= both:
            raise ValueError("overlap ids must be held by both parties")
        # Labeled pairs need the label at the source and the features at the
        # target, so they also live in the intersection.
        if not set(self.labeled_ids.tolist()) <= both:
            raise ValueError("labeled ids must be held by both parties")
        if not set(self.eval_ids.tolist()) <= target_set:
            raise ValueError("eval ids must be target rows")
        if set(self.eval_ids.tolist()) & set(self.labeled_ids.tolist()):
            raise ValueError("eval ids overlap the labeled training pairs")
        if len(self.eval_ids) != len(self.labels_eval):
            raise ValueError("eval ids and labels disagree in length")
        if len(self.labels_eval) and not np.all(np.isin(self.labels_eval, (-1, 1))):
            raise ValueError("eval labels must be +-1")

    def _rows(self, party: str, positions: dict[int, int], ids) -> np.ndarray:
        if missing := [int(i) for i in ids if int(i) not in positions]:
            raise ValueError(f"the {party} holds no row for ids {missing}")
        return np.array([positions[int(i)] for i in ids], dtype=int)

    def source_rows(self, ids) -> np.ndarray:
        return self._rows("source", self._source_pos, ids)

    def target_rows(self, ids) -> np.ndarray:
        return self._rows("target", self._target_pos, ids)

    def labels_for(self, ids) -> np.ndarray:
        return self.labels_source[self.source_rows(ids)]


def load_csv(path: str, label_column: str):
    """Read a headered CSV into (features, labels, feature_names).

    The label column maps a cell 1 to +1 and any other cell to -1; every
    other column is a numeric feature, and a non-numeric cell raises with
    its row and column.
    """
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise IngestionError(f"{path}: empty file") from None
        rows = list(reader)
    if label_column not in header:
        raise IngestionError(f"{path}: label column {label_column!r} not found")
    label_idx = header.index(label_column)
    feature_idx = [i for i in range(len(header)) if i != label_idx]
    features = np.zeros((len(rows), len(feature_idx)))
    labels = np.zeros(len(rows), dtype=int)
    for r, row in enumerate(rows):
        if len(row) != len(header):
            raise IngestionError(f"{path}: row {r + 2} has {len(row)} cells, expected {len(header)}")
        labels[r] = 1 if row[label_idx].strip() == "1" else -1
        for pos, i in enumerate(feature_idx):
            cell = row[i].strip()
            try:
                features[r, pos] = float(cell)
            except ValueError:
                raise IngestionError(f"{path}: non-numeric cell {cell!r} at row {r + 2}, "
                                     f"column {header[i]!r}") from None
    return features, labels, [header[i] for i in feature_idx]


def check_fractions(overlap_fraction: float, label_fraction: float):
    """Refuse a split fraction outside [0, 1], naming it."""
    for name, value in (("overlap_fraction", overlap_fraction),
                        ("label_fraction", label_fraction)):
        if not 0 <= value <= 1:
            raise ValueError(f"{name} = {value}: a fraction lies in [0, 1]")


def vertical_split(x, labels, columns_source, overlap_fraction: float,
                   label_fraction: float, rng=0) -> FederationSplit:
    """Split one dataset into a two-party federation.

    Feature columns go to the source per columns_source, the rest to the
    target. Rows split into source-only, shared, and target-only segments;
    overlap_fraction sizes the shared segment, label_fraction the portion of
    it whose labels count as available supervised pairs. All labels stay at
    the source; target-only rows become the evaluation set with their truth
    carried alongside.
    """
    x = np.asarray(x, dtype=float)
    labels = np.asarray(labels, dtype=int)
    check_fractions(overlap_fraction, label_fraction)
    cols_source = np.asarray(columns_source, dtype=int)
    cols_target = np.setdiff1d(np.arange(x.shape[1]), cols_source)
    if not len(cols_source) or not len(cols_target):
        raise ValueError("each party needs at least one feature column")

    n = len(x)
    order = np.random.default_rng(rng).permutation(n)
    n_both = round(overlap_fraction * n)
    rest = n - n_both
    n_source_only = (rest + 1) // 2
    both = order[:n_both]
    source_only = order[n_both:n_both + n_source_only]
    target_only = order[n_both + n_source_only:]

    ids_source = np.concatenate([both, source_only])
    ids_target = np.concatenate([both, target_only])
    labeled = both[:round(label_fraction * n_both)]
    return FederationSplit(
        ids_source=ids_source, x_source=x[ids_source][:, cols_source],
        labels_source=labels[ids_source],
        ids_target=ids_target, x_target=x[ids_target][:, cols_target],
        overlap_ids=both, labeled_ids=labeled,
        eval_ids=target_only, labels_eval=labels[target_only])


def synth_two_view(n: int, d_source: int, d_target: int, noise: float, seed: int = 0,
                   latent_dim: int = 4, n_overlap: int | None = None,
                   n_labeled: int | None = None, n_eval: int | None = None,
                   noise_target: float | None = None, margin: float = 0.0) -> FederationSplit:
    """Two noisy linear views of a shared latent variable, label = sign(w.z).

    Co-occurring rows form a pool of max(n_overlap, n_labeled); the first
    n_overlap of them are the alignment pairs and the first n_labeled the
    supervised pairs. n_eval rows are exclusive to the target and reserved
    for evaluation; all remaining rows are exclusive to the label-rich
    source. A positive margin resamples latent points until |w.z| >= margin,
    producing separable data; a row still inside the margin after
    MARGIN_DRAWS draws raises ValueError.
    """
    if n < 4:
        raise ValueError("need at least 4 samples")
    rng = np.random.default_rng(seed)
    if n_overlap is None:
        n_overlap = round(0.5 * n)
    if n_labeled is None:
        n_labeled = max(1, round(0.2 * n_overlap))
    if n_eval is None:
        n_eval = round(0.2 * n)
    n_pool = max(n_overlap, n_labeled)
    if n_pool + n_eval > n:
        raise ValueError("pool plus eval exceed the sample count")

    w = rng.normal(size=latent_dim)
    w /= np.linalg.norm(w)
    z = rng.normal(size=(n, latent_dim))
    if margin > 0:
        for i in range(n):
            for _ in range(MARGIN_DRAWS):
                if abs(z[i] @ w) >= margin:
                    break
                z[i] = rng.normal(size=latent_dim)
            else:
                raise ValueError(f"margin = {margin}: no latent point cleared it in "
                                 f"{MARGIN_DRAWS} draws")
    labels = np.where(z @ w >= 0, 1, -1)

    mix_source = rng.normal(size=(d_source, latent_dim)) / np.sqrt(latent_dim)
    mix_target = rng.normal(size=(d_target, latent_dim)) / np.sqrt(latent_dim)
    view_source = z @ mix_source.T + noise * rng.normal(size=(n, d_source))
    target_noise = noise if noise_target is None else noise_target
    view_target = z @ mix_target.T + target_noise * rng.normal(size=(n, d_target))

    order = rng.permutation(n)
    pool = order[:n_pool]
    eval_rows = order[n_pool:n_pool + n_eval]
    source_only = order[n_pool + n_eval:]

    ids_source = np.concatenate([pool, source_only])
    ids_target = np.concatenate([pool, eval_rows])
    return FederationSplit(
        ids_source=ids_source, x_source=view_source[ids_source],
        labels_source=labels[ids_source],
        ids_target=ids_target, x_target=view_target[ids_target],
        overlap_ids=pool[:n_overlap], labeled_ids=pool[:n_labeled],
        eval_ids=eval_rows, labels_eval=labels[eval_rows])


@dataclass(frozen=True)
class MetricReport:
    weighted_f1: float
    precision: dict
    recall: dict
    confusion: dict


def weighted_f1(predictions, truth) -> MetricReport:
    """Support-weighted F1 over the two classes, with per-class diagnostics."""
    predictions = np.asarray(predictions, dtype=int)
    truth = np.asarray(truth, dtype=int)
    if len(predictions) != len(truth):
        raise ValueError("length mismatch")
    if not len(truth):
        raise ValueError("empty input")
    confusion = {(t, p): int(np.sum((truth == t) & (predictions == p)))
                 for t in (1, -1) for p in (1, -1)}
    precision, recall, score = {}, {}, 0.0
    for cls in (1, -1):
        tp = confusion[(cls, cls)]
        predicted = int(np.sum(predictions == cls))
        support = int(np.sum(truth == cls))
        precision[cls] = tp / predicted if predicted else 0.0
        recall[cls] = tp / support if support else 0.0
        f1 = (2 * precision[cls] * recall[cls] / (precision[cls] + recall[cls])
              if precision[cls] + recall[cls] else 0.0)
        score += support / len(truth) * f1
    return MetricReport(score, precision, recall, confusion)


def fit_standardizer(x) -> tuple[np.ndarray, np.ndarray]:
    """Per-column mean and std over one party's own rows only."""
    x = np.asarray(x, dtype=float)
    mean = x.mean(axis=0)
    std = x.std(axis=0)
    std[std == 0] = 1.0
    return mean, std


def standardize(x, mean, std) -> np.ndarray:
    return (np.asarray(x, dtype=float) - mean) / std
