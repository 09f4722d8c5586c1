"""Plaintext twin of the federated training loop.

Runs the same per-iteration schedule as the encrypted protocol: forward both
nets, evaluate the objective on pre-update parameters, apply one gradient
step to each party, then test the convergence gap. The encrypted engine must
reproduce this trajectory; keeping the schedule here, free of any crypto,
makes it both the correctness oracle and the fast engine for larger
experiments.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .datasets import FederationSplit
from .nets import Network
from .objective import (
    alignment_spec,
    label_prototype,
    plaintext_gradients,
    predict_phi,
    threshold_labels,
)


@dataclass(frozen=True)
class TrainingConfig:
    """Step size, loss weights, and termination rule for one training run."""

    learning_rate: float = 0.05
    gamma: float = 0.05
    weight_decay: float = 0.005
    max_iterations: int = 50
    tolerance: float = 0.0
    alignment: str = "inner"
    loss_mode: str = "taylor"

    def __post_init__(self):
        if self.learning_rate <= 0:
            raise ValueError("learning rate must be positive")
        if self.max_iterations < 1:
            raise ValueError("need at least one iteration")
        if self.tolerance < 0:
            raise ValueError("tolerance must be non-negative")
        if self.gamma < 0 or self.weight_decay < 0:
            raise ValueError("gamma and weight_decay must be non-negative")
        if self.loss_mode not in ("taylor", "exact"):
            raise ValueError(f"unknown loss_mode {self.loss_mode!r}")
        alignment_spec(self.alignment)


@dataclass
class TrainingResult:
    net_source: Network
    net_target: Network
    loss_history: list[float] = field(default_factory=list)
    converged: bool = False


def target_batch(split: FederationSplit):
    """Canonical target-side forward batch: the rows the loss touches.

    Returns (batch_ids, labeled_positions, overlap_positions) where the
    positions index into the batch. Both engines use this so their gradient
    accumulation order is identical.
    """
    batch_ids = np.unique(np.concatenate([split.labeled_ids, split.overlap_ids]))
    pos = {int(i): k for k, i in enumerate(batch_ids)}
    labeled_pos = np.array([pos[int(i)] for i in split.labeled_ids], dtype=int)
    overlap_pos = np.array([pos[int(i)] for i in split.overlap_ids], dtype=int)
    return batch_ids, labeled_pos, overlap_pos


def train_plain(split: FederationSplit, net_source: Network, net_target: Network,
                cfg: TrainingConfig) -> TrainingResult:
    """Train both nets in place; returns them with the loss history. An
    invalid split is refused before the first step."""
    split.validate()
    batch_ids, labeled_pos, overlap_pos = target_batch(split)
    x_target = split.x_target[split.target_rows(batch_ids)]
    c_rows_source = split.source_rows(split.labeled_ids)
    ab_rows_source = split.source_rows(split.overlap_ids)

    result = TrainingResult(net_source, net_target)
    previous = math.inf
    for _ in range(cfg.max_iterations):
        grads_source, grads_target, terms = plaintext_gradients(
            net_source, split.x_source, split.labels_source,
            net_target, x_target,
            c_rows_source, labeled_pos, ab_rows_source, overlap_pos, cfg)
        result.loss_history.append(terms.loss)
        net_source.apply_gradients(grads_source, cfg.learning_rate)
        net_target.apply_gradients(grads_target, cfg.learning_rate)
        if previous - terms.loss <= cfg.tolerance:
            result.converged = True
            break
        previous = terms.loss
    return result


def source_prototype(split: FederationSplit, net_source: Network) -> np.ndarray:
    """The source party's trained translator: label-weighted mean of u."""
    return label_prototype(net_source.forward(split.x_source), split.labels_source)


def predict_plain(split: FederationSplit, net_source: Network, net_target: Network,
                  query_ids) -> np.ndarray:
    """Label target rows by thresholding prototype . u, all in plaintext."""
    prototype = source_prototype(split, net_source)
    u_query = net_target.forward(split.x_target[split.target_rows(query_ids)])
    return threshold_labels(predict_phi(prototype, u_query))
