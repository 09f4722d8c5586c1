"""Plaintext federated transfer learning: the objective and its training loop.

The source party holds labels and builds a label-weighted mean representation
(the prototype); the target's score for a sample is the inner product of the
prototype with the target-side representation. The logistic loss over these
scores is replaced by its degree-2 Taylor expansion so that the encrypted
protocol only ever needs additions and plaintext multiplications; the exact
logistic form is kept for comparison runs.

train_plain runs the same per-iteration schedule as the encrypted protocol:
forward both nets, evaluate the objective on pre-update parameters, apply one
gradient step to each party, then test the convergence gap. Everything here is
pure numpy over plaintext arrays, free of any crypto, so it is both the oracle
the encrypted engine is tested against and the fast engine for larger
experiments.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .datasets import FederationSplit
from .nets import LayerParams, Network

LOG2 = math.log(2.0)


@dataclass(frozen=True)
class AlignmentSpec:
    """Decomposition l2(a, b) = own_a(a) + own_b(b) + kappa * a.b.

    Each party must be able to evaluate its share of the alignment loss on
    its own representation, with a single cross term of known constant
    weight; that is what makes the encrypted assembly possible.
    """

    kappa: float
    has_own_terms: bool

    def own_loss(self, u: np.ndarray) -> np.ndarray:
        if self.has_own_terms:
            return np.sum(u * u, axis=1)
        return np.zeros(len(u))

    def own_grad(self, u: np.ndarray) -> np.ndarray:
        if self.has_own_terms:
            return 2.0 * u
        return np.zeros_like(u)

    def row_loss(self, u_a: np.ndarray, u_b: np.ndarray) -> np.ndarray:
        return self.own_loss(u_a) + self.own_loss(u_b) + self.kappa * np.sum(u_a * u_b, axis=1)


def alignment_spec(kind: str) -> AlignmentSpec:
    if kind == "inner":
        # l2 = -a.b, minimized by co-linear representations.
        return AlignmentSpec(-1.0, False)
    if kind == "distance":
        # l2 = |a - b|^2 = |a|^2 + |b|^2 - 2 a.b.
        return AlignmentSpec(-2.0, True)
    raise ValueError(f"unknown alignment kind {kind!r}")


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


def label_prototype(u: np.ndarray, labels: np.ndarray) -> np.ndarray:
    """Label-weighted mean representation: (1/N) sum_i y_i u_i."""
    return labels @ u / len(labels)


def predict_phi(prototype: np.ndarray, u_rows: np.ndarray) -> np.ndarray:
    """Transfer score(s): inner product of the prototype with target rows."""
    return np.asarray(u_rows) @ np.asarray(prototype)


def threshold_labels(phi) -> np.ndarray:
    """Scores to labels; the tie at exactly zero classifies positive."""
    return np.where(np.asarray(phi, dtype=float) >= 0.0, 1, -1)


def taylor_loss1(y, phi):
    """Degree-2 expansion of the logistic loss around phi = 0.

    log(1 + exp(-y*phi)) ~ log 2 - y*phi/2 + (y*phi)^2/8. The linear
    coefficient is the exact derivative at zero, so loss and gradient stay
    consistent under the approximation.
    """
    y = np.asarray(y, dtype=float)
    phi = np.asarray(phi, dtype=float)
    return LOG2 - 0.5 * y * phi + 0.125 * (y * phi) ** 2


def taylor_dloss_dphi(y, phi):
    y = np.asarray(y, dtype=float)
    phi = np.asarray(phi, dtype=float)
    return -0.5 * y + 0.25 * y * y * phi


def logistic_loss1(y, phi):
    y = np.asarray(y, dtype=float)
    phi = np.asarray(phi, dtype=float)
    return np.logaddexp(0.0, -y * phi)


def logistic_dloss_dphi(y, phi):
    y = np.asarray(y, dtype=float)
    phi = np.asarray(phi, dtype=float)
    margin = y * phi
    return -y / (1.0 + np.exp(np.clip(margin, -500, 500)))


def _loss_fns(loss_mode: str):
    if loss_mode == "taylor":
        return taylor_loss1, taylor_dloss_dphi
    return logistic_loss1, logistic_dloss_dphi


@dataclass(frozen=True)
class TransferTerms:
    """One evaluation of the federated objective and its per-row gradients."""

    loss: float
    du_source: np.ndarray        # (N_source, d): prediction-loss path through the prototype
    du_source_align: np.ndarray  # (N_ab, d): alignment gradient on source overlap rows
    du_target_pred: np.ndarray   # (N_c, d): prediction gradient on labeled target rows
    du_target_align: np.ndarray  # (N_ab, d): alignment gradient on target overlap rows


def transfer_terms(u_source: np.ndarray, labels_source: np.ndarray,
                   u_target_c: np.ndarray, labels_c: np.ndarray,
                   u_source_ab: np.ndarray, u_target_ab: np.ndarray,
                   source_param_norm: float, target_param_norm: float,
                   cfg: TrainingConfig) -> TransferTerms:
    """Evaluate the full objective and all representation-level gradients.

    The prediction loss runs over the labeled target rows (scored against the
    source prototype); the alignment loss over the co-occurring pairs; the
    regularizer over both parties' squared parameter norms. The gradient of
    the prediction loss reaches every source row through the prototype:
    d(prototype)/d(u_j) = (y_j / N) * I. With no labeled or no overlap rows,
    the empty sums are 0.0 and the empty products zero vectors.
    """
    loss1, dloss1 = _loss_fns(cfg.loss_mode)
    spec = alignment_spec(cfg.alignment)

    prototype = label_prototype(u_source, labels_source)
    phi = predict_phi(prototype, u_target_c)
    pred_loss = float(np.sum(loss1(labels_c, phi)))
    dphi = dloss1(labels_c, phi)

    # S = sum_i dphi_i u_i^target: the common factor of every source row's
    # prediction gradient.
    du_source = np.outer(labels_source, dphi @ u_target_c) / len(u_source)
    du_target_pred = np.outer(dphi, prototype)

    align_loss = float(np.sum(spec.row_loss(u_source_ab, u_target_ab)))
    du_source_align = cfg.gamma * (spec.kappa * u_target_ab + spec.own_grad(u_source_ab))
    du_target_align = cfg.gamma * (spec.kappa * u_source_ab + spec.own_grad(u_target_ab))

    loss = (pred_loss + cfg.gamma * align_loss
            + 0.5 * cfg.weight_decay * (source_param_norm + target_param_norm))
    return TransferTerms(loss, du_source, du_source_align, du_target_pred, du_target_align)


@dataclass(frozen=True)
class PartyRows:
    """One party's training rows: its forward batch x, the batch rows of the
    labeled pairs (c_rows) and of the overlap pairs (ab_rows), each in the
    split's pair order, and, at the source only, its +-1 labels."""

    x: np.ndarray
    c_rows: np.ndarray
    ab_rows: np.ndarray
    labels: np.ndarray | None = None


def party_rows(split: FederationSplit) -> tuple[PartyRows, PartyRows]:
    """(source, target) rows, the one record both engines train from.

    The source's batch is all its rows. The target's is the rows the loss
    touches, in id order, so both engines accumulate its gradient in the
    same order.
    """
    batch_ids = np.unique(np.concatenate([split.labeled_ids, split.overlap_ids]))
    source = PartyRows(split.x_source, split.source_rows(split.labeled_ids),
                       split.source_rows(split.overlap_ids), split.labels_source)
    target = PartyRows(split.x_target[split.target_rows(batch_ids)],
                       np.searchsorted(batch_ids, split.labeled_ids),
                       np.searchsorted(batch_ids, split.overlap_ids))
    return source, target


def _gather_terms(net_source: Network, source: PartyRows, net_target: Network,
                  target: PartyRows, cfg: TrainingConfig):
    trace_source = net_source.forward_trace(source.x)
    trace_target = net_target.forward_trace(target.x)
    u_source, u_target = trace_source[-1], trace_target[-1]
    terms = transfer_terms(
        u_source, np.asarray(source.labels, dtype=float),
        u_target[target.c_rows], np.asarray(source.labels)[source.c_rows],
        u_source[source.ab_rows], u_target[target.ab_rows],
        net_source.squared_param_norm(), net_target.squared_param_norm(), cfg)
    return trace_source, trace_target, terms


def full_loss(net_source: Network, source: PartyRows, net_target: Network,
              target: PartyRows, cfg: TrainingConfig) -> float:
    """Objective value: prediction + gamma*alignment + (decay/2)*param norms."""
    return _gather_terms(net_source, source, net_target, target, cfg)[2].loss


def plaintext_gradients(net_source: Network, source: PartyRows, net_target: Network,
                        target: PartyRows, cfg: TrainingConfig
                        ) -> tuple[list[LayerParams], list[LayerParams], TransferTerms]:
    """Exact parameter gradients of full_loss for both networks.

    Row-level gradients are scattered onto each party's forward batch and
    pushed through backpropagation; the weight-decay term adds decay*theta to
    every layer.
    """
    trace_source, trace_target, terms = _gather_terms(net_source, source, net_target,
                                                      target, cfg)
    du_source = terms.du_source.copy()
    du_source[source.ab_rows] += terms.du_source_align
    du_target = np.zeros_like(trace_target[-1])
    du_target[target.c_rows] += terms.du_target_pred
    du_target[target.ab_rows] += terms.du_target_align

    grads_source = net_source.backward(trace_source, du_source)
    grads_target = net_target.backward(trace_target, du_target)
    for net, grads in ((net_source, grads_source), (net_target, grads_target)):
        for layer, grad in zip(net.layers, grads):
            grad.weights += cfg.weight_decay * layer.weights
            grad.bias += cfg.weight_decay * layer.bias
    return grads_source, grads_target, terms


@dataclass
class TrainingResult:
    net_source: Network
    net_target: Network
    loss_history: list[float] = field(default_factory=list)
    converged: bool = False


def train_plain(split: FederationSplit, net_source: Network, net_target: Network,
                cfg: TrainingConfig) -> TrainingResult:
    """Train both nets in place; returns them with the loss history. An
    invalid split is refused before the first step."""
    split.validate()
    source, target = party_rows(split)
    result = TrainingResult(net_source, net_target)
    previous = math.inf
    for _ in range(cfg.max_iterations):
        grads_source, grads_target, terms = plaintext_gradients(
            net_source, source, net_target, target, cfg)
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
