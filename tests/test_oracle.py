"""The differential oracle: the encrypted engine against the plaintext one
over random splits, nets and objectives.

Each case fixes one shape: how many rows both parties hold, the source
alone holds and the target holds for evaluation, how many shared rows are
overlap and labeled pairs, each party's feature width, the shared output
width d, each net's hidden widths and the iteration count. The 25 shapes
are all distinct. Within a case hypothesis draws one example of the rest:
ids, which shared rows form each pair set, features, labels, the alignment
kind, gamma, weight decay, learning rate, tolerance and seed.
train_encrypted must then run train_plain's iterations, stop where it
stops, and keep the loss history and both nets within BOUND of it; its
transcript must pass the audit; and predict_encrypted must give
predict_plain's labels.
"""

from typing import NamedTuple

import numpy as np
import pytest
import hypothesis
from hypothesis import HealthCheck, assume, given, settings, strategies as st

from secureftl.datasets import FederationSplit
from secureftl.nets import init_network
from secureftl.plain import (TrainingConfig, label_prototype, predict_phi, predict_plain,
                             train_plain)
from secureftl.protocol import audit_training, predict_encrypted, train_encrypted

F = 40
# Each plaintext factor meets a ciphertext encoded at f or more fraction
# bits, so a term is off by at most 2^-(f+1) times a factor of order one,
# and an entry here sums a few dozen terms: the gaps seen stay below
# 2^(1 - f) (1.9e-12 at f = 40). BOUND = 2^(10 - f) leaves a margin of 2^9.
BOUND = 2.0 ** (10 - F)


class Shape(NamedTuple):
    n_both: int
    n_source_only: int
    n_eval: int
    n_overlap: int
    n_labeled: int
    widths: tuple[int, int]
    d: int
    hidden_source: tuple[int, ...]
    hidden_target: tuple[int, ...]
    iterations: int


SHAPES = [Shape(*row) for row in [
    # both, source-only, eval, overlap, labeled, widths, d, hidden, hidden, iterations
    (0, 1, 1, 0, 0, (1, 1), 1, (), (), 1),
    (0, 2, 2, 0, 0, (3, 2), 2, (2,), (), 2),
    (1, 0, 1, 1, 1, (1, 1), 1, (), (), 1),
    (1, 0, 1, 0, 1, (2, 3), 3, (), (1,), 2),
    (1, 1, 2, 1, 0, (2, 1), 2, (3,), (2,), 3),
    (1, 2, 1, 0, 0, (3, 3), 4, (1, 2), (), 1),
    (2, 0, 1, 2, 2, (1, 2), 2, (), (3,), 2),
    (2, 1, 1, 1, 2, (2, 2), 1, (2, 2), (1,), 3),
    (2, 2, 2, 2, 0, (3, 1), 3, (), (2, 3), 1),
    (2, 0, 2, 0, 2, (1, 3), 4, (3,), (), 2),
    (2, 1, 2, 1, 1, (2, 2), 2, (1,), (1,), 1),
    (2, 2, 1, 2, 1, (1, 1), 1, (1, 1), (1, 1), 3),
    (3, 0, 1, 3, 3, (3, 2), 1, (), (), 3),
    (3, 1, 1, 2, 1, (1, 1), 3, (2,), (3, 1), 2),
    (3, 2, 2, 0, 3, (2, 3), 2, (3, 3), (), 1),
    (3, 0, 2, 3, 0, (3, 3), 4, (), (2,), 2),
    (3, 1, 2, 1, 2, (1, 2), 1, (1, 3), (2, 2), 3),
    (3, 2, 1, 2, 2, (2, 1), 3, (), (1,), 1),
    (4, 0, 1, 4, 4, (1, 1), 2, (2,), (), 2),
    (4, 1, 2, 3, 2, (3, 2), 4, (), (3,), 1),
    (4, 2, 1, 2, 4, (2, 3), 1, (3, 2), (1, 2), 2),
    (4, 0, 2, 0, 1, (3, 1), 3, (1,), (), 3),
    (4, 1, 1, 4, 0, (1, 3), 2, (), (2, 1), 1),
    (4, 2, 2, 1, 3, (2, 2), 4, (2,), (3,), 2),
    (4, 2, 2, 4, 4, (3, 3), 4, (3, 3), (3, 3), 3),
]]


def _federation(draw, shape: Shape) -> FederationSplit:
    """A FederationSplit of shape's row counts with unsorted ids: the rows
    both parties hold, n_overlap and n_labeled of them as the pair sets, and
    the target-only eval rows."""
    n_both, n_source_only = shape.n_both, shape.n_source_only
    ids = draw(st.lists(st.integers(0, 99), min_size=n_both + n_source_only + shape.n_eval,
                        max_size=n_both + n_source_only + shape.n_eval, unique=True))
    both, source_only, eval_ids = (ids[:n_both], ids[n_both:n_both + n_source_only],
                                   ids[n_both + n_source_only:])
    ids_source = draw(st.permutations(both + source_only))
    ids_target = draw(st.permutations(both + eval_ids))
    overlap = draw(st.permutations(both))[:shape.n_overlap]
    labeled = draw(st.permutations(both))[:shape.n_labeled]
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 16)))
    return FederationSplit(
        ids_source=ids_source, x_source=rng.normal(size=(len(ids_source), shape.widths[0])),
        labels_source=rng.choice([-1, 1], size=len(ids_source)),
        ids_target=ids_target, x_target=rng.normal(size=(len(ids_target), shape.widths[1])),
        overlap_ids=overlap, labeled_ids=labeled,
        eval_ids=eval_ids, labels_eval=rng.choice([-1, 1], size=len(eval_ids)))


@pytest.mark.parametrize("case", range(len(SHAPES)))
def test_encrypted_engine_follows_the_plaintext_oracle(case):
    shape = SHAPES[case]

    # Hypothesis tries its simplest example first, every draw at its
    # minimum (gamma and weight decay 0 among them); the first draw refuses
    # it, so the case's one example is a random one, seeded by the case.
    @hypothesis.seed(case)
    @settings(max_examples=1, database=None, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(st.data())
    def check(data):
        assume(data.draw(st.booleans()))
        _check_one(data.draw, shape)

    check()


def _check_one(draw, shape: Shape):
    split = _federation(draw, shape)
    split.validate()
    dims_source = [shape.widths[0], *shape.hidden_source, shape.d]
    dims_target = [shape.widths[1], *shape.hidden_target, shape.d]
    cfg = TrainingConfig(
        learning_rate=draw(st.floats(0.01, 1.0)), gamma=draw(st.floats(0.0, 1.0)),
        weight_decay=draw(st.floats(0.0, 0.1)), max_iterations=shape.iterations,
        tolerance=draw(st.sampled_from([0.0, 1e-3, 10.0])),
        alignment=draw(st.sampled_from(["inner", "distance"])))
    seed = draw(st.integers(0, 2 ** 16))

    plain = train_plain(split, init_network(dims_source, seed),
                        init_network(dims_target, seed + 1), cfg)
    # A stop decided within BOUND of the tolerance, or a score within BOUND
    # of the threshold, is not the engines' to agree on.
    gaps = -np.diff(plain.loss_history)
    assume(np.all(np.abs(gaps - cfg.tolerance) > BOUND))
    prototype = label_prototype(plain.net_source.forward(split.x_source), split.labels_source)
    scores = predict_phi(prototype, plain.net_target.forward(
        split.x_target[split.target_rows(split.eval_ids)]))
    assume(np.all(np.abs(scores) > BOUND))

    run = train_encrypted(split, init_network(dims_source, seed),
                          init_network(dims_target, seed + 1), cfg, key_bits=512, frac_bits=F,
                          seed=seed)
    assert len(run.result.loss_history) == len(plain.loss_history)
    assert run.result.converged == plain.converged
    assert np.allclose(run.result.loss_history, plain.loss_history, rtol=BOUND, atol=BOUND)
    for encrypted_net, plain_net in ((run.result.net_source, plain.net_source),
                                     (run.result.net_target, plain.net_target)):
        assert np.allclose(encrypted_net.get_flat(), plain_net.get_flat(), rtol=BOUND,
                           atol=BOUND)
    assert audit_training(run.transcript, run.source, run.target).ok

    labels = predict_encrypted(split, plain.net_source, plain.net_target, split.eval_ids,
                               key_bits=512, frac_bits=F, seed=seed).labels
    assert np.array_equal(labels, predict_plain(split, plain.net_source, plain.net_target,
                                                split.eval_ids))
