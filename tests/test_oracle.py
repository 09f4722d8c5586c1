"""The differential oracle: the encrypted engine against the plaintext one
over random splits, nets and objectives.

Each example draws a federation whose labeled pairs meet the overlap pairs
in any way (either set may be empty), nets of depth 1-3 per party with a
shared output width d of 1-4, the alignment kind, gamma, weight decay,
learning rate, a tolerance and 1-3 iterations. train_encrypted must then
run train_plain's iterations, stop where it stops, and keep the loss
history and both nets within BOUND of it; its transcript must pass the
audit; and predict_encrypted must give predict_plain's labels.
"""

import numpy as np
from hypothesis import HealthCheck, assume, given, settings, strategies as st

from secureftl.datasets import FederationSplit
from secureftl.nets import init_network
from secureftl.objective import label_prototype, predict_phi
from secureftl.plain import TrainingConfig, predict_plain, train_plain
from secureftl.protocol import audit_training, predict_encrypted, train_encrypted

F = 40
# Each plaintext factor meets a ciphertext encoded at f or more fraction
# bits, so a term is off by at most 2^-(f+1) times a factor of order one,
# and an entry here sums a few dozen terms: the gaps seen stay below
# 2^(1 - f) (1.9e-12 at f = 40). BOUND = 2^(10 - f) leaves a margin of 2^9.
BOUND = 2.0 ** (12 - F)


@st.composite
def _federations(draw):
    """A FederationSplit of 1-6 source rows and 1-6 target rows with unsorted
    ids: the rows both parties hold, any subsets of them as overlap and as
    labeled pairs, and 1-2 target-only eval rows."""
    n_both = draw(st.integers(0, 4))
    n_source_only = draw(st.integers(0 if n_both else 1, 2))
    n_eval = draw(st.integers(1, 2))
    ids = draw(st.lists(st.integers(0, 99), min_size=n_both + n_source_only + n_eval,
                        max_size=n_both + n_source_only + n_eval, unique=True))
    both, source_only, eval_ids = (ids[:n_both], ids[n_both:n_both + n_source_only],
                                   ids[n_both + n_source_only:])
    ids_source = draw(st.permutations(both + source_only))
    ids_target = draw(st.permutations(both + eval_ids))
    overlap = draw(st.permutations([i for i in both if draw(st.booleans())]))
    labeled = draw(st.permutations([i for i in both if draw(st.booleans())]))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 16)))
    widths = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    return FederationSplit(
        ids_source=ids_source, x_source=rng.normal(size=(len(ids_source), widths[0])),
        labels_source=rng.choice([-1, 1], size=len(ids_source)),
        ids_target=ids_target, x_target=rng.normal(size=(len(ids_target), widths[1])),
        overlap_ids=overlap, labeled_ids=labeled,
        eval_ids=eval_ids, labels_eval=rng.choice([-1, 1], size=len(eval_ids)))


def _dims(draw, input_width: int, d: int) -> list[int]:
    """[input, hidden..., d] with 0-2 hidden layers of width 1-3."""
    hidden = draw(st.lists(st.integers(1, 3), max_size=2))
    return [input_width] + hidden + [d]


@settings(max_examples=25, derandomize=True, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(st.data())
def test_encrypted_engine_follows_the_plaintext_oracle(data):
    split = data.draw(_federations())
    split.validate()
    d = data.draw(st.integers(1, 4))
    dims_source = _dims(data.draw, split.x_source.shape[1], d)
    dims_target = _dims(data.draw, split.x_target.shape[1], d)
    cfg = TrainingConfig(
        learning_rate=data.draw(st.floats(0.01, 1.0)), gamma=data.draw(st.floats(0.0, 1.0)),
        weight_decay=data.draw(st.floats(0.0, 0.1)),
        max_iterations=data.draw(st.integers(1, 3)),
        tolerance=data.draw(st.sampled_from([0.0, 1e-3, 10.0])),
        alignment=data.draw(st.sampled_from(["inner", "distance"])))
    seed = data.draw(st.integers(0, 2 ** 16))

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
