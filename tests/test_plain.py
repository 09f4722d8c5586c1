import numpy as np
import pytest

from secureftl.datasets import synth_two_view
from secureftl.nets import init_network
from secureftl.plain import (
    TrainingConfig,
    party_rows,
    predict_plain,
    source_prototype,
    train_plain,
)


def _nets(split, hidden=4, seed=0):
    net_a = init_network([split.x_source.shape[1], hidden], seed=seed)
    net_b = init_network([split.x_target.shape[1], hidden], seed=seed + 1)
    return net_a, net_b


def test_config_defaults_and_validation():
    cfg = TrainingConfig()
    assert cfg.learning_rate == 0.05
    assert cfg.max_iterations == 50
    assert cfg.loss_mode == "taylor"
    with pytest.raises(ValueError):
        TrainingConfig(learning_rate=0.0)
    with pytest.raises(ValueError):
        TrainingConfig(max_iterations=0)
    with pytest.raises(ValueError):
        TrainingConfig(tolerance=-0.1)
    with pytest.raises(ValueError):
        TrainingConfig(loss_mode="cubic")


def test_party_rows_composition(small_split):
    source, target = party_rows(small_split)
    # The target's batch is the rows the loss touches, in id order.
    batch_ids = np.unique(np.concatenate([small_split.labeled_ids, small_split.overlap_ids]))
    assert np.array_equal(target.x, small_split.x_target[small_split.target_rows(batch_ids)])
    # positions index into batch_ids in the labeled/overlap id order
    assert np.array_equal(batch_ids[target.c_rows], small_split.labeled_ids)
    assert np.array_equal(batch_ids[target.ab_rows], small_split.overlap_ids)
    assert target.labels is None
    # The source's batch is all its rows, with its labels.
    assert np.array_equal(source.x, small_split.x_source)
    assert np.array_equal(source.labels, small_split.labels_source)
    assert np.array_equal(small_split.ids_source[source.c_rows], small_split.labeled_ids)
    assert np.array_equal(small_split.ids_source[source.ab_rows], small_split.overlap_ids)


def test_train_records_one_loss_per_iteration(small_split):
    net_a, net_b = _nets(small_split)
    cfg = TrainingConfig(learning_rate=0.1, max_iterations=7, tolerance=0.0)
    result = train_plain(small_split, net_a, net_b, cfg)
    assert len(result.loss_history) == 7
    assert result.converged is False


def test_train_loss_decreases():
    split = synth_two_view(n=60, d_source=4, d_target=3, noise=0.05, seed=0)
    net_a, net_b = _nets(split, hidden=4)
    cfg = TrainingConfig(learning_rate=0.2, max_iterations=40, tolerance=0.0)
    result = train_plain(split, net_a, net_b, cfg)
    assert result.loss_history[-1] < result.loss_history[0]


def test_tolerance_infinite_stops_after_first_update():
    split = synth_two_view(n=40, d_source=4, d_target=3, noise=0.05, seed=1)
    net_a, net_b = _nets(split)
    cfg = TrainingConfig(learning_rate=0.1, max_iterations=50,
                         tolerance=float("inf"))
    result = train_plain(split, net_a, net_b, cfg)
    assert len(result.loss_history) == 1
    assert result.converged is True


def test_max_iterations_one_does_one_update(small_split):
    net_a, net_b = _nets(small_split)
    before = net_a.get_flat().copy()
    cfg = TrainingConfig(learning_rate=0.1, max_iterations=1, tolerance=0.0)
    result = train_plain(small_split, net_a, net_b, cfg)
    assert len(result.loss_history) == 1
    assert not np.array_equal(before, result.net_source.get_flat())


def test_update_applied_even_on_converged_iteration(small_split):
    # the loss is recorded before the update, so the update always lands
    net_a, net_b = _nets(small_split)
    before = net_a.get_flat().copy()
    cfg = TrainingConfig(learning_rate=0.1, max_iterations=5,
                         tolerance=float("inf"))
    result = train_plain(small_split, net_a, net_b, cfg)
    assert result.converged is True
    assert not np.array_equal(before, result.net_source.get_flat())


def test_source_prototype_matches_definition(small_split):
    net_a, _ = _nets(small_split)
    proto = source_prototype(small_split, net_a)
    u = net_a.forward(small_split.x_source)
    expected = (small_split.labels_source[:, None] * u).mean(axis=0)
    assert np.allclose(proto, expected)


def test_predict_plain_labels(small_split):
    net_a, net_b = _nets(small_split)
    labels = predict_plain(small_split, net_a, net_b, small_split.eval_ids)
    assert labels.shape == (1,)
    assert set(np.unique(labels)).issubset({-1, 1})


def test_predict_plain_is_threshold_of_phi(small_split):
    net_a, net_b = _nets(small_split)
    query = small_split.eval_ids
    labels = predict_plain(small_split, net_a, net_b, query)
    proto = source_prototype(small_split, net_a)
    u = net_b.forward(small_split.x_target[small_split.target_rows(query)])
    assert np.array_equal(labels, np.where(u @ proto >= 0, 1, -1))
