import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from secureftl.datasets import synth_two_view
from secureftl.plain import TrainingConfig
from secureftl.protocol import Engine
from secureftl.trcv import (
    FoldPlan,
    make_folds,
    mirror_split,
    restrict_source,
    run_fold,
    run_trcv,
    self_learning_safeguard,
)


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=6, max_value=60), st.integers(min_value=2, max_value=6),
       st.integers(min_value=0, max_value=1000))
def test_make_folds_invariants(n, k, seed):
    ids = np.arange(100, 100 + n)
    plan = make_folds(ids, min(k, n), seed)
    plan.validate(ids)
    sizes = [len(f) for f in plan.folds]
    assert max(sizes) - min(sizes) <= 1
    assert sorted(np.concatenate(plan.folds).tolist()) == ids.tolist()


def test_make_folds_rejects_bad_k():
    with pytest.raises(ValueError):
        make_folds(np.arange(5), 1)
    with pytest.raises(ValueError):
        make_folds(np.arange(3), 4)


def test_fold_plan_validate_catches_overlap():
    plan = FoldPlan(2, [np.array([1, 2]), np.array([2, 3])])
    with pytest.raises(ValueError):
        plan.validate(np.array([1, 2, 3]))


def test_restrict_source_drops_rows_and_pairs(small_split):
    sub = restrict_source(small_split, [11])
    assert 11 not in sub.ids_source
    assert 11 not in sub.overlap_ids
    assert 11 not in sub.labeled_ids
    # target side untouched: dropped rows can still be queried
    assert np.array_equal(sub.ids_target, small_split.ids_target)
    sub.validate()


def test_mirror_split_swaps_roles(small_split):
    labels_target = np.array([1, -1, 1, -1])
    mirrored = mirror_split(small_split, labels_target, heldout_ids=[13])
    assert np.array_equal(mirrored.ids_source, small_split.ids_target)
    assert np.array_equal(mirrored.labels_source, labels_target)
    assert np.array_equal(mirrored.ids_target, small_split.ids_source)
    assert np.array_equal(mirrored.eval_ids, [13])
    assert np.array_equal(mirrored.labels_eval, small_split.labels_for([13]))
    mirrored.validate()


def _toy_split(seed=0):
    return synth_two_view(n=40, d_source=4, d_target=3, noise=0.05,
                          n_overlap=20, n_labeled=16, n_eval=8, seed=seed,
                          margin=0.5)


def _fast_cfg(**kw):
    base = dict(learning_rate=0.5, max_iterations=15, tolerance=0.0,
                gamma=0.05, weight_decay=0.001, loss_mode="taylor")
    base.update(kw)
    return TrainingConfig(**base)


def test_run_fold_scores_heldout_rows():
    split = _toy_split()
    plan = make_folds(split.ids_source, 4, seed=0)
    score = run_fold(split, plan.folds[0], _fast_cfg(), [4, 3], [3, 3],
                     engine=Engine("plain"), seed=0, pretrain_epochs=5)
    assert 0.0 <= score <= 1.0


class _AllPositiveEngine:
    """An Engine stand-in: predicts +1 for every id and records each split
    it trains on."""

    def __init__(self):
        self.trained = []

    def train(self, split, net_source, net_target, cfg, seed=0):
        self.trained.append(split)
        return None, None

    def predict(self, split, net_source, net_target, query_ids, seed=0):
        return np.ones(len(query_ids), dtype=int)


def test_run_fold_hands_the_target_only_predicted_labels(small_split):
    # The original target holds the labels of the mirrored run. Each of them
    # is a prediction, the kept labeled pair 11, whose true label is -1, too.
    fold = np.array([13])
    assert -1 in small_split.labels_for(np.setdiff1d(small_split.labeled_ids, fold))
    engine = _AllPositiveEngine()
    run_fold(small_split, fold, _fast_cfg(), [3, 2], [2, 2], engine)
    _, mirrored = engine.trained
    assert np.array_equal(mirrored.ids_source, small_split.ids_target)
    assert np.array_equal(mirrored.labels_source, np.ones(len(small_split.ids_target)))


def test_run_fold_rejects_empty_fold(small_split):
    with pytest.raises(ValueError):
        run_fold(small_split, np.array([], dtype=int), _fast_cfg(), [3, 2], [2, 2])


def test_run_trcv_selects_best_mean():
    split = _toy_split(seed=1)
    candidates = [_fast_cfg(max_iterations=1, learning_rate=1e-4),
                  _fast_cfg()]
    report = run_trcv(split, candidates, k=2, dims_source=[4, 3],
                      dims_target=[3, 3], seed=0, pretrain_epochs=5)
    assert len(report.candidates) == 2
    assert all(len(c.per_fold) == 2 for c in report.candidates)
    means = [c.mean for c in report.candidates]
    assert report.mean == max(means)
    assert report.selected == int(np.argmax(means))


def test_run_trcv_rejects_empty_candidates(small_split):
    with pytest.raises(ValueError):
        run_trcv(small_split, [], k=2, dims_source=[3, 2], dims_target=[2, 2])


def test_safeguard_prefers_better_score():
    rng = np.random.default_rng(0)
    x = rng.normal(size=(30, 3))
    labels = np.where(x[:, 0] > 0, 1, -1)
    strong = self_learning_safeguard(x, labels, ftl_score=1.0, seed=0)
    weak = self_learning_safeguard(x, labels, ftl_score=0.0, seed=0)
    assert strong.transfer
    assert not weak.transfer
    assert strong.baseline_score == weak.baseline_score > 0.5


def test_safeguard_empty_pool_raises():
    with pytest.raises(ValueError):
        self_learning_safeguard(np.empty((0, 2)), np.array([]), ftl_score=0.5)


def test_safeguard_single_class_pool():
    x = np.ones((4, 2))
    labels = np.array([1, 1, 1, 1])
    decision = self_learning_safeguard(x, labels, ftl_score=1.0, seed=0)
    assert decision.baseline_score == 1.0
    assert decision.transfer
