import time

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from secureftl.datasets import (
    FederationSplit,
    IngestionError,
    fit_standardizer,
    load_csv,
    standardize,
    synth_two_view,
    vertical_split,
    weighted_f1,
)


def test_split_validate_passes(small_split):
    small_split.validate()


def test_split_validate_catches_bad_labels(small_split):
    bad = FederationSplit(
        ids_source=small_split.ids_source, x_source=small_split.x_source,
        labels_source=np.array([1, 0, 1, -1]), ids_target=small_split.ids_target,
        x_target=small_split.x_target, overlap_ids=small_split.overlap_ids,
        labeled_ids=small_split.labeled_ids, eval_ids=small_split.eval_ids,
        labels_eval=small_split.labels_eval)
    with pytest.raises(ValueError):
        bad.validate()


def test_split_validate_catches_foreign_overlap(small_split):
    bad = FederationSplit(
        ids_source=small_split.ids_source, x_source=small_split.x_source,
        labels_source=small_split.labels_source,
        ids_target=small_split.ids_target, x_target=small_split.x_target,
        overlap_ids=np.array([10, 99]), labeled_ids=small_split.labeled_ids,
        eval_ids=small_split.eval_ids, labels_eval=small_split.labels_eval)
    with pytest.raises(ValueError):
        bad.validate()


def test_split_validate_catches_labeled_eval_overlap(small_split):
    bad = FederationSplit(
        ids_source=np.array([10, 11, 12, 14]), x_source=small_split.x_source,
        labels_source=small_split.labels_source,
        ids_target=small_split.ids_target, x_target=small_split.x_target,
        overlap_ids=np.array([10, 11]), labeled_ids=np.array([14]),
        eval_ids=np.array([14]), labels_eval=np.array([1]))
    with pytest.raises(ValueError):
        bad.validate()


def test_row_lookup(small_split):
    rows = small_split.source_rows(np.array([12, 10]))
    assert np.array_equal(small_split.ids_source[rows], [12, 10])
    rows = small_split.target_rows(np.array([14]))
    assert np.array_equal(small_split.ids_target[rows], [14])
    assert np.array_equal(small_split.labels_for(np.array([11, 10])), [-1, 1])


@settings(max_examples=25)
@given(st.integers(min_value=12, max_value=120), st.integers(min_value=0, max_value=2 ** 31))
def test_synth_two_view_invariants(n, seed):
    split = synth_two_view(n=n, d_source=4, d_target=3, noise=0.1, seed=seed)
    split.validate()
    assert split.x_source.shape == (len(split.ids_source), 4)
    assert split.x_target.shape == (len(split.ids_target), 3)
    # pool rows live on both sides, eval rows only at the target
    shared = np.intersect1d(split.ids_source, split.ids_target)
    assert np.all(np.isin(split.overlap_ids, shared))
    assert np.all(np.isin(split.labeled_ids, shared))
    assert not np.any(np.isin(split.eval_ids, split.ids_source))
    # every id seen once overall per side
    assert len(np.unique(split.ids_source)) == len(split.ids_source)
    assert len(np.unique(split.ids_target)) == len(split.ids_target)


def test_synth_two_view_deterministic():
    a = synth_two_view(n=30, d_source=4, d_target=3, noise=0.1, seed=5)
    b = synth_two_view(n=30, d_source=4, d_target=3, noise=0.1, seed=5)
    assert np.array_equal(a.x_source, b.x_source)
    assert np.array_equal(a.labels_source, b.labels_source)


def test_synth_two_view_margin_separates():
    split = synth_two_view(n=40, d_source=4, d_target=3, noise=0.0, seed=2,
                           margin=0.5)
    # labels come from a halfspace; with zero noise the source view is
    # linearly separable, so a least-squares probe classifies perfectly
    x = np.column_stack([split.x_source, np.ones(len(split.x_source))])
    w, *_ = np.linalg.lstsq(x, split.labels_source, rcond=None)
    assert np.all(np.sign(x @ w) == split.labels_source)


def test_synth_two_view_refuses_a_margin_no_row_clears():
    # |w.z| >= 6 has probability about 2e-9 per draw: the row's resampling
    # gives up after MARGIN_DRAWS draws instead of running on.
    started = time.perf_counter()
    with pytest.raises(ValueError, match="margin = 6"):
        synth_two_view(n=40, d_source=4, d_target=3, noise=0.05, margin=6)
    assert time.perf_counter() - started < 10


def test_synth_two_view_noise_target_changes_target_only():
    a = synth_two_view(n=30, d_source=4, d_target=3, noise=0.1, seed=7)
    b = synth_two_view(n=30, d_source=4, d_target=3, noise=0.1, seed=7,
                       noise_target=5.0)
    assert np.array_equal(a.x_source, b.x_source)
    assert not np.array_equal(a.x_target, b.x_target)


def test_synth_two_view_pool_bounds():
    with pytest.raises(ValueError):
        synth_two_view(n=20, d_source=3, d_target=3, noise=0.1,
                       n_overlap=18, n_eval=6)


def test_weighted_f1_perfect_and_shapes():
    truth = np.array([1, 1, -1, -1])
    report = weighted_f1(truth, truth)
    assert report.weighted_f1 == 1.0
    assert report.precision[1] == report.recall[-1] == 1.0
    assert report.confusion[(1, -1)] == 0


def test_weighted_f1_known_value():
    truth = np.array([1, 1, 1, -1])
    pred = np.array([1, 1, -1, -1])
    # frozen: f1(+1) = 2*(1*2/3)/(1+2/3) = 0.8, f1(-1) = 2*(1/2*1)/1.5 = 2/3
    # weighted = 0.75*0.8 + 0.25*2/3
    report = weighted_f1(pred, truth)
    assert report.weighted_f1 == pytest.approx(0.75 * 0.8 + 0.25 * (2 / 3))


def test_weighted_f1_rejects_bad_input():
    with pytest.raises(ValueError):
        weighted_f1(np.array([1]), np.array([1, -1]))
    with pytest.raises(ValueError):
        weighted_f1(np.array([]), np.array([]))


def test_vertical_split_membership():
    rng = np.random.default_rng(0)
    x = rng.normal(size=(50, 6))
    labels = rng.choice([-1, 1], size=50)
    split = vertical_split(x, labels, columns_source=[0, 1, 2],
                           overlap_fraction=0.4, label_fraction=0.5, rng=3)
    split.validate()
    assert split.x_source.shape[1] == 3
    assert split.x_target.shape[1] == 3
    assert len(split.overlap_ids) == 20
    assert len(split.labeled_ids) == 10


def test_load_csv(tmp_path):
    path = tmp_path / "data.csv"
    path.write_text("a,label,b\n1.5,1,3\n2.0,0,-1\n0.5,yes,0\n")
    x, labels, names = load_csv(str(path), "label")
    assert names == ["a", "b"]
    assert np.array_equal(labels, [1, -1, -1])
    assert np.allclose(x[1], [2.0, -1.0])


def test_load_csv_errors(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("a,label\noops,1\n")
    with pytest.raises(IngestionError):
        load_csv(str(path), "label")
    path.write_text("a,b\n1,2\n")
    with pytest.raises(IngestionError):
        load_csv(str(path), "label")


def test_standardize_roundtrip():
    rng = np.random.default_rng(1)
    x = rng.normal(loc=3.0, scale=2.0, size=(30, 4))
    mean, std = fit_standardizer(x)
    z = standardize(x, mean, std)
    assert np.allclose(z.mean(axis=0), 0.0, atol=1e-12)
    assert np.allclose(z.std(axis=0), 1.0, atol=1e-12)


def test_standardize_constant_column():
    x = np.ones((5, 2))
    mean, std = fit_standardizer(x)
    assert np.all(std == 1.0)
    assert np.allclose(standardize(x, mean, std), 0.0)
