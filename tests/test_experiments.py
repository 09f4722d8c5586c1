import hashlib
import re

import numpy as np
import pytest

from secureftl import experiments, nets
from secureftl.datasets import vertical_split
from secureftl.experiments import (
    ExperimentConfig,
    build_split,
    load_config,
    parse_config_text,
    run_experiment,
)
from secureftl.nets import init_network
from secureftl.protocol import train_encrypted
from secureftl.transport import DIR_SOURCE_TO_TARGET, DIR_TARGET_TO_SOURCE


def test_parse_config_text_roundtrip():
    cfg = parse_config_text(
        "kind = overlap-sweep  # comment\n"
        "\n"
        "n = 80\n"
        "learning_rate = 0.25\n"
        "sweep = 10, 20, 40\n"
        "engine = encrypted\n")
    assert cfg.kind == "overlap-sweep"
    assert cfg.n == 80
    assert cfg.learning_rate == 0.25
    assert cfg.sweep == (10, 20, 40)
    assert cfg.engine == "encrypted"
    # untouched keys keep defaults
    assert cfg.key_bits == ExperimentConfig().key_bits


def test_parse_config_rejects_bad_lines():
    with pytest.raises(ValueError):
        parse_config_text("just words\n")
    with pytest.raises(ValueError):
        parse_config_text("not_a_key = 3\n")
    with pytest.raises(ValueError):
        parse_config_text("trcv_k = 3\n")
    # A value that does not parse names its line and key.
    for text, message in (("n = abc", "line 2: n expects int, got 'abc'"),
                          ("sweep = 8,x", "line 2: sweep expects comma-separated integers"),
                          ("gamma = 0.1.2", "line 2: gamma expects float, got '0.1.2'")):
        with pytest.raises(ValueError, match=re.escape(message)):
            parse_config_text(f"# comment\n{text}\n")


def test_config_validate():
    with pytest.raises(ValueError):
        ExperimentConfig(kind="nope").validate()
    with pytest.raises(ValueError):
        ExperimentConfig(engine="fhe").validate()
    with pytest.raises(ValueError):
        ExperimentConfig(transport="carrier-pigeon").validate()
    with pytest.raises(ValueError):
        ExperimentConfig(dataset="/does/not/exist.csv").validate()
    # the encrypted engine trains the Taylor loss only
    with pytest.raises(ValueError):
        ExperimentConfig(kind="overlap-sweep", engine="encrypted",
                         loss_mode="exact").validate()
    for kind in ("taylor-vs-exact", "ftl-vs-self"):
        with pytest.raises(ValueError):
            ExperimentConfig(kind=kind, engine="encrypted").validate()
    with pytest.raises(ValueError):
        ExperimentConfig(kind="scaling-sweep", engine="plain").validate()
    # Counts a run cannot use name their key.
    for bad in (dict(seeds=0), dict(seeds=-1), dict(n_overlap=-3), dict(n_labeled=-1),
                dict(n_eval=-2), dict(sweep=(4, -8)), dict(dim_sweep=(-2,))):
        (key,) = bad
        with pytest.raises(ValueError, match=key):
            ExperimentConfig(**bad).validate()
    ExperimentConfig().validate()
    ExperimentConfig(kind="scaling-sweep", engine="encrypted").validate()
    ExperimentConfig(seeds=1, n_overlap=0, sweep=(0, 4), dim_sweep=(2,)).validate()


def test_config_and_engine_refuse_a_non_taylor_loss_alike(small_split):
    # Both refusals come from one check, so they read alike.
    with pytest.raises(ValueError) as by_config:
        ExperimentConfig(kind="overlap-sweep", engine="encrypted", loss_mode="exact").validate()
    cfg = ExperimentConfig(loss_mode="exact").training()
    with pytest.raises(ValueError) as by_engine:
        train_encrypted(small_split, init_network([3, 2], seed=4), init_network([2, 2], seed=5),
                        cfg)
    assert str(by_config.value) == str(by_engine.value)


@pytest.mark.parametrize("bad, message", [
    (dict(gamma=-1.0), "gamma and weight_decay must be non-negative"),
    (dict(weight_decay=-0.5), "gamma and weight_decay must be non-negative"),
    (dict(alignment="nope"), "unknown alignment kind 'nope'"),
    (dict(learning_rate=0.0), "learning rate must be positive"),
    (dict(engine="encrypted", key_bits=500), "key size must be an even number of bits"),
    (dict(engine="encrypted", frac_bits=100), "1-layer source net needs 300 fraction bits"),
    (dict(engine="encrypted", frac_bits=-1), "frac_bits -1 outside [0, 255]"),
    (dict(pretrain_epochs=-1), "pretrain_epochs = -1"),
    (dict(d_source_features=0), "d_source_features = 0"),
    (dict(n=3), "n = 3"),
    (dict(latent_dim=0), "latent_dim = 0"),
    (dict(transport="tcp", port=-5), "port = -5"),
    (dict(kind="scaling-sweep", engine="encrypted", sweep=(4,), dim_sweep=(2, 0)),
     "dim_sweep = (2, 0)"),
], ids=["gamma", "weight-decay", "alignment", "learning-rate", "key-bits", "frac-bits",
        "negative-frac-bits", "pretrain-epochs", "source-features", "rows", "latent-dim",
        "port", "dim-sweep"])
def test_validate_refuses_what_the_run_refuses_before_out_dir(tmp_path, bad, message):
    # The refusal the run would reach only in training, at keygen, at the
    # depth check, in building the data or a net, or at the socket (there
    # as OverflowError) comes from validate, before run_experiment makes
    # out_dir.
    out_dir = tmp_path / "out"
    cfg = ExperimentConfig(**{**dict(kind="overlap-sweep", n=24, seeds=1, max_iterations=1,
                                     out_dir=str(out_dir)), **bad})
    with pytest.raises(ValueError, match=re.escape(message)):
        cfg.validate()
    with pytest.raises(ValueError, match=re.escape(message)):
        run_experiment(cfg)
    assert not out_dir.exists()


def _csv_rows(tmp_path) -> str:
    """A 30-row CSV of four numeric features and a 0/1 label."""
    rng = np.random.default_rng(0)
    path = tmp_path / "rows.csv"
    path.write_text("a,b,c,d,label\n" + "".join(
        ",".join(f"{v:.4f}" for v in rng.standard_normal(4)) + f",{i % 2}\n" for i in range(30)))
    return str(path)


@pytest.mark.parametrize("bad", [
    dict(kind="overlap-sweep", n=20, sweep=(50,)),
    dict(kind="overlap-sweep", n=20, sweep=(4,), n_eval=30),
    dict(kind="scaling-sweep", engine="encrypted", n=40, sweep=(200,)),
    dict(kind="trcv-vs-cv", n=40, n_labeled=1, sweep=(2,)),
    dict(kind="trcv-vs-cv", n=12, sweep=(20,)),
    dict(kind="overlap-sweep", n=40, sweep=(8,), margin=6.0),
    dict(kind="taylor-vs-exact", dataset="csv", overlap_fraction=1.0),
    dict(kind="ftl-vs-self", dataset="csv", label_fraction=0.0),
], ids=["sweep-over-rows", "eval-over-rows", "scaling-over-rows", "one-label",
        "folds-over-rows", "margin", "csv-no-eval-row", "csv-no-labels"])
def test_a_run_its_data_cannot_serve_fails_typed_and_leaves_no_out_dir(tmp_path, bad):
    # validate passes these; the data step, a net or a baseline then refuses
    # with ValueError, and the run removes the out_dir it made.
    if bad.get("dataset") == "csv":
        bad = {**bad, "dataset": _csv_rows(tmp_path)}
    out_dir = tmp_path / "out"
    cfg = ExperimentConfig(**{**dict(seeds=1, max_iterations=1, out_dir=str(out_dir)), **bad})
    cfg.validate()
    with pytest.raises(ValueError):
        run_experiment(cfg)
    assert not out_dir.exists()
    # An out_dir the run did not make stays, even empty.
    out_dir.mkdir()
    with pytest.raises(ValueError):
        run_experiment(cfg)
    assert out_dir.is_dir()


def test_config_training_and_dims():
    cfg = ExperimentConfig(d_source_features=7, d_target_features=4, hidden=3,
                           learning_rate=0.1, loss_mode="taylor")
    dims_a, dims_b = cfg.dims(build_split(cfg, seed=0))
    assert dims_a == [7, 3] and dims_b == [4, 3]
    assert cfg.training().loss_mode == "taylor"
    assert cfg.training("exact").loss_mode == "exact"


def test_load_config_file(tmp_path):
    path = tmp_path / "exp.cfg"
    path.write_text("kind = ftl-vs-self\nseeds = 2\n")
    cfg = load_config(str(path))
    assert cfg.kind == "ftl-vs-self" and cfg.seeds == 2


def test_build_split_overrides():
    cfg = ExperimentConfig(n=60, n_overlap=20, n_labeled=10, n_eval=8)
    split = build_split(cfg, seed=0)
    assert len(split.overlap_ids) == 20
    assert len(split.labeled_ids) == 10
    assert len(split.eval_ids) == 8
    bigger = build_split(cfg, seed=0, n_overlap=30)
    assert len(bigger.overlap_ids) == 30


def test_build_split_takes_a_zero_override():
    # A sweep point of 0 overlap pairs trains on 0 pairs, not on the
    # config's count.
    cfg = ExperimentConfig(n=60, n_overlap=10, n_labeled=4, n_eval=8)
    assert len(build_split(cfg, 0, n_overlap=0).overlap_ids) == 0
    assert len(build_split(cfg, 0).overlap_ids) == 10


def test_csv_dataset_rejects_row_counts(tmp_path):
    # A CSV split takes its rows from overlap_fraction and label_fraction, so
    # a sweep's or the config's row counts would be silently ignored.
    path = _csv_rows(tmp_path)
    base = dict(dataset=path, csv_label_column="label", engine="encrypted")
    for bad in (dict(kind="overlap-sweep"), dict(kind="scaling-sweep"), dict(n_overlap=5),
                dict(n_labeled=3), dict(n_eval=2)):
        (key,) = bad
        with pytest.raises(ValueError, match=f"{key} = "):
            ExperimentConfig(**base, **bad).validate()
    cfg = ExperimentConfig(dataset=path, kind="taylor-vs-exact", seeds=1, max_iterations=2,
                           d_source_features=2, d_target_features=2, label_fraction=0.5,
                           out_dir=str(tmp_path / "out"))
    assert len(run_experiment(cfg).rows) == 2


@pytest.mark.parametrize("bad", [dict(overlap_fraction=1.5), dict(label_fraction=-0.1)],
                         ids=["overlap-fraction", "label-fraction"])
def test_csv_fractions_outside_0_1_are_refused(tmp_path, bad):
    # validate and vertical_split refuse them with one check, so the run
    # stops before it makes out_dir.
    (key,) = bad
    out_dir = tmp_path / "out"
    cfg = ExperimentConfig(dataset=_csv_rows(tmp_path), kind="taylor-vs-exact", seeds=1,
                           max_iterations=1, out_dir=str(out_dir), **bad)
    for refused in (cfg.validate, lambda: run_experiment(cfg),
                    lambda: vertical_split(np.zeros((4, 2)), [1, -1, 1, -1], [0],
                                           **{"overlap_fraction": 0.5, "label_fraction": 0.5,
                                              **bad})):
        with pytest.raises(ValueError, match=f"{key} = "):
            refused()
    assert not out_dir.exists()


def test_csv_run_takes_each_partys_widths_and_statistics_from_its_split(tmp_path):
    # A 5-feature CSV splits 2 columns to the source and 3 to the target,
    # whatever the configured widths, and each party standardizes its
    # columns over the rows it holds.
    rng = np.random.default_rng(1)
    path = tmp_path / "five.csv"
    path.write_text("a,b,c,d,e,label\n" + "".join(
        ",".join(f"{v:.4f}" for v in 3.0 + rng.standard_normal(5) * [1, 2, 3, 4, 5])
        + f",{i % 2}\n" for i in range(60)))
    cfg = ExperimentConfig(dataset=str(path), kind="taylor-vs-exact", seeds=1, max_iterations=2,
                           out_dir=str(tmp_path / "out"))
    cfg.validate()
    assert len(run_experiment(cfg).rows) == 2
    split = build_split(cfg, seed=0)
    for x in (split.x_source, split.x_target):
        assert np.allclose(x.mean(axis=0), 0.0) and np.allclose(x.std(axis=0), 1.0)
    assert cfg.dims(split) == ([2, cfg.hidden], [3, cfg.hidden])


def test_scaling_sweep_pretrains_every_net(tmp_path, monkeypatch):
    calls = []
    pretrain = nets.autoencoder_pretrain

    def counting(net, x, epochs, learning_rate):
        calls.append((x.shape[0], epochs))
        return pretrain(net, x, epochs, learning_rate)

    monkeypatch.setattr(nets, "autoencoder_pretrain", counting)
    run_experiment(_fast_base(tmp_path, kind="scaling-sweep", engine="encrypted",
                              max_iterations=1, seeds=1, sweep=(4,), dim_sweep=(2,),
                              pretrain_epochs=3))
    # Two points, each a source and a target net.
    assert len(calls) == 4 and all(epochs == 3 for _, epochs in calls)


def _fast_base(tmp_path, **kw):
    base = dict(n=40, n_overlap=16, n_labeled=12, n_eval=8, hidden=3,
                d_source_features=4, d_target_features=3, noise=0.05,
                margin=0.4, learning_rate=0.5, max_iterations=4, seeds=2,
                seed=0, out_dir=str(tmp_path))
    base.update(kw)
    return ExperimentConfig(**base)


EXPECTED_FILES = ("results.csv", "loss_history.csv", "transcript_summary.csv",
                  "timings.csv")


def _read_rows(tmp_path, name):
    lines = (tmp_path / name).read_text().strip().splitlines()
    header = lines[0].split(",")
    return [dict(zip(header, line.split(","))) for line in lines[1:]]


def test_taylor_vs_exact_writes_outputs(tmp_path):
    cfg = _fast_base(tmp_path, kind="taylor-vs-exact")
    result = run_experiment(cfg)
    for name in EXPECTED_FILES:
        assert (tmp_path / name).exists()
    assert {"f1_taylor", "f1_exact", "f1_gap"} <= set(result.metrics)
    rows = _read_rows(tmp_path, "loss_history.csv")
    assert {row["variant"] for row in rows} == {"taylor", "exact"}
    assert {int(row["seed"]) for row in rows} == {0, 1}


def test_ftl_vs_self_reports_baselines(tmp_path):
    cfg = _fast_base(tmp_path, kind="ftl-vs-self", seeds=1)
    result = run_experiment(cfg)
    assert {"f1_ftl_taylor", "f1_ftl_exact", "f1_self_lr", "f1_self_svm",
            "f1_self_sae"} <= set(result.metrics)
    assert all(0.0 <= v <= 1.0 for v in result.metrics.values())


def test_overlap_sweep_metric_per_point(tmp_path):
    cfg = _fast_base(tmp_path, kind="overlap-sweep", sweep=(8, 16), seeds=1)
    result = run_experiment(cfg)
    assert set(result.metrics) == {"f1_overlap_8", "f1_overlap_16"}
    rows = _read_rows(tmp_path, "results.csv")
    assert len(rows) == 2
    losses = _read_rows(tmp_path, "loss_history.csv")
    per_iteration = [(r["variant"], r["seed"], int(r["iteration"])) for r in losses]
    assert per_iteration == [(f"overlap_{n_ab}", "0", it) for n_ab in (8, 16)
                             for it in range(1, cfg.max_iterations + 1)]


def test_trcv_vs_cv_outputs(tmp_path):
    cfg = _fast_base(tmp_path, kind="trcv-vs-cv", n_labeled=16,
                     max_iterations=3, sweep=(2, 3))
    result = run_experiment(cfg)
    assert {"trcv_k2", "trcv_k3", "local_cv_k2", "local_cv_k3",
            "safeguard_transfer"} <= set(result.metrics)
    assert result.metrics["safeguard_transfer"] in (0.0, 1.0)


def test_scaling_sweep_counts_bytes(tmp_path):
    cfg = _fast_base(tmp_path, kind="scaling-sweep", engine="encrypted",
                     key_bits=512, max_iterations=1, seeds=1,
                     sweep=(4, 8), dim_sweep=(2, 3))
    result = run_experiment(cfg)
    rows = _read_rows(tmp_path, "results.csv")
    assert len(rows) == 4
    for row in rows:
        assert int(row["components_bytes"]) == int(row["formula_bytes"]) > 0
    timing_rows = _read_rows(tmp_path, "timings.csv")
    assert {r["axis"] for r in timing_rows} == {"overlap", "dim"}
    losses = _read_rows(tmp_path, "loss_history.csv")
    assert [(r["variant"], r["seed"], r["iteration"]) for r in losses] == [
        ("overlap_4", "0", "1"), ("overlap_8", "0", "1"), ("dim_2", "0", "1"), ("dim_3", "0", "1")]
    assert all(float(r["loss"]) > 0 for r in losses)
    # wall-clock stays in timings.csv, never in results.csv
    assert "seconds_per_iteration" not in rows[0]


def test_encrypted_run_publishes_transcript(tmp_path):
    cfg = _fast_base(tmp_path, kind="overlap-sweep", sweep=(6,), engine="encrypted",
                     n=16, n_overlap=6, n_labeled=4, n_eval=4,
                     max_iterations=2, seeds=1)
    run_experiment(cfg)
    rows = _read_rows(tmp_path, "transcript_summary.csv")
    assert rows, "encrypted runs must publish a transcript summary"
    all_rows = [r for r in rows if r["msg_type"] == "ALL"]
    assert len(all_rows) == 2
    assert all(len(r["sha256"]) == 64 for r in all_rows)


def _count_channels(monkeypatch) -> list:
    """Record the config of every channel pair run_experiment opens."""
    opened = []
    real = experiments.open_channels

    def counting(cfg):
        opened.append(cfg)
        return real(cfg)

    monkeypatch.setattr(experiments, "open_channels", counting)
    return opened


def test_encrypted_sweep_trains_once_per_result(tmp_path, monkeypatch):
    cfg = _fast_base(tmp_path, kind="overlap-sweep", sweep=(4, 6), engine="encrypted",
                     n=16, n_labeled=4, n_eval=4, max_iterations=2, seeds=1)
    opened = _count_channels(monkeypatch)
    run_experiment(cfg)
    # one training and one prediction per sweep point, no extra run
    assert len(opened) == 4

    split = build_split(cfg, cfg.seed, n_overlap=4)
    dims_a, dims_b = cfg.dims(split)
    run = train_encrypted(split, init_network(dims_a, seed=cfg.seed),
                          init_network(dims_b, seed=cfg.seed + 1), cfg.training(),
                          key_bits=cfg.key_bits, frac_bits=cfg.frac_bits, seed=cfg.seed)
    expected = {direction: hashlib.sha256(b"".join(
                    r.payload for r in run.transcript.frames(direction=direction))).hexdigest()
                for direction in (DIR_SOURCE_TO_TARGET, DIR_TARGET_TO_SOURCE)}
    published = {r["direction"]: r["sha256"]
                 for r in _read_rows(tmp_path, "transcript_summary.csv")
                 if r["msg_type"] == "ALL"}
    assert published == expected


def test_trcv_honours_transport(tmp_path, monkeypatch):
    opened = _count_channels(monkeypatch)
    for transport in ("tcp", "loopback"):
        run_experiment(_fast_base(tmp_path / transport, kind="trcv-vs-cv",
                                  engine="encrypted", transport=transport, sweep=(2,),
                                  n=16, n_overlap=8, n_labeled=6, n_eval=4,
                                  max_iterations=1, seeds=1))
    # per fold: train, pseudo-label, train mirrored, predict held-out rows
    assert [c.transport for c in opened] == ["tcp"] * 8 + ["loopback"] * 8
    assert ((tmp_path / "tcp" / "results.csv").read_bytes()
            == (tmp_path / "loopback" / "results.csv").read_bytes())


def test_experiment_deterministic_outputs(tmp_path):
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    for out in (out_a, out_b):
        run_experiment(_fast_base(out, kind="taylor-vs-exact", seeds=1,
                                  max_iterations=3))
    for name in ("results.csv", "loss_history.csv"):
        assert (out_a / name).read_bytes() == (out_b / name).read_bytes()
