"""Experiment harness: configured runs producing CSV tables.

Every experiment writes three deterministic files into the output directory
(results.csv, loss_history.csv, transcript_summary.csv) and one
non-deterministic file (timings.csv). Determinism means byte-identical
output for identical config and seed, so anything wall-clock flavored is
quarantined in timings.csv.
"""

from __future__ import annotations

import hashlib
import os
import time
from dataclasses import dataclass, field, fields, replace

import numpy as np

from .baselines import train_linear_svm, train_logistic, train_sae_classifier
from .datasets import (
    FederationSplit,
    check_fractions,
    fit_standardizer,
    load_csv,
    standardize,
    synth_two_view,
    vertical_split,
    weighted_f1,
)
from .encoding import DEFAULT_FRAC_BITS
from .nets import Network, fresh_network
from .plain import TrainingConfig
# train_encrypted and predict_encrypted stay importable from here for the
# benchmark's tracer; every run goes through Engine.
from .protocol import (DEFAULT_KEY_BITS, ENGINE_KINDS, Engine, check_depth,  # noqa: F401
                       check_loss_mode, predict_encrypted, train_encrypted)
from .transport import (
    DIR_SOURCE_TO_TARGET,
    DIR_TARGET_TO_SOURCE,
    MsgType,
    loopback_pair,
    measure_cost,
    tcp_pair,
)
from .paillier import check_key_bits, ciphertext_wire_size
from .trcv import local_cv, run_trcv, self_learning_safeguard


@dataclass
class ExperimentConfig:
    """Everything one experiment run needs, flat and file-loadable."""

    kind: str = "taylor-vs-exact"
    dataset: str = "synth"
    csv_label_column: str = "label"
    overlap_fraction: float = 0.5
    label_fraction: float = 0.2
    n: int = 120
    d_source_features: int = 6
    d_target_features: int = 5
    latent_dim: int = 4
    hidden: int = 8
    noise: float = 0.02
    noise_target: float = -1.0
    margin: float = 0.0
    n_overlap: int = 0
    n_labeled: int = 0
    n_eval: int = 0
    learning_rate: float = 1.0
    gamma: float = 0.05
    weight_decay: float = 0.005
    max_iterations: int = 100
    tolerance: float = 0.0
    alignment: str = "inner"
    loss_mode: str = "taylor"
    key_bits: int = DEFAULT_KEY_BITS
    frac_bits: int = DEFAULT_FRAC_BITS
    seed: int = 0
    seeds: int = 3
    engine: str = "plain"
    transport: str = "loopback"
    port: int = 0
    pretrain_epochs: int = 0
    sweep: tuple = ()
    dim_sweep: tuple = ()
    out_dir: str = "results"

    def validate(self):
        if self.kind not in EXPERIMENT_KINDS:
            raise ValueError(f"unknown experiment kind {self.kind!r}")
        if self.dataset != "synth":
            if not os.path.exists(self.dataset):
                raise ValueError(f"dataset file {self.dataset!r} does not exist")
            check_fractions(self.overlap_fraction, self.label_fraction)
            # A CSV split's rows come from overlap_fraction and label_fraction.
            if self.kind in ("overlap-sweep", "scaling-sweep"):
                raise ValueError(f"kind = {self.kind} sweeps row counts, which a CSV "
                                 "dataset does not take; use dataset = synth")
            for key in ("n_overlap", "n_labeled", "n_eval"):
                if getattr(self, key):
                    raise ValueError(f"{key} = {getattr(self, key)}: a CSV dataset does not "
                                     "take row counts; set overlap_fraction and label_fraction")
        elif self.n < 4 or min(self.d_source_features, self.d_target_features) < 1:
            raise ValueError(f"n = {self.n}, d_source_features = {self.d_source_features}, "
                             f"d_target_features = {self.d_target_features}: a synth dataset "
                             "needs at least 4 rows and a feature column per party")
        elif self.latent_dim < 1:
            raise ValueError(f"latent_dim = {self.latent_dim}: a synth dataset labels rows by "
                             "the sign of a latent projection, which needs a dimension")
        if self.engine not in ENGINE_KINDS:
            raise ValueError(f"unknown engine {self.engine!r}")
        self.training()  # the training fields, as either engine checks them
        if self.engine == "encrypted":
            check_loss_mode(self.loss_mode)
            check_key_bits(self.key_bits)
            check_depth("source", 1, self.frac_bits)  # dims() gives both nets one layer
        if self.engine == "encrypted" and self.kind in ("taylor-vs-exact", "ftl-vs-self"):
            raise ValueError(f"{self.kind} trains the exact loss, which the "
                             "encrypted engine cannot")
        if self.kind == "scaling-sweep" and self.engine != "encrypted":
            raise ValueError("scaling-sweep measures the encrypted engine; "
                             "set engine = encrypted")
        if self.transport not in ("loopback", "tcp"):
            raise ValueError(f"unknown transport {self.transport!r}")
        if self.transport == "tcp" and not 0 <= self.port <= 65535:
            raise ValueError(f"port = {self.port}: a TCP port lies in [0, 65535]")
        if min((self.hidden, *self.dim_sweep)) < 1:
            raise ValueError(f"hidden = {self.hidden}, dim_sweep = {self.dim_sweep}: a shared "
                             "representation needs at least one unit")
        if self.seeds < 1:
            raise ValueError(f"seeds = {self.seeds}: a run needs at least one seed")
        for key in ("n_overlap", "n_labeled", "n_eval", "pretrain_epochs", "sweep", "dim_sweep"):
            if min(np.atleast_1d(getattr(self, key)), default=0) < 0:
                raise ValueError(f"{key} = {getattr(self, key)}: counts cannot be negative")

    def training(self, loss_mode: str | None = None) -> TrainingConfig:
        return TrainingConfig(
            learning_rate=self.learning_rate, gamma=self.gamma,
            weight_decay=self.weight_decay, max_iterations=self.max_iterations,
            tolerance=self.tolerance, alignment=self.alignment,
            loss_mode=loss_mode or self.loss_mode)

    def dims(self, split: FederationSplit) -> tuple[list[int], list[int]]:
        """Layer dims per party: each party's feature width in split, then
        the shared representation size."""
        return ([split.x_source.shape[1], self.hidden],
                [split.x_target.shape[1], self.hidden])


def parse_config_text(text: str) -> ExperimentConfig:
    """key=value lines, # comments; sweeps are comma-separated integers."""
    values: dict[str, object] = {}
    by_name = {f.name: f for f in fields(ExperimentConfig)}
    defaults = ExperimentConfig()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"line {lineno}: expected key=value, got {raw!r}")
        key, _, value = line.partition("=")
        key, value = key.strip(), value.strip()
        if key not in by_name:
            raise ValueError(f"line {lineno}: unknown config key {key!r}")
        current = getattr(defaults, key)
        sweep = isinstance(current, tuple)
        try:
            values[key] = (tuple(int(v) for v in value.split(",") if v.strip()) if sweep
                           else type(current)(value))
        except ValueError:
            want = "comma-separated integers" if sweep else type(current).__name__
            raise ValueError(f"line {lineno}: {key} expects {want}, got {value!r}") from None
    return replace(defaults, **values)


def load_config(path: str) -> ExperimentConfig:
    with open(path) as fh:
        return parse_config_text(fh.read())


@dataclass
class RunResult:
    """What an experiment hands back besides its CSV files."""

    metrics: dict[str, float] = field(default_factory=dict)
    rows: list[dict] = field(default_factory=list)


# ---------------------------------------------------------------------------
# data and channel helpers

def build_split(cfg: ExperimentConfig, seed: int,
                n_overlap: int | None = None) -> FederationSplit:
    if cfg.dataset != "synth":
        x, labels, _names = load_csv(cfg.dataset, cfg.csv_label_column)
        split = vertical_split(x, labels, list(range(x.shape[1] // 2)), cfg.overlap_fraction,
                               cfg.label_fraction, rng=seed)
        if not len(split.eval_ids):
            raise ValueError(f"overlap_fraction = {cfg.overlap_fraction} leaves the CSV split "
                             "no target-only row to evaluate on")
        # Each party standardizes its columns over the rows it holds.
        split.x_source = standardize(split.x_source, *fit_standardizer(split.x_source))
        split.x_target = standardize(split.x_target, *fit_standardizer(split.x_target))
        return split
    return synth_two_view(
        n=cfg.n, d_source=cfg.d_source_features, d_target=cfg.d_target_features,
        noise=cfg.noise, seed=seed, latent_dim=cfg.latent_dim, margin=cfg.margin,
        noise_target=None if cfg.noise_target < 0 else cfg.noise_target,
        # A config count of 0 means the default; an override is taken as it is.
        n_overlap=(cfg.n_overlap or None) if n_overlap is None else n_overlap,
        n_labeled=cfg.n_labeled or None, n_eval=cfg.n_eval or None)


def open_channels(cfg: ExperimentConfig):
    if cfg.transport == "tcp":
        return tcp_pair(cfg.port)
    return loopback_pair()


class _ChannelFactory:
    """Opens the configured channel pair for each protocol run and keeps the
    transcript of the first pair, which transcript_summary.csv describes."""

    def __init__(self, cfg: ExperimentConfig):
        self.cfg = cfg
        self.first_transcript = None

    def __call__(self):
        # Looked up per call, so a caller that swaps open_channels sees every run.
        channels = open_channels(self.cfg)
        if self.first_transcript is None:
            self.first_transcript = channels[2]
        return channels


def _make_engine(cfg: ExperimentConfig) -> Engine:
    return Engine(cfg.engine, cfg.key_bits, cfg.frac_bits, _ChannelFactory(cfg))


def _fresh_nets(cfg: ExperimentConfig, split: FederationSplit,
                seed: int) -> tuple[Network, Network]:
    """One run's source and target nets, seeded seed and seed + 1."""
    dims_a, dims_b = cfg.dims(split)
    return (fresh_network(dims_a, seed, split.x_source, cfg.pretrain_epochs),
            fresh_network(dims_b, seed + 1, split.x_target, cfg.pretrain_epochs))


def _train_and_eval(cfg: ExperimentConfig, split: FederationSplit, seed: int,
                    engine: Engine, loss_mode: str | None = None):
    """One engine run; returns (loss_history, eval F1)."""
    net_a, net_b = _fresh_nets(cfg, split, seed)
    trained, _ = engine.train(split, net_a, net_b, cfg.training(loss_mode), seed)
    predicted = engine.predict(split, net_a, net_b, split.eval_ids, seed)
    return trained.loss_history, weighted_f1(predicted, split.labels_eval).weighted_f1


def _append_losses(loss_rows: list, seed: int, variant: str, history: list[float]):
    """One loss_history.csv row per training iteration."""
    for it, value in enumerate(history, start=1):
        loss_rows.append({"seed": seed, "variant": variant, "iteration": it,
                          "loss": f"{value:.6f}"})


# ---------------------------------------------------------------------------
# experiment kinds: every runner takes (cfg, engine, result, loss_rows, timing_rows)

def _run_taylor_vs_exact(cfg: ExperimentConfig, engine: Engine, result: RunResult,
                         loss_rows: list, timing_rows: list):
    finals: dict[str, list[float]] = {"taylor": [], "exact": []}
    for s in range(cfg.seeds):
        seed = cfg.seed + s
        split = build_split(cfg, seed)
        for mode in ("taylor", "exact"):
            history, score = _train_and_eval(cfg, split, seed, engine, mode)
            finals[mode].append(score)
            result.rows.append({
                "seed": seed, "loss_mode": mode,
                "initial_loss": f"{history[0]:.6f}",
                "final_loss": f"{history[-1]:.6f}",
                "eval_f1": f"{score:.6f}"})
            _append_losses(loss_rows, seed, mode, history)
    for mode, scores in finals.items():
        result.metrics[f"f1_{mode}"] = sum(scores) / len(scores)
    result.metrics["f1_gap"] = abs(result.metrics["f1_taylor"]
                                   - result.metrics["f1_exact"])


def _run_ftl_vs_self(cfg: ExperimentConfig, engine: Engine, result: RunResult,
                     loss_rows: list, timing_rows: list):
    per_model: dict[str, list[float]] = {}
    for s in range(cfg.seeds):
        seed = cfg.seed + s
        split = build_split(cfg, seed)
        x_c = split.x_target[split.target_rows(split.labeled_ids)]
        y_c = split.labels_for(split.labeled_ids)
        x_eval = split.x_target[split.target_rows(split.eval_ids)]
        scores: dict[str, float] = {}
        for mode, name in (("taylor", "ftl_taylor"), ("exact", "ftl_exact")):
            history, score = _train_and_eval(cfg, split, seed, engine, mode)
            scores[name] = score
            if s == 0 and mode == cfg.loss_mode:
                _append_losses(loss_rows, seed, name, history)
        for name, model in (
                ("self_lr", train_logistic(x_c, y_c, seed=seed)),
                ("self_svm", train_linear_svm(x_c, y_c, seed=seed)),
                ("self_sae", train_sae_classifier(x_c, y_c, cfg.dims(split)[1], seed=seed))):
            scores[name] = weighted_f1(model.predict(x_eval), split.labels_eval).weighted_f1
        for name, score in scores.items():
            per_model.setdefault(name, []).append(score)
            result.rows.append({"seed": seed, "model": name, "eval_f1": f"{score:.6f}"})
    for name, values in per_model.items():
        result.metrics[f"f1_{name}"] = sum(values) / len(values)


def _run_overlap_sweep(cfg: ExperimentConfig, engine: Engine, result: RunResult,
                       loss_rows: list, timing_rows: list):
    sweep = cfg.sweep or (25, 100, 250)
    for n_ab in sweep:
        scores = []
        for s in range(cfg.seeds):
            seed = cfg.seed + s
            split = build_split(cfg, seed, n_overlap=int(n_ab))
            history, score = _train_and_eval(cfg, split, seed, engine)
            scores.append(score)
            result.rows.append({"n_overlap": n_ab, "seed": seed,
                                "eval_f1": f"{score:.6f}"})
            _append_losses(loss_rows, seed, f"overlap_{n_ab}", history)
        result.metrics[f"f1_overlap_{n_ab}"] = sum(scores) / len(scores)


def _run_trcv_vs_cv(cfg: ExperimentConfig, engine: Engine, result: RunResult,
                    loss_rows: list, timing_rows: list):
    split = build_split(cfg, cfg.seed)
    dims_a, dims_b = cfg.dims(split)
    x_c = split.x_target[split.target_rows(split.labeled_ids)]
    y_c = split.labels_for(split.labeled_ids)
    best_trcv_score = 0.0
    for k in (cfg.sweep or (2, 3, 4, 5)):
        k = int(k)
        report = run_trcv(split, [cfg.training()], k, dims_a, dims_b, engine=engine,
                          seed=cfg.seed, pretrain_epochs=cfg.pretrain_epochs)
        best_trcv_score = max(best_trcv_score, report.mean)
        result.rows.append({"k": k, "method": "trcv", "score": f"{report.mean:.6f}"})
        result.metrics[f"trcv_k{k}"] = report.mean
        local_mean = local_cv(x_c, y_c, k, cfg.seed)
        result.rows.append({"k": k, "method": "local-cv", "score": f"{local_mean:.6f}"})
        result.metrics[f"local_cv_k{k}"] = local_mean
    decision = self_learning_safeguard(x_c, y_c, best_trcv_score,
                                       k=min(3, len(y_c)), seed=cfg.seed)
    result.metrics["safeguard_transfer"] = float(decision.transfer)
    result.rows.append({"k": "safeguard", "method": "transfer" if decision.transfer
                        else "no-transfer", "score": f"{decision.baseline_score:.6f}"})


def _run_scaling_sweep(cfg: ExperimentConfig, engine: Engine, result: RunResult,
                       loss_rows: list, timing_rows: list):
    """Encrypted runs across overlap sizes and representation widths."""
    ct_bytes = ciphertext_wire_size(cfg.key_bits)

    def one(axis: str, value: int, n_overlap: int, hidden: int):
        run_cfg = replace(cfg, hidden=hidden)
        split = build_split(run_cfg, cfg.seed, n_overlap=n_overlap)
        net_a, net_b = _fresh_nets(run_cfg, split, cfg.seed)
        started = time.perf_counter()
        trained, transcript = engine.train(split, net_a, net_b, run_cfg.training(),
                                           cfg.seed)
        elapsed = time.perf_counter() - started
        iterations = len(trained.loss_history)
        per_iter = elapsed / iterations
        measured = (measure_cost(transcript, DIR_SOURCE_TO_TARGET)
                    + measure_cost(transcript, DIR_TARGET_TO_SOURCE))
        # Both directions ship n_c quadratic-and-linear components per
        # iteration: n_c (d^2 + d) ciphertexts each way.
        d = hidden
        formula = iterations * 2 * len(split.labeled_ids) * (d * d + d) * ct_bytes
        result.rows.append({
            "axis": axis, "value": value, "iterations": iterations,
            "components_bytes": measured, "formula_bytes": formula})
        timing_rows.append({"axis": axis, "value": value,
                            "seconds_per_iteration": f"{per_iter:.4f}"})
        _append_losses(loss_rows, cfg.seed, f"{axis}_{value}", trained.loss_history)
        result.metrics[f"{axis}_{value}_seconds"] = per_iter
        result.metrics[f"{axis}_{value}_bytes"] = float(measured)

    for n_ab in (cfg.sweep or (4, 8, 16, 32)):
        one("overlap", int(n_ab), int(n_ab), cfg.hidden)
    for d in (cfg.dim_sweep or (2, 4, 8, 16)):
        one("dim", int(d), cfg.n_overlap or 8, int(d))


_RUNNERS = {
    "taylor-vs-exact": _run_taylor_vs_exact,
    "ftl-vs-self": _run_ftl_vs_self,
    "overlap-sweep": _run_overlap_sweep,
    "trcv-vs-cv": _run_trcv_vs_cv,
    "scaling-sweep": _run_scaling_sweep,
}
EXPERIMENT_KINDS = tuple(_RUNNERS)


# ---------------------------------------------------------------------------
# output plumbing

def _write_csv(path: str, rows: list[dict], columns: list[str]):
    with open(path, "w", newline="") as fh:
        fh.write(",".join(columns) + "\n")
        for row in rows:
            fh.write(",".join(str(row.get(col, "")) for col in columns) + "\n")


def _transcript_rows(transcript) -> list[dict]:
    rows = []
    for direction in (DIR_SOURCE_TO_TARGET, DIR_TARGET_TO_SOURCE):
        digest = hashlib.sha256()
        for record in transcript.frames(direction=direction):
            digest.update(record.payload)
        for msg_type in MsgType:
            frames = transcript.frames(direction=direction, msg_type=msg_type)
            if frames:
                rows.append({"direction": direction, "msg_type": msg_type.name,
                             "frames": len(frames),
                             "payload_bytes": sum(len(f.payload) for f in frames)})
        rows.append({"direction": direction, "msg_type": "ALL",
                     "frames": len(transcript.frames(direction=direction)),
                     "payload_bytes": transcript.payload_bytes(direction),
                     "sha256": digest.hexdigest()})
    return rows


def run_experiment(cfg: ExperimentConfig) -> RunResult:
    """Dispatch one experiment kind and write its CSV files.

    A run that fails removes out_dir again if this call made it and it is
    still empty.
    """
    cfg.validate()
    created = not os.path.exists(cfg.out_dir)
    os.makedirs(cfg.out_dir, exist_ok=True)
    result = RunResult()
    loss_rows: list[dict] = []
    timing_rows: list[dict] = []
    engine = _make_engine(cfg)
    try:
        _RUNNERS[cfg.kind](cfg, engine, result, loss_rows, timing_rows)
    except BaseException:
        if created and not os.listdir(cfg.out_dir):
            os.rmdir(cfg.out_dir)
        raise

    # Every kind trains before it predicts, so the first channel pair opened
    # carried the experiment's first encrypted training run.
    transcript = engine.channels.first_transcript
    columns = sorted({key for row in result.rows for key in row})
    _write_csv(os.path.join(cfg.out_dir, "results.csv"), result.rows, columns)
    _write_csv(os.path.join(cfg.out_dir, "loss_history.csv"), loss_rows,
               ["seed", "variant", "iteration", "loss"])
    transcript_rows = _transcript_rows(transcript) if transcript is not None else []
    _write_csv(os.path.join(cfg.out_dir, "transcript_summary.csv"), transcript_rows,
               ["direction", "msg_type", "frames", "payload_bytes", "sha256"])
    _write_csv(os.path.join(cfg.out_dir, "timings.csv"), timing_rows,
               ["axis", "value", "seconds_per_iteration"])
    return result
