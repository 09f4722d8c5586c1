"""The benchmark's four workloads, each a closed loop with one client.

A run repeats episodes until its time is up. An episode builds its inputs
from the workload seed (set-up), runs its units, then checks every unit
against the plaintext oracle outside the timed region:

* train-components / train-backprop: one `train_encrypted` call of a few
  iterations; a unit is an iteration.
* predict: a few `predict_encrypted` requests against fixed nets; a unit
  is a request.
* experiment: one in-process `secureftl --config` call; a unit is the
  whole experiment.

The data and nets come from the workload seed. The protocol's own seed
(keys, masks, encryption randomness) is the same fixed value in every unit:
the cost of key generation depends on where the primes happen to fall, and
fixing it keeps set-up work equal across episodes, seeds and runs. The CLI
takes one seed for both, so the experiment workload passes the workload
seed and repeats the same experiment throughout a run.

A training iteration's wall time is taken as the mean over its episode:
both parties are threads sharing one interpreter lock, so where the boundary
between two iterations falls shifts by a few percent from one iteration to
the next, while an episode's total does not.
"""

from __future__ import annotations

import contextlib
import csv
import io
import os
import time
from dataclasses import dataclass, field

import numpy as np

from secureftl import cli, experiments
from secureftl.datasets import synth_two_view
from secureftl.nets import init_network
from secureftl.plain import TrainingConfig, predict_plain, train_plain
from secureftl.protocol import audit_training, predict_encrypted, train_encrypted
from secureftl.transport import MsgType, loopback_pair, tcp_pair

from tracing import FrameEvent, Tracer, wrap_channels

# test_03's tolerance for encrypted versus plaintext training.
TOLERANCE = 1e-5
FRAC_BITS = 40
PROTOCOL_SEED = 0


@dataclass
class Tally:
    """What a run measured; timings in seconds, one entry per sample."""

    setup_s: list[float] = field(default_factory=list)
    unit_s: list[float] = field(default_factory=list)  # per unit, or per episode (training)
    unit_bytes: list[float] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    transcript_bytes: int = 0  # payload bytes the transcripts held at episode end

    def count(self, units: int, failed: bool):
        self.attempted += units
        self.failed += units if failed else 0


def _setup_end(log: list[FrameEvent]) -> float | None:
    """When both parties hold the peer's key: the later PUBKEY arrival."""
    arrivals = [e.time for e in log if e.kind == "recv" and e.msg_type == MsgType.PUBKEY]
    return max(arrivals[:2]) if len(arrivals) >= 2 else None


def _sent_bytes(log: list[FrameEvent], skip_keys: bool = False) -> int:
    return sum(e.nbytes for e in log if e.kind == "send"
               and not (skip_keys and e.msg_type == MsgType.PUBKEY))


# ---------------------------------------------------------------------------
# training

@dataclass(frozen=True)
class TrainShape:
    key_bits: int
    tcp: bool
    dims_source: tuple[int, ...]
    dims_target: tuple[int, ...]
    n: int           # rows generated; the source holds n - n_eval of them
    n_labeled: int   # n_c, the labeled co-occurring pairs
    n_overlap: int   # n_ab, the alignment pairs
    n_eval: int
    iterations: int  # per episode


class Training:
    unit = "iteration"
    metric = "iter_s"
    sample = "episode mean"

    def __init__(self, shape: TrainShape):
        self.shape = shape
        self.cfg = TrainingConfig(learning_rate=0.1, gamma=0.05, weight_decay=0.005,
                                  max_iterations=shape.iterations, tolerance=0.0)
        self._oracle: dict[int, tuple] = {}

    def inputs(self, seed: int):
        s = self.shape
        split = synth_two_view(n=s.n, d_source=s.dims_source[0], d_target=s.dims_target[0],
                               noise=0.1, seed=seed, n_overlap=s.n_overlap,
                               n_labeled=s.n_labeled, n_eval=s.n_eval)
        return (split, init_network(s.dims_source, seed=seed),
                init_network(s.dims_target, seed=seed + 1))

    def oracle(self, seed: int):
        """Plaintext loss history and final parameters for these inputs."""
        if seed not in self._oracle:
            split, net_s, net_t = self.inputs(seed)
            history = train_plain(split, net_s, net_t, self.cfg).loss_history
            self._oracle[seed] = (history, net_s.get_flat(), net_t.get_flat())
        return self._oracle[seed]

    def episode(self, seed: int, tally: Tally, tracer: Tracer | None = None,
                tamper=None):
        history, params_s, params_t = self.oracle(seed)
        log: list[FrameEvent] = []
        run = None
        started = time.perf_counter()
        try:
            split, net_s, net_t = self.inputs(seed)
            if tracer is not None:
                tracer.own(net_s, "source")
                tracer.own(net_t, "target")
            channels = tcp_pair(0) if self.shape.tcp else loopback_pair()
            run = train_encrypted(split, net_s, net_t, self.cfg, key_bits=self.shape.key_bits,
                                  frac_bits=FRAC_BITS, seed=PROTOCOL_SEED,
                                  channels=wrap_channels(channels, log, tracer, tamper))
        except Exception:  # noqa: BLE001 - a failed unit is counted, not fatal
            pass
        setup_end = _setup_end(log)
        if setup_end is not None:
            tally.setup_s.append(setup_end - started)
            ends = [e.time for e in log if e.party == "source" and e.kind == "recv"
                    and e.msg_type == MsgType.DECRYPTED_BLOB]
            if ends:
                tally.unit_s.append((ends[-1] - setup_end) / len(ends))
                tally.unit_bytes.append(_sent_bytes(log, skip_keys=True) / len(ends))
        ok = run is not None and _training_matches(run, history, params_s, params_t)
        if run is not None:
            tally.transcript_bytes += run.transcript.payload_bytes()
        tally.count(len(history), failed=not ok)


def _training_matches(run, history, params_s, params_t) -> bool:
    got = run.result.loss_history
    return (len(got) == len(history)
            and max(abs(a - b) for a, b in zip(got, history)) <= TOLERANCE
            and float(np.max(np.abs(run.result.net_source.get_flat() - params_s))) <= TOLERANCE
            and float(np.max(np.abs(run.result.net_target.get_flat() - params_t))) <= TOLERANCE
            and audit_training(run.transcript, run.source, run.target).ok)


# ---------------------------------------------------------------------------
# prediction

class Predict:
    unit = "request"
    metric = "predict_s"
    sample = "request"

    def __init__(self, key_bits: int, dims_source, dims_target, rows: int,
                 requests: int, n: int):
        self.key_bits = key_bits
        self.dims_source, self.dims_target = tuple(dims_source), tuple(dims_target)
        self.rows = rows
        self.requests = requests  # per episode
        self.n = n

    def inputs(self, seed: int):
        split = synth_two_view(n=self.n, d_source=self.dims_source[0],
                               d_target=self.dims_target[0], noise=0.1, seed=seed,
                               n_eval=self.rows * self.requests)
        return (split, init_network(self.dims_source, seed=seed),
                init_network(self.dims_target, seed=seed + 1))

    def episode(self, seed: int, tally: Tally, tracer: Tracer | None = None):
        started = time.perf_counter()
        split, net_s, net_t = self.inputs(seed)
        if tracer is not None:
            tracer.own(net_s, "source")
            tracer.own(net_t, "target")
        for r in range(self.requests):
            query = split.eval_ids[r * self.rows:(r + 1) * self.rows]
            log: list[FrameEvent] = []
            asked = time.perf_counter()
            channels = wrap_channels(loopback_pair(), log, tracer)
            try:
                labels = predict_encrypted(
                    split, net_s, net_t, query, key_bits=self.key_bits, frac_bits=FRAC_BITS,
                    seed=PROTOCOL_SEED,
                    channels=channels).labels
            except Exception:  # noqa: BLE001 - a failed unit is counted, not fatal
                labels = None
            answered = time.perf_counter()
            setup_end = _setup_end(log)
            if r == 0 and setup_end is not None:
                tally.setup_s.append(setup_end - started)
            ok = labels is not None and np.array_equal(
                labels, predict_plain(split, net_s, net_t, query))
            if labels is not None:
                tally.unit_s.append(answered - asked)
                tally.unit_bytes.append(_sent_bytes(log))
                tally.transcript_bytes += channels[2].payload_bytes()
            tally.count(1, failed=not ok)


# ---------------------------------------------------------------------------
# experiment

_EXPERIMENT_CONFIG = """\
# Encrypted overlap sweep, one point and one seed, sized for the benchmark.
kind = overlap-sweep
engine = {engine}
key_bits = 512
n = 32
sweep = 2
seeds = 1
n_labeled = 2
n_eval = 8
d_source_features = 6
d_target_features = 5
hidden = 4
noise = 0.1
noise_target = 0.5
margin = 0.3
learning_rate = 0.2
gamma = 0.02
weight_decay = 0.005
max_iterations = 2
pretrain_epochs = 5
"""


class Experiment:
    unit = "experiment"
    metric = "experiment_s"
    sample = "experiment"

    def __init__(self, workdir: str):
        self.workdir = workdir
        self._oracle: dict[int, str] = {}

    def _eval_f1(self, engine: str, seed: int) -> str:
        config = os.path.join(self.workdir, f"{engine}.cfg")
        out = os.path.join(self.workdir, f"{engine}-{seed}")
        with contextlib.redirect_stdout(io.StringIO()):
            cli.main(["--config", config, "--seed", str(seed), "--out", out])
        with open(os.path.join(out, "results.csv")) as fh:
            return next(csv.DictReader(fh))["eval_f1"]

    def episode(self, seed: int, tally: Tally, tracer: Tracer | None = None):
        if seed not in self._oracle:
            os.makedirs(self.workdir, exist_ok=True)
            for engine in ("plain", "encrypted"):
                with open(os.path.join(self.workdir, f"{engine}.cfg"), "w") as fh:
                    fh.write(_EXPERIMENT_CONFIG.format(engine=engine))
            self._oracle[seed] = self._eval_f1("plain", seed)
        log: list[FrameEvent] = []
        transcripts = []
        opened = experiments.open_channels

        def open_logged(cfg):
            channels = wrap_channels(opened(cfg), log, tracer)
            transcripts.append(channels[2])
            return channels

        started = time.perf_counter()
        experiments.open_channels = open_logged
        try:
            got = self._eval_f1("encrypted", seed)
        except Exception:  # noqa: BLE001 - a failed unit is counted, not fatal
            got = None
        finally:
            experiments.open_channels = opened
        finished = time.perf_counter()
        setup_end = _setup_end(log)
        if setup_end is not None:
            tally.setup_s.append(setup_end - started)
        if got is not None:
            tally.unit_s.append(finished - started)
            tally.unit_bytes.append(_sent_bytes(log))
            tally.transcript_bytes += sum(t.payload_bytes() for t in transcripts)
        tally.count(1, failed=got != self._oracle[seed])


# ---------------------------------------------------------------------------

def build(workdir: str) -> dict:
    """Workload name -> workload. Shapes are scaled so that one run of a few
    tens of seconds holds several units while each workload's dominant layer
    stays dominant."""
    return {
        # Component encryption dominates: n_c(d^2+d) + n_ab*d encryptions per
        # party per iteration, carried over a real localhost socket.
        "train-components": Training(TrainShape(
            key_bits=1024, tcp=True, dims_source=(3, 4), dims_target=(2, 4),
            n=16, n_labeled=2, n_overlap=2, n_eval=4, iterations=2)),
        # Encrypted backprop dominates at the source: every source row is
        # pushed through two layers under encryption; two-layer gradients
        # also load the mask/decrypt/unmask round trip.
        "train-backprop": Training(TrainShape(
            key_bits=1024, tcp=False, dims_source=(6, 4, 2), dims_target=(5, 4, 2),
            n=36, n_labeled=2, n_overlap=4, n_eval=4, iterations=2)),
        # The read path: requester encryption plus two keygens per request.
        "predict": Predict(key_bits=1024, dims_source=(6, 8), dims_target=(5, 8),
                           rows=8, requests=2, n=40),
        # What users run: the CLI end to end at 512-bit keys.
        "experiment": Experiment(workdir),
    }


def measure(workload, seed: int, seconds: float, tracer: Tracer | None = None) -> Tally:
    """Run episodes until the next one would overrun `seconds`."""
    tally = Tally()
    started = time.perf_counter()
    while True:
        begun = time.perf_counter()
        workload.episode(seed, tally, tracer)
        now = time.perf_counter()
        if now - started + (now - begun) > seconds:
            return tally
