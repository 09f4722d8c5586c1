"""Tests of the benchmark's own instruments and correctness gate.

Run with: python3 -m pytest perfbench
"""

import hashlib
import os
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

from secureftl import protocol  # noqa: E402
from secureftl.protocol import train_encrypted  # noqa: E402
from secureftl.transport import (  # noqa: E402
    DIR_SOURCE_TO_TARGET,
    DIR_TARGET_TO_SOURCE,
    Frame,
    MsgType,
    loopback_pair,
)

from tracing import (  # noqa: E402
    _TRACED,
    PARTIES,
    Tracer,
    _resolve,
    add_phases,
    layer_metrics,
    per_layer_names,
    wrap_channels,
)
from workloads import Tally, Training, TrainShape  # noqa: E402

TINY = Training(TrainShape(key_bits=512, tcp=False, dims_source=(3, 2), dims_target=(2, 2),
                           n=12, n_labeled=2, n_overlap=2, n_eval=2, iterations=2))
SEED = 5


def _digests(transcript) -> dict:
    out = {}
    for direction in (DIR_SOURCE_TO_TARGET, DIR_TARGET_TO_SOURCE):
        digest = hashlib.sha256()
        for record in transcript.frames(direction=direction):
            digest.update(bytes([record.msg_type]) + record.iteration.to_bytes(4, "big"))
            digest.update(record.payload)
        out[direction] = digest.hexdigest()
    return out


def _train(channels=None):
    split, net_s, net_t = TINY.inputs(SEED)
    run = train_encrypted(split, net_s, net_t, TINY.cfg, key_bits=512, seed=1,
                          channels=channels)
    return _digests(run.transcript), run.result.loss_history


def test_every_traced_callable_exists():
    missing = [(path, attr) for path, attr, _name, _root in _TRACED
               if _resolve(path) is None or attr not in vars(_resolve(path))]
    assert not missing


def test_instrumentation_is_transparent():
    bare = _train()
    log = []
    assert _train(wrap_channels(loopback_pair(), log)) == bare
    assert {e.party for e in log} == set(PARTIES)
    original = protocol.keygen
    tracer = Tracer()
    with tracer.installed():
        assert _train(wrap_channels(loopback_pair(), [], tracer)) == bare
    assert protocol.keygen is original
    assert tracer.spans


def test_traced_run_names_every_phase():
    tracer = Tracer()
    with tracer.installed():
        tally = Tally()
        TINY.episode(SEED, tally, tracer)
    assert tally.attempted == 2 and tally.failed == 0
    values, party_cpu = layer_metrics(add_phases(tracer.spans), tally.attempted)
    names = per_layer_names()
    assert len(names) == len(set(names)) <= 128
    assert set(names) <= set(values)
    for party in PARTIES:
        for phase in ("mask", "decrypt", "unmask", "backward", "compute_components"):
            assert values[f"protocol.{phase}.{party}.count"] >= 1, (phase, party)
        assert values[f"trace.unattributed.{party}.cpu_s"] < 0.05 * party_cpu[party]
        assert values[f"transport.send.{party}.bytes"] > 0
    assert values["protocol.assemble_loss.source.count"] == 1
    assert values["paillier.encrypt.all.us_per_op"] > 0


def _flip_last_blob_byte(frame: Frame) -> Frame:
    if frame.msg_type != MsgType.DECRYPTED_BLOB:
        return frame
    payload = bytearray(frame.payload)
    payload[-1] ^= 0x01
    return Frame(frame.msg_type, frame.iteration, bytes(payload))


def _flip_first_blob_byte(frame: Frame) -> Frame:
    if frame.msg_type != MsgType.DECRYPTED_BLOB:
        return frame
    return Frame(frame.msg_type, frame.iteration, bytes([frame.payload[0] ^ 0xFF])
                 + frame.payload[1:])


def test_gate_counts_a_corrupted_blob_as_failed():
    clean = Tally()
    TINY.episode(SEED, clean)
    assert clean.attempted == 2 and clean.failed == 0
    for tamper in (_flip_last_blob_byte, _flip_first_blob_byte):
        tally = Tally()
        TINY.episode(SEED, tally, tamper=tamper)
        assert tally.attempted == 2
        assert tally.failed == 2, tamper.__name__


def test_refuses_to_run_without_the_package_source(tmp_path):
    copy = tmp_path / "perfbench"
    copy.mkdir()
    for name in ("run.py", "tracing.py", "workloads.py"):
        shutil.copy(HERE / name, copy / name)
    done = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "predict",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60,
                          env={k: v for k, v in os.environ.items() if k != "PYTHONPATH"})
    assert done.returncode != 0
    assert "{" not in done.stdout
