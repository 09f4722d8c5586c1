import dataclasses
import hashlib
import math
import multiprocessing
import os
import random
import re
import socket
import threading
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from types import SimpleNamespace

import numpy as np
import pytest
from conftest import decrypt, decrypt_raw, encrypt
from hypothesis import given, settings, strategies as st

from secureftl import paillier
from secureftl.datasets import FederationSplit, synth_two_view
from secureftl.encoding import EncodingOverflowError, is_zero
from secureftl.nets import init_network
from secureftl.paillier import (
    Ciphertext,
    KeyMismatchError,
    PrivateKey,
    PublicKey,
    _multiexp_job,
    keygen,
)
from secureftl.plain import (
    TrainingConfig,
    label_prototype,
    party_rows,
    predict_phi,
    predict_plain,
    threshold_labels,
    train_plain,
)
from secureftl.protocol import (
    ENGINE_KINDS,
    ComponentBatch,
    Engine,
    ProtocolError,
    SourceParty,
    TargetParty,
    WIRE_ERRORS,
    _Party,
    _ct_section,
    _int_section,
    _party_keys,
    _pubkey_payload,
    _Tensor,
    _read,
    _read_gradient,
    _read_labels,
    _read_pubkey,
    _section_cts,
    _section_ints,
    audit_training,
    encrypted_backward,
    predict_encrypted,
    train_encrypted,
)
from secureftl.transport import (
    DIR_SOURCE_TO_TARGET,
    DIR_TARGET_TO_SOURCE,
    Frame,
    MsgType,
    Section,
    SocketChannel,
    Transcript,
    loopback_pair,
    pack_sections,
    unpack_sections,
)

F = 40


def _enc_array(key, values, frac_bits=F):
    values = np.asarray(values, dtype=float)
    return np.array([encrypt(key, float(v), frac_bits) for v in values.ravel()],
                    dtype=object).reshape(values.shape)


def _decrypt_tensor(tensor, key):
    return np.array([0.0 if isinstance(ct, int) else
                     decrypt_raw(key, ct) / 2.0 ** tensor.frac_bits
                     for ct in tensor.values.flat]).reshape(tensor.values.shape)


def test_encrypted_backward_matches_plaintext():
    rng = np.random.default_rng(3)
    net = init_network([4, 3, 2], seed=9)
    x = rng.normal(size=(5, 4))
    upstream_plain = np.zeros((5, 2))
    upstream_plain[[0, 2, 4]] = rng.normal(size=(3, 2))

    key = keygen(512, random.Random(11))
    # Rows no ciphertext reaches hold the structural zero 0.
    upstream = np.zeros((5, 2), dtype=object)
    upstream[[0, 2, 4]] = _enc_array(key.public, upstream_plain[[0, 2, 4]], 2 * F)
    trace = net.forward_trace(x)
    tensors = encrypted_backward(net, trace, upstream, F)
    expected = net.backward(trace, upstream_plain)
    assert [t.name for t in tensors] == [
        "layer0.weights", "layer0.bias", "layer1.weights", "layer1.bias"]
    # Upstream at 2F, and each layer crossed adds F.
    assert [t.frac_bits for t in tensors] == [4 * F, 4 * F, 3 * F, 3 * F]
    for tensor, layer_idx in zip(tensors, (0, 0, 1, 1)):
        want = expected[layer_idx].weights if tensor.name.endswith("weights") \
            else expected[layer_idx].bias
        got = _decrypt_tensor(tensor, key)
        assert np.allclose(got, want, atol=1e-9)


def test_contractions_give_each_worker_one_stride_of_every_row(monkeypatch, small_split,
                                                               loopback):
    # With two workers each row's ciphertexts go as two strides, 0, 2, ...
    # and 1, 3, ..., queued stride-major: the executor's two equal-count
    # chunks of a map call hold stride 0 and stride 1 of every row, with the
    # row's columns. A layer is one map call (its gradient and, above the
    # first layer, the next delta), the shared basis one call for every
    # tensor, and the ciphertexts are those of a one-worker run.
    rng = np.random.default_rng(4)
    net = init_network([4, 3, 2], seed=9)
    key = keygen(512, random.Random(11))
    upstream = _enc_array(key.public, rng.normal(size=(5, 2)), 2 * F)
    trace = net.forward_trace(rng.normal(size=(5, 4)))
    basis, coef = _enc_array(key.public, rng.normal(size=3), 2 * F), rng.normal(size=(5, 2, 3))
    runs = {}
    for workers in (1, 2):
        monkeypatch.setattr(paillier, "_workers", lambda: workers)
        calls = []

        def record(fn, jobs):
            calls.append(list(jobs))
            return map(fn, jobs)

        tensors = (encrypted_backward(net, trace, upstream, F, mapper=record)
                   + encrypted_backward(net, trace, coef, F, basis, mapper=record))
        runs[workers] = _ct_fields(tensors), calls
    (whole, rows), (strided, calls) = runs[1], runs[2]
    assert strided == whole
    # Top layer: 2 gradient rows of 5 ciphertexts and 5 delta rows of 2;
    # bottom layer: 3 gradient rows; basis: 4 tensors' rows of 3.
    assert [len(jobs) for jobs in rows] == [7, 3, 4]
    assert [len(jobs) for jobs in calls] == [14, 6, 8]
    for one, two in zip(rows, calls):
        half = len(two) // 2
        for k, chunk in enumerate((two[:half], two[half:])):
            assert chunk == [(bases[k::2], [column[k::2] for column in columns], nsq)
                             for bases, columns, nsq in one]

    # The source's loss contraction is two rows, d^2 + n_c d quad and lin
    # ciphertexts and n_ab d align ciphertexts: one map call of a job per
    # row for each of the two workers.
    party = _source_party(small_split, loopback[0])
    calls = []
    party.mapper = lambda fn, jobs: calls.append(len(jobs)) or map(fn, jobs)
    d, trace = party.net.hidden_dim, party.net.forward_trace(party.rows.x)
    comps = ComponentBatch(_enc_array(key.public, rng.normal(size=(2, d, d))),
                           _enc_array(key.public, rng.normal(size=(2, d))),
                           _enc_array(key.public, rng.normal(size=(3, d)), 2 * F),
                           encrypt(key.public, 0.5, 3 * F))
    party.assemble_loss(comps, comps.quad.sum(axis=0), trace,
                        label_prototype(trace[-1], party.rows.labels))
    assert calls == [4]


def _ct_fields(tensors):
    return [(t.name, t.values.shape, t.frac_bits,
             [(ct.value, ct.frac_bits) if isinstance(ct, Ciphertext) else ct
              for ct in t.values.flat])
            for t in tensors]


def _add_tensors(tensors, extra):
    for tensor, more in zip(tensors, extra):
        tensor.values = tensor.values + more.values
    return tensors


@pytest.mark.parametrize("case", ["signs-and-residual-only-rows", "zero-sum", "no-basis"])
def test_shared_basis_backward_matches_plaintext(case):
    """Float64 coefficients on a shared basis, passed through the plaintext
    backward and encoded once per entry, plus residual ciphertext rows (the
    source's gradient) match the plaintext backward of the expanded per-row
    upstream within quantization."""
    rng = np.random.default_rng(5)
    key = keygen(512, random.Random(11))
    net = init_network([3, 4, 2], seed=9)
    basis_plain, residual_plain = rng.normal(size=2), rng.normal(size=(3, 2))
    basis = _enc_array(key.public, basis_plain, 2 * F)
    x = rng.normal(size=(5, 3))
    signs = np.array([1, -1, 1, -1, -1])
    rows = np.array([0, 3, 4])  # the rows with a residual
    if case == "zero-sum":
        # Two equal rows of opposite sign: every coefficient sums to 0, up
        # to float64 rounding, yet every entry is still a ciphertext.
        x, signs, rows, residual_plain = x[[0, 0]], signs[:2], rows[:0], residual_plain[:0]
    coef = signs[:, None, None] * np.eye(2)
    if case == "signs-and-residual-only-rows":
        coef[4] = 0  # row 4 reaches the gradient through its residual only
    if case == "no-basis":
        # n_c = 0: the pooled basis is structural zeros.
        basis, basis_plain = np.zeros(2, dtype=object), np.zeros(2)
    trace = net.forward_trace(x)

    got = encrypted_backward(net, trace, coef, F, basis)
    if len(rows):
        got = _add_tensors(got, encrypted_backward(
            net, [a[rows] for a in trace], _enc_array(key.public, residual_plain, 2 * F), F))
    # Row r, output o: sum_k coef[r, o, k] * basis[k], plus its residual.
    upstream = coef @ basis_plain
    upstream[rows] += residual_plain
    expected = net.backward(trace, upstream)
    assert all(isinstance(ct, Ciphertext) for t in got for ct in t.values.flat)
    for tensor, layer_idx in zip(got, (0, 0, 1, 1)):
        want = getattr(expected[layer_idx], tensor.name.split(".")[1])
        assert np.allclose(_decrypt_tensor(tensor, key), want, atol=1e-9)


def test_basis_coefficients_share_one_fraction_count():
    # Basis and ciphertext-row tensors follow one schedule, 2F + (L - i) F
    # for layer i of L, so the source can add them entry by entry.
    key = keygen(512, random.Random(11))
    basis = _enc_array(key.public, np.ones(2), 2 * F)
    coef = np.array([1, -1])[:, None, None] * np.eye(2)
    rows = _enc_array(key.public, np.ones((2, 2)), 2 * F)
    for dims in ([3, 2], [3, 4, 2], [3, 2, 2, 2]):
        net = init_network(dims, seed=9)
        trace = net.forward_trace(np.random.default_rng(5).normal(size=(2, 3)))
        depth = len(net.layers)
        schedule = [(2 + depth - i) * F for i in range(depth) for _ in "wb"]
        on_basis, on_rows = (encrypted_backward(net, trace, coef, F, basis),
                             encrypted_backward(net, trace, rows, F))
        for tensors in (on_basis, on_rows):
            assert [t.frac_bits for t in tensors] == schedule
            assert all(ct.frac_bits == t.frac_bits for t in tensors for ct in t.values.flat)
        assert all(isinstance(ct, Ciphertext)
                   for t in _add_tensors(on_basis, on_rows) for ct in t.values.flat)


def test_component_batch_roundtrip():
    key = keygen(512, random.Random(1))
    batch = ComponentBatch(
        quad=_enc_array(key.public, [[[1.0, 2.0], [3.0, 4.0]]]),
        lin=_enc_array(key.public, [[5.0, 6.0], [7.0, 8.0]]),
        align=_enc_array(key.public, [[0.5, -0.5]]),
        reg=encrypt(key.public, 9.0, F))
    layout = [("quad", (1, 2, 2), F), ("lin", (2, 2), F), ("align", (1, 2), F), ("reg", (), F)]
    back = ComponentBatch.from_payload(batch.to_payload(), key.public, layout)
    assert decrypt_raw(key, back.quad[0, 1, 0]) == decrypt_raw(key, batch.quad[0, 1, 0])
    assert (back.quad.shape, back.lin.shape, back.align.shape) == ((1, 2, 2), (2, 2), (1, 2))
    assert decrypt_raw(key, back.reg) == decrypt_raw(key, batch.reg)


def _tiny_cfg(**kw):
    base = dict(learning_rate=0.1, max_iterations=3, tolerance=0.0,
                gamma=0.1, weight_decay=0.01, loss_mode="taylor")
    base.update(kw)
    return TrainingConfig(**base)


def _source_party(split, channel):
    """A source party with a [3, 2] net and its 512-bit keys at seed 0."""
    return SourceParty(party_rows(split)[0], init_network([3, 2], seed=4), _tiny_cfg(), channel,
                       _party_keys((512, "source", 0)), F)


def _target_party(split, channel):
    """A target party with a [2, 2] net and its 512-bit keys at seed 0."""
    return TargetParty(party_rows(split)[1], init_network([2, 2], seed=5), _tiny_cfg(), channel,
                       _party_keys((512, "target", 0)), F)


def test_encrypted_matches_plain_training(small_split):
    cfg = _tiny_cfg()
    net_a_plain = init_network([3, 2], seed=4)
    net_b_plain = init_network([2, 2], seed=5)
    plain = train_plain(small_split, net_a_plain, net_b_plain, cfg)

    net_a_enc = init_network([3, 2], seed=4)
    net_b_enc = init_network([2, 2], seed=5)
    run = train_encrypted(small_split, net_a_enc, net_b_enc, cfg,
                          key_bits=512, frac_bits=F, seed=0)

    assert len(run.result.loss_history) == len(plain.loss_history)
    assert np.allclose(run.result.loss_history, plain.loss_history, atol=1e-6)
    for enc_layer, plain_layer in zip(net_a_enc.layers, net_a_plain.layers):
        assert np.allclose(enc_layer.weights, plain_layer.weights, atol=1e-6)
    for enc_layer, plain_layer in zip(net_b_enc.layers, net_b_plain.layers):
        assert np.allclose(enc_layer.weights, plain_layer.weights, atol=1e-6)


def test_encrypted_choreography_and_stop(small_split):
    cfg = _tiny_cfg(max_iterations=2)
    run = train_encrypted(small_split, init_network([3, 2], seed=4),
                          init_network([2, 2], seed=5), cfg, seed=0)
    seen = {MsgType(r.msg_type) for r in run.transcript.frames()}
    assert {MsgType.PUBKEY, MsgType.COMPONENTS_A, MsgType.COMPONENTS_B,
            MsgType.MASKED_GRAD_A, MsgType.MASKED_GRAD_B, MsgType.ENC_LOSS,
            MsgType.DECRYPTED_BLOB, MsgType.STOP} <= seen
    assert len(run.transcript.frames(msg_type=MsgType.COMPONENTS_A)) == 2
    assert len(run.transcript.frames(msg_type=MsgType.COMPONENTS_B)) == 2


def test_early_stop_on_tolerance(small_split):
    cfg = _tiny_cfg(max_iterations=50, tolerance=1e9)
    run = train_encrypted(small_split, init_network([3, 2], seed=4),
                          init_network([2, 2], seed=5), cfg, seed=0)
    # previous loss starts at infinity, so the first finite comparison
    # happens at iteration two and a huge tolerance stops right there
    assert run.result.converged
    assert len(run.result.loss_history) == 2


def test_predict_encrypted_matches_plain(small_split):
    net_a = init_network([3, 2], seed=4)
    net_b = init_network([2, 2], seed=5)
    query = small_split.eval_ids
    run = predict_encrypted(small_split, net_a, net_b, query, seed=3)

    proto = label_prototype(net_a.forward(small_split.x_source),
                            small_split.labels_source)
    u_query = net_b.forward(small_split.x_target[small_split.target_rows(query)])
    want = threshold_labels(predict_phi(proto, u_query))
    assert np.array_equal(run.labels, want)
    assert set(run.labels) <= {-1, 1}


def test_audit_accepts_honest_run(small_split):
    cfg = _tiny_cfg(max_iterations=2)
    run = train_encrypted(small_split, init_network([3, 2], seed=4),
                          init_network([2, 2], seed=5), cfg, seed=0)
    report = audit_training(run.transcript, run.source, run.target)
    assert report.ok, report.issues
    assert report.blob_sections_checked > 0
    assert report.masks_checked > 0
    assert report.ciphertext_frames > 0


def test_audit_flags_tampered_mask_log(small_split):
    cfg = _tiny_cfg(max_iterations=1)
    run = train_encrypted(small_split, init_network([3, 2], seed=4),
                          init_network([2, 2], seed=5), cfg, seed=0)
    # drop one mask record: the unmasked blob now lacks provenance
    key = next(iter(run.source.mask_log))
    del run.source.mask_log[key]
    report = audit_training(run.transcript, run.source, run.target)
    assert not report.ok
    assert any("never masked" in issue for issue in report.issues)


def test_audit_flags_reused_mask(small_split):
    cfg = _tiny_cfg(max_iterations=2)
    run = train_encrypted(small_split, init_network([3, 2], seed=4),
                          init_network([2, 2], seed=5), cfg, seed=0)
    keys = list(run.target.mask_log)
    blob_first = tuple(m + a for m, a in zip(run.target.mask_log[keys[0]],
                                             run.target.applied_log[keys[0]]))
    # rewrite history so two iterations claim the same mask values
    run.target.mask_log[keys[0]] = run.target.mask_log[keys[1]]
    run.target.applied_log[keys[0]] = tuple(
        b - m for b, m in zip(blob_first, run.target.mask_log[keys[1]]))
    report = audit_training(run.transcript, run.source, run.target)
    assert any("reused a mask" in issue for issue in report.issues)


def test_engine_kinds_agree(small_split):
    cfg = _tiny_cfg(max_iterations=2)
    runs = {}
    for kind in ENGINE_KINDS:
        engine = Engine(kind)
        net_a, net_b = init_network([3, 2], seed=4), init_network([2, 2], seed=5)
        result, transcript = engine.train(small_split, net_a, net_b, cfg, seed=0)
        labels = engine.predict(small_split, net_a, net_b, small_split.eval_ids, seed=0)
        runs[kind] = (result.loss_history, labels, transcript)
    assert np.allclose(runs["plain"][0], runs["encrypted"][0], atol=1e-6)
    assert np.array_equal(runs["plain"][1], runs["encrypted"][1])
    assert runs["plain"][2] is None
    assert runs["encrypted"][2].frames(msg_type=MsgType.COMPONENTS_A)
    with pytest.raises(ValueError):
        Engine("fhe")


@pytest.mark.parametrize("kind", ENGINE_KINDS)
@pytest.mark.parametrize("bad", [{"gamma": -0.5}, {"weight_decay": -1.0},
                                 {"loss_mode": "cubic"}, {"alignment": "cosine"}])
def test_both_engines_refuse_the_same_training_configs(small_split, kind, bad):
    # A config is checked when it is built, not only when the plain engine
    # builds its objective.
    net_a, net_b = init_network([3, 2], seed=4), init_network([2, 2], seed=5)
    with pytest.raises(ValueError):
        Engine(kind).train(small_split, net_a, net_b, _tiny_cfg(max_iterations=1, **bad))


def test_encrypted_rejects_exact_loss(small_split):
    with pytest.raises(ValueError, match="Taylor"):
        train_encrypted(small_split, init_network([3, 2], seed=4),
                        init_network([2, 2], seed=5), _tiny_cfg(loss_mode="exact"))


def test_encrypted_rejects_too_deep_net_before_keygen(small_split, monkeypatch):
    def no_keygen(*args):
        raise AssertionError("keygen ran")

    monkeypatch.setattr("secureftl.protocol.keygen", no_keygen)
    channels = loopback_pair()
    # Five layers at f = 40 reach 2f + 5f = 280 fraction bits.
    with pytest.raises(ValueError, match="5-layer source net needs 280 fraction bits.*"
                                         "MAX_FRAC_BITS = 255"):
        train_encrypted(small_split, init_network([3, 4, 4, 4, 4, 2], seed=4),
                        init_network([2, 2], seed=5), _tiny_cfg(), frac_bits=F,
                        channels=channels)
    assert channels[2].frames() == []


@pytest.mark.parametrize("call, frac_bits, message", [
    ("train", -1, "frac_bits -1 outside [0, 255]"),
    ("predict", -1, "frac_bits -1 outside [0, 255]"),
    ("predict", 200, "fraction bits 400 exceed 255"),
], ids=["train-negative", "predict-negative", "predict-scores-too-wide"])
def test_fraction_bits_the_wire_cannot_carry_are_refused_before_any_frame(small_split, call,
                                                                         frac_bits, message):
    # Prediction scores are at 2 frac_bits, so 200 would fail only at the
    # server, after the requester sent its PREDICT_REQUEST.
    nets = init_network([3, 2], seed=4), init_network([2, 2], seed=5)
    channels = loopback_pair()
    with pytest.raises(ValueError, match=re.escape(message)):
        if call == "train":
            train_encrypted(small_split, *nets, _tiny_cfg(), key_bits=512, frac_bits=frac_bits,
                            channels=channels)
        else:
            predict_encrypted(small_split, *nets, small_split.eval_ids, key_bits=512,
                              frac_bits=frac_bits, channels=channels)
    assert channels[2].frames() == []


@pytest.mark.parametrize("kind", ENGINE_KINDS)
@pytest.mark.parametrize("edit, message", [
    (dict(labels_source=[0, -1, 1, -1]), "source labels must be"),
    (dict(labeled_ids=[10, 14], eval_ids=[], labels_eval=[]), "labeled ids must be held"),
    (dict(labeled_ids=[10, 10]), "duplicate ids in labeled_ids"),
], ids=["zero-label", "labeled-id-not-at-source", "duplicated-id"])
def test_both_engines_refuse_an_invalid_split(small_split, kind, edit, message):
    # Unrefused, a 0 label trains without complaint, and the encrypted
    # engine, whose source sums the target's quad matrices on y^2 = 1,
    # trains another loss than the plaintext one.
    split = dataclasses.replace(small_split, **edit)
    nets = init_network([3, 2], seed=4), init_network([2, 2], seed=5)
    if kind == "plain":
        with pytest.raises(ValueError, match=message):
            train_plain(split, *nets, _tiny_cfg())
        return
    channels = loopback_pair()
    with pytest.raises(ValueError, match=message):
        train_encrypted(split, *nets, _tiny_cfg(), frac_bits=F, channels=channels)
    assert channels[2].frames() == []


@pytest.mark.parametrize("kind", ENGINE_KINDS)
def test_both_engines_refuse_a_query_id_the_target_lacks(small_split, kind):
    # 13 is a source-only row and 1000000 no row at all; the encrypted
    # engine refuses before any key or frame.
    nets = init_network([3, 2], seed=4), init_network([2, 2], seed=5)
    channels = loopback_pair()
    with pytest.raises(ValueError, match=re.escape("the target holds no row for ids [13, 1000000]")):
        Engine(kind, channels=lambda: channels).predict(small_split, *nets, [14, 13, 1000000])
    assert channels[2].frames() == []
    channels[0].close()  # the plain engine opens no channel, so it closes none
    channels[1].close()


def _minimal_buffer_pair():
    """Channels over a socketpair whose ends hold the smallest send and
    receive buffers the kernel allows, and per direction the sender's send
    buffer plus the receiver's receive buffer, as read back."""
    socks = socket.socketpair()
    for sock in socks:
        for option in (socket.SO_SNDBUF, socket.SO_RCVBUF):
            sock.setsockopt(socket.SOL_SOCKET, option, 1)
    directions = (DIR_SOURCE_TO_TARGET, DIR_TARGET_TO_SOURCE)
    floor = {directions[out]: socks[out].getsockopt(socket.SOL_SOCKET, socket.SO_SNDBUF)
             + socks[1 - out].getsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF)
             for out in (0, 1)}
    transcript = Transcript()
    return (*(SocketChannel(sock, direction, transcript)
              for sock, direction in zip(socks, directions)), transcript), floor


def test_minimal_socket_buffers_do_not_deadlock():
    # A frame larger than its sender's send buffer and its receiver's receive
    # buffer together cannot be sent before the peer reads, so a run that
    # completes sent every such frame while its receiver was reading. Were
    # both parties to send one at once, both sends would block until timeout.
    split = synth_two_view(n=24, d_source=6, d_target=5, noise=0.1, seed=3, latent_dim=2,
                           n_overlap=8, n_labeled=6, n_eval=12)

    def nets():
        return init_network([6, 40, 4], seed=4), init_network([5, 40, 4], seed=5)

    cfg = _tiny_cfg(max_iterations=2)
    plain_nets, enc_nets = nets(), nets()
    plain = train_plain(split, *plain_nets, cfg)
    channels, floor = _minimal_buffer_pair()
    run = train_encrypted(split, *enc_nets, cfg, key_bits=512, frac_bits=F, seed=0,
                          channels=channels)
    big = [r for r in run.transcript.frames() if r.msg_type in (
        MsgType.COMPONENTS_A, MsgType.COMPONENTS_B, MsgType.MASKED_GRAD_A,
        MsgType.MASKED_GRAD_B, MsgType.DECRYPTED_BLOB)]
    assert len(big) == 2 * 6
    assert all(len(r.payload) > floor[r.direction] for r in big)
    assert np.allclose(run.result.loss_history, plain.loss_history, atol=1e-5, rtol=0)
    for enc, want in zip(enc_nets, plain_nets):
        assert np.allclose(enc.get_flat(), want.get_flat(), atol=1e-5, rtol=0)
    assert audit_training(run.transcript, run.source, run.target).ok

    channels, floor = _minimal_buffer_pair()
    query = split.ids_target
    predicted = predict_encrypted(split, *enc_nets, query, key_bits=512, frac_bits=F, seed=0,
                                  channels=channels)
    (request,) = predicted.transcript.frames(msg_type=MsgType.PREDICT_REQUEST)
    assert len(request.payload) > floor[DIR_TARGET_TO_SOURCE]
    assert np.array_equal(predicted.labels, predict_plain(split, *enc_nets, query))


@pytest.mark.parametrize("depth", [3, 4])
def test_deep_nets_train_encrypted(small_split, depth):
    # At f = 40 a 4-layer net's bottom gradient reaches 2f + 4f = 240 <= 255
    # fraction bits.
    def nets():
        return (init_network([3] + [4] * (depth - 1) + [2], seed=4),
                init_network([2] + [4] * (depth - 1) + [2], seed=5))

    cfg = _tiny_cfg(max_iterations=2)
    plain_nets, enc_nets = nets(), nets()
    plain = train_plain(small_split, *plain_nets, cfg)
    run = train_encrypted(small_split, *enc_nets, cfg, key_bits=512, frac_bits=F, seed=0)
    assert len(run.result.loss_history) == len(plain.loss_history) == 2
    assert np.allclose(run.result.loss_history, plain.loss_history, atol=1e-5, rtol=0)
    for enc, want in zip(enc_nets, plain_nets):
        assert np.allclose(enc.get_flat(), want.get_flat(), atol=1e-5, rtol=0)
    assert audit_training(run.transcript, run.source, run.target).ok


def _component_batch(public, n_c, n_ab, d, reg):
    return ComponentBatch(_enc_array(public, np.full((n_c, d, d), 0.5)),
                          _enc_array(public, np.full((n_c, d), 0.5)),
                          _enc_array(public, np.full((n_ab, d), 0.5)),
                          encrypt(public, 0.5, F) if reg else None)


@pytest.mark.parametrize("role", ["source", "target"])
@pytest.mark.parametrize("misfit", ["short", "wrong-d"])
def test_party_rejects_misfit_component_batch(small_split, loopback, role, misfit):
    # small_split: n_c = 2 labeled pairs, n_ab = 3 overlap pairs, d = 2.
    peer = keygen(512, random.Random(9)).public
    n_c, d = (1, 2) if misfit == "short" else (2, 3)
    batch = _component_batch(peer, n_c, 3, d, reg=role == "source")
    source_end, target_end, _ = loopback
    if role == "source":
        own_end, peer_end, comps_type = source_end, target_end, MsgType.COMPONENTS_B
        party = _source_party(small_split, own_end)
    else:
        own_end, peer_end, comps_type = target_end, source_end, MsgType.COMPONENTS_A
        party = _target_party(small_split, own_end)
    peer_end.send(Frame(MsgType.PUBKEY, 0, _pubkey_payload(peer)))
    peer_end.send(Frame(comps_type, 1, batch.to_payload()))
    with pytest.raises(ProtocolError, match="expected sections"):
        party.run_training()


def _with_source_rows(split, extra: int) -> FederationSplit:
    """split plus extra source-only rows: only N_source differs."""
    rng = np.random.default_rng(8)
    return FederationSplit(
        ids_source=np.concatenate([split.ids_source, 100 + np.arange(extra)]),
        x_source=np.vstack([split.x_source, rng.normal(size=(extra, split.x_source.shape[1]))]),
        labels_source=np.concatenate([split.labels_source, rng.choice([-1, 1], size=extra)]),
        ids_target=split.ids_target, x_target=split.x_target,
        overlap_ids=split.overlap_ids, labeled_ids=split.labeled_ids,
        eval_ids=split.eval_ids, labels_eval=split.labels_eval)


def _unwatched_multiexp_job(job):
    """paillier._multiexp_job as a watched party's mapper runs it: its terms
    are counted there, not again by the kernel watch."""
    return _multiexp_job(job)


def _terms(jobs) -> int:
    """The exponent terms of kernel jobs: every (base, exponent) pair handed
    to the kernel, zero exponents included."""
    return sum(len(bases) * len(columns) for bases, columns, _ in jobs)


class _PartyWatch:
    """Per role, the exponent terms of the _multiexp_job jobs a party hands
    its mapper, each term's (base, exponent bit length), and the kernel runs
    on its thread outside any mapper (a contraction on the builtin map
    instead of the party's mapper), in the runs started while monkeypatch
    holds.
    exchange_keys, the first step of every training and prediction routine,
    records the party's thread and wraps its mapper."""

    def __init__(self, monkeypatch):
        self.threads = {"source": set(), "target": set()}
        self.terms = {"source": 0, "target": 0}
        self.mapped_jobs = {"source": 0, "target": 0}
        self.exponents = {"source": [], "target": []}
        self.kernel_threads = []  # (thread, terms) per kernel run outside a mapper
        exchange_keys = _Party.exchange_keys

        def watched_kernel(job):
            self.kernel_threads.append((threading.get_ident(), _terms([job])))
            return _multiexp_job(job)

        def watched_exchange(party):
            role, mapper = party.role, party.mapper
            self.threads[role].add(threading.get_ident())

            def counting(fn, jobs):
                if fn is watched_kernel:
                    self.terms[role] += _terms(jobs)
                    self.mapped_jobs[role] += len(jobs)
                    self.exponents[role] += [
                        (base, abs(e).bit_length()) for bases, columns, _ in jobs
                        for column in columns for base, e in zip(bases, column)]
                    fn = _unwatched_multiexp_job
                return mapper(fn, jobs)

            party.mapper = counting
            return exchange_keys(party)

        monkeypatch.setattr(_Party, "exchange_keys", watched_exchange)
        monkeypatch.setattr(paillier, "_multiexp_job", watched_kernel)

    def multiplies(self, role: str) -> int:
        """Exponent terms role ran: those of its mapped jobs plus those of
        kernel runs on its thread."""
        return self.terms[role] + sum(terms for ident, terms in self.kernel_threads
                                      if ident in self.threads[role])

    def jobs(self, role: str) -> int:
        """Multi-exponentiation jobs role ran, counted as multiplies counts
        their terms."""
        return self.mapped_jobs[role] + sum(ident in self.threads[role]
                                            for ident, _ in self.kernel_threads)

    def exponent_bits(self, role: str, bases) -> list[int]:
        """The bit length of every exponent role's mapped jobs raised one of
        bases (ciphertext values) to; their sum is what those terms cost."""
        return [bits for base, bits in self.exponents[role] if base in bases]


def _source_watch(split, monkeypatch, dims_source=(3, 4, 2), dims_target=(2, 4, 2)):
    """The _PartyWatch of one training iteration (two-layer nets unless told
    otherwise)."""
    watch = _PartyWatch(monkeypatch)
    train_encrypted(split, init_network(dims_source, seed=4), init_network(dims_target, seed=5),
                    _tiny_cfg(max_iterations=1), key_bits=512, frac_bits=F, seed=0)
    monkeypatch.undo()
    return watch


def _source_multiplies(split, monkeypatch, dims_source=(3, 4, 2), dims_target=(2, 4, 2)) -> int:
    """Ciphertext-by-plaintext multiplies made by the source party in one
    iteration, wherever they ran."""
    return _source_watch(split, monkeypatch, dims_source, dims_target).multiplies("source")


def test_source_mul_count_ignores_source_rows(small_split, monkeypatch):
    wide = _with_source_rows(small_split, 12)
    wide.validate()
    assert len(wide.ids_source) == 4 * len(small_split.ids_source)
    count = _source_multiplies(small_split, monkeypatch)
    assert count > 0
    assert _source_multiplies(wide, monkeypatch) == count


@pytest.mark.parametrize("d", [2, 3])
def test_source_mul_count_grows_by_2d_per_labeled_pair(monkeypatch, d):
    # The quad components are summed over labeled pairs before the multiply,
    # so a pair costs one lin multiply per entry in the loss and one in the
    # gradient, not d^2 + d of each.
    def split(n_labeled):
        return synth_two_view(n=12, d_source=3, d_target=2, noise=0.1, seed=1, latent_dim=2,
                              n_overlap=6, n_labeled=n_labeled, n_eval=2)

    few, many = (_source_multiplies(split(n), monkeypatch, [3, d], [2, d]) for n in (2, 6))
    assert (many - few) / 4 == 2 * d


def test_source_mul_count_ignores_overlap_pairs(monkeypatch):
    # The target's align arrives as gamma kappa u at 2f, so with single-layer
    # nets an overlap pair adds terms to the d gradient jobs but no job of
    # its own: no one-term job scales it by gamma. With two workers a
    # gradient row of 2 overlap rows already fills both strides.
    def jobs(n_overlap):
        split = synth_two_view(n=12, d_source=3, d_target=2, noise=0.1, seed=1, latent_dim=2,
                               n_overlap=n_overlap, n_labeled=2, n_eval=2)
        monkeypatch.setattr(paillier, "_workers", lambda: 2)
        return _source_watch(split, monkeypatch, [3, 3], [2, 3]).jobs("source")

    assert jobs(2) == jobs(6) > 0


def test_source_overlap_rows_take_exponents_at_f(small_split, monkeypatch):
    # Both parties send gamma kappa u at 2f, so the target's align reaches the
    # source's encrypted_backward at 2f like any upstream, and every exponent
    # it meets is a product of local factors of order one encoded at f.
    watch = _PartyWatch(monkeypatch)
    run = train_encrypted(small_split, init_network([3, 4, 2], seed=4),
                          init_network([2, 4, 2], seed=5), _tiny_cfg(max_iterations=1),
                          key_bits=512, frac_bits=F, seed=0)
    monkeypatch.undo()
    (record,) = run.transcript.frames(DIR_TARGET_TO_SOURCE, MsgType.COMPONENTS_B)
    (align,) = [s for s in unpack_sections(record.payload) if s.name == "align"]
    bits = watch.exponent_bits("source", {ct.value for ct in
                                          _section_cts(align, run.target.own_key.public).flat})
    assert bits and max(bits) < F + 8, f"{len(bits)} exponents of {sum(bits)} bits"


def test_recv_rejects_unexpected_message(small_split, loopback):
    source_end, target_end, _ = loopback
    target_end.send(Frame(MsgType.STOP, 0))
    party = _source_party(small_split, source_end)
    with pytest.raises(ProtocolError):
        party._recv({MsgType.PUBKEY: 0})


def _digests(transcript) -> dict[str, str]:
    out = {}
    for direction in (DIR_SOURCE_TO_TARGET, DIR_TARGET_TO_SOURCE):
        digest = hashlib.sha256()
        for record in transcript.frames(direction=direction):
            digest.update(bytes([record.msg_type]) + record.iteration.to_bytes(4, "big"))
            digest.update(record.payload)
        out[direction] = digest.hexdigest()
    return out


def _frame_key(record, source, target) -> PublicKey:
    """The key a ciphertext frame is under: its sender's for COMPONENTS and
    PREDICT_REQUEST, which the receiver computes on, and its receiver's for
    the frames the receiver decrypts."""
    sender, receiver = ((source, target) if record.direction == DIR_SOURCE_TO_TARGET
                        else (target, source))
    own = record.msg_type in (MsgType.COMPONENTS_A, MsgType.COMPONENTS_B, MsgType.PREDICT_REQUEST)
    return (sender if own else receiver).own_key.public


def _frame_values(record, key) -> list[tuple]:
    """Every value a frame carries, in order, whatever its byte layout."""
    if record.msg_type == MsgType.STOP:
        return []
    if record.msg_type == MsgType.PUBKEY:
        _, (n,) = _section_ints(*unpack_sections(record.payload))
        return [("n", n)]
    if record.msg_type == MsgType.PREDICT_LABELS:
        (n,) = unpack_sections(record.payload)[0].dims
        return [("label", int(v)) for v in _read_labels(record.payload, n)]
    if record.msg_type == MsgType.DECRYPTED_BLOB:
        return [("int", frac, raw) for frac, raws in map(_section_ints,
                                                          unpack_sections(record.payload))
                for raw in raws]
    return [("ct", ct.frac_bits, ct.value) for section in unpack_sections(record.payload)
            for ct in _section_cts(section, key).flat]


def _content_digests(transcript, source, target) -> dict[str, str]:
    """Per direction: each frame's type and iteration, then its values."""
    out = {}
    for direction in (DIR_SOURCE_TO_TARGET, DIR_TARGET_TO_SOURCE):
        digest = hashlib.sha256()
        for record in transcript.frames(direction=direction):
            digest.update(f"{int(record.msg_type)} {record.iteration}\n".encode())
            for value in _frame_values(record, _frame_key(record, source, target)):
                digest.update(f"{value}\n".encode())
        out[direction] = digest.hexdigest()
    return out


# Per-direction sha256 over every value a frame carries, whatever its byte
# layout. The training digests were pinned when the target came to send its
# align as gamma kappa u at 2f, like the source, and its reg at 3f: the
# source's overlap-row exponents moved to f and its loss to 3f. The
# prediction digests predate that change, which leaves prediction untouched.
CONTENT_TRAIN = {
    DIR_SOURCE_TO_TARGET: "c4dd081f28ddb5d8f8b13a60c5caa02f32e7bbca7af2d73cdd5b14e76ebc8f96",
    DIR_TARGET_TO_SOURCE: "9e08958a1a968f7640904c07ac572e444b3c3846fd263e798c802b79eff3eb6c",
}
CONTENT_PREDICT = {
    DIR_SOURCE_TO_TARGET: "31ede96207589279146689a828950cb255d664cb1f800eda78218ccba0d1488e",
    DIR_TARGET_TO_SOURCE: "df3f49a1dd53e03e789d84308c6b8ab34c335a532d1a867d022a1aff1e4327ab",
}

# Per-direction sha256 over (type, iteration, payload) of every frame: the
# exact bytes on the wire under the section codec.
GOLDEN_TRAIN = {
    DIR_SOURCE_TO_TARGET: "464b89cd8b5bd540e343190eece5d74e9d1afda36e7115eec9763df074ea93fb",
    DIR_TARGET_TO_SOURCE: "4c88aee8bd812e9f97991c60a4ea0d542186b707b5133690d216dfd5e5f92d00",
}
# Two iterations with two-layer nets ([3, 4, 2] source, [2, 4, 2] target).
CONTENT_TRAIN_2LAYER = {
    DIR_SOURCE_TO_TARGET: "e9bd4c175b6daeb2547b5fb79a62dae35032ac777261ccf76735e69b01e67b8d",
    DIR_TARGET_TO_SOURCE: "8d9f6c1557c4cef264df731d1d1cec9f8f2edb96d4297095567b26af25604194",
}
GOLDEN_TRAIN_2LAYER = {
    DIR_SOURCE_TO_TARGET: "52fed8c6dc8a052df357036810910129a69e4761fe73f8d23e7b38579adb1201",
    DIR_TARGET_TO_SOURCE: "712d36416dbdc95943c8c4aad2f2bc6b6aebb286b8e56801a1a6a7923b9986ad",
}
GOLDEN_PREDICT = {
    DIR_SOURCE_TO_TARGET: "b43a813fbbef343fa1a5dcf254f48e6a07418f142bca545abb2efe1a4cca699c",
    DIR_TARGET_TO_SOURCE: "a205d857cc0460342d89b78f646300f481bd2f62e458f50e8a194a7fbb3a9391",
}


def _golden_train(small_split, dims_source, dims_target):
    train = train_encrypted(small_split, init_network(dims_source, seed=4),
                            init_network(dims_target, seed=5), _tiny_cfg(max_iterations=2),
                            key_bits=512, frac_bits=F, seed=0)
    return train.transcript, train.source, train.target


def _golden_runs(small_split):
    predict = predict_encrypted(small_split, init_network([3, 2], seed=4),
                                init_network([2, 2], seed=5), small_split.eval_ids,
                                key_bits=512, frac_bits=F, seed=3)
    return (_golden_train(small_split, [3, 2], [2, 2]),
            _golden_train(small_split, [3, 4, 2], [2, 4, 2]),
            (predict.transcript, predict.server, predict.requester))


@pytest.mark.parametrize("builtin_pow", [False, True], ids=["libgmp", "builtin-pow"])
def test_golden_transcripts(small_split, monkeypatch, builtin_pow):
    # libgmp (when it loads) and builtin pow give the same bytes. The pool's
    # workers fork after the patch, so they run builtin pow too.
    if builtin_pow:
        monkeypatch.setattr(paillier, "_powmod", pow)
    ((train, *train_parties), (train_2layer, *train_2layer_parties),
     (predict, *predict_parties)) = _golden_runs(small_split)
    assert _content_digests(train, *train_parties) == CONTENT_TRAIN
    assert _content_digests(train_2layer, *train_2layer_parties) == CONTENT_TRAIN_2LAYER
    assert _content_digests(predict, *predict_parties) == CONTENT_PREDICT
    assert _digests(train) == GOLDEN_TRAIN
    assert _digests(train_2layer) == GOLDEN_TRAIN_2LAYER
    assert _digests(predict) == GOLDEN_PREDICT


# Two iterations with two-layer nets and alignment = distance on splits with
# no labeled pairs, no overlap pairs, or neither, all pinned with the
# training digests above: the loss moved to 3f in every one.
CONTENT_DEGENERATE = {
    (0, 3): {
        DIR_SOURCE_TO_TARGET: "af4d31270aa312f9107c992c8da986248bf7f007dd4b0a2506f6564ded005f97",
        DIR_TARGET_TO_SOURCE: "e3538a261f21527d54072564bff3d9d35ddc6d819df5aacafffa532e43de7eb0",
    },
    (2, 0): {
        DIR_SOURCE_TO_TARGET: "01a3df22e7046cde015b6f0924496b8d00e850114c3acc61db8bf3646da5cffe",
        DIR_TARGET_TO_SOURCE: "daa780c6acdd22fd350d8c757c8f3e4d1df34f0e4ce6f3ff17f5f7c378362f3c",
    },
    (0, 0): {
        DIR_SOURCE_TO_TARGET: "bce06c32b6b7fdfedc2389100eb63b73f44bda14c2c1efb44f1652ca7799c91b",
        DIR_TARGET_TO_SOURCE: "105c71b19b7485047087acb3ec1efa0db9fe0f9b4f5c8780e3662f5c97aeb691",
    },
}


@pytest.mark.parametrize("n_labeled, n_overlap", list(CONTENT_DEGENERATE),
                         ids=["no-labeled", "no-overlap", "neither"])
def test_degenerate_splits_train(n_labeled, n_overlap):
    split = synth_two_view(n=12, d_source=3, d_target=2, noise=0.1, seed=1, latent_dim=2,
                           n_overlap=n_overlap, n_labeled=n_labeled, n_eval=2)
    cfg = _tiny_cfg(max_iterations=2, alignment="distance")
    plain = train_plain(split, init_network([3, 4, 2], seed=4), init_network([2, 4, 2], seed=5),
                        cfg)
    run = train_encrypted(split, init_network([3, 4, 2], seed=4),
                          init_network([2, 4, 2], seed=5), cfg, key_bits=512, frac_bits=F,
                          seed=0)
    assert np.allclose(run.result.loss_history, plain.loss_history, atol=1e-6)
    assert audit_training(run.transcript, run.source, run.target).ok
    assert (_content_digests(run.transcript, run.source, run.target)
            == CONTENT_DEGENERATE[(n_labeled, n_overlap)])


@pytest.mark.parametrize("n_labeled, n_overlap", [(2, 0), (0, 3)],
                         ids=["no-overlap", "no-labeled"])
def test_loss_adds_no_structural_zero(monkeypatch, n_labeled, n_overlap):
    # Without overlap pairs the align products are an empty family, whose
    # sum is the structural zero; without labeled pairs the summed quad is
    # all zeros. No 0 may reach Ciphertext.__add__.
    split = synth_two_view(n=12, d_source=3, d_target=2, noise=0.1, seed=1, latent_dim=2,
                           n_overlap=n_overlap, n_labeled=n_labeled, n_eval=2)
    assemble_loss, add = SourceParty.assemble_loss, Ciphertext.__add__
    inside, operands = set(), []

    def watched_loss(party, *args):
        inside.add(threading.get_ident())
        try:
            return assemble_loss(party, *args)
        finally:
            inside.discard(threading.get_ident())

    def watched_add(ct, other):
        if threading.get_ident() in inside:
            operands.append(other)
        return add(ct, other)

    monkeypatch.setattr(SourceParty, "assemble_loss", watched_loss)
    monkeypatch.setattr(Ciphertext, "__add__", watched_add)
    run = train_encrypted(split, init_network([3, 4, 2], seed=4), init_network([2, 4, 2], seed=5),
                          _tiny_cfg(max_iterations=2, alignment="distance"), key_bits=512,
                          frac_bits=F, seed=0)
    assert len(run.result.loss_history) == 2
    assert operands and not any(is_zero(other) for other in operands)


def _pubkey_frame(number: int) -> Frame:
    return Frame(MsgType.PUBKEY, number, _pubkey_payload(keygen(512, random.Random(9)).public))


@pytest.mark.parametrize("role", ["source", "target"])
def test_party_rejects_peer_key_of_another_size(small_split, loopback, role):
    # Both parties hold 512-bit keys; a 768-bit peer modulus is refused at
    # set-up, before the party sends any component.
    source_end, target_end, transcript = loopback
    if role == "source":
        own_end, peer_end, direction = source_end, target_end, DIR_SOURCE_TO_TARGET
        party = _source_party(small_split, own_end)
    else:
        own_end, peer_end, direction = target_end, source_end, DIR_TARGET_TO_SOURCE
        party = _target_party(small_split, own_end)
    peer_end.send(Frame(MsgType.PUBKEY, 0, _pubkey_payload(keygen(768, random.Random(9)).public)))
    with pytest.raises(ProtocolError, match="peer's public modulus has 768 bits, own key 512"):
        party.run_training()
    assert party.peer_key is None
    assert [r.msg_type for r in transcript.frames(direction=direction)] == [MsgType.PUBKEY]


@pytest.mark.parametrize("frames, numbered", [
    ([_pubkey_frame(1)], "PUBKEY numbered 1, expected 0"),
    ([_pubkey_frame(0), Frame(MsgType.COMPONENTS_B, 2, b"")],
     "COMPONENTS_B numbered 2, expected 1"),
])
def test_recv_rejects_misnumbered_frame(small_split, loopback, frames, numbered):
    source_end, target_end, _ = loopback
    for frame in frames:
        target_end.send(frame)
    party = _source_party(small_split, source_end)
    with pytest.raises(ProtocolError, match=numbered):
        party.run_training()


@pytest.fixture(scope="module")
def wire_samples():
    """One real payload per message type from a one-iteration training run
    and a prediction, with the party that received it."""
    split = synth_two_view(n=12, d_source=3, d_target=2, noise=0.1, seed=1, latent_dim=2,
                           n_overlap=3, n_labeled=2, n_eval=2)
    train = train_encrypted(split, init_network([3, 2], seed=4), init_network([2, 2], seed=5),
                            _tiny_cfg(max_iterations=1), key_bits=512, frac_bits=F, seed=0)
    predict = predict_encrypted(split, init_network([3, 2], seed=4),
                                init_network([2, 2], seed=5), split.eval_ids,
                                key_bits=512, frac_bits=F, seed=0)
    payloads, readers = {}, {}
    for run, source, target in ((train, train.source, train.target),
                                (predict, predict.server, predict.requester)):
        for record in run.transcript.frames():
            payloads.setdefault(MsgType(record.msg_type), record.payload)
            readers.setdefault(MsgType(record.msg_type),
                               target if record.direction == DIR_SOURCE_TO_TARGET else source)
    return payloads, readers


def _components(payload, reader):
    """reader's ComponentBatch of its peer's COMPONENTS payload."""
    return ComponentBatch.from_payload(payload, reader.peer_key, reader.peer_layout)


def _gradient_blob(payload, reader):
    """reader's DECRYPTED_BLOB for a MASKED_GRAD payload."""
    return reader._decrypt_to_blob(_read_gradient(payload, reader.net.hidden_dim))


# message type -> how the party that receives it reads its payload, under
# the one key its ciphertexts must be under: the peer's key for components
# and a prediction request, the reader's own key for what it decrypts. A
# prediction asks about n = 2 rows of d = 2.
DECODERS = {
    MsgType.PUBKEY: lambda p, reader: _read_pubkey(p, 512),
    MsgType.COMPONENTS_A: _components,
    MsgType.COMPONENTS_B: _components,
    MsgType.MASKED_GRAD_A: _gradient_blob,
    MsgType.MASKED_GRAD_B: _gradient_blob,
    MsgType.ENC_LOSS: lambda p, reader: reader._decrypt_to_blob(_read(p, [("loss", ())])),
    MsgType.DECRYPTED_BLOB: lambda p, reader: [_section_ints(s) for s in unpack_sections(p)],
    MsgType.PREDICT_REQUEST: lambda p, reader: _section_cts(
        *_read(p, [("u", (None, 2))]), reader.peer_key, F),
    MsgType.PREDICT_MASKED: lambda p, reader: reader._decrypt_to_blob(
        _read(p, [("predict.scores", (2,))])),
    MsgType.PREDICT_LABELS: lambda p, reader: _read_labels(p, 2),
}


def test_decoders_cover_every_payload_type():
    assert set(DECODERS) == set(MsgType) - {MsgType.STOP}


def test_decoders_read_real_payloads(wire_samples):
    payloads, readers = wire_samples
    for msg_type, decode in DECODERS.items():
        decode(payloads[msg_type], readers[msg_type])


@settings(max_examples=600, derandomize=True, deadline=None)
@given(st.sampled_from(sorted(DECODERS)), st.sampled_from(["random", "truncate", "flip"]),
       st.data())
def test_decoders_raise_only_wire_errors(wire_samples, msg_type, mutation, data):
    payloads, readers = wire_samples
    real = payloads[msg_type]
    if mutation == "random":
        payload = data.draw(st.binary(max_size=400))
    elif mutation == "truncate":
        payload = real[:data.draw(st.integers(0, len(real) - 1))]
    else:
        bit = data.draw(st.integers(0, 8 * len(real) - 1))
        flipped = bytearray(real)
        flipped[bit // 8] ^= 1 << (bit % 8)
        payload = bytes(flipped)
    try:
        DECODERS[msg_type](payload, readers[msg_type])
    except WIRE_ERRORS:
        pass


@pytest.mark.parametrize("name, dims", [
    ("bias", (1,)), ("quad", (1, 2, 3)), ("lin", (2,)), ("reg", (1,)),
], ids=["unknown-family", "quad-not-square", "lin-not-a-matrix", "reg-not-a-scalar"])
def test_component_batch_rejects_misfit_sections(wire_samples, name, dims):
    payloads, readers = wire_samples
    source = readers[MsgType.COMPONENTS_B]
    batch = _components(payloads[MsgType.COMPONENTS_B], source)
    payload = pack_sections([_ct_section(name, dims, [batch.reg] * math.prod(dims))])
    with pytest.raises(ProtocolError, match="expected sections"):
        _components(payload, source)


def _party_with_peer(split, loopback):
    """A source party on loopback's source end that knows the 512-bit peer
    key it returns."""
    party = _source_party(split, loopback[0])
    peer = keygen(512, random.Random(9))
    party.peer_key = peer.public
    return party, peer


def test_unmask_rejects_blob_without_every_layer(small_split, loopback):
    party, peer = _party_with_peer(small_split, loopback)
    _unit_gradient_blob(party, peer, 1, 4 * F)
    before = party.net.layers[0].weights.copy()
    with pytest.raises(ProtocolError,
                       match=re.escape("expected sections [('layer0.weights', (2, 3))")):
        party._unmask_and_apply(1, pack_sections([]))
    assert np.array_equal(party.net.layers[0].weights, before)


def _unit_gradient_blob(party, peer, iteration: int, claimed_frac: int) -> bytes:
    """The peer's DECRYPTED_BLOB answering party's masked all-ones gradient at
    4F fraction bits, written as if it were at claimed_frac bits. The ones are
    the gradient's plaintext part; no ciphertext reached any entry."""
    sections = []
    for idx, layer in enumerate(party.net.layers):
        for name, param in (("weights", layer.weights), ("bias", layer.bias)):
            ones = np.full(param.shape, 1 << (4 * F), dtype=object)
            masked = party._mask(iteration, _Tensor(f"layer{idx}.{name}",
                                                    np.zeros(param.shape, dtype=object), 4 * F,
                                                    ones))
            raws = peer.decrypt_raws(list(_section_cts(masked, party.peer_key).flat))
            sections.append(_int_section(masked.name, masked.dims, claimed_frac, raws))
    return pack_sections(sections)


def test_mask_checks_fraction_bits_before_drawing_a_mask(small_split, loopback):
    # add_raw checks nothing, so _mask checks every ciphertext of a tensor
    # against the tensor's fraction bits before it draws or logs any mask.
    party, peer = _party_with_peer(small_split, loopback)
    rng = random.Random(7)
    values = np.array([party.peer_key.encrypt_raw(1, 4 * F, rng),
                       party.peer_key.encrypt_raw(1, 3 * F, rng), 0], dtype=object)
    plain, state = np.array([5, 6, 7], dtype=object), party.rng.getstate()
    with pytest.raises(EncodingOverflowError,
                       match=f"fraction-bit mismatch in addition: {3 * F} vs {4 * F}"):
        party._mask(1, _Tensor("layer0.bias", values, 4 * F, plain))
    assert party.mask_log == {} and party.awaiting == {}
    assert party.rng.getstate() == state
    values[1] = party.peer_key.encrypt_raw(1, 4 * F, rng)
    masked = party._mask(1, _Tensor("layer0.bias", values, 4 * F, plain))
    raws = peer.decrypt_raws(list(_section_cts(masked, party.peer_key).flat))
    assert [r - m for r, m in zip(raws, party.mask_log[1, "layer0.bias"])] == [6, 7, 7]


def test_unmask_rejects_blob_claiming_other_fraction_bits(small_split, loopback):
    party, peer = _party_with_peer(small_split, loopback)
    before = party.net.layers[0].weights.copy()
    # Read at 100 bits, the unit gradient masked at 160 would step by 0.1 * 2^60.
    with pytest.raises(ProtocolError, match="claims 100 fraction bits, masked at 160"):
        party._unmask_and_apply(1, _unit_gradient_blob(party, peer, 1, 100))
    assert np.array_equal(party.net.layers[0].weights, before)
    party._unmask_and_apply(2, _unit_gradient_blob(party, peer, 2, 4 * F))
    assert np.allclose(party.net.layers[0].weights, before - 0.1)


def test_unmask_rejects_blob_value_no_decryption_returns(small_split, loopback):
    # |raw| <= n/2 for every decryption under the peer's 512-bit key; a raw
    # of 2^70000 would overflow float64 once unmasked.
    party, peer = _party_with_peer(small_split, loopback)
    before = party.net.layers[0].weights.copy()
    blob = _resections(_unit_gradient_blob(party, peer, 1, 4 * F), lambda sections: [
        _int_section(s.name, s.dims, 4 * F, [1 << 70000, *_section_ints(s)[1][1:]])
        if s.name == "layer0.weights" else s for s in sections])
    with pytest.raises(ProtocolError, match="layer0.weights holds a value no decryption returns"):
        party._unmask_and_apply(1, blob)
    assert np.array_equal(party.net.layers[0].weights, before)
    assert party.applied_log == {}


def test_unmask_rejects_value_float64_cannot_hold(small_split, loopback):
    # The Mersenne prime 2^1279 - 1 stands in for a large peer modulus: a
    # decryption under it may return n/2, about 2^1278, which at the
    # gradient's 160 fraction bits is past float64's 2^1024.
    party = _source_party(small_split, loopback[0])
    party.peer_key = PublicKey((1 << 1279) - 1)
    half = SimpleNamespace(decrypt_raws=lambda cts: [ct.public_key.modulus // 2 for ct in cts])
    before = party.net.layers[0].weights.copy()
    with pytest.raises(ProtocolError, match="does not fit a float64"):
        party._unmask_and_apply(1, _unit_gradient_blob(party, half, 1, 4 * F))
    assert np.array_equal(party.net.layers[0].weights, before)
    assert party.applied_log == {}


def _resections(payload: bytes, edit) -> bytes:
    """payload with its section list replaced by edit(sections)."""
    return pack_sections(edit(unpack_sections(payload)))


def test_unmask_rejects_blob_section_of_other_dims(small_split, loopback):
    # layer0.weights is (2, 3); the blob sends its six values as (3, 2).
    party, peer = _party_with_peer(small_split, loopback)
    before = party.net.layers[0].weights.copy()
    blob = _resections(_unit_gradient_blob(party, peer, 1, 4 * F), lambda sections: [
        Section(s.name, s.dims[::-1], s.data) for s in sections])
    with pytest.raises(ProtocolError, match="expected sections"):
        party._unmask_and_apply(1, blob)
    assert np.array_equal(party.net.layers[0].weights, before)
    assert party.applied_log == {}


class _Watched:
    """A channel end that counts the live child processes at each recv and
    passes every frame it receives through edit, if any."""

    def __init__(self, inner, children: list, edit=None):
        self._inner, self._children, self._edit = inner, children, edit

    def send(self, frame):
        self._inner.send(frame)

    def recv(self, timeout=60.0):
        self._children.append(len(multiprocessing.active_children()))
        frame = self._inner.recv(timeout)
        return frame if self._edit is None else self._edit(frame)

    def close(self):
        self._inner.close()


def _watched_pair(children, edit_at=None, edit=None):
    """A loopback pair whose edit_at end ("source" or "target"), if any,
    passes every frame it receives through edit."""
    source_end, target_end, transcript = loopback_pair()
    return (_Watched(source_end, children, edit if edit_at == "source" else None),
            _Watched(target_end, children, edit if edit_at == "target" else None),
            transcript)


def _renumbered(msg_type):
    """A frame edit that adds one to the number of every msg_type frame."""
    return lambda frame: (Frame(frame.msg_type, frame.iteration + 1, frame.payload)
                          if frame.msg_type == msg_type else frame)


def _resectioned(msg_type, edit):
    """A frame edit that replaces the sections of every msg_type frame by
    edit(sections)."""
    return lambda frame: (Frame(frame.msg_type, frame.iteration,
                                _resections(frame.payload, edit))
                          if frame.msg_type == msg_type else frame)


def _params(*nets):
    return [p.copy() for net in nets for layer in net.layers for p in (layer.weights, layer.bias)]


def test_training_rejects_reordered_component_batch(small_split):
    nets = init_network([3, 2], seed=4), init_network([2, 2], seed=5)
    before = _params(*nets)
    channels = _watched_pair([], "target", _resectioned(
        MsgType.COMPONENTS_A, lambda sections: sections[1::-1] + sections[2:]))
    with pytest.raises(ProtocolError, match=re.escape("got [('lin', (2, 2)), ('quad'")):
        train_encrypted(small_split, *nets, _tiny_cfg(max_iterations=1), key_bits=512,
                        channels=channels)
    assert all(np.array_equal(a, b) for a, b in zip(_params(*nets), before))


def _gradient(*dims):
    return pack_sections([Section(name, d, bytes(math.prod(d))) for name, d in dims])


# A two-layer gradient from a 6-input net to d = 2, and misfits of it.
TWO_LAYERS = [("layer0.weights", (4, 6)), ("layer0.bias", (4,)),
              ("layer1.weights", (2, 4)), ("layer1.bias", (2,))]
ONE_LAYER = [("layer0.weights", (2, 5)), ("layer0.bias", (2,))]


def test_masked_gradient_reads_any_depth_and_input_width():
    for dims in (TWO_LAYERS, ONE_LAYER):
        assert [(s.name, s.dims) for s in _read_gradient(_gradient(*dims), 2)] == dims


@pytest.mark.parametrize("dims", [
    [],
    TWO_LAYERS[:3],
    TWO_LAYERS + [("lin", (2, 2))],
    TWO_LAYERS[1::-1] + TWO_LAYERS[2:],
    [("layer0.weights", (4,))] + TWO_LAYERS[1:],
    TWO_LAYERS[:1] + [("layer0.bias", (3,))] + TWO_LAYERS[2:],
    TWO_LAYERS[:2] + [("layer1.weights", (2, 3))] + TWO_LAYERS[3:],
    TWO_LAYERS[:2] + [("layer2.weights", (2, 4)), ("layer2.bias", (2,))],
    TWO_LAYERS[:2] + [("layer1.weights", (3, 4)), ("layer1.bias", (3,))],
], ids=["empty", "no-last-bias", "extra-section", "bias-first", "1-d-weights",
        "bias-rows", "broken-chain", "misnumbered", "last-out-not-d"])
def test_masked_gradient_must_be_a_net_gradient(dims):
    with pytest.raises(ProtocolError, match="expected sections"):
        _read_gradient(_gradient(*dims), 2)


def test_masked_gradient_with_an_appended_section_is_not_decrypted(small_split):
    # A target that appends the source's own lin components to its
    # MASKED_GRAD_B would get them back decrypted in the source's blob.
    lin = []

    def steal(frame):
        if frame.msg_type == MsgType.COMPONENTS_A:
            lin.extend(s for s in unpack_sections(frame.payload) if s.name == "lin")
        return frame

    source_end, target_end, transcript = loopback_pair()
    channels = (_Watched(source_end, [], _resectioned(MsgType.MASKED_GRAD_B,
                                                      lambda sections: sections + lin)),
                _Watched(target_end, [], steal), transcript)
    nets = init_network([3, 2], seed=4), init_network([2, 2], seed=5)
    with pytest.raises(ProtocolError, match=re.escape("got [('layer0.weights', (2, 2))")):
        train_encrypted(small_split, *nets, _tiny_cfg(max_iterations=1), key_bits=512,
                        channels=channels)
    assert [s.name for s in lin] == ["lin"]
    assert transcript.frames(DIR_SOURCE_TO_TARGET, MsgType.DECRYPTED_BLOB) == []


def test_server_rejects_blob_claiming_other_fraction_bits(small_split):
    nets = init_network([3, 2], seed=4), init_network([2, 2], seed=5)
    before = _params(*nets)
    channels = _watched_pair([], "source", _resectioned(MsgType.DECRYPTED_BLOB, lambda sections: [
        Section(s.name, s.dims, bytes([F]) + s.data[1:]) for s in sections]))
    with pytest.raises(ProtocolError, match="claims 40 fraction bits, masked at 80"):
        predict_encrypted(small_split, *nets, small_split.eval_ids, key_bits=512,
                          channels=channels)
    assert channels[2].frames(msg_type=MsgType.PREDICT_LABELS) == []
    assert all(np.array_equal(a, b) for a, b in zip(_params(*nets), before))


def _at_frac_bits(frac_bits: int, name: str):
    """A section edit that rewrites the fraction byte of every ciphertext in
    the section called name."""
    def edit(sections):
        out = []
        for section in sections:
            data, pos = bytearray(section.data), 0
            while section.name == name and pos < len(data):
                data[pos + 8] = frac_bits  # after the 8-byte key fingerprint
                pos += 13 + int.from_bytes(data[pos + 9:pos + 13], "big")
            out.append(Section(section.name, section.dims, bytes(data)))
        return out
    return edit


@pytest.mark.parametrize("msg_type, name, frac_bits, reader, want", [
    (MsgType.COMPONENTS_A, "quad", 200, "target", F),
    (MsgType.COMPONENTS_A, "lin", 7, "target", 2 * F),
    (MsgType.COMPONENTS_B, "reg", 3, "source", 3 * F),
    (MsgType.COMPONENTS_B, "align", 250, "source", 2 * F),
    (MsgType.PREDICT_REQUEST, "u", 3, "source", F),
], ids=["quad", "lin", "reg", "align", "u"])
def test_section_at_other_fraction_bits_is_rejected_where_read(small_split, msg_type, name,
                                                              frac_bits, reader, want):
    # Each ciphertext section has the fraction bits its reader uses it at;
    # any other count is a ProtocolError at the read, before the reader
    # contracts anything or sends another frame.
    nets = init_network([3, 2], seed=4), init_network([2, 2], seed=5)
    channels = _watched_pair([], reader, _resectioned(msg_type, _at_frac_bits(frac_bits, name)))
    with pytest.raises(ProtocolError, match=f"section {name} holds ciphertexts at other than "
                                            f"{want} fraction bits"):
        if msg_type == MsgType.PREDICT_REQUEST:
            predict_encrypted(small_split, *nets, small_split.eval_ids, key_bits=512,
                              channels=channels)
        else:
            train_encrypted(small_split, *nets, _tiny_cfg(max_iterations=1), key_bits=512,
                            channels=channels)
    sent = channels[2].frames(direction=DIR_SOURCE_TO_TARGET if reader == "source"
                              else DIR_TARGET_TO_SOURCE)
    assert not {MsgType.MASKED_GRAD_A, MsgType.MASKED_GRAD_B,
                MsgType.PREDICT_MASKED} & {r.msg_type for r in sent}


def _reencrypted(old: PrivateKey, new: PublicKey):
    """A section edit that re-encrypts every ciphertext, each under old, under
    new at the same fraction bits."""
    rng = random.Random(5)

    def edit(sections):
        out = []
        for section in sections:
            cts, pos = [], 0
            while pos < len(section.data):
                ct, pos = paillier.deserialize_ciphertext(section.data, old.public, pos)
                cts.append(ct)
            out.append(_ct_section(section.name, section.dims, [
                new.encrypt_raw(raw, ct.frac_bits, rng)
                for raw, ct in zip(old.decrypt_raws(cts), cts)]))
        return out
    return edit


@pytest.mark.parametrize("msg_type, reader, sent, section", [
    (MsgType.COMPONENTS_B, "source", [MsgType.PUBKEY, MsgType.COMPONENTS_A], "quad"),
    (MsgType.COMPONENTS_A, "target", [MsgType.PUBKEY], "quad"),
    (MsgType.PREDICT_REQUEST, "source", [MsgType.PUBKEY], "u"),
], ids=["source-reads-components", "target-reads-components", "server-reads-request"])
def test_frame_under_the_readers_own_key_is_refused_where_read(small_split, msg_type, reader,
                                                              sent, section):
    # A party computes only on its peer's ciphertexts. The peer's frame
    # re-encrypted under the reader's own key raises KeyMismatchError where
    # it is read, before the reader sends another frame: the target does
    # not send even its COMPONENTS_B. The error names the first section read,
    # the reader's own key as the one found, and the writer's as expected.
    keys = {role: _party_keys((512, role, 0))[0] for role in ("source", "target")}
    writer = "target" if reader == "source" else "source"
    nets = init_network([3, 2], seed=4), init_network([2, 2], seed=5)
    channels = _watched_pair([], reader, _resectioned(
        msg_type, _reencrypted(keys[writer], keys[reader].public)))
    found, expected = (keys[role].public.fingerprint.hex() for role in (reader, writer))
    with pytest.raises(KeyMismatchError,
                       match=f"^section {section}: ciphertext under key {found}, expected {expected}$"):
        if msg_type == MsgType.PREDICT_REQUEST:
            predict_encrypted(small_split, *nets, small_split.eval_ids, key_bits=512,
                              channels=channels)
        else:
            train_encrypted(small_split, *nets, _tiny_cfg(max_iterations=1), key_bits=512,
                            channels=channels)
    out = DIR_SOURCE_TO_TARGET if reader == "source" else DIR_TARGET_TO_SOURCE
    assert [r.msg_type for r in channels[2].frames(direction=out)] == sent


def test_audit_reports_a_frame_under_the_wrong_partys_key(small_split):
    # COMPONENTS_A must be under the source's key. The same batch
    # re-encrypted under the target's key, in the same layout, parses under
    # either key, and the audit reports it.
    run = train_encrypted(small_split, init_network([3, 2], seed=4), init_network([2, 2], seed=5),
                          _tiny_cfg(max_iterations=1), key_bits=512, frac_bits=F, seed=0)
    edit = _reencrypted(run.source.own_key, run.target.own_key.public)
    transcript = Transcript()
    for record in run.transcript.frames():
        payload = (_resections(record.payload, edit) if record.msg_type == MsgType.COMPONENTS_A
                   else record.payload)
        transcript.record(record.direction, Frame(record.msg_type, record.iteration, payload))
    assert audit_training(run.transcript, run.source, run.target).ok
    report = audit_training(transcript, run.source, run.target)
    assert [issue.split(":")[0] for issue in report.issues] == [
        "COMPONENTS_A frame does not parse as ciphertexts under the source's key"]


def test_requester_rejects_extra_scores_before_decrypting(small_split, monkeypatch):
    # small_split asks about one eval row; the server sends two scores.
    decrypt_raws, calls = PrivateKey.decrypt_raws, []

    def watched(self, cts, mapper=map):
        calls.append(len(cts))
        return decrypt_raws(self, cts, mapper)

    monkeypatch.setattr(PrivateKey, "decrypt_raws", watched)
    nets = init_network([3, 2], seed=4), init_network([2, 2], seed=5)
    before = _params(*nets)
    channels = _watched_pair([], "target", _resectioned(MsgType.PREDICT_MASKED, lambda sections: [
        Section(s.name, (s.dims[0] + 1,), s.data + s.data) for s in sections]))
    with pytest.raises(ProtocolError,
                       match=re.escape("expected sections [('predict.scores', (1,))]")):
        predict_encrypted(small_split, *nets, small_split.eval_ids, key_bits=512,
                          channels=channels)
    assert calls == []
    assert all(np.array_equal(a, b) for a, b in zip(_params(*nets), before))


def _ints(name, dims, values):
    return pack_sections([_int_section(name, dims, 0, values)])


def _read_two_labels(payload):
    return _read_labels(payload, 2)


def _read_512_bit_pubkey(payload):
    return _read_pubkey(payload, 512)


@pytest.mark.parametrize("decode, payload, message", [
    (_read_512_bit_pubkey, _ints("n", (), [0]), "no Paillier modulus"),
    (_read_512_bit_pubkey, _ints("n", (), [1 << 511]), "no Paillier modulus"),
    (_read_512_bit_pubkey, _ints("n", (), [(1 << 255) + 1]), "no Paillier modulus"),
    (_read_512_bit_pubkey, _ints("g", (), [3]), re.escape("expected sections [('n', ())]")),
    (_read_two_labels, _ints("labels", (2,), [1, 2]), "outside"),
    (_read_two_labels, _ints("labels", (), [1]), re.escape("expected sections [('labels', (2,))]")),
], ids=["zero-modulus", "even-modulus", "short-modulus", "wrong-name", "label-2", "scalar-labels"])
def test_single_section_decoders_reject_misfits(decode, payload, message):
    with pytest.raises(ProtocolError, match=message):
        decode(payload)


# ---------------------------------------------------------------------------
# the worker pool behind own-key encryption and decryption

def _pool_size() -> int:
    """Workers an encrypted run opens: one per usable CPU, none on a single CPU."""
    cpus = len(os.sched_getaffinity(0))
    return cpus if cpus > 1 else 0


@pytest.mark.parametrize("call, renumber_at, msg_type", [
    ("train", None, None),
    ("train", "target", MsgType.COMPONENTS_A),
    ("train", "source", MsgType.COMPONENTS_B),
    ("predict", None, None),
    ("predict", "target", MsgType.PREDICT_MASKED),
], ids=["train", "train-aborted", "train-aborted-at-source", "predict", "predict-aborted"])
def test_no_worker_outlives_the_call(small_split, call, renumber_at, msg_type):
    # The party that reads the renumbered frame fails first; its
    # ProtocolError, not the peer's ChannelClosed, is what the call raises.
    children = []
    nets = init_network([3, 2], seed=4), init_network([2, 2], seed=5)
    channels = _watched_pair(children, renumber_at, _renumbered(msg_type))

    def run():
        if call == "predict":
            return predict_encrypted(small_split, *nets, small_split.eval_ids, key_bits=512,
                                     seed=3, channels=channels)
        return train_encrypted(small_split, *nets, _tiny_cfg(max_iterations=2), key_bits=512,
                               channels=channels)

    if msg_type is None:
        run()
    else:
        with pytest.raises(ProtocolError, match=f"{msg_type.name} numbered 2, expected 1"):
            run()
    assert set(children) == {_pool_size()}
    assert multiprocessing.active_children() == []


_TEST_PROCESS = os.getpid()


def _multiexp_job_dying_in_worker(job):
    """paillier._multiexp_job, except that a worker process running it exits."""
    if os.getpid() != _TEST_PROCESS:
        os._exit(1)
    return _multiexp_job(job)


@pytest.mark.skipif(_pool_size() == 0, reason="no worker processes on a single CPU")
@pytest.mark.parametrize("kernel", ["decrypt", "power"])
def test_dead_worker_fails_the_run(small_split, monkeypatch, kernel):
    # A worker running the power kernel dies in the run's first product
    # batch, before any decryption.
    decrypt_residue = PrivateKey.decrypt_residue

    def die_in_worker(self, value):
        if os.getpid() != _TEST_PROCESS:
            os._exit(1)
        return decrypt_residue(self, value)

    if kernel == "decrypt":
        monkeypatch.setattr(PrivateKey, "decrypt_residue", die_in_worker)
    else:
        monkeypatch.setattr(paillier, "_multiexp_job", _multiexp_job_dying_in_worker)
    errors = []

    def call():
        try:
            train_encrypted(small_split, init_network([3, 2], seed=4),
                            init_network([2, 2], seed=5), _tiny_cfg(max_iterations=1),
                            key_bits=512)
        except BaseException as exc:  # noqa: BLE001 - checked below
            errors.append(exc)

    thread = threading.Thread(target=call, daemon=True)
    thread.start()
    thread.join(60)
    assert not thread.is_alive(), "the run still waits for the lost job"
    assert [type(exc) for exc in errors] == [BrokenProcessPool]
    assert multiprocessing.active_children() == []


@pytest.mark.skipif(_pool_size() == 0, reason="no worker processes on a single CPU")
def test_no_exponentiation_in_the_party_threads(small_split, monkeypatch):
    watch = _PartyWatch(monkeypatch)
    nets = init_network([3, 4, 2], seed=4), init_network([2, 4, 2], seed=5)
    train_encrypted(small_split, *nets, _tiny_cfg(max_iterations=2), key_bits=512)
    trained = dict(watch.terms)
    predict_encrypted(small_split, *nets, small_split.eval_ids, key_bits=512)
    assert watch.kernel_threads == []
    assert trained["source"] > 0 and trained["target"] > 0
    assert watch.terms["source"] > trained["source"]


def test_parties_keep_no_closed_pool(small_split):
    train = train_encrypted(small_split, init_network([3, 2], seed=4),
                            init_network([2, 2], seed=5), _tiny_cfg(max_iterations=1),
                            key_bits=512)
    predict = predict_encrypted(small_split, init_network([3, 2], seed=4),
                                init_network([2, 2], seed=5), small_split.eval_ids,
                                key_bits=512)
    for party in (train.source, train.target, predict.server, predict.requester):
        assert party.mapper is map
    (cts,) = train.target._encrypt((np.ones(2), F))
    assert [decrypt(train.target.own_key, ct) for ct in cts] == [1.0, 1.0]


def test_empty_component_batch_dispatches_nothing(small_split, loopback):
    _, target_end, _ = loopback
    party = _target_party(small_split, target_end)
    calls = []
    party.mapper = lambda fn, jobs: calls.append(jobs) or map(fn, jobs)
    state = party.rng.getstate()
    assert [a.shape for a in party._encrypt((np.zeros((0, 2, 2)), F))] == [(0, 2, 2)]
    assert party._decrypt_to_blob([_ct_section("quad", (0, 2, 2), [])]) == pack_sections(
        [_int_section("quad", (0, 2, 2), 0, [])])
    assert calls == [] and party.rng.getstate() == state


def test_pooled_key_generation_matches_serial():
    jobs = [(512, "source", 7), (512, "target", 7)]
    with ProcessPoolExecutor(2, mp_context=multiprocessing.get_context("fork")) as pool:
        pooled = list(pool.map(_party_keys, jobs, chunksize=1))
    for (serial, serial_state), (keys, state) in zip(map(_party_keys, jobs), pooled):
        assert keys.public.modulus == serial.public.modulus
        assert (keys.p, keys.q) == (serial.p, serial.q)
        assert state == serial_state
