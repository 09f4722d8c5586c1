import hashlib
import math
import multiprocessing
import os
import random
import re
import threading
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from types import SimpleNamespace

import numpy as np
import pytest
from conftest import decrypt, decrypt_raw, encrypt
from hypothesis import given, settings, strategies as st

from secureftl import paillier, protocol
from secureftl.datasets import FederationSplit, synth_two_view
from secureftl.encoding import EncodingOverflowError, is_zero
from secureftl.nets import init_network
from secureftl.objective import label_prototype, predict_phi, threshold_labels
from secureftl.paillier import (
    Ciphertext,
    PrivateKey,
    PublicKey,
    _multiexp_job,
    keygen,
)
from secureftl.plain import TrainingConfig, train_plain
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


def test_encrypted_backward_scales_an_upstream_at_other_fraction_bits():
    # The source's overlap rows: align ciphertexts at F, times gamma, which
    # rides in the top layer's exponents at 2F, so every tensor lands on the
    # schedule of an upstream at 2F.
    rng = np.random.default_rng(3)
    net = init_network([4, 3, 2], seed=9)
    upstream_plain = rng.normal(size=(5, 2))
    key = keygen(512, random.Random(11))
    trace = net.forward_trace(rng.normal(size=(5, 4)))
    tensors = encrypted_backward(net, trace, _enc_array(key.public, upstream_plain, F), F,
                                 upstream_frac=F, factor=0.3)
    expected = net.backward(trace, 0.3 * upstream_plain)
    assert [t.frac_bits for t in tensors] == [4 * F, 4 * F, 3 * F, 3 * F]
    for tensor, layer_idx in zip(tensors, (0, 0, 1, 1)):
        want = getattr(expected[layer_idx], tensor.name.split(".")[1])
        assert np.allclose(_decrypt_tensor(tensor, key), want, atol=1e-9)


def test_contraction_batches_bound_the_products(monkeypatch):
    # With one worker and a batch of 15 exponent terms, each contraction
    # goes in blocks of whole output rows, and a row of more terms in blocks
    # of its columns: a gradient row is 5 bases x 4 or 5 columns (inputs and
    # bias), so three columns a block; a delta row is 2 bases x 3 columns,
    # so two rows a block. The ciphertexts are those of one batch per
    # contraction.
    monkeypatch.setattr(protocol, "_workers", lambda: 1)
    rng = np.random.default_rng(4)
    net = init_network([4, 3, 2], seed=9)
    key = keygen(512, random.Random(11))
    upstream = _enc_array(key.public, rng.normal(size=(5, 2)), 2 * F)
    trace = net.forward_trace(rng.normal(size=(5, 4)))
    batches = []

    def record(fn, jobs):
        batches.append(_terms(jobs))
        return map(fn, jobs)

    whole = encrypted_backward(net, trace, upstream, F, mapper=record)
    whole_batches, batches[:] = list(batches), []
    monkeypatch.setattr(protocol, "CONTRACTION_BATCH", 15)
    blocked = encrypted_backward(net, trace, upstream, F, mapper=record)
    assert _ct_fields(blocked) == _ct_fields(whole)
    # grad, delta, grad: one batch each, then per block.
    assert whole_batches == [40, 30, 75]
    assert batches == [15, 5, 15, 5, 12, 12, 6, 15, 10, 15, 10, 15, 10]
    assert max(batches) <= 15 and sum(batches) == sum(whole_batches)


def test_blocked_contractions_give_every_worker_a_job(monkeypatch):
    # With a batch of 12 exponent terms, a gradient row of 4 bases x 4 or 5
    # columns is cut into column blocks. One worker's blocks are 3 columns
    # wide, so a map call holds a single row's job and the other worker
    # idles: [(1, 12), (1, 4), (1, 12), (1, 4), (2, 12), ...] as (jobs,
    # terms). Two workers' blocks are narrow enough that every call holds a
    # job for each.
    rng = np.random.default_rng(4)
    net = init_network([4, 3, 2], seed=9)
    key = keygen(512, random.Random(11))
    upstream = _enc_array(key.public, rng.normal(size=(4, 2)), 2 * F)
    trace = net.forward_trace(rng.normal(size=(4, 4)))
    calls = []

    def record(fn, jobs):
        calls.append((len(jobs), _terms(jobs)))
        return map(fn, jobs)

    whole = encrypted_backward(net, trace, upstream, F)
    monkeypatch.setattr(protocol, "CONTRACTION_BATCH", 12)
    monkeypatch.setattr(protocol, "_workers", lambda: 2)
    blocked = encrypted_backward(net, trace, upstream, F, mapper=record)
    assert _ct_fields(blocked) == _ct_fields(whole)
    # grad in 4 calls, delta in 2, grad in 5.
    assert calls == [(2, 8)] * 4 + [(2, 12)] * 2 + [(3, 12)] * 5
    assert all(jobs >= 2 and terms <= 12 for jobs, terms in calls)


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
    keys = {key.public.fingerprint: key.public}
    batch = ComponentBatch(
        quad=_enc_array(key.public, [[[1.0, 2.0], [3.0, 4.0]]]),
        lin=_enc_array(key.public, [[5.0, 6.0], [7.0, 8.0]]),
        align=_enc_array(key.public, [[0.5, -0.5]]),
        reg=encrypt(key.public, 9.0, F))
    layout = [("quad", (1, 2, 2), F), ("lin", (2, 2), F), ("align", (1, 2), F), ("reg", (), F)]
    back = ComponentBatch.from_payload(batch.to_payload(), keys, layout)
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
    return SourceParty(split, init_network([3, 2], seed=4), _tiny_cfg(), channel,
                       _party_keys((512, "source", 0)), F)


def _target_party(split, channel):
    """A target party with a [2, 2] net and its 512-bit keys at seed 0."""
    return TargetParty(split, init_network([2, 2], seed=5), _tiny_cfg(), channel,
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
    its mapper, and the kernel runs on its thread outside any mapper (a
    contraction on the builtin map instead of the party's mapper), in the
    runs started while monkeypatch holds.
    exchange_keys, the first step of every training and prediction routine,
    records the party's thread and wraps its mapper."""

    def __init__(self, monkeypatch):
        self.threads = {"source": set(), "target": set()}
        self.terms = {"source": 0, "target": 0}
        self.mapped_jobs = {"source": 0, "target": 0}
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
    # gamma joins the overlap rows' top-layer exponents, so with single-layer
    # nets an overlap pair adds terms to the d gradient jobs but no job of
    # its own: no one-term job scales the target's align by gamma.
    def jobs(n_overlap):
        split = synth_two_view(n=12, d_source=3, d_target=2, noise=0.1, seed=1, latent_dim=2,
                               n_overlap=n_overlap, n_labeled=2, n_eval=2)
        return _source_watch(split, monkeypatch, [3, 3], [2, 3]).jobs("source")

    assert jobs(2) == jobs(6) > 0


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


def _frame_values(record, keys) -> list[tuple]:
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
            for ct in _section_cts(section, keys)]


def _content_digests(transcript, keys) -> dict[str, str]:
    """Per direction: each frame's type and iteration, then its values."""
    out = {}
    for direction in (DIR_SOURCE_TO_TARGET, DIR_TARGET_TO_SOURCE):
        digest = hashlib.sha256()
        for record in transcript.frames(direction=direction):
            digest.update(f"{int(record.msg_type)} {record.iteration}\n".encode())
            for value in _frame_values(record, keys):
                digest.update(f"{value}\n".encode())
        out[direction] = digest.hexdigest()
    return out


# Per-direction sha256 over every value a frame carries, whatever its byte
# layout. The training digests were pinned when the source came to fold
# gamma into its overlap rows' top-layer exponents instead of scaling the
# target's align ciphertexts, and each party to add its own alignment terms
# and weight decay as one plaintext part per gradient tensor: the source's
# gradient values changed, and so did the target's under the distance
# alignment. The prediction digests predate that change, which leaves
# prediction untouched.
CONTENT_TRAIN = {
    DIR_SOURCE_TO_TARGET: "da2f279ad5cd55b54dd6da057819040494e58bd4f229b461fefb1a09c745c5c6",
    DIR_TARGET_TO_SOURCE: "1a47fc5b644370fab1c8eeb0a6d9e529ffd361128677599878cf0ef26686e7e5",
}
CONTENT_PREDICT = {
    DIR_SOURCE_TO_TARGET: "31ede96207589279146689a828950cb255d664cb1f800eda78218ccba0d1488e",
    DIR_TARGET_TO_SOURCE: "df3f49a1dd53e03e789d84308c6b8ab34c335a532d1a867d022a1aff1e4327ab",
}

# Per-direction sha256 over (type, iteration, payload) of every frame: the
# exact bytes on the wire under the section codec.
GOLDEN_TRAIN = {
    DIR_SOURCE_TO_TARGET: "7737fc2f3312dd5cb788ad52ffdc550b69ef654c703dfd2e8102cce9926e9eb3",
    DIR_TARGET_TO_SOURCE: "7e5a280513812193df2a48f6d95447ff10a19d98ac26788995ebd9ab126cfcf9",
}
# Two iterations with two-layer nets ([3, 4, 2] source, [2, 4, 2] target).
CONTENT_TRAIN_2LAYER = {
    DIR_SOURCE_TO_TARGET: "760bde3eb6642823e7ab5cc649f4240668dcd6d78fd705d8baaaee6d6defb333",
    DIR_TARGET_TO_SOURCE: "f7b32725810f9bf237f513bee33a424e1208ad8052d14f39cd69744a28a05ccb",
}
GOLDEN_TRAIN_2LAYER = {
    DIR_SOURCE_TO_TARGET: "e8c40c33057001fcd7475ee156596877fc17803e035d60a9e12968ff0aa051b5",
    DIR_TARGET_TO_SOURCE: "fc13c86b3351dc691a9ecde5680fb71962b38f102585e0201e8479d7d212ba43",
}
GOLDEN_PREDICT = {
    DIR_SOURCE_TO_TARGET: "b43a813fbbef343fa1a5dcf254f48e6a07418f142bca545abb2efe1a4cca699c",
    DIR_TARGET_TO_SOURCE: "a205d857cc0460342d89b78f646300f481bd2f62e458f50e8a194a7fbb3a9391",
}


def _golden_train(small_split, dims_source, dims_target):
    train = train_encrypted(small_split, init_network(dims_source, seed=4),
                            init_network(dims_target, seed=5), _tiny_cfg(max_iterations=2),
                            key_bits=512, frac_bits=F, seed=0)
    return train.transcript, {**train.source.keys, **train.target.keys}


def _golden_runs(small_split):
    predict = predict_encrypted(small_split, init_network([3, 2], seed=4),
                                init_network([2, 2], seed=5), small_split.eval_ids,
                                key_bits=512, frac_bits=F, seed=3)
    return (_golden_train(small_split, [3, 2], [2, 2]),
            _golden_train(small_split, [3, 4, 2], [2, 4, 2]),
            (predict.transcript, {**predict.server.keys, **predict.requester.keys}))


@pytest.mark.parametrize("builtin_pow", [False, True], ids=["libgmp", "builtin-pow"])
def test_golden_transcripts(small_split, monkeypatch, builtin_pow):
    # libgmp (when it loads) and builtin pow give the same bytes. The pool's
    # workers fork after the patch, so they run builtin pow too.
    if builtin_pow:
        monkeypatch.setattr(paillier, "_powmod", pow)
    ((train, train_keys), (train_2layer, train_2layer_keys),
     (predict, predict_keys)) = _golden_runs(small_split)
    assert _content_digests(train, train_keys) == CONTENT_TRAIN
    assert _content_digests(train_2layer, train_2layer_keys) == CONTENT_TRAIN_2LAYER
    assert _content_digests(predict, predict_keys) == CONTENT_PREDICT
    assert _digests(train) == GOLDEN_TRAIN
    assert _digests(train_2layer) == GOLDEN_TRAIN_2LAYER
    assert _digests(predict) == GOLDEN_PREDICT


# Two iterations with two-layer nets and alignment = distance on splits with
# no labeled pairs, no overlap pairs, or neither. The first was pinned with
# the training digests above; without overlap pairs there are no alignment
# terms, and the other two are unchanged since the change before it.
CONTENT_DEGENERATE = {
    (0, 3): {
        DIR_SOURCE_TO_TARGET: "36e8335fa59fe859040dabae2999a9557eac16b840b104312c1df5a231fd557c",
        DIR_TARGET_TO_SOURCE: "6eac161f6e79da61d0f14d8a8e9dec2917e4a49876c59f09526476275cb30e82",
    },
    (2, 0): {
        DIR_SOURCE_TO_TARGET: "b87b738cefa1f294aace0785e3bab612495e6442c60b8747331032b431a76faa",
        DIR_TARGET_TO_SOURCE: "09a784eb6cc29a39fb3032f0f2c4c79fda4cc2766acc13e3715ddc2c01e2aae0",
    },
    (0, 0): {
        DIR_SOURCE_TO_TARGET: "1b9eba6e48c7c4086046d9414174a8bcb1d43252eae7e2c49e1fe8faa164f032",
        DIR_TARGET_TO_SOURCE: "7e89920cfa4af0bcff89b34f6be668182ba8ce97b0b96d7fe4a8cb66ea2bacd5",
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
    keys = {**run.source.keys, **run.target.keys}
    assert _content_digests(run.transcript, keys) == CONTENT_DEGENERATE[(n_labeled, n_overlap)]


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
    and a prediction, with every key needed to read them."""
    split = synth_two_view(n=12, d_source=3, d_target=2, noise=0.1, seed=1, latent_dim=2,
                           n_overlap=3, n_labeled=2, n_eval=2)
    train = train_encrypted(split, init_network([3, 2], seed=4), init_network([2, 2], seed=5),
                            _tiny_cfg(max_iterations=1), key_bits=512, frac_bits=F, seed=0)
    predict = predict_encrypted(split, init_network([3, 2], seed=4),
                                init_network([2, 2], seed=5), split.eval_ids,
                                key_bits=512, frac_bits=F, seed=0)
    payloads = {}
    for run in (train, predict):
        for record in run.transcript.frames():
            payloads.setdefault(MsgType(record.msg_type), record.payload)
    keys = {**train.source.keys, **train.target.keys,
            **predict.server.keys, **predict.requester.keys}
    return payloads, keys


# The wire samples' shapes: the source reads a target batch of n_c = 2
# labeled and n_ab = 3 overlap items of d = 2 with a reg scalar, and a
# prediction asks about n = 2 rows of d = 2.
SAMPLE_COMPONENTS = ComponentBatch.layout(2, 3, 2, F, True)

# decoder name -> (message type whose payloads it reads, decoder)
DECODERS = {
    "sections": (MsgType.COMPONENTS_A, lambda p, keys: unpack_sections(p)),
    "components": (MsgType.COMPONENTS_B,
                   lambda p, keys: ComponentBatch.from_payload(p, keys, SAMPLE_COMPONENTS)),
    "masked_grad": (MsgType.MASKED_GRAD_A,
                    lambda p, keys: [_section_cts(s, keys) for s in _read_gradient(p, 2)]),
    "loss": (MsgType.ENC_LOSS, lambda p, keys: _section_cts(*_read(p, [("loss", ())]), keys)),
    "blob": (MsgType.DECRYPTED_BLOB,
             lambda p, keys: [_section_ints(s) for s in unpack_sections(p)]),
    "pubkey": (MsgType.PUBKEY, lambda p, keys: _read_pubkey(p, 512)),
    "labels": (MsgType.PREDICT_LABELS, lambda p, keys: _read_labels(p, 2)),
    "request": (MsgType.PREDICT_REQUEST,
                lambda p, keys: _section_cts(*_read(p, [("u", (None, 2))]), keys)),
    "scores": (MsgType.PREDICT_MASKED,
               lambda p, keys: _section_cts(*_read(p, [("predict.scores", (2,))]), keys)),
}


def test_decoders_read_real_payloads(wire_samples):
    payloads, keys = wire_samples
    for msg_type, decode in DECODERS.values():
        decode(payloads[msg_type], keys)


@settings(max_examples=600, derandomize=True, deadline=None)
@given(st.sampled_from(sorted(DECODERS)), st.sampled_from(["random", "truncate", "flip"]),
       st.data())
def test_decoders_raise_only_wire_errors(wire_samples, decoder, mutation, data):
    payloads, keys = wire_samples
    msg_type, decode = DECODERS[decoder]
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
        decode(payload, keys)
    except WIRE_ERRORS:
        pass


@pytest.mark.parametrize("name, dims", [
    ("bias", (1,)), ("quad", (1, 2, 3)), ("lin", (2,)), ("reg", (1,)),
], ids=["unknown-family", "quad-not-square", "lin-not-a-matrix", "reg-not-a-scalar"])
def test_component_batch_rejects_misfit_sections(wire_samples, name, dims):
    payloads, keys = wire_samples
    batch = ComponentBatch.from_payload(payloads[MsgType.COMPONENTS_B], keys, SAMPLE_COMPONENTS)
    payload = pack_sections([_ct_section(name, dims, [batch.reg] * math.prod(dims))])
    with pytest.raises(ProtocolError, match="expected sections"):
        ComponentBatch.from_payload(payload, keys, SAMPLE_COMPONENTS)


def _party_with_peer(split, loopback):
    """A source party on loopback's source end that knows the 512-bit peer
    key it returns."""
    party = _source_party(split, loopback[0])
    peer = keygen(512, random.Random(9))
    party.peer_key = peer.public
    party.keys[peer.public.fingerprint] = peer.public
    return party, peer


def test_unmask_rejects_blob_without_every_layer(small_split, loopback):
    party, peer = _party_with_peer(small_split, loopback)
    _unit_gradient_blob(party, peer, 1, 4 * F)
    before = party.net.layers[0].weights.copy()
    with pytest.raises(ProtocolError,
                       match=re.escape("expected sections [('layer0.weights', (2, 3))")):
        party._unmask_and_apply(party.net, 1, pack_sections([]), 0.1)
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
            raws = peer.decrypt_raws(_section_cts(masked, party.keys))
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
    raws = peer.decrypt_raws(_section_cts(masked, party.keys))
    assert [r - m for r, m in zip(raws, party.mask_log[1, "layer0.bias"])] == [6, 7, 7]


def test_unmask_rejects_blob_claiming_other_fraction_bits(small_split, loopback):
    party, peer = _party_with_peer(small_split, loopback)
    before = party.net.layers[0].weights.copy()
    # Read at 100 bits, the unit gradient masked at 160 would step by 0.1 * 2^60.
    with pytest.raises(ProtocolError, match="claims 100 fraction bits, masked at 160"):
        party._unmask_and_apply(party.net, 1, _unit_gradient_blob(party, peer, 1, 100), 0.1)
    assert np.array_equal(party.net.layers[0].weights, before)
    party._unmask_and_apply(party.net, 2, _unit_gradient_blob(party, peer, 2, 4 * F), 0.1)
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
        party._unmask_and_apply(party.net, 1, blob, 0.1)
    assert np.array_equal(party.net.layers[0].weights, before)
    assert party.applied_log == {}


def test_unmask_rejects_value_float64_cannot_hold(small_split, loopback):
    # The Mersenne prime 2^1279 - 1 stands in for a large peer modulus: a
    # decryption under it may return n/2, about 2^1278, which at the
    # gradient's 160 fraction bits is past float64's 2^1024.
    party = _source_party(small_split, loopback[0])
    party.peer_key = PublicKey((1 << 1279) - 1)
    party.keys[party.peer_key.fingerprint] = party.peer_key
    half = SimpleNamespace(decrypt_raws=lambda cts: [ct.public_key.modulus // 2 for ct in cts])
    before = party.net.layers[0].weights.copy()
    with pytest.raises(ProtocolError, match="does not fit a float64"):
        party._unmask_and_apply(party.net, 1, _unit_gradient_blob(party, half, 1, 4 * F), 0.1)
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
        party._unmask_and_apply(party.net, 1, blob, 0.1)
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
    (MsgType.COMPONENTS_B, "reg", 3, "source", 2 * F),
    (MsgType.COMPONENTS_B, "align", 250, "source", F),
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
