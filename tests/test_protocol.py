import hashlib
import random

import numpy as np
import pytest

from secureftl.nets import init_network
from secureftl.objective import label_prototype, predict_phi, threshold_labels
from secureftl.paillier import keygen
from secureftl.plain import TrainingConfig, train_plain
from secureftl.protocol import (
    ENGINE_KINDS,
    ComponentBatch,
    Engine,
    ProtocolError,
    SourceParty,
    _pack_pubkey,
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
    loopback_pair,
)

F = 40


def _decrypt_tensor(tensor, keypair):
    flat = [0.0 if ct is None else keypair.private.decrypt_raw(ct) / 2.0 ** tensor.frac_bits
            for ct in tensor.cts]
    return np.array(flat).reshape(tensor.dims)


def test_encrypted_backward_matches_plaintext():
    rng = np.random.default_rng(3)
    net = init_network([4, 3, 2], seed=9)
    x = rng.normal(size=(5, 4))
    upstream_plain = np.zeros((5, 2))
    upstream_plain[[0, 2, 4]] = rng.normal(size=(3, 2))

    keypair = keygen(512, random.Random(11))
    upstream = [None if not np.any(row) else
                [keypair.public.encrypt(float(v), F) for v in row]
                for row in upstream_plain]
    trace = net.forward_trace(x)
    tensors = encrypted_backward(net, trace, upstream, F)
    expected = net.backward_u(x, upstream_plain)
    assert [t.name for t in tensors] == [
        "layer0.weights", "layer0.bias", "layer1.weights", "layer1.bias"]
    for tensor, layer_idx in zip(tensors, (0, 0, 1, 1)):
        want = expected[layer_idx].weights if tensor.name.endswith("weights") \
            else expected[layer_idx].bias
        got = _decrypt_tensor(tensor, keypair)
        assert np.allclose(got, want, atol=1e-9)


def test_component_batch_roundtrip():
    keypair = keygen(512, random.Random(1))
    keys = {keypair.public.fingerprint: keypair.public}

    def enc(v):
        return keypair.public.encrypt(v, F)

    batch = ComponentBatch(
        quad=[[[enc(1.0), enc(2.0)], [enc(3.0), enc(4.0)]]],
        lin=[[enc(5.0), enc(6.0)], [enc(7.0), enc(8.0)]],
        align=[[enc(0.5), enc(-0.5)]],
        reg=enc(9.0))
    back = ComponentBatch.from_payload(batch.to_payload(), keys)
    private = keypair.private
    assert private.decrypt_raw(back.quad[0][1][0]) == private.decrypt_raw(batch.quad[0][1][0])
    assert len(back.lin) == 2 and len(back.align) == 1
    assert private.decrypt_raw(back.reg) == private.decrypt_raw(batch.reg)


def _tiny_cfg(**kw):
    base = dict(learning_rate=0.1, max_iterations=3, tolerance=0.0,
                gamma=0.1, weight_decay=0.01, loss_mode="taylor")
    base.update(kw)
    return TrainingConfig(**base)


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


def test_recv_rejects_unexpected_message(small_split):
    source_end, target_end, _ = loopback_pair()
    target_end.send(Frame(MsgType.STOP, 0))
    party = SourceParty(small_split, init_network([3, 2], seed=4), _tiny_cfg(),
                        source_end, key_bits=512, frac_bits=F, seed=0)
    with pytest.raises(ProtocolError):
        party._recv((MsgType.PUBKEY,))


def _digests(transcript) -> dict[str, str]:
    out = {}
    for direction in (DIR_SOURCE_TO_TARGET, DIR_TARGET_TO_SOURCE):
        digest = hashlib.sha256()
        for record in transcript.frames(direction=direction):
            digest.update(bytes([record.msg_type]) + record.iteration.to_bytes(4, "big"))
            digest.update(record.payload)
        out[direction] = digest.hexdigest()
    return out


# Per-direction sha256 over (type, iteration, payload) of every frame, pinned
# when every encryption still ran modulo n^2: the CRT arithmetic of the key
# owner must not change one byte on the wire.
GOLDEN_TRAIN = {
    DIR_SOURCE_TO_TARGET: "5653bd0bd53d61571ced162db6cdbc6c42f072100f245a9347f9d8acf37d8649",
    DIR_TARGET_TO_SOURCE: "6088e9a3ab62924254a548b3ee73bd24037da9e636816ccff61b88b8fc6a3893",
}
GOLDEN_PREDICT = {
    DIR_SOURCE_TO_TARGET: "5b92a3d772fd810a07c0ef657b0b58f4c0d63fce2d1cca9c502afa404dbf6b17",
    DIR_TARGET_TO_SOURCE: "e8c2fbd78cc390258700b47fdd9c024d099d5034d2038e24bbd360343c5a126e",
}


def test_golden_transcripts(small_split):
    run = train_encrypted(small_split, init_network([3, 2], seed=4),
                          init_network([2, 2], seed=5), _tiny_cfg(max_iterations=2),
                          key_bits=512, frac_bits=F, seed=0)
    assert _digests(run.transcript) == GOLDEN_TRAIN
    predicted = predict_encrypted(small_split, init_network([3, 2], seed=4),
                                  init_network([2, 2], seed=5), small_split.eval_ids,
                                  key_bits=512, frac_bits=F, seed=3)
    assert _digests(predicted.transcript) == GOLDEN_PREDICT


def _pubkey_frame(number: int) -> Frame:
    return Frame(MsgType.PUBKEY, number, _pack_pubkey(keygen(512, random.Random(9)).public))


@pytest.mark.parametrize("frames, numbered", [
    ([_pubkey_frame(1)], "PUBKEY numbered 1, expected 0"),
    ([_pubkey_frame(0), Frame(MsgType.COMPONENTS_B, 2, b"")],
     "COMPONENTS_B numbered 2, expected 1"),
])
def test_recv_rejects_misnumbered_frame(small_split, frames, numbered):
    source_end, target_end, _ = loopback_pair()
    for frame in frames:
        target_end.send(frame)
    party = SourceParty(small_split, init_network([3, 2], seed=4), _tiny_cfg(),
                        source_end, key_bits=512, frac_bits=F, seed=0)
    with pytest.raises(ProtocolError, match=numbered):
        party.run_training()
