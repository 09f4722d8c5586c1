"""Two-party secure training and prediction over encrypted components.

Each iteration both parties exchange encrypted per-sample loss/gradient
components under their own keys, assemble each other's gradients and the
loss ciphertext homomorphically, mask their own gradient before handing it
to the peer for decryption, then unmask exactly in the integer domain and
step. Neither party ever sees the other's representations, and each party
receives as plaintext only its own masked-then-unmasked gradient (plus the
masked loss at the source, and predicted labels at whoever asked for them).

The message choreography per iteration:

  source -> target  COMPONENTS_A      encrypted source components
  target -> source  COMPONENTS_B      encrypted target components
  source -> target  MASKED_GRAD_A     [[grad_source + mask_source]] target key
  source -> target  ENC_LOSS          [[loss + loss mask]] target key
  target -> source  MASKED_GRAD_B     [[grad_target + mask_target]] source key
  source -> target  DECRYPTED_BLOB    grad_target + mask_target, plaintext raws
  target -> source  DECRYPTED_BLOB    grad_source + mask_source and masked loss
  source -> target  STOP              only when converged or out of iterations

From the second iteration on the target waits for COMPONENTS_A (or STOP)
before computing its own components, so exactly one component batch per
direction crosses the wire per executed iteration.

Every frame is numbered: PUBKEY 0, the per-iteration frames their iteration,
STOP the last iteration run, prediction frames the request's sequence
number. A frame of an unexpected type or number raises ProtocolError.
"""

from __future__ import annotations

import math
import random
import struct
import threading
from collections.abc import Callable
from dataclasses import dataclass, field

import numpy as np

from .datasets import FederationSplit
from .encoding import encode
from .nets import Network
from .objective import LOG2, alignment_spec, label_prototype
from .paillier import (
    Ciphertext,
    KeyPair,
    PublicKey,
    deserialize_ciphertext,
    keygen,
    serialize_ciphertext,
)
from .plain import (
    TrainingConfig,
    TrainingResult,
    predict_plain,
    target_batch,
    train_plain,
)
from .transport import (
    DIR_SOURCE_TO_TARGET,
    DIR_TARGET_TO_SOURCE,
    FamilySection,
    Frame,
    MsgType,
    Transcript,
    loopback_pair,
    pack_families,
    unpack_families,
)

# Masks are uniform integers covering [-2^20, 2^20] at the masked tensor's
# full fixed-point resolution: large against unit-scale gradients, small
# against the plaintext space.
MASK_MAGNITUDE_BITS = 20

FAMILY_QUAD, FAMILY_LIN, FAMILY_ALIGN, FAMILY_REG = 1, 2, 3, 4


class ProtocolError(RuntimeError):
    """The peer sent something the protocol state machine cannot accept."""


# ---------------------------------------------------------------------------
# payload packing

def _pack_cts(cts) -> bytes:
    return b"".join(serialize_ciphertext(ct) for ct in cts)


def _unpack_cts(data: bytes, count: int, keys: dict[bytes, PublicKey]) -> list[Ciphertext]:
    out = []
    offset = 0
    for _ in range(count):
        ct, offset = deserialize_ciphertext(data, keys, offset)
        out.append(ct)
    if offset != len(data):
        raise ProtocolError("trailing bytes after ciphertext batch")
    return out


def _pack_pubkey(pk: PublicKey) -> bytes:
    n_bytes = pk.modulus.to_bytes((pk.modulus.bit_length() + 7) // 8, "big")
    g_bytes = pk.generator.to_bytes((pk.generator.bit_length() + 7) // 8, "big")
    return (len(n_bytes).to_bytes(4, "big") + n_bytes
            + len(g_bytes).to_bytes(4, "big") + g_bytes)


def _unpack_pubkey(payload: bytes) -> PublicKey:
    n_len = int.from_bytes(payload[:4], "big")
    n = int.from_bytes(payload[4:4 + n_len], "big")
    pos = 4 + n_len
    g_len = int.from_bytes(payload[pos:pos + 4], "big")
    g = int.from_bytes(payload[pos + 4:pos + 4 + g_len], "big")
    return PublicKey(n, g)


def _pack_signed(value: int) -> bytes:
    magnitude = abs(value)
    body = magnitude.to_bytes((magnitude.bit_length() + 7) // 8, "big")
    return (1 if value < 0 else 0).to_bytes(1, "big") + len(body).to_bytes(2, "big") + body


def _unpack_signed(data: bytes, pos: int) -> tuple[int, int]:
    sign = data[pos]
    length = int.from_bytes(data[pos + 1:pos + 3], "big")
    value = int.from_bytes(data[pos + 3:pos + 3 + length], "big")
    return (-value if sign else value), pos + 3 + length


def _pack_tensor_sections(named: list[tuple[str, tuple[int, ...], list[Ciphertext]]]) -> bytes:
    out = [len(named).to_bytes(1, "big")]
    for name, dims, cts in named:
        encoded = name.encode()
        out.append(len(encoded).to_bytes(1, "big") + encoded)
        out.append(len(dims).to_bytes(1, "big"))
        out.extend(d.to_bytes(4, "big") for d in dims)
        out.append(_pack_cts(cts))
    return b"".join(out)


def _unpack_tensor_sections(payload: bytes, keys) -> list[tuple[str, tuple[int, ...], list[Ciphertext]]]:
    count = payload[0]
    pos = 1
    out = []
    for _ in range(count):
        name_len = payload[pos]
        name = payload[pos + 1:pos + 1 + name_len].decode()
        pos += 1 + name_len
        ndim = payload[pos]
        pos += 1
        dims = tuple(int.from_bytes(payload[pos + 4 * i:pos + 4 * i + 4], "big") for i in range(ndim))
        pos += 4 * ndim
        cts = []
        for _ in range(int(np.prod(dims)) if dims else 0):
            ct, pos = deserialize_ciphertext(payload, keys, pos)
            cts.append(ct)
        out.append((name, dims, cts))
    if pos != len(payload):
        raise ProtocolError("trailing bytes after tensor sections")
    return out


def _pack_blob(sections: list[tuple[str, int, list[int]]]) -> bytes:
    """Sections of (name, frac_bits, signed raw integers)."""
    out = [len(sections).to_bytes(1, "big")]
    for name, frac_bits, raws in sections:
        encoded = name.encode()
        out.append(len(encoded).to_bytes(1, "big") + encoded)
        out.append(frac_bits.to_bytes(1, "big") + len(raws).to_bytes(4, "big"))
        out.extend(_pack_signed(r) for r in raws)
    return b"".join(out)


def _unpack_blob(payload: bytes) -> list[tuple[str, int, list[int]]]:
    count = payload[0]
    pos = 1
    out = []
    for _ in range(count):
        name_len = payload[pos]
        name = payload[pos + 1:pos + 1 + name_len].decode()
        pos += 1 + name_len
        frac_bits = payload[pos]
        n_values = int.from_bytes(payload[pos + 1:pos + 5], "big")
        pos += 5
        raws = []
        for _ in range(n_values):
            value, pos = _unpack_signed(payload, pos)
            raws.append(value)
        out.append((name, frac_bits, raws))
    if pos != len(payload):
        raise ProtocolError("trailing bytes after blob sections")
    return out


def _pack_labels(labels) -> bytes:
    return len(labels).to_bytes(4, "big") + struct.pack(f">{len(labels)}b", *labels)


def _unpack_labels(payload: bytes) -> np.ndarray:
    count = int.from_bytes(payload[:4], "big")
    return np.array(struct.unpack(f">{count}b", payload[4:4 + count]), dtype=int)


# ---------------------------------------------------------------------------
# component batches

@dataclass
class ComponentBatch:
    """One party's encrypted components for an iteration.

    quad:  per labeled pair, a d x d ciphertext matrix (row-major lists).
    lin:   per labeled pair, a d ciphertext vector.
    align: per overlap pair, a d ciphertext vector.
    reg:   optional scalar ciphertext (target side only): the weight-decay
           share plus any target-side alignment loss terms.
    """

    quad: list
    lin: list
    align: list
    reg: Ciphertext | None = None

    def to_payload(self) -> bytes:
        d = len(self.lin[0]) if self.lin else (len(self.align[0]) if self.align else 0)
        sections = [
            FamilySection(FAMILY_QUAD, len(self.quad), d * d,
                          _pack_cts(ct for item in self.quad for row in item for ct in row)),
            FamilySection(FAMILY_LIN, len(self.lin), d, _pack_cts(ct for v in self.lin for ct in v)),
            FamilySection(FAMILY_ALIGN, len(self.align), d,
                          _pack_cts(ct for v in self.align for ct in v)),
        ]
        if self.reg is not None:
            sections.append(FamilySection(FAMILY_REG, 1, 1, _pack_cts([self.reg])))
        return pack_families(sections)

    @classmethod
    def from_payload(cls, payload: bytes, keys) -> "ComponentBatch":
        quad, lin, align, reg = [], [], [], None
        for section in unpack_families(payload):
            cts = _unpack_cts(section.data, section.n_items * section.cts_per_item, keys)
            items = [cts[i * section.cts_per_item:(i + 1) * section.cts_per_item]
                     for i in range(section.n_items)]
            if section.family_id == FAMILY_QUAD:
                d = int(math.isqrt(section.cts_per_item))
                quad = [[item[r * d:(r + 1) * d] for r in range(d)] for item in items]
            elif section.family_id == FAMILY_LIN:
                lin = items
            elif section.family_id == FAMILY_ALIGN:
                align = items
            elif section.family_id == FAMILY_REG:
                reg = items[0][0]
            else:
                raise ProtocolError(f"unknown component family {section.family_id}")
        return cls(quad, lin, align, reg)


def _mask_raws(rng: random.Random, count: int, frac_bits: int) -> list[int]:
    bound = 1 << (MASK_MAGNITUDE_BITS + frac_bits)
    return [rng.randrange(-bound, bound + 1) for _ in range(count)]


def _ct_sum(cts):
    acc = None
    for ct in cts:
        if ct is None:
            continue
        acc = ct if acc is None else acc + ct
    return acc


@dataclass
class _GradTensor:
    name: str
    dims: tuple[int, ...]
    cts: list  # flat row-major, entries Ciphertext or None (exact zero)
    frac_bits: int


def encrypted_backward(net: Network, trace: list[np.ndarray], upstream,
                       frac_bits: int) -> list[_GradTensor]:
    """Backpropagate encrypted upstream rows through a plaintext network.

    upstream is a list of per-row entries: either None (row carries no
    gradient) or a list of d ciphertexts. Activations and weights are local
    plaintext, so every step is ciphertext x encoded-scalar; each layer
    crossing adds 2*frac_bits to the running fraction counter.
    """
    f = frac_bits
    delta = upstream
    delta_frac = None
    for row in upstream:
        if row is not None:
            delta_frac = row[0].frac_bits
            break
    if delta_frac is None:
        delta_frac = 2 * f
    tensors: list[_GradTensor] = [None] * (2 * len(net.layers))
    for idx in range(len(net.layers) - 1, -1, -1):
        a_out, a_in = trace[idx + 1], trace[idx]
        n_out, n_in = net.layers[idx].weights.shape
        dz = []
        for r, row in enumerate(delta):
            if row is None:
                dz.append(None)
                continue
            slope = a_out[r] * (1.0 - a_out[r])
            dz.append([row[o].mul_encoded(slope[o], f) for o in range(n_out)])
        dz_frac = delta_frac + f
        grad_w = [[_ct_sum(dz[r][o].mul_encoded(a_in[r, i], f)
                           for r in range(len(dz)) if dz[r] is not None)
                   for i in range(n_in)] for o in range(n_out)]
        grad_b = [_ct_sum(dz[r][o] for r in range(len(dz)) if dz[r] is not None)
                  for o in range(n_out)]
        tensors[2 * idx] = _GradTensor(f"layer{idx}.weights", (n_out, n_in),
                                       [ct for row in grad_w for ct in row], dz_frac + f)
        tensors[2 * idx + 1] = _GradTensor(f"layer{idx}.bias", (n_out,), grad_b, dz_frac)
        if idx:
            weights = net.layers[idx].weights
            delta = [None if row is None else
                     [_ct_sum(row[o].mul_encoded(weights[o, i], f) for o in range(n_out))
                      for i in range(n_in)]
                     for row in dz]
            delta_frac = dz_frac + f
    return tensors


# ---------------------------------------------------------------------------
# parties

class _Party:
    """State shared by both roles: keys, channel, masks, audit trail."""

    role: str

    def __init__(self, channel, cfg: TrainingConfig, key_bits: int, frac_bits: int, seed: int):
        self.channel = channel
        self.cfg = cfg
        self.frac_bits = frac_bits
        self.rng = random.Random(f"{self.role}:{seed}")
        self.keypair: KeyPair = keygen(key_bits, self.rng)
        self.peer_key: PublicKey | None = None
        self.keys: dict[bytes, PublicKey] = {self.keypair.public.fingerprint: self.keypair.public}
        self.align = alignment_spec(cfg.alignment)
        # Audit trail: every mask this party ever created, every unmasked
        # gradient it applied, keyed by (iteration, tensor name).
        self.mask_log: dict[tuple[int, str], tuple[int, ...]] = {}
        self.applied_log: dict[tuple[int, str], tuple[int, ...]] = {}
        self.predict_seq = 0

    # -- plumbing

    def _send(self, msg_type: MsgType, iteration: int, payload: bytes = b""):
        self.channel.send(Frame(msg_type, iteration, payload))

    def _recv(self, expected: dict[MsgType, int]) -> Frame:
        """The next frame; its type must be a key of expected, and its
        iteration number the value under that key."""
        frame = self.channel.recv()
        if frame.msg_type not in expected:
            names = "/".join(m.name for m in expected)
            raise ProtocolError(f"expected {names}, got {MsgType(frame.msg_type).name}")
        number = expected[frame.msg_type]
        if frame.iteration != number:
            raise ProtocolError(f"{MsgType(frame.msg_type).name} numbered {frame.iteration}, "
                                f"expected {number}")
        return frame

    def exchange_keys(self):
        self._send(MsgType.PUBKEY, 0, _pack_pubkey(self.keypair.public))
        frame = self._recv({MsgType.PUBKEY: 0})
        self.peer_key = _unpack_pubkey(frame.payload)
        self.keys[self.peer_key.fingerprint] = self.peer_key

    def _record_mask(self, iteration: int, name: str, raws: list[int]):
        key = (iteration, name)
        if key in self.mask_log:
            raise ProtocolError(f"mask for {key} would be reused")
        self.mask_log[key] = tuple(raws)

    def _mask_and_pack(self, iteration: int, tensors: list[_GradTensor]) -> bytes:
        sections = []
        for tensor in tensors:
            raws = _mask_raws(self.rng, len(tensor.cts), tensor.frac_bits)
            self._record_mask(iteration, tensor.name, raws)
            masked = []
            for ct, mask in zip(tensor.cts, raws):
                if ct is None:
                    # Exact-zero gradient entry: the masked value is the mask.
                    masked.append(self.peer_key.encrypt_raw(mask, tensor.frac_bits, self.rng))
                elif isinstance(ct, _PendingRaw):
                    masked.append(self.peer_key.encrypt_raw(ct.raw + mask, tensor.frac_bits,
                                                            self.rng))
                else:
                    masked.append(ct.add_raw(mask))
            sections.append((tensor.name, tensor.dims, masked))
        return _pack_tensor_sections(sections)

    def _decrypt_blob_sections(self, payload: bytes) -> bytes:
        """Decrypt a peer's masked tensor sections into a plaintext blob."""
        out = []
        for name, _dims, cts in _unpack_tensor_sections(payload, self.keys):
            for ct in cts:
                if ct.public_key.fingerprint != self.keypair.public.fingerprint:
                    raise ProtocolError(f"tensor {name} not under this party's key")
            frac = cts[0].frac_bits if cts else 0
            out.append((name, frac, [self.keypair.private.decrypt_raw(ct) for ct in cts]))
        return _pack_blob(out)

    def _unmask_and_apply(self, net: Network, iteration: int, blob_payload: bytes,
                          learning_rate: float) -> dict[str, float]:
        """Exact integer unmasking, then one gradient step.

        Sections named layer*.{weights,bias} are this party's own gradient;
        anything else (the loss at the source) is unmasked and returned.
        """
        extras: dict[str, float] = {}
        grads = {}
        for name, frac_bits, raws in _unpack_blob(blob_payload):
            key = (iteration, name)
            if key not in self.mask_log:
                raise ProtocolError(f"no mask on record for blob section {name}")
            mask = self.mask_log[key]
            if len(mask) != len(raws):
                raise ProtocolError(f"blob section {name} has wrong length")
            unmasked = [r - m for r, m in zip(raws, mask)]
            self.applied_log[key] = tuple(unmasked)
            if name.startswith("layer"):
                grads[name] = np.array([u / (1 << frac_bits) for u in unmasked])
            else:
                extras[name] = unmasked[0] / (1 << frac_bits)
        for idx, layer in enumerate(net.layers):
            layer.weights -= learning_rate * grads[f"layer{idx}.weights"].reshape(layer.weights.shape)
            layer.bias -= learning_rate * grads[f"layer{idx}.bias"]
        return extras

    # -- prediction roles (either party can serve or request)

    def request_labels(self, u_rows: np.ndarray) -> np.ndarray:
        """Send own encrypted representations, decrypt masked scores, get labels."""
        self.predict_seq += 1
        seq = self.predict_seq
        n, d = u_rows.shape
        cts = [self.keypair.encrypt(u_rows[r, c], self.frac_bits, self.rng)
               for r in range(n) for c in range(d)]
        payload = n.to_bytes(4, "big") + d.to_bytes(4, "big") + _pack_cts(cts)
        self._send(MsgType.PREDICT_REQUEST, seq, payload)
        frame = self._recv({MsgType.PREDICT_MASKED: seq})
        count = int.from_bytes(frame.payload[:4], "big")
        masked = _unpack_cts(frame.payload[4:], count, self.keys)
        for ct in masked:
            if ct.public_key.fingerprint != self.keypair.public.fingerprint:
                raise ProtocolError("masked scores not under the requester's key")
        frac = masked[0].frac_bits if masked else 2 * self.frac_bits
        raws = [self.keypair.private.decrypt_raw(ct) for ct in masked]
        self._send(MsgType.DECRYPTED_BLOB, seq, _pack_blob([("predict.scores", frac, raws)]))
        labels_frame = self._recv({MsgType.PREDICT_LABELS: seq})
        return _unpack_labels(labels_frame.payload)

    def serve_labels(self, prototype: np.ndarray) -> np.ndarray:
        """Score encrypted peer representations against a local prototype."""
        self.predict_seq += 1
        seq = self.predict_seq
        frame = self._recv({MsgType.PREDICT_REQUEST: seq})
        n = int.from_bytes(frame.payload[:4], "big")
        d = int.from_bytes(frame.payload[4:8], "big")
        if d != len(prototype):
            raise ProtocolError(f"prototype dim {len(prototype)} != request dim {d}")
        cts = _unpack_cts(frame.payload[8:], n * d, self.keys)
        scores = []
        for r in range(n):
            row = cts[r * d:(r + 1) * d]
            scores.append(_ct_sum(row[c].mul_encoded(prototype[c], self.frac_bits)
                                  for c in range(d)))
        frac = scores[0].frac_bits if scores else 2 * self.frac_bits
        masks = _mask_raws(self.rng, n, frac)
        self._record_mask(seq, "predict.scores", masks)
        masked = [ct.add_raw(m) for ct, m in zip(scores, masks)]
        self._send(MsgType.PREDICT_MASKED, seq, len(masked).to_bytes(4, "big") + _pack_cts(masked))
        blob = self._recv({MsgType.DECRYPTED_BLOB: seq})
        sections = _unpack_blob(blob.payload)
        if len(sections) != 1 or sections[0][0] != "predict.scores":
            raise ProtocolError("expected a single masked-score section")
        _, _, raws = sections[0]
        unmasked = [r - m for r, m in zip(raws, masks)]
        self.applied_log[(seq, "predict.scores")] = tuple(unmasked)
        # The tie at exactly zero classifies positive; integer-domain
        # unmasking keeps that decidable.
        labels = np.array([1 if u >= 0 else -1 for u in unmasked], dtype=int)
        self._send(MsgType.PREDICT_LABELS, seq, _pack_labels(labels))
        return labels


class SourceParty(_Party):
    """Label-rich party: owns labels, builds the prototype, decides the stop."""

    role = "source"

    def __init__(self, split: FederationSplit, net: Network, cfg: TrainingConfig,
                 channel, key_bits: int = 1024, frac_bits: int = 40, seed: int = 0):
        super().__init__(channel, cfg, key_bits, frac_bits, seed)
        self.net = net
        self.x = split.x_source
        self.labels = split.labels_source.astype(int)
        self.labels_c = split.labels_for(split.labeled_ids).astype(int)
        self.ab_rows = split.source_rows(split.overlap_ids)
        self.loss_history: list[float] = []

    def compute_components(self, trace: list[np.ndarray]) -> ComponentBatch:
        """Encrypt the prototype-quadratic, prototype-linear, and alignment
        components under this party's own key."""
        u = trace[-1]
        prototype = label_prototype(u, self.labels)
        quad_base = 0.125 * np.outer(prototype, prototype)
        f, own, rng = self.frac_bits, self.keypair, self.rng
        quad = [[[own.encrypt(y * y * quad_base[r, c], f, rng) for c in range(len(prototype))]
                 for r in range(len(prototype))] for y in self.labels_c]
        lin = [[own.encrypt(-0.5 * y * prototype[c], f, rng) for c in range(len(prototype))]
               for y in self.labels_c]
        gk = self.cfg.gamma * self.align.kappa
        align = [[own.encrypt(gk * value, f, rng) for value in u[row]] for row in self.ab_rows]
        return ComponentBatch(quad, lin, align)

    def assemble_loss(self, comps: ComponentBatch, trace: list[np.ndarray],
                      prototype: np.ndarray) -> Ciphertext:
        """Build [[loss]] under the target's key from the target's components."""
        f = self.frac_bits
        u_ab = trace[-1][self.ab_rows]
        n = len(self.labels)
        terms = []
        for i, y in enumerate(self.labels_c):
            quad_i, lin_i = comps.quad[i], comps.lin[i]
            for b in range(len(prototype)):
                for c in range(len(prototype)):
                    terms.append(quad_i[b][c].mul_encoded(
                        0.125 * y * y * prototype[b] * prototype[c], f))
            for c in range(len(prototype)):
                terms.append(lin_i[c].mul_encoded(-0.5 * y * prototype[c], f))
        for j, align_j in enumerate(comps.align):
            for c in range(len(prototype)):
                terms.append(align_j[c].mul_encoded(self.cfg.gamma * u_ab[j, c], f))
        if comps.reg is not None:
            terms.append(comps.reg)
        constant = (len(self.labels_c) * LOG2
                    + 0.5 * self.cfg.weight_decay * self.net.squared_param_norm()
                    + self.cfg.gamma * float(np.sum(self.align.own_loss(u_ab))))
        acc = _ct_sum(terms)
        raw = encode(constant, 2 * f).raw
        if acc is None:
            return self.peer_key.encrypt_raw(raw, 2 * f, self.rng)
        return acc.add_raw(raw)

    def assemble_gradient(self, comps: ComponentBatch, trace: list[np.ndarray],
                          prototype: np.ndarray) -> list[_GradTensor]:
        """Own-parameter gradient under the target's key, before masking.

        Every source row j receives (y_j / N) * S through the prototype path,
        where S pools the per-pair loss slopes against the target's encrypted
        representations; overlap rows add the alignment terms.
        """
        f = self.frac_bits
        d = len(prototype)
        n = len(self.labels)
        u = trace[-1]
        pooled = []
        for c in range(d):
            terms = []
            for i, y in enumerate(self.labels_c):
                for b in range(d):
                    terms.append(comps.quad[i][b][c].mul_encoded(
                        0.25 * y * y * prototype[b] / n, f))
                terms.append(comps.lin[i][c].mul_encoded(-0.5 * y / n, f))
            pooled.append(_ct_sum(terms))
        upstream: list = []
        for j in range(len(u)):
            sign = int(self.labels[j])
            if pooled[0] is None:
                upstream.append(None)
            else:
                upstream.append([ct.mul_int(sign) for ct in pooled])
        own_align = self.cfg.gamma * self.align.own_grad(u[self.ab_rows])
        for j, row in enumerate(self.ab_rows):
            extra = [comps.align[j][c].mul_encoded(self.cfg.gamma, f).add_raw(
                encode(own_align[j, c], 2 * f).raw) for c in range(d)]
            if upstream[row] is None:
                upstream[row] = extra
            else:
                upstream[row] = [a + b for a, b in zip(upstream[row], extra)]
        tensors = encrypted_backward(self.net, trace, upstream, f)
        return _add_weight_decay(tensors, self.net, self.cfg.weight_decay)

    def run_training(self) -> TrainingResult:
        self.exchange_keys()
        result = TrainingResult(self.net, None)
        previous = math.inf
        for iteration in range(1, self.cfg.max_iterations + 1):
            trace = self.net.forward_trace(self.x)
            prototype = label_prototype(trace[-1], self.labels)
            self._send(MsgType.COMPONENTS_A, iteration,
                       self.compute_components(trace).to_payload())
            frame = self._recv({MsgType.COMPONENTS_B: iteration})
            comps = ComponentBatch.from_payload(frame.payload, self.keys)

            masked_grad = self._mask_and_pack(
                iteration, self.assemble_gradient(comps, trace, prototype))
            self._send(MsgType.MASKED_GRAD_A, iteration, masked_grad)
            loss_ct = self.assemble_loss(comps, trace, prototype)
            loss_mask = _mask_raws(self.rng, 1, loss_ct.frac_bits)
            self._record_mask(iteration, "loss", loss_mask)
            self._send(MsgType.ENC_LOSS, iteration,
                       serialize_ciphertext(loss_ct.add_raw(loss_mask[0])))

            grad_frame = self._recv({MsgType.MASKED_GRAD_B: iteration})
            self._send(MsgType.DECRYPTED_BLOB, iteration,
                       self._decrypt_blob_sections(grad_frame.payload))
            blob = self._recv({MsgType.DECRYPTED_BLOB: iteration})
            extras = self._unmask_and_apply(self.net, iteration, blob.payload,
                                            self.cfg.learning_rate)
            if "loss" not in extras:
                raise ProtocolError("target's blob did not return the loss")
            loss = extras["loss"]
            result.loss_history.append(loss)
            self.loss_history.append(loss)
            if previous - loss <= self.cfg.tolerance:
                result.converged = True
                self._send(MsgType.STOP, iteration)
                break
            previous = loss
        else:
            self._send(MsgType.STOP, self.cfg.max_iterations)
        return result


class TargetParty(_Party):
    """Label-poor party: computes representations for the shared pairs."""

    role = "target"

    def __init__(self, split: FederationSplit, net: Network, cfg: TrainingConfig,
                 channel, key_bits: int = 1024, frac_bits: int = 40, seed: int = 0):
        super().__init__(channel, cfg, key_bits, frac_bits, seed)
        self.net = net
        batch_ids, self.c_pos, self.ab_pos = target_batch(split)
        self.batch_ids = batch_ids
        self.x = split.x_target[split.target_rows(batch_ids)]
        self.x_all = split.x_target
        self._split = split

    def compute_components(self, trace: list[np.ndarray]) -> ComponentBatch:
        u = trace[-1]
        f, own, rng = self.frac_bits, self.keypair, self.rng
        u_c, u_ab = u[self.c_pos], u[self.ab_pos]
        quad = [[[own.encrypt(row[r] * row[c], f, rng) for c in range(len(row))]
                 for r in range(len(row))] for row in u_c]
        lin = [[own.encrypt(value, f, rng) for value in row] for row in u_c]
        align = [[own.encrypt(self.align.kappa * value, f, rng) for value in row] for row in u_ab]
        # The scalar loss share: this party's weight-decay term, plus its own
        # alignment terms when the alignment kind has any.
        reg_value = (0.5 * self.cfg.weight_decay * self.net.squared_param_norm()
                     + self.cfg.gamma * float(np.sum(self.align.own_loss(u_ab))))
        return ComponentBatch(quad, lin, align, own.encrypt(reg_value, 2 * f, rng))

    def assemble_gradient(self, comps: ComponentBatch, trace: list[np.ndarray]) -> list[_GradTensor]:
        """Own-parameter gradient under the source's key, before masking."""
        f = self.frac_bits
        u = trace[-1]
        d = u.shape[1]
        upstream: list = [None] * len(u)
        for i, pos in enumerate(self.c_pos):
            quad_i, lin_i = comps.quad[i], comps.lin[i]
            row = [_ct_sum([quad_i[r][c].mul_encoded(2.0 * u[pos, c], f) for c in range(d)]
                           + [lin_i[r].lift(f)]) for r in range(d)]
            upstream[pos] = row if upstream[pos] is None else [a + b for a, b in
                                                               zip(upstream[pos], row)]
        own_align = self.cfg.gamma * self.align.own_grad(u[self.ab_pos])
        for j, pos in enumerate(self.ab_pos):
            extra = [comps.align[j][c].lift(f).add_raw(encode(own_align[j, c], 2 * f).raw)
                     for c in range(d)]
            upstream[pos] = extra if upstream[pos] is None else [a + b for a, b in
                                                                 zip(upstream[pos], extra)]
        tensors = encrypted_backward(self.net, trace, upstream, f)
        return _add_weight_decay(tensors, self.net, self.cfg.weight_decay)

    def run_training(self) -> TrainingResult:
        self.exchange_keys()
        result = TrainingResult(None, self.net)
        for iteration in range(1, self.cfg.max_iterations + 1):
            if iteration > 1:
                # STOP carries the last iteration the source ran.
                frame = self._recv({MsgType.COMPONENTS_A: iteration,
                                    MsgType.STOP: iteration - 1})
                if frame.msg_type == MsgType.STOP:
                    result.converged = True
                    return result
                comps_frame = frame
            trace = self.net.forward_trace(self.x)
            self._send(MsgType.COMPONENTS_B, iteration,
                       self.compute_components(trace).to_payload())
            if iteration == 1:
                comps_frame = self._recv({MsgType.COMPONENTS_A: iteration})
            comps = ComponentBatch.from_payload(comps_frame.payload, self.keys)

            masked_grad = self._mask_and_pack(iteration, self.assemble_gradient(comps, trace))
            self._send(MsgType.MASKED_GRAD_B, iteration, masked_grad)

            grad_frame = self._recv({MsgType.MASKED_GRAD_A: iteration})
            loss_frame = self._recv({MsgType.ENC_LOSS: iteration})
            blob = self._decrypt_blob_sections(grad_frame.payload)
            loss_ct, _ = deserialize_ciphertext(loss_frame.payload, self.keys)
            loss_raw = self.keypair.private.decrypt_raw(loss_ct)
            blob_sections = _unpack_blob(blob)
            blob_sections.append(("loss", loss_ct.frac_bits, [loss_raw]))
            self._send(MsgType.DECRYPTED_BLOB, iteration, _pack_blob(blob_sections))

            own_blob = self._recv({MsgType.DECRYPTED_BLOB: iteration})
            self._unmask_and_apply(self.net, iteration, own_blob.payload,
                                   self.cfg.learning_rate)
        self._recv({MsgType.STOP: self.cfg.max_iterations})
        result.converged = True
        return result


class _PendingRaw:
    """A plaintext raw value awaiting encryption at masking time.

    Appears when a gradient entry had no encrypted contributions (all
    upstream rows were None) but weight decay still adds a plaintext term.
    """

    def __init__(self, raw: int):
        self.raw = raw


def _decayed(ct, value: float, frac_bits: int):
    raw = encode(value, frac_bits).raw
    if ct is None:
        return _PendingRaw(raw) if raw else None
    return ct.add_raw(raw)


def _add_weight_decay(tensors: list[_GradTensor], net: Network, decay: float) -> list[_GradTensor]:
    for tensor in tensors:
        idx = int(tensor.name.split(".")[0].removeprefix("layer"))
        layer = net.layers[idx]
        values = (layer.weights if tensor.name.endswith("weights") else layer.bias).ravel()
        tensor.cts = [_decayed(ct, decay * v, tensor.frac_bits)
                      for ct, v in zip(tensor.cts, values)]
    return tensors


# ---------------------------------------------------------------------------
# drivers

@dataclass
class EncryptedRunResult:
    result: TrainingResult
    transcript: Transcript
    source: SourceParty
    target: TargetParty


def _run_pair(primary, primary_fn, secondary, secondary_fn, join_timeout: float = 600.0):
    """Run two party routines concurrently; surface the first failure."""
    outcome: dict[str, object] = {}

    def worker():
        try:
            outcome["secondary"] = secondary_fn()
        except BaseException as exc:  # noqa: BLE001 - must cross the thread
            outcome["secondary_error"] = exc
            secondary.channel.close()

    thread = threading.Thread(target=worker, daemon=True)
    thread.start()
    try:
        outcome["primary"] = primary_fn()
    except BaseException as exc:
        outcome["primary_error"] = exc
        primary.channel.close()
    thread.join(join_timeout)
    if "secondary_error" in outcome:
        raise outcome["secondary_error"]
    if "primary_error" in outcome:
        raise outcome["primary_error"]
    if thread.is_alive():
        raise ProtocolError("peer thread did not finish")
    return outcome["primary"], outcome["secondary"]


def train_encrypted(split: FederationSplit, net_source: Network, net_target: Network,
                    cfg: TrainingConfig, key_bits: int = 512, frac_bits: int = 40,
                    seed: int = 0, channels=None) -> EncryptedRunResult:
    """Run the full two-party protocol; both nets are updated in place.

    channels defaults to an in-process loopback pair; pass the triple from
    tcp_pair to run over sockets instead. Only the Taylor loss has an
    encrypted form, so any other loss_mode is rejected.
    """
    if cfg.loss_mode != "taylor":
        raise ValueError(f"the encrypted engine trains the Taylor loss only, "
                         f"not loss_mode {cfg.loss_mode!r}")
    if channels is None:
        channels = loopback_pair()
    source_end, target_end, transcript = channels
    source = SourceParty(split, net_source, cfg, source_end, key_bits, frac_bits, seed)
    target = TargetParty(split, net_target, cfg, target_end, key_bits, frac_bits, seed)
    try:
        res_source, _res_target = _run_pair(source, source.run_training,
                                            target, target.run_training)
    finally:
        source_end.close()
        target_end.close()
    result = TrainingResult(net_source, net_target, res_source.loss_history,
                            res_source.converged)
    return EncryptedRunResult(result, transcript, source, target)


@dataclass
class PredictionRunResult:
    labels: np.ndarray
    transcript: Transcript
    server: _Party
    requester: _Party


def predict_encrypted(split: FederationSplit, net_source: Network, net_target: Network,
                      query_ids, cfg: TrainingConfig | None = None, key_bits: int = 512,
                      frac_bits: int = 40, seed: int = 0,
                      channels=None) -> PredictionRunResult:
    """Label target-side query rows without revealing either party's data.

    The target encrypts its representations under its own key; the source
    scores them against the label prototype, masks, and returns only the
    thresholded labels.
    """
    cfg = cfg or TrainingConfig()
    if channels is None:
        channels = loopback_pair()
    source_end, target_end, transcript = channels
    server = SourceParty(split, net_source, cfg, source_end, key_bits, frac_bits, seed)
    requester = TargetParty(split, net_target, cfg, target_end, key_bits, frac_bits, seed)
    prototype = label_prototype(net_source.forward(split.x_source), split.labels_source)
    u_query = net_target.forward(split.x_target[split.target_rows(query_ids)])

    def ask():
        requester.exchange_keys()
        return requester.request_labels(u_query)

    def serve():
        server.exchange_keys()
        return server.serve_labels(prototype)

    try:
        labels, _served = _run_pair(requester, ask, server, serve)
    finally:
        source_end.close()
        target_end.close()
    return PredictionRunResult(labels, transcript, server, requester)


ENGINE_KINDS = ("plain", "encrypted")


@dataclass(frozen=True)
class Engine:
    """The plaintext oracle or the two-party protocol behind one interface.

    channels opens a fresh (source end, target end, transcript) triple for
    each encrypted run; the plain engine never calls it.
    """

    kind: str = "plain"
    key_bits: int = 512
    frac_bits: int = 40
    channels: Callable[[], tuple] = loopback_pair

    def __post_init__(self):
        if self.kind not in ENGINE_KINDS:
            raise ValueError(f"unknown engine {self.kind!r}")

    def train(self, split: FederationSplit, net_source: Network, net_target: Network,
              cfg: TrainingConfig, seed: int = 0) -> tuple[TrainingResult, Transcript | None]:
        """Train both nets in place; the transcript is None for the plain engine."""
        if self.kind == "plain":
            return train_plain(split, net_source, net_target, cfg), None
        run = train_encrypted(split, net_source, net_target, cfg, key_bits=self.key_bits,
                              frac_bits=self.frac_bits, seed=seed, channels=self.channels())
        return run.result, run.transcript

    def predict(self, split: FederationSplit, net_source: Network, net_target: Network,
                query_ids, seed: int = 0) -> np.ndarray:
        """Labels for the target-side query rows."""
        if self.kind == "plain":
            return predict_plain(split, net_source, net_target, query_ids)
        return predict_encrypted(split, net_source, net_target, query_ids,
                                 key_bits=self.key_bits, frac_bits=self.frac_bits,
                                 seed=seed, channels=self.channels()).labels


# ---------------------------------------------------------------------------
# audit

@dataclass
class AuditReport:
    """Post-hoc transcript check that neither party saw foreign plaintext.

    Every plaintext value on the wire must be either a mask-protected blob
    the receiver itself masked (blob = mask + what the receiver applied),
    a predicted label batch, or a public key or stop marker. Masks must
    never repeat.
    """

    issues: list[str] = field(default_factory=list)
    blob_sections_checked: int = 0
    masks_checked: int = 0
    label_frames: int = 0
    ciphertext_frames: int = 0

    @property
    def ok(self) -> bool:
        return not self.issues


_CIPHERTEXT_ONLY = (MsgType.COMPONENTS_A, MsgType.COMPONENTS_B, MsgType.MASKED_GRAD_A,
                    MsgType.MASKED_GRAD_B, MsgType.ENC_LOSS, MsgType.PREDICT_REQUEST,
                    MsgType.PREDICT_MASKED)


def _check_ciphertext_frame(frame, keys, report: AuditReport):
    try:
        if frame.msg_type in (MsgType.COMPONENTS_A, MsgType.COMPONENTS_B):
            ComponentBatch.from_payload(frame.payload, keys)
        elif frame.msg_type in (MsgType.MASKED_GRAD_A, MsgType.MASKED_GRAD_B):
            _unpack_tensor_sections(frame.payload, keys)
        elif frame.msg_type == MsgType.ENC_LOSS:
            ct, end = deserialize_ciphertext(frame.payload, keys)
            if end != len(frame.payload):
                raise ProtocolError("trailing bytes after loss ciphertext")
        elif frame.msg_type == MsgType.PREDICT_REQUEST:
            n = int.from_bytes(frame.payload[:4], "big")
            d = int.from_bytes(frame.payload[4:8], "big")
            _unpack_cts(frame.payload[8:], n * d, keys)
        elif frame.msg_type == MsgType.PREDICT_MASKED:
            n = int.from_bytes(frame.payload[:4], "big")
            _unpack_cts(frame.payload[4:], n, keys)
    except Exception as exc:  # noqa: BLE001 - collect, do not abort the audit
        report.issues.append(f"{MsgType(frame.msg_type).name} frame does not parse as "
                             f"ciphertext-only: {exc}")
        return
    report.ciphertext_frames += 1


def audit_training(transcript: Transcript, source: _Party, target: _Party) -> AuditReport:
    """Replay a transcript against both parties' mask and update logs."""
    report = AuditReport()
    keys = dict(source.keys)
    keys.update(target.keys)
    for direction, receiver in ((DIR_TARGET_TO_SOURCE, source), (DIR_SOURCE_TO_TARGET, target)):
        for record in transcript.frames(direction=direction):
            if record.msg_type in _CIPHERTEXT_ONLY:
                _check_ciphertext_frame(record, keys, report)
                continue
            if record.msg_type == MsgType.PREDICT_LABELS:
                report.label_frames += 1
                continue
            if record.msg_type != MsgType.DECRYPTED_BLOB:
                continue
            for name, _frac, raws in _unpack_blob(record.payload):
                key = (record.iteration, name)
                mask = receiver.mask_log.get(key)
                applied = receiver.applied_log.get(key)
                if mask is None or applied is None:
                    report.issues.append(
                        f"{receiver.role} received plaintext section {key} it never masked")
                    continue
                if len(raws) != len(mask) or any(
                        r != m + a for r, m, a in zip(raws, mask, applied)):
                    report.issues.append(
                        f"section {key}: blob != mask + applied value at {receiver.role}")
                report.blob_sections_checked += 1
    for party in (source, target):
        masks = list(party.mask_log.values())
        report.masks_checked += len(masks)
        if len(set(masks)) != len(masks):
            report.issues.append(f"{party.role} reused a mask")
    return report
