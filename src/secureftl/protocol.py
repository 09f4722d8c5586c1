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

The two parties are threads of the calling process, built and run by one
driver, _run_parties. It opens a fork-context ProcessPoolExecutor of one
worker per usable CPU before the threads start (none on a single CPU). Both
keygens run on it side by side, each on its party's seeded rng, whose state
comes back with the keys. Then both parties hand it their exponentiations
through the executor's map, in one chunk per worker: every batch of own-key
encryptions (components and prediction requests), every decryption of the
peer's masked sections, and every batch of ciphertext-by-plaintext
products (paillier.products) that the loss, the gradients and the
prediction scores are built from. The workers run only paillier's kernels
on (private key, residue, r), (private key, value) and (value, k, n^2)
jobs. Channels, transcript, masks, the homomorphic additions and every
encryption's random r stay in the parent, so each ciphertext and frame is
the one a single core would make. The few single encryptions (the target's
reg scalar, peer-key mask entries) run in the party's thread.

A party that fails closes its channel end, which fails the peer's next recv
with ChannelClosed; the call raises the first failure in time order, so a
frame one party rejects surfaces as that party's ProtocolError. A worker
that dies breaks the executor, and the call raises BrokenProcessPool
instead of waiting for the lost job. The executor is shut down when the
call returns or fails.

Every frame is numbered: PUBKEY 0, the per-iteration frames their iteration,
STOP the last iteration run, prediction frames the request's sequence
number. A frame of an unexpected type or number raises ProtocolError.

The encrypted algebra is the plaintext one, in numpy object arrays: entries
are paillier.Ciphertext, encoding.FixedPoint or the int 0, the structural
zero that no ciphertext reached (it adds nothing, and any product with it
stays 0). Components are (n_c, d, d) quad, (n_c, d) lin and (n_ab, d) align
arrays; the loss, the gradients and the prediction scores are batched
elementwise products (paillier.products) summed over an axis, and
encrypted_backward runs Network.backward over an (N, d, K) upstream. A
gradient entry that is still plaintext when it is masked (no ciphertext
reached it, only weight decay) is encrypted then, under the peer's key.

Every payload is a list of sections (transport.pack_sections). A section's
data is either serialized ciphertexts (ct) or a frac byte and signed
integers (int), prod(dims) of them, row-major:

  frame            section           dims         data
  PUBKEY           n                 ()           int: the modulus (g = n + 1)
  COMPONENTS_A/B   quad              (n_c, d, d)  ct
                   lin               (n_c, d)     ct
                   align             (n_ab, d)    ct
                   reg               ()           ct, COMPONENTS_B only
  MASKED_GRAD_A/B  layer<i>.weights  (out, in)    ct, per layer
                   layer<i>.bias     (out,)       ct
  ENC_LOSS         loss              ()           ct
  DECRYPTED_BLOB   each section of the MASKED_GRAD (and the ENC_LOSS) it
                   answers, same name and dims   int
  PREDICT_REQUEST  u                 (n, d)       ct
  PREDICT_MASKED   predict.scores    (n,)         ct
  DECRYPTED_BLOB   predict.scores    (n,)         int
  PREDICT_LABELS   labels            (n,)         int: +1 or -1
  STOP             empty payload

A malformed payload raises one of WIRE_ERRORS.
"""

from __future__ import annotations

import itertools
import math
import multiprocessing
import os
import random
import threading
from collections.abc import Callable
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from .datasets import FederationSplit
from .encoding import MAX_FRAC_BITS, FixedPoint, encode, is_zero
from .nets import Network
from .objective import LOG2, alignment_spec, label_prototype
from .paillier import (
    MIN_KEY_BITS,
    Ciphertext,
    CiphertextFormatError,
    KeyMismatchError,
    KeyPair,
    Mapper,
    PublicKey,
    deserialize_ciphertext,
    keygen,
    products,
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
    Frame,
    FramingError,
    MsgType,
    Section,
    Transcript,
    loopback_pair,
    pack_sections,
    unpack_sections,
)

# Masks are uniform integers covering [-2^20, 2^20] at the masked tensor's
# full fixed-point resolution: large against unit-scale gradients, small
# against the plaintext space.
MASK_MAGNITUDE_BITS = 20

# A ciphertext contraction forms its products in batches of about this many,
# whole output rows each, so the products held at once do not grow with
# rows * inputs * outputs.
CONTRACTION_BATCH = 4096


class ProtocolError(RuntimeError):
    """The peer sent something the protocol state machine cannot accept."""


# Everything a malformed payload may raise.
WIRE_ERRORS = (FramingError, ProtocolError, CiphertextFormatError, KeyMismatchError)


# ---------------------------------------------------------------------------
# payload bodies

def _ct_section(name: str, dims: tuple[int, ...], cts) -> Section:
    return Section(name, dims, b"".join(serialize_ciphertext(ct) for ct in cts))


def _int_section(name: str, dims: tuple[int, ...], frac_bits: int, raws) -> Section:
    """A frac byte, then per value a sign byte, a 2-byte length and the magnitude."""
    out = [bytes([frac_bits])]
    for raw in raws:
        magnitude = abs(raw)
        body = magnitude.to_bytes((magnitude.bit_length() + 7) // 8, "big")
        out.append(bytes([raw < 0]) + len(body).to_bytes(2, "big") + body)
    return Section(name, dims, b"".join(out))


def _section_cts(section: Section, keys: dict[bytes, PublicKey]) -> list[Ciphertext]:
    data, pos, out = section.data, 0, []
    for _ in range(math.prod(section.dims)):
        ct, pos = deserialize_ciphertext(data, keys, pos)
        out.append(ct)
    if pos != len(data):
        raise FramingError(f"section {section.name}: trailing bytes after ciphertexts")
    return out


def _section_array(section: Section, keys: dict[bytes, PublicKey]) -> np.ndarray:
    """The section's ciphertexts as an object array of shape section.dims."""
    return np.array(_section_cts(section, keys), dtype=object).reshape(section.dims)


def _section_ints(section: Section) -> tuple[int, list[int]]:
    """(frac_bits, signed raws) of an integer section."""
    data, pos, out = section.data, 1, []
    for _ in range(math.prod(section.dims)):
        end = pos + 3 + int.from_bytes(data[pos + 1:pos + 3], "big")
        if end > len(data) or data[pos] > 1:
            raise FramingError(f"section {section.name}: malformed integer")
        value = int.from_bytes(data[pos + 3:end], "big")
        out.append(-value if data[pos] else value)
        pos = end
    if not data or pos != len(data):
        raise FramingError(f"section {section.name}: integers do not fill the data")
    return data[0], out


def _only(payload: bytes, name: str, ndim: int) -> Section:
    """The payload's single section, which must be called name and have ndim dims."""
    sections = unpack_sections(payload)
    if [(s.name, len(s.dims)) for s in sections] != [(name, ndim)]:
        raise ProtocolError(f"expected one {ndim}-d section {name}, got "
                            f"{[(s.name, s.dims) for s in sections]}")
    return sections[0]


def _pubkey_payload(pk: PublicKey) -> bytes:
    # encrypt_residue fixes g = n + 1, so the modulus is the whole key.
    return pack_sections([_int_section("n", (), 0, [pk.modulus])])


def _read_pubkey(payload: bytes) -> PublicKey:
    _, (n,) = _section_ints(_only(payload, "n", 0))
    if n.bit_length() < MIN_KEY_BITS or n % 2 == 0:
        raise ProtocolError(f"public modulus of {n.bit_length()} bits is no Paillier modulus")
    return PublicKey(n, n + 1)


def _read_blob(payload: bytes) -> list[tuple[str, int, list[int]]]:
    """(name, frac_bits, raws) per section of a DECRYPTED_BLOB."""
    return [(s.name, *_section_ints(s)) for s in unpack_sections(payload)]


def _read_labels(payload: bytes) -> np.ndarray:
    _, labels = _section_ints(_only(payload, "labels", 1))
    if not set(labels) <= {-1, 1}:
        raise ProtocolError("predicted labels outside {-1, +1}")
    return np.array(labels, dtype=int)


# ---------------------------------------------------------------------------
# component batches

_COMPONENT_NDIM = {"quad": 3, "lin": 2, "align": 2, "reg": 0}


@dataclass
class ComponentBatch:
    """One party's encrypted components for an iteration, as object arrays.

    quad:  (n_c, d, d), per labeled pair a d x d ciphertext matrix.
    lin:   (n_c, d), per labeled pair a d ciphertext vector.
    align: (n_ab, d), per overlap pair a d ciphertext vector.
    reg:   optional scalar ciphertext (target side only): the weight-decay
           share plus any target-side alignment loss terms.
    """

    quad: np.ndarray
    lin: np.ndarray
    align: np.ndarray
    reg: Ciphertext | None = None

    def to_payload(self) -> bytes:
        sections = [_ct_section(name, cts.shape, cts.flat) for name, cts in
                    (("quad", self.quad), ("lin", self.lin), ("align", self.align))]
        if self.reg is not None:
            sections.append(_ct_section("reg", (), [self.reg]))
        return pack_sections(sections)

    @classmethod
    def from_payload(cls, payload: bytes, keys) -> "ComponentBatch":
        empty = np.empty(0, dtype=object)
        families = {"quad": empty, "lin": empty, "align": empty, "reg": None}
        for section in unpack_sections(payload):
            dims = section.dims
            if (_COMPONENT_NDIM.get(section.name) != len(dims)
                    or (len(dims) == 3 and dims[1] != dims[2])):
                raise ProtocolError(f"no component family {section.name} of shape {dims}")
            cts = _section_array(section, keys)
            families[section.name] = cts if dims else cts.item()
        return cls(**families)

    def check(self, n_c: int, n_ab: int, d: int, reg: bool):
        """Raise ProtocolError unless the batch holds n_c labeled and n_ab
        overlap items of dimension d, and a reg scalar exactly when reg."""
        shapes = (self.quad.shape, self.lin.shape, self.align.shape, self.reg is not None)
        expected = ((n_c, d, d), (n_c, d), (n_ab, d), reg)
        if shapes != expected:
            raise ProtocolError(f"component batch holds (quad, lin, align, reg) shapes "
                                f"{shapes}, expected {expected}")


def _mask_raws(rng: random.Random, count: int, frac_bits: int) -> list[int]:
    bound = 1 << (MASK_MAGNITUDE_BITS + frac_bits)
    return [rng.randrange(-bound, bound + 1) for _ in range(count)]


def _fixed(values, frac_bits: int) -> np.ndarray:
    """encode(v, frac_bits) of every entry, as a FixedPoint object array."""
    values = np.asarray(values, dtype=float)
    return np.array([encode(v, frac_bits) for v in values.ravel()],
                    dtype=object).reshape(values.shape)


@dataclass
class _GradTensor:
    name: str
    values: np.ndarray  # entries Ciphertext, FixedPoint or the structural zero 0
    frac_bits: int


def encrypted_backward(net: Network, trace: list[np.ndarray], upstream: np.ndarray,
                       frac_bits: int, basis: np.ndarray | None = None,
                       mapper: Mapper = map) -> list[_GradTensor]:
    """Network.backward over an encrypted (N, d, K) upstream.

    With basis None, K is 1 and the entries are ciphertexts at 2*frac_bits
    fraction bits, or 0 where no ciphertext reached. With basis K ciphertexts
    at 2*frac_bits, the entries are FixedPoint coefficients: row r's upstream
    at output o is sum_k upstream[r, o, k] * basis[k]. Either way a gradient
    is (out, in, K) and (out, K) first, then materialised as [..., 0] or
    grad @ basis; its frac_bits is that of its ciphertexts.

    Activations and weights are local plaintext, so each layer is linear in
    the upstream: every step multiplies by a scalar encoded at frac_bits, and
    each layer crossing adds 2*frac_bits to the fraction counter.
    Coefficients cross as exact FixedPoint integers, summed over rows before
    any ciphertext is touched, so the cost of a basis does not grow with N.
    Every step's ciphertext products go through mapper in one batch
    (paillier.products); a contraction of ciphertexts goes in batches of
    whole output rows, about CONTRACTION_BATCH products each.

    The result is exact, not close: ciphertexts under * and + form the
    commutative group Z*_{n^2}, so prod_k basis[k]^E_k is the very integer
    the row-by-row form reaches from the expanded upstream. An entry is 0
    only when no row reaches it, never because an exponent sums to 0.
    """
    f = frac_bits

    def matmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
        # Coefficients on a basis are plaintext: numpy contracts them
        # without holding every product at once.
        if basis is not None:
            return a @ b
        rows = a.reshape(math.prod(a.shape[:-1]), a.shape[-1])
        step = max(1, CONTRACTION_BATCH // max(1, b.size))
        blocks = [rows[i:i + step] for i in range(0, len(rows), step)] or [rows]
        out = [products(mapper, (block[:, :, None], b))[0].sum(axis=1) for block in blocks]
        return np.concatenate(out).reshape(*a.shape[:-1], b.shape[-1])

    delta, frac = upstream.transpose(0, 2, 1), 2 * f  # (N, K, d)
    tensors: list[_GradTensor] = [None] * (2 * len(net.layers))
    for idx in range(len(net.layers) - 1, -1, -1):
        a_out, a_in = trace[idx + 1], trace[idx]
        (dz,) = products(mapper, (delta, _fixed(a_out * (1.0 - a_out), f)[:, None, :]))
        grad_w = np.moveaxis(matmul(dz.transpose(1, 2, 0), _fixed(a_in, f)), 0, -1)
        grad_b = dz.sum(axis=0).T
        tensors[2 * idx] = _GradTensor(f"layer{idx}.weights", grad_w, frac + 2 * f)
        tensors[2 * idx + 1] = _GradTensor(f"layer{idx}.bias", grad_b, frac + f)
        if idx:
            delta = matmul(dz, _fixed(net.layers[idx].weights, f))
            frac += 2 * f
    if basis is None:
        for tensor in tensors:
            tensor.values = tensor.values[..., 0]
    else:
        for tensor, terms in zip(tensors, products(mapper, *[(t.values, basis)
                                                             for t in tensors])):
            tensor.values = terms.sum(axis=-1)
    return tensors


def _add_weight_decay(tensors: list[_GradTensor], net: Network, decay: float) -> list[_GradTensor]:
    params = [param for layer in net.layers for param in (layer.weights, layer.bias)]
    for tensor, param in zip(tensors, params):
        tensor.values = tensor.values + _fixed(decay * param, tensor.frac_bits)
    return tensors


# ---------------------------------------------------------------------------
# parties

def _party_keys(job: tuple[int, str, int]) -> tuple[KeyPair, tuple]:
    """keygen(key_bits, rng) on a party's seeded rng, and the rng's state
    after it; job is (key_bits, role, seed)."""
    key_bits, role, seed = job
    rng = random.Random(f"{role}:{seed}")
    return keygen(key_bits, rng), rng.getstate()


class _Party:
    """State shared by both roles: keys, channel, masks, audit trail.

    keys is _party_keys((key_bits, role, seed)); the rng continues from the
    state keygen left it in. mapper is the map own-key encryption and
    decryption batches go through.
    """

    role: str

    def __init__(self, channel, cfg: TrainingConfig, keys: tuple[KeyPair, tuple],
                 frac_bits: int):
        self.channel = channel
        self.cfg = cfg
        self.frac_bits = frac_bits
        self.keypair, rng_state = keys
        self.rng = random.Random()
        self.rng.setstate(rng_state)
        self.mapper = map
        self.peer_key: PublicKey | None = None
        self.keys: dict[bytes, PublicKey] = {self.keypair.public.fingerprint: self.keypair.public}
        self.align = alignment_spec(cfg.alignment)
        # Audit trail: every mask this party ever created with its fraction
        # bits, and every unmasked value it applied, keyed by (iteration,
        # tensor name).
        self.mask_log: dict[tuple[int, str], tuple[int, ...]] = {}
        self.mask_frac: dict[tuple[int, str], int] = {}
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

    def _read_components(self, payload: bytes) -> ComponentBatch:
        """The peer's component batch, checked against this party's own
        (n_c, n_ab, d, reg) in peer_shape."""
        comps = ComponentBatch.from_payload(payload, self.keys)
        comps.check(*self.peer_shape)
        return comps

    def exchange_keys(self):
        self._send(MsgType.PUBKEY, 0, _pubkey_payload(self.keypair.public))
        frame = self._recv({MsgType.PUBKEY: 0})
        self.peer_key = _read_pubkey(frame.payload)
        self.keys[self.peer_key.fingerprint] = self.peer_key

    def _encrypt(self, values) -> np.ndarray:
        """Every entry under this party's own key at frac_bits, row-major."""
        values = np.asarray(values, dtype=float)
        raws = [encode(v, self.frac_bits).raw for v in values.ravel()]
        cts = self.keypair.encrypt_raws(raws, self.frac_bits, self.rng, self.mapper)
        return np.array(cts, dtype=object).reshape(values.shape)

    def _mask(self, seq: int, name: str, values: np.ndarray, frac_bits: int) -> Section:
        """values plus a fresh mask at frac_bits, recorded under (seq, name),
        as a ciphertext section under the peer's key."""
        key = (seq, name)
        if key in self.mask_log:
            raise ProtocolError(f"mask for {key} would be reused")
        raws = _mask_raws(self.rng, values.size, frac_bits)
        self.mask_log[key], self.mask_frac[key] = tuple(raws), frac_bits
        masked = values.ravel() + np.array([FixedPoint(m, frac_bits) for m in raws], dtype=object)
        return _ct_section(name, values.shape, [
            m if isinstance(m, Ciphertext) else self.peer_key.encrypt_raw(m.raw, frac_bits, self.rng)
            for m in masked])

    def _decrypt_to_blob(self, sections: list[Section]) -> bytes:
        """Decrypt a peer's masked ciphertext sections into a DECRYPTED_BLOB;
        a ciphertext under any other key raises KeyMismatchError before any
        is decrypted."""
        parsed = [_section_cts(section, self.keys) for section in sections]
        raws = iter(self.keypair.private.decrypt_raws([ct for cts in parsed for ct in cts],
                                                      self.mapper))
        return pack_sections([
            _int_section(section.name, section.dims, cts[0].frac_bits if cts else 0,
                         list(itertools.islice(raws, len(cts))))
            for section, cts in zip(sections, parsed)])

    def _unmask(self, seq: int, name: str, raws: list[int]) -> list[int]:
        """Blob raws less the mask on record for (seq, name), logged as applied."""
        key = (seq, name)
        if key not in self.mask_log:
            raise ProtocolError(f"no mask on record for blob section {name}")
        mask = self.mask_log[key]
        if len(mask) != len(raws):
            raise ProtocolError(f"blob section {name} has wrong length")
        unmasked = [r - m for r, m in zip(raws, mask)]
        self.applied_log[key] = tuple(unmasked)
        return unmasked

    def _unmask_and_apply(self, net: Network, iteration: int, blob_payload: bytes,
                          learning_rate: float) -> dict[str, float]:
        """Exact integer unmasking, then one gradient step.

        Sections named layer*.{weights,bias} are this party's own gradient;
        anything else (the loss at the source) is unmasked and returned. Each
        is read at the fraction bits it was masked at, which the blob must
        repeat.
        """
        values = {}
        for name, frac_bits, raws in _read_blob(blob_payload):
            masked_at = self.mask_frac.get((iteration, name), frac_bits)
            if frac_bits != masked_at:
                raise ProtocolError(f"blob section {name} claims {frac_bits} fraction bits, "
                                    f"masked at {masked_at}")
            unmasked = self._unmask(iteration, name, raws)
            values[name] = np.array([u / (1 << frac_bits) for u in unmasked])
        for idx, layer in enumerate(net.layers):
            if f"layer{idx}.weights" not in values or f"layer{idx}.bias" not in values:
                raise ProtocolError(f"blob lacks the gradient of layer{idx}")
            layer.weights -= learning_rate * values.pop(f"layer{idx}.weights").reshape(
                layer.weights.shape)
            layer.bias -= learning_rate * values.pop(f"layer{idx}.bias")
        return {name: float(v[0]) for name, v in values.items()}

    # -- prediction roles (either party can serve or request)

    def request_labels(self, u_rows: np.ndarray) -> np.ndarray:
        """Send own encrypted representations, decrypt masked scores, get labels."""
        self.predict_seq += 1
        seq = self.predict_seq
        n, d = u_rows.shape
        self._send(MsgType.PREDICT_REQUEST, seq,
                   pack_sections([_ct_section("u", (n, d), self._encrypt(u_rows).flat)]))
        frame = self._recv({MsgType.PREDICT_MASKED: seq})
        self._send(MsgType.DECRYPTED_BLOB, seq,
                   self._decrypt_to_blob([_only(frame.payload, "predict.scores", 1)]))
        labels = _read_labels(self._recv({MsgType.PREDICT_LABELS: seq}).payload)
        if len(labels) != n:
            raise ProtocolError(f"{len(labels)} labels for {n} query rows")
        return labels

    def serve_labels(self, prototype: np.ndarray) -> np.ndarray:
        """Score encrypted peer representations against a local prototype."""
        self.predict_seq += 1
        seq = self.predict_seq
        request = _only(self._recv({MsgType.PREDICT_REQUEST: seq}).payload, "u", 2)
        n, d = request.dims
        if d != len(prototype):
            raise ProtocolError(f"prototype dim {len(prototype)} != request dim {d}")
        (terms,) = products(self.mapper, (_section_array(request, self.keys),
                                          _fixed(prototype, self.frac_bits)))
        scores = terms.sum(axis=-1)
        self._send(MsgType.PREDICT_MASKED, seq, pack_sections(
            [self._mask(seq, "predict.scores", scores, 2 * self.frac_bits)]))
        blob = self._recv({MsgType.DECRYPTED_BLOB: seq})
        _, raws = _section_ints(_only(blob.payload, "predict.scores", 1))
        # The tie at exactly zero classifies positive; integer-domain
        # unmasking keeps that decidable.
        labels = np.array([1 if u >= 0 else -1 for u in self._unmask(seq, "predict.scores", raws)],
                          dtype=int)
        self._send(MsgType.PREDICT_LABELS, seq,
                   pack_sections([_int_section("labels", (n,), 0, labels.tolist())]))
        return labels


class SourceParty(_Party):
    """Label-rich party: owns labels, builds the prototype, decides the stop."""

    role = "source"

    def __init__(self, split: FederationSplit, net: Network, cfg: TrainingConfig,
                 channel, keys: tuple[KeyPair, tuple], frac_bits: int):
        super().__init__(channel, cfg, keys, frac_bits)
        self.net = net
        self.x = split.x_source
        self.labels = split.labels_source.astype(int)
        self.labels_c = split.labels_for(split.labeled_ids).astype(int)
        self.ab_rows = split.source_rows(split.overlap_ids)
        self.peer_shape = (len(self.labels_c), len(self.ab_rows), net.hidden_dim, True)
        # Row j's coefficient on the pooled basis: y_j on pooled[o] at output o.
        self.coef = _fixed(self.labels[:, None, None] * np.eye(net.hidden_dim), 0)

    def compute_components(self, trace: list[np.ndarray]) -> ComponentBatch:
        """Encrypt the prototype-quadratic, prototype-linear, and alignment
        components under this party's own key."""
        u = trace[-1]
        prototype = label_prototype(u, self.labels)
        y = self.labels_c
        return ComponentBatch(
            self._encrypt((y * y)[:, None, None] * np.outer(0.125 * prototype, prototype)),
            self._encrypt((-0.5 * y)[:, None] * prototype),
            self._encrypt(self.cfg.gamma * self.align.kappa * u[self.ab_rows]))

    def assemble_loss(self, comps: ComponentBatch, quad: np.ndarray, trace: list[np.ndarray],
                      prototype: np.ndarray) -> Ciphertext:
        """Build [[loss]] under the target's key from the target's components;
        quad is comps.quad summed over labeled pairs."""
        f = self.frac_bits
        u_ab = trace[-1][self.ab_rows]
        y = self.labels_c
        constant = (len(y) * LOG2
                    + 0.5 * self.cfg.weight_decay * self.net.squared_param_norm()
                    + self.cfg.gamma * float(np.sum(self.align.own_loss(u_ab))))
        by_pair = products(self.mapper,
                           (quad, _fixed(np.outer(0.125 * prototype, prototype), f)),
                           (comps.lin, _fixed((-0.5 * y)[:, None] * prototype, f)),
                           (comps.align, _fixed(self.cfg.gamma * u_ab, f)))
        terms = [term for p in by_pair for term in p.flat] + [comps.reg, encode(constant, 2 * f)]
        # Structural zeros (quad's, without labeled pairs) are skipped, so no
        # addition of 0 reaches a ciphertext.
        return sum(term for term in terms if not is_zero(term))

    def assemble_gradient(self, comps: ComponentBatch, quad: np.ndarray,
                          trace: list[np.ndarray], prototype: np.ndarray) -> list[_GradTensor]:
        """Own-parameter gradient under the target's key, before masking.

        Every source row j receives (y_j / N) * S through the prototype path,
        where S pools the per-pair loss slopes against the target's encrypted
        representations; overlap rows add the alignment terms. So the d
        ciphertexts pooled = S / N are a basis every row shares with
        coefficient y_j = +-1, and only the overlap rows carry residual
        ciphertexts through encrypted_backward.
        """
        f, n, u = self.frac_bits, len(self.labels), trace[-1]
        by_quad, by_lin, by_align = products(
            self.mapper, (_fixed(0.25 * prototype / n, f)[:, None], quad),
            (_fixed(-0.5 * self.labels_c / n, f)[:, None], comps.lin),
            (comps.align, encode(self.cfg.gamma, f)))
        pooled = by_quad.sum(axis=0) + by_lin.sum(axis=0)
        tensors = encrypted_backward(self.net, trace, self.coef, f, pooled, self.mapper)
        if len(self.ab_rows):
            own_align = self.cfg.gamma * self.align.own_grad(u[self.ab_rows])
            residual = by_align + _fixed(own_align, 2 * f)
            rows = [a[self.ab_rows] for a in trace]
            for tensor, extra in zip(tensors, encrypted_backward(
                    self.net, rows, residual[:, :, None], f, mapper=self.mapper)):
                tensor.values = tensor.values + extra.values
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
            comps = self._read_components(frame.payload)
            # Labels are +-1, so y^2 = 1 and every labeled pair's quad
            # coefficient is the same: contract the pairs once, before any
            # multiply.
            quad = comps.quad.sum(axis=0)

            tensors = self.assemble_gradient(comps, quad, trace, prototype)
            self._send(MsgType.MASKED_GRAD_A, iteration, pack_sections(
                [self._mask(iteration, t.name, t.values, t.frac_bits) for t in tensors]))
            loss_ct = self.assemble_loss(comps, quad, trace, prototype)
            self._send(MsgType.ENC_LOSS, iteration, pack_sections(
                [self._mask(iteration, "loss", np.array(loss_ct), loss_ct.frac_bits)]))

            grad_frame = self._recv({MsgType.MASKED_GRAD_B: iteration})
            self._send(MsgType.DECRYPTED_BLOB, iteration,
                       self._decrypt_to_blob(unpack_sections(grad_frame.payload)))
            blob = self._recv({MsgType.DECRYPTED_BLOB: iteration})
            extras = self._unmask_and_apply(self.net, iteration, blob.payload,
                                            self.cfg.learning_rate)
            if "loss" not in extras:
                raise ProtocolError("target's blob did not return the loss")
            loss = extras["loss"]
            result.loss_history.append(loss)
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
                 channel, keys: tuple[KeyPair, tuple], frac_bits: int):
        super().__init__(channel, cfg, keys, frac_bits)
        self.net = net
        batch_ids, self.c_pos, self.ab_pos = target_batch(split)
        self.x = split.x_target[split.target_rows(batch_ids)]
        self.peer_shape = (len(self.c_pos), len(self.ab_pos), net.hidden_dim, False)

    def compute_components(self, trace: list[np.ndarray]) -> ComponentBatch:
        u = trace[-1]
        u_c, u_ab = u[self.c_pos], u[self.ab_pos]
        # The scalar loss share: this party's weight-decay term, plus its own
        # alignment terms when the alignment kind has any.
        reg_value = (0.5 * self.cfg.weight_decay * self.net.squared_param_norm()
                     + self.cfg.gamma * float(np.sum(self.align.own_loss(u_ab))))
        return ComponentBatch(self._encrypt(u_c[:, :, None] * u_c[:, None, :]),
                              self._encrypt(u_c), self._encrypt(self.align.kappa * u_ab),
                              self.keypair.encrypt(reg_value, 2 * self.frac_bits, self.rng))

    def assemble_gradient(self, comps: ComponentBatch, trace: list[np.ndarray]) -> list[_GradTensor]:
        """Own-parameter gradient under the source's key, before masking."""
        f, u = self.frac_bits, trace[-1]
        one = encode(1.0, f)  # lifts a component to the upstream's 2f fraction bits
        by_quad, by_lin, by_align = products(
            self.mapper, (comps.quad, _fixed(2.0 * u[self.c_pos], f)[:, None, :]),
            (comps.lin, one), (comps.align, one))
        upstream = np.zeros(u.shape, dtype=object)
        upstream[self.c_pos] = by_quad.sum(axis=-1) + by_lin
        own_align = self.cfg.gamma * self.align.own_grad(u[self.ab_pos])
        upstream[self.ab_pos] += by_align + _fixed(own_align, 2 * f)
        tensors = encrypted_backward(self.net, trace, upstream[:, :, None], f,
                                     mapper=self.mapper)
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
            comps = self._read_components(comps_frame.payload)

            tensors = self.assemble_gradient(comps, trace)
            self._send(MsgType.MASKED_GRAD_B, iteration, pack_sections(
                [self._mask(iteration, t.name, t.values, t.frac_bits) for t in tensors]))

            grad_frame = self._recv({MsgType.MASKED_GRAD_A: iteration})
            loss_frame = self._recv({MsgType.ENC_LOSS: iteration})
            sections = unpack_sections(grad_frame.payload)
            sections.append(_only(loss_frame.payload, "loss", 0))
            self._send(MsgType.DECRYPTED_BLOB, iteration, self._decrypt_to_blob(sections))

            own_blob = self._recv({MsgType.DECRYPTED_BLOB: iteration})
            self._unmask_and_apply(self.net, iteration, own_blob.payload,
                                   self.cfg.learning_rate)
        self._recv({MsgType.STOP: self.cfg.max_iterations})
        result.converged = True
        return result


# ---------------------------------------------------------------------------
# drivers

@dataclass
class EncryptedRunResult:
    result: TrainingResult
    transcript: Transcript
    source: SourceParty
    target: TargetParty


# How long the caller waits for the target thread once its own routine ended.
JOIN_TIMEOUT = 600.0


def _run_parties(split: FederationSplit, nets: tuple[Network, Network], cfg: TrainingConfig,
                 channels, key_bits: int, frac_bits: int, seed: int,
                 source_fn: Callable, target_fn: Callable):
    """Build both parties over the channel ends and run them side by side;
    returns ((source, target), (source_fn(source), target_fn(target))).

    The executor forks its workers at the keygen map, before the target
    thread starts; its map, one chunk per worker, is the only place that
    splits a batch. source_fn runs in the caller and target_fn on a thread.
    The first failure in time order is raised. However the run ends, both
    channel ends are closed, the executor is shut down, so no worker
    outlives the call, and both parties' mapper is map again.
    """
    cpus = len(os.sched_getaffinity(0))
    pool = (ProcessPoolExecutor(cpus, mp_context=multiprocessing.get_context("fork"))
            if cpus > 1 else None)

    def pooled(fn, jobs):
        return pool.map(fn, jobs, chunksize=-(-len(jobs) // cpus))

    mapper = map if pool is None else pooled
    parties, outcomes, errors = (), [None, None], []

    def run(index: int, fn: Callable):
        try:
            outcomes[index] = fn(parties[index])
        except BaseException as exc:  # noqa: BLE001 - re-raised below
            errors.append(exc)
            parties[index].channel.close()

    try:
        keys = list(mapper(_party_keys, [(key_bits, role, seed) for role in
                                         (SourceParty.role, TargetParty.role)]))
        parties = (SourceParty(split, nets[0], cfg, channels[0], keys[0], frac_bits),
                   TargetParty(split, nets[1], cfg, channels[1], keys[1], frac_bits))
        for party in parties:
            party.mapper = mapper
        thread = threading.Thread(target=run, args=(1, target_fn), daemon=True)
        thread.start()
        run(0, source_fn)
        thread.join(JOIN_TIMEOUT)
        if errors:
            raise errors[0]
        if thread.is_alive():
            raise ProtocolError("target thread did not finish")
        return parties, tuple(outcomes)
    finally:
        channels[0].close()
        channels[1].close()
        if pool is not None:
            pool.shutdown(cancel_futures=True)
        for party in parties:
            party.mapper = map


def train_encrypted(split: FederationSplit, net_source: Network, net_target: Network,
                    cfg: TrainingConfig, key_bits: int = 512, frac_bits: int = 40,
                    seed: int = 0, channels=None) -> EncryptedRunResult:
    """Run the full two-party protocol; both nets are updated in place.

    channels defaults to an in-process loopback pair; pass the triple from
    tcp_pair to run over sockets instead. Only the Taylor loss has an
    encrypted form, so any other loss_mode is rejected, and so is a net too
    deep for MAX_FRAC_BITS at frac_bits, before any key or frame.
    """
    if cfg.loss_mode != "taylor":
        raise ValueError(f"the encrypted engine trains the Taylor loss only, "
                         f"not loss_mode {cfg.loss_mode!r}")
    for role, net in (("source", net_source), ("target", net_target)):
        # Upstream enters at 2f fraction bits and each layer adds 2f.
        needed = 2 * frac_bits * (len(net.layers) + 1)
        if needed > MAX_FRAC_BITS:
            raise ValueError(f"the {len(net.layers)}-layer {role} net needs {needed} fraction "
                             f"bits at frac_bits {frac_bits}, over the limit "
                             f"MAX_FRAC_BITS = {MAX_FRAC_BITS}")
    if channels is None:
        channels = loopback_pair()
    (source, target), (res_source, _) = _run_parties(
        split, (net_source, net_target), cfg, channels, key_bits, frac_bits, seed,
        SourceParty.run_training, TargetParty.run_training)
    result = TrainingResult(net_source, net_target, res_source.loss_history,
                            res_source.converged)
    return EncryptedRunResult(result, channels[2], source, target)


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
    prototype = label_prototype(net_source.forward(split.x_source), split.labels_source)
    u_query = net_target.forward(split.x_target[split.target_rows(query_ids)])

    def serve(server: SourceParty) -> np.ndarray:
        server.exchange_keys()
        return server.serve_labels(prototype)

    def ask(requester: TargetParty) -> np.ndarray:
        requester.exchange_keys()
        return requester.request_labels(u_query)

    (server, requester), (_, labels) = _run_parties(
        split, (net_source, net_target), cfg, channels, key_bits, frac_bits, seed, serve, ask)
    return PredictionRunResult(labels, channels[2], server, requester)


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


def audit_training(transcript: Transcript, source: _Party, target: _Party) -> AuditReport:
    """Replay a transcript against both parties' mask and update logs."""
    report = AuditReport()
    keys = dict(source.keys)
    keys.update(target.keys)
    for direction, receiver in ((DIR_TARGET_TO_SOURCE, source), (DIR_SOURCE_TO_TARGET, target)):
        for record in transcript.frames(direction=direction):
            if record.msg_type in _CIPHERTEXT_ONLY:
                try:
                    for section in unpack_sections(record.payload):
                        _section_cts(section, keys)
                except WIRE_ERRORS as exc:
                    report.issues.append(f"{MsgType(record.msg_type).name} frame does not "
                                         f"parse as ciphertext-only: {exc}")
                else:
                    report.ciphertext_frames += 1
                continue
            if record.msg_type == MsgType.PREDICT_LABELS:
                report.label_frames += 1
                continue
            if record.msg_type != MsgType.DECRYPTED_BLOB:
                continue
            for name, _frac, raws in _read_blob(record.payload):
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
