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

The parties take turns: every frame is sent while its receiver waits for it
or will wait without sending first (only the two small PUBKEY frames cross
at once), so no send waits on a peer that is sending too. The target reads
COMPONENTS_A (or STOP) before it computes its own components, so exactly one
component batch per direction crosses the wire per executed iteration.

The two parties are threads of the calling process, built and run by one
driver, _run_parties. It opens a fork-context ProcessPoolExecutor of one
worker per usable CPU before the threads start (none on a single CPU). Both
keygens run on it side by side, each on its party's seeded rng, whose state
comes back with the keys. Then both parties hand it their exponentiations
through the executor's map, in one chunk per worker: every batch of own-key
encryptions (a party's whole component batch, reg scalar included, and
prediction requests), every decryption of the peer's masked sections, and
every batch of ciphertext-by-plaintext contractions (paillier.contractions)
that the loss, the gradients and the prediction scores are built from. The
workers run only paillier's kernels on (private key, residue, r), (private
key, value) and (bases, exponent columns, n^2) jobs. Channels, transcript,
masks, the homomorphic additions and every encryption's random r stay in
the parent, so each ciphertext and frame is the one a single core would
make. The only single encryptions, the peer-key mask entries of a gradient
entry no ciphertext reached, run in the party's thread.

A party that fails closes its channel end, which fails the peer's next recv
with ChannelClosed; the call raises the first failure in time order, so a
frame one party rejects surfaces as that party's ProtocolError. A worker
that dies breaks the executor, and the call raises BrokenProcessPool
instead of waiting for the lost job. The executor is shut down when the
call returns or fails.

Every frame is numbered: PUBKEY 0, the per-iteration frames their iteration,
STOP the last iteration run, and prediction frames 1, since each
predict_encrypted call builds fresh parties that serve or ask once. A frame
of an unexpected type or number raises ProtocolError.

Set-up is the PUBKEY exchange. Both parties take one key_bits, and keygen
gives a modulus of exactly that many bits, so a peer's modulus of any other
bit length raises ProtocolError before any COMPONENTS or score is sent:
no party masks its values under a weaker key than its own.

The encrypted algebra is the plaintext one, in numpy object arrays of
paillier.Ciphertext or the int 0, the structural zero that no ciphertext
reached (it adds nothing). Components are (n_c, d, d) quad, (n_c, d) lin and
(n_ab, d) align arrays. Quads are symmetric, and the source's 0.125 y^2 p p^T
is one for all pairs: a party encrypts upper triangles only, the source one
per iteration, and no receiver relies on that. Plaintext enters at two
points only. A product is a contraction of ciphertexts against float64
(paillier.contractions, a @ b), its plaintext factors multiplied in float64
and encoded once: encrypted_backward crosses a layer in one contraction per
output, at f more fraction bits, and the source's shared basis takes its
coefficients from plaintext Network.backward passes. And every masked entry
gets one plaintext addend, joined with its mask: a _Tensor carries as raws
at its fraction bits what its party computes alone (own alignment terms
through Network.backward plus weight decay, or the loss's constant), and
_mask adds plain + mask to each ciphertext entry with add_raw, or encrypts
it under the peer's key where no ciphertext reached. Each ciphertext is made
at the fraction bits its consumer uses: both parties' align, gamma kappa u,
and the source's lin at 2f, since the peer adds them to its 2f upstream as
they are, and the target's reg at 3f, the loss's fraction bits.

Every payload is a list of sections (transport.pack_sections). A section's
data is either serialized ciphertexts (ct, at the fraction bits given for
f = frac_bits, under the key given) or a frac byte and signed integers
(int), prod(dims) of them, row-major:

  frame            section           dims         data
  PUBKEY           n                 ()           int: the modulus (g = n + 1)
  COMPONENTS_A/B   quad              (n_c, d, d)  ct at f, sender's key, symmetric
                   lin               (n_c, d)     ct at 2f in A, f in B
                   align             (n_ab, d)    ct at 2f
                   reg               ()           ct at 3f, COMPONENTS_B only
  MASKED_GRAD_A/B  layer<i>.weights  (out, in)    ct, receiver's key, per layer
                   layer<i>.bias     (out,)       ct
  ENC_LOSS         loss              ()           ct at 3f, receiver's key
  DECRYPTED_BLOB   each section of the MASKED_GRAD (and the ENC_LOSS) it
                   answers, same name and dims   int
  PREDICT_REQUEST  u                 (n, d)       ct at f, sender's key
  PREDICT_MASKED   predict.scores    (n,)         ct, receiver's key
  DECRYPTED_BLOB   predict.scores    (n,)         int
  PREDICT_LABELS   labels            (n,)         int: +1 or -1
  STOP             empty payload

One rule reads every payload: its sections must be exactly the (name, dims)
list its receiver expects, in order, or ProtocolError is raised before any
value is decrypted, logged or applied; so is a COMPONENTS or PREDICT_REQUEST
ciphertext at other fraction bits than its section's above. Each read names
the key its frame must be under in the table, and a ciphertext under any
other raises KeyMismatchError there. The receiver knows every dim from its
own state: its n_c, n_ab and d for COMPONENTS, with reg at the source; for a
DECRYPTED_BLOB, the sections it masked under that number; and the n rows it
asked about for PREDICT_MASKED and PREDICT_LABELS. One routine, _unmask,
reads every DECRYPTED_BLOB: each section must also repeat the fraction bits
it was masked at, and each value be one a decryption returns and, unmasked,
one a float64 holds, before any is logged as applied. Only a
PREDICT_REQUEST's row count n is a wildcard. MASKED_GRAD follows the
sender's net, whose depth and input dim the receiver does not know: its
sections must be a chain of layer<i>.weights (out, in) and layer<i>.bias
(out,), each layer's in the previous layer's out and the last out the
receiver's own d, and the sender checks what comes back. A payload that does
not parse raises one of WIRE_ERRORS.
"""

from __future__ import annotations

import itertools
import math
import multiprocessing
import random
import threading
from collections.abc import Callable
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, replace

import numpy as np

from .datasets import FederationSplit
from .encoding import (DEFAULT_FRAC_BITS, MAX_FRAC_BITS, check_frac_bits, check_frac_match,
                       check_frac_sum, decode_raw, encode, encode_array)
from .nets import LayerParams, Network
from .paillier import (
    MIN_KEY_BITS,
    Ciphertext,
    CiphertextFormatError,
    KeyMismatchError,
    Mapper,
    PrivateKey,
    PublicKey,
    _workers,
    contractions,
    deserialize_ciphertext,
    keygen,
    serialize_ciphertext,
)
from .plain import (LOG2, PartyRows, TrainingConfig, TrainingResult, alignment_spec,
                    label_prototype, party_rows, predict_plain, threshold_labels, train_plain)
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
# Both parties' key size when the caller names none.
DEFAULT_KEY_BITS = 512


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


def _section_cts(section: Section, key: PublicKey, frac_bits: int | None = None) -> np.ndarray:
    """The section's ciphertexts as an object array of shape section.dims.
    Each must be under key, else KeyMismatchError, and at frac_bits fraction
    bits when that is given."""
    data, pos, out = section.data, 0, []
    for _ in range(math.prod(section.dims)):
        try:
            ct, pos = deserialize_ciphertext(data, key, pos)
        except KeyMismatchError as exc:
            raise KeyMismatchError(f"section {section.name}: {exc}") from None
        out.append(ct)
    if pos != len(data):
        raise FramingError(f"section {section.name}: trailing bytes after ciphertexts")
    if frac_bits is not None and any(ct.frac_bits != frac_bits for ct in out):
        raise ProtocolError(f"section {section.name} holds ciphertexts at other than "
                            f"{frac_bits} fraction bits")
    return np.array(out, dtype=object).reshape(section.dims)


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


Layout = list[tuple[str, tuple[int | None, ...]]]
# A ciphertext payload's layout: (name, dims, fraction bits) per section.
FracLayout = list[tuple[str, tuple[int | None, ...], int]]


def _read(payload: bytes, layout: Layout) -> list[Section]:
    """The payload's sections, which must be exactly layout's (name, dims)
    in order; a None dim matches any size."""
    sections = unpack_sections(payload)
    got = [(s.name, s.dims) for s in sections]
    if len(got) != len(layout) or not all(
            name == want and len(dims) == len(want_dims)
            and all(w is None or w == g for w, g in zip(want_dims, dims))
            for (name, dims), (want, want_dims) in zip(got, layout)):
        raise ProtocolError(f"expected sections {layout}, got {got}")
    return sections


def _read_gradient(payload: bytes, d: int) -> list[Section]:
    """A MASKED_GRAD payload's sections, which must be a net's gradient:
    layer<i>.weights (out, in) and layer<i>.bias (out,) for i = 0, 1, ...
    in order, each layer's in the previous layer's out, and the last out d.
    The first in and the depth are the sender's, read from the payload."""
    claimed = [s.dims[:1] for s in unpack_sections(payload)[::2]]
    outs = [dims[0] if dims else None for dims in claimed[:-1]] + [d]
    return _read(payload, [entry for i, out in enumerate(outs) for entry in (
        (f"layer{i}.weights", (out, outs[i - 1] if i else None)),
        (f"layer{i}.bias", (out,)))])


def _pubkey_payload(pk: PublicKey) -> bytes:
    # encrypt_residue fixes g = n + 1, so the modulus is the whole key.
    return pack_sections([_int_section("n", (), 0, [pk.modulus])])


def _read_pubkey(payload: bytes, bits: int) -> PublicKey:
    """The peer's public key, whose modulus must have the receiver's own
    key size, bits."""
    _, (n,) = _section_ints(*_read(payload, [("n", ())]))
    if n.bit_length() < MIN_KEY_BITS or n % 2 == 0:
        raise ProtocolError(f"public modulus of {n.bit_length()} bits is no Paillier modulus")
    if n.bit_length() != bits:
        raise ProtocolError(f"peer's public modulus has {n.bit_length()} bits, own key {bits}")
    return PublicKey(n)


def _read_labels(payload: bytes, n: int) -> np.ndarray:
    _, labels = _section_ints(*_read(payload, [("labels", (n,))]))
    if not set(labels) <= {-1, 1}:
        raise ProtocolError("predicted labels outside {-1, +1}")
    return np.array(labels, dtype=int)


# ---------------------------------------------------------------------------
# component batches

def _symmetric(upper: np.ndarray, d: int) -> np.ndarray:
    """(..., d, d) from row-major upper triangles on upper's last axis, mirrored."""
    rows, cols = np.triu_indices(d)
    index = np.empty((d, d), dtype=int)
    index[rows, cols] = index[cols, rows] = np.arange(len(rows))
    return upper[..., index]


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

    @staticmethod
    def layout(n_c: int, n_ab: int, d: int, frac_bits: int, reg: bool) -> FracLayout:
        """The sections of a batch of n_c labeled and n_ab overlap items of
        dimension d: the target's, with a reg scalar at 3 frac_bits, when
        reg, else the source's. quad is at frac_bits, align at 2 frac_bits,
        and lin at frac_bits in the target's batch and 2 frac_bits in the
        source's: the fraction bits their receiver uses them at."""
        return ([("quad", (n_c, d, d), frac_bits), ("lin", (n_c, d), (2 - reg) * frac_bits),
                 ("align", (n_ab, d), 2 * frac_bits)] + [("reg", (), 3 * frac_bits)] * reg)

    @classmethod
    def from_payload(cls, payload: bytes, key: PublicKey, layout: FracLayout) -> "ComponentBatch":
        sections = _read(payload, [entry[:2] for entry in layout])
        quad, lin, align, *reg = (_section_cts(section, key, frac)
                                  for section, (_, _, frac) in zip(sections, layout))
        return cls(quad, lin, align, *(r.item() for r in reg))


@dataclass
class _Tensor:
    """One section to mask; plain holds the raws at frac_bits that join the mask."""
    name: str
    values: np.ndarray  # entries Ciphertext or the structural zero 0
    frac_bits: int
    plain: np.ndarray | int = 0  # raws of values' shape, or 0


def encrypted_backward(net: Network, trace: list[np.ndarray], upstream: np.ndarray,
                       frac_bits: int, basis: np.ndarray | None = None,
                       mapper: Mapper = map) -> list[_Tensor]:
    """Network.backward over an encrypted upstream: layer0.weights,
    layer0.bias, layer1.weights, ..., each a _Tensor whose entries are
    at 2f + (L - i) f fraction bits for layer i of L, f being frac_bits.

    With basis None, upstream is (N, d): ciphertexts at 2f, or 0 where none
    reached. Activations and weights are local plaintext, so each layer is
    one contractions call of float64 products encoded once at f. With delta
    the layer's (N, out) upstream and slope = a_out (1 - a_out),
      grad[o, :] = sum_r delta[r, o] * enc(slope[r, o] [a_in[r, :] | 1])
      delta'[r, :] = sum_o delta[r, o] * enc(slope[r, o] W[o, :])
    the second only above the first layer. A gradient entry is 0 only when
    no row reaches it.

    With basis K ciphertexts at 2f, upstream is (N, d, K) float64: row r's
    upstream at output o is sum_k upstream[r, o, k] * basis[k]. Backprop is
    linear in the upstream, so K plaintext Network.backward passes give
    every entry's coefficients, each encoded once at the entry's fraction
    bits less the basis's 2f; the K basis ciphertexts then serve every entry,
    one contraction basis @ coefficients per tensor, all in one call. The
    cost of a basis does not grow with N.
    """
    f, depth = frac_bits, len(net.layers)
    kinds = ("weights", "bias")
    names = [f"layer{idx}.{kind}" for idx in range(depth) for kind in kinds]
    fracs = [(2 + depth - idx) * f for idx in range(depth) for _ in kinds]
    if basis is not None:
        passes = [net.backward(trace, upstream[..., k]) for k in range(len(basis))]
        coef = [np.stack([getattr(grads[idx], kind) for grads in passes], axis=-1)
                for idx in range(depth) for kind in kinds]
        products = contractions(mapper, *[(basis, c.reshape(-1, len(basis)).T, frac - 2 * f)
                                          for c, frac in zip(coef, fracs)])
        values = [p.reshape(c.shape[:-1]) for p, c in zip(products, coef)]
    else:
        values, delta = [None] * (2 * depth), upstream
        for idx in range(depth - 1, -1, -1):
            a_out, a_in = trace[idx + 1], trace[idx]
            slope = a_out * (1.0 - a_out)
            a_one = np.hstack([a_in, np.ones((len(a_in), 1))])  # a bias is a unit input
            # grad[o] = delta[:, o] @ (slope[:, o] [a_in | 1]) and, above the
            # first layer, delta'[r] = delta[r] @ (slope[r] W): one call.
            triples = [(delta.T[:, None, :], slope.T[:, :, None] * a_one, f)]
            if idx:
                triples.append((delta[:, None, :], slope[:, :, None] * net.layers[idx].weights, f))
            grad, *below = contractions(mapper, *triples)
            values[2 * idx], values[2 * idx + 1] = grad[:, 0, :-1], grad[:, 0, -1]
            if idx:
                delta = below[0][:, 0]
    return [_Tensor(*entry) for entry in zip(names, values, fracs)]


# ---------------------------------------------------------------------------
# parties

def _party_keys(job: tuple[int, str, int]) -> tuple[PrivateKey, tuple]:
    """keygen(key_bits, rng) on a party's seeded rng, and the rng's state
    after it; job is (key_bits, role, seed)."""
    key_bits, role, seed = job
    rng = random.Random(f"{role}:{seed}")
    return keygen(key_bits, rng), rng.getstate()


class _Party:
    """State shared by both roles: own rows, keys, channel, masks, audit trail.

    keys is _party_keys((key_bits, role, seed)); the rng continues from the
    state keygen left it in. mapper is the map own-key encryption and
    decryption batches go through.
    """

    role: str

    def __init__(self, rows: PartyRows, net: Network, cfg: TrainingConfig,
                 channel, keys: tuple[PrivateKey, tuple], frac_bits: int):
        self.rows = rows
        self.channel = channel
        self.net = net
        self.cfg = cfg
        self.frac_bits = frac_bits
        self.own_key, rng_state = keys
        self.rng = random.Random()
        self.rng.setstate(rng_state)
        self.mapper = map
        self.peer_key: PublicKey | None = None
        self.align = alignment_spec(cfg.alignment)
        # Audit trail: every mask this party ever created, and every
        # unmasked value it applied, keyed by (frame number, section name).
        self.mask_log: dict[tuple[int, str], tuple[int, ...]] = {}
        self.applied_log: dict[tuple[int, str], tuple[int, ...]] = {}
        # (name, dims, frac_bits) per section masked under a frame number
        # whose blob has not come back yet.
        self.awaiting: dict[int, list[tuple[str, tuple[int, ...], int]]] = {}

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
        self._send(MsgType.PUBKEY, 0, _pubkey_payload(self.own_key.public))
        frame = self._recv({MsgType.PUBKEY: 0})
        self.peer_key = _read_pubkey(frame.payload, self.own_key.public.modulus.bit_length())

    def _encrypt(self, *parts: tuple[np.ndarray, int]) -> list[np.ndarray]:
        """Every entry of every (values, frac_bits) part under this party's
        own key at its part's frac_bits, as one batch whose r are drawn part
        after part, row-major."""
        raws = [(encode_array(values, frac_bits), frac_bits) for values, frac_bits in parts]
        cts = iter(self.own_key.encrypt_raws([raw for part, _ in raws for raw in part.flat],
                                             [frac for part, frac in raws for _ in part.flat],
                                             self.rng, self.mapper))
        return [np.array([next(cts) for _ in range(part.size)], dtype=object).reshape(part.shape)
                for part, _ in raws]

    def _with_plain_part(self, tensors: list[_Tensor], trace: list[np.ndarray]) -> list[_Tensor]:
        """Give every tensor, encoded once at its fraction bits, the part of
        this party's gradient it holds in plaintext, as the plaintext oracle
        computes it: Network.backward of gamma * own_grad on its overlap rows
        (0 elsewhere), plus weight decay * theta."""
        ab_rows = self.rows.ab_rows
        upstream = np.zeros(trace[-1].shape)
        upstream[ab_rows] = self.cfg.gamma * self.align.own_grad(trace[-1][ab_rows])
        grads = self.net.backward(trace, upstream)
        parts = [getattr(grad, kind) + self.cfg.weight_decay * getattr(layer, kind)
                 for grad, layer in zip(grads, self.net.layers) for kind in ("weights", "bias")]
        for tensor, part in zip(tensors, parts):
            tensor.plain = encode_array(part, tensor.frac_bits)
        return tensors

    def _mask(self, seq: int, tensor: _Tensor) -> Section:
        """tensor plus a fresh mask at its fraction bits, recorded under (seq,
        name), as a ciphertext section under the peer's key: ct.add_raw(plain
        + mask) per ciphertext, Enc_peer(plain + mask) per structural zero.
        A ciphertext at other fraction bits raises before any mask is drawn."""
        name, values, frac_bits = tensor.name, tensor.values, tensor.frac_bits
        key = (seq, name)
        if key in self.mask_log:
            raise ProtocolError(f"mask for {key} would be reused")
        for frac in {ct.frac_bits for ct in values.flat if isinstance(ct, Ciphertext)}:
            check_frac_match(frac, frac_bits)
        bound = 1 << (MASK_MAGNITUDE_BITS + frac_bits)
        raws = [self.rng.randrange(-bound, bound + 1) for _ in range(values.size)]
        self.mask_log[key] = tuple(raws)
        self.awaiting.setdefault(seq, []).append((name, values.shape, frac_bits))
        plain = np.broadcast_to(np.asarray(tensor.plain, dtype=object), values.shape).flat
        return _ct_section(name, values.shape, [
            v.add_raw(p + m) if isinstance(v, Ciphertext)
            else self.peer_key.encrypt_raw(p + m, frac_bits, self.rng)
            for v, p, m in zip(values.flat, plain, raws)])

    def _decrypt_to_blob(self, sections: list[Section]) -> bytes:
        """Decrypt a peer's masked ciphertext sections into a DECRYPTED_BLOB;
        a ciphertext under any key but this party's own raises
        KeyMismatchError before any is decrypted."""
        parsed = [_section_cts(section, self.own_key.public).ravel() for section in sections]
        raws = iter(self.own_key.decrypt_raws([ct for cts in parsed for ct in cts], self.mapper))
        return pack_sections([
            _int_section(section.name, section.dims, cts[0].frac_bits if len(cts) else 0,
                         list(itertools.islice(raws, len(cts))))
            for section, cts in zip(sections, parsed)])

    def _unmask(self, seq: int, payload: bytes) -> dict[str, np.ndarray]:
        """What this party masked under seq, unmasked and decoded, by name.

        The blob must hold exactly those sections, in order, each at the
        fraction bits it was masked at, every raw one that a decryption
        under the peer's key can return (|raw| <= n/2), and every unmasked
        value one a float64 holds; else ProtocolError is raised before any
        value is logged as applied.
        """
        masked = self.awaiting.pop(seq, [])
        sections = _read(payload, [(name, dims) for name, dims, _ in masked])
        bound, unmasked, values = self.peer_key.modulus // 2, {}, {}
        for section, (name, dims, frac_bits) in zip(sections, masked):
            claimed, raws = _section_ints(section)
            # An empty section has no ciphertext whose fraction bits it could repeat.
            if raws and claimed != frac_bits:
                raise ProtocolError(f"blob section {name} claims {claimed} fraction bits, "
                                    f"masked at {frac_bits}")
            if any(abs(r) > bound for r in raws):
                raise ProtocolError(f"blob section {name} holds a value no decryption returns")
            unmasked[name] = tuple(r - m for r, m in zip(raws, self.mask_log[seq, name]))
            try:
                values[name] = np.reshape([decode_raw(u, frac_bits) for u in unmasked[name]], dims)
            except OverflowError:
                raise ProtocolError("an unmasked value does not fit a float64") from None
        self.applied_log.update(((seq, name), u) for name, u in unmasked.items())
        return values

    def _loss_share(self, u_ab: np.ndarray, start: float = 0.0) -> float:
        """start, plus this party's weight-decay term and its own alignment
        terms on its overlap rows u_ab, summed left to right: the golden
        digests pin that float order."""
        return (start + 0.5 * self.cfg.weight_decay * self.net.squared_param_norm()
                + self.cfg.gamma * float(np.sum(self.align.own_loss(u_ab))))

    def _unmask_and_apply(self, seq: int, payload: bytes) -> dict[str, float]:
        """_unmask, then one step of this party's net on its layer*.{weights,
        bias} sections; the rest (the loss at the source) are returned."""
        values = self._unmask(seq, payload)
        self.net.apply_gradients([LayerParams(values.pop(f"layer{idx}.weights"),
                                              values.pop(f"layer{idx}.bias"))
                                  for idx in range(len(self.net.layers))], self.cfg.learning_rate)
        return {name: float(v) for name, v in values.items()}

    # -- prediction roles: the party with labels serves, the other requests

    def request_labels(self, x_rows: np.ndarray) -> np.ndarray:
        """Send the encrypted representations of own feature rows x_rows,
        decrypt the masked scores, get labels."""
        seq = 1
        u_rows = self.net.forward(x_rows)
        n, d = u_rows.shape
        (u,) = self._encrypt((u_rows, self.frac_bits))
        self._send(MsgType.PREDICT_REQUEST, seq, pack_sections([_ct_section("u", (n, d), u.flat)]))
        frame = self._recv({MsgType.PREDICT_MASKED: seq})
        self._send(MsgType.DECRYPTED_BLOB, seq, self._decrypt_to_blob(
            _read(frame.payload, [("predict.scores", (n,))])))
        return _read_labels(self._recv({MsgType.PREDICT_LABELS: seq}).payload, n)

    def serve_labels(self) -> np.ndarray:
        """Score encrypted peer representations against the prototype of
        own rows and labels."""
        seq = 1
        prototype = label_prototype(self.net.forward(self.rows.x), self.rows.labels)
        (request,) = _read(self._recv({MsgType.PREDICT_REQUEST: seq}).payload,
                           [("u", (None, len(prototype)))])
        u = _section_cts(request, self.peer_key, self.frac_bits)
        (scores,) = contractions(self.mapper, (u, prototype, self.frac_bits))
        self._send(MsgType.PREDICT_MASKED, seq, pack_sections(
            [self._mask(seq, _Tensor("predict.scores", scores, 2 * self.frac_bits))]))
        # decode_raw keeps every sign and zero, so the tie at exactly zero
        # classifies positive here as it does in the integers.
        labels = threshold_labels(self._unmask(
            seq, self._recv({MsgType.DECRYPTED_BLOB: seq}).payload)["predict.scores"])
        self._send(MsgType.PREDICT_LABELS, seq,
                   pack_sections([_int_section("labels", labels.shape, 0, labels.tolist())]))
        return labels


class SourceParty(_Party):
    """Label-rich party: owns labels, builds the prototype, decides the stop."""

    role = "source"

    def __init__(self, rows: PartyRows, net: Network, cfg: TrainingConfig,
                 channel, keys: tuple[PrivateKey, tuple], frac_bits: int):
        super().__init__(rows, net, cfg, channel, keys, frac_bits)
        self.labels_c = rows.labels[rows.c_rows]
        self.peer_layout = ComponentBatch.layout(len(rows.c_rows), len(rows.ab_rows),
                                                 net.hidden_dim, frac_bits, True)
        # Row j's coefficient on the pooled basis: y_j on pooled[o] at output o.
        self.coef = rows.labels[:, None, None] * np.eye(net.hidden_dim)

    def compute_components(self, trace: list[np.ndarray], prototype: np.ndarray) -> ComponentBatch:
        """Encrypt quad, lin and align under this party's own key, lin and
        align at 2f: the target adds them to its 2f upstream as they are.
        y^2 = 1, so every pair's quad is the one symmetric 0.125 p p^T: its
        upper triangle is encrypted once (none with no labeled pair)."""
        u, y, f, d = trace[-1], self.labels_c, self.frac_bits, len(prototype)
        upper, lin, align = self._encrypt(
            (np.outer(0.125 * prototype, prototype)[np.triu_indices(d)][None, :][:len(y)], f),
            ((-0.5 * y)[:, None] * prototype, 2 * f),
            (self.cfg.gamma * self.align.kappa * u[self.rows.ab_rows], 2 * f))
        return ComponentBatch(np.broadcast_to(_symmetric(upper, d), (len(y), d, d)), lin, align)

    def assemble_loss(self, comps: ComponentBatch, quad: np.ndarray, trace: list[np.ndarray],
                      prototype: np.ndarray) -> _Tensor:
        """Build [[loss]] under the target's key from the target's components,
        at 3f: the pair terms plus reg, with the source's own constant as its
        plaintext part; quad is comps.quad summed over labeled pairs."""
        f = self.frac_bits
        u_ab = trace[-1][self.rows.ab_rows]
        y = self.labels_c
        constant = self._loss_share(u_ab, len(y) * LOG2)
        # Each pair term is a contraction landing at 3f: quad and lin (at f)
        # against coefficients at 2f, and align (at 2f) against u at f.
        pairs = contractions(self.mapper, (
            np.concatenate([quad.ravel(), comps.lin.ravel()]),
            np.concatenate([np.outer(0.125 * prototype, prototype).ravel(),
                            ((-0.5 * y)[:, None] * prototype).ravel()]), 2 * f),
            (comps.align.ravel(), u_ab.ravel(), f))
        loss = sum((p.item() for p in pairs if isinstance(p.item(), Ciphertext)), comps.reg)
        return _Tensor("loss", np.array(loss), 3 * f, encode(constant, 3 * f))

    def assemble_gradient(self, comps: ComponentBatch, quad: np.ndarray,
                          trace: list[np.ndarray], prototype: np.ndarray) -> list[_Tensor]:
        """Own-parameter gradient under the target's key, before masking.

        Every source row j receives (y_j / N) * S through the prototype path,
        where S pools the per-pair loss slopes against the target's encrypted
        representations; overlap rows add the target's align, gamma kappa u
        at 2f. So the d ciphertexts pooled = S / N are a basis every row
        shares with coefficient y_j = +-1, and only the overlap rows carry
        ciphertexts of their own through encrypted_backward.
        """
        f, n = self.frac_bits, len(self.rows.labels)
        (pooled,) = contractions(self.mapper, (
            np.concatenate([quad, comps.lin]).T,
            np.concatenate([0.25 * prototype / n, -0.5 * self.labels_c / n]), f))
        tensors = encrypted_backward(self.net, trace, self.coef, f, pooled, self.mapper)
        for tensor, extra in zip(tensors, encrypted_backward(
                self.net, [a[self.rows.ab_rows] for a in trace], comps.align, f,
                mapper=self.mapper)):
            tensor.values = tensor.values + extra.values
        return self._with_plain_part(tensors, trace)

    def run_training(self) -> TrainingResult:
        self.exchange_keys()
        result = TrainingResult(self.net, None)
        previous = math.inf
        for iteration in range(1, self.cfg.max_iterations + 1):
            trace = self.net.forward_trace(self.rows.x)
            prototype = label_prototype(trace[-1], self.rows.labels)
            self._send(MsgType.COMPONENTS_A, iteration,
                       self.compute_components(trace, prototype).to_payload())
            frame = self._recv({MsgType.COMPONENTS_B: iteration})
            comps = ComponentBatch.from_payload(frame.payload, self.peer_key, self.peer_layout)
            # Labels are +-1, so y^2 = 1 and every labeled pair's quad
            # coefficient is the same: contract the pairs once, before any
            # multiply.
            quad = comps.quad.sum(axis=0)

            tensors = self.assemble_gradient(comps, quad, trace, prototype)
            loss_tensor = self.assemble_loss(comps, quad, trace, prototype)
            self._send(MsgType.MASKED_GRAD_A, iteration, pack_sections(
                [self._mask(iteration, tensor) for tensor in tensors]))
            self._send(MsgType.ENC_LOSS, iteration,
                       pack_sections([self._mask(iteration, loss_tensor)]))

            grad_frame = self._recv({MsgType.MASKED_GRAD_B: iteration})
            self._send(MsgType.DECRYPTED_BLOB, iteration, self._decrypt_to_blob(
                _read_gradient(grad_frame.payload, self.net.hidden_dim)))
            blob = self._recv({MsgType.DECRYPTED_BLOB: iteration})
            loss = self._unmask_and_apply(iteration, blob.payload)["loss"]
            result.loss_history.append(loss)
            if previous - loss <= self.cfg.tolerance:
                result.converged = True
                break
            previous = loss
        self._send(MsgType.STOP, iteration)
        return result


class TargetParty(_Party):
    """Label-poor party: computes representations for the shared pairs."""

    role = "target"

    def __init__(self, rows: PartyRows, net: Network, cfg: TrainingConfig,
                 channel, keys: tuple[PrivateKey, tuple], frac_bits: int):
        super().__init__(rows, net, cfg, channel, keys, frac_bits)
        self.peer_layout = ComponentBatch.layout(len(rows.c_rows), len(rows.ab_rows),
                                                 net.hidden_dim, frac_bits, False)

    def compute_components(self, trace: list[np.ndarray]) -> ComponentBatch:
        u = trace[-1]
        u_c, u_ab = u[self.rows.c_rows], u[self.rows.ab_rows]
        f, (rows, cols) = self.frac_bits, np.triu_indices(u.shape[1])
        upper, lin, align, reg = self._encrypt(
            (u_c[:, rows] * u_c[:, cols], f), (u_c, f),
            (self.cfg.gamma * self.align.kappa * u_ab, 2 * f), (self._loss_share(u_ab), 3 * f))
        return ComponentBatch(_symmetric(upper, u.shape[1]), lin, align, reg.item())

    def assemble_gradient(self, comps: ComponentBatch, trace: list[np.ndarray]) -> list[_Tensor]:
        """Own-parameter gradient under the source's key, before masking."""
        f, u = self.frac_bits, trace[-1]
        # Pair c's upstream at output o contracts quad[c, o, :] against 2 u_c
        # and adds lin[c, o]; the source sent lin and align at 2f.
        (by_pair,) = contractions(self.mapper,
                                  (comps.quad, 2.0 * u[self.rows.c_rows, :, None], f))
        upstream = np.zeros(u.shape, dtype=object)
        upstream[self.rows.c_rows] = by_pair[..., 0] + comps.lin
        upstream[self.rows.ab_rows] += comps.align
        tensors = encrypted_backward(self.net, trace, upstream, f, mapper=self.mapper)
        return self._with_plain_part(tensors, trace)

    def run_training(self):
        self.exchange_keys()
        for iteration in range(1, self.cfg.max_iterations + 1):
            # STOP carries the last iteration the source ran; none is numbered 0.
            expected = {MsgType.COMPONENTS_A: iteration}
            if iteration > 1:
                expected[MsgType.STOP] = iteration - 1
            frame = self._recv(expected)
            if frame.msg_type == MsgType.STOP:
                return
            comps = ComponentBatch.from_payload(frame.payload, self.peer_key, self.peer_layout)
            trace = self.net.forward_trace(self.rows.x)
            self._send(MsgType.COMPONENTS_B, iteration,
                       self.compute_components(trace).to_payload())
            tensors = self.assemble_gradient(comps, trace)

            grad_frame = self._recv({MsgType.MASKED_GRAD_A: iteration})
            loss_frame = self._recv({MsgType.ENC_LOSS: iteration})
            self._send(MsgType.MASKED_GRAD_B, iteration, pack_sections(
                [self._mask(iteration, tensor) for tensor in tensors]))
            blob = self._decrypt_to_blob(_read_gradient(grad_frame.payload, self.net.hidden_dim)
                                         + _read(loss_frame.payload, [("loss", ())]))

            own_blob = self._recv({MsgType.DECRYPTED_BLOB: iteration})
            self._send(MsgType.DECRYPTED_BLOB, iteration, blob)
            self._unmask_and_apply(iteration, own_blob.payload)
        self._recv({MsgType.STOP: self.cfg.max_iterations})


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


def _close(channels):
    channels[0].close()
    channels[1].close()


def _run_parties(split: FederationSplit, nets: tuple[Network, Network], cfg: TrainingConfig,
                 channels, key_bits: int, frac_bits: int, seed: int,
                 source_fn: Callable, target_fn: Callable):
    """Build both parties, each from its own rows of split, over the channel
    ends and run them side by side; returns ((source, target),
    (source_fn(source), target_fn(target))).

    The executor forks its workers at the keygen map, before the target
    thread starts; its map cuts every batch into one chunk per worker, and
    _workers() sizes both it and a contraction's strides. source_fn runs in
    the caller and target_fn on a thread. The first failure in time order
    is raised. However the run ends, both channel ends are closed, the
    executor is shut down, so no worker outlives the call, and both
    parties' mapper is map again.
    """
    cpus = _workers()
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
        rows = party_rows(split)
        parties = (SourceParty(rows[0], nets[0], cfg, channels[0], keys[0], frac_bits),
                   TargetParty(rows[1], nets[1], cfg, channels[1], keys[1], frac_bits))
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
        _close(channels)
        if pool is not None:
            pool.shutdown(cancel_futures=True)
        for party in parties:
            party.mapper = map


def check_depth(role: str, layers: int, frac_bits: int):
    """Refuse a negative frac_bits, and a net too deep for MAX_FRAC_BITS: its
    gradient's upstream enters at 2f fraction bits and each layer adds f."""
    check_frac_bits(frac_bits)
    if (needed := frac_bits * (layers + 2)) > MAX_FRAC_BITS:
        raise ValueError(f"the {layers}-layer {role} net needs {needed} fraction bits at "
                         f"frac_bits {frac_bits}, over the limit MAX_FRAC_BITS = {MAX_FRAC_BITS}")


def check_loss_mode(loss_mode: str):
    """Refuse a loss with no encrypted form: only the Taylor loss has one."""
    if loss_mode != "taylor":
        raise ValueError(f"the encrypted engine trains the Taylor loss only, "
                         f"not loss_mode {loss_mode!r}")


def train_encrypted(split: FederationSplit, net_source: Network, net_target: Network,
                    cfg: TrainingConfig, key_bits: int = DEFAULT_KEY_BITS,
                    frac_bits: int = DEFAULT_FRAC_BITS, seed: int = 0,
                    channels=None) -> EncryptedRunResult:
    """Run the full two-party protocol; both nets are updated in place.

    channels defaults to loopback_pair(); pass the triple from tcp_pair to
    run over localhost TCP instead. An invalid split, a loss with no
    encrypted form and a net too deep for MAX_FRAC_BITS at frac_bits are
    refused before any key or frame. channels are closed however the call
    ends, a refusal included.
    """
    if channels is None:
        channels = loopback_pair()
    try:
        split.validate()
        check_loss_mode(cfg.loss_mode)
        for role, net in (("source", net_source), ("target", net_target)):
            check_depth(role, len(net.layers), frac_bits)
    except ValueError:
        _close(channels)
        raise
    (source, target), (result, _) = _run_parties(
        split, (net_source, net_target), cfg, channels, key_bits, frac_bits, seed,
        SourceParty.run_training, TargetParty.run_training)
    return EncryptedRunResult(replace(result, net_target=net_target), channels[2], source, target)


@dataclass
class PredictionRunResult:
    labels: np.ndarray
    transcript: Transcript
    server: _Party
    requester: _Party


def predict_encrypted(split: FederationSplit, net_source: Network, net_target: Network,
                      query_ids, key_bits: int = DEFAULT_KEY_BITS,
                      frac_bits: int = DEFAULT_FRAC_BITS, seed: int = 0,
                      channels=None) -> PredictionRunResult:
    """Label target-side query rows without revealing either party's data.

    The target encrypts its representations under its own key; the source
    scores them at 2f against the label prototype, masks, and returns only
    the thresholded labels. f = frac_bits outside [0, MAX_FRAC_BITS // 2] is
    refused before any key or frame. channels are closed however the call ends.
    """
    if channels is None:
        channels = loopback_pair()
    try:
        check_frac_bits(frac_bits)
        check_frac_sum(frac_bits, frac_bits)
        x_query = split.x_target[split.target_rows(query_ids)]
    except BaseException:
        _close(channels)
        raise

    def serve(server: SourceParty) -> np.ndarray:
        server.exchange_keys()
        return server.serve_labels()

    def ask(requester: TargetParty) -> np.ndarray:
        requester.exchange_keys()
        return requester.request_labels(x_query)

    (server, requester), (_, labels) = _run_parties(
        split, (net_source, net_target), TrainingConfig(), channels, key_bits, frac_bits, seed,
        serve, ask)
    return PredictionRunResult(labels, channels[2], server, requester)


ENGINE_KINDS = ("plain", "encrypted")


@dataclass(frozen=True)
class Engine:
    """The plaintext oracle or the two-party protocol behind one interface.

    channels opens a fresh (source end, target end, transcript) triple for
    each encrypted run; the plain engine never calls it.
    """

    kind: str = "plain"
    key_bits: int = DEFAULT_KEY_BITS
    frac_bits: int = DEFAULT_FRAC_BITS
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


# The frames under their sender's key, then those under their receiver's.
_SENDER_KEY = (MsgType.COMPONENTS_A, MsgType.COMPONENTS_B, MsgType.PREDICT_REQUEST)
_CIPHERTEXT_ONLY = _SENDER_KEY + (MsgType.MASKED_GRAD_A, MsgType.MASKED_GRAD_B,
                                  MsgType.ENC_LOSS, MsgType.PREDICT_MASKED)


def audit_training(transcript: Transcript, source: _Party, target: _Party) -> AuditReport:
    """Replay a transcript against both parties' mask and update logs."""
    report = AuditReport()
    for direction, sender, receiver in ((DIR_TARGET_TO_SOURCE, target, source),
                                        (DIR_SOURCE_TO_TARGET, source, target)):
        for record in transcript.frames(direction=direction):
            if record.msg_type in _CIPHERTEXT_ONLY:
                owner = sender if record.msg_type in _SENDER_KEY else receiver
                try:
                    for section in unpack_sections(record.payload):
                        _section_cts(section, owner.own_key.public)
                except WIRE_ERRORS as exc:
                    report.issues.append(f"{MsgType(record.msg_type).name} frame does not parse "
                                         f"as ciphertexts under the {owner.role}'s key: {exc}")
                else:
                    report.ciphertext_frames += 1
                continue
            if record.msg_type == MsgType.PREDICT_LABELS:
                report.label_frames += 1
                continue
            if record.msg_type != MsgType.DECRYPTED_BLOB:
                continue
            for section in unpack_sections(record.payload):
                _, raws = _section_ints(section)
                key = (record.iteration, section.name)
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
