import multiprocessing
import random
from concurrent.futures import ProcessPoolExecutor
from contextlib import contextmanager

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from secureftl.encoding import EncodingOverflowError, FixedPoint, encode
from secureftl.paillier import (
    Ciphertext,
    CiphertextFormatError,
    KeyMismatchError,
    KeyPair,
    PublicKey,
    _power_job,
    ciphertext_wire_size,
    deserialize_ciphertext,
    keygen,
    products,
    serialize_ciphertext,
)

KEYS = keygen(bits=512, rng=random.Random(1))
PK, SK = KEYS.public, KEYS.private


def test_keygen_deterministic():
    again = keygen(bits=512, rng=random.Random(1))
    assert again.public.modulus == PK.modulus
    other = keygen(bits=512, rng=random.Random(2))
    assert other.public.modulus != PK.modulus


def test_keygen_keeps_fingerprint():
    # Pinned before keys kept their factorization: keygen draws the same primes.
    assert PK.fingerprint.hex() == "22d973cb450e04f5"


def test_modulus_size():
    assert 511 <= PK.modulus.bit_length() <= 512
    assert PK.generator == PK.modulus + 1


def test_roundtrip_float():
    rng = random.Random(7)
    ct = PK.encrypt(3.25, frac_bits=8, rng=rng)
    assert SK.decrypt(ct) == 3.25
    ct = PK.encrypt(-1234.5, frac_bits=8, rng=rng)
    assert SK.decrypt(ct) == -1234.5


@settings(max_examples=60)
@given(st.integers(min_value=-(2 ** 100), max_value=2 ** 100),
       st.integers(min_value=-(2 ** 100), max_value=2 ** 100))
def test_additive_homomorphism(a, b):
    rng = random.Random(a & 0xFFFF)
    ca = PK.encrypt_raw(a, frac_bits=0, rng=rng)
    cb = PK.encrypt_raw(b, frac_bits=0, rng=rng)
    assert SK.decrypt_raw(ca + cb) == a + b


@settings(max_examples=60)
@given(st.integers(min_value=-(2 ** 60), max_value=2 ** 60),
       st.integers(min_value=-(2 ** 20), max_value=2 ** 20))
def test_scalar_homomorphism(a, k):
    rng = random.Random(k & 0xFFFF)
    ca = PK.encrypt_raw(a, frac_bits=0, rng=rng)
    assert SK.decrypt_raw(ca.mul_int(k)) == a * k


def test_add_requires_matching_frac():
    rng = random.Random(3)
    ca = PK.encrypt(1.0, frac_bits=8, rng=rng)
    cb = PK.encrypt(1.0, frac_bits=9, rng=rng)
    with pytest.raises(ValueError):
        _ = ca + cb


def test_add_raw():
    rng = random.Random(4)
    ct = PK.encrypt_raw(100, frac_bits=5, rng=rng)
    assert SK.decrypt_raw(ct.add_raw(-300)) == -200


def test_add_fixed_point():
    rng = random.Random(4)
    ct = PK.encrypt_raw(100, frac_bits=5, rng=rng)
    out = ct + FixedPoint(-300, 5)
    assert out.frac_bits == 5
    assert SK.decrypt_raw(out) == SK.decrypt_raw(FixedPoint(-300, 5) + ct) == -200


def test_mul_fixed_point_accumulates_frac():
    rng = random.Random(5)
    ct = PK.encrypt(2.5, frac_bits=10, rng=rng)
    for out in (ct * encode(1.5, 10), encode(1.5, 10) * ct):
        assert out.frac_bits == 20
        assert SK.decrypt(out) == pytest.approx(3.75, abs=2e-3)


def test_mul_by_encoded_one_lifts():
    rng = random.Random(6)
    ct = PK.encrypt(2.0, frac_bits=10, rng=rng)
    lifted = ct * encode(1.0, 5)
    assert lifted.frac_bits == 15
    assert SK.decrypt(lifted) == 2.0


def test_operator_fraction_mismatch_raises():
    ct = PK.encrypt(1.0, frac_bits=8, rng=random.Random(3))
    with pytest.raises(EncodingOverflowError, match="fraction-bit mismatch in addition: 8 vs 9"):
        _ = ct + FixedPoint(1, 9)
    with pytest.raises(EncodingOverflowError, match="fraction-bit mismatch"):
        _ = FixedPoint(1, 9) + ct


def test_operator_fraction_overflow_raises():
    ct = PK.encrypt(1.0, frac_bits=200, rng=random.Random(3))
    with pytest.raises(EncodingOverflowError, match="fraction bits 260 exceed 255"):
        _ = ct * FixedPoint(1, 60)


def test_zero_is_structural():
    ct = PK.encrypt(1.5, frac_bits=8, rng=random.Random(3))
    assert ct + 0 is ct and 0 + ct is ct
    assert ct * 0 == 0 and 0 * ct == 0
    assert isinstance(ct * FixedPoint(0, 8), Ciphertext)
    assert SK.decrypt(ct * FixedPoint(0, 8)) == 0.0


def test_wire_size():
    assert ciphertext_wire_size(512) == 141
    assert ciphertext_wire_size(1024) == 269


def test_serialize_roundtrip():
    rng = random.Random(9)
    ct = PK.encrypt(-7.125, frac_bits=16, rng=rng)
    buf = serialize_ciphertext(ct)
    assert len(buf) == ciphertext_wire_size(512)
    back, offset = deserialize_ciphertext(buf, {PK.fingerprint: PK})
    assert offset == len(buf)
    assert back.value == ct.value and back.frac_bits == ct.frac_bits
    assert SK.decrypt(back) == -7.125


def test_deserialize_unknown_key():
    rng = random.Random(10)
    buf = serialize_ciphertext(PK.encrypt(1.0, frac_bits=8, rng=rng))
    with pytest.raises(KeyMismatchError):
        deserialize_ciphertext(buf, {})


@pytest.mark.parametrize("value", [0, SK.p, 2 * SK.q], ids=["zero", "p", "2q"])
def test_deserialize_rejects_non_units(value):
    # Values sharing a factor with n are no encryption of anything; they
    # would decrypt silently to an arbitrary raw value.
    buf = serialize_ciphertext(Ciphertext(value, 8, PK))
    with pytest.raises(CiphertextFormatError, match="not a unit"):
        deserialize_ciphertext(buf, {PK.fingerprint: PK})


def test_ciphertext_is_randomised():
    ct1 = PK.encrypt(5.0, frac_bits=8, rng=random.Random(11))
    ct2 = PK.encrypt(5.0, frac_bits=8, rng=random.Random(12))
    assert ct1.value != ct2.value
    assert SK.decrypt(ct1) == SK.decrypt(ct2) == 5.0


def test_encrypt_uses_public_info_only():
    # ciphertext arithmetic never needs the private key
    rng = random.Random(13)
    ct = PK.encrypt(1.5, frac_bits=20, rng=rng)
    combined = (ct + PK.encrypt(0.5, frac_bits=20, rng=rng)).mul_int(3)
    assert SK.decrypt(combined) == 6.0


def test_keypair_shape():
    assert isinstance(KEYS, KeyPair)
    assert isinstance(PK.encrypt(0.0, frac_bits=0, rng=random.Random(0)),
                      Ciphertext)


# The peer rebuilds the key from the modulus alone, so it has no factorization.
PEER_VIEW = PublicKey(PK.modulus, PK.modulus + 1)


def _textbook_decrypt(value: int) -> int:
    n = PK.modulus
    lam = (SK.p - 1) * (SK.q - 1)
    mu = pow(lam, -1, n)
    return (pow(value, lam, n * n) - 1) // n * mu % n


def _check_crt(residue: int, seed: int):
    own = PK.encrypt_residue(residue, random.Random(seed), SK)
    assert own == PEER_VIEW.encrypt_residue(residue, random.Random(seed))
    assert SK.decrypt_residue(own) == _textbook_decrypt(own) == residue


@pytest.mark.parametrize("residue", [0, 1, PK.modulus // 2, PK.modulus - 1])
def test_crt_matches_textbook_at_edges(residue):
    _check_crt(residue, residue & 0xFFFF)


@settings(max_examples=60)
@given(st.integers(min_value=0, max_value=PK.modulus - 1),
       st.integers(min_value=0, max_value=2 ** 32))
def test_crt_matches_textbook(residue, seed):
    _check_crt(residue, seed)


class _FixedDraw:
    """An rng whose every randrange returns r."""

    def __init__(self, r):
        self.r = r

    def randrange(self, _lo, _hi):
        return self.r


@pytest.mark.parametrize("r", [1, SK.p, SK.q, 2 * SK.p, PK.modulus - 1])
def test_crt_obfuscator_at_edge_randomness(r):
    # r sharing a factor with n never comes from a fair draw, but the CRT
    # obfuscator must still equal r^n mod n^2 there.
    assert (PK.encrypt_residue(5, _FixedDraw(r), SK)
            == PEER_VIEW.encrypt_residue(5, _FixedDraw(r)))


def test_owner_encrypt_equals_peer_encrypt():
    for value in (0.0, 3.25, -1234.5):
        own = KEYS.encrypt(value, 16, random.Random(21))
        peer = PEER_VIEW.encrypt(value, 16, random.Random(21))
        assert own.value == peer.value and own.frac_bits == peer.frac_bits == 16
        assert SK.decrypt(own) == value


@settings(max_examples=40)
@given(st.integers(min_value=-(2 ** 200), max_value=-1))
def test_negative_raws_roundtrip(raw):
    rng = random.Random(raw & 0xFFFF)
    assert SK.decrypt_raw(PK.encrypt_raw(raw, 8, rng, SK)) == raw
    assert SK.decrypt_raw(PEER_VIEW.encrypt_raw(raw, 8, rng)) == raw


def test_factorization_stays_private():
    text = repr(KEYS)
    assert str(SK.p) not in text and str(SK.q) not in text
    assert not hasattr(PK, "p") and not hasattr(PEER_VIEW, "p")
    other = keygen(bits=512, rng=random.Random(2)).private
    with pytest.raises(KeyMismatchError):
        PK.encrypt_residue(1, random.Random(0), other)


@contextmanager
def _pool_map(chunksize):
    """The map of a two-worker fork-context executor, as the protocol's
    driver opens one, cutting every batch into chunks of chunksize jobs."""
    with ProcessPoolExecutor(2, mp_context=multiprocessing.get_context("fork")) as pool:
        yield lambda fn, jobs: pool.map(fn, jobs, chunksize=chunksize)


class _Recorder:
    """A map that records every call before running it in-process."""

    def __init__(self):
        self.calls = []

    def __call__(self, fn, jobs):
        jobs = list(jobs)
        self.calls.append(jobs)
        return map(fn, jobs)


BATCH_RAWS = [0, 1, -1, 3 << 40, -(5 << 60), 2 ** 200, 7, -11]


@pytest.mark.parametrize("chunksize", [1, 2, 3, 8, 20])
def test_pooled_encryption_matches_serial(chunksize):
    serial_rng, pooled_rng = random.Random(4), random.Random(4)
    serial = [PK.encrypt_raw(raw, 16, serial_rng, SK) for raw in BATCH_RAWS]
    with _pool_map(chunksize) as mapper:
        pooled = KEYS.encrypt_raws(BATCH_RAWS, 16, pooled_rng, mapper)
    assert [(ct.value, ct.frac_bits) for ct in pooled] == [(ct.value, ct.frac_bits)
                                                          for ct in serial]
    assert pooled_rng.getstate() == serial_rng.getstate()
    assert KEYS.encrypt_raws(BATCH_RAWS, 16, random.Random(4)) == pooled


@pytest.mark.parametrize("chunksize", [1, 2, 3, 8, 20])
def test_pooled_decryption_matches_serial(chunksize):
    cts = KEYS.encrypt_raws(BATCH_RAWS, 16, random.Random(5))
    with _pool_map(chunksize) as mapper:
        pooled = SK.decrypt_raws(cts, mapper)
    assert pooled == [SK.decrypt_raw(ct) for ct in cts] == BATCH_RAWS


def test_foreign_ciphertext_fails_before_any_job():
    record = _Recorder()
    foreign = keygen(bits=512, rng=random.Random(2))
    cts = KEYS.encrypt_raws([1, 2], 16, random.Random(5)) + [foreign.encrypt(3.0, 16)]
    with pytest.raises(KeyMismatchError):
        SK.decrypt_raws(cts, record)
    assert record.calls == []


def _fields(values):
    return [(v.value, v.frac_bits) if isinstance(v, Ciphertext) else v for v in values.flat]


@pytest.mark.parametrize("chunksize", [1, 2, 3, 8, 20])
def test_pooled_products_match_serial(chunksize):
    # Every ciphertext times every scalar (negative raws, a 200-bit
    # exponent), in both orders, with a structural zero on each side, and a
    # plaintext-only pair: one batch of power jobs, none for a zero.
    cts = np.array([*KEYS.encrypt_raws(BATCH_RAWS, 16, random.Random(6)), 0], dtype=object)
    scalars = np.array([*(FixedPoint(raw, 8) for raw in BATCH_RAWS[::-1]), 0], dtype=object)
    pairs = [(cts[:, None], scalars), (scalars[:, None], cts), (scalars, scalars)]
    serial = [np.array([[x * y for y in b] for x in a.ravel()], dtype=object)
              for a, b in pairs[:2]] + [scalars * scalars]
    foreign = keygen(bits=512, rng=random.Random(2))
    two_keys = np.array([cts[1], foreign.encrypt_raws([7], 16, random.Random(8))[0]],
                        dtype=object)
    calls = []
    with _pool_map(chunksize) as pool_map:
        def counting(fn, jobs):
            calls.append((fn, len(jobs)))
            return pool_map(fn, jobs)

        pooled = products(counting, *pairs)
        (empty,) = products(counting, (np.empty((0, 9), dtype=object), scalars))
        unpowered = products(counting, (cts, 0), (scalars, FixedPoint(3, 4)))
        with pytest.raises(EncodingOverflowError):
            products(counting, (cts, scalars),
                      (KEYS.encrypt(1.5, 200, random.Random(7)), FixedPoint(3, 100)))
        (keyed,) = products(counting, (two_keys, FixedPoint(3, 0)))
    assert [_fields(p) for p in pooled] == [_fields(s) for s in serial]
    assert [p.shape for p in pooled] == [(9, 9), (9, 9), (9,)]
    assert all(pooled[0][8, :] == 0) and all(pooled[0][:, 8] == 0)
    assert [SK.decrypt_raw(ct) for ct in pooled[0][:8, :8].flat] == [
        x * y for x in BATCH_RAWS for y in BATCH_RAWS[::-1]]
    assert empty.shape == (0, 9)
    assert _fields(unpowered[0]) == [0] * 9
    assert _fields(unpowered[1]) == [FixedPoint(3 * raw, 12) for raw in BATCH_RAWS[::-1]] + [0]
    assert calls == [(_power_job, 2 * len(BATCH_RAWS) ** 2), (_power_job, 2)]
    assert SK.decrypt_raw(keyed[0]) == 3 and foreign.private.decrypt_raw(keyed[1]) == 21
    with pytest.raises(KeyMismatchError):
        keyed.sum()
