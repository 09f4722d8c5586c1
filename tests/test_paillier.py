import math
import multiprocessing
import random
import sys
import threading
from concurrent.futures import ProcessPoolExecutor
from contextlib import contextmanager

import numpy as np
import pytest
from conftest import decrypt, decrypt_raw, encrypt, multiply
from hypothesis import example, given, settings, strategies as st

from secureftl import paillier
from secureftl.encoding import (
    EncodingOverflowError,
    encode,
    from_residue,
    is_zero,
)
from secureftl.paillier import (
    Ciphertext,
    CiphertextFormatError,
    KeyMismatchError,
    PrivateKey,
    PublicKey,
    _multiexp_job,
    ciphertext_wire_size,
    contractions,
    deserialize_ciphertext,
    keygen,
    serialize_ciphertext,
)

SK = keygen(bits=512, rng=random.Random(1))
PK = SK.public


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
    # g = n + 1: the encryption of 1 with r = 1 is g itself.
    assert PK.encrypt_residue(1, _FixedDraw(1)) == PK.modulus + 1


# The prime search keygen ran before candidates were sieved, frozen as the
# reference: keygen must draw the same primes and leave its rng in the same
# state, so keys and every transcript stay as they were.
def _reference_is_probable_prime(n, rng, rounds=40):
    if n < 2:
        return False
    for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47):
        if n % p == 0:
            return n == p
    d = n - 1
    s = 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for _ in range(rounds):
        a = rng.randrange(2, n - 1)
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = pow(x, 2, n)
            if x == n - 1:
                break
        else:
            return False
    return True


def _reference_random_prime(bits, rng):
    while True:
        candidate = rng.getrandbits(bits) | (1 << (bits - 1)) | (1 << (bits - 2)) | 1
        if _reference_is_probable_prime(candidate, rng):
            return candidate


def _keygen_as_reference(bits, seed) -> PrivateKey:
    """keygen(bits) on Random(seed), checked against the reference search."""
    rng, reference = random.Random(seed), random.Random(seed)
    keys = keygen(bits, rng)
    p = _reference_random_prime(bits // 2, reference)
    q = p
    while q == p:
        q = _reference_random_prime(bits // 2, reference)
    assert (keys.p, keys.q) == (p, q)
    assert rng.getstate() == reference.getstate()
    return keys


def _keygen_512_as_reference(seed):
    _keygen_as_reference(512, seed)


def test_keygen_draws_the_reference_primes():
    with _pool_map(25) as pool_map:
        assert len(list(pool_map(_keygen_512_as_reference, range(200)))) == 200


@pytest.mark.parametrize("seed, fingerprint", [("source:0", "04a7b2e50f861442"),
                                               ("target:0", "5efbd50afe6e9bba")])
def test_protocol_keys_are_the_reference_keys(seed, fingerprint):
    # The 1024-bit keys of the benchmark's protocol seed.
    assert _keygen_as_reference(1024, seed).public.fingerprint.hex() == fingerprint


def _as_reference(n, seed=0) -> bool:
    """_is_probable_prime(n) on Random(seed), checked against the reference:
    the same answer, and the rng left in the same state."""
    rng, reference = random.Random(seed), random.Random(seed)
    answer = paillier._is_probable_prime(n, rng)
    assert answer == _reference_is_probable_prime(n, reference)
    assert rng.getstate() == reference.getstate()
    return answer


def _mr_liar(a, n, m):
    """Whether a passes a Miller-Rabin round modulo m with n's exponent."""
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    x = pow(a, d, m)
    return x in (1, m - 1) or any(pow(x, 2 ** r, m) == m - 1 for r in range(1, s))


def _first_witness(n, seed):
    return random.Random(seed).randrange(2, n - 1)


@pytest.fixture
def pow_moduli(monkeypatch):
    """The modulus of every _powmod paillier makes from here on."""
    moduli = []

    def counted(base, exp, mod):
        moduli.append(mod)
        return pow(base, exp, mod)

    monkeypatch.setattr(paillier, "_powmod", counted)
    return moduli


# SK.p is a 256-bit prime, so a multiple's gcd with the tiers is its factors.
@pytest.mark.parametrize("factors", [(53,), (1999,), (2003,), (32749,), (53, 59), (2003, 32749)])
def test_witness_modulo_a_small_factor_rejects_without_a_full_pow(factors, pow_moduli):
    n = math.prod(factors) * SK.p
    g = math.prod([f for f in factors if f < 2000] or factors)  # the first tier's factors
    seed = next(s for s in range(100) if not _mr_liar(_first_witness(n, s), n, g))
    assert not _as_reference(n, seed)
    assert g in pow_moduli and n not in pow_moduli


@pytest.mark.parametrize("factor", [53, 2003])
def test_liar_modulo_a_small_factor_goes_on_to_the_full_round(factor, pow_moduli):
    n = factor * SK.p
    seed = next(s for s in range(10_000) if _mr_liar(_first_witness(n, s), n, factor))
    assert not _as_reference(n, seed)
    assert pow_moduli[0] == factor and n in pow_moduli


def test_strong_pseudoprime_without_small_factors_takes_full_rounds(pow_moduli):
    # A strong pseudoprime to the prime bases 2 .. 31 whose factors are all above
    # the sieve: 149491 * 747451 * 34233211.
    n = 3825123056546413051
    assert not _as_reference(n)
    assert set(pow_moduli) == {n}


def test_small_numbers_and_primes_answer_as_reference():
    for n in [*range(2100), *range(32600, 32900)]:
        assert _as_reference(n, seed=n) == (n > 1 and all(n % p for p in range(2, math.isqrt(n) + 1)))
    assert all(_as_reference(p) for p in (SK.p, SK.q, 32749, 2 ** 127 - 1))


@settings(max_examples=150, deadline=None)
@given(st.integers(min_value=2 ** 63, max_value=2 ** 600), st.integers(0, 2 ** 32))
def test_probable_prime_answers_as_reference(n, seed):
    _as_reference(n | 1, seed)


def test_roundtrip_float():
    rng = random.Random(7)
    ct = encrypt(PK, 3.25, 8, rng)
    assert decrypt(SK, ct) == 3.25
    ct = encrypt(PK, -1234.5, 8, rng)
    assert decrypt(SK, ct) == -1234.5


@settings(max_examples=60)
@given(st.integers(min_value=-(2 ** 100), max_value=2 ** 100),
       st.integers(min_value=-(2 ** 100), max_value=2 ** 100))
def test_additive_homomorphism(a, b):
    rng = random.Random(a & 0xFFFF)
    ca = PK.encrypt_raw(a, frac_bits=0, rng=rng)
    cb = PK.encrypt_raw(b, frac_bits=0, rng=rng)
    assert decrypt_raw(SK, ca + cb) == a + b


@settings(max_examples=60)
@given(st.integers(min_value=-(2 ** 60), max_value=2 ** 60),
       st.integers(min_value=-(2 ** 20), max_value=2 ** 20))
def test_scalar_homomorphism(a, k):
    rng = random.Random(k & 0xFFFF)
    ca = PK.encrypt_raw(a, frac_bits=0, rng=rng)
    assert decrypt_raw(SK, multiply(ca, float(k), 0)) == a * k
    assert decrypt_raw(SK, ca.mul_int(k)) == a * k


def test_add_requires_matching_frac():
    rng = random.Random(3)
    ca = encrypt(PK, 1.0, 8, rng)
    cb = encrypt(PK, 1.0, 9, rng)
    with pytest.raises(ValueError):
        _ = ca + cb


def test_add_raw():
    rng = random.Random(4)
    ct = PK.encrypt_raw(100, frac_bits=5, rng=rng)
    out = ct.add_raw(-300)
    assert out.frac_bits == 5
    assert decrypt_raw(SK, out) == -200


_HALF_N = PK.modulus // 2


# With g = n + 1, g^a g^b = g^(a + b) mod n^2: adding two raws one after the
# other gives the very ciphertext that adding their sum once does, which is
# what lets a plaintext part and a mask join a ciphertext as one raw.
@settings(derandomize=True, deadline=None)
@given(st.integers(-_HALF_N, _HALF_N).flatmap(lambda a: st.tuples(
    st.just(a), st.integers(max(-_HALF_N, -_HALF_N - a), min(_HALF_N, _HALF_N - a)))))
@example((_HALF_N, -_HALF_N))  # the signed ends of the plaintext space
@example((-1, 1))  # a sum of 0
def test_add_raw_twice_is_add_raw_of_the_sum(pair):
    a, b = pair
    ct = PK.encrypt_raw(12345, frac_bits=7, rng=random.Random(4))
    assert ct.add_raw(a).add_raw(b).value == ct.add_raw(a + b).value
    assert decrypt_raw(SK, ct.add_raw(a + b)) == from_residue((12345 + a + b) % PK.modulus,
                                                              PK.modulus)


def test_nonzero_int_is_no_addend():
    # A plaintext joins a ciphertext only through add_raw; only the int 0,
    # the structural zero, is an addend (test_zero_is_structural).
    ct = encrypt(PK, 1.5, 8, random.Random(3))
    for addition in (lambda: ct + 7, lambda: 7 + ct, lambda: ct + True, lambda: ct + 0.0):
        with pytest.raises(TypeError):
            addition()


def test_mul_fixed_point_accumulates_frac():
    rng = random.Random(5)
    out = multiply(encrypt(PK, 2.5, 10, rng), 1.5, 10)
    assert out.frac_bits == 20
    assert decrypt(SK, out) == pytest.approx(3.75, abs=2e-3)


def test_mul_by_encoded_one_lifts():
    rng = random.Random(6)
    lifted = multiply(encrypt(PK, 2.0, 10, rng), 1.0, 5)
    assert lifted.frac_bits == 15
    assert decrypt(SK, lifted) == 2.0


def test_operator_fraction_mismatch_raises():
    rng = random.Random(3)
    ct, other = encrypt(PK, 1.0, 8, rng), PK.encrypt_raw(1, 9, rng)
    with pytest.raises(EncodingOverflowError, match="fraction-bit mismatch in addition: 8 vs 9"):
        _ = ct + other
    with pytest.raises(EncodingOverflowError, match="fraction-bit mismatch in addition: 9 vs 8"):
        _ = other + ct


def test_operator_fraction_overflow_raises():
    ct = encrypt(PK, 1.0, 200, random.Random(3))
    with pytest.raises(EncodingOverflowError, match="fraction bits 260 exceed 255"):
        multiply(ct, 1.0, 60)


def test_zero_is_structural():
    ct = encrypt(PK, 1.5, 8, random.Random(3))
    assert ct + 0 is ct and 0 + ct is ct
    # A product with the structural zero stays 0; a zero exponent is a
    # plaintext 0, so its product is a ciphertext of 0.
    assert multiply(0, 3.0, 8) == 0
    assert isinstance(multiply(ct, 0.0, 8), Ciphertext)
    assert decrypt(SK, multiply(ct, 0.0, 8)) == 0.0


def test_products_outside_contractions_raise():
    # A ciphertext has no *, so no product can skip contractions' checks
    # and mapper: not with a float or an int, nor with the structural zero,
    # nor with another ciphertext, nor elementwise over object arrays.
    ct = encrypt(PK, 1.5, 8, random.Random(3))
    cts = np.array([ct, ct], dtype=object)
    for product in (lambda: ct * 3, lambda: 3 * ct, lambda: ct * ct,
                    lambda: ct * 3.0, lambda: 3.0 * ct, lambda: ct * 0, lambda: 0 * ct,
                    lambda: cts * np.array([3, 3], dtype=object)):
        with pytest.raises(TypeError):
            product()


def test_wire_size():
    assert ciphertext_wire_size(512) == 141
    assert ciphertext_wire_size(1024) == 269


def test_serialize_roundtrip():
    rng = random.Random(9)
    ct = encrypt(PK, -7.125, 16, rng)
    buf = serialize_ciphertext(ct)
    assert len(buf) == ciphertext_wire_size(512)
    back, offset = deserialize_ciphertext(buf, {PK.fingerprint: PK})
    assert offset == len(buf)
    assert back.value == ct.value and back.frac_bits == ct.frac_bits
    assert decrypt(SK, back) == -7.125


def test_deserialize_unknown_key():
    rng = random.Random(10)
    buf = serialize_ciphertext(encrypt(PK, 1.0, 8, rng))
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
    ct1 = encrypt(PK, 5.0, 8, random.Random(11))
    ct2 = encrypt(PK, 5.0, 8, random.Random(12))
    assert ct1.value != ct2.value
    assert decrypt(SK, ct1) == decrypt(SK, ct2) == 5.0


def test_encrypt_uses_public_info_only():
    # ciphertext arithmetic never needs the private key
    rng = random.Random(13)
    ct = encrypt(PK, 1.5, 20, rng)
    combined = multiply(ct + encrypt(PK, 0.5, 20, rng), 3.0, 0)
    assert decrypt(SK, combined) == 6.0


def test_keypair_shape():
    # keygen's one key object is the owner's; its public half is what a peer sees.
    assert isinstance(SK, PrivateKey) and isinstance(PK, PublicKey)
    assert isinstance(encrypt(PK, 0.0, 0, random.Random(0)), Ciphertext)


# The peer rebuilds the key from the modulus alone, so it has no factorization.
PEER_VIEW = PublicKey(PK.modulus)


def _textbook_decrypt(value: int) -> int:
    n = PK.modulus
    lam = (SK.p - 1) * (SK.q - 1)
    mu = pow(lam, -1, n)
    return (pow(value, lam, n * n) - 1) // n * mu % n


def _check_crt(residue: int, seed: int):
    (own,) = SK.encrypt_raws([from_residue(residue, PK.modulus)], 0, random.Random(seed))
    assert own.value == PEER_VIEW.encrypt_residue(residue, random.Random(seed))
    assert SK.decrypt_residue(own.value) == _textbook_decrypt(own.value) == residue


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
    assert (SK.encrypt_raws([5], 0, _FixedDraw(r))[0].value
            == PEER_VIEW.encrypt_residue(5, _FixedDraw(r)))


def test_owner_encrypt_equals_peer_encrypt():
    for value in (0.0, 3.25, -1234.5):
        own = encrypt(SK, value, 16, random.Random(21))
        peer = encrypt(PEER_VIEW, value, 16, random.Random(21))
        assert own.value == peer.value and own.frac_bits == peer.frac_bits == 16
        assert decrypt(SK, own) == value


@settings(max_examples=40)
@given(st.integers(min_value=-(2 ** 200), max_value=-1))
def test_negative_raws_roundtrip(raw):
    rng = random.Random(raw & 0xFFFF)
    assert decrypt_raw(SK, SK.encrypt_raws([raw], 8, rng)[0]) == raw
    assert decrypt_raw(SK, PEER_VIEW.encrypt_raw(raw, 8, rng)) == raw


def test_factorization_stays_private():
    text = repr(SK)
    assert str(SK.p) not in text and str(SK.q) not in text
    assert not hasattr(PK, "p") and not hasattr(PEER_VIEW, "p")
    other = keygen(bits=512, rng=random.Random(2))
    with pytest.raises(KeyMismatchError):
        PrivateKey(PK, other.p, other.q)


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
    serial = [PEER_VIEW.encrypt_raw(raw, 16, serial_rng) for raw in BATCH_RAWS]
    with _pool_map(chunksize) as mapper:
        pooled = SK.encrypt_raws(BATCH_RAWS, 16, pooled_rng, mapper)
    assert [(ct.value, ct.frac_bits) for ct in pooled] == [(ct.value, ct.frac_bits)
                                                          for ct in serial]
    assert pooled_rng.getstate() == serial_rng.getstate()
    assert SK.encrypt_raws(BATCH_RAWS, 16, random.Random(4)) == pooled


@pytest.mark.parametrize("chunksize", [1, 2, 3, 8, 20])
def test_pooled_decryption_matches_serial(chunksize):
    cts = SK.encrypt_raws(BATCH_RAWS, 16, random.Random(5))
    with _pool_map(chunksize) as mapper:
        pooled = SK.decrypt_raws(cts, mapper)
    assert pooled == [decrypt_raw(SK, ct) for ct in cts] == BATCH_RAWS


def test_foreign_ciphertext_fails_before_any_job():
    record = _Recorder()
    foreign = keygen(bits=512, rng=random.Random(2))
    cts = SK.encrypt_raws([1, 2], 16, random.Random(5)) + [encrypt(foreign, 3.0, 16)]
    with pytest.raises(KeyMismatchError):
        SK.decrypt_raws(cts, record)
    assert record.calls == []


def _fields(values):
    return [(v.value, v.frac_bits) if isinstance(v, Ciphertext) else v for v in values.flat]


def _elementwise(mapper, *triples):
    """a * b under numpy broadcasting for every triple (a, b, frac_bits):
    the contraction a[..., None, None] @ b[..., None, None]."""
    units = [(np.asarray(a, dtype=object)[..., None, None],
              np.asarray(b, dtype=float)[..., None, None], frac_bits) for a, b, frac_bits in triples]
    return [out[..., 0, 0] for out in contractions(mapper, *units)]


@pytest.mark.parametrize("chunksize", [1, 2, 3, 8, 20])
def test_pooled_products_match_serial(chunksize):
    # Every ciphertext times every scalar (negative raws, a 200-bit
    # exponent), broadcast both ways round, with the structural zero among
    # the ciphertexts and 0.0 among the scalars: elementwise contractions
    # over unit axes, one batch of one-term jobs, none for the structural
    # zero. The scalars encode at 8 fraction bits to BATCH_RAWS reversed.
    cts = np.array([*SK.encrypt_raws(BATCH_RAWS, 16, random.Random(6)), 0], dtype=object)
    scalars = np.array([*(raw / 256 for raw in BATCH_RAWS[::-1]), 0.0])
    triples = [(cts[:, None], scalars, 8), (cts, scalars[:, None], 8)]
    # The reference: every product from its own pow.
    serial = _summed_pows(cts[:, None], scalars[None, :], 8)
    serial = [serial, serial.T]
    foreign = keygen(bits=512, rng=random.Random(2))
    two_keys = np.array([cts[1], foreign.encrypt_raws([7], 16, random.Random(8))[0]],
                        dtype=object)
    calls = []
    with _pool_map(chunksize) as pool_map:
        def counting(fn, jobs):
            calls.append((fn, len(jobs)))
            return pool_map(fn, jobs)

        pooled = _elementwise(counting, *triples)
        (empty,) = _elementwise(counting, (np.empty((0, 9), dtype=object), scalars, 8))
        # The scalar form a[..., None] @ [s], with 0.0 as s.
        (unpowered,) = contractions(counting, (cts[:, None], [0.0], 8))
        with pytest.raises(EncodingOverflowError):
            _elementwise(counting, (cts, scalars, 8),
                         (encrypt(SK, 1.5, 200, random.Random(7)), 3.0, 100))
        (keyed,) = contractions(counting, (two_keys[:, None], [3.0], 0))
    assert [_fields(p) for p in pooled] == [_fields(s) for s in serial]
    assert [p.shape for p in pooled] == [(9, 9), (9, 9)]
    assert all(pooled[0][8, :] == 0) and _fields(pooled[0][:8, 8]) == [(1, 24)] * 8
    assert [decrypt_raw(SK, ct) for ct in pooled[0][:8, :8].flat] == [
        x * y for x in BATCH_RAWS for y in BATCH_RAWS[::-1]]
    assert empty.shape == (0, 9)
    assert _fields(unpowered) == [(1, 24)] * 8 + [0]
    assert calls == [(_multiexp_job, 2 * len(BATCH_RAWS) * 9), (_multiexp_job, 8),
                     (_multiexp_job, 2)]
    assert decrypt_raw(SK, keyed[0]) == 3 and decrypt_raw(foreign, keyed[1]) == 21
    with pytest.raises(KeyMismatchError):
        keyed.sum()


def _operand(max_bits):
    return st.integers(0, max_bits).flatmap(lambda bits: st.integers(0, (1 << bits) - 1))


@settings(max_examples=300, deadline=None, derandomize=True)
@given(_operand(2048), _operand(2048), _operand(2048).map(lambda m: m + 1))
@example(0, 0, 1)
@example(7, 0, 2 ** 61 - 1)
@example(0, 5, 97)
@example(2 ** 1024 + 3, 65537, 1019)  # base >= mod
@example(12345, 678, 1)
@example(3, 2 ** 200 + 1, 2 ** 512)  # even mod
def test_powmod_equals_pow(base, exp, mod):
    assert paillier._powmod(base, exp, mod) == pow(base, exp, mod)


def test_powmod_zero_modulus_raises_as_pow_does():
    with pytest.raises(ValueError):
        pow(3, 5, 0)
    with pytest.raises(ValueError):
        paillier._powmod(3, 5, 0)


def test_powmod_from_two_threads():
    # Both party threads exponentiate at once: each call's mpz values must be
    # its own.
    results, interval = {}, sys.getswitchinterval()

    def run(seed):
        rng = random.Random(seed)
        ops = [(rng.getrandbits(512), rng.getrandbits(256), rng.getrandbits(512) | 1)
               for _ in range(300)]
        results[seed] = all(paillier._powmod(*op) == pow(*op) for op in ops)

    threads = [threading.Thread(target=run, args=(seed,)) for seed in (1, 2)]
    sys.setswitchinterval(1e-5)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert results == {1: True, 2: True}


# Exponents of every width from 0 to 200 bits, either sign.
_EXPONENTS = st.integers(0, 200).flatmap(
    lambda bits: st.integers(-(1 << bits) + 1, (1 << bits) - 1))
_CTS = SK.encrypt_raws([3, -5, 7 << 30, -11], 16, random.Random(9))
NSQ = PK.n_squared


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_multiexp_job_equals_separate_pows(data):
    # Repeated bases, several columns, and always a column of zeros, whose
    # product is 1.
    picks = data.draw(st.lists(st.sampled_from(_CTS), min_size=1, max_size=5))
    bases = [ct.value for ct in picks]
    row = st.lists(_EXPONENTS, min_size=len(bases), max_size=len(bases))
    columns = data.draw(st.lists(row, min_size=1, max_size=4)) + [[0] * len(bases)]
    expected = [math.prod(pow(b, e, NSQ) for b, e in zip(bases, column)) % NSQ
                for column in columns]
    assert _multiexp_job((bases, columns, NSQ)) == expected
    assert expected[-1] == 1


def _summed_pows(a, b, frac_bits):
    """a @ b for a 2-d Ciphertext-or-0 a and float b encoded one entry at a
    time by encode at frac_bits, from separate signed pows: 0 where a's row
    holds no ciphertext."""
    out = np.zeros((a.shape[0], b.shape[1]), dtype=object)
    for r in range(a.shape[0]):
        for c in range(b.shape[1]):
            terms = [(x, encode(y, frac_bits)) for x, y in zip(a[r], b[:, c])
                     if not is_zero(x)]
            if terms:
                value = math.prod(pow(x.value, raw, NSQ) for x, raw in terms) % NSQ
                out[r, c] = Ciphertext(value, terms[0][0].frac_bits + frac_bits, PK)
    return out


@settings(max_examples=30, deadline=None)
@given(st.data())
def test_contractions_equal_summed_pows(data):
    # Structural zeros among the ciphertexts (an all-zero row gives 0),
    # zero and rounding float exponents (an all-zero column gives the
    # ciphertext 1), and the numpy broadcasting of a batch dim and of 1-d
    # operands.
    rows, inner, cols = (data.draw(st.integers(lo, 3)) for lo in (0, 1, 1))
    ct = st.sampled_from([*_CTS, 0])
    exponent = st.one_of(st.just(0.0), _EXPONENTS.map(lambda e: e / 256),
                         st.floats(-1e6, 1e6, allow_nan=False))
    a = np.array(data.draw(st.lists(st.lists(ct, min_size=inner, max_size=inner),
                                    min_size=rows, max_size=rows)), dtype=object)
    a = a.reshape(rows, inner)
    b = np.array(data.draw(st.lists(st.lists(exponent, min_size=cols, max_size=cols),
                                    min_size=inner, max_size=inner)))
    expected = _summed_pows(a, b, 8)
    record = _Recorder()
    plain, batched, vector = contractions(record, (a, b, 8), (np.stack([a, a]), b, 8),
                                          (a, b[:, 0], 8))
    assert len(record.calls) <= 1
    assert _fields(plain) == _fields(expected)
    assert _fields(batched) == _fields(np.stack([expected, expected]))
    assert _fields(vector) == _fields(expected[:, 0])


def test_contractions_apply_the_product_rules_before_any_job():
    record = _Recorder()
    x, y = _CTS[:2]
    a = np.array([[x, y], [0, 0]], dtype=object)
    b = np.array([[0.0, 2 / 256], [0.0, 0.0]])
    ((out,), calls) = contractions(record, (a, b, 8)), record.calls
    # Row 0 is one job of its two bases and both columns; row 1 has no
    # ciphertext, so it stays 0.
    assert calls == [[([x.value, y.value], [[0, 0], [2, 0]], NSQ)]]
    assert _fields(out) == [(1, 24), (pow(x.value, 2, NSQ), 24), 0, 0]
    assert decrypt_raw(SK, out[0, 0]) == 0
    foreign = keygen(bits=512, rng=random.Random(2)).encrypt_raws([1], 16, random.Random(3))[0]
    other_frac = encrypt(SK, 1.0, 17, random.Random(4))
    record = _Recorder()
    with pytest.raises(EncodingOverflowError, match="mismatch"):
        contractions(record, (a, b, 8), (np.array([x, other_frac]), np.ones(2), 8))
    with pytest.raises(EncodingOverflowError, match="exceed"):
        contractions(record, (a, b, 8), (a[0], np.ones(2), 240))
    with pytest.raises(KeyMismatchError):
        contractions(record, (a, b, 8), (np.array([x, foreign]), np.ones(2), 8))
    with pytest.raises(TypeError):
        contractions(record, (a, a, 8))
    with pytest.raises(TypeError):
        contractions(record, (b, b, 8))
    (empty,) = contractions(record, (np.empty((0, 2), dtype=object), b, 8))
    assert contractions(record) == [] and empty.shape == (0, 2)
    assert record.calls == []


@pytest.mark.parametrize("bad", [math.nan, math.inf, 1e300])
def test_nan_exponent_raises_before_any_job(bad):
    # Every b is encoded before the first job: a NaN, an infinity or a
    # value that overflows at its fraction bits fails the whole batch.
    record = _Recorder()
    a = np.array(_CTS[:2], dtype=object)
    with pytest.raises(EncodingOverflowError):
        contractions(record, (a, np.ones(2), 8), (a, np.array([1.0, bad]), 40))
    assert record.calls == []
