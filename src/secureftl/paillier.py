"""Paillier additively homomorphic encryption with fraction-bit bookkeeping.

Implements keygen / encrypt / decrypt plus the homomorphic operations the
protocol needs, as operators: ct + ct and ct + FixedPoint add plaintexts,
ct * FixedPoint multiplies by a plaintext scalar. Ciphertexts carry the
fractional-bit counter of their fixed-point plaintext so mismatched
additions fail loudly instead of corrupting silently, and the int 0 is the
structural zero of encoding.

Uses the g = n + 1 variant: Enc(m) = (1 + m*n) * r^n mod n^2, which avoids a
full modular exponentiation for the generator term.

Every exponentiation runs in a module-level kernel that a map-like callable
(the builtin map, or an executor's map over worker processes) can take one
job per element: _encrypt_job on (private key, residue, r), _decrypt_job on
(private key, value) and _power_job on (value, k, n^2). The key owner's
batch forms, KeyPair.encrypt_raws and PrivateKey.decrypt_raws, hand their
mapper the same kernels, PrivateKey.obfuscator and decrypt_residue, that a
single own-key encryption or decryption runs, with every random r drawn in
the caller beforehand. products is the batch form of ct * FixedPoint: it
checks every product's fraction bits, then hands its mapper one _power_job
per exponentiation, the kernel of mul_int. A single ct * FixedPoint is its
one-element batch on the builtin map, so only products knows the rule.

This is a research implementation: keys default to 1024 bits and randomness
may come from a seeded PRNG for reproducible protocol transcripts. Do not use
it to protect real data.
"""

from __future__ import annotations

import hashlib
import math
import random
import secrets
from collections.abc import Callable, Iterable
from dataclasses import dataclass, field

import numpy as np

from .encoding import (
    DEFAULT_FRAC_BITS,
    EncodingOverflowError,
    FixedPoint,
    check_frac_bits,
    check_frac_match,
    check_frac_sum,
    decode_raw,
    encode,
    from_residue,
    is_zero,
    to_residue,
)

MIN_KEY_BITS = 512

_SMALL_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47)


class KeyMismatchError(ValueError):
    """Operation mixed ciphertexts or keys that do not belong together."""


class CiphertextFormatError(ValueError):
    """Serialized ciphertext bytes are malformed."""


def _is_probable_prime(n: int, rng: random.Random, rounds: int = 40) -> bool:
    if n < 2:
        return False
    for p in _SMALL_PRIMES:
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


def _random_prime(bits: int, rng: random.Random) -> int:
    while True:
        # Top two bits forced so the product of two such primes has exactly
        # 2*bits bits; low bit forced for oddness.
        candidate = rng.getrandbits(bits) | (1 << (bits - 1)) | (1 << (bits - 2)) | 1
        if _is_probable_prime(candidate, rng):
            return candidate


# A map-like callable: the builtin map, or an executor's map to run on
# worker processes.
Mapper = Callable[[Callable, list], Iterable]


def _encrypt_job(job: tuple["PrivateKey", int, int]) -> int:
    key, residue, r = job
    return key.public.combine(residue, key.obfuscator(r))


def _decrypt_job(job: tuple["PrivateKey", int]) -> int:
    key, value = job
    return key.decrypt_residue(value)


def _power_job(job: tuple[int, int, int]) -> int:
    """value^k mod n^2 for a signed k, job being (value, k, n^2): the
    ciphertext of k times value's plaintext."""
    value, k, n_squared = job
    if k >= 0:
        return pow(value, k, n_squared)
    # c^k = (c^-k)^-1; one modular inverse beats a near-n exponent.
    return pow(pow(value, -k, n_squared), -1, n_squared)


@dataclass(frozen=True)
class PublicKey:
    modulus: int
    generator: int
    n_squared: int = field(init=False, repr=False)
    fingerprint: bytes = field(init=False, repr=False)

    def __post_init__(self):
        object.__setattr__(self, "n_squared", self.modulus * self.modulus)
        n_bytes = self.modulus.to_bytes((self.modulus.bit_length() + 7) // 8, "big")
        object.__setattr__(self, "fingerprint", hashlib.sha256(n_bytes).digest()[:8])

    @property
    def value_width(self) -> int:
        """Serialized width of a ciphertext value: enough bytes for n^2."""
        return (2 * self.modulus.bit_length() + 7) // 8

    def draw_r(self, rng: random.Random | None = None) -> int:
        """The obfuscator's base r in [1, n): from rng if given, else from secrets."""
        if rng is not None:
            return rng.randrange(1, self.modulus)
        return secrets.randbelow(self.modulus - 1) + 1

    def combine(self, residue: int, obfuscator: int) -> int:
        """(1 + residue*n) * obfuscator mod n^2: g^residue with g = n + 1,
        times the obfuscator r^n."""
        nsq = self.n_squared
        return (1 + residue * self.modulus) % nsq * obfuscator % nsq

    def encrypt_residue(self, residue: int, rng: random.Random | None = None,
                        owner: "PrivateKey | None" = None) -> int:
        """Enc(residue) = (1 + residue*n) * r^n mod n^2.

        The key owner passes its private key and gets the same integer for the
        same r, with r^n built modulo p^2 and q^2 instead of n^2.
        """
        if not 0 <= residue < self.modulus:
            raise EncodingOverflowError("plaintext residue outside [0, n)")
        if owner is not None and owner.public.modulus != self.modulus:
            raise KeyMismatchError("private key does not belong to this public key")
        r = self.draw_r(rng)
        obfuscator = pow(r, self.modulus, self.n_squared) if owner is None else owner.obfuscator(r)
        return self.combine(residue, obfuscator)

    def encrypt_raw(self, raw: int, frac_bits: int, rng: random.Random | None = None,
                    owner: "PrivateKey | None" = None) -> "Ciphertext":
        """Encrypt a signed fixed-point raw integer at the given precision."""
        check_frac_bits(frac_bits)
        value = self.encrypt_residue(to_residue(raw, self.modulus), rng, owner)
        return Ciphertext(value, frac_bits, self)

    def encrypt(self, value: float, frac_bits: int = DEFAULT_FRAC_BITS,
                rng: random.Random | None = None,
                owner: "PrivateKey | None" = None) -> "Ciphertext":
        return self.encrypt_raw(encode(value, frac_bits).raw, frac_bits, rng, owner)


@dataclass(frozen=True)
class PrivateKey:
    """The factorization n = p*q and the CRT constants built from it.

    The owner's exponentiations run modulo p^2 and q^2 and are recombined by
    CRT (Paillier, EUROCRYPT 1999, section 6): decryption and the
    obfuscators r^n of own-key encryption. The constants are closed-form in
    p and q, and none of them appears in repr.
    """

    public: PublicKey
    p: int = field(repr=False)
    q: int = field(repr=False)
    p_squared: int = field(init=False, repr=False)
    q_squared: int = field(init=False, repr=False)
    hp: int = field(init=False, repr=False)  # L_p(g^(p-1) mod p^2)^-1 = (-q)^-1 mod p
    hq: int = field(init=False, repr=False)  # (-p)^-1 mod q
    q_inv: int = field(init=False, repr=False)  # q^-1 mod p
    q_squared_inv: int = field(init=False, repr=False)  # q^-2 mod p^2
    exp_p: int = field(init=False, repr=False)  # q mod (p-1), so r^exp_p = r^n mod p
    exp_q: int = field(init=False, repr=False)  # p mod (q-1)

    def __post_init__(self):
        p, q, n = self.p, self.q, self.public.modulus
        if p * q != n:
            raise KeyMismatchError("p * q is not this public key's modulus")
        derived = {
            "p_squared": p * p,
            "q_squared": q * q,
            "hp": pow(-q, -1, p),
            "hq": pow(-p, -1, q),
            "q_inv": pow(q, -1, p),
            "q_squared_inv": pow(q * q, -1, p * p),
            "exp_p": q % (p - 1),
            "exp_q": p % (q - 1),
        }
        for name, value in derived.items():
            object.__setattr__(self, name, value)

    def obfuscator(self, r: int) -> int:
        """r^n mod n^2, from two half-size exponentiations joined by CRT.

        p divides n, so r^n mod p^2 is 0 or has order dividing p-1, and such
        an element is fixed by its residue mod p: it is the lift
        (r^n mod p)^p mod p^2, with r^n = r^(q mod p-1) mod p. Two half-size
        exponents give the same integer as r^n mod p^2. Likewise for q; CRT
        joins the halves.
        """
        p, q = self.p, self.q
        xp = pow(pow(r % p, self.exp_p, p), p, self.p_squared)
        xq = pow(pow(r % q, self.exp_q, q), q, self.q_squared)
        return xq + (xp - xq) * self.q_squared_inv % self.p_squared * self.q_squared

    def decrypt_residue(self, value: int) -> int:
        p, q = self.p, self.q
        mp = (pow(value % self.p_squared, p - 1, self.p_squared) - 1) // p * self.hp % p
        mq = (pow(value % self.q_squared, q - 1, self.q_squared) - 1) // q * self.hq % q
        return mq + (mp - mq) * self.q_inv % p * q

    def decrypt_raws(self, cts: list["Ciphertext"], mapper: Mapper = map) -> list[int]:
        """The signed fixed-point raw integers of cts, in order.

        Every ciphertext's key is checked before any is decrypted; the
        decryptions then run through mapper, one job per ciphertext. An
        empty list calls nothing.
        """
        if any(ct.public_key.fingerprint != self.public.fingerprint for ct in cts):
            raise KeyMismatchError("ciphertext was encrypted under a different key")
        residues = mapper(_decrypt_job, [(self, ct.value) for ct in cts]) if cts else []
        return [from_residue(residue, self.public.modulus) for residue in residues]

    def decrypt_raw(self, ct: "Ciphertext") -> int:
        """Decrypt to the signed fixed-point raw integer."""
        return self.decrypt_raws([ct])[0]

    def decrypt(self, ct: "Ciphertext") -> float:
        return decode_raw(self.decrypt_raw(ct), ct.frac_bits)


@dataclass(frozen=True)
class KeyPair:
    public: PublicKey
    private: PrivateKey

    def encrypt(self, value: float, frac_bits: int = DEFAULT_FRAC_BITS,
                rng: random.Random | None = None) -> "Ciphertext":
        """Encrypt under one's own key: public.encrypt's ciphertext, built
        through the factorization."""
        return self.public.encrypt(value, frac_bits, rng, self.private)

    def encrypt_raws(self, raws: list[int], frac_bits: int, rng: random.Random | None = None,
                     mapper: Mapper = map) -> list["Ciphertext"]:
        """encrypt_raw of every raw under one's own key, in order.

        Every r is drawn from rng, in order, before any exponentiation, so
        the ciphertexts and rng's final state are those of a loop of
        encrypt_raw calls; the exponentiations then run through mapper, one
        job per raw. An empty list calls nothing.
        """
        check_frac_bits(frac_bits)
        public = self.public
        residues = [to_residue(raw, public.modulus) for raw in raws]
        jobs = [(self.private, residue, public.draw_r(rng)) for residue in residues]
        values = mapper(_encrypt_job, jobs) if jobs else []
        return [Ciphertext(value, frac_bits, public) for value in values]


def keygen(bits: int = 1024, rng: random.Random | None = None) -> KeyPair:
    """Generate a key pair whose modulus has exactly `bits` bits."""
    if bits < MIN_KEY_BITS or bits % 2:
        raise ValueError(f"key size must be an even number of bits, at least {MIN_KEY_BITS}")
    prime_rng = rng if rng is not None else random.Random(secrets.randbits(256))
    half = bits // 2
    p = _random_prime(half, prime_rng)
    while True:
        q = _random_prime(half, prime_rng)
        if q != p:
            break
    n = p * q
    public = PublicKey(n, n + 1)
    return KeyPair(public, PrivateKey(public, p, q))


@dataclass(frozen=True)
class Ciphertext:
    """An encrypted fixed-point number: value in [0, n^2), frac-bit counter."""

    value: int
    frac_bits: int
    public_key: PublicKey

    def __add__(self, other: "Ciphertext | FixedPoint | int") -> "Ciphertext":
        """Add a ciphertext under the same key or a plaintext FixedPoint, at
        equal fraction bits; the structural zero 0 adds nothing."""
        n, nsq = self.public_key.modulus, self.public_key.n_squared
        if isinstance(other, Ciphertext):
            if self.public_key.fingerprint != other.public_key.fingerprint:
                raise KeyMismatchError("cannot combine ciphertexts under different keys")
            factor = other.value
        elif isinstance(other, FixedPoint):
            factor = 1 + to_residue(other.raw, n) * n
        else:
            return self if is_zero(other) else NotImplemented
        check_frac_match(self.frac_bits, other.frac_bits)
        return Ciphertext(self.value * factor % nsq, self.frac_bits, self.public_key)

    def __radd__(self, other) -> "Ciphertext":
        # Through +, so every homomorphic addition enters __add__ once.
        return self if is_zero(other) else self + other

    def add_raw(self, raw: int) -> "Ciphertext":
        """Add a plaintext signed raw integer at this ciphertext's precision."""
        n, nsq = self.public_key.modulus, self.public_key.n_squared
        residue = to_residue(raw, n)
        value = self.value * (1 + residue * n) % nsq
        return Ciphertext(value, self.frac_bits, self.public_key)

    def mul_int(self, k: int) -> "Ciphertext":
        """Multiply the plaintext by an exact signed integer; precision unchanged."""
        value = _power_job((self.value, k, self.public_key.n_squared))
        return Ciphertext(value, self.frac_bits, self.public_key)

    def __mul__(self, other: "FixedPoint | int") -> "Ciphertext | int":
        """Multiply the plaintext by a FixedPoint: the one-element batch of
        products, so the fraction bits add. A product with the structural
        zero 0 stays 0."""
        if isinstance(other, FixedPoint):
            (product,) = products(map, (self, other))
            return product.item()
        return 0 if is_zero(other) else NotImplemented

    __rmul__ = __mul__


def products(mapper: Mapper, *pairs) -> list[np.ndarray]:
    """a * b under numpy broadcasting for every pair (a, b), as object arrays.

    A Ciphertext times a FixedPoint, in either order, is an exponentiation:
    the fraction bits of every such product are checked first, then all of
    them go through mapper in one batch of _power_job jobs (value, k, n^2).
    Every other product is formed here: two FixedPoints multiply, and a
    product with the structural zero 0 is 0 and sends no job. The powers are
    exact in Z*_{n^2}, so any mapper reaches the same ciphertexts.
    """
    shaped, pending, jobs = [], [], []
    for a, b in pairs:
        a, b = np.broadcast_arrays(np.asarray(a, dtype=object), np.asarray(b, dtype=object))
        out = np.empty(a.size, dtype=object)
        for i, (x, y) in enumerate(zip(a.flat, b.flat)):
            if isinstance(y, Ciphertext):
                x, y = y, x
            if isinstance(x, Ciphertext) and isinstance(y, FixedPoint):
                frac_bits = check_frac_sum(x.frac_bits, y.frac_bits)
                pending.append((out, i, frac_bits, x.public_key))
                jobs.append((x.value, y.raw, x.public_key.n_squared))
            else:
                out[i] = x * y
        shaped.append(out.reshape(a.shape))
    values = mapper(_power_job, jobs) if jobs else ()
    for (out, i, frac_bits, key), value in zip(pending, values):
        out[i] = Ciphertext(value, frac_bits, key)
    return shaped


def serialize_ciphertext(ct: Ciphertext) -> bytes:
    """8-byte key fingerprint, 1-byte frac counter, 4-byte length, value bytes.

    The value is padded to the key's fixed width so every ciphertext under a
    given key serializes to the same number of bytes.
    """
    width = ct.public_key.value_width
    return (
        ct.public_key.fingerprint
        + ct.frac_bits.to_bytes(1, "big")
        + width.to_bytes(4, "big")
        + ct.value.to_bytes(width, "big")
    )


def ciphertext_wire_size(key_bits: int) -> int:
    """Serialized size in bytes of one ciphertext under a key_bits modulus."""
    return 8 + 1 + 4 + (2 * key_bits + 7) // 8


def deserialize_ciphertext(buf: bytes, keys: dict[bytes, PublicKey],
                           offset: int = 0) -> tuple[Ciphertext, int]:
    """Parse one ciphertext from buf at offset; returns (ciphertext, next offset)."""
    if len(buf) - offset < 13:
        raise CiphertextFormatError("truncated ciphertext header")
    fingerprint = buf[offset:offset + 8]
    key = keys.get(fingerprint)
    if key is None:
        raise KeyMismatchError(f"unknown key fingerprint {fingerprint.hex()}")
    frac_bits = buf[offset + 8]
    length = int.from_bytes(buf[offset + 9:offset + 13], "big")
    end = offset + 13 + length
    if length != key.value_width or len(buf) < end:
        raise CiphertextFormatError("ciphertext value length does not match key width")
    value = int.from_bytes(buf[offset + 13:end], "big")
    if value >= key.n_squared:
        raise CiphertextFormatError("ciphertext value outside [0, n^2)")
    # Every encryption is a unit mod n^2; anything sharing a factor with n
    # (0, multiples of p or q) would decrypt silently to an arbitrary value.
    if math.gcd(value, key.modulus) != 1:
        raise CiphertextFormatError("ciphertext value is not a unit mod n^2")
    return Ciphertext(value, frac_bits, key), end

