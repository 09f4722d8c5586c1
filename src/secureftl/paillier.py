"""Paillier additively homomorphic encryption with fraction-bit bookkeeping.

Implements keygen plus one batch form of each operation the protocol needs.
ct + ct and ct + FixedPoint add plaintexts; a product with a plaintext is
only ever a contraction, so a ciphertext has no *. Ciphertexts carry the
fractional-bit counter of their fixed-point plaintext so mismatched
additions fail loudly instead of corrupting silently, and the int 0 is the
structural zero of encoding.

Uses the g = n + 1 variant: Enc(m) = (1 + m*n) * r^n mod n^2, so g^m costs
a multiply instead of a full modular exponentiation, and the modulus n is
the whole public key.

Every exponentiation runs in a module-level kernel that a map-like callable
(the builtin map, or an executor's map over worker processes) can take one
job per element: _encrypt_job on (private key, residue, r), _decrypt_job on
(private key, value) and _multiexp_job on (bases, exponent columns, n^2),
which returns prod_j bases[j]^column[j] mod n^2 for every column. keygen
returns the owner's PrivateKey, whose .public is what a peer sees. Its batch
forms, encrypt_raws and decrypt_raws, run PrivateKey.obfuscator and
decrypt_residue in their jobs, with every random r drawn in the caller
beforehand; PublicKey.encrypt_raw is the one encryption under a peer's key.
Every ciphertext-by-plaintext product goes through _multiexp_job from one
batch form, contractions (a @ b): it checks every term's fraction bits and
keys before any job, then sends one job per row of the ciphertext operand,
whose bases serve all of that row's columns. An elementwise product is a
contraction over unit axes, a[..., None, None] @ b[..., None, None], so
only contractions knows the rule of multiplication; likewise only __add__
knows the rule of addition. mul_int and add_raw, which no protocol path
calls, are the one-element contraction by FixedPoint(k, 0) and
ct + FixedPoint(raw, frac_bits).

keygen draws each prime as random candidates tested by trial division up
to 47 and 40 Miller-Rabin rounds with random witnesses. A candidate with a
prime factor from 53 to 32,768 has a gcd g > 1 with one of two fixed prime
products, and each of its rounds first runs modulo g: g divides n, so a
witness modulo g is a witness modulo n. That rejects most such composites
with a pow modulo a few dozen bits instead of a full-size one, while every
witness is drawn as before, so the keys and the rng's state after keygen
are those of the plain test.

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
    EncodingOverflowError,
    FixedPoint,
    check_frac_bits,
    check_frac_match,
    check_frac_sum,
    encode,  # noqa: F401
    from_residue,
    is_zero,
    to_residue,
)

MIN_KEY_BITS = 512


def _primes(lo: int, hi: int) -> list[int]:
    """The primes in [lo, hi], by the sieve of Eratosthenes."""
    sieve = bytearray([1]) * (hi + 1)
    sieve[:2] = b"\0\0"
    for i in range(2, math.isqrt(hi) + 1):
        if sieve[i]:
            sieve[i * i::i] = bytes(len(range(i * i, hi + 1, i)))
    return [p for p in range(lo, hi + 1) if sieve[p]]


_SMALL_PRIMES = tuple(_primes(2, 47))

# The products of the primes from 53 to 2,000 and from 2,001 to 32,768. A
# candidate's gcd with a tier is the product of its prime factors in that
# range; a candidate with a factor in the first tier skips the second gcd.
_SIEVE_TIERS = tuple(math.prod(_primes(lo, hi)) for lo, hi in ((53, 2000), (2001, 32768)))


class KeyMismatchError(ValueError):
    """Operation mixed ciphertexts or keys that do not belong together."""


class CiphertextFormatError(ValueError):
    """Serialized ciphertext bytes are malformed."""


def _strong_liar(a: int, d: int, s: int, m: int) -> bool:
    """Whether a passes one Miller-Rabin round modulo m with the exponent
    2^s * d = n - 1 of the candidate n: a^d = 1 or a^(2^r * d) = -1 (mod m)
    for some r < s."""
    x = pow(a, d, m)
    if x == 1 or x == m - 1:
        return True
    for _ in range(s - 1):
        x = pow(x, 2, m)
        if x == m - 1:
            return True
    return False


def _is_probable_prime(n: int, rng: random.Random, rounds: int = 40) -> bool:
    """Miller-Rabin with `rounds` random witnesses, after trial division by
    the primes up to 47, which draws none.

    Every round draws its witness a = rng.randrange(2, n - 1). When n has a
    prime factor from 53 to 32,768, g = gcd(n, tier) > 1, and the round first
    runs modulo g, with n's own exponent. g divides n, so a strong liar
    modulo n is one modulo g too: a witness modulo g is a witness modulo n,
    and the test returns False after the same draws the full round would
    have. Only a liar modulo g goes on to the full round. So the answer and
    the rng's state are those of the plain test, while most such composites
    cost a pow modulo a few dozen bits instead of a full-size one.
    """
    if n < 2:
        return False
    for p in _SMALL_PRIMES:
        if n % p == 0:
            return n == p
    g = 1
    for tier in _SIEVE_TIERS:
        g = math.gcd(n, tier)
        if g > 1:
            break
    d = n - 1
    s = 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for _ in range(rounds):
        a = rng.randrange(2, n - 1)
        if g > 1 and not _strong_liar(a, d, s, g):
            return False  # a witness modulo g: the full round would return False
        if not _strong_liar(a, d, s, n):
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


def _inverses(values: list[int], modulus: int) -> list[int]:
    """The inverse of every value mod modulus, from one modular inverse
    (Montgomery's batch inversion: prefix products, then back-multiplies)."""
    prefix, acc = [], 1
    for value in values:
        acc = acc * value % modulus
        prefix.append(acc)
    inverse, out = pow(acc, -1, modulus), [0] * len(values)
    for i in range(len(values) - 1, 0, -1):
        out[i] = inverse * prefix[i - 1] % modulus
        inverse = inverse * values[i] % modulus
    if values:
        out[0] = inverse
    return out


def _window(tables: int, terms: int, bits: int) -> int:
    """The window width w that minimises the modular multiplications of an
    interleaved exponentiation: 2^w - 2 per table, and per term one per
    nonzero w-bit digit of a bits-bit exponent (squarings do not depend on w)."""
    return min(range(1, 9), key=lambda w: (tables * ((1 << w) - 2)
                                           + terms * -(-bits // w) * (1 - 2.0 ** -w)))


def _multiexp_job(job: tuple[list[int], list[list[int]], int]) -> list[int]:
    """prod_j bases[j]^column[j] mod n^2 for every column, job being (bases,
    exponent columns, n^2) with signed exponents: the ciphertext of every
    column's combination of the bases' plaintexts.

    Straus's interleaved windowed exponentiation (Straus, AMM 1964; Moeller,
    SAC 2001): a column's squarings serve all of its terms, and each
    (base, sign) has one table of its powers 1 .. 2^w - 1, shared by every
    column. A negative exponent raises the base's inverse; one batch
    inversion serves every base that needs one. A column with one nonzero
    term is a single pow, and a column of zeros is 1, the ciphertext of 0.
    """
    bases, columns, nsq = job
    negative = sorted({j for column in columns for j, e in enumerate(column) if e < 0})
    inverse = dict(zip(negative, _inverses([bases[j] for j in negative], nsq)))
    terms = [[(j, e) for j, e in enumerate(column) if e] for column in columns]
    shared = [t for t in terms if len(t) > 1]
    width = _window(len({(j, e < 0) for t in shared for j, e in t}), sum(map(len, shared)),
                    max((abs(e).bit_length() for t in shared for _, e in t), default=0))
    size, tables, out = 1 << width, {}, []

    def table(j: int, negate: bool) -> list[int]:
        if (j, negate) not in tables:
            x = inverse[j] if negate else bases[j]
            powers = [1, x]
            for _ in range(size - 2):
                powers.append(powers[-1] * x % nsq)
            tables[j, negate] = powers
        return tables[j, negate]

    for column in terms:
        if not column:
            out.append(1)
            continue
        if len(column) == 1:
            ((j, e),) = column
            out.append(pow(inverse[j] if e < 0 else bases[j], abs(e), nsq))
            continue
        digits = [(table(j, e < 0), abs(e)) for j, e in column]
        acc, top = 1, max(e for _, e in digits).bit_length()
        for shift in range((top - 1) // width * width, -1, -width):
            acc = pow(acc, size, nsq)
            for powers, e in digits:
                digit = (e >> shift) & (size - 1)
                if digit:
                    acc = acc * powers[digit] % nsq
        out.append(acc)
    return out


@dataclass(frozen=True)
class PublicKey:
    modulus: int
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

    def encrypt_residue(self, residue: int, rng: random.Random | None = None) -> int:
        """Enc(residue) = (1 + residue*n) * r^n mod n^2."""
        if not 0 <= residue < self.modulus:
            raise EncodingOverflowError("plaintext residue outside [0, n)")
        r = self.draw_r(rng)
        return self.combine(residue, pow(r, self.modulus, self.n_squared))

    def encrypt_raw(self, raw: int, frac_bits: int,
                    rng: random.Random | None = None) -> "Ciphertext":
        """Encrypt a signed fixed-point raw integer at the given precision."""
        check_frac_bits(frac_bits)
        value = self.encrypt_residue(to_residue(raw, self.modulus), rng)
        return Ciphertext(value, frac_bits, self)


@dataclass(frozen=True)
class PrivateKey:
    """The owner's key: its public key, the factorization n = p*q and the
    CRT constants built from it.

    The owner's exponentiations run modulo p^2 and q^2 and are recombined by
    CRT (Paillier, EUROCRYPT 1999, section 6) in its two batch forms:
    decryption and the obfuscators r^n of own-key encryption. The constants
    are closed-form in p and q, and none of them appears in repr.
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

    def encrypt_raws(self, raws: list[int], frac_bits: int | list[int],
                     rng: random.Random | None = None,
                     mapper: Mapper = map) -> list["Ciphertext"]:
        """public.encrypt_raw of every raw, in order; frac_bits is every raw's
        precision, or a list of one per raw.

        Every r is drawn from rng, in order, before any exponentiation, so
        the ciphertexts and rng's final state are those of a loop of
        encrypt_raw calls; the exponentiations then run through mapper, one
        job per raw. An empty list calls nothing.
        """
        fracs = [frac_bits] * len(raws) if isinstance(frac_bits, int) else list(frac_bits)
        if len(fracs) != len(raws):
            raise ValueError(f"{len(fracs)} fraction-bit counts for {len(raws)} raws")
        for frac in set(fracs):
            check_frac_bits(frac)
        public = self.public
        residues = [to_residue(raw, public.modulus) for raw in raws]
        jobs = [(self, residue, public.draw_r(rng)) for residue in residues]
        values = mapper(_encrypt_job, jobs) if jobs else []
        return [Ciphertext(value, frac, public) for value, frac in zip(values, fracs)]

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


def keygen(bits: int = 1024, rng: random.Random | None = None) -> PrivateKey:
    """Generate a private key, whose .public is its public key, with a
    modulus of exactly `bits` bits."""
    if bits < MIN_KEY_BITS or bits % 2:
        raise ValueError(f"key size must be an even number of bits, at least {MIN_KEY_BITS}")
    prime_rng = rng if rng is not None else random.Random(secrets.randbits(256))
    half = bits // 2
    p = _random_prime(half, prime_rng)
    while True:
        q = _random_prime(half, prime_rng)
        if q != p:
            break
    return PrivateKey(PublicKey(p * q), p, q)


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

    # No src caller: add_raw and mul_int stay only while perfbench's tracer
    # names them (ROADMAP item 1), and the paillier import of encode with them.
    def add_raw(self, raw: int) -> "Ciphertext":
        """Add a plaintext signed raw integer at this ciphertext's precision."""
        return self + FixedPoint(raw, self.frac_bits)

    def mul_int(self, k: int) -> "Ciphertext":
        """Multiply the plaintext by an exact signed integer; precision
        unchanged. The one-element contraction on the builtin map."""
        (product,) = contractions(map, ([self], [FixedPoint(k, 0)]))
        return product.item()


def _row_job(row: np.ndarray, exponents: np.ndarray, out: np.ndarray, pending: list,
             jobs: list):
    """Queue out[c] = sum_k row[k] * exponents[k, c], for every column c a
    term reaches, as one job whose bases are the row's ciphertexts those
    terms use; every term is checked first. An entry no term reaches stays
    the structural zero 0."""
    cts = [(k, ct) for k, ct in enumerate(row) if not is_zero(ct)]
    used, columns = set(), []
    for c in range(exponents.shape[1]):
        fracs = set()
        for k, ct in cts:
            e = exponents[k, c]
            if not is_zero(e):
                fracs.add(check_frac_sum(ct.frac_bits, e.frac_bits))
                used.add(k)
        if fracs:
            frac_bits = fracs.pop()
            for other in fracs:
                check_frac_match(frac_bits, other)
            columns.append((c, frac_bits))
    if not columns:
        return
    used = sorted(used)
    keys = {row[k].public_key.fingerprint: row[k].public_key for k in used}
    if len(keys) > 1:
        raise KeyMismatchError("cannot combine ciphertexts under different keys")
    (key,) = keys.values()
    pending.append((out, columns, key))
    jobs.append(([row[k].value for k in used],
                 [[0 if is_zero(exponents[k, c]) else exponents[k, c].raw for k in used]
                  for c, _ in columns],
                 key.n_squared))


def _holds_only(values: np.ndarray, kind: type) -> bool:
    return all(isinstance(x, kind) or is_zero(x) for x in values.flat)


def contractions(mapper: Mapper, *pairs) -> list[np.ndarray]:
    """a @ b under numpy matmul broadcasting for every pair (a, b), as
    object arrays: the batch form of ciphertext @ FixedPoint.

    a holds Ciphertexts and b FixedPoint exponents; either may hold
    structural zeros. An entry is the product of its terms' powers, or 0
    when no term pairs a Ciphertext with a FixedPoint; so a sum whose
    exponents are all zero is the ciphertext 1, never 0. Every term's
    fraction bits (a product's sum at most MAX_FRAC_BITS, equal across an
    entry's terms) and key are checked before any job. Then all of the
    pairs go through mapper in one batch of _multiexp_job jobs, one per row
    of a, whose bases serve every column of that row; over unit axes that is
    one one-term job per elementwise product. An empty batch calls nothing.
    """
    shaped, pending, jobs = [], [], []
    for a, b in pairs:
        a, b = np.asarray(a, dtype=object), np.asarray(b, dtype=object)
        vector_a, vector_b = a.ndim == 1, b.ndim == 1
        a, b = (a[None, :] if vector_a else a), (b[:, None] if vector_b else b)
        if not (_holds_only(a, Ciphertext) and _holds_only(b, FixedPoint)):
            raise TypeError("a contraction takes Ciphertext @ FixedPoint entries, "
                            "besides structural zeros")
        if a.shape[-1] != b.shape[-2]:
            raise ValueError(f"contraction over mismatched dims {a.shape} @ {b.shape}")
        batch = np.broadcast_shapes(a.shape[:-2], b.shape[:-2])
        a = np.broadcast_to(a, batch + a.shape[-2:])
        b = np.broadcast_to(b, batch + b.shape[-2:])
        out = np.zeros(batch + (a.shape[-2], b.shape[-1]), dtype=object)
        for index in np.ndindex(*batch, a.shape[-2]):
            _row_job(a[index], b[index[:-1]], out[index], pending, jobs)
        if vector_b:
            out = out[..., 0]
        if vector_a:
            out = out[..., 0] if vector_b else out[..., 0, :]
        shaped.append(out)
    values = mapper(_multiexp_job, jobs) if jobs else ()
    for (out, columns, key), column_values in zip(pending, values):
        for (c, frac_bits), value in zip(columns, column_values):
            out[c] = Ciphertext(value, frac_bits, key)
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

