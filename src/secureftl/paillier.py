"""Paillier additively homomorphic encryption with fraction-bit bookkeeping.

Implements keygen plus one batch form of each operation the protocol needs.
ct + ct adds two ciphertexts and ct.add_raw(raw) a plaintext raw int; a
product with a plaintext is only ever a contraction against a float64
array, so a ciphertext has no *. Ciphertexts carry the fractional-bit
counter of their fixed-point plaintext so mismatched additions fail loudly
instead of corrupting silently, and the int 0 is the structural zero of
encoding (no other int is an addend).

Uses the g = n + 1 variant: Enc(m) = (1 + m*n) * r^n mod n^2, so g^m costs
a multiply instead of a full modular exponentiation, and the modulus n is
the whole public key.

Every modular exponentiation runs on libgmp through ctypes when the
system's libgmp loads, else on builtin pow: _powmod is mpz_powm or pow, and
on libgmp a _multiexp_job is one mpz session (_gmp_multiexp), its Python
loop of _powmod being the fallback. Both backends compute the same integers,
so keys, ciphertexts and transcripts do not depend on which one runs.

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
batch form, contractions (a @ b): a holds ciphertexts, b is float64 and
encoded once at the one fraction count given with it (encode_array). It
checks each row's key and fraction bits before any job, then cuts each row
of the ciphertext operand into one stride of its ciphertexts per worker
(_workers, the usable CPUs), each stride a job whose bases serve all of the
row's columns, queued so each worker's chunk holds one stride of every row;
the stride products multiply into the row's entries. An elementwise product
is a contraction over unit axes,
a[..., None, None] @ b[..., None, None], so only contractions knows the
rule of multiplication. __add__ and add_raw know the rule of addition: with
g = n + 1, g^a g^b = g^(a + b) mod n^2, so a plaintext joins a ciphertext
as one raw however many addends it sums. mul_int, which no protocol path
calls, is one one-term _multiexp_job by an exact int.

keygen draws each prime as random candidates tested by trial division up
to 47 and 40 Miller-Rabin rounds with random witnesses. A candidate with a
prime factor from 53 to 32,768 has a gcd g > 1 with one of two fixed prime
products, and each of its rounds first runs modulo g: g divides n, so a
witness modulo g is a witness modulo n. That rejects most such composites
with a _powmod modulo a few dozen bits instead of a full-size one, while
every witness is drawn as before, so the keys and the rng's state after
keygen are those of the plain test. A round's squarings are products
x * x % m, since a ctypes call costs more than a squaring of this size.

This is a research implementation: keygen takes any even key size from
MIN_KEY_BITS up, randomness may come from a seeded PRNG for reproducible
protocol transcripts, and neither pow nor mpz_powm runs in constant time.
Do not use it to protect real data.
"""

from __future__ import annotations

import ctypes
import ctypes.util
import hashlib
import math
import os
import random
import secrets
import struct
from collections.abc import Callable, Iterable
from dataclasses import dataclass, field

import numpy as np

from .encoding import (
    EncodingOverflowError,
    check_frac_bits,
    check_frac_match,
    check_frac_sum,
    encode,  # noqa: F401
    encode_array,
    from_residue,
    is_zero,
    to_residue,
)

MIN_KEY_BITS = 512


class _Mpz(ctypes.Structure):
    """GMP's mpz_t: allocated limbs, signed limb count, limb pointer."""
    _fields_ = [("alloc", ctypes.c_int), ("size", ctypes.c_int), ("limbs", ctypes.c_void_p)]


def _load_gmp() -> ctypes.CDLL | None:
    """libgmp with the signatures _powmod and _gmp_multiexp call declared,
    or None when the library cannot be found or loaded."""
    name = ctypes.util.find_library("gmp")
    if name is None:
        return None
    try:
        lib = ctypes.CDLL(name)
    except OSError:
        return None
    mpz, size, int_ = ctypes.POINTER(_Mpz), ctypes.c_size_t, ctypes.c_int
    for function, argtypes, restype in (
            ("__gmpz_init", [mpz], None),
            ("__gmpz_clear", [mpz], None),
            ("__gmpz_import", [mpz, size, int_, size, int_, size, ctypes.c_char_p], None),
            ("__gmpz_export", [ctypes.c_char_p, ctypes.POINTER(size), int_, size, int_, size,
                               mpz], ctypes.c_void_p),
            ("__gmpz_sizeinbase", [mpz, int_], size),
            ("__gmpz_set_ui", [mpz, ctypes.c_ulong], None),
            ("__gmpz_powm", [mpz, mpz, mpz, mpz], None),
            ("__gmpz_powm_ui", [mpz, mpz, ctypes.c_ulong, mpz], None),
            ("__gmpz_invert", [mpz, mpz, mpz], int_),
            ("__gmpz_mul", [mpz, mpz, mpz], None),
            ("__gmpz_mod", [mpz, mpz, mpz], None)):
        getattr(lib, function).argtypes = argtypes
        getattr(lib, function).restype = restype
    return lib


_GMP = _load_gmp()
_ULONG_MAX = (1 << 8 * ctypes.sizeof(ctypes.c_ulong)) - 1  # mpz_powm_ui's largest exponent


def _mpz(held: list[_Mpz], value: int = 0) -> _Mpz:
    """A new mpz in held, the caller's to clear, set to the non-negative value."""
    held.append(z := _Mpz())
    _GMP.__gmpz_init(z)
    if value:
        count = (value.bit_length() + 7) // 8
        _GMP.__gmpz_import(z, count, 1, 1, 0, 0, value.to_bytes(count, "big"))
    return z


def _from_mpz(z: _Mpz) -> int:
    """The non-negative value of z, exported as big-endian bytes."""
    out = ctypes.create_string_buffer(_GMP.__gmpz_sizeinbase(z, 256))
    count = ctypes.c_size_t()
    _GMP.__gmpz_export(out, ctypes.byref(count), 1, 1, 0, 0, z)
    return int.from_bytes(out.raw[:count.value], "big")


def _gmp_powmod(base: int, exp: int, mod: int) -> int:
    """pow(base, exp, mod), by libgmp's mpz_powm when base >= 0, exp >= 0 and
    mod >= 1, and by builtin pow otherwise: mpz_powm divides by a zero mod,
    which kills the process where pow raises ValueError."""
    if base < 0 or exp < 0 or mod < 1:
        return pow(base, exp, mod)
    held = []
    try:
        result = _mpz(held)
        _GMP.__gmpz_powm(result, _mpz(held, base), _mpz(held, exp), _mpz(held, mod))
        return _from_mpz(result)
    finally:
        for z in held:
            _GMP.__gmpz_clear(z)


# Every exponentiation outside _gmp_multiexp: libgmp's when it loads, else
# builtin pow. Both give the same integers.
_powmod = pow if _GMP is None else _gmp_powmod


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
    x = _powmod(a, d, m)
    if x == 1 or x == m - 1:
        return True
    for _ in range(s - 1):
        x = x * x % m
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
    cost a _powmod modulo a few dozen bits instead of a full-size one.
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


def _gmp_multiexp(bases: list[int], columns: list[list[int]], nsq: int) -> list[int]:
    """_multiexp_job as one mpz session: n^2 and each base a nonzero exponent
    uses are imported once, each base with a negative exponent is inverted
    once (mpz_invert), each term is one mpz_powm_ui (mpz_powm when |e| exceeds
    an unsigned long), each column accumulates by mpz_mul and mpz_mod and is
    exported once. Its mpz values are its own, so threads can run it at once."""
    held = []
    try:
        m, acc, term = _mpz(held, nsq), _mpz(held), _mpz(held)
        terms = {(j, e > 0) for column in columns for j, e in enumerate(column) if e}
        powered = {(j, True): _mpz(held, bases[j]) for j in {j for j, _ in terms}}
        for j in {j for j, positive in terms if not positive}:
            powered[j, False] = _mpz(held)
            if not _GMP.__gmpz_invert(powered[j, False], powered[j, True], m):
                raise ValueError("base is not invertible for the given modulus")
        out = []
        for column in columns:
            _GMP.__gmpz_set_ui(acc, 1)
            for j, e in enumerate(column):
                if not e:
                    continue
                if abs(e) <= _ULONG_MAX:
                    _GMP.__gmpz_powm_ui(term, powered[j, e > 0], abs(e), m)
                else:
                    _GMP.__gmpz_powm(term, powered[j, e > 0], _mpz(held, abs(e)), m)
                _GMP.__gmpz_mul(acc, acc, term)
                _GMP.__gmpz_mod(acc, acc, m)
            out.append(_from_mpz(acc))
        return out
    finally:
        for z in held:
            _GMP.__gmpz_clear(z)


def _multiexp_job(job: tuple[list[int], list[list[int]], int]) -> list[int]:
    """prod_j bases[j]^column[j] mod n^2 for every column, job being (bases,
    exponent columns, n^2) with signed exponents: the ciphertext of every
    column's combination of the bases' plaintexts. A column of zeros is 1.

    When _powmod is libgmp's, the job is one _gmp_multiexp. The fallback, on
    builtin pow or an n^2 below 2 (mpz_powm would divide by zero), is one
    _powmod per nonzero term after one batch inversion of the bases with a
    negative exponent; both give the same integers, an inverse being unique.
    Per-term powers beat Straus's windows in Python on libgmp only (BENCH_gmp.json)."""
    bases, columns, nsq = job
    if _powmod is _gmp_powmod and nsq > 1:
        return _gmp_multiexp(bases, columns, nsq)
    negative = sorted({j for column in columns for j, e in enumerate(column) if e < 0})
    inverse = dict(zip(negative, _inverses([bases[j] for j in negative], nsq)))
    out = []
    for column in columns:
        acc = 1
        for j, e in enumerate(column):
            if e:
                acc = acc * _powmod(inverse[j] if e < 0 else bases[j], abs(e), nsq) % nsq
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
        return self.combine(residue, _powmod(r, self.modulus, self.n_squared))

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
        xp = _powmod(_powmod(r % p, self.exp_p, p), p, self.p_squared)
        xq = _powmod(_powmod(r % q, self.exp_q, q), q, self.q_squared)
        return xq + (xp - xq) * self.q_squared_inv % self.p_squared * self.q_squared

    def decrypt_residue(self, value: int) -> int:
        p, q = self.p, self.q
        mp = (_powmod(value % self.p_squared, p - 1, self.p_squared) - 1) // p * self.hp % p
        mq = (_powmod(value % self.q_squared, q - 1, self.q_squared) - 1) // q * self.hq % q
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


def check_key_bits(bits: int):
    """Refuse a key size keygen cannot make: odd, or under MIN_KEY_BITS."""
    if bits < MIN_KEY_BITS or bits % 2:
        raise ValueError(f"key size must be an even number of bits, at least {MIN_KEY_BITS}")


def keygen(bits: int, rng: random.Random | None = None) -> PrivateKey:
    """Generate a private key, whose .public is its public key, with a
    modulus of exactly `bits` bits."""
    check_key_bits(bits)
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

    def __add__(self, other: "Ciphertext | int") -> "Ciphertext":
        """Add a ciphertext under the same key at equal fraction bits; the
        structural zero 0 adds nothing."""
        if not isinstance(other, Ciphertext):
            return self if is_zero(other) else NotImplemented
        if self.public_key.fingerprint != other.public_key.fingerprint:
            raise KeyMismatchError("cannot combine ciphertexts under different keys")
        check_frac_match(self.frac_bits, other.frac_bits)
        nsq = self.public_key.n_squared
        return Ciphertext(self.value * other.value % nsq, self.frac_bits, self.public_key)

    def __radd__(self, other) -> "Ciphertext":
        # Through +, so every homomorphic addition enters __add__ once.
        return self if is_zero(other) else self + other

    def add_raw(self, raw: int) -> "Ciphertext":
        """Add a plaintext signed raw integer at this ciphertext's precision:
        times g^raw = 1 + raw*n mod n^2."""
        n, nsq = self.public_key.modulus, self.public_key.n_squared
        return Ciphertext(self.value * (1 + to_residue(raw, n) * n) % nsq, self.frac_bits,
                          self.public_key)

    # No src caller: mul_int stays only while perfbench's tracer names it
    # (ROADMAP item 1), and the paillier import of encode with it.
    def mul_int(self, k: int) -> "Ciphertext":
        """Multiply the plaintext by an exact signed integer; precision
        unchanged. One one-term _multiexp_job."""
        (value,) = _multiexp_job(([self.value], [[k]], self.public_key.n_squared))
        return Ciphertext(value, self.frac_bits, self.public_key)


def _workers() -> int:
    """The usable CPUs: a run's worker processes, and the strides each row of
    a contraction is cut into."""
    return len(os.sched_getaffinity(0))


def _row_job(row: np.ndarray, raws: np.ndarray, frac_bits: int, out: np.ndarray,
             strides: int, rows: list):
    """Queue out[c] = sum_k row[k] * raws[k, c] for every column c, as one
    job per nonempty stride k, k + strides, ... of the row's ciphertexts,
    each carrying every column, the products at their fraction bits plus
    frac_bits. The row's key, ciphertext fraction bits and that sum are
    checked once. A row with no ciphertext stays the structural zero 0."""
    used = [k for k, ct in enumerate(row) if not is_zero(ct)]
    cts = [row[k] for k in used]
    if not all(isinstance(ct, Ciphertext) for ct in cts):
        raise TypeError("a contraction takes Ciphertext entries, besides structural zeros")
    if len({ct.public_key.fingerprint for ct in cts}) > 1:
        raise KeyMismatchError("cannot combine ciphertexts under different keys")
    for ct in cts[1:]:
        check_frac_match(cts[0].frac_bits, ct.frac_bits)
    if cts and raws.shape[1]:
        key = cts[0].public_key
        rows.append((out, check_frac_sum(cts[0].frac_bits, frac_bits), key, [
            ([ct.value for ct in cts[k::strides]], raws[used[k::strides]].T.tolist(),
             key.n_squared) for k in range(min(strides, len(cts)))]))


def contractions(mapper: Mapper, *triples) -> list[np.ndarray]:
    """a @ b under numpy matmul broadcasting for every triple (a, b,
    frac_bits), as object arrays: the batch form of ciphertext times
    plaintext.

    a holds Ciphertexts or structural zeros; b is float64, encoded once at
    frac_bits by encode_array (a non-finite or overflowing value raises).
    An entry is 0 when its row of a holds no Ciphertext, else the product of
    its terms' powers at the row's fraction bits plus frac_bits, so a column
    of zero exponents gives the ciphertext 1. Every b is encoded and every
    row's key and fraction bits checked before any job. Then all of the
    triples go through mapper in one batch of _multiexp_job jobs: each row
    of a, its structural zeros dropped, is cut into one stride k, k + W, ...
    of its ciphertexts per worker (W = _workers()), and each nonempty stride
    is a job that carries every column of the row. The jobs are queued
    stride-major, stride 0 of every row, then stride 1, ..., so each of the
    executor's equal-count chunks holds one stride of every row; a row's
    stride products multiplied mod n^2 are the integers one job would give.
    Over unit axes that is one one-term job per elementwise product. An
    empty batch calls nothing.
    """
    strides, shaped, rows = _workers(), [], []
    for a, b, frac_bits in triples:
        a, b = np.asarray(a, dtype=object), encode_array(b, frac_bits)
        vector_a, vector_b = a.ndim == 1, b.ndim == 1
        a, b = (a[None, :] if vector_a else a), (b[:, None] if vector_b else b)
        if a.shape[-1] != b.shape[-2]:
            raise ValueError(f"contraction over mismatched dims {a.shape} @ {b.shape}")
        batch = np.broadcast_shapes(a.shape[:-2], b.shape[:-2])
        a = np.broadcast_to(a, batch + a.shape[-2:])
        b = np.broadcast_to(b, batch + b.shape[-2:])
        out = np.zeros(batch + (a.shape[-2], b.shape[-1]), dtype=object)
        for index in np.ndindex(*batch, a.shape[-2]):
            _row_job(a[index], b[index[:-1]], frac_bits, out[index], strides, rows)
        if vector_b:
            out = out[..., 0]
        if vector_a:
            out = out[..., 0] if vector_b else out[..., 0, :]
        shaped.append(out)
    # Stride-major: stride 0 of every row, then stride 1, ...
    order = sorted((k, i) for i, (*_, jobs) in enumerate(rows) for k in range(len(jobs)))
    values = mapper(_multiexp_job, [rows[i][3][k] for k, i in order]) if order else ()
    products = [[1] * len(out) for out, *_ in rows]
    for (_, i), column_values in zip(order, values):
        nsq = rows[i][2].n_squared
        products[i] = [x * y % nsq for x, y in zip(products[i], column_values)]
    for (out, frac_bits, key, _), row_values in zip(rows, products):
        out[:] = [Ciphertext(value, frac_bits, key) for value in row_values]
    return shaped


# A serialized ciphertext's header: 8-byte key fingerprint, 1-byte frac
# counter, 4-byte value length.
_CT_HEADER = struct.Struct(">8sBI")


def serialize_ciphertext(ct: Ciphertext) -> bytes:
    """_CT_HEADER, then the value padded to the key's fixed width, so every
    ciphertext under a given key serializes to the same number of bytes."""
    width = ct.public_key.value_width
    return (_CT_HEADER.pack(ct.public_key.fingerprint, ct.frac_bits, width)
            + ct.value.to_bytes(width, "big"))


def ciphertext_wire_size(key_bits: int) -> int:
    """Serialized size in bytes of one ciphertext under a key_bits modulus."""
    return _CT_HEADER.size + (2 * key_bits + 7) // 8


def deserialize_ciphertext(buf: bytes, key: PublicKey,
                           offset: int = 0) -> tuple[Ciphertext, int]:
    """Parse one ciphertext under key from buf at offset; returns (ciphertext,
    next offset). One under any other key raises KeyMismatchError."""
    if len(buf) - offset < _CT_HEADER.size:
        raise CiphertextFormatError("truncated ciphertext header")
    fingerprint, frac_bits, length = _CT_HEADER.unpack_from(buf, offset)
    if fingerprint != key.fingerprint:
        raise KeyMismatchError(f"ciphertext under key {fingerprint.hex()}, "
                               f"expected {key.fingerprint.hex()}")
    start = offset + _CT_HEADER.size
    end = start + length
    if length != key.value_width or len(buf) < end:
        raise CiphertextFormatError("ciphertext value length does not match key width")
    value = int.from_bytes(buf[start:end], "big")
    if value >= key.n_squared:
        raise CiphertextFormatError("ciphertext value outside [0, n^2)")
    # Every encryption is a unit mod n^2; anything sharing a factor with n
    # (0, multiples of p or q) would decrypt silently to an arbitrary value.
    if math.gcd(value, key.modulus) != 1:
        raise CiphertextFormatError("ciphertext value is not a unit mod n^2")
    return Ciphertext(value, frac_bits, key), end

