"""Fixed-point encoding of signed reals for homomorphic arithmetic.

Additively homomorphic schemes operate on integers modulo n, so every real
value is scaled by 2**frac_bits and rounded. Negative values wrap into the
upper half of the plaintext space, two's-complement style: residues in
(n/2, n) decode as negative. Every encrypted intermediate carries an explicit
fractional-bit counter; multiplying two f-bit quantities yields a 2f-bit one,
and the single rescale happens after decryption (rescaling under encryption
is impossible additively).

A plaintext is a raw int, encode's result. It meets a ciphertext in two
ways only: in a product as a float64 array, which encode_array turns into
raws once, in paillier.contractions (the product's fraction bits are the
sum of both sides'), and in a sum as one raw at the ciphertext's fraction
bits, Ciphertext.add_raw. The int 0 is the structural zero, a value
nothing reached: it adds nothing.
"""

from __future__ import annotations

import math

import numpy as np

DEFAULT_FRAC_BITS = 40
# Wire format spends one byte on the counter; deep encrypted backprop chains
# must keep their accumulated fraction below this.
MAX_FRAC_BITS = 255


class EncodingOverflowError(ValueError):
    """Value does not fit the plaintext space at the requested precision."""


def is_zero(value) -> bool:
    """Whether value is the structural zero, the int 0."""
    return isinstance(value, int) and value == 0


def check_frac_bits(frac_bits: int):
    if not 0 <= frac_bits <= MAX_FRAC_BITS:
        raise EncodingOverflowError(f"frac_bits {frac_bits} outside [0, {MAX_FRAC_BITS}]")


def check_frac_sum(a: int, b: int) -> int:
    """The fraction bits of a product: a + b, at most MAX_FRAC_BITS."""
    if a + b > MAX_FRAC_BITS:
        raise EncodingOverflowError(f"fraction bits {a + b} exceed {MAX_FRAC_BITS}")
    return a + b


def check_frac_match(a: int, b: int):
    if a != b:
        raise EncodingOverflowError(f"fraction-bit mismatch in addition: {a} vs {b}")


def encode(value: float, frac_bits: int = DEFAULT_FRAC_BITS) -> int:
    """The raw int round(value * 2**frac_bits): value rounded to the nearest
    multiple of 2**-frac_bits."""
    check_frac_bits(frac_bits)
    value = float(value)
    if not math.isfinite(value):
        raise EncodingOverflowError(f"cannot encode non-finite value {value!r}")
    # Scaling by a power of two is exact in binary floating point, unless it
    # overflows to inf, so the only rounding here is the final half-even
    # round to integer.
    scaled = value * (1 << frac_bits)
    if not math.isfinite(scaled):
        raise EncodingOverflowError(f"{value!r} * 2**{frac_bits} overflows a float")
    return round(scaled)


def encode_array(values, frac_bits: int) -> np.ndarray:
    """encode(v, frac_bits) of every entry of a float64 array, as an
    object array of ints of the same shape."""
    check_frac_bits(frac_bits)
    values = np.asarray(values, dtype=float)
    if not np.isfinite(values).all():
        raise EncodingOverflowError("cannot encode a non-finite value")
    with np.errstate(over="ignore"):
        scaled = values * float(1 << frac_bits)
    if not np.isfinite(scaled).all():
        raise EncodingOverflowError(f"a value * 2**{frac_bits} overflows a float")
    # The same exact power-of-two scaling and half-even round as encode.
    return np.array([round(x) for x in scaled.ravel().tolist()],
                    dtype=object).reshape(values.shape)


def decode_raw(raw: int, frac_bits: int) -> float:
    """The real a raw int at frac_bits stands for: raw / 2**frac_bits."""
    # Big-int / big-int true division is correctly rounded in CPython even
    # when raw exceeds the float mantissa.
    return raw / (1 << frac_bits)


def to_residue(raw: int, modulus: int) -> int:
    """Map a signed raw integer into [0, modulus), wrapping negatives high."""
    bound = modulus // 2
    if raw > bound or raw < -bound:
        raise EncodingOverflowError(
            f"raw magnitude {raw.bit_length()} bits exceeds plaintext budget "
            f"of modulus ({modulus.bit_length()} bits)"
        )
    return raw % modulus


def from_residue(residue: int, modulus: int) -> int:
    """Invert to_residue: residues above modulus/2 are negative."""
    if not 0 <= residue < modulus:
        raise EncodingOverflowError("residue outside [0, modulus)")
    if residue > modulus // 2:
        return residue - modulus
    return residue
