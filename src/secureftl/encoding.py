"""Fixed-point encoding of signed reals for homomorphic arithmetic.

Additively homomorphic schemes operate on integers modulo n, so every real
value is scaled by 2**frac_bits and rounded. Negative values wrap into the
upper half of the plaintext space, two's-complement style: residues in
(n/2, n) decode as negative. Every encrypted intermediate carries an explicit
fractional-bit counter; multiplying two f-bit quantities yields a 2f-bit one,
and the single rescale happens after decryption (rescaling under encryption
is impossible additively).

FixedPoint and paillier.Ciphertext share one +, which needs equal fraction
bits; a product adds them, and takes a ciphertext only in
paillier.contractions. The int 0 is the structural zero, a value nothing
reached: it adds nothing, and any product with it stays 0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

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


@dataclass(frozen=True, slots=True)
class FixedPoint:
    """A signed real stored as raw = round(value * 2**frac_bits)."""

    raw: int
    frac_bits: int

    def decode(self) -> float:
        return decode_raw(self.raw, self.frac_bits)

    def __add__(self, other):
        if isinstance(other, FixedPoint):
            check_frac_match(self.frac_bits, other.frac_bits)
            return FixedPoint(self.raw + other.raw, self.frac_bits)
        return self if is_zero(other) else NotImplemented

    def __mul__(self, other):
        if isinstance(other, FixedPoint):
            return FixedPoint(self.raw * other.raw,
                              check_frac_sum(self.frac_bits, other.frac_bits))
        return 0 if is_zero(other) else NotImplemented

    __radd__ = __add__
    __rmul__ = __mul__


def encode(value: float, frac_bits: int = DEFAULT_FRAC_BITS) -> FixedPoint:
    """Round value to the nearest multiple of 2**-frac_bits."""
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
    return FixedPoint(round(scaled), frac_bits)


def decode_raw(raw: int, frac_bits: int) -> float:
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
