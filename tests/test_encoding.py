import pytest
from hypothesis import given, strategies as st

from secureftl.encoding import (
    DEFAULT_FRAC_BITS,
    MAX_FRAC_BITS,
    EncodingOverflowError,
    FixedPoint,
    decode_raw,
    encode,
    from_residue,
    to_residue,
)


def test_defaults():
    assert DEFAULT_FRAC_BITS == 40
    assert MAX_FRAC_BITS == 255


def test_encode_known_values():
    assert encode(1.0, 8).raw == 256
    assert encode(-1.0, 8).raw == -256
    assert encode(0.5, 1).raw == 1
    assert encode(0.0, 40).raw == 0


def test_decode_known_values():
    assert FixedPoint(256, 8).decode() == 1.0
    assert FixedPoint(-384, 8).decode() == -1.5
    assert decode_raw(3, 1) == 1.5


@given(st.floats(min_value=-1e6, max_value=1e6, allow_nan=False))
def test_roundtrip_error_bound(value):
    # quantisation error is at most half an lsb
    got = encode(value, DEFAULT_FRAC_BITS).decode()
    assert abs(got - value) <= 2.0 ** -(DEFAULT_FRAC_BITS + 1)


@given(st.floats(min_value=-1e6, max_value=1e6, allow_nan=False),
       st.integers(min_value=0, max_value=60))
def test_roundtrip_any_frac(value, frac_bits):
    got = encode(value, frac_bits).decode()
    assert abs(got - value) <= 2.0 ** -(frac_bits + 1)


def test_frac_bits_out_of_range():
    with pytest.raises(EncodingOverflowError):
        encode(1.0, MAX_FRAC_BITS + 1)
    with pytest.raises(EncodingOverflowError):
        encode(1.0, -1)


@pytest.mark.parametrize("value, frac_bits", [(1e300, 40), (-1e308, 255), (1.7e308, 1)])
def test_encode_overflowing_scale(value, frac_bits):
    # Finite values whose scaled form overflows to +-inf.
    with pytest.raises(EncodingOverflowError):
        encode(value, frac_bits)


@given(st.integers(min_value=-(2 ** 80), max_value=2 ** 80))
def test_residue_roundtrip(raw):
    modulus = 2 ** 200 + 235  # no structure needed, just > 2*|raw|
    assert from_residue(to_residue(raw, modulus), modulus) == raw


@given(st.integers(min_value=0, max_value=2 ** 40))
def test_residue_sign_convention(raw):
    modulus = 2 ** 100 + 277
    assert to_residue(raw, modulus) == raw % modulus
    assert to_residue(-raw, modulus) == (modulus - raw) % modulus


def test_residue_overflow():
    modulus = 101
    with pytest.raises(EncodingOverflowError):
        to_residue(51, modulus)  # > modulus // 2
    assert to_residue(50, modulus) == 50
    assert from_residue(51, modulus) == -50


def test_fixed_point_arithmetic():
    assert FixedPoint(3, 4) + FixedPoint(-5, 4) == FixedPoint(-2, 4)
    assert FixedPoint(3, 4) * FixedPoint(-5, 2) == FixedPoint(-15, 6)
    with pytest.raises(EncodingOverflowError, match="fraction-bit mismatch in addition: 4 vs 5"):
        _ = FixedPoint(3, 4) + FixedPoint(3, 5)
    with pytest.raises(EncodingOverflowError, match=f"fraction bits 256 exceed {MAX_FRAC_BITS}"):
        _ = FixedPoint(1, 200) * FixedPoint(1, 56)


def test_zero_is_structural():
    x = FixedPoint(7, 3)
    assert x + 0 is x and 0 + x is x
    assert x * 0 == 0 and 0 * x == 0
    assert x * FixedPoint(0, 1) == FixedPoint(0, 4)
    assert sum([x, x]) == FixedPoint(14, 3)
