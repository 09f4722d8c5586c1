import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from secureftl.encoding import (
    DEFAULT_FRAC_BITS,
    MAX_FRAC_BITS,
    EncodingOverflowError,
    decode_raw,
    encode,
    encode_array,
    from_residue,
    to_residue,
)


def test_defaults():
    assert DEFAULT_FRAC_BITS == 40
    assert MAX_FRAC_BITS == 255


def test_encode_known_values():
    assert encode(1.0, 8) == 256
    assert encode(-1.0, 8) == -256
    assert encode(0.5, 1) == 1
    assert encode(0.0, 40) == 0
    assert type(encode(2.5, 3)) is int


def test_decode_known_values():
    assert decode_raw(256, 8) == 1.0
    assert decode_raw(-384, 8) == -1.5
    assert decode_raw(3, 1) == 1.5


@given(st.floats(min_value=-1e6, max_value=1e6, allow_nan=False))
def test_roundtrip_error_bound(value):
    # quantisation error is at most half an lsb
    got = decode_raw(encode(value, DEFAULT_FRAC_BITS), DEFAULT_FRAC_BITS)
    assert abs(got - value) <= 2.0 ** -(DEFAULT_FRAC_BITS + 1)


@given(st.floats(min_value=-1e6, max_value=1e6, allow_nan=False),
       st.integers(min_value=0, max_value=60))
def test_roundtrip_any_frac(value, frac_bits):
    got = decode_raw(encode(value, frac_bits), frac_bits)
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


# Floats of every kind encode accepts or rejects: any finite float (±0,
# subnormals, huge values), and values exactly half an lsb off the grid.
_EDGES = st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1.7e308,
                          -1.7e308, 0.5, -1.5, 2.5])


@given(st.integers(0, MAX_FRAC_BITS).flatmap(lambda f: st.tuples(st.just(f), st.lists(
    st.one_of(st.floats(allow_nan=False, allow_infinity=False), _EDGES,
              st.integers(-(2 ** 40), 2 ** 40).map(lambda k: math.ldexp(k + 0.5, -f))),
    max_size=6))))
def test_encode_array_equals_encode(case):
    frac_bits, values = case
    try:
        expected = [encode(v, frac_bits) for v in values]
    except EncodingOverflowError:
        with pytest.raises(EncodingOverflowError):
            encode_array(values, frac_bits)
        return
    got = encode_array(np.array(values, dtype=float), frac_bits)
    assert got.dtype == object and got.shape == (len(values),)
    assert got.tolist() == expected and all(type(raw) is int for raw in got.flat)


def test_encode_array_keeps_the_shape():
    assert encode_array(2.5, 0).shape == () and encode_array(2.5, 0).item() == 2
    assert encode_array([[0.5, -0.5], [1.5, -2.5]], 0).tolist() == [[0, 0], [2, -2]]
    assert encode_array(np.zeros((0, 3)), 8).shape == (0, 3)


@pytest.mark.parametrize("values, frac_bits, message", [
    ([1.0, math.inf], 8, "non-finite"), ([-math.inf], 0, "non-finite"),
    ([math.nan, 1.0], 40, "non-finite"), ([0.0, 1e300], 40, "overflows"),
    ([-1e308], 255, "overflows"), ([1.0], MAX_FRAC_BITS + 1, "outside"), ([1.0], -1, "outside")])
def test_encode_array_raises_on_what_encode_rejects(values, frac_bits, message):
    with pytest.raises(EncodingOverflowError, match=message):
        encode_array(values, frac_bits)
