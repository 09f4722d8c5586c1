import pytest
from hypothesis import given, settings, strategies as st

from secureftl.transport import (
    DIR_SOURCE_TO_TARGET,
    DIR_TARGET_TO_SOURCE,
    ChannelClosed,
    Frame,
    FramingError,
    HEADER,
    MsgType,
    Section,
    Transcript,
    decode_frame,
    encode_frame,
    loopback_pair,
    measure_cost,
    pack_sections,
    tcp_pair,
    unpack_sections,
)


@settings(max_examples=50)
@given(st.sampled_from(list(MsgType)), st.integers(min_value=0, max_value=2 ** 32 - 1),
       st.binary(max_size=200))
def test_frame_roundtrip(msg_type, iteration, payload):
    frame = Frame(msg_type, iteration, payload)
    assert decode_frame(encode_frame(frame)) == frame


def test_frame_rejects_unknown_type():
    with pytest.raises(FramingError):
        Frame(99, 0)


def test_frame_rejects_bad_iteration():
    with pytest.raises(FramingError):
        Frame(MsgType.STOP, -1)
    with pytest.raises(FramingError):
        Frame(MsgType.STOP, 1 << 32)


def test_decode_rejects_garbage():
    with pytest.raises(FramingError):
        decode_frame(b"xx")
    with pytest.raises(FramingError):
        decode_frame(b"NOPE" + bytes(HEADER.size - 4))
    good = encode_frame(Frame(MsgType.STOP, 0, b"abc"))
    with pytest.raises(FramingError):
        decode_frame(good + b"extra")


def test_loopback_delivery_and_transcript():
    source, target, transcript = loopback_pair()
    source.send(Frame(MsgType.COMPONENTS_A, 1, b"hello"))
    target.send(Frame(MsgType.COMPONENTS_B, 1, b"back"))
    assert target.recv(timeout=1).payload == b"hello"
    assert source.recv(timeout=1).payload == b"back"
    assert transcript.payload_bytes(DIR_SOURCE_TO_TARGET) == 5
    assert transcript.payload_bytes(DIR_TARGET_TO_SOURCE) == 4


def test_loopback_preserves_order():
    source, target, _ = loopback_pair()
    for k in range(5):
        source.send(Frame(MsgType.COMPONENTS_A, k, bytes([k])))
    got = [target.recv(timeout=1).iteration for _ in range(5)]
    assert got == [0, 1, 2, 3, 4]


def test_loopback_close_signals_peer():
    source, target, _ = loopback_pair()
    source.close()
    with pytest.raises(ChannelClosed):
        target.recv(timeout=1)
    with pytest.raises(ChannelClosed):
        source.send(Frame(MsgType.STOP, 0))


def test_loopback_recv_timeout():
    source, _, _ = loopback_pair()
    with pytest.raises(TimeoutError):
        source.recv(timeout=0.05)


def test_transcript_filters_and_summary():
    transcript = Transcript()
    transcript.record(DIR_SOURCE_TO_TARGET, Frame(MsgType.COMPONENTS_A, 0, b"aa"))
    transcript.record(DIR_SOURCE_TO_TARGET, Frame(MsgType.COMPONENTS_A, 1, b"bb"))
    transcript.record(DIR_TARGET_TO_SOURCE, Frame(MsgType.STOP, 1, b""))
    assert len(transcript.frames(DIR_SOURCE_TO_TARGET)) == 2
    assert len(transcript.frames(msg_type=MsgType.STOP)) == 1
    assert transcript.payload_bytes(DIR_SOURCE_TO_TARGET, MsgType.COMPONENTS_A) == 4
    assert transcript.payload_bytes(DIR_TARGET_TO_SOURCE, MsgType.STOP) == 0


def test_tcp_pair_roundtrip():
    source, target, transcript = tcp_pair()
    try:
        payload = bytes(range(256)) * 64
        source.send(Frame(MsgType.COMPONENTS_A, 3, payload))
        frame = target.recv(timeout=10)
        assert frame.msg_type == MsgType.COMPONENTS_A
        assert frame.iteration == 3
        assert frame.payload == payload
        target.send(Frame(MsgType.STOP, 3))
        assert source.recv(timeout=10).msg_type == MsgType.STOP
    finally:
        source.close()
        target.close()
    assert transcript.payload_bytes(DIR_SOURCE_TO_TARGET) == len(payload)


def test_tcp_close_signals_peer():
    source, target, _ = tcp_pair()
    source.close()
    with pytest.raises(ChannelClosed):
        target.recv(timeout=10)
    target.close()


@settings(max_examples=25)
@given(st.lists(st.tuples(st.text(max_size=20), st.lists(st.integers(0, 3), max_size=3),
                          st.binary(min_size=27, max_size=64)),
                max_size=5, unique_by=lambda s: s[0]))
def test_sections_roundtrip(raw):
    sections = [Section(name, tuple(dims), data) for name, dims, data in raw]
    assert unpack_sections(pack_sections(sections)) == sections


@pytest.mark.parametrize("payload", [
    pytest.param(b"", id="empty"),
    pytest.param(b"\x01\x01", id="name-cut-short"),
    pytest.param(b"\x01\x01\xff\x00" + bytes(8), id="name-not-utf8"),
    pytest.param(b"\x01\x01x\x02\x00\x00", id="dims-cut-short"),
    pytest.param(b"\x01\x01x\x00" + (5).to_bytes(8, "big") + b"ab", id="data-cut-short"),
    pytest.param(b"\x01\x01x\x01" + (3).to_bytes(4, "big") + (2).to_bytes(8, "big") + b"ab",
                 id="dims-exceed-data"),
    pytest.param(b"\x01\x01x\x02" + (1 << 31).to_bytes(4, "big") * 2
                 + (1).to_bytes(8, "big") + b"a", id="dims-product-past-64-bits"),
    pytest.param(pack_sections([Section("x", (), b"a")]) + b"!", id="trailing-bytes"),
    pytest.param(b"\x02" + pack_sections([Section("x", (), b"a")])[1:] * 2, id="duplicate-name"),
])
def test_unpack_sections_rejects_malformed(payload):
    with pytest.raises(FramingError):
        unpack_sections(payload)


def test_measure_cost_counts_quad_and_lin():
    transcript = Transcript()
    payload = pack_sections([
        Section("quad", (2, 1, 1), b"q" * 10),
        Section("lin", (2, 1), b"l" * 4),
        Section("align", (1, 1), b"align"),
    ])
    transcript.record(DIR_TARGET_TO_SOURCE, Frame(MsgType.COMPONENTS_B, 0, payload))
    transcript.record(DIR_TARGET_TO_SOURCE, Frame(MsgType.STOP, 0, b"ignored"))
    assert measure_cost(transcript, DIR_TARGET_TO_SOURCE) == 14
    assert measure_cost(transcript, DIR_SOURCE_TO_TARGET) == 0
