"""Framed, ordered message channels between the two parties.

Every message is one frame: a 4-byte magic, 1-byte message type, 4-byte
big-endian iteration counter, 8-byte big-endian payload length, then the
payload. A loopback channel (queue pair) serves tests; a TCP channel over
localhost serves realistic runs. Both record every frame into a shared
transcript so experiments can count exactly what crossed the wire, and so
the security audit can inspect everything a party ever received.
"""

from __future__ import annotations

import enum
import queue
import socket
import struct
import threading
from dataclasses import dataclass

MAGIC = b"FTL1"
HEADER = struct.Struct(">4sBIQ")

DIR_SOURCE_TO_TARGET = "source->target"
DIR_TARGET_TO_SOURCE = "target->source"

# Large payloads are legal (component batches grow with N*d^2) but a sanity
# cap catches corrupted headers before a huge allocation.
_MAX_PAYLOAD = 1 << 34

DEFAULT_TIMEOUT = 120.0


class MsgType(enum.IntEnum):
    PUBKEY = 1
    COMPONENTS_A = 2
    COMPONENTS_B = 3
    MASKED_GRAD_A = 4
    MASKED_GRAD_B = 5
    ENC_LOSS = 6
    DECRYPTED_BLOB = 7
    STOP = 8
    PREDICT_REQUEST = 9
    PREDICT_MASKED = 10
    PREDICT_LABELS = 11


class FramingError(ValueError):
    """Malformed frame header or payload."""


class ChannelClosed(Exception):
    """The peer closed the channel; no more frames will arrive."""


@dataclass(frozen=True)
class Frame:
    msg_type: int
    iteration: int
    payload: bytes = b""

    def __post_init__(self):
        if self.msg_type not in MsgType._value2member_map_:
            raise FramingError(f"unknown message type {self.msg_type}")
        if not 0 <= self.iteration < 1 << 32:
            raise FramingError("iteration outside 32-bit range")


def encode_frame(frame: Frame) -> bytes:
    return HEADER.pack(MAGIC, frame.msg_type, frame.iteration, len(frame.payload)) + frame.payload


def decode_frame(data: bytes) -> Frame:
    if len(data) < HEADER.size:
        raise FramingError("frame shorter than header")
    magic, msg_type, iteration, length = HEADER.unpack_from(data)
    if magic != MAGIC:
        raise FramingError(f"bad magic {magic!r}")
    if length > _MAX_PAYLOAD:
        raise FramingError("payload length exceeds sanity cap")
    if len(data) != HEADER.size + length:
        raise FramingError("payload length does not match header")
    return Frame(msg_type, iteration, data[HEADER.size:])


@dataclass(frozen=True)
class FrameRecord:
    direction: str
    msg_type: int
    iteration: int
    payload: bytes


class Transcript:
    """Thread-safe ordered log of every frame, per direction."""

    def __init__(self):
        self._lock = threading.Lock()
        self._records: list[FrameRecord] = []

    def record(self, direction: str, frame: Frame):
        with self._lock:
            self._records.append(FrameRecord(direction, frame.msg_type, frame.iteration, frame.payload))

    def frames(self, direction: str | None = None, msg_type: int | None = None) -> list[FrameRecord]:
        with self._lock:
            records = list(self._records)
        return [r for r in records
                if (direction is None or r.direction == direction)
                and (msg_type is None or r.msg_type == msg_type)]

    def payload_bytes(self, direction: str | None = None, msg_type: int | None = None) -> int:
        return sum(len(r.payload) for r in self.frames(direction, msg_type))

    def summary_rows(self) -> list[tuple[str, str, int, int]]:
        """(direction, message type name, frame count, payload bytes) rows."""
        keys = sorted({(r.direction, r.msg_type) for r in self.frames()})
        return [(direction, MsgType(msg_type).name,
                 len(self.frames(direction, msg_type)),
                 self.payload_bytes(direction, msg_type))
                for direction, msg_type in keys]


class LoopbackChannel:
    """One endpoint of an in-process queue pair."""

    def __init__(self, outbox: queue.Queue, inbox: queue.Queue,
                 direction_out: str, transcript: Transcript):
        self._outbox = outbox
        self._inbox = inbox
        self.direction_out = direction_out
        self.transcript = transcript
        self._closed = False

    def send(self, frame: Frame):
        if self._closed:
            raise ChannelClosed("channel is closed")
        # Encode/decode so loopback exercises the same wire format as TCP.
        data = encode_frame(frame)
        self.transcript.record(self.direction_out, frame)
        self._outbox.put(data)

    def recv(self, timeout: float = DEFAULT_TIMEOUT) -> Frame:
        try:
            data = self._inbox.get(timeout=timeout)
        except queue.Empty:
            raise TimeoutError(f"no frame within {timeout}s") from None
        if data is None:
            raise ChannelClosed("peer closed the channel")
        return decode_frame(data)

    def close(self):
        if not self._closed:
            self._closed = True
            self._outbox.put(None)


def loopback_pair(transcript: Transcript | None = None):
    """Connected (source endpoint, target endpoint, transcript)."""
    transcript = transcript if transcript is not None else Transcript()
    to_target: queue.Queue = queue.Queue()
    to_source: queue.Queue = queue.Queue()
    source_end = LoopbackChannel(to_target, to_source, DIR_SOURCE_TO_TARGET, transcript)
    target_end = LoopbackChannel(to_source, to_target, DIR_TARGET_TO_SOURCE, transcript)
    return source_end, target_end, transcript


class SocketChannel:
    """One endpoint of a persistent TCP connection carrying frames.

    Sends go through a writer thread so that both parties can emit large
    component batches simultaneously without deadlocking on full kernel
    buffers; per-direction frame order is preserved.
    """

    def __init__(self, sock: socket.socket, direction_out: str, transcript: Transcript):
        self._sock = sock
        self.direction_out = direction_out
        self.transcript = transcript
        self._outbox: queue.Queue = queue.Queue()
        self._send_error: OSError | None = None
        self._writer = threading.Thread(target=self._drain, daemon=True)
        self._writer.start()

    def _drain(self):
        while True:
            data = self._outbox.get()
            if data is None:
                return
            try:
                self._sock.sendall(data)
            except OSError as exc:
                self._send_error = exc
                return

    def send(self, frame: Frame):
        if self._send_error is not None:
            raise ChannelClosed(f"send failed: {self._send_error}")
        data = encode_frame(frame)
        self.transcript.record(self.direction_out, frame)
        self._outbox.put(data)

    def _recv_exact(self, count: int, timeout: float) -> bytes:
        self._sock.settimeout(timeout)
        chunks = []
        remaining = count
        while remaining:
            try:
                chunk = self._sock.recv(remaining)
            except socket.timeout:
                raise TimeoutError(f"no frame within {timeout}s") from None
            if not chunk:
                if chunks:
                    raise FramingError("connection dropped mid-frame")
                raise ChannelClosed("peer closed the connection")
            chunks.append(chunk)
            remaining -= len(chunk)
        return b"".join(chunks)

    def recv(self, timeout: float = DEFAULT_TIMEOUT) -> Frame:
        header = self._recv_exact(HEADER.size, timeout)
        magic, msg_type, iteration, length = HEADER.unpack(header)
        if magic != MAGIC:
            raise FramingError(f"bad magic {magic!r}")
        if length > _MAX_PAYLOAD:
            raise FramingError("payload length exceeds sanity cap")
        payload = self._recv_exact(length, timeout) if length else b""
        return Frame(msg_type, iteration, payload)

    def close(self):
        self._outbox.put(None)
        self._writer.join(timeout=10)
        try:
            self._sock.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass
        self._sock.close()


def tcp_pair(port: int = 0, transcript: Transcript | None = None, host: str = "127.0.0.1"):
    """Listen, connect, and return (source endpoint, target endpoint, transcript).

    The source endpoint is the accepting side; port 0 picks a free port.
    Both endpoints live in this process; the bytes still cross a real
    localhost socket.
    """
    transcript = transcript if transcript is not None else Transcript()
    listener = socket.create_server((host, port))
    try:
        accepted: dict[str, socket.socket] = {}

        def _accept():
            conn, _ = listener.accept()
            accepted["conn"] = conn

        acceptor = threading.Thread(target=_accept)
        acceptor.start()
        client = socket.create_connection((host, listener.getsockname()[1]), timeout=10)
        acceptor.join(timeout=10)
        if "conn" not in accepted:
            raise ChannelClosed("accept did not complete")
    finally:
        listener.close()
    for sock in (accepted["conn"], client):
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
    source_end = SocketChannel(accepted["conn"], DIR_SOURCE_TO_TARGET, transcript)
    target_end = SocketChannel(client, DIR_TARGET_TO_SOURCE, transcript)
    return source_end, target_end, transcript


@dataclass(frozen=True)
class FamilySection:
    """One component family inside a COMPONENTS payload."""

    family_id: int
    n_items: int
    cts_per_item: int
    data: bytes


_FAMILY_HEADER = struct.Struct(">BIIQ")


def pack_families(sections: list[FamilySection]) -> bytes:
    out = [len(sections).to_bytes(1, "big")]
    for s in sections:
        out.append(_FAMILY_HEADER.pack(s.family_id, s.n_items, s.cts_per_item, len(s.data)))
        out.append(s.data)
    return b"".join(out)


def unpack_families(payload: bytes) -> list[FamilySection]:
    if not payload:
        raise FramingError("empty components payload")
    count = payload[0]
    sections = []
    pos = 1
    for _ in range(count):
        if len(payload) - pos < _FAMILY_HEADER.size:
            raise FramingError("truncated family header")
        family_id, n_items, cts_per_item, length = _FAMILY_HEADER.unpack_from(payload, pos)
        pos += _FAMILY_HEADER.size
        if len(payload) - pos < length:
            raise FramingError("truncated family data")
        sections.append(FamilySection(family_id, n_items, cts_per_item, payload[pos:pos + length]))
        pos += length
    if pos != len(payload):
        raise FramingError("trailing bytes after families")
    return sections


# The canonical communication-cost figure counts the two per-labeled-sample
# families (the d x d quadratic component and the d-vector linear component,
# family ids 1 and 2): n * (d^2 + d) ciphertexts. Alignment and regularizer
# families ride in the same frame but are excluded from that figure.
COST_FAMILIES = (1, 2)


def measure_cost(transcript: Transcript, direction: str,
                 families: tuple[int, ...] = COST_FAMILIES) -> int:
    """Ciphertext bytes of the chosen component families sent in a direction."""
    total = 0
    for msg_type in (MsgType.COMPONENTS_A, MsgType.COMPONENTS_B):
        for record in transcript.frames(direction, msg_type):
            for section in unpack_families(record.payload):
                if section.family_id in families:
                    total += len(section.data)
    return total
