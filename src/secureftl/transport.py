"""Framed, ordered message channels between the two parties.

Every message is one frame: a 4-byte magic, 1-byte message type, 4-byte
big-endian iteration counter, 8-byte big-endian payload length, then the
payload. A loopback channel (queue pair) serves tests; a TCP channel over
localhost serves realistic runs. Both record every frame into a shared
transcript so experiments can count exactly what crossed the wire, and so
the security audit can inspect everything a party ever received.

Every protocol payload is a list of named, shaped sections: a 1-byte
section count, then per section a 1-byte name length and the UTF-8 name,
a 1-byte dimension count and 4-byte big-endian dims, an 8-byte big-endian
data length and the data. The header alone tells how many bytes each
section holds, so measure_cost needs no keys; what the data encodes
(ciphertexts or signed integers) is up to the protocol layer.
"""

from __future__ import annotations

import enum
import math
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
class Section:
    """One named, shaped field of a payload; data holds prod(dims) elements."""

    name: str
    dims: tuple[int, ...]
    data: bytes


def pack_sections(sections: list[Section]) -> bytes:
    """A section count, then per section: name, dims, data length, data."""
    out = [bytes([len(sections)])]
    for s in sections:
        name = s.name.encode()
        out += [bytes([len(name)]), name, bytes([len(s.dims)]),
                struct.pack(f">{len(s.dims)}I", *s.dims), len(s.data).to_bytes(8, "big"), s.data]
    return b"".join(out)


def unpack_sections(payload: bytes) -> list[Section]:
    """Inverse of pack_sections; a malformed payload raises FramingError."""
    pos = 0

    def take(count: int) -> bytes:
        nonlocal pos
        if len(payload) - pos < count:
            raise FramingError("truncated section payload")
        pos += count
        return payload[pos - count:pos]

    sections: list[Section] = []
    for _ in range(take(1)[0]):
        try:
            name = take(take(1)[0]).decode()
        except UnicodeDecodeError:
            raise FramingError("section name is not UTF-8") from None
        ndim = take(1)[0]
        dims = struct.unpack(f">{ndim}I", take(4 * ndim))
        data = take(int.from_bytes(take(8), "big"))
        # Every element takes at least one byte; this also bounds any loop
        # a decoder runs over math.prod(dims).
        if math.prod(dims) > len(data):
            raise FramingError(f"section {name}: dims {dims} exceed {len(data)} data bytes")
        if any(s.name == name for s in sections):
            raise FramingError(f"duplicate section {name}")
        sections.append(Section(name, dims, data))
    if pos != len(payload):
        raise FramingError("trailing bytes after sections")
    return sections


def measure_cost(transcript: Transcript, direction: str) -> int:
    """Bytes of the COMPONENTS sections quad and lin sent in a direction.

    These carry the per-labeled-pair d x d quadratic and d-vector linear
    ciphertexts, the paper's n_c (d^2 + d) communication figure; the align
    and reg sections ride in the same frame but are not counted.
    """
    return sum(len(section.data)
               for msg_type in (MsgType.COMPONENTS_A, MsgType.COMPONENTS_B)
               for record in transcript.frames(direction, msg_type)
               for section in unpack_sections(record.payload)
               if section.name in ("quad", "lin"))
