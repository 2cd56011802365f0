"""Byte-exact framed transport with bit metering.

Frames are a 1-byte kind, the payload length as a minimal LEB128 varint
(`encode_varint`), at most 4 bytes as the payload is at most `MAX_PAYLOAD`,
then the payload.  The in-process channel pair and the socket-backed
endpoint carry identical bytes; counters account for every framed byte in
both directions.
A receive that waits longer than `RECV_TIMEOUT_S` raises
`TransportClosedError`, so a peer that stops sending cannot hang a session.
"""

from __future__ import annotations

import queue
import socket
from dataclasses import dataclass
from enum import IntEnum

from .errors import ProtocolError, TransportClosedError

MAX_PAYLOAD = 1 << 26
# the most bytes a frame's length varint takes: 7 bits each
LENGTH_BYTES = -(-MAX_PAYLOAD.bit_length() // 7)
RECV_TIMEOUT_S = 300.0  # the longest one receive waits for the peer's next bytes


class FrameKind(IntEnum):
    HELLO = 1
    EVAL_BUNDLE = 2
    EVAL_PAIR = 3
    DELTA_REQ = 4
    DELTA = 5
    MERGES = 6
    DONE = 7
    ABORT = 8
    OCC_WIDTH = 9


def encode_varint(value: int) -> bytes:
    """`value` as a minimal LEB128 varint: 7-bit groups, least significant
    first, each byte but the last with its top bit set."""
    out = bytearray()
    while value > 0x7F:
        out.append(value & 0x7F | 0x80)
        value >>= 7
    out.append(value)
    return bytes(out)


def read_varint(data: bytes, at: int, most: int, what: str) -> tuple[int, int]:
    """(value, end) of the varint at `data[at:]`, at most `most`.

    No more bytes are read than `most` needs, so no varint the peer sends
    grows a number past it.  A varint that runs past `data`, that needs a
    byte more, that ends in a zero group after its first byte (not
    minimal), or whose value is past `most` raises ProtocolError."""
    limit = max(1, -(-most.bit_length() // 7))
    value = 0
    for i, byte in enumerate(data[at : at + limit]):
        value |= (byte & 0x7F) << 7 * i
        if not byte & 0x80:
            if i and not byte:
                raise ProtocolError(f"{what} is not a minimal varint")
            if value > most:
                raise ProtocolError(f"{what} {value} is past {most}")
            return value, at + i + 1
    if len(data) < at + limit:
        raise ProtocolError(f"{what} ends inside its varint")
    raise ProtocolError(f"{what} takes more than {limit} varint bytes")


def _read_header(data: bytes) -> tuple[FrameKind, int, int]:
    """(kind, payload length, header length) of the frame header that opens
    `data`: refused before any payload byte is read."""
    if not data:
        raise ProtocolError("truncated frame header")
    try:
        kind = FrameKind(data[0])
    except ValueError:
        raise ProtocolError(f"unknown frame kind {data[0]}") from None
    length, end = read_varint(data, 1, MAX_PAYLOAD, "frame length")
    return kind, length, end


@dataclass(frozen=True)
class Frame:
    kind: FrameKind
    payload: bytes = b""

    def encode(self) -> bytes:
        if len(self.payload) > MAX_PAYLOAD:
            raise ProtocolError("payload too large")
        return bytes([self.kind]) + encode_varint(len(self.payload)) + self.payload

    @classmethod
    def decode(cls, data: bytes) -> "Frame":
        kind, length, end = _read_header(data)
        if len(data) != end + length:
            raise ProtocolError("frame length mismatch")
        return cls(kind, data[end:])


class Endpoint:
    """Common counter bookkeeping; subclasses move the bytes."""

    def __init__(self):
        self._bytes_sent = 0
        self._bytes_received = 0

    def bits_sent(self) -> int:
        return self._bytes_sent * 8

    def bits_received(self) -> int:
        return self._bytes_received * 8

    def send(self, frame: Frame) -> None:
        data = frame.encode()
        self._send_bytes(data)
        self._bytes_sent += len(data)

    def recv(self) -> Frame:
        """The next frame.  Its header is read a byte at a time, up to the
        byte that ends the length or the `LENGTH_BYTES`-th, and refused
        before any payload byte is read; a peer that closes inside it sent
        a truncated header, a ProtocolError."""
        header = self._recv_exactly(1)
        try:
            while len(header) == 1 or header[-1] & 0x80 and len(header) <= LENGTH_BYTES:
                header += self._recv_exactly(1)
        except TransportClosedError as exc:
            raise ProtocolError(f"truncated frame header: {exc}") from exc
        kind, length, _ = _read_header(header)
        body = self._recv_exactly(length) if length else b""
        self._bytes_received += len(header) + len(body)
        return Frame(kind, body)

    def _send_bytes(self, data: bytes) -> None:
        raise NotImplementedError

    def _recv_exactly(self, n: int) -> bytes:
        raise NotImplementedError

    def close(self) -> None:
        raise NotImplementedError


class PipeEndpoint(Endpoint):
    """One side of an in-process duplex channel."""

    _CLOSED = object()

    def __init__(self):
        super().__init__()
        self._inbox: queue.Queue = queue.Queue()
        self._peer: "PipeEndpoint | None" = None
        self._buffer = b""

    def _send_bytes(self, data: bytes) -> None:
        if self._peer is None:
            raise TransportClosedError("endpoint is not connected")
        self._peer._inbox.put(data)

    def _recv_exactly(self, n: int) -> bytes:
        while len(self._buffer) < n:
            try:
                chunk = self._inbox.get(timeout=RECV_TIMEOUT_S)
            except queue.Empty:
                raise TransportClosedError(f"peer sent nothing for {RECV_TIMEOUT_S} s") from None
            if chunk is self._CLOSED:
                raise TransportClosedError("peer closed the channel")
            self._buffer += chunk
        out, self._buffer = self._buffer[:n], self._buffer[n:]
        return out

    def close(self) -> None:
        if self._peer is not None:
            self._peer._inbox.put(self._CLOSED)


def channel_pair() -> tuple[PipeEndpoint, PipeEndpoint]:
    a, b = PipeEndpoint(), PipeEndpoint()
    a._peer, b._peer = b, a
    return a, b


class SocketEndpoint(Endpoint):
    def __init__(self, sock: socket.socket):
        super().__init__()
        # a timed-out call raises TimeoutError, an OSError, which maps to
        # TransportClosedError below
        sock.settimeout(RECV_TIMEOUT_S)
        self._sock = sock

    def _send_bytes(self, data: bytes) -> None:
        try:
            self._sock.sendall(data)
        except OSError as exc:
            raise TransportClosedError(str(exc)) from exc

    def _recv_exactly(self, n: int) -> bytes:
        parts = []
        remaining = n
        while remaining:
            try:
                chunk = self._sock.recv(remaining)
            except OSError as exc:
                raise TransportClosedError(str(exc)) from exc
            if not chunk:
                raise TransportClosedError("peer closed the connection")
            parts.append(chunk)
            remaining -= len(chunk)
        return b"".join(parts)

    def close(self) -> None:
        try:
            self._sock.close()
        except OSError:
            pass


class Listener:
    """Bound listening socket; accept() yields one framed endpoint at a time."""

    def __init__(self, host: str, port: int):
        self._sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        self._sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        self._sock.bind((host, port))
        self._sock.listen(1)
        self.host, self.port = self._sock.getsockname()[:2]

    def accept(self) -> SocketEndpoint:
        conn, _ = self._sock.accept()
        return SocketEndpoint(conn)

    def close(self) -> None:
        try:
            self._sock.close()
        except OSError:
            pass


def connect(host: str, port: int) -> SocketEndpoint:
    sock = socket.create_connection((host, port))
    return SocketEndpoint(sock)
