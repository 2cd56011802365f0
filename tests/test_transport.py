import threading
import time

import pytest
from hypothesis import given
from hypothesis import strategies as st

from shinglesync import transport
from shinglesync.errors import ProtocolError, TransportClosedError
from shinglesync.transport import (
    MAX_PAYLOAD,
    Frame,
    FrameKind,
    Listener,
    channel_pair,
    connect,
    encode_varint,
    read_varint,
)


def test_empty_frame_is_16_bits():
    # the kind byte and a one-byte length of 0
    a, b = channel_pair()
    a.send(Frame(FrameKind.HELLO))
    assert a.bits_sent() == 16
    frame = b.recv()
    assert frame == Frame(FrameKind.HELLO, b"")
    assert b.bits_received() == 16


@given(st.binary(max_size=512), st.sampled_from(list(FrameKind)))
def test_frame_codec_round_trip(payload, kind):
    frame = Frame(kind, payload)
    assert Frame.decode(frame.encode()) == frame


def test_unknown_kind_rejected():
    data = Frame(FrameKind.DONE, b"x").encode()
    bad = bytes([99]) + data[1:]
    with pytest.raises(ProtocolError, match="unknown frame kind 99"):
        Frame.decode(bad)


def test_pipe_round_trip_and_counters():
    a, b = channel_pair()
    frames = [Frame(FrameKind.EVAL_PAIR, bytes(range(i))) for i in range(5)]
    total = 0
    for f in frames:
        a.send(f)
        total += len(f.encode())
    assert a.bits_sent() == total * 8
    for f in frames:
        assert b.recv() == f
    assert b.bits_received() == total * 8
    assert b.bits_sent() == 0 and a.bits_received() == 0


def test_channels_do_not_share_counters():
    a1, b1 = channel_pair()
    a2, b2 = channel_pair()
    a1.send(Frame(FrameKind.DONE, b"abc"))
    b1.recv()
    assert a2.bits_sent() == 0
    assert b2.bits_received() == 0


def test_recv_after_close_raises():
    a, b = channel_pair()
    a.close()
    with pytest.raises(TransportClosedError):
        b.recv()


def test_socket_endpoint_matches_pipe_behavior():
    listener = Listener("127.0.0.1", 0)
    server_side = {}

    def serve():
        endpoint = listener.accept()
        frame = endpoint.recv()
        endpoint.send(Frame(FrameKind.DONE, frame.payload[::-1]))
        server_side["bits"] = (endpoint.bits_sent(), endpoint.bits_received())
        endpoint.close()

    thread = threading.Thread(target=serve, daemon=True)
    thread.start()
    client = connect("127.0.0.1", listener.port)
    client.send(Frame(FrameKind.EVAL_BUNDLE, b"hello"))
    reply = client.recv()
    thread.join(60)
    listener.close()
    assert not thread.is_alive()
    assert reply == Frame(FrameKind.DONE, b"olleh")
    assert client.bits_sent() == (2 + 5) * 8
    assert client.bits_received() == (2 + 5) * 8
    assert server_side["bits"] == (56, 56)
    client.close()


@pytest.mark.parametrize("over", ["channel", "socket"])
def test_frame_cut_short_ends_at_the_receive_deadline(monkeypatch, over):
    # the peer sends a header for 10 payload bytes, then 3 of them, then nothing
    monkeypatch.setattr(transport, "RECV_TIMEOUT_S", 0.2)
    if over == "channel":
        mine, peer = channel_pair()
    else:
        listener = Listener("127.0.0.1", 0)
        peer = connect("127.0.0.1", listener.port)
        mine = listener.accept()
        listener.close()
    peer._send_bytes(bytes([FrameKind.DONE, 10]) + b"abc")
    raised = []

    def receive():
        try:
            mine.recv()
        except TransportClosedError as exc:
            raised.append(exc)

    thread = threading.Thread(target=receive, daemon=True)
    start = time.perf_counter()
    thread.start()
    thread.join(5)
    elapsed = time.perf_counter() - start
    mine.close()
    peer.close()
    assert not thread.is_alive() and elapsed < 5
    assert len(raised) == 1


@pytest.mark.parametrize("length", [0, 127, 128, 16383, 16384, MAX_PAYLOAD])
def test_length_varint_round_trips_at_its_byte_boundaries(length):
    # 7 bits a byte: 127 and 16,383 are the last lengths of one and two
    # bytes, and MAX_PAYLOAD = 2**26 takes the fourth
    data = Frame(FrameKind.DELTA, bytes(length)).encode()
    header = len(data) - length
    assert header == 1 + max(1, -(-length.bit_length() // 7))
    assert data[:header] == bytes([FrameKind.DELTA]) + encode_varint(length)
    assert read_varint(data, 1, MAX_PAYLOAD, "length") == (length, header)
    assert Frame.decode(data) == Frame(FrameKind.DELTA, bytes(length))


def test_varints_are_least_significant_group_first():
    assert encode_varint(0) == b"\x00"
    assert encode_varint(127) == b"\x7f"
    assert encode_varint(128) == b"\x80\x01"
    assert encode_varint(300) == b"\xac\x02"
    assert encode_varint(2**26) == b"\x80\x80\x80\x20"


@given(st.integers(0, 2**64 - 1))
def test_varint_round_trip(value):
    data = encode_varint(value)
    assert read_varint(data + b"\xff", 0, 2**64 - 1, "value") == (value, len(data))


# frame headers no honest sender writes, each with the body it announces
# (or a long one) behind it, and what the refusal says
HOSTILE_HEADERS = {
    # a length whose fourth byte asks for a fifth
    "fifth-continuation-byte": (bytes([FrameKind.DONE, 0x80, 0x80, 0x80, 0x80, 0x01]), "more than 4 varint bytes"),
    # 1 in two bytes, its last group 0
    "non-minimal": (bytes([FrameKind.DONE, 0x81, 0x00]) + b"x", "not a minimal varint"),
    # 2**26 + 1 in four bytes
    "past-max-payload": (bytes([FrameKind.DONE, 0x81, 0x80, 0x80, 0x20]), f"past {MAX_PAYLOAD}"),
    # a length that asks for a byte more, then nothing
    "truncated": (bytes([FrameKind.DONE, 0x80]), "truncated frame header"),
}


@pytest.mark.parametrize("case", sorted(HOSTILE_HEADERS))
def test_hostile_header_is_refused_by_decode(case):
    data, match = HOSTILE_HEADERS[case]
    if case == "truncated":
        data, match = data, "frame length ends inside its varint"
    else:
        data += bytes(1000)
    with pytest.raises(ProtocolError, match=match):
        Frame.decode(data)
    with pytest.raises(ProtocolError, match="truncated frame header"):
        Frame.decode(b"")


@pytest.mark.parametrize("case", sorted(HOSTILE_HEADERS))
@pytest.mark.parametrize("over", ["channel", "socket"])
def test_hostile_header_is_refused_before_any_body_byte(case, over):
    # the peer writes the header, then a body byte it would read first, and
    # closes its end after a truncated header; the receiver refuses the
    # header and leaves every byte behind it unread
    data, match = HOSTILE_HEADERS[case]
    listener = None
    if over == "channel":
        mine, peer = channel_pair()
    else:
        listener = Listener("127.0.0.1", 0)
        peer = connect("127.0.0.1", listener.port)
        mine = listener.accept()
        listener.close()
    reads = []
    real = mine._recv_exactly

    def counted(n):
        reads.append(n)
        return real(n)

    mine._recv_exactly = counted
    if case == "truncated":
        peer._send_bytes(data)
        peer.close()
    else:
        peer._send_bytes(data + b"\xee" * 16)
    try:
        with pytest.raises(ProtocolError, match=match):
            mine.recv()
    finally:
        mine.close()
        peer.close()
    # one byte a read, never more than the kind and four length bytes
    assert reads == [1] * len(reads) and len(reads) <= 5
    assert mine.bits_received() == 0


def test_pipe_and_socket_carry_identical_bytes():
    frames = [Frame(kind, bytes(range(n % 256)) * (n // 256 + 1)) for kind, n in zip(FrameKind, (0, 1, 127, 128, 300, 16384, 20000, 5, 9))]
    piped = []
    a, b = channel_pair()
    real = a._send_bytes
    a._send_bytes = lambda data: (piped.append(data), real(data))
    for frame in frames:
        a.send(frame)
        assert b.recv() == frame
    listener = Listener("127.0.0.1", 0)
    client = connect("127.0.0.1", listener.port)
    server = listener.accept()
    listener.close()
    sent = []
    real_socket = client._send_bytes
    client._send_bytes = lambda data: (sent.append(data), real_socket(data))
    try:
        for frame in frames:
            client.send(frame)
            assert server.recv() == frame
    finally:
        client.close()
        server.close()
    assert sent == piped == [frame.encode() for frame in frames]
    assert client.bits_sent() == a.bits_sent() == server.bits_received() == b.bits_received()
