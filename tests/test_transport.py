import threading
import time

import pytest
from hypothesis import given
from hypothesis import strategies as st

from shinglesync import transport
from shinglesync.errors import ProtocolError, TransportClosedError
from shinglesync.transport import (
    HEADER,
    Frame,
    FrameKind,
    Listener,
    channel_pair,
    connect,
)


def test_empty_frame_is_40_bits():
    a, b = channel_pair()
    a.send(Frame(FrameKind.HELLO))
    assert a.bits_sent() == 40
    frame = b.recv()
    assert frame == Frame(FrameKind.HELLO, b"")
    assert b.bits_received() == 40


@given(st.binary(max_size=512), st.sampled_from(list(FrameKind)))
def test_frame_codec_round_trip(payload, kind):
    frame = Frame(kind, payload)
    assert Frame.decode(frame.encode()) == frame


def test_unknown_kind_rejected():
    data = Frame(FrameKind.DONE, b"x").encode()
    bad = data[:4] + bytes([99]) + data[5:]
    with pytest.raises(ProtocolError):
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
    assert client.bits_sent() == (5 + 5) * 8
    assert client.bits_received() == (5 + 5) * 8
    assert server_side["bits"] == (80, 80)
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
    peer._send_bytes(HEADER.pack(10, int(FrameKind.DONE)) + b"abc")
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
