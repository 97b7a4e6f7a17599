"""Property-based TCP tests: stream integrity under adversarial delivery.

The checkpoint correctness argument leans on TCP behaving like TCP:
bytes arrive exactly once, in order, regardless of loss, duplication or
reordering on the wire — and the PCB invariant ``recv ≥ acked`` holds
throughout.  These properties drive the protocol directly with
randomized segment schedules.
"""

from hypothesis import given, settings, strategies as st

from repro.net import Segment

from .conftest import established_pair as _pair


@settings(max_examples=60, deadline=None)
@given(
    chunks=st.lists(st.binary(min_size=1, max_size=2000), min_size=1, max_size=12),
    loss=st.sampled_from([0.0, 0.1, 0.3]),
    seed=st.integers(min_value=0, max_value=10_000),
)
def test_stream_integrity_under_loss(chunks, loss, seed):
    """Whatever is written on one side is read exactly, in order, on the
    other — under random packet loss."""
    engine, a, b = _pair(seed=seed, loss=loss)
    for chunk in chunks:
        a.conn.app_write(chunk)
    engine.run(until=120.0)
    expect = b"".join(chunks)
    b.conn.process_backlog()
    assert bytes(b.conn.recv_q) == expect
    # PCB invariant: the receiver's recv never lags the sender's acked
    assert b.conn.pcb.rcv_nxt >= a.conn.pcb.snd_una
    # and with everything quiesced, the send queue fully drained
    assert len(a.conn.send_buf) == 0


@settings(max_examples=40, deadline=None)
@given(
    data=st.binary(min_size=1, max_size=3000),
    split=st.lists(st.integers(min_value=1, max_value=400), min_size=1, max_size=8),
    order=st.randoms(use_true_random=False),
)
def test_reassembly_from_arbitrary_segment_order(data, split, order):
    """Segments delivered in any order (with duplicates) reassemble the
    exact stream."""
    engine, _a, b = _pair()
    base = b.conn.pcb.rcv_nxt
    # cut `data` into segments at the given sizes
    segments = []
    pos = 0
    for size in split:
        if pos >= len(data):
            break
        chunk = data[pos:pos + size]
        segments.append(Segment(seq=base + pos, flags=frozenset({"ACK"}), data=chunk))
        pos += len(chunk)
    if pos < len(data):
        segments.append(Segment(seq=base + pos, flags=frozenset({"ACK"}), data=data[pos:]))
    # shuffled delivery plus a duplicated prefix
    shuffled = list(segments)
    order.shuffle(shuffled)
    shuffled += segments[:2]
    for seg in shuffled:
        b.conn.deliver(seg)
    b.conn.process_backlog()
    assert bytes(b.conn.recv_q) == data
    assert b.conn.pcb.rcv_nxt == base + len(data)


@settings(max_examples=40, deadline=None)
@given(
    data=st.binary(min_size=0, max_size=1500),
    fin_early=st.booleans(),
)
def test_fin_never_skips_data(data, fin_early):
    """A FIN racing ahead of data must not report EOF before the stream
    is complete (the out-of-order FIN fix)."""
    engine, _a, b = _pair()
    base = b.conn.pcb.rcv_nxt
    data_seg = Segment(seq=base, flags=frozenset({"ACK"}), data=data)
    fin_seg = Segment(seq=base + len(data), flags=frozenset({"ACK", "FIN"}))
    if fin_early and data:
        b.conn.deliver(fin_seg)
        b.conn.process_backlog()
        assert not b.conn.fin_rcvd  # EOF withheld: data still missing
        b.conn.deliver(data_seg)
    else:
        b.conn.deliver(data_seg)
        b.conn.deliver(fin_seg)
    b.conn.process_backlog()
    assert bytes(b.conn.recv_q) == data
    assert b.conn.fin_rcvd
    assert b.conn.pcb.rcv_nxt == base + len(data) + 1


@settings(max_examples=30, deadline=None)
@given(
    chunks=st.lists(st.binary(min_size=1, max_size=1200), min_size=1, max_size=8),
    seed=st.integers(min_value=0, max_value=10_000),
)
def test_bidirectional_streams_are_independent(chunks, seed):
    engine, a, b = _pair(seed=seed)
    for i, chunk in enumerate(chunks):
        (a if i % 2 == 0 else b).conn.app_write(chunk)
    engine.run(until=60.0)
    a.conn.process_backlog()
    b.conn.process_backlog()
    assert bytes(b.conn.recv_q) == b"".join(c for i, c in enumerate(chunks) if i % 2 == 0)
    assert bytes(a.conn.recv_q) == b"".join(c for i, c in enumerate(chunks) if i % 2 == 1)
