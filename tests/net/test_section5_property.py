"""The paper's Section 5 guarantee as a standing property.

"A necessary and sufficient condition to ensure correct restart of a
connection is to capture the recv and acked values on both peers": with
both ends frozen behind netfilter at *any* instant, ``recv₁ ≥ acked₂``,
and what the peer's application has read, plus the peer's captured
receive queue, plus this side's send queue minus the overlap
``recv₁ − acked₂``, plus what this side has not yet written, is exactly
the stream — whatever was in flight, lost, reordered or still sitting in
a backlog at the cut.  Restoring both records into a fresh pair and
running on must therefore deliver every byte exactly once, in order.

The scripts are ``tcp_script``'s (the differential test's); the cut is a
drawn time or a few microseconds after a drawn packet arrival, which is
where a backlog is non-empty.  It must hold on the frozen parent path and
on the live one alike.
"""

import dataclasses
import random

import pytest

from repro.core.netckpt import capture_socket, restore_socket_state
from repro.net.tcp import INITIAL_SEQ

from . import reference_tcp as reference
from .tcp_script import FD, OOB_BYTE, PEER, Script, World, draw_script, tap

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

WORLDS = {"reference": reference.install, "live": lambda patch: None}
_OOB = bytes([OOB_BYTE])


def draw_cut(rnd):
    """``("time", seconds after the lanes start)`` or ``("arrival", n)``:
    5 µs after the n-th packet from then on reaches a NIC — inside the
    20 µs its segment waits in the backlog."""
    if rnd.random() < 0.5:
        return "time", rnd.choice((1e-4, 1e-3, 0.01, 0.1, 1.0)) * rnd.random()
    return "arrival", rnd.randint(1, 80)


def play_to_cut(script, cut, patch):
    """The script up to the cut; None when the handshake never finished."""
    world = World(script)
    tap(patch, world)
    if not world.open():
        return None
    world.start_lanes()
    engine, (kind, value) = world.engine, cut
    if kind == "time":
        engine.schedule(value, engine.stop)
    else:
        nth = world.arrivals + value

        def on_arrival(n):
            if n == nth:
                engine.schedule(5e-6, engine.stop)

        world.on_arrival = on_arrival
    engine.run(until=engine.now + 90.0)     # ends early, at the cut
    return world


def freeze(world):
    """What a coordinated checkpoint does to one connection: silence both
    ends, then capture each.  Returns the two records and, per side, how
    many in-band bytes its kernel has accepted from the writer."""
    for side in "ab":
        world.hosts[side].stack.netfilter.block_ip(world.ips[side])
    records, accepted = {}, {}
    for side, sock in world.socks.items():
        records[side] = capture_socket(world.hosts[side].stack, sock)
        conn = sock.conn    # capture took the socket lock: the PCB is settled
        acked = conn.pcb.snd_una - (INITIAL_SEQ + 1) - (1 if conn.fin_acked else 0)
        accepted[side] = acked + len(conn.send_buf)
    return records, accepted


def check_cut(world, records, accepted):
    """``recv₁ ≥ acked₂``, and the four pieces are the stream."""
    for side in "ab":
        peer = PEER[side]
        overlap = records[peer]["pcb"]["recv"] - records[side]["pcb"]["acked"]
        assert overlap >= 0, (side, records[peer]["pcb"], records[side]["pcb"])
        stream = world.script.stream(side)
        held = (bytes(world.consumed[peer])
                + records[peer]["recv_data"].replace(_OOB, b"")
                + records[side]["send_data"][overlap:])
        assert held == stream[:accepted[side]], (side, len(held), accepted[side])
        assert records[side]["send_data"] == bytes(world.socks[side].conn.send_buf)


def restore_and_finish(world, records, accepted):
    """Both records into a fresh, lossless pair (of whatever classes are
    installed); write what was not yet written; read to the end.  Returns what each side read, before and
    after the cut, next to what it should have."""
    script = world.script
    fresh = World(dataclasses.replace(script, loss=0.0, opening=(),
                                      lanes={lane: () for lane in script.lanes}))
    assert fresh.open()
    expected = {}
    for side in "ab":
        peer = PEER[side]
        overlap = records[peer]["pcb"]["recv"] - records[side]["pcb"]["acked"]
        restore_socket_state(fresh.hosts[side].stack, fresh.socks[side], records[side],
                             send_discard=overlap)
        fresh.consumed[side] += world.consumed[side]
    tasks = []
    for side in "ab":
        peer = PEER[side]
        rest = b"" if records[side]["fin_sent"] else script.stream(side)[accepted[side]:]
        expected[peer] = script.stream(side)[:accepted[side] + len(rest)]
        if rest:
            tasks.append(fresh.engine.spawn(_write(fresh, side, rest), name=side + ".w"))
        tasks.append(fresh.engine.spawn(_read(fresh, peer, len(expected[peer])), name=peer + ".r"))
    fresh.engine.run(until=fresh.engine.now + 600.0)
    assert all(task.done for task in tasks), [task for task in tasks if not task.done]
    return {side: bytes(data) for side, data in fresh.consumed.items()}, expected


def _write(world, side, data):
    assert (yield world.call(side, world.channel(side, "w"), side + ".w", 0,
                             "send", FD, data, 0)) == len(data)


def _read(world, side, total):
    chan = world.channel(side, "r")
    while len(world.consumed[side]) < total:
        got = yield world.call(side, chan, side + ".r", 0, "recv", FD, 65536, 0)
        assert isinstance(got, bytes) and got, got      # neither an error nor an early EOF
        world._consume(side, got)


def section5_holds(script, cut, install, at_cut=None):
    """Play, cut, check, restore, finish.  Returns the records captured at
    the cut, or None when the script never got a connection to cut;
    ``at_cut(world)`` looks at the world before capture settles it."""
    with pytest.MonkeyPatch.context() as patch:
        install(patch)
        world = play_to_cut(script, cut, patch)
        if world is None:
            return None
        if at_cut is not None:
            at_cut(world)
        records, accepted = freeze(world)
        check_cut(world, records, accepted)
        read, expected = restore_and_finish(world, records, accepted)
        assert read == expected, (script, cut)
        return records


@pytest.mark.parametrize("world", list(WORLDS))
@settings(max_examples=120, deadline=None)
@given(rnd=st.randoms(use_true_random=False))
def test_any_cut_restores_byte_exact(world, rnd):
    section5_holds(draw_script(rnd), draw_cut(rnd), WORLDS[world])


@pytest.mark.parametrize("world", list(WORLDS))
def test_fin_received_but_not_yet_acknowledged_at_the_cut(world):
    """The cut falls between the peer receiving this side's FIN and the
    ACK coming back: ``recv₁ − acked₂`` then counts the FIN's sequence
    slot, one more than the send queue holds (restore used to refuse it:
    "overlap 1 exceeds send queue 0")."""
    script = Script(seed=5, loss=0.0, rcvbuf=None, mss=16384, lanes={
        "a.w": ((0.0, "send", 100),), "a.r": (), "b.w": (), "b.r": (),
        "ctl": ((1e-3, "shutdown_wr", "a"),)})
    records = section5_holds(script, ("arrival", 3), WORLDS[world])    # data, its ACK, the FIN
    assert records["a"]["fin_sent"] and records["b"]["fin_rcvd"]
    assert records["b"]["pcb"]["recv"] - records["a"]["pcb"]["acked"] == 1
    assert records["a"]["send_data"] == b"" and len(records["b"]["recv_data"]) == 100


@pytest.mark.parametrize("world", list(WORLDS))
def test_cuts_land_where_capture_is_hard(world):
    """A fixed battery, counted: the property is only worth its name if
    cuts really fall on lossy links, on reordered (out-of-order) data, on
    non-empty backlogs, on parked writers and on unread receive queues."""
    seen = dict.fromkeys(("cut", "lossy", "backlog", "out of order", "unacked",
                          "parked writer", "unread", "urgent", "half-closed"), 0)

    def tally(cut_world):
        socks = list(cut_world.socks.values())
        conns = [sock.conn for sock in socks]
        seen["cut"] += 1
        seen["lossy"] += cut_world.script.loss > 0
        seen["backlog"] += any(conn.backlog for conn in conns)
        seen["out of order"] += any(conn.ooo for conn in conns)
        seen["unacked"] += any(conn.pcb.snd_una < conn.pcb.snd_nxt for conn in conns)
        seen["parked writer"] += any(sock.send_waiters for sock in socks)
        seen["unread"] += any(conn.recv_q for conn in conns)
        seen["urgent"] += any(conn.oob or _OOB in conn.recv_q for conn in conns)
        seen["half-closed"] += any(conn.fin_sent or conn.fin_rcvd for conn in conns)

    for seed in range(120):
        rnd = random.Random(seed)
        section5_holds(draw_script(rnd), ("arrival", rnd.randint(1, 80)), WORLDS[world], tally)
    assert all(seen.values()), seen
