"""The one-frame-per-hop segment path against the frozen parent path.

``reference_tcp`` is the parent's ``TcpConn`` / ``Segment`` / ``Packet``
and the hops around them, verbatim.  A script of socket traffic and
faults (``tcp_script``) is played once in each world and everything
observable must be equal: the wire log (every packet handed to the
fabric — time, endpoints, ``seq``, ``ack``, flags, length, window, size),
the engine's event count and final clock, both PCBs, every queue, every
timer, every syscall's result and completion time.  The rewrite is host
time only; if any of this moved, a simulated value moved.

Then the new path is broken by hand, one edit at a time; each mutant
must disagree with the oracle somewhere on a fixed corpus of scripts, or
the corpus is not testing what it claims.
"""

import functools
import random

import pytest

from repro.net import netfilter, packet, sockets, tcp

from ..mutation import first_difference, mutant
from . import reference_tcp as reference
from .tcp_script import Script, draw_script, observed, play

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

_IDLE = {"a.w": (), "a.r": (), "b.w": (), "b.r": (), "ctl": ()}
_READS = ((0.0, "recv", 65536, 0),) * 6


def _lossy_close(seed):
    """Both ends send, read, and close, on a link that loses 30 %."""
    return Script(seed=seed, loss=0.3, rcvbuf=None, mss=1460, lanes={
        **_IDLE, "a.w": ((0.0, "send", 3000),), "b.w": ((0.0, "send", 2000),),
        "a.r": _READS, "b.r": _READS, "ctl": ((0.05, "close", "a"), (0.01, "close", "b"))})


#: Scripts for the corners random draws almost never reach.
DIRECTED = {
    # shutdown(wr) while the SYN is out: the FIN is owed from then on but
    # can only go once an ACK-bearing segment makes ``push`` run
    "shutdown while connecting": Script(
        seed=1, loss=0.0, rcvbuf=None, mss=16384,
        lanes={**_IDLE, "b.w": ((0.0, "send", 100),)},
        opening=((5e-5, "shutdown_wr", "a"),)),
    # a delivered segment vanishes from the backlog inside the 20 µs
    # before its bottom half: the next lock-taker must still cancel it
    "backlog lost before the bottom half": Script(
        seed=2, loss=0.0, rcvbuf=None, mss=16384,
        lanes={**_IDLE, "a.w": ((0.0, "send", 100),),
               "ctl": ((110e-6, "lose_backlog", "b"), (0.0, "poll", "b", 0))}),
    # urgent data to a reader with and without SO_OOBINLINE
    "urgent data": Script(
        seed=3, loss=0.0, rcvbuf=None, mss=1460,
        lanes={**_IDLE, "a.w": ((0.0, "send", 3000), (0.0, "oob", 2), (1e-3, "oob", 1)),
               "b.r": ((5e-3, "recv", 100, 0), (0.0, "recv", 10, 0x2)),
               "ctl": ((5e-4, "oobinline", "b", 1),)}),
    # a rule on one endpoint only, while its connection is mid-transfer
    "endpoint rule": Script(
        seed=4, loss=0.0, rcvbuf=16384, mss=536,
        lanes={**_IDLE, "a.w": ((0.0, "send", 40_000),), "b.r": ((0.0, "recv", 65536, 0),) * 4,
               "ctl": ((1e-4, "nf_block", "b", "endpoint"), (0.3, "nf_unblock", "b", "endpoint"))}),
    # The end of a connection: a pair leaves both stacks' demux tables
    # once neither end can send or receive again; nothing observable may
    # move.  Both ends close under loss and the pair is reaped ...
    "both close under loss": _lossy_close(0),
    # ... or the ACK of a's FIN is lost: b never re-ACKs the retransmitted
    # FIN, so a retransmits it to the end and the pair is never reaped
    "both close under loss, a FIN's ACK lost": _lossy_close(1),
    # a 0.3 s link against the 0.2 s RTO: when the second FIN's ACK
    # lands, retransmitted duplicates are still on the wire
    "a duplicate in flight at the last ACK": Script(
        seed=12, loss=0.0, rcvbuf=None, mss=16384,
        lanes={**_IDLE, "a.w": ((0.0, "send", 100),), "b.r": ((0.0, "recv", 100, 0),),
               "ctl": ((0.0, "delay_link", 0.3), (0.01, "close", "a"), (0.0, "close", "b"))}),
    # b closes with 5000 bytes it never read
    "close with unread data": Script(
        seed=13, loss=0.0, rcvbuf=None, mss=1460,
        lanes={**_IDLE, "a.w": ((0.0, "send", 5000),),
               "ctl": ((0.01, "close", "b"), (0.01, "close", "a"))}),
    # a's close comes long after its FIN was acknowledged: the close is
    # the last thing the finished pair waits for
    "shutdown(wr), then a late close": Script(
        seed=14, loss=0.0, rcvbuf=None, mss=16384,
        lanes={**_IDLE, "a.w": ((0.0, "send", 300),), "a.r": _READS[:2], "b.r": _READS[:2],
               "ctl": ((0.001, "shutdown_wr", "a"), (0.01, "close", "b"), (0.5, "close", "a"))}),
    # a connecting socket closed while its SYN is out: the RST refusing
    # it finds a closed socket
    "a refusal after close": Script(
        seed=15, loss=0.0, rcvbuf=None, mss=16384,
        lanes={**_IDLE, "ctl": ((0.0, "connect_nowhere", "a", 5e-5),)}),
}


@functools.lru_cache(maxsize=None)
def corpus():
    """``(name, script, what the reference world observed)``."""
    scripts = dict(DIRECTED)
    scripts.update((f"seed {seed}", draw_script(random.Random(seed))) for seed in range(64))
    return [(name, script, _observe(script, reference.install))
            for name, script in scripts.items()]


def _observe(script, install=None):
    with pytest.MonkeyPatch.context() as patch:
        if install is not None:
            install(patch)
        return observed(play(script, patch))


def _live_disagrees(script, expected, install=None):
    return first_difference(expected, _observe(script, install))


# ---------------------------------------------------------------------------
# the two worlds agree
# ---------------------------------------------------------------------------


@settings(max_examples=200, deadline=None)
@given(rnd=st.randoms(use_true_random=False))
def test_drawn_script_observes_the_same_in_both_worlds(rnd):
    script = draw_script(rnd)
    assert _live_disagrees(script, _observe(script, reference.install)) is None


@pytest.mark.parametrize("name", list(DIRECTED))
def test_directed_script_observes_the_same_in_both_worlds(name):
    ((script, expected),) = [(s, seen) for n, s, seen in corpus() if n == name]
    assert _live_disagrees(script, expected) is None


def test_the_corpus_reaches_what_it_is_there_for():
    """The directed scripts are timed by hand; hold them to their claims,
    and the drawn ones to covering the space."""
    seen = {name: observation for name, _script, observation in corpus()}
    flags = {entry[5] for observation in seen.values() for entry in observation["wire"]}
    assert {("ACK",), ("SYN",), ("ACK", "SYN"), ("ACK", "FIN"), ("ACK", "URG"),
            ("ACK", "RST")} <= flags
    # the shutdown landed in SYN_SENT and the FIN still went out
    early = seen["shutdown while connecting"]
    assert ("opening", 0, pytest.approx(5e-5, abs=2e-6), 0) in early["results"]
    assert early["a"]["fin"][2] is not None
    # one segment was in the backlog when it was lost, and the poll ran
    # before the bottom half would have
    lost = [r for r in seen["backlog lost before the bottom half"]["results"] if r[0] == "ctl"]
    assert [r[3] for r in lost] == [1, [(3, "w")]] and lost[1][2] - lost[0][2] < 20e-6
    scripts = [script for _name, script, _seen in corpus()]
    assert {s.loss for s in scripts} == {0.0, 0.1, 0.3}
    assert {s.rcvbuf for s in scripts} == {2048, 16384, None}
    assert {s.mss for s in scripts} == {536, 1460, 16384}
    assert any(s.alias for s in scripts) and any(s.opening for s in scripts)
    ops = {op[1] for s in scripts for op in s.lanes["ctl"]}
    assert {"nf_block", "partition", "delay_link", "nic_down", "close", "shutdown_wr",
            "connect_nowhere", "poll", "oobinline", "lose_backlog"} <= ops
    assert any(obs["dropped"] for obs in seen.values())
    assert any(obs[side]["ooo"] or obs[side]["fin"][3] for obs in seen.values()
               for side in "ab" if side in obs)
    # the refusal came back after the close
    refused = [r for r in seen["a refusal after close"]["results"] if r[0] == "ctl"]
    assert refused[1][3] == 0 and refused[2][3].name == "ECONNREFUSED"
    assert refused[1][2] < refused[2][2]
    # b closed with data unread; a's close came after every FIN was acknowledged
    assert seen["close with unread data"]["b"]["recv_q"]
    late = seen["shutdown(wr), then a late close"]
    assert late["a"]["fin"][1] and late["b"]["fin"][1] and late["clock"] > 0.5


def _tables(script):
    """Each host's demux table sizes, ``(bound, established)``, after
    ``script`` played on the live path."""
    with pytest.MonkeyPatch.context() as patch:
        world = play(script, patch)
    return {side: (len(host.stack.bound), len(host.stack.established))
            for side, host in world.hosts.items()}


@pytest.mark.parametrize("name, reaped", [
    ("both close under loss", True), ("both close under loss, a FIN's ACK lost", False),
    ("a duplicate in flight at the last ACK", True), ("close with unread data", True),
    ("shutdown(wr), then a late close", True)])
def test_the_close_scripts_reach_the_reaper(name, reaped):
    """A reaped pair leaves a with nothing and b with its listener; an
    unreaped one leaves both ends' entries (and a's port)."""
    assert _tables(DIRECTED[name]) == ({"a": (0, 0), "b": (1, 0)} if reaped
                                      else {"a": (1, 1), "b": (1, 1)})


# ---------------------------------------------------------------------------
# hand mutations of the new path: each must be caught
# ---------------------------------------------------------------------------

#: name -> (module, the live text, the broken text, how to install the twin)
MUTATIONS = {
    "the pure-ACK early-out skips a due FIN": (
        tcp,
        "        if self.fin_sent and self.fin_seq is None:  # tested here to spare the call\n"
        "            self._maybe_send_fin()\n",
        "            if self.fin_sent and self.fin_seq is None:\n"
        "                self._maybe_send_fin()\n",
        lambda patch, twin: patch.setattr(sockets, "TcpConn", twin.TcpConn)),
    "adv_wnd ignores the backlog": (
        tcp, "if self.backlog:  # delivered", "if False:  # delivered",
        lambda patch, twin: patch.setattr(sockets, "TcpConn", twin.TcpConn)),
    "URG tested after the plain-data branch": (
        tcp,
        '            if "URG" in flags:\n'
        "                self._on_urgent(data)\n"
        "            else:\n"
        "                self._on_data(seg.seq, data)\n",
        "            self._on_data(seg.seq, data)\n",
        lambda patch, twin: patch.setattr(sockets, "TcpConn", twin.TcpConn)),
    "permits passes everything when only an endpoint rule is installed": (
        netfilter, "if not blocked_ips and not blocked_endpoints:", "if not blocked_ips:",
        lambda patch, twin: patch.setattr(netfilter.Netfilter, "permits",
                                          twin.Netfilter.permits)),
    "size without HEADER_BYTES": (
        packet, "self.size = HEADER_BYTES + len(", "self.size = len(",
        lambda patch, twin: patch.setattr(sockets, "Packet", twin.Packet)),
    "reap without the in-flight check": (
        tcp, "and not self.on_wire and", "and",
        lambda patch, twin: patch.setattr(sockets, "TcpConn", twin.TcpConn)),
    "the skip-process_backlog test ignores a pending bottom half": (
        sockets,
        "        if conn.backlog or conn._backlog_kick is not None:\n"
        "            conn.process_backlog()\n"
        "        if conn.recv_q or conn.oob",
        "        if conn.backlog:\n"
        "            conn.process_backlog()\n"
        "        if conn.recv_q or conn.oob",
        lambda patch, twin: patch.setattr(sockets, "default_poll", twin.default_poll)),
}


@pytest.mark.parametrize("name", list(MUTATIONS))
def test_mutated_path_is_caught(name):
    module, old, new, install = MUTATIONS[name]
    twin = mutant(module, old, new)
    caught = next((case for case, script, expected in corpus()
                   if _live_disagrees(script, expected,
                                      lambda patch: install(patch, twin))), None)
    assert caught, f"no corpus script tells {name!r} from the real path"
