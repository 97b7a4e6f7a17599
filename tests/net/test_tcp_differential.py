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
