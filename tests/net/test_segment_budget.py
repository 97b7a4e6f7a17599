"""A call budget, so the per-segment path and the syscall hand-off stay lean.

Counted, not timed: ``sys.setprofile`` sees every Python-function call,
and the ones whose code lives under ``repro/net/`` (``repro/vos/``) are
divided by the segments put on the wire (the syscall round trips made).
The two workloads are perfbench's ``tcp`` and ``kernel`` drills in shape —
an established pair moving 20 × 64 KiB with nobody draining, and a
``getpid`` loop on one CPU — so the numbers repeat exactly and a frame
added back to either path shows up here before it shows up in a
benchmark.

Each bound is about 10 % above what the path costs today; the path this
replaced cost 39.5 calls per segment and 14.0 per round trip.
"""

import sys

from repro.sim import Engine
from repro.vos import Kernel, imm
from repro.vos.process import DEAD
from repro.vos.program import ProgramBuilder

from .conftest import established_pair

#: Python calls under repro/net/ per segment put on the wire (today: 22.4).
NET_CALLS_PER_SEGMENT = 24.6
#: Python calls under repro/vos/ per getpid round trip (today: 11.0).
VOS_CALLS_PER_SYSCALL = 12.1


def calls_under(package, body):
    """Python-function calls made while ``body()`` runs whose code object
    comes from a file under ``repro/<package>/``."""
    marker = f"/repro/{package}/"
    count = 0

    def profiler(frame, event, _arg):
        nonlocal count
        if event == "call" and marker in frame.f_code.co_filename:
            count += 1

    sys.setprofile(profiler)
    try:
        body()
    finally:
        sys.setprofile(None)
    return count


def test_net_calls_per_segment_stay_within_budget():
    engine, a, b = established_pair(seed=2)
    b.options["SO_RCVBUF"] = 4 * 2**20

    def transfer():
        for _ in range(20):
            a.conn.app_write(b"x" * 65536)
        engine.run(until=60.0)
        b.conn.process_backlog()

    calls = calls_under("net", transfer)
    assert len(b.conn.recv_q) == 20 * 65536
    segments = a.stack.nic.tx_packets + b.stack.nic.tx_packets
    assert segments == 160      # 80 data segments of one MSS, 80 ACKs
    assert calls / segments <= NET_CALLS_PER_SEGMENT, calls / segments


def test_vos_calls_per_syscall_round_trip_stay_within_budget():
    n = 2_000
    b = ProgramBuilder("getpid-loop")
    with b.for_range("i", imm(0), imm(n)):
        b.syscall("pid", "getpid")
    b.halt(imm(0))
    engine = Engine(seed=3)
    kernel = Kernel(engine, "n", ncpus=1)
    proc = kernel.spawn(b.build())
    calls = calls_under("vos", engine.run)
    assert proc.state == DEAD and proc.exit_code == 0 and proc.syscalls_made == n
    assert calls / n <= VOS_CALLS_PER_SYSCALL, calls / n
