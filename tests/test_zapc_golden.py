"""Cross-commit golden digests of what ``python -m repro.zapc`` prints.

The CLI twin of ``tests/test_figures_golden.py``: the sha256 of
``zapc.main``'s stdout, run in-process, for one command line per shape
of run the CLI offers — snapshot alone, through the HA failover demo,
through the content-addressed store, zero-stall and compressed; recover
from CAS and from a delta chain; live and stop-and-copy migration; and
the fleet evacuation with and without soft faults.  Each exits 0.  A
change that moves a printed number, drops a line or changes which
settings an action reads has to say so here.

``--audit`` and ``trace`` print wall-clock times, so they are not pinned.

Re-pin a digest only for a deliberate behaviour change, and name the
command line and the reason in the commit message.
"""

import hashlib

import pytest

from repro import zapc

GOLDEN = {
    "snapshot --app CPI --nodes 2 --scale 0.1":
        "36c48cc445c9652018d8908f28f5fb5088f44ecf464e8847d38a0af83396941d",
    "snapshot --app CPI --nodes 2 --scale 0.1 --managers 2":
        "1ef92b3f55de0dfd7b690de751e9994c03f810ae2a6fe32e4c2ca01ab99d03a4",
    "snapshot --app CPI --nodes 4 --scale 0.1 --cas --incremental --checkpoints 3":
        "6aea24e4e3da4840976d8d303479f54baf72d3f6146fc283612c4530cb600502",
    "snapshot --app CPI --nodes 4 --scale 0.1 --async --incremental --checkpoints 3":
        "ef7af579d13bb5495b94b36be60806282b2a1f7424590a6dc14f9c6a3d17fb43",
    "snapshot --app PETSc --nodes 4 --scale 0.1 --compress 6":
        "a59dfc21332c633039063150eea3b8218610612d84ae8ba30914d0c24420f3d4",
    "recover --app CPI --nodes 4 --scale 0.1 --cas --async":
        "74209613a378ac42c14bdc196e6126782fcdfa720cfda3b700992969fae49c22",
    "recover --app BT/NAS --nodes 4 --scale 0.1 --incremental --checkpoints 3":
        "d53bbbc389c9c592249e9b87c4ab804a4bb31b79cb87dc460962d70aa2ee422b",
    "migrate --app CPI --nodes 4 --scale 0.1 --live":
        "51171104d5224908975e7bfbccd04df3807dc1aec3b915154eb9d00d44f14659",
    "migrate --app BT/NAS --nodes 4 --scale 0.1":
        "adf15bf07da5ce092844114033060892fb56ebda79d8d431dab3d5d9b20a1025",
    "migrate --app BT/NAS --nodes 4 --scale 0.1 --live --precopy-rounds 8 --compress 6":
        "82b3024052acb6b05a036a3257cccbe64a74fc7f6fc309e7e04c8f02cd321a8b",
    "fleet --nodes 8 --pods 16 --evacuate 4":
        "cc219fb5ae88805e9ca1503018f8e2cf1ab8aae0f608498c39014eb87cd92792",
    "fleet --nodes 8 --pods 16 --evacuate 4 --max-inflight 3 --no-barrier "
    "--retries 2 --budget 0.1 --faults 2 --seed 3":
        "ae43bcfa26912d5fc1c70af75d820e91d72205ea2d4eb8124feb9bba7f11fa9e",
}


@pytest.mark.parametrize("line", sorted(GOLDEN))
def test_cli_output_digest_is_pinned(line, capsys):
    assert zapc.main(line.split()) == 0
    out = capsys.readouterr().out
    digest = hashlib.sha256(out.encode()).hexdigest()
    assert digest == GOLDEN[line], (
        f"zapc {line}: output moved (now {digest}):\n{out}\nif the change "
        "is deliberate, re-pin it and say why in the commit message")
