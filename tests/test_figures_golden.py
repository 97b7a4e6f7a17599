"""Cross-commit golden digests of the figure tables.

The figure-level twin of ``tests/obs/test_trace_golden.py``: the sha256
of what ``python -m repro.figures --fig F --app CPI --scale 0.3`` prints,
for every figure that prints in well under a second at that scale
(Figures 5, 6(a), 6(b), 6(c) and the live-migration, incremental and
CAS studies).  A harness change that moves any printed number — a
checkpoint taken at another instant, a cell measured differently, a row
dropped — has to say so here.

Re-pin a digest only for a deliberate behaviour change, and name the
figure and the reason in the commit message.
"""

import hashlib

import pytest

from repro import figures

GOLDEN = {
    "5": "04d3731d71fbeae6126e23545e616e8b797ab9f790d184efc3a354a01b5957d9",
    "6a": "1b76a38071888b3286bd2d05137fa38fc5e5ca9d60d3e9184ab8ed6528dfabbe",
    "6b": "49d24e0f562c72c76f9a68a2b8a941f227649d0130b011c5e8ba67dc772bdb7b",
    "6c": "f447b4fac43698d62d60a5a4b58b28788f49c79c4636149a0f527f2e283619e5",
    "mig": "7a0520923476e1ccc5269203c1854e9d30f05bdc38d6b0b03107ecc6e8711128",
    "inc": "4b85d316c085b4eee9d13560fab2aac85b6455a21e0fb029a307798f656fba72",
    "cas": "0fc1ec80aa1cb0c1fbe695100031881ceb28c619621838fa8576ff63114deb50",
}


@pytest.mark.parametrize("fig", sorted(GOLDEN))
def test_figure_output_digest_is_pinned(fig, capsys):
    figures.main(["--fig", fig, "--app", "CPI", "--scale", "0.3"])
    out = capsys.readouterr().out
    digest = hashlib.sha256(out.encode()).hexdigest()
    assert digest == GOLDEN[fig], (
        f"--fig {fig}: output moved (now {digest}):\n{out}\nif the change "
        "is deliberate, re-pin it and say why in the commit message")
