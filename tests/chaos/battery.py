"""What every chaos battery's test file shares: the seed matrix and the
one "this episode is clean" assertion.

``CHAOS_SEED_BUCKET=k/n`` (CI matrix) restricts a worker to the seeds
with ``seed % n == k``; the coverage audits need the full seed set and
skip themselves under it.
"""

import os

import pytest

from repro.cluster import chaos

_bucket = os.environ.get("CHAOS_SEED_BUCKET")

needs_full_seed_set = pytest.mark.skipif(
    bool(_bucket), reason="coverage audit needs the full seed set")


def seeds(n):
    """Seeds ``0..n-1``, or this worker's bucket of them."""
    if not _bucket:
        return list(range(n))
    k, of = (int(x) for x in _bucket.split("/"))
    return [s for s in range(n) if s % of == k]


def clean_episode(scenario, seed, **params):
    """Run one episode: it made progress and broke no invariant."""
    report = chaos.run(scenario, seed, **params)
    got = report.outcome
    args = "".join(f", {k}={v!r}" for k, v in params.items())
    assert report.ops or got.get("migration") or got.get("campaign"), (
        f"{scenario} seed {seed}: the driver got no operation through")
    assert report.violations == [], (
        f"{scenario} seed {seed} violated invariants "
        f"(replay with chaos.run({scenario!r}, {seed}{args})):\n"
        + "\n".join(report.violations)
        + f"\nplan: {report.plan}\nops: {report.ops}\nfired: {report.fired}"
        + "".join(f"\n{k}: {got[k]}" for k in (
            "takeover", "migration", "kind", "targets", "campaign")
            if k in got))
    return report
