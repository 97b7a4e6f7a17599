"""A work budget for the CAS flush: it costs what its generation adds.

Counted, not timed, like ``tests/core/test_flush_budget.py``.  A pod's
delta chain grows by one entry per checkpoint, and everything the flush
does must be independent of how long the chain already is:

* publishing generation k changes chunk refcounts only for the new
  entry and for what the released generation alone held — the same
  count at k = 2 and k = 40 (the parent took and released one reference
  per chunk occurrence of every *carried* entry as well);
* the accounted-block ids are derived once per flush (the parent
  derived them at each of the flush's four looks);
* ``tip_epoch`` validates without reassembly: it builds no image and
  joins no payload;
* ``tip_epoch`` checks chunk presence only for the entries no earlier
  walk found whole: after publishing generation k it checks what
  generation k added — the same count at k = 2 and k = 40 — and a
  repeated ``tip_epoch`` of an unchanged tip checks nothing (the
  parent checked every entry of the chain at every look).

What a flush must still read off the live store at every look — which
chunks are new — is ``tests/storage/test_cas_once.py``'s.
"""

import random
from collections import Counter

import pytest

from repro import harness  # noqa: F401 - registers harness.writer
from repro.cluster import Cluster
from repro.core import Manager
from repro.core.image import PodImage
from repro.storage import cas
from repro.storage.san import SharedStorage
from repro.vos import build_program

from . import reference_cas as reference

CHUNKING = (64, 256, 1024)
PATH = "/san/a.img"


class CountingRefs(Counter):
    """A refcount table that counts how often an entry of it changes."""

    changes = 0

    def __setitem__(self, cid, n):
        CountingRefs.changes += 1
        super().__setitem__(cid, n)

    def __delitem__(self, cid):
        CountingRefs.changes += 1
        super().__delitem__(cid)

    def pop(self, cid, *default):
        CountingRefs.changes += 1
        return super().pop(cid, *default)


def _image(epoch, data, accounted, delta):
    return PodImage(pod_id="pod-a", data=data, encoded_bytes=len(data),
                    accounted_bytes=accounted, netstate_bytes=0,
                    filters=[{"name": "delta", "kind": "delta"}] if delta else [],
                    epoch=epoch, acct_dirty_bytes=None)


def _occurrences(entries):
    return sum(len(e["payload"]) + len(e["acct"]) for e in entries)


def _publish(sink, image, op_id):
    """Stage and publish one generation; the refcount changes it made."""
    CountingRefs.changes = 0
    sink.store(image, op_id=op_id)
    return CountingRefs.changes


def _generations(n):
    """A full head then ``n`` same-sized deltas."""
    rng = random.Random(5)
    yield _image(0, rng.randbytes(4000), 300_000, False)
    for k in range(1, n + 1):
        # one payload chunk (no more than the minimum chunk size) and
        # eight accounted blocks: every delta entry has nine occurrences
        yield _image(k, rng.randbytes(CHUNKING[0]), 8 * cas.ACCT_BLOCK, True)


def _chain_of(impl, table, generations):
    """:func:`_generations` through ``impl``'s sink; the refcount
    changes of each publish."""
    san = SharedStorage()
    store = impl.CasStore.on(san)
    setattr(store, table, CountingRefs())
    sink = impl.CasSink(san, None, PATH, chunking=CHUNKING)
    changes = [_publish(sink, image, k + 1)
               for k, image in enumerate(_generations(generations))]
    return san, store, sink, changes


def test_publishing_generation_k_costs_what_it_adds():
    _san, store, sink, changes = _chain_of(cas, "chunk_refs", 40)
    entries = store.recipes[PATH]["entries"]
    assert len(entries) == 41
    # each delta adds one entry of the same shape, and publishing it
    # releases a generation whose entries the newer two still hold
    assert changes[2] == changes[40] == _occurrences(entries[-1:]) == 9

    # a full image ends the chain: its publish adds one entry and
    # releases the generation before the last — all of whose entries
    # the last one still holds
    rng = random.Random(9)
    head = _image(41, rng.randbytes(4000), 300_000, False)
    assert _publish(sink, head, 50) == _occurrences(store.recipes[PATH]["entries"])
    # the next full image releases the 41-entry chain, which nothing
    # else holds: those are exactly the references that change
    alone = _occurrences(store.retired[PATH]["entries"])
    changed = _publish(sink, _image(42, rng.randbytes(4000), 300_000, False), 51)
    assert changed == alone + _occurrences(store.recipes[PATH]["entries"])
    assert store.audit() == []


def test_the_frozen_store_paid_for_the_whole_chain():
    """What the budget guards against: the parent's per-occurrence
    references grow with the chain."""
    *_, changes = _chain_of(reference, "refs", 40)
    assert changes[40] > 10 * changes[2]


def test_one_agent_flush_derives_its_accounted_ids_once(monkeypatch):
    """``write_cost`` and ``write_delay`` for the ``done`` report, the
    flush's ``write_delay`` and ``stage`` share one derivation; the
    flush's read-back and the Manager's check build no image."""
    calls = Counter()
    derive = cas.CasStore.acct_entry_ids
    image_from_entry = cas.image_from_entry

    def counted_derive(*args):
        calls["acct_entry_ids"] += 1
        return derive(*args)

    def counted_build(*args):
        calls["image_from_entry"] += 1
        return image_from_entry(*args)

    monkeypatch.setattr(cas.CasStore, "acct_entry_ids",
                        staticmethod(counted_derive))
    monkeypatch.setattr(cas, "image_from_entry", counted_build)
    cluster = Cluster.build(2, seed=0)
    manager = Manager.deploy(cluster)
    node = cluster.node(0)
    cluster.create_pod(node, "w0")
    node.kernel.spawn(
        build_program("harness.writer", ballast=1_000_000, dirty_rate=0,
                      chunk_cycles=30_000_000, chunks=200), pod_id="w0")
    ops = []
    for at in (0.2, 0.6):
        cluster.engine.schedule(at, lambda: ops.append(
            manager.checkpoint([(node.name, "w0", "cas:/san/w0.img")])))
    cluster.engine.run(until=60.0)
    assert len(ops) == 2
    for op in ops:
        assert op.finished.result.ok, op.finished.result.errors
    assert calls == {"acct_entry_ids": 2}


class Unjoinable:
    """Stands in for a chunk's bytes: present, but ``b"".join`` of it
    raises."""


def test_tip_epoch_builds_no_image_and_joins_no_payload(monkeypatch):
    _san, store, sink, _changes = _chain_of(cas, "chunk_refs", 5)
    for obj in store.objects.values():
        if obj.blob is not None:
            obj.blob = Unjoinable()

    def no_image(*_args):
        raise AssertionError("tip_epoch built an image")

    monkeypatch.setattr(cas, "image_from_entry", no_image)
    assert sink.tip_epoch("pod-a") == 5
    # load does both: the stand-ins fail its join
    with pytest.raises(TypeError):
        sink.load("pod-a")


class CountingObjects(dict):
    """A chunk table that counts its presence checks."""

    checks = 0

    def __contains__(self, cid):
        CountingObjects.checks += 1
        return super().__contains__(cid)

    def get(self, cid, default=None):
        CountingObjects.checks += 1
        return super().get(cid, default)


def _tip_checks(impl, generations):
    """:func:`_generations` through ``impl``'s sink, each publish read
    back by ``tip_epoch`` as a flush does; the presence checks of each
    read-back."""
    san = SharedStorage()
    store = impl.CasStore.on(san)
    store.objects = CountingObjects()
    sink = impl.CasSink(san, None, PATH, chunking=CHUNKING)
    checks = []
    for k, image in enumerate(_generations(generations)):
        sink.store(image, op_id=k + 1)
        CountingObjects.checks = 0
        assert sink.tip_epoch("pod-a") == k
        checks.append(CountingObjects.checks)
    return sink, checks


def test_tip_epoch_checks_what_the_generation_added():
    sink, checks = _tip_checks(cas, 40)
    assert checks[2] == checks[40] == 9
    # the Manager's look after the flush's read-back: the tip is unchanged
    CountingObjects.checks = 0
    assert sink.tip_epoch("pod-a") == 40
    assert CountingObjects.checks == 0


def test_the_frozen_store_checked_the_whole_chain():
    """What the budget guards against: the parent's read-back checks
    every entry of the chain."""
    _sink, checks = _tip_checks(reference, 40)
    assert checks[40] > 10 * checks[2]
