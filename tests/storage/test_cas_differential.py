"""Two-level references against the store that counted every occurrence.

``reference_cas`` is the parent's ``CasStore`` / ``CasSink``, verbatim:
one reference per chunk occurrence of every recipe, the accounted-block
ids derived at every look, ``tip_epoch`` through a full ``load()``.
Hypothesis drives both through the same sequences — stage (full or
delta, whole or cut short), publish, rollback, ``abort_op``,
``sweep_orphans``, a re-stage over a stale pending — on three paths of
two pods whose payloads share content, plus a flush that *holds* its
sink across other steps: priced, then staged after other ops
republished or rolled back its path.  A flush may stamp its image's
dirty bytes between the price and the stage, as the Agent does.  After
every step the two stores must agree on the recipe tables, ``objects``,
``refs``, ``stats()``, every path's ``load()`` (bytes, or the
``RestartError``), ``tip_epoch`` and ``audit()``; every price and delay
along the way must agree too.  Those looks are what drive the live
store's validation memo: every step re-reads every path, so an entry
marked ``whole`` wrongly shows as a ``load`` or ``tip_epoch`` that parts
from the reference's full walk.

The last step of every sequence damages both stores alike — chunks
dropped, chunk references bumped, stray references and chunks added —
and their ``audit()`` lists must still agree, problem for problem and
in order.  It is the last because the memo trusts the pinning
``audit()`` checks: after the damage, a memoized look may rightly
differ from a full walk.

Then the new code is broken by hand (``MUTATIONS``): each mutant must
fail the comparison.
"""

import random
from typing import Any, Dict

import pytest

from repro.core.image import PodImage
from repro.errors import RestartError
from repro.storage import cas
from repro.storage.san import SharedStorage

from ..mutation import first_difference, mutant
from . import reference_cas as reference

pytest.importorskip("hypothesis")
from hypothesis import Phase, settings, strategies as st  # noqa: E402
from hypothesis.stateful import (  # noqa: E402
    RuleBasedStateMachine, invariant, rule, run_state_machine_as_test)

CHUNKING = (64, 256, 1024)
#: path -> the pod that checkpoints there.
PATHS = {"/san/a.img": "pod-a", "/san/b.img": "pod-b", "/san/c.img": "pod-b"}
OPS = (1, 2, 3)

#: payloads are runs of these: two pods (and two generations) that draw
#: the same segment share its chunks.
SEGMENTS = [random.Random(i).randbytes(700) for i in range(4)]

_paths = st.sampled_from(sorted(PATHS))
_ops = st.sampled_from(OPS)
_segments = st.lists(st.sampled_from(range(len(SEGMENTS))), max_size=3)
_accounted = st.sampled_from([0, 70_000, 200_000])
_dirty = st.sampled_from([None, 0, 65_536])
_stamp = st.sampled_from([None, None, 0, 65_536, 140_000])
_truncate = st.sampled_from([None, None, 0.0, 0.5])

_ENTRY_KEYS = ("meta", "payload", "acct", "logical")


def _table(table: Dict[str, Any]) -> Dict[str, Any]:
    """A recipe table as plain data: each entry without the id set a
    store may cache on it."""
    return {path: recipe and {
        **{k: v for k, v in recipe.items() if k != "entries"},
        "entries": [{k: entry[k] for k in _ENTRY_KEYS}
                    for entry in recipe["entries"]]}
        for path, recipe in sorted(table.items())}


def _loaded(sink, pod_id):
    try:
        return [(i.data, i.epoch, i.accounted_bytes, i.netstate_bytes,
                 i.filters, i.raw_encoded_bytes, i.raw_accounted_bytes)
                for i in sink.load(pod_id)]
    except RestartError as err:
        return ("RestartError", str(err))
    except KeyError as err:
        # a load that trusted a chunk it never checked: the reference
        # checks each one, so this is always a difference
        return ("KeyError", str(err))


class World:
    """One store on its own SAN, driven through one implementation."""

    def __init__(self, impl):
        self.impl = impl
        self.san = SharedStorage()
        self.store = impl.CasStore.on(self.san)

    def sink(self, path):
        return self.impl.CasSink(self.san, None, path, chunking=CHUNKING)

    def observe(self) -> Dict[str, Any]:
        store = self.store
        return {
            "recipes": _table(store.recipes),
            "pending": _table(store.pending),
            "retired": _table(store.retired),
            "objects": {cid: (obj.size, obj.blob)
                        for cid, obj in sorted(store.objects.items())},
            "refs": dict(sorted(store.refs.items())),
            "stats": store.stats(),
            "load": {path: _loaded(self.sink(path), pod)
                     for path, pod in sorted(PATHS.items())},
            "tip_epoch": {path: self.sink(path).tip_epoch(pod)
                          for path, pod in sorted(PATHS.items())},
            "audit": store.audit(),
        }


class CasDifferential(RuleBasedStateMachine):
    #: the module under test (a mutant, in the tests at the bottom).
    impl = cas

    def __init__(self):
        super().__init__()
        self.ref = World(reference)
        self.live = World(self.impl)
        #: path -> (reference sink, live sink, image): a flush priced and
        #: not yet staged.
        self.held = {}

    def _image(self, path, delta, segments, accounted, dirty):
        prev = self.ref.store.recipes.get(path)
        data = b"".join(SEGMENTS[i] for i in segments)
        epoch = prev["entries"][-1]["meta"]["epoch"] + 1 if prev else int(delta)
        return PodImage(
            pod_id=PATHS[path], data=data, encoded_bytes=len(data),
            accounted_bytes=accounted, netstate_bytes=0,
            filters=[{"name": "delta", "kind": "delta"}] if delta else [],
            epoch=epoch, acct_dirty_bytes=dirty)

    @staticmethod
    def _priced(ref_sink, live_sink, image):
        """Both sinks price and delay the write alike."""
        assert live_sink.write_cost(image) == ref_sink.write_cost(image)
        assert live_sink.write_delay(image) == ref_sink.write_delay(image)

    def _both(self, name, *args):
        got = getattr(self.live.store, name)(*args)
        assert got == getattr(self.ref.store, name)(*args), name

    # -- the rules -------------------------------------------------------
    @rule(path=_paths, op=_ops, delta=st.booleans(), segments=_segments,
          accounted=_accounted, dirty=_dirty, stamp=_stamp, truncate=_truncate)
    def stage(self, path, op, delta, segments, accounted, dirty, stamp,
              truncate):
        """Also the re-stage over a stale pending.  ``stamp``: the Agent
        stamps the measured dirty bytes on the image after the price."""
        image = self._image(path, delta, segments, accounted, dirty)
        sinks = (self.ref.sink(path), self.live.sink(path))
        self._priced(*sinks, image)
        if stamp is not None:
            image.acct_dirty_bytes = stamp
        for sink in sinks:
            sink.stage(image, op_id=op, truncate=truncate)

    @rule(path=_paths, op=_ops, delta=st.booleans(), segments=_segments,
          accounted=_accounted, stamp=_stamp, truncate=_truncate)
    def checkpoint(self, path, op, delta, segments, accounted, stamp,
                   truncate):
        """One op stages and publishes: chains grow."""
        self.stage(path, op, delta, segments, accounted, None, stamp, truncate)
        self.publish(path, op)

    @rule(path=_paths, op=st.one_of(st.none(), _ops))
    def publish(self, path, op):
        assert self.live.sink(path).publish(op) == self.ref.sink(path).publish(op)

    @rule(path=_paths, op=_ops)
    def rollback(self, path, op):
        assert self.live.sink(path).rollback(op) \
            == self.ref.sink(path).rollback(op)

    @rule(op=_ops)
    def abort_op(self, op):
        self._both("abort_op", op)

    @rule(live=st.sets(_ops))
    def sweep_orphans(self, live):
        self._both("sweep_orphans", live)

    @rule(path=_paths, delta=st.booleans(), segments=_segments,
          accounted=_accounted, dirty=_dirty)
    def price(self, path, delta, segments, accounted, dirty):
        """A flush prices its write and holds its sinks: what it stages
        later must see whatever happened to the path in between."""
        image = self._image(path, delta, segments, accounted, dirty)
        sinks = (self.ref.sink(path), self.live.sink(path))
        self._priced(*sinks, image)
        self.held[path] = (*sinks, image)

    @rule(path=_paths, op=_ops, stamp=_stamp, truncate=_truncate)
    def flush_held(self, path, op, stamp, truncate):
        """The held flush stages and publishes."""
        if path not in self.held:
            return
        ref_sink, live_sink, image = self.held.pop(path)
        if stamp is not None:
            image.acct_dirty_bytes = stamp
        self._priced(ref_sink, live_sink, image)
        for sink in (ref_sink, live_sink):
            sink.stage(image, op_id=op, truncate=truncate)
        assert live_sink.publish(op) == ref_sink.publish(op)

    # -- what must hold after every one of them ---------------------------
    @invariant()
    def the_stores_agree(self):
        diff = first_difference(self.ref.observe(), self.live.observe())
        assert diff is None, diff

    def teardown(self):
        """Damage both stores alike and compare their audits.  The two
        count a chunk's references differently (per occurrence, per held
        entry), so a mismatch is compared by chunk, and the live store's
        own count must be the bumped one."""
        if first_difference(self.ref.observe(), self.live.observe()) is not None:
            return      # the sequence failed already: its error stands
        live, ref = self.live.store, self.ref.store
        counts = dict(live.chunk_refs)
        # what to damage follows from the sequence's own chunk ids
        ids = sorted(counts)
        for cid in ids[::3]:
            live.chunk_refs[cid] += 1
            ref.refs[cid] += 1
        for cid in ids[1::4]:
            live.chunk_refs[cid + "!stray"] = ref.refs[cid + "!stray"] = 1
        for cid in ids[2::4]:
            live.objects[cid + "!stray"] = self.impl._Object(1)
            ref.objects[cid + "!stray"] = reference._Object(1)
        for cid in sorted(live.objects)[::5]:
            del live.objects[cid], ref.objects[cid]
        got, want = live.audit(), ref.audit()
        assert [p.split(": ")[0] for p in got] \
            == [p.split(": ")[0] for p in want]
        assert got == [f"refcount mismatch for {cid}: {counts[cid] + 1} != "
                       f"{counts[cid]}" for cid in ids[::3]] \
            + [p for p in want if not p.startswith("refcount mismatch")]


SETTINGS = settings(max_examples=120, stateful_step_count=30, deadline=None,
                    derandomize=True, database=None)

TestCasDifferential = CasDifferential.TestCase
TestCasDifferential.settings = SETTINGS


# ---------------------------------------------------------------------------
# hand mutations: each must fail the comparison
# ---------------------------------------------------------------------------

MUTATIONS = {
    # the pricing memo: what the accounted ids are derived from changed
    # between the price and the stage
    "the pricing memo ignores a republished baseline": (
        "sources = (image, payload, store.recipes.get(self.path))",
        "sources = (image, payload, None)"),
    "the pricing memo ignores a late dirty stamp": (
        "image.accounted_bytes, image.acct_dirty_bytes,",
        "image.accounted_bytes,"),
    # the validation walk tip_epoch runs on (load shares it)
    "tip_epoch's walk skips the accounted ids": (
        "            if not all(map(objects.__contains__, entry[\"acct\"])):",
        "            if False:"),
    # the validation memo: a held entry found whole stays whole
    "an entry is marked whole before its walk passes": (
        "            if \"whole\" in entry:\n                continue\n",
        "            if \"whole\" in entry:\n                continue\n"
        "            entry[\"whole\"] = True\n"),
    # the audit's report: its problems in order
    "the audit reports its refcount mismatches unsorted": (
        "for cid in sorted(\n                             cid for cid, _n in "
        "expected.items() - refs.items()))",
        "for cid in (\n                             cid for cid, _n in "
        "expected.items() - refs.items()))"),
}


@pytest.mark.parametrize("name", list(MUTATIONS))
def test_mutated_store_fails_the_differential(name):
    class Broken(CasDifferential):
        impl = mutant(cas, *MUTATIONS[name])

    with pytest.raises(AssertionError):
        run_state_machine_as_test(Broken, settings=settings(
            SETTINGS, max_examples=500, phases=[Phase.generate]))
