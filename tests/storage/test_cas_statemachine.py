"""A stateful model check of ``CasStore`` + ``CasSink``.

Hypothesis drives the store through interleavings of everything the
Agents and Managers do to it — stage (full or delta, whole or cut
short), publish, rollback, ``abort_op``, ``sweep_orphans``, a re-stage
over a stale pending — on three paths of two pods whose payloads share
content, next to a model that knows only *which image chain each path
should hold*: three dicts and the one-deep undo rule.  After every step
the store must agree with the model and with itself:

* the recipe tables hold the model's generations, op for op;
* ``refs`` is exactly one reference per chunk occurrence in ``recipes``
  + ``pending`` + ``retired`` (the view the store derives from its two
  levels, which ``audit()`` recounts); ``footprint_bytes`` is the sum
  of the stored objects; stored minus reclaimed is what is there;
* ``carried_bytes`` is what the carried-id walk of the first CAS
  implementation would have counted (recomputed here from the tables);
* every generation staged whole — published or still pending — has all
  its chunks, ``audit()`` is clean unless a cut-short generation is
  published, every published whole path ``load()``s the model's bytes,
  a generation missing a chunk raises ``RestartError``, and
  ``tip_epoch`` is the loaded chain's last epoch (None where it raises);
* every held entry a validation walk marked ``whole`` has all its
  chunks, the payload's with their bytes: the memo that lets later
  walks skip it is never wrong.

The mutations at the bottom are the bugs this exists for (the first is
the PR 10 re-stage bug a reviewer caught by reading): each must fail it.
"""

import random
from collections import Counter
from dataclasses import dataclass
from typing import Tuple

import pytest

from repro.core.image import PodImage
from repro.errors import RestartError
from repro.storage import cas
from repro.storage.san import SharedStorage

from ..mutation import mutant

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
_truncate = st.sampled_from([None, None, 0.0, 0.5])


@dataclass(frozen=True)
class Gen:
    """One generation as the model sees it."""

    op: int
    chain: Tuple[PodImage, ...]
    #: staged without ``truncate`` on top of a whole base: every chunk
    #: must be on the SAN for as long as the generation exists.
    whole: bool
    #: what publishing it adds to ``carried_bytes``.
    carried: int


def _is_delta(image):
    return bool(image.filters)


class CasMachine(RuleBasedStateMachine):
    #: the module under test (a mutant, in the tests at the bottom).
    impl = cas

    def __init__(self):
        super().__init__()
        self.san = SharedStorage()
        self.store = self.impl.CasStore.on(self.san)
        self.published = {}
        self.pending = {}
        self.retired = {}       # path -> Gen, or None for "nothing before"
        self.carried = 0
        self.logical = 0

    def sink(self, path):
        return self.impl.CasSink(self.san, None, path, chunking=CHUNKING)

    # -- the rules -------------------------------------------------------
    @rule(path=_paths, op=_ops, delta=st.booleans(), segments=_segments,
          accounted=_accounted,
          dirty=st.sampled_from([None, 0, 65_536]), truncate=_truncate)
    def stage(self, path, op, delta, segments, accounted, dirty, truncate):
        """Also the re-stage over a stale pending: whatever is parked at
        the path, of whichever op, is replaced."""
        prev = self.published.get(path)
        data = b"".join(SEGMENTS[i] for i in segments)
        image = PodImage(
            pod_id=PATHS[path], data=data, encoded_bytes=len(data),
            accounted_bytes=accounted, netstate_bytes=0,
            filters=[{"name": "delta", "kind": "delta"}] if delta else [],
            epoch=prev.chain[-1].epoch + 1 if prev else int(delta),
            acct_dirty_bytes=dirty)
        extends = delta and prev is not None
        carried = 0
        if extends:
            # the first implementation's walk over every carried id
            ids = {cid for entry in self.store.recipes[path]["entries"]
                   for cid in entry["payload"] + entry["acct"]}
            carried = sum(self.store.objects[cid].size for cid in ids
                          if cid in self.store.objects)
        sink = self.sink(path)
        stored_before = self.store.stored_bytes
        new_bytes = sink.write_cost(image).out_bytes
        sink.stage(image, op_id=op, truncate=truncate)
        if truncate is None:
            # what the cost model priced is what the stage uploaded
            assert self.store.stored_bytes - stored_before == new_bytes
        self.pending[path] = Gen(
            op, (prev.chain if extends else ()) + (image,),
            truncate is None and (not extends or prev.whole), carried)
        self.logical += image.total_bytes

    @rule(path=_paths, op=_ops, delta=st.booleans(), segments=_segments,
          accounted=_accounted, truncate=_truncate)
    def checkpoint(self, path, op, delta, segments, accounted, truncate):
        """One op stages and publishes, as a flush does: chains grow, and
        most deltas land on a published — now and then cut-short — base."""
        self.stage(path, op, delta, segments, accounted, None, truncate)
        self.publish(path, op, True)

    @rule(path=_paths, op=st.one_of(st.none(), _ops), stager=st.booleans())
    def publish(self, path, op, stager):
        staged = self.pending.get(path)
        if stager and staged is not None:
            op = staged.op      # else: whoever — usually not the stager
        ours = staged is not None and op in (None, staged.op)
        assert self.sink(path).publish(op) == ours
        if ours:
            del self.pending[path]
            self.retired[path] = self.published.get(path)
            self.published[path] = staged
            self.carried += staged.carried

    def _rollback(self, path, op):
        acted = False
        if path in self.pending and self.pending[path].op == op:
            del self.pending[path]
            acted = True
        if path in self.published and self.published[path].op == op \
                and path in self.retired:
            previous = self.retired.pop(path)
            if previous is None:
                del self.published[path]
            else:
                self.published[path] = previous
            acted = True
        return acted

    @rule(path=_paths, op=_ops, publisher=st.booleans())
    def rollback(self, path, op, publisher):
        if publisher and path in self.published:
            op = self.published[path].op
        assert self.sink(path).rollback(op) == self._rollback(path, op)

    @rule(op=_ops)
    def abort_op(self, op):
        footprint = self.store.footprint_bytes
        reclaimed = self.store.abort_op(op)
        assert reclaimed == footprint - self.store.footprint_bytes
        for table in (self.pending, self.published):
            for path in [p for p, gen in table.items() if gen.op == op]:
                self._rollback(path, op)

    @rule(live=st.sets(_ops))
    def sweep_orphans(self, live):
        dead = [p for p, gen in self.pending.items() if gen.op not in live]
        footprint = self.store.footprint_bytes
        assert self.store.sweep_orphans(live) \
            == (len(dead), footprint - self.store.footprint_bytes)
        for path in dead:
            del self.pending[path]

    # -- what must hold after every one of them ---------------------------
    def _missing(self, recipe):
        return [cid for entry in recipe["entries"]
                for cid in entry["payload"] + entry["acct"]
                if cid not in self.store.objects]

    @invariant()
    def tables_hold_the_models_generations(self):
        store = self.store
        for table, model in ((store.recipes, self.published),
                             (store.pending, self.pending),
                             (store.retired, self.retired)):
            assert {p: r and (r["op_id"], r["pod"], len(r["entries"]))
                    for p, r in table.items()} \
                == {p: g and (g.op, PATHS[p], len(g.chain))
                    for p, g in model.items()}

    @invariant()
    def counters_balance(self):
        store = self.store
        holders = [*store.recipes.values(), *store.pending.values(),
                   *filter(None, store.retired.values())]
        assert dict(store.refs) == dict(Counter(
            cid for recipe in holders for entry in recipe["entries"]
            for cid in entry["payload"] + entry["acct"]))
        assert store.footprint_bytes \
            == sum(obj.size for obj in store.objects.values()) \
            == store.stored_bytes - store.gc_reclaimed_bytes
        assert len(store.objects) \
            == store.stored_chunks - store.gc_reclaimed_chunks
        assert store.carried_bytes == self.carried
        assert store.logical_bytes == self.logical
        assert store.stats()["live_chunks"] == len(store.objects)

    @invariant()
    def an_entry_marked_whole_is_whole(self):
        objects = self.store.objects
        for entry, _holders in self.store.entry_refs.values():
            if "whole" in entry:
                assert all(cid in objects and objects[cid].blob is not None
                           for cid in entry["payload"]), entry["payload"]
                assert all(cid in objects for cid in entry["acct"])

    @invariant()
    def whole_generations_are_whole_and_load(self):
        store = self.store
        for path, gen in self.pending.items():
            if gen.whole:
                assert not self._missing(store.pending[path]), path
            assert store.pending[path].get("carried", 0) == gen.carried
        cut_short = False
        for path, gen in self.published.items():
            missing = self._missing(store.recipes[path])
            assert not (gen.whole and missing), (path, missing)
            cut_short = cut_short or bool(missing)
            if missing or _is_delta(gen.chain[0]):
                with pytest.raises(RestartError):
                    self.sink(path).load(PATHS[path])
                assert self.sink(path).tip_epoch(PATHS[path]) is None
            else:
                assert self.sink(path).tip_epoch(PATHS[path]) \
                    == gen.chain[-1].epoch
                loaded = self.sink(path).load(PATHS[path])
                assert [(i.data, i.epoch, i.accounted_bytes, i.filters)
                        for i in loaded] \
                    == [(i.data, i.epoch, i.accounted_bytes, i.filters)
                        for i in gen.chain]
        problems = store.audit()
        assert all(p.startswith("dangling ref") for p in problems), problems
        assert bool(problems) == cut_short, problems


SETTINGS = settings(max_examples=150, stateful_step_count=30, deadline=None,
                    derandomize=True, database=None)

TestCasMachine = CasMachine.TestCase
TestCasMachine.settings = SETTINGS


# ---------------------------------------------------------------------------
# hand mutations: each must fail the machine
# ---------------------------------------------------------------------------

_TAKE_THEN_RELEASE = '''\
        store._take(recipe)
        stale = store.pending.pop(self.path, None)
        if stale is not None:
            store._release(stale)
'''
_RELEASE_THEN_TAKE = '''\
        stale = store.pending.pop(self.path, None)
        if stale is not None:
            store._release(stale)
        store._take(recipe)
'''

MUTATIONS = {
    # PR 10's re-stage bug: chunks the new stage shares with the stale
    # one drop to zero and are deleted before the new references land
    "release the stale stage before taking refs": (
        _TAKE_THEN_RELEASE, _RELEASE_THEN_TAKE),
    "publish ignores op_id": (
        "        if op_id is not None and int(staged.get(\"op_id\", -1)) "
        "!= int(op_id):\n            return False\n", ""),
    "unref keeps zero-count objects": (
        "            obj = objects.pop(cid, None)\n",
        "            obj = None\n"),
    "release skips the accounted blocks": (
        "            for cid in _entry_cids(entry):\n                n = refs[cid] - 1",
        "            for cid in entry[\"payload\"]:\n                n = refs[cid] - 1"),
    # the two reference levels: an entry holds its chunks once, from its
    # first holder to its last
    "an entry takes its chunk refs per holder": (
        "                held[1] += 1\n",
        "                held[1] += 1\n"
        "                self.chunk_refs.update(_entry_cids(entry))\n"),
    "an entry's holder count never reaches zero": (
        "            held[1] -= 1\n", "            held[1] = max(1, held[1] - 1)\n"),
    # the carried-bytes bookkeeping
    "carried forgets the chunks that never arrived": (
        "recipe[\"carried\"] = distinct - sum(absent.values())",
        "recipe[\"carried\"] = distinct"),
    "a chunk the chain already holds is counted again": (
        "        held |= ids & cids\n", ""),
}


@pytest.mark.parametrize("name", list(MUTATIONS))
def test_mutated_store_fails_the_machine(name):
    class Broken(CasMachine):
        impl = mutant(cas, *MUTATIONS[name])

    # more examples than the real store gets: a run stops at its first
    # failure, and 500 caught every mutation on 20 of 20 random seeds
    with pytest.raises(AssertionError):
        run_state_machine_as_test(Broken, settings=settings(
            SETTINGS, max_examples=500, phases=[Phase.generate]))
