"""A stateful model check of the Agent's generation store.

Hypothesis drives one ``PipelineState`` + ``MemorySink`` — two pods of
one node — through everything Agents and Managers do to it: a checkpoint
by a fresh op (a full epoch, or a delta on the pod's chain; sometimes the
same op on both pods), a stage a foreign op tries to publish, a rollback
by the tip's writer, by the *previous* writer, by an op that stored
nothing, the same rollback replayed, the abort garbage collector's
rollback naming a pod, an image pushed by a migrating peer (no owner on
the wire), a restart that notes the reassembled payload, ``abandon`` of a
staged base, ``forget`` — next to a model that is two plain dicts per
pod, *current* and *previous*, and one rule: an op undoes only what it
wrote, and what comes back is the whole generation the tip replaced.

After every step the store must agree with the model and with itself:
each pod's tip has the model's owner, chain, delta base and epoch;
``exists(op)`` holds for exactly the ops that own a stored tip, out of
every op ever drawn; ``tip_epoch`` is the chain tip's; the chain
reassembles to the payload the model recorded, which is ``bases[pod]``
unless a restart rebased the pod since.  Nothing deeper than *previous*
ever comes back — the model keeps no third generation to restore.

The mutations at the bottom are the bugs this exists for (the first one
shipped: a failed checkpoint's gc used to undo the last good one).
"""

import pytest

from repro.core import codec, pipeline
from repro.core.image import build_payload

from ..mutation import mutant

pytest.importorskip("hypothesis")
from hypothesis import Phase, settings, strategies as st  # noqa: E402
from hypothesis.stateful import (  # noqa: E402
    RuleBasedStateMachine, invariant, rule, run_state_machine_as_test)

PODS = ("pod-a", "pod-b")
_pods = st.sampled_from(PODS)

#: what the model holds for a pod with no generation.
EMPTY = {"chain": [], "raw": None, "base": None, "epoch": 0, "op": None}


class StoreMachine(RuleBasedStateMachine):
    #: the module under test (a mutant, in the tests at the bottom).
    impl = pipeline

    def __init__(self):
        super().__init__()
        self.state = self.impl.PipelineState()
        self.sink = self.impl.MemorySink(self.state)
        self.packer = self.impl.ImagePipeline([self.impl.DeltaFilter()])
        self.current = {pod: dict(EMPTY) for pod in PODS}
        self.previous = {pod: None for pod in PODS}     # None: nothing to restore
        self.staged = {}                                # pod -> staged base
        self.ops = [0]          # every op ever drawn; the last is the newest
        self.captures = 0

    # -- helpers ---------------------------------------------------------
    def _fresh_op(self):
        self.ops.append(self.ops[-1] + 1)
        return self.ops[-1]

    def _capture(self, pod):
        """A pod capture whose payload differs from every earlier one."""
        self.captures += 1
        return {"pod_id": pod, "procs": [
            {"vpid": 1, "memory": {"heap": 1 << 16},
             "regs": {"capture": self.captures}}]}

    def _pack(self, pod, delta):
        """What an Agent's encode step does: the image, its base staged."""
        standalone = self._capture(pod)
        chain_local = delta and (self.sink.tip_epoch(pod)
                                 == self.state.epoch(pod) - 1)
        image = self.packer.pack(standalone, [], [], state=self.state,
                                 chain_local=chain_local)
        raw = bytes(codec.encode(build_payload(standalone, [], [])))
        self.staged[pod] = raw
        return image, raw

    def _published(self, pod, image, raw, op):
        now = self.current[pod]
        extends = bool(now["chain"]) and self.impl.image_extends_chain(image)
        self.previous[pod] = now
        self.current[pod] = {
            "chain": (now["chain"] if extends else []) + [image], "raw": raw,
            "base": self.staged.pop(pod), "epoch": now["epoch"] + 1, "op": op}

    def _undo(self, pod):
        self.current[pod] = self.previous[pod] or dict(EMPTY)
        self.previous[pod] = None

    def _rollback(self, op, named=()):
        """The model's one rule: an op undoes the tips it wrote; naming
        a pod also removes a stored image nobody owns.  The pods undone."""
        undone = [pod for pod in PODS if self.current[pod]["op"] == op
                  or (pod in named and self.current[pod]["op"] is None
                      and self.current[pod]["chain"])]
        for pod in undone:
            self._undo(pod)
        return undone

    # -- the rules -------------------------------------------------------
    @rule(pod=_pods, delta=st.booleans(), same_op=st.booleans())
    def checkpoint(self, pod, delta, same_op):
        """Stage + publish, as ``Agent._commit`` does; ``same_op`` is
        the op's second pod on this node."""
        last = self.ops[-1]
        op = last if same_op and last and last != self.current[pod]["op"] \
            else self._fresh_op()
        image, raw = self._pack(pod, delta)
        assert image.epoch == self.current[pod]["epoch"]
        self.sink.store(image, op)
        self._published(pod, image, raw, op)

    @rule(pod=_pods, publish=st.booleans())
    def foreign_publish(self, pod, publish):
        """A stage is published by its own op only."""
        op, rival = self._fresh_op(), self._fresh_op()
        image, raw = self._pack(pod, False)
        self.sink.stage(image, op)
        assert not self.sink.publish(rival), "a foreign op published the stage"
        if publish:
            assert self.sink.publish(op)
            self._published(pod, image, raw, op)
        else:
            assert self.sink.rollback(op), "the stager could not drop its stage"
            del self.staged[pod]

    @rule(pod=_pods)
    def stage_only(self, pod):
        """A session that packed and is parked at the barrier."""
        self._pack(pod, True)

    @rule(pod=_pods)
    def abandon(self, pod):
        self.state.abandon(pod)
        self.staged.pop(pod, None)

    @rule(pod=_pods)
    def pushed_image(self, pod):
        """A migrating peer's image: no pack here, no owner on the wire."""
        standalone = self._capture(pod)
        image = self.packer.pack(standalone, [], [])
        raw = bytes(codec.encode(build_payload(standalone, [], [])))
        self.state.abandon(pod)     # (a push finds no session's stage)
        self.staged.pop(pod, None)
        self.sink.store(image)
        now = self.current[pod]
        self.previous[pod] = now
        self.current[pod] = {**now, "chain": [image], "raw": raw, "op": None}

    @rule(pod=_pods)
    def restart(self, pod):
        """``load_meta``: reassemble the chain, note the payload."""
        chain = self.sink.load(pod)
        if not chain or self.impl.image_extends_chain(chain[0]):
            return
        out = self.impl.ImagePipeline.reassemble(chain, state=self.state)
        noted = {"base": out.raw, "epoch": chain[-1].epoch + 1}
        self.current[pod] = {**self.current[pod], **noted}
        if self.previous[pod] is not None:
            self.previous[pod] = {**self.previous[pod], **noted}

    @rule(pod=_pods, replay=st.booleans())
    def rollback_by_the_writer(self, pod, replay):
        op = self.current[pod]["op"]
        if op is None:
            return
        assert self.sink.rollback(op) == bool(self._rollback(op)), \
            "the writer's rollback"
        if replay:
            assert not self.sink.rollback(op), "a replayed rollback acted again"

    @rule(pod=_pods)
    def rollback_by_the_previous_writer(self, pod):
        op = (self.previous[pod] or EMPTY)["op"]
        if op is None or op in [self.current[p]["op"] for p in PODS]:
            return
        assert not self.sink.rollback(op), \
            "the previous writer undid a tip it did not write"

    @rule()
    def rollback_by_an_op_that_wrote_nothing(self):
        assert not self.sink.rollback(self._fresh_op()), \
            "an op that wrote nothing undid something"

    @rule(pods=st.lists(_pods, unique=True), data=st.data())
    def gc_names_pods(self, pods, data):
        """The Agent's abort path: any op ever seen, the pods it names."""
        op = data.draw(st.sampled_from(self.ops))
        assert sorted(self.state.rollback(op, pods)) \
            == sorted(self._rollback(op, pods)), "the pod-naming rollback"

    @rule(pod=_pods)
    def forget(self, pod):
        self.state.forget(pod)
        self.staged.pop(pod, None)
        self.current[pod], self.previous[pod] = dict(EMPTY), None

    # -- what must hold after every one of them ---------------------------
    @invariant()
    def the_tip_is_the_models(self):
        for pod in PODS:
            tip, model = self.state.tip(pod), self.current[pod]
            assert tip.op_id == model["op"], f"owner of {pod}'s tip"
            assert list(tip.chain) == self.sink.load(pod) == model["chain"], \
                f"chain of {pod}"
            assert tip.base == model["base"] == self.state.bases.get(pod), \
                f"delta base of {pod}"
            assert tip.epoch == model["epoch"] == self.state.epoch(pod), \
                f"epoch of {pod}"
            assert self.state.chains.get(pod, []) == model["chain"]

    @invariant()
    def exists_answers_for_every_op_ever_seen(self):
        owners = {gen["op"] for gen in self.current.values() if gen["chain"]}
        for op in self.ops[1:]:
            assert self.sink.exists(op) == (op in owners), f"exists({op})"
        assert self.sink.exists() == any(
            gen["chain"] for gen in self.current.values())

    @invariant()
    def tip_epoch_is_the_chain_tips(self):
        for pod in PODS:
            chain = self.current[pod]["chain"]
            assert self.sink.tip_epoch(pod) == (
                chain[-1].epoch if chain else None), f"tip_epoch of {pod}"

    @invariant()
    def the_chain_reassembles_to_the_base(self):
        for pod in PODS:
            model = self.current[pod]
            chain = self.sink.load(pod)
            if not chain or self.impl.image_extends_chain(chain[0]):
                continue
            raw = self.impl.ImagePipeline.reassemble(chain).raw
            assert raw == model["raw"], f"{pod}'s chain restores other bytes"
            if model["op"] is not None and model["raw"] == model["base"]:
                assert raw == self.state.bases[pod]


SETTINGS = settings(max_examples=120, stateful_step_count=30, deadline=None,
                    derandomize=True, database=None)

TestStoreMachine = StoreMachine.TestCase
TestStoreMachine.settings = SETTINGS


# ---------------------------------------------------------------------------
# hand mutations: each must fail the machine
# ---------------------------------------------------------------------------

MUTATIONS = {
    # the bug this PR fixed: pod-keyed — any op's rollback undoes the tip
    "rollback ignores the op": (
        "        if self.tip.op_id == op_id:\n", "        if True:\n"),
    "rollback restores the image but not the owner": (
        "self._undo or _NO_GENERATION, None\n",
        "replace(self._undo or _NO_GENERATION, op_id=None), None\n"),
    "rollback pops the undo even when it refuses": (
        "        if self.tip.op_id == op_id:\n",
        "        if self.tip.op_id != op_id:\n            self._undo = None\n"
        "        else:\n"),
    # the tip is handed back, but the record still credits the undone op
    "replay rolls back twice": (
        "self._undo or _NO_GENERATION, None\n",
        "replace(self._undo or _NO_GENERATION, op_id=self.tip.op_id), None\n"),
    "publish of a foreign op succeeds": (
        "and (not op_id or record.staged.op_id == op_id)]", "]"),
    "an op's rollback removes other pods' unowned images": (
        "            elif (pod_id in named and record.tip.op_id is None\n",
        "            elif (record.tip.op_id is None\n"),
    "a restart's base is lost with the generation it rebased": (
        "        if self._undo is not None:\n"
        "            self._undo = replace(self._undo, **noted)\n", ""),
}


@pytest.mark.parametrize("name", list(MUTATIONS))
def test_mutated_store_fails_the_machine(name):
    class Broken(StoreMachine):
        impl = mutant(pipeline, *MUTATIONS[name])

    with pytest.raises(AssertionError):
        run_state_machine_as_test(Broken, settings=settings(
            SETTINGS, max_examples=400, phases=[Phase.generate]))
