"""The event loop against a trivially-correct model.

The engine keeps a heap, binds things to locals and folds its limits into
comparisons; the model keeps a plain list and, for every event, takes the
minimum by ``(time, insertion number)``.  Hypothesis drives both with the
same script — ``schedule`` / ``schedule_at`` / ``cancel`` from the top level
and from inside callbacks, ``stop``, ``run(until=…)``, ``run(max_events=…)``
— and the two must execute the same events in the same order at the same
``now``, and agree on the final ``now`` and ``events_executed``.
"""

from hypothesis import given, settings, strategies as st

from repro.errors import SimError
from repro.sim import Engine

#: few distinct values, so equal timestamps (the FIFO rule) are common
_delay = st.sampled_from([0.0, 0.0, 0.25, 0.5, 0.5, 1.0, 1.75, 3.0])

# What an event does when it runs (and what the script does between runs):
#   ("schedule", delay, actions)      ("schedule_at", offset from now, actions)
#   ("cancel", k)  — the k-th handle created so far, modulo their number
#   ("stop",)
_action = st.recursive(
    st.one_of(st.tuples(st.just("cancel"), st.integers(min_value=0, max_value=30)),
              st.tuples(st.just("stop"))),
    lambda inner: st.tuples(st.sampled_from(["schedule", "schedule_at"]), _delay,
                            st.lists(inner, max_size=3)),
    max_leaves=6)
_run = st.tuples(st.just("run"),
                 st.one_of(st.none(), _delay),                           # until = now + this
                 st.one_of(st.none(), st.integers(min_value=1, max_value=4)))  # max_events
_script = st.lists(st.one_of(_action, _action, _run), max_size=14)


class _Real:
    """The script's verbs on a real :class:`Engine`."""

    def __init__(self):
        self.engine = Engine(seed=0)
        self.handles = []
        self.log = []

    @property
    def now(self):
        return self.engine.now

    def add(self, delay, actions, relative):
        ident = len(self.handles)
        if relative:
            handle = self.engine.schedule(delay, self.fire, ident, actions)
        else:
            handle = self.engine.schedule_at(self.engine.now + delay, self.fire, ident, actions)
        self.handles.append(handle)

    def fire(self, ident, actions):
        self.log.append((ident, self.engine.now))
        _perform(self, actions)

    def cancel(self, k):
        self.handles[k].cancel()

    def stop(self):
        self.engine.stop()

    def run(self, until, max_events):
        try:
            return self.engine.run(until=until, max_events=max_events)
        except SimError:
            return "max_events"

    @property
    def executed(self):
        return self.engine.events_executed

    @property
    def created(self):
        return len(self.handles)


class _Model:
    """Pending events in a list; the next one is the minimum by
    ``(time, insertion number)``."""

    def __init__(self):
        self.now = 0.0
        self.pending = []  # (time, insertion number, actions)
        self.times = []  # by insertion number
        self.cancelled = set()
        self.executed = 0
        self.stopped = False
        self.log = []

    def add(self, delay, actions, relative):
        self.pending.append((self.now + delay, len(self.times), actions))
        self.times.append(self.now + delay)

    @property
    def created(self):
        return len(self.times)

    def cancel(self, k):
        self.cancelled.add(k)

    def stop(self):
        self.stopped = True

    def run(self, until, max_events):
        self.stopped = False
        executed = 0
        while self.pending and not self.stopped:
            head = min(self.pending, key=lambda entry: entry[:2])
            at, ident, actions = head
            if until is not None and at > until:
                self.now = until
                return self.now
            self.pending.remove(head)
            if ident in self.cancelled:
                continue
            self.now = at
            self.log.append((ident, at))
            _perform(self, actions)
            executed += 1
            self.executed += 1
            if max_events is not None and executed >= max_events:
                return "max_events"
        return self.now


def _perform(world, actions):
    for action in actions:
        if action[0] in ("schedule", "schedule_at"):
            world.add(action[1], action[2], relative=action[0] == "schedule")
        elif action[0] == "cancel":
            if world.created:
                world.cancel(action[1] % world.created)
        elif action[0] == "stop":
            world.stop()


def _both(real, model, step):
    if step[0] == "run":
        until = None if step[1] is None else model.now + step[1]
        assert real.run(until, step[2]) == model.run(until, step[2])
    else:
        _perform(real, [step])
        _perform(model, [step])
    assert real.now == model.now
    assert real.log == model.log
    assert real.executed == model.executed  # cancelled events are not counted


@settings(max_examples=300, deadline=None)
@given(script=_script)
def test_engine_matches_sorted_list_model(script):
    real, model = _Real(), _Model()
    for step in script:
        _both(real, model, step)
    while model.pending:  # a ``stop`` may end a run early, so drain in a loop
        _both(real, model, ("run", None, None))
    assert [h.time for h in real.handles] == model.times
    assert [h.cancelled for h in real.handles] == [k in model.cancelled for k in range(len(model.times))]
