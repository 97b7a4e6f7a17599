"""Generational dirty tracking: named consumers and transactional clears.

Incremental checkpoints and live-migration pre-copy both ask "what was
written since *my* last visit?" — two different baselines over one
dirty-page stream.  Each consumer (``"ckpt"``, ``"precopy"``, ...) owns
an independent baseline: clearing one never moves another's.  Clears are
transactional (``begin_clear`` / ``commit_clear`` / ``abort_clear``) so
a failed round folds its unacknowledged dirtiness back into the
baseline instead of losing it.
"""

import pytest

from repro.vos.memory import Memory


def test_consumers_have_independent_baselines():
    m = Memory(heap=1000)
    m.clear_dirty("ckpt")
    m.clear_dirty("precopy")
    m.touch(300, "heap")
    m.clear_dirty("precopy")      # the pre-copy round ships the 300
    m.touch(50, "heap")
    # the checkpoint consumer still owes everything since *its* clear
    assert m.dirty_in("ckpt") == 350
    assert m.dirty_in("precopy") == 50


def test_unseen_consumer_starts_fully_dirty():
    m = Memory(heap=256)
    m.clear_dirty("ckpt")
    # a consumer that never cleared owes the whole resident set
    assert m.dirty_in("fresh") == 256
    assert m.dirty_table("fresh")["heap"] == 256


def test_growth_updates_every_materialized_consumer():
    m = Memory(heap=100)
    m.clear_dirty("a")
    m.clear_dirty("b")
    m.alloc(50, "heap")
    assert m.dirty_in("a") == 50
    assert m.dirty_in("b") == 50
    m.resize(30, "heap")           # shrink clamps dirty to segment size
    assert m.dirty_in("a") <= 30
    assert m.dirty_in("b") <= 30


def test_commit_clear_finalizes_the_new_baseline():
    m = Memory(heap=1000)
    m.clear_dirty("pc")
    m.touch(400, "heap")
    staged = m.begin_clear("pc")
    assert staged == 400
    assert m.dirty_in("pc") == 0   # optimistically cleared while shipping
    m.commit_clear("pc")
    assert m.dirty_in("pc") == 0


def test_abort_clear_restores_the_staged_dirtiness():
    m = Memory(heap=1000)
    m.clear_dirty("pc")
    m.touch(400, "heap")
    m.begin_clear("pc")
    m.touch(100, "heap")           # written while the failed round ran
    m.abort_clear("pc")
    # nothing was acknowledged: the 400 come back, merged saturating
    # with the 100 written meanwhile
    assert m.dirty_in("pc") == 500


def test_abort_clear_saturates_at_segment_size():
    m = Memory(heap=100)
    m.clear_dirty("pc")
    m.touch(80, "heap")
    m.begin_clear("pc")
    m.touch(90, "heap")
    m.abort_clear("pc")
    assert m.dirty_in("pc") == 100  # never more than resident


def test_abort_without_begin_is_noop():
    m = Memory(heap=100)
    m.clear_dirty("pc")
    m.touch(10, "heap")
    m.abort_clear("pc")
    m.commit_clear("pc")
    assert m.dirty_in("pc") == 10


def test_reset_dirty_drops_to_fully_dirty():
    m = Memory(heap=256)
    m.clear_dirty("cow")
    m.touch(10, "heap")
    m.reset_dirty("cow")
    # baseline forgotten: the consumer owes the full resident set again
    assert m.dirty_in("cow") == 256


def test_restored_memory_fully_dirty_for_every_consumer():
    m = Memory(heap=500)
    m.clear_dirty("ckpt")
    clone = Memory.from_image(m.to_image())
    assert clone.dirty_in("ckpt") == 500
    assert clone.dirty_in("precopy") == 500


# ---------------------------------------------------------------------------
# property tests: interleaved consumers never corrupt each other
# ---------------------------------------------------------------------------

hyp = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

SEGMENTS = ("heap", "grid")
CONSUMERS = ("ckpt", "precopy")

_op = st.one_of(
    st.tuples(st.just("alloc"), st.sampled_from(SEGMENTS), st.integers(0, 1 << 16)),
    st.tuples(st.just("free"), st.sampled_from(SEGMENTS), st.integers(0, 1 << 16)),
    st.tuples(st.just("resize"), st.sampled_from(SEGMENTS), st.integers(0, 1 << 16)),
    st.tuples(st.just("touch"), st.sampled_from(SEGMENTS), st.integers(0, 1 << 16)),
    st.tuples(st.just("clear"), st.sampled_from(CONSUMERS), st.just(0)),
    st.tuples(st.just("begin"), st.sampled_from(CONSUMERS), st.just(0)),
    st.tuples(st.just("commit"), st.sampled_from(CONSUMERS), st.just(0)),
    st.tuples(st.just("abort"), st.sampled_from(CONSUMERS), st.just(0)),
    st.tuples(st.just("reset"), st.sampled_from(CONSUMERS), st.just(0)),
)


def _apply(m, op):
    kind, arg, n = op
    if kind == "alloc":
        m.alloc(n, arg)
    elif kind == "free":
        m.free(min(n, m.segment(arg)), arg)
    elif kind == "resize":
        m.resize(n, arg)
    elif kind == "touch":
        m.touch(n, arg)
    elif kind == "clear":
        m.clear_dirty(arg)
    elif kind == "begin":
        m.begin_clear(arg)
    elif kind == "commit":
        m.commit_clear(arg)
    elif kind == "abort":
        m.abort_clear(arg)
    elif kind == "reset":
        m.reset_dirty(arg)


@settings(max_examples=200, deadline=None)
@given(st.lists(_op, max_size=50))
def test_every_consumer_bounded_by_rss(ops):
    """Whatever interleaving of writes, clears and transactions runs,
    no consumer's dirty view exceeds the resident set."""
    m = Memory(heap=4096)
    for op in ops:
        _apply(m, op)
        for consumer in CONSUMERS + ("default",):
            table = m.dirty_table(consumer)
            for seg, dirty in table.items():
                assert 0 <= dirty <= m.segment(seg), (op, consumer, ops)
            assert m.dirty_in(consumer) <= m.rss


@settings(max_examples=200, deadline=None)
@given(st.lists(_op, max_size=50), st.integers(0, 1 << 16))
def test_other_consumers_blind_to_foreign_clears(ops, written):
    """A write lands in every baseline; only the consumer that clears
    loses sight of it.  ``ckpt``'s view is computed twice — once with
    and once without a foreign clear storm in between — and must
    match."""
    a = Memory(heap=1 << 20)
    b = Memory(heap=1 << 20)
    for m in (a, b):
        m.clear_dirty("ckpt")
        m.touch(written, "heap")
    # b additionally suffers every precopy-side operation
    for op in ops:
        if op[0] in ("clear", "begin", "commit", "abort", "reset") \
                and op[1] == "ckpt":
            continue
        if op[0] in ("alloc", "free", "resize", "touch"):
            _apply(a, op)
        _apply(b, op)
    assert a.dirty_table("ckpt") == b.dirty_table("ckpt")


@settings(max_examples=200, deadline=None)
@given(st.lists(_op, max_size=40))
def test_abort_after_begin_never_loses_bytes(ops):
    """begin→(writes)→abort leaves at least the staged dirtiness (clamped
    to segment size) visible again."""
    m = Memory(heap=1 << 20)
    m.clear_dirty("pc")
    for op in ops:
        if op[0] in ("alloc", "free", "resize", "touch"):
            _apply(m, op)
    before = m.dirty_table("pc")
    m.begin_clear("pc")
    extra = [op for op in ops if op[0] == "touch"]
    for op in extra:
        _apply(m, op)
    m.abort_clear("pc")
    after = m.dirty_table("pc")
    for seg, dirty in before.items():
        assert after.get(seg, 0) >= min(dirty, m.segment(seg)), (seg, ops)
