"""Unit tests for accounted memory."""

import pytest

from repro.errors import VosError
from repro.vos.memory import Memory

#: the dirty-tracking consumer these tests read and clear.
C = "ckpt"


def test_default_segments_zero():
    m = Memory()
    assert m.rss == 0
    assert m.segment("heap") == 0


def test_alloc_and_free():
    m = Memory()
    m.alloc(1024)
    m.alloc(512, "grid")
    assert m.rss == 1536
    m.free(512, "grid")
    assert m.rss == 1024
    assert m.segment("grid") == 0


def test_free_more_than_allocated_rejected():
    m = Memory()
    m.alloc(100)
    with pytest.raises(VosError):
        m.free(200)


def test_negative_alloc_rejected():
    with pytest.raises(VosError):
        Memory().alloc(-1)


def test_resize_sets_exact_size():
    m = Memory()
    m.alloc(100, "heap")
    m.resize(5000, "heap")
    assert m.segment("heap") == 5000


def test_image_round_trip():
    m = Memory(text=10, data=20, stack=30, heap=40)
    m.alloc(99, "grid")
    clone = Memory.from_image(m.to_image())
    assert clone.rss == m.rss
    assert clone.segment("grid") == 99


# ---------------------------------------------------------------------------
# dirty tracking
# ---------------------------------------------------------------------------


def test_fresh_memory_fully_dirty():
    m = Memory(heap=1000)
    assert m.dirty_in(C) == 1000
    m.clear_dirty(C)
    assert m.dirty_in(C) == 0


def test_touch_saturates_at_segment_size():
    m = Memory(heap=100)
    m.clear_dirty(C)
    m.touch(60, "heap")
    m.touch(60, "heap")
    assert m.dirty_in(C) == 100


def test_touch_default_targets_largest_segment():
    m = Memory(text=10, data=5)
    m.alloc(1000, "grid")
    m.clear_dirty(C)
    m.touch(64)  # no segment named: the working set (grid) takes the writes
    assert m.dirty_table(C)["grid"] == 64
    assert m.dirty_in(C) == 64


def test_touch_empty_memory_is_noop():
    m = Memory()
    m.clear_dirty(C)
    m.touch(100)
    m.touch(100, "nowhere")
    assert m.dirty_in(C) == 0


def test_restored_memory_fully_dirty():
    m = Memory(heap=500)
    m.clear_dirty(C)
    clone = Memory.from_image(m.to_image())
    assert clone.dirty_in(C) == clone.rss == 500


def test_dirty_never_serialized():
    a = Memory(heap=500)
    b = Memory(heap=500)
    a.clear_dirty(C)
    b.touch(100, "heap")
    assert a.to_image() == b.to_image()


# ---------------------------------------------------------------------------
# property tests: a random operation stream keeps the invariants
# ---------------------------------------------------------------------------

hyp = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

SEGMENTS = ("heap", "grid", "stack")

_op = st.one_of(
    st.tuples(st.just("alloc"), st.sampled_from(SEGMENTS),
              st.integers(0, 1 << 20)),
    st.tuples(st.just("free"), st.sampled_from(SEGMENTS),
              st.integers(0, 1 << 20)),
    st.tuples(st.just("resize"), st.sampled_from(SEGMENTS),
              st.integers(0, 1 << 20)),
    st.tuples(st.just("touch"), st.sampled_from(SEGMENTS),
              st.integers(0, 1 << 20)),
    st.tuples(st.just("touch_any"), st.just(""), st.integers(0, 1 << 20)),
    st.tuples(st.just("clear"), st.just(""), st.just(0)),
)


def _apply(m, op):
    kind, seg, n = op
    if kind == "alloc":
        m.alloc(n, seg)
    elif kind == "free":
        m.free(min(n, m.segment(seg)), seg)
    elif kind == "resize":
        m.resize(n, seg)
    elif kind == "touch":
        m.touch(n, seg)
    elif kind == "touch_any":
        m.touch(n)
    elif kind == "clear":
        m.clear_dirty(C)


@settings(max_examples=200, deadline=None)
@given(st.lists(_op, max_size=40))
def test_dirty_bounded_by_rss(ops):
    """No operation stream can make dirty exceed resident bytes —
    per segment and in total."""
    m = Memory(heap=4096)
    for op in ops:
        _apply(m, op)
        table = m.dirty_table(C)
        for seg, dirty in table.items():
            assert 0 <= dirty <= m.segment(seg), (seg, ops)
        assert m.dirty_in(C) <= m.rss


@settings(max_examples=200, deadline=None)
@given(st.lists(_op, max_size=40))
def test_clear_dirty_always_zeroes(ops):
    """clear_dirty leaves nothing to re-copy, whatever came before."""
    m = Memory(heap=4096)
    for op in ops:
        _apply(m, op)
    m.clear_dirty(C)
    assert m.dirty_in(C) == 0


@settings(max_examples=200, deadline=None)
@given(st.lists(_op, max_size=40))
def test_rss_matches_image_accounting(ops):
    """rss stays the sum of the serialized segment table, and dirty
    tracking never leaks into the image."""
    m = Memory(heap=4096)
    reference = Memory(heap=4096)
    for op in ops:
        _apply(m, op)
        # the reference applies only the size-changing half of the stream
        if op[0] in ("alloc", "free", "resize"):
            _apply(reference, op)
    image = m.to_image()
    assert m.rss == sum(image.values())
    assert image == reference.to_image()


def _largest(m):
    """The segment an anonymous touch must land on, from scratch: the
    largest, ties broken by name."""
    sizes = m.to_image()
    return max(sizes, key=lambda k: (sizes[k], k)) if sizes else None


@settings(max_examples=300, deadline=None)
@given(st.lists(st.one_of(_op, st.just(("restore", "", 0))), max_size=40))
def test_remembered_largest_segment_equals_the_recomputed_one(ops):
    """``touch(n)`` remembers the largest segment between size changes;
    whatever the stream, what it remembers is what a fresh ``max`` over
    the segment table gives, and the writes land there."""
    m = Memory(heap=4096)
    for op in ops:
        if op[0] == "restore":
            m = Memory.from_image(m.to_image())
        else:
            _apply(m, op)
        assert m._largest in (None, _largest(m)), ops
        if op[0] == "touch_any" and op[2] > 0:
            assert m._largest == _largest(m), ops
    # observable form: an anonymous touch dirties exactly that segment
    target = _largest(m)
    m.clear_dirty(C)
    m.touch(1)
    expected = {seg: 0 for seg in m.to_image()}
    if target is not None and m.segment(target) > 0:
        expected[target] = 1
    assert m.dirty_table(C) == expected


def test_anonymous_touch_on_no_segments_is_a_noop():
    m = Memory.from_image({})
    m.clear_dirty(C)
    m.touch(100)
    assert m.dirty_table(C) == {} and m._largest is None
