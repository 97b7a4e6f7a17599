"""The whole-buffer chunker against the frozen byte-loop one.

``reference_chunker`` is ``chunk_bounds`` as it stood before the numpy
scan, kept verbatim: one Python iteration per byte, the hash restarted
at every cut.  Everything here holds the live chunker to it bound for
bound — chunk ids are content addresses of what the bounds cut, so a
bound that moves re-addresses every image ever stored.

Then the scan is broken by hand, one edit at a time (window one byte
short, a cut index off by one, a dtype too narrow for the mask, …): each
mutant must disagree with the oracle somewhere on the corpus, or the
corpus is not testing what it claims.
"""

import functools
import random

import pytest

from repro.storage import cas
from repro.storage.san import SharedStorage

from . import reference_chunker as reference
from ..mutation import mutant

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

#: (min, avg, max) by what each is there for.
TRIPLES = {
    "small": (64, 256, 1024),                 # test_cas_properties' triple
    "default": (cas.CHUNK_MIN, cas.CHUNK_AVG, cas.CHUNK_MAX),
    "min=log2(avg)": (8, 256, 1024),          # the restart just invisible
    "min=log2(avg), 9 bits": (9, 512, 2048),  # window not a power of two
    "min=max": (64, 256, 64),                 # every cut forced
    "avg>len": (64, 1 << 20, 100_000),
    "17-bit mask": (64, 1 << 17, 150_000),    # wider than uint16
    "64-bit mask": (64, 1 << 64, 4096),       # the whole hash
}
KINDS = ("random", "two-symbol", "zero")


def _data(kind, n, seed):
    rng = random.Random(seed)
    if kind == "zero":
        return bytes(n)
    raw = rng.randbytes(n)
    if kind == "two-symbol":
        return raw.translate(bytes([rng.randrange(256), rng.randrange(256)]) * 128)
    return raw


@functools.lru_cache(maxsize=None)
def corpus():
    """``(triple id, kind, data, oracle bounds)``: every length at which
    a rule changes — 0, 1, around ``min``, around ``max`` — two mid
    sizes, and 256 KB (four scan blocks) for three of the triples."""
    cases = []
    for name, (lo, _avg, hi) in TRIPLES.items():
        lengths = {0, 1, lo - 1, lo, lo + 1, hi, hi + 1, 3000, 70_000}
        if name in ("small", "default", "17-bit mask"):
            lengths.add(1 << 18)
        for kind in KINDS:
            for n in sorted(lengths):
                data = _data(kind, n, seed=n + len(cases))
                cases.append((name, kind, data,
                              reference.chunk_bounds(data, *TRIPLES[name])))
    return cases


def disagreements(chunk_bounds):
    """Corpus cases on which ``chunk_bounds`` differs from the oracle (an
    exception is a disagreement too), lazily."""
    for name, kind, data, expected in corpus():
        try:
            got = chunk_bounds(data, *TRIPLES[name])
        except Exception as exc:  # noqa: BLE001 - any failure is a catch
            got = repr(exc)
        if got != expected:
            yield name, kind, len(data)


def test_corpus_bounds_equal_the_oracle():
    assert list(disagreements(cas.chunk_bounds)) == []


@pytest.mark.parametrize("block", [61, 1000])
def test_block_seams_are_invisible(monkeypatch, block):
    """The scan hashes a block at a time; where the blocks meet must not
    show, whatever the block size."""
    monkeypatch.setattr(cas, "_SCAN_BLOCK", block)
    assert list(disagreements(cas.chunk_bounds)) == []


@settings(max_examples=80, deadline=None)
@given(st.sampled_from(sorted(TRIPLES)), st.sampled_from(KINDS),
       st.one_of(st.integers(0, 4096), st.integers(0, 1 << 18)),
       st.integers(0, 1 << 32))
def test_bounds_equal_the_oracle(name, kind, n, seed):
    data = _data(kind, n, seed)
    assert cas.chunk_bounds(data, *TRIPLES[name]) \
        == reference.chunk_bounds(data, *TRIPLES[name])


@settings(max_examples=50, deadline=None)
@given(st.binary(max_size=4096).map(bytearray))
def test_any_buffer_chunks_like_its_bytes(buf):
    assert cas.chunk_bounds(buf, 64, 256, 1024) \
        == cas.chunk_bounds(memoryview(buf), 64, 256, 1024) \
        == reference.chunk_bounds(bytes(buf), 64, 256, 1024)


# ---------------------------------------------------------------------------
# parameters are validated once, for the chunker and the sink alike
# ---------------------------------------------------------------------------

BAD_CHUNKING = {
    "max=0 (looped forever)": (64, 256, 0),
    "max<0": (64, 256, -1),
    "min=0": (0, 256, 1024),
    "min>max": (2048, 256, 1024),
    "avg not a power of two": (64, 300, 1024),
    "avg=1": (64, 1, 1024),
    "avg=0": (64, 0, 1024),
    "avg<0": (64, -256, 1024),
    "avg wider than the hash": (128, 1 << 65, 1024),
    # the hash restart would show: a cut tested 4 bytes into a chunk
    # reads 4 bytes of hash where the scan reads 8
    "min<log2(avg)": (4, 256, 1024),
}


@pytest.mark.parametrize("chunking", list(BAD_CHUNKING.values()),
                         ids=list(BAD_CHUNKING))
def test_bad_chunking_is_rejected(chunking):
    for data in (b"", b"x" * 5000):
        with pytest.raises(ValueError):
            cas.chunk_bounds(data, *chunking)
        with pytest.raises(ValueError):
            cas.split_chunks(data, *chunking)
    with pytest.raises(ValueError):
        cas.CasSink(SharedStorage(), None, "/san/a.img", chunking=chunking)


def test_the_smallest_legal_chunking_is_accepted():
    data = _data("random", 300, seed=1)
    assert cas.chunk_bounds(data, 1, 2, 1) == [(i, 1) for i in range(300)]
    assert cas.chunk_bounds(data, 1, 2, 3) \
        == reference.chunk_bounds(data, 1, 2, 3)
    cas.CasSink(SharedStorage(), None, "/san/a.img", chunking=(1, 2, 1))


# ---------------------------------------------------------------------------
# hand mutations of the scan: each must be caught
# ---------------------------------------------------------------------------

MUTATIONS = {
    "window one byte short": (
        "    while window < bits:", "    while window < bits - 1:"),
    "`<` for `<=` at max_size": (
        "if not 0 < min_size <= max_size:", "if not 0 < min_size < max_size:"),
    "forced cut one short of max_size": (
        "end = min(start + max_size, n)", "end = min(start + max_size - 1, n)"),
    "cut index off by one": ("+ (lo + 1)).tolist()", "+ lo).tolist()"),
    "dtype too narrow for the mask": (
        "if w >= bits)", "if w >= bits - 1)"),
    "tail shortcut taken at < 2*min": (
        "    while n - start > min_size:", "    while n - start > 2 * min_size:"),
    "a cut exactly min_size in is skipped": (
        "bisect_left(cuts, start + min_size, j)",
        "bisect_left(cuts, start + min_size + 1, j)"),
    "a block starts with a cold window": (
        "first = max(0, lo - (window - 1))", "first = lo"),
    "mask never applied": ("        h &= mask\n", ""),
}


@pytest.mark.parametrize("name", list(MUTATIONS))
def test_mutated_scan_is_caught(name):
    broken = mutant(cas, *MUTATIONS[name])
    broken._SCAN_BLOCK = 64   # many seams, so a seam bug has somewhere to show
    caught = next(disagreements(broken.chunk_bounds), None)
    assert caught, f"no corpus case tells {name!r} from the real scan"
