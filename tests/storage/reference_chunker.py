"""The gear-hash chunker as it stood before the whole-buffer scan.

A test-only oracle: ``chunk_bounds`` below is the byte loop of
``repro.storage.cas`` kept verbatim (with its own copy of the gear
table, so a change to the table fails the differential test too).  It
hashes one byte per Python iteration and restarts the hash at every
cut; ``tests/storage/test_chunker_differential.py`` holds the live
chunker to it bound for bound.
"""

import random
from typing import List, Tuple

CHUNK_MIN = 4096
CHUNK_AVG = 16384
CHUNK_MAX = 65536

_MASK64 = (1 << 64) - 1


def _gear_table() -> Tuple[int, ...]:
    rng = random.Random(0x5EEDCA5)
    return tuple(rng.getrandbits(64) for _ in range(256))


_GEAR = _gear_table()


def chunk_bounds(data: bytes, min_size: int = CHUNK_MIN,
                 avg_size: int = CHUNK_AVG,
                 max_size: int = CHUNK_MAX) -> List[Tuple[int, int]]:
    """Content-defined ``(offset, length)`` chunk bounds of ``data``.

    The gear hash restarts at every cut, so a chunk's boundary depends
    only on its own bytes: every bound except a final one forced by
    end-of-data is stable under appends, and boundaries resynchronize a
    bounded distance after an edit.
    """
    mask = avg_size - 1
    bounds: List[Tuple[int, int]] = []
    n = len(data)
    start = 0
    while start < n:
        end = min(start + max_size, n)
        i = start
        h = 0
        cut = end
        while i < end:
            h = ((h << 1) + _GEAR[data[i]]) & _MASK64
            i += 1
            if i - start >= min_size and (h & mask) == 0:
                cut = i
                break
        bounds.append((start, cut - start))
        start = cut
    return bounds
