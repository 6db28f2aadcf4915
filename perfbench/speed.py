"""The host's speed, probed through the run, to put times on one scale.

On a host whose cores are shared with other tenants, the same pure-Python
work runs at one speed for a while and 1.3 to 2 times slower for another,
switching every 10 ms to several seconds; in some runs the host is slow for
the whole run.  ``Probe`` times a fixed reference chunk of pure-Python work
(tuples, a dict, sorting, ``Fraction`` arithmetic; nothing of ``confgsb``) in
short blocks between the operations of the run, one block for every
``INTERVAL`` seconds passed, so that its blocks sample the same mix of fast
and slow spells as the operations do.  ``scale()`` is ``REF_CHUNK_S`` over
the mean block time: a mean time of the run's operations multiplied by it
reads as it would on a host that runs the chunk in ``REF_CHUNK_S``.  A
slowdown cancels as far as it hits the chunk and the library alike (most of
it, not all: see README.md), while a change in the library's own cost shows
in full, since the chunk does not change.
"""

from __future__ import annotations

import statistics
import time
from fractions import Fraction

# near the block time of the reference chunk on a quiet core of the host the
# figures in README.md come from (93 us; 2.1 GHz Xeon, CPython 3.11)
REF_CHUNK_S = 1.0e-4
BLOCK = 7        # chunks per block; a block's time is their median
INTERVAL = 0.05  # seconds between the starts of two samples, at least
MAX_BLOCKS = 60  # blocks in one sample, at most


def reference_chunk() -> int:
    memo: dict = {}
    acc = Fraction(0)
    words = []
    for i in range(96):
        key = (i % 13, (i * 7) % 11, i % 3)
        word = tuple(sorted(key + (i % 5,)))
        memo[word] = memo.get(word, 0) + i
        if i % 8 == 0:
            acc += Fraction(i + 1, i % 7 + 1)
        words.append(word)
    words.sort()
    return len(memo) + acc.numerator


class Probe:
    def __init__(self):
        self.values: list[float] = []  # block times
        self.last = time.perf_counter()

    def sample(self, blocks: int = 1) -> None:
        clock = time.perf_counter
        self.last = clock()
        for _ in range(blocks):
            chunks = []
            for _ in range(BLOCK):
                t0 = clock()
                reference_chunk()
                chunks.append(clock() - t0)
            self.values.append(statistics.median(chunks))

    def maybe_sample(self) -> None:
        """One block per INTERVAL passed since the last sample, so that an
        operation that ran for seconds weighs in the mean for as long as it
        ran; the blocks that follow it see the spell it ended in."""
        blocks = int((time.perf_counter() - self.last) / INTERVAL)
        if blocks:
            self.sample(min(blocks, MAX_BLOCKS))

    def scale(self) -> float:
        return REF_CHUNK_S / statistics.fmean(self.values)
