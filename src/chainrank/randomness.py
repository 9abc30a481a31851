"""Per-session and per-chain random streams, built with less work per stream.

`derived_rng(a, b)` is the generator `np.random.default_rng([a, b])`, and
`BlockUniforms` hands out a generator's `random()` draws a block at a time.
Both yield exactly the values the plain numpy calls yield, so output seeded
through them does not change.
"""

from __future__ import annotations

from typing import Protocol

import numpy as np

_WORD = 0xFFFFFFFF


class Uniforms(Protocol):
    """Anything with `random()`: a uniform draw from [0, 1)."""

    def random(self) -> float: ...


def derived_rng(*values: int) -> np.random.Generator:
    """`np.random.default_rng(list(values))`, with the same state, built faster.

    numpy turns a list of ints into the uint32 words of each value, least
    significant word first and 0 as one word.  Handing it those words as an
    array skips that coercion.  The array is new on every call because the
    SeedSequence keeps a reference to it.  A negative value goes to numpy as
    a list, so it fails as numpy fails.
    """
    words = []
    for v in values:
        if v < 0:
            return np.random.default_rng(list(values))
        words.append(v & _WORD)
        v >>= 32
        while v:
            words.append(v & _WORD)
            v >>= 32
    return np.random.default_rng(np.array(words, dtype=np.uint32))


class BlockUniforms:
    """`rng.random()` draws, taken from `rng` SIZE at a time.

    `rng.random(SIZE)` yields the values that SIZE scalar `rng.random()`
    calls would, in the same order, so the draws are unchanged.  The
    generator ends up to SIZE - 1 draws further along than the scalar calls
    would leave it: draw nothing else from it afterwards.
    """

    SIZE = 32  # an `interleaved_eval` session draws ~13 (at most 32 seen), so one block

    __slots__ = ("_rng", "_block")

    def __init__(self, rng: np.random.Generator):
        self._rng = rng
        self._block: list[float] = []

    def random(self) -> float:
        if not self._block:
            self._block = self._rng.random(self.SIZE)[::-1].tolist()  # popped from the end
        return self._block.pop()
