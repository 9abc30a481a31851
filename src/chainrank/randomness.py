"""Per-session and per-chain random streams, built with less work per stream.

`session_streams(seed, n)` yields, for each session s in range(n), a
generator in the state of `np.random.default_rng([seed, s])`.  It computes
numpy's seeding of those states for many sessions at once, as uint32 array
operations, and re-seeds one generator with each.  A stream built once,
such as a preference chain's padding draws, is a plain
`np.random.default_rng([a, b])`.  `SharedUniforms` hands out a generator's
`random()` draws from a list it extends a block at a time, and several
cursors can read that one list, each from its start.  Both yield exactly
the values the plain numpy calls yield, so output seeded through them does
not change.
"""

from __future__ import annotations

from typing import Iterator, Protocol

import numpy as np

_WORD = 0xFFFFFFFF
_MASK128 = (1 << 128) - 1

# numpy's SeedSequence (O'Neill's seed_seq_fe): pool size, hash and mix
# constants, and the shift of each hash step
_POOL = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
_SHIFT = 16
_PCG64_MULT = 0x2360ED051FC65DA44385DF649FCCF645  # PCG64's 128-bit LCG multiplier
_ONE_WORD = 2**32  # session indices below this are one uint32 word

CHUNK = 256  # sessions seeded per array pass: memory stays flat in n


class Uniforms(Protocol):
    """Anything with `random()`: a uniform draw from [0, 1)."""

    def random(self) -> float: ...


def _words(value: int) -> list[int]:
    """numpy's uint32 words of a non-negative int: least significant first, 0 as one word."""
    words = [value & _WORD]
    value >>= 32
    while value:
        words.append(value & _WORD)
        value >>= 32
    return words


def _hash_steps(value: int, multiplier: int) -> Iterator[tuple[int, int]]:
    """(xor, multiply) constants of successive hash steps: the hash constant
    before and after it is multiplied.  They do not depend on the data."""
    while True:
        after = value * multiplier & _WORD
        yield value, after
        value = after


def _hash(value: np.ndarray, steps: Iterator[tuple[int, int]]) -> np.ndarray:
    """One hash step of a uint32 array of pool words."""
    xor, mult = next(steps)
    value = (value ^ xor) * mult
    return value ^ (value >> _SHIFT)


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """SeedSequence's mix of two uint32 arrays of pool words."""
    value = _MIX_L * x - _MIX_R * y
    return value ^ (value >> _SHIFT)


def _pcg64_states(words: list[int], sessions: np.ndarray) -> list[tuple[int, int]]:
    """PCG64's (state, inc) after seeding from `SeedSequence(words + [s])`,
    for each s of the uint32 array `sessions`.

    Each pool word is a uint32 array with one entry per session, so its
    arithmetic wraps as numpy's does.
    """
    entropy = [np.full(sessions.shape, w, dtype=np.uint32) for w in words] + [sessions]
    entropy += [np.zeros_like(sessions)] * (_POOL - len(entropy))  # the pool pads with 0
    steps = _hash_steps(_INIT_A, _MULT_A)
    pool = [_hash(entropy[i], steps) for i in range(_POOL)]
    for src in range(_POOL):
        for dst in range(_POOL):
            if src != dst:
                pool[dst] = _mix(pool[dst], _hash(pool[src], steps))
    for value in entropy[_POOL:]:
        for dst in range(_POOL):
            pool[dst] = _mix(pool[dst], _hash(value, steps))
    # generate_state(4, np.uint64): eight words, paired low word first
    steps = _hash_steps(_INIT_B, _MULT_B)
    out = [_hash(pool[i % _POOL], steps).astype(np.uint64) for i in range(2 * _POOL)]
    seed_hi, seed_lo, inc_hi, inc_lo = (
        (out[2 * k + 1] << 32 | out[2 * k]).tolist() for k in range(_POOL)
    )
    states = []
    for s_hi, s_lo, i_hi, i_lo in zip(seed_hi, seed_lo, inc_hi, inc_lo):
        # pcg64_set_seed: inc = 2 * seq + 1; one LCG step, add the seed, one more step
        inc = (i_hi << 65 | i_lo << 1 | 1) & _MASK128
        states.append((((inc + (s_hi << 64 | s_lo)) * _PCG64_MULT + inc) & _MASK128, inc))
    return states


def session_streams(seed: int, n: int) -> Iterator[np.random.Generator]:
    """For each s in range(n), a generator in the state of `np.random.default_rng([seed, s])`.

    Every item is the same Generator, re-seeded, so a stream is only good
    until the next one is taken.  The Generator belongs to this call, so
    iterators advanced side by side stay independent.  A negative seed goes
    to `np.random.default_rng([seed, s])`, so it fails as numpy fails.
    """
    if seed < 0:
        for s in range(n):
            yield np.random.default_rng([seed, s])
        return
    words = _words(seed)
    bitgen = np.random.PCG64(0)
    rng = np.random.Generator(bitgen)
    for start in range(0, min(n, _ONE_WORD), CHUNK):
        sessions = np.arange(start, min(start + CHUNK, n, _ONE_WORD), dtype=np.uint32)
        for state, inc in _pcg64_states(words, sessions):
            bitgen.state = {"bit_generator": "PCG64", "state": {"state": state, "inc": inc},
                            "has_uint32": 0, "uinteger": 0}
            yield rng
    for s in range(_ONE_WORD, n):  # a two-word index: seeded one session at a time
        yield np.random.default_rng([seed, s])


class SharedUniforms:
    """One stream's `rng.random()` draws, read in order from the list `draws`.

    Every cursor made over the same `rng` and `draws` reads the same values
    from the first, so several readers of one stream see the draws one
    reader would.  A cursor that reads past the end of the list extends it
    by `rng.random(SIZE)`, which yields the values that SIZE scalar
    `rng.random()` calls would, in the same order.  The generator ends up
    to SIZE - 1 draws further along than the scalar calls would leave it:
    draw nothing else from it afterwards.
    """

    SIZE = 32  # an evaluation session draws ~13 (rarely more than 32), so one block is usual

    __slots__ = ("_rng", "_draws", "_next")

    def __init__(self, rng: np.random.Generator, draws: list[float]):
        self._rng = rng
        self._draws = draws
        self._next = 0

    def random(self) -> float:
        i = self._next
        self._next = i + 1
        try:
            return self._draws[i]
        except IndexError:  # cursors read in order, so i is the list's length
            self._draws.extend(self._rng.random(self.SIZE).tolist())
            return self._draws[i]
