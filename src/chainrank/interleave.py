"""Balanced interleaving of two rankings, click attribution, and the sign test.

Two rankings merge into one duplicate-free list by greedily taking the next
not-yet-included document from whichever side has consumed fewer entries
(the designated first ranking wins ties).  The per-position consumption
counters realize seen(n, .): how many entries of each ranking a reader of
the top n combined results has effectively been shown.  Duplicate skips that
immediately follow an emission are counted toward the already-shown prefix;
identical rankings therefore tie at every depth.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

from .errors import DataError


@dataclass
class Interleaving:
    """Combined list with provenance counters; `first_r` says which side led."""

    combined: list[str]
    consumed: list[tuple[int, int]]  # per position: (taken from r, taken from r')
    r: list[str]
    r_prime: list[str]
    first_r: bool

    def seen(self, n: int) -> tuple[int, int]:
        """Entries of r and r' shown within the top n; n clamps to the list."""
        if n <= 0 or not self.combined:
            return (0, 0)
        n = min(n, len(self.combined))
        return self.consumed[n - 1]

    @cached_property
    def positions(self) -> dict[str, int]:
        """1-based position of each document in the combined list."""
        return {doc: i + 1 for i, doc in enumerate(self.combined)}


@dataclass
class Attribution:
    clicks_r: int
    clicks_r_prime: int
    depth: int
    winner: str  # "r" | "r_prime" | "tie"


def combine(r: list[str], r_prime: list[str], first_r: bool = True) -> Interleaving:
    """Greedy balanced merge of two duplicate-free rankings."""
    for name, ranking in (("r", r), ("r_prime", r_prime)):
        if len(set(ranking)) != len(ranking):
            raise DataError(f"ranking {name} contains duplicates")
    combined: list[str] = []
    consumed: list[tuple[int, int]] = []
    included: set[str] = set()
    k_r = k_p = 0
    while k_r < len(r) or k_p < len(r_prime):
        if k_r >= len(r):
            take_r = False
        elif k_p >= len(r_prime):
            take_r = True
        elif k_r != k_p:
            take_r = k_r < k_p
        else:
            take_r = first_r
        if take_r:
            doc = r[k_r]
            k_r += 1
        else:
            doc = r_prime[k_p]
            k_p += 1
        if doc not in included:
            included.add(doc)
            combined.append(doc)
            consumed.append((k_r, k_p))
        elif consumed:
            consumed[-1] = (k_r, k_p)
    return Interleaving(combined, consumed, list(r), list(r_prime), first_r)


def attribute(inter: Interleaving, clicked: set[str]) -> Attribution:
    """Credit clicks to each side of an interleaving.

    The deepest clicked position bounds what the user scanned; each side is
    credited with clicks landing in its seen prefix at that depth.
    """
    positions = inter.positions
    for doc in clicked:
        if doc not in positions:
            raise DataError(f"clicked doc {doc} is not in the combined ranking")
    depth = max((positions[d] for d in clicked), default=0)
    seen_r, seen_p = inter.seen(depth)
    clicks_r = len(clicked & set(inter.r[:seen_r]))
    clicks_p = len(clicked & set(inter.r_prime[:seen_p]))
    if clicks_r > clicks_p:
        winner = "r"
    elif clicks_p > clicks_r:
        winner = "r_prime"
    else:
        winner = "tie"
    return Attribution(clicks_r, clicks_p, depth, winner)


def sign_test(wins_a: int, wins_b: int) -> float:
    """Exact two-sided binomial sign test at p = 0.5, ties excluded beforehand."""
    if wins_a < 0 or wins_b < 0:
        raise DataError("win counts must be non-negative")
    n = wins_a + wins_b
    if n == 0:
        return 1.0
    k = max(wins_a, wins_b)
    tail, term = 0, math.comb(n, k)
    for i in range(k, n + 1):  # term is C(n, i); one exact step gives C(n, i + 1)
        tail += term
        term = term * (n - i) // (i + 1)
    return min(1.0, (2 * tail) / (2 ** n))
