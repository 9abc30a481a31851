import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chainrank.errors import DataError
from chainrank.interleave import attribute, combine, sign_test
from helpers import reference_sign_test

DOCS = [f"d{i}" for i in range(14)]


def rankings(draw_unique=10):
    return st.lists(st.sampled_from(DOCS), unique=True, max_size=draw_unique)


def test_golden_combine():
    inter = combine(["d1", "d2", "d3", "d4"], ["d2", "d5", "d1", "d6"], first_r=True)
    assert inter.combined == ["d1", "d2", "d5", "d3", "d4", "d6"]
    assert inter.seen(3) == (2, 2)
    assert inter.seen(5) == (4, 3)


def test_golden_attribution():
    inter = combine(["d1", "d2", "d3", "d4"], ["d2", "d5", "d1", "d6"], first_r=True)
    att = attribute(inter, {"d1", "d5"})
    assert att.depth == 3
    assert (att.clicks_r, att.clicks_r_prime) == (1, 1)
    assert att.winner == "tie"


def test_combine_identical_rankings():
    r = ["a", "b", "c"]
    inter = combine(r, list(r), first_r=True)
    assert inter.combined == r
    # identical lists tie at every depth
    for n in range(1, 4):
        s_r, s_p = inter.seen(n)
        assert s_r == s_p == n


def test_combine_two_swapped():
    inter = combine(["a", "b"], ["b", "a"], first_r=True)
    assert inter.combined == ["a", "b"]


def test_combine_rejects_duplicates():
    with pytest.raises(DataError, match="duplicates"):
        combine(["a", "a"], ["b"])


def test_attribute_no_clicks():
    inter = combine(["a", "b"], ["c", "d"], first_r=True)
    att = attribute(inter, set())
    assert (att.clicks_r, att.clicks_r_prime, att.depth, att.winner) == (0, 0, 0, "tie")


def test_attribute_click_outside_combined():
    inter = combine(["a"], ["b"], first_r=True)
    with pytest.raises(DataError, match="not in the combined"):
        attribute(inter, {"z"})


def test_attribute_unique_contribution_wins():
    r = ["a", "b", "c"]
    rp = ["x", "y", "z"]
    inter = combine(r, rp, first_r=True)
    clicked = {"a", "b"}
    att = attribute(inter, clicked)
    # brute-force recount over the seen prefixes
    s_r, s_p = inter.seen(att.depth)
    assert att.clicks_r == len(clicked & set(r[:s_r]))
    assert att.clicks_r_prime == len(clicked & set(rp[:s_p]))
    assert att.clicks_r > att.clicks_r_prime
    assert att.winner == "r"


def test_identical_rankings_always_tie_any_click_pattern():
    r = ["a", "b", "c", "d"]
    inter = combine(r, list(r), first_r=True)
    for bits in range(16):
        clicked = {doc for i, doc in enumerate(r) if bits >> i & 1}
        assert attribute(inter, clicked).winner == "tie"


def assert_seen_sandwich(inter, first):
    """seen(n, lead) >= seen(n, trail) >= seen(n, lead) - 1 at every depth
    where neither ranking is fully consumed (past exhaustion the balance rule
    no longer governs and the leftover side runs ahead)."""
    for n in range(1, len(inter.combined) + 1):
        s_r, s_p = inter.seen(n)
        if s_r == len(inter.r) or s_p == len(inter.r_prime):
            continue
        lead, trail = (s_r, s_p) if first else (s_p, s_r)
        assert lead >= trail >= lead - 1


@settings(max_examples=300, deadline=None)
@given(r=rankings(), rp=rankings(), first=st.booleans())
def test_seen_inequality_property(r, rp, first):
    inter = combine(r, rp, first_r=first)
    assert set(inter.combined) == set(r) | set(rp)
    assert len(set(inter.combined)) == len(inter.combined)
    assert_seen_sandwich(inter, first)


@settings(max_examples=300, deadline=None)
@given(r=rankings(), rp=rankings())
def test_coin_flip_balances_seen_to_within_one(r, rp):
    # summed over both coin outcomes the sides' seen counts differ by at most 1
    i1 = combine(r, rp, first_r=True)
    i2 = combine(r, rp, first_r=False)
    length = len(i1.combined)
    assert len(i2.combined) == length
    for n in range(1, length + 1):
        a1, b1 = i1.seen(n)
        a2, b2 = i2.seen(n)
        if a1 == len(r) or b1 == len(rp) or a2 == len(r) or b2 == len(rp):
            continue
        assert abs((a1 + a2) - (b1 + b2)) <= 1


def test_seen_clamps_beyond_combined_length():
    inter = combine(["a", "b"], ["c"], first_r=True)
    assert inter.seen(99) == inter.seen(len(inter.combined))
    assert inter.seen(0) == (0, 0)
    assert inter.seen(-3) == (0, 0)


def test_sign_test_values():
    assert sign_test(8, 2) == pytest.approx(0.109375, abs=0)
    assert sign_test(5, 5) == 1.0
    assert sign_test(0, 0) == 1.0
    assert sign_test(392, 239) < 0.01


def test_sign_test_symmetry():
    rng = np.random.default_rng(0)
    for _ in range(50):
        a, b = int(rng.integers(0, 40)), int(rng.integers(0, 40))
        assert sign_test(a, b) == sign_test(b, a)
        assert 0.0 <= sign_test(a, b) <= 1.0


@settings(max_examples=500, deadline=None)
@given(a=st.integers(0, 499), b=st.integers(0, 499))
def test_sign_test_equals_its_formula(a, b):
    assert sign_test(a, b) == reference_sign_test(a, b)


def test_sign_test_rejects_negative():
    with pytest.raises(DataError):
        sign_test(-1, 2)
