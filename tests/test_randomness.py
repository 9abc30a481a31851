import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chainrank.randomness import CHUNK, SharedUniforms, session_streams

EDGES = [0, 1, 2**32 - 1, 2**32, 2**64 - 1]
SESSION_COUNTS = [0, 1, CHUNK - 1, CHUNK, CHUNK + 1]


def test_shared_uniforms_match_scalar_draws_across_refills():
    # two cursors on one stream, read in turns: 100 draws each span four
    # blocks of 32, and each cursor extends the shared list at some turn
    want = np.random.default_rng([3, 11]).random(100).tolist()
    rng, draws = np.random.default_rng([3, 11]), []
    cursors = {"first": SharedUniforms(rng, draws), "second": SharedUniforms(rng, draws)}
    got = {"first": [], "second": []}
    for name, n in [("first", 5), ("second", 30), ("first", 40), ("second", 20),
                    ("first", 1), ("second", 45), ("first", 54), ("second", 5)]:
        got[name] += [cursors[name].random() for _ in range(n)]
    assert got == {"first": want, "second": want}


def _draws(rng):
    """What the tests compare of a generator: its state, then draws of both kinds."""
    return rng.bit_generator.state, rng.random(4).tolist(), rng.integers(5, 301, size=3).tolist()


def _assert_streams_equal_default_rng(seed, n):
    got = [_draws(rng) for rng in session_streams(seed, n)]
    assert got == [_draws(np.random.default_rng([seed, s])) for s in range(n)]


@pytest.mark.parametrize("n", SESSION_COUNTS)
@pytest.mark.parametrize("seed", EDGES)
def test_session_streams_equal_default_rng_of_seed_and_session(seed, n):
    _assert_streams_equal_default_rng(seed, n)


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 2**96), n=st.sampled_from(SESSION_COUNTS))
def test_session_streams_equal_default_rng_for_any_seed(seed, n):
    _assert_streams_equal_default_rng(seed, n)


def test_session_streams_seed_of_more_words_than_the_pool():
    _assert_streams_equal_default_rng(2**160 + 12345, 5)  # six entropy words, pool of four


@pytest.mark.parametrize("seed", [-1, -2**40])
def test_session_streams_refuse_a_negative_seed_as_numpy_does(seed):
    with pytest.raises(ValueError) as expected:
        np.random.default_rng([seed, 0])
    with pytest.raises(ValueError) as got:
        next(session_streams(seed, 3))
    assert str(got.value) == str(expected.value)


def test_session_streams_advanced_together_stay_independent():
    pairs = [(a.random(3).tolist(), b.random(3).tolist())
             for a, b in zip(session_streams(7, CHUNK + 2), session_streams(8, CHUNK + 2))]
    assert pairs == [(np.random.default_rng([7, s]).random(3).tolist(),
                      np.random.default_rng([8, s]).random(3).tolist()) for s in range(CHUNK + 2)]
