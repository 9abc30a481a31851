import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chainrank.randomness import BlockUniforms, derived_rng

EDGES = [0, 1, 2**32 - 1, 2**32, 2**64 - 1]


@pytest.mark.parametrize("seed", EDGES)
@pytest.mark.parametrize("index", EDGES)
def test_derived_rng_state_equals_default_rng_of_the_list(seed, index):
    assert (derived_rng(seed, index).bit_generator.state
            == np.random.default_rng([seed, index]).bit_generator.state)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.integers(0, 2**96), min_size=1, max_size=4))
def test_derived_rng_draws_equal_default_rng_of_the_list(values):
    assert derived_rng(*values).random(4).tolist() == np.random.default_rng(values).random(4).tolist()


@pytest.mark.parametrize("values", [(-1, 0), (7, -3)])
def test_derived_rng_refuses_negative_values_as_numpy_does(values):
    with pytest.raises(ValueError) as expected:
        np.random.default_rng(list(values))
    with pytest.raises(ValueError) as got:
        derived_rng(*values)
    assert str(got.value) == str(expected.value)


def test_block_uniforms_match_scalar_draws_across_refills():
    scalar = np.random.default_rng([3, 11])
    block = BlockUniforms(np.random.default_rng([3, 11]))  # 100 draws span four blocks of 32
    assert [block.random() for _ in range(100)] == [scalar.random() for _ in range(100)]
