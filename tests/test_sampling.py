import itertools

import numpy as np
import pytest

import oracles
from flipchain import (
    HorizonOverflow,
    random_algebra_element,
    random_cylinder,
    random_word,
    rng_for,
    trial_seed,
)


def test_trial_seeds_are_stable_and_distinct():
    assert trial_seed(0, 0) == trial_seed(0, 0)
    seen = {trial_seed(7, i) for i in range(100)}
    assert len(seen) == 100
    assert trial_seed(7, 0) != trial_seed(8, 0)
    # negative masters are allowed
    assert trial_seed(-1, 0) != trial_seed(1, 0)


def test_rng_streams_reproduce():
    a = rng_for(5, 3).standard_normal(4)
    b = rng_for(5, 3).standard_normal(4)
    assert np.array_equal(a, b)
    # trial i is independent of how many trials run before it
    c = rng_for(5, 9).standard_normal(4)
    assert not np.array_equal(a, c)


def test_random_word_horizon():
    for i in range(50):
        w = random_word(rng_for(6, i), 3)
        assert w.horizon <= 3


def test_random_element_shapes():
    f = random_cylinder(rng_for(7, 1), 3)
    assert f.depth == 3 and np.iscomplexobj(f.values)
    f_real = random_cylinder(rng_for(7, 1), 3, complex_values=False)
    assert not np.iscomplexobj(f_real.values)


def test_random_algebra_element_controls():
    F = random_algebra_element(rng_for(8, 0), 5, words=3, horizon=2)
    assert F.depth == 5
    assert len(F.support) == 3
    assert all(w.horizon <= 2 for w in F.support)
    # horizon smaller than the word count caps the support size
    G = random_algebra_element(rng_for(8, 1), 4, words=9, horizon=1)
    assert len(G.support) <= 2


# 420 configurations (depth, words, horizon of the depth, complex), two or three per seed
HORIZONS = (lambda d: None, lambda d: 0, lambda d: 2, lambda d: d, lambda d: d + 3)
DRAWS = list(itertools.product(range(7), range(6), HORIZONS, (True, False)))


@pytest.mark.parametrize("seed", range(200))
def test_random_algebra_element_equals_the_word_by_word_draw(seed):
    for depth, words, horizon, complex_values in DRAWS[seed::200]:
        h = horizon(depth)
        rng, ref_rng = rng_for(seed, 0), rng_for(seed, 0)
        F = random_algebra_element(rng, depth, words, h, complex_values)
        G = oracles.random_algebra_element(ref_rng, depth, words, h, complex_values)
        assert (F.depth, F.trials, F.values.dtype) == (G.depth, None, G.values.dtype)
        assert F.values.tobytes() == G.values.tobytes()
        assert F.word.tolist() == G.word.tolist() and F.trial.tolist() == G.trial.tolist()
        assert rng.bit_generator.state == ref_rng.bit_generator.state


def test_random_algebra_element_lifts_to_its_deepest_word():
    F = random_algebra_element(rng_for(1, 2), 2, 3, horizon=5)
    assert F.depth == 5
    assert F.word.tolist() == [19, 23, 27]
    assert F.values.shape == (3, 32)


def test_random_algebra_element_without_words_is_float():
    F = random_algebra_element(rng_for(1, 2), 3, 0)
    assert F.values.shape == (0, 8) and F.values.dtype == np.float64


def test_random_algebra_element_refuses_a_deep_table_before_drawing():
    rng = rng_for(1, 2)
    state = rng.bit_generator.state
    with pytest.raises(HorizonOverflow):
        random_algebra_element(rng, 21)
    assert rng.bit_generator.state == state
