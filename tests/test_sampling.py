import numpy as np

from flipchain import (
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
