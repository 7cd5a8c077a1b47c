import itertools
import math
from fractions import Fraction
from functools import reduce

import numpy as np
import pytest

from flipchain import matrices
from flipchain import (
    Bernoulli,
    CylinderFunction,
    InvalidSpec,
    IsingBoltzmann,
    PauliWord,
    SiteOutOfRange,
    canonical_weight,
    convolve,
    e,
    glimm_map,
    gns_deviations,
    max_abs_diff,
    pauli_operator,
    powers_state,
    pukanszky_L,
    pukanszky_V,
    random_pauli_word,
    rng_for,
    unit,
)
from oracles import ID2, SIGMA1, SIGMA3, gns_deviation, kron_oracle, product_state_diagonal


def test_pauli_operator_factor_order():
    # site 1 is the first tensor factor
    got = pauli_operator(PauliWord(((1, 1),)), 2)
    assert np.array_equal(got, np.kron(SIGMA1, ID2))
    got3 = pauli_operator(PauliWord(((2, 3),)), 2)
    assert np.array_equal(got3, np.kron(ID2, SIGMA3))
    both = pauli_operator(PauliWord(((1, 1), (2, 3))), 2)
    assert np.array_equal(both, np.kron(SIGMA1, SIGMA3))
    assert np.array_equal(pauli_operator(PauliWord(), 1), ID2)


@pytest.mark.parametrize("n", range(5))
def test_pauli_operator_equals_kron_oracle(n):
    # equal values (kron gives -0.0 where the permutation gives +0.0) and dtype
    for choice in itertools.product((0, 1, 3), repeat=n):
        w = PauliWord(tuple((k, c) for k, c in enumerate(choice, 1) if c))
        got, want = pauli_operator(w, n), kron_oracle(w, n)
        assert got.dtype == want.dtype and np.array_equal(got, want), w


@pytest.mark.parametrize("n", range(1, 7))
def test_powers_state_bits_equal_kron_diagonal(n):
    rng = np.random.default_rng(n)
    for lam in (0.1, 0.3, 0.5):
        weights = reduce(np.kron, [np.array([lam, 1.0 - lam])] * n, np.array([1.0]))
        for _ in range(2):  # the first call builds the diagonal, the second reads it
            diag = rng.standard_normal(1 << n) + 1j * rng.standard_normal(1 << n)
            want = complex(math.fsum(weights * diag.real), math.fsum(weights * diag.imag))
            assert powers_state(np.diag(diag), lam) == want


@pytest.mark.parametrize("n", range(9))
def test_powers_state_weights_equal_kron_diagonal(n):
    # on a one-entry diagonal the expectation is that entry's weight itself
    for lam in (0.1, 0.3, 0.5):
        got = np.array([powers_state(np.diag(row), lam) for row in np.eye(1 << n)])
        assert not got.imag.any()
        assert got.real.tobytes() == product_state_diagonal(lam, n).tobytes()


def test_glimm_map_memo_keeps_exact_and_float_apart():
    w = PauliWord(((1, 1), (2, 3)))
    exact = Bernoulli(Fraction(1, 2))
    uncached = convolve(pukanszky_V(e(1), exact),
                        pukanszky_L(CylinderFunction.psi(2, 2, exact=True)))
    floats = glimm_map(w, Bernoulli(0.5))
    assert all(f.values.dtype != object for f in floats.terms.values())
    # Bernoulli(0.5) == Bernoulli(Fraction(1, 2)), yet the image differs in kind
    image = glimm_map(w, exact)
    assert image.terms.keys() == uncached.terms.keys()
    for word, f in image.terms.items():
        assert f.values.dtype == object
        assert list(f.values) == list(uncached.terms[word].values)
    assert glimm_map(w, exact) is image
    with pytest.raises(InvalidSpec):
        glimm_map(w, IsingBoltzmann(1.0))


def test_pauli_word_guards():
    with pytest.raises(InvalidSpec):
        PauliWord(((1, 1), (1, 3)))
    with pytest.raises(InvalidSpec):
        PauliWord(((1, 2),))
    with pytest.raises(SiteOutOfRange):
        PauliWord(((0, 1),))
    with pytest.raises(SiteOutOfRange):
        pauli_operator(PauliWord(((3, 1),)), 2)
    # storage is canonical regardless of input order
    assert PauliWord(((2, 3), (1, 1))).letters == ((1, 1), (2, 3))


def test_powers_state_products():
    lam = 0.3
    # fsum of the kron weights; not exactly 1 in binary floats
    assert powers_state(np.eye(8), lam) == pytest.approx(1.0, abs=1e-14)
    z1 = pauli_operator(PauliWord(((1, 3),)), 3)
    assert powers_state(z1, lam) == pytest.approx(2 * lam - 1, abs=1e-15)
    x1 = pauli_operator(PauliWord(((1, 1),)), 3)
    assert powers_state(x1, lam) == 0.0
    zz = pauli_operator(PauliWord(((1, 3), (2, 3))), 2)
    assert powers_state(zz, lam) == pytest.approx((2 * lam - 1) ** 2, abs=1e-15)
    with pytest.raises(InvalidSpec):
        powers_state(z1, 0.7)
    with pytest.raises(InvalidSpec):
        powers_state(z1, 0.0)


def test_glimm_map_generators():
    spec = Bernoulli(0.3)
    V = glimm_map(PauliWord(((2, 1),)), spec)
    assert max_abs_diff(V, pukanszky_V(e(2), spec)) == 0.0
    L = glimm_map(PauliWord(((2, 3),)), spec)
    assert max_abs_diff(L, pukanszky_L(CylinderFunction.psi(2, 2))) == 0.0
    assert max_abs_diff(glimm_map(PauliWord(), spec), unit()) == 0.0
    with pytest.raises(InvalidSpec):
        glimm_map(PauliWord(((1, 1),)), IsingBoltzmann(1.0))


def test_glimm_map_multiplicative_across_sites():
    spec = Bernoulli(0.3)
    w = PauliWord(((1, 1), (3, 3)))
    product = convolve(
        glimm_map(PauliWord(((1, 1),)), spec), glimm_map(PauliWord(((3, 3),)), spec)
    )
    assert max_abs_diff(glimm_map(w, spec), product) < 1e-15


def gns_expectation(w: PauliWord, spec) -> complex:
    """The cyclic-vector state of the word's image: its canonical weight."""
    return complex(canonical_weight(glimm_map(w, spec), spec))


def test_gns_expectation_oracle_values():
    lam = 0.3
    spec = Bernoulli(lam)
    assert gns_expectation(PauliWord(), spec) == 1.0
    assert gns_expectation(PauliWord(((1, 3),)), spec) == pytest.approx(
        2 * lam - 1, abs=1e-15
    )
    assert gns_expectation(PauliWord(((1, 1),)), spec) == 0.0
    assert gns_expectation(PauliWord(((1, 1), (2, 3))), spec) == pytest.approx(
        0.0, abs=1e-15)


def test_gns_matches_powers_state_on_words():
    lam = 0.35
    spec = Bernoulli(lam)
    for i in range(20):
        w = random_pauli_word(rng_for(21, i), 4)
        lhs = gns_expectation(w, spec)
        rhs = powers_state(pauli_operator(w, 4), lam)
        assert lhs == pytest.approx(rhs, abs=1e-13)


def test_gns_deviation_one_trial():
    for lam, trials in ((0.3, 20), (0.5, 10)):
        spec = Bernoulli(lam)
        assert all(gns_deviation(rng_for(5, i), 3, spec) < 1e-12 for i in range(trials))


@pytest.mark.parametrize("n", range(1, 9))
def test_batched_deviations_equal_the_one_trial_oracle(monkeypatch, n):
    # the trials of a chunk are weighed one batch per image depth: record the
    # depths of the weighed batches
    depths = []
    weight = matrices.canonical_weight
    monkeypatch.setattr(matrices, "canonical_weight",
                        lambda F, spec: depths.append(F.depth) or weight(F, spec))
    trials, groups = 12, set()
    for lam in (0.3, 0.1, 0.5, float(Fraction(3, 10))):
        spec = Bernoulli(lam)
        for seed in (0, 7):
            want = np.array([gns_deviation(rng_for(seed, i), n, spec) for i in range(trials)])
            # one trial per chunk, chunks of three with a ragged last one, one chunk
            for size in (1, 3, trials):
                depths.clear()
                got = np.array([dev for start in range(0, trials, size)
                                for dev in gns_deviations(
                                    [rng_for(seed, i) for i in range(start, min(start + size, trials))],
                                    n, spec)])
                assert got.tobytes() == want.tobytes(), (lam, seed, size)
            groups.add(len(depths))
    # the one-chunk runs weighed trials of different depths in separate batches
    assert max(groups) > 1


def test_random_pauli_word_reproducible():
    a = random_pauli_word(rng_for(3, 7), 5)
    b = random_pauli_word(rng_for(3, 7), 5)
    assert a == b
    assert all(1 <= s <= 5 for s in a.sites)
