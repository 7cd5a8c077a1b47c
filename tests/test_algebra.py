import math
from fractions import Fraction

import numpy as np
import pytest

from flipchain import (
    AlgebraElement,
    Bernoulli,
    CylinderFunction,
    DEPTH_CAP,
    EMPTY_WORD,
    FlipWord,
    HorizonOverflow,
    IsingBoltzmann,
    canonical_weight,
    convolve,
    e,
    hahn_norm,
    inner_product,
    involution,
    l2_norm,
    max_abs_diff,
    modular_conjugation,
    modular_operator_pow,
    pukanszky_L,
    pukanszky_V,
    random_algebra_element,
    rng_for,
    unit,
)

SPECS = (Bernoulli(0.3), IsingBoltzmann(1.0))


def witness_element():
    """Constant 1 on the first-site flip word."""
    return AlgebraElement({e(1): CylinderFunction.constant(1.0, 1)})


def test_constructor_drops_zero_tables():
    F = AlgebraElement(
        {e(1): CylinderFunction.constant(1.0, 1), e(2): CylinderFunction.zero(2)}
    )
    assert F.support == [e(1)]
    assert F.depth == 2  # common depth of the inputs, kept after dropping
    assert max(w.horizon for w in F.support) == 1


def test_depth_lifting_and_term_access():
    F = AlgebraElement({e(2): CylinderFunction(1, np.array([1.0, 2.0]))})
    assert F.depth == 2  # word horizon forces the lift
    assert list(F.term(e(2)).values) == [1.0, 2.0, 1.0, 2.0]
    assert list(F.term(e(1)).values) == [0.0] * 4
    assert F.term(e(2)).values[0b01] == 2.0


def test_unit_is_neutral():
    rng = rng_for(11, 0)
    F = random_algebra_element(rng, 3)
    assert max_abs_diff(convolve(unit(), F), F) == 0.0
    assert max_abs_diff(convolve(F, unit()), F) == 0.0
    assert convolve(F, AlgebraElement({})).support == []


@pytest.mark.parametrize(
    "dtype, nan", [(np.float64, math.nan), (np.complex128, complex(math.nan, 0.0)),
                   (object, math.nan)], ids=["float", "complex", "object"])
def test_max_abs_diff_propagates_nan(dtype, nan):
    def element(first):
        return AlgebraElement({EMPTY_WORD: CylinderFunction(1, np.array([first, 1], dtype=dtype))})

    zero = Fraction(0) if dtype is object else 0.0
    assert math.isnan(max_abs_diff(element(nan), element(zero)))
    assert math.isnan(max_abs_diff(element(zero), element(nan)))
    assert max_abs_diff(element(zero), element(zero)) == 0.0


def test_convolution_hand_example():
    # single-word factors: (F * G)(x, {}) = F(x, e1) G(x ^ e1, e1)
    F = AlgebraElement({e(1): CylinderFunction(1, np.array([2.0, 3.0]))})
    G = AlgebraElement({e(1): CylinderFunction(1, np.array([5.0, 7.0]))})
    P = convolve(F, G)
    assert P.support == [EMPTY_WORD]
    assert list(P.term(EMPTY_WORD).values) == [2.0 * 7.0, 3.0 * 5.0]


def test_lift_refuses_depth_beyond_cap(monkeypatch):
    # the cap is enforced where tables grow, before any 2**depth tile is made
    F = AlgebraElement({EMPTY_WORD: CylinderFunction.constant(1.0, 6)})
    monkeypatch.setattr(np, "tile", lambda *a: pytest.fail("tiled past the cap"))
    with pytest.raises(HorizonOverflow):
        F.lift(DEPTH_CAP + 1)
    with pytest.raises(HorizonOverflow):
        F.term(EMPTY_WORD).lift(DEPTH_CAP + 1)


def test_linear_structure():
    rng = rng_for(12, 0)
    F = random_algebra_element(rng, 3)
    G = random_algebra_element(rng, 3)
    H = random_algebra_element(rng, 3)
    lhs = convolve(F + 2 * G, H)
    rhs = convolve(F, H) + 2 * convolve(G, H)
    assert max_abs_diff(lhs, rhs) < 1e-12
    assert max_abs_diff(F - F, AlgebraElement({})) == 0.0
    assert max_abs_diff(-F, -1 * F) == 0.0


@pytest.mark.parametrize("spec", SPECS, ids=["bernoulli", "ising"])
def test_involution_properties(spec):
    for i in range(25):
        rng = rng_for(13, i)
        F = random_algebra_element(rng, 4, horizon=3)
        G = random_algebra_element(rng, 4, horizon=3)
        assert max_abs_diff(involution(involution(F, spec), spec), F) < 1e-12
        assert (
            max_abs_diff(
                involution(convolve(F, G), spec),
                convolve(involution(G, spec), involution(F, spec)),
            )
            < 1e-12
        )


@pytest.mark.parametrize("spec", SPECS, ids=["bernoulli", "ising"])
def test_polar_decomposition(spec):
    # the adjoint factors as modular conjugation after the half power
    for i in range(10):
        rng = rng_for(14, i)
        F = random_algebra_element(rng, 4, horizon=3)
        lhs = involution(F, spec)
        rhs = modular_conjugation(modular_operator_pow(F, 0.5, spec), spec)
        assert max_abs_diff(lhs, rhs) < 1e-12
        assert max_abs_diff(
            modular_conjugation(modular_conjugation(F, spec), spec), F
        ) < 1e-12


def test_modular_power_laws():
    spec = Bernoulli(0.3)
    rng = rng_for(15, 0)
    F = random_algebra_element(rng, 3)
    assert max_abs_diff(modular_operator_pow(F, 0, spec), F) == 0.0
    two_step = modular_operator_pow(modular_operator_pow(F, 0.7, spec), 0.3, spec)
    assert max_abs_diff(two_step, modular_operator_pow(F, 1.0, spec)) < 1e-12


def test_modular_power_exact_integer():
    spec = Bernoulli(Fraction(3, 10))
    W = AlgebraElement({e(1): CylinderFunction.constant(Fraction(1), 1)})
    scaled = modular_operator_pow(W, 2, spec)
    vals = scaled.term(e(1)).values
    assert vals[0] == Fraction(9, 49)
    assert vals[1] == Fraction(49, 9)


def test_modular_flow_is_isometric():
    spec = Bernoulli(0.3)
    rng = rng_for(16, 0)
    F = random_algebra_element(rng, 3)
    flowed = modular_operator_pow(F, 1j * 0.9, spec)
    assert abs(l2_norm(flowed, spec) - l2_norm(F, spec)) < 1e-12


def test_inner_product_hermitian():
    spec = Bernoulli(0.3)
    rng = rng_for(17, 0)
    F = random_algebra_element(rng, 3)
    G = random_algebra_element(rng, 3)
    assert inner_product(F, G, spec) == pytest.approx(
        np.conjugate(inner_product(G, F, spec)), abs=1e-14
    )
    assert l2_norm(unit(), spec) == pytest.approx(1.0, abs=1e-15)


def test_hahn_norm_frozen_value():
    spec = Bernoulli(Fraction(3, 10))
    V = pukanszky_V(e(1), spec)
    assert hahn_norm(V, spec) == pytest.approx(math.sqrt(7 / 3), rel=1e-14)
    assert hahn_norm(AlgebraElement({}), spec) == 0.0


def test_hahn_norm_dominates_l2_of_action():
    for spec in SPECS:
        for i in range(50):
            rng = rng_for(18, i)
            F = random_algebra_element(rng, 4, horizon=3)
            psi = random_algebra_element(rng, 4, 2, horizon=3)
            bound = hahn_norm(F, spec) * l2_norm(psi, spec)
            assert l2_norm(convolve(F, psi), spec) <= bound + 1e-12


@pytest.mark.parametrize("spec", SPECS, ids=["bernoulli", "ising"])
def test_flip_unitaries(spec):
    for sites in ([1], [2], [1, 3]):
        V = pukanszky_V(FlipWord.from_sites(sites), spec)
        assert max_abs_diff(convolve(V, V), unit()) < 1e-12
        assert max_abs_diff(involution(V, spec), V) < 1e-12


def test_flip_unitary_symmetric_point():
    # at lambda = 1/2 the weight is flip-invariant and V is the bare flip
    V = pukanszky_V(e(2), Bernoulli(0.5))
    assert list(V.term(e(2)).values) == [1.0, 1.0, 1.0, 1.0]


def test_multiplication_operators():
    spec = Bernoulli(0.3)
    phi = CylinderFunction.psi(1, 2)
    chi = CylinderFunction.psi(2, 2)
    assert (
        max_abs_diff(
            convolve(pukanszky_L(phi), pukanszky_L(chi)), pukanszky_L(phi * chi)
        )
        == 0.0
    )
    assert max_abs_diff(involution(pukanszky_L(phi), spec), pukanszky_L(phi)) < 1e-15


def test_canonical_weight_trace_asymmetry():
    spec = Bernoulli(Fraction(3, 10))
    W = AlgebraElement({e(1): CylinderFunction.constant(Fraction(1), 1)})
    adj = involution(W, spec)
    forward = canonical_weight(convolve(W, adj), spec)
    backward = canonical_weight(convolve(adj, W), spec)
    assert forward == Fraction(37, 21)
    assert backward == 1
    assert canonical_weight(unit(), spec) == 1
    assert canonical_weight(W, spec) == 0  # no empty-word component


def test_canonical_weight_tracial_at_half():
    spec = Bernoulli(0.5)
    for i in range(25):
        rng = rng_for(19, i)
        F = random_algebra_element(rng, 3)
        G = random_algebra_element(rng, 3)
        dev = abs(
            complex(canonical_weight(convolve(F, G), spec))
            - complex(canonical_weight(convolve(G, F), spec))
        )
        assert dev < 1e-12
