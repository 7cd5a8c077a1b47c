import contextlib
import io
import math
from fractions import Fraction

import numpy as np
import pytest

from flipchain import (
    EMPTY_WORD,
    Bernoulli,
    CylinderFunction,
    DepthTooSmall,
    FlipWord,
    GroupoidElement,
    InvalidSpec,
    IsingBoltzmann,
    Prefix,
    e,
    integrate,
    ising_bond_coefficients,
    ising_energy_brute,
    ising_energy_coefficient,
    measure_from_json,
    modular_delta,
    parse_lambda,
    partition_function,
    partition_function_brute,
    partition_report,
    pushforward_projection_check,
    translation_covariance_check,
)
from flipchain import cli, measures

LAM = Fraction(3, 10)


def test_psi_sign_convention():
    psi1 = CylinderFunction.psi(1, 2)
    # +1 where the site reads 0, -1 where it reads 1
    assert list(psi1.values) == [1.0, -1.0, 1.0, -1.0]
    psi2 = CylinderFunction.psi(2, 2)
    assert list(psi2.values) == [1.0, 1.0, -1.0, -1.0]
    with pytest.raises(DepthTooSmall):
        CylinderFunction.psi(3, 2)


def test_cylinder_lift_and_shift():
    f = CylinderFunction(1, np.array([2.0, 5.0]))
    g = f.lift(3)
    assert g.depth == 3
    assert list(g.values) == [2.0, 5.0] * 4
    with pytest.raises(DepthTooSmall):
        g.lift(1)
    shifted = f.shift(e(1))
    assert list(shifted.values) == [5.0, 2.0]
    # shifting by a word beyond the depth lifts first
    s2 = f.shift(e(2))
    assert s2.depth == 2
    assert list(s2.values) == [2.0, 5.0, 2.0, 5.0]


def test_cylinder_eval_uses_low_bits():
    f = CylinderFunction(1, np.array([3.0, 7.0]))
    assert f(Prefix(3, 0b110)) == 3.0
    assert f(Prefix(3, 0b111)) == 7.0
    with pytest.raises(DepthTooSmall):
        CylinderFunction.psi(2, 2)(Prefix(1, 0))


def test_cylinder_shape_guard():
    with pytest.raises(ValueError):
        CylinderFunction(2, np.zeros(3))


def test_cylinder_arithmetic_lifts():
    f = CylinderFunction(1, np.array([1.0, 2.0]))
    g = CylinderFunction.psi(2, 2)
    h = f + g
    assert h.depth == 2
    assert list(h.values) == [2.0, 3.0, 0.0, 1.0]
    assert list((2 * f).values) == [2.0, 4.0]
    assert list((-f).values) == [-1.0, -2.0]


def test_exact_constant():
    f = CylinderFunction.constant(Fraction(1, 3), 1)
    assert f.exact
    assert f.values[0] == Fraction(1, 3)
    assert not CylinderFunction.constant(1.0, 1).exact


def test_bernoulli_weights_normalized():
    spec = Bernoulli(LAM)
    table = spec.weight_table(4)
    assert sum(table.tolist()) == 1
    assert spec.exact
    # bit 0 carries the lambda weight
    assert spec.cylinder_weight(Prefix(1, 0)) == LAM
    assert spec.cylinder_weight(Prefix(1, 1)) == 1 - LAM
    assert spec.cylinder_weight(Prefix(2, 0b01)) == (1 - LAM) * LAM
    # depth-4 entry: bit 0 set, bits 1-3 clear
    assert table[0b01] == (1 - LAM) * LAM**3


def test_bernoulli_guards():
    with pytest.raises(InvalidSpec):
        Bernoulli(0.0)
    with pytest.raises(InvalidSpec):
        Bernoulli(1.0)
    with pytest.raises(InvalidSpec):
        Bernoulli("0.3")


def test_bernoulli_delta_single_flip():
    spec = Bernoulli(LAM)
    # flipping site 1 when the target reads 1 weighs (1-lam)/lam
    g = GroupoidElement(Prefix(1, 1), e(1))
    assert spec.delta(g) == Fraction(7, 3)
    assert spec.delta(GroupoidElement(Prefix(1, 0), e(1))) == Fraction(3, 7)
    spec_f = Bernoulli(0.3)
    assert spec_f.delta(g) == pytest.approx(7 / 3, rel=1e-15)


def test_bernoulli_delta_tables_match_pointwise():
    spec = Bernoulli(LAM)
    w = FlipWord.from_sites([1, 3])
    table = spec.delta_table(w, 3)
    inv = spec.delta_inv_table(w, 3)
    for bits in range(8):
        g = GroupoidElement(Prefix(3, bits), w)
        assert table[bits] == spec.delta(g)
        assert table[bits] * inv[bits] == 1
    with pytest.raises(DepthTooSmall):
        spec.delta_table(w, 2)


def test_integrate_exact_psi():
    spec = Bernoulli(LAM)
    val = integrate(spec, CylinderFunction.psi(1, 3, exact=True))
    assert val == 2 * LAM - 1
    # float path agrees
    assert integrate(Bernoulli(0.3), CylinderFunction.psi(1, 3)) == pytest.approx(
        -0.4, abs=1e-15
    )


def test_integrate_complex():
    spec = Bernoulli(0.3)
    f = CylinderFunction(2, np.array([1 + 2j, 0j, 1j, -1 + 0j]))
    got = integrate(spec, f)
    w = spec.weight_table(2)
    want = complex(np.sum(f.values * w))
    assert got == pytest.approx(want, abs=1e-15)


def test_ising_bond_coefficients_small():
    assert list(ising_bond_coefficients(2)) == [1, -1, -1, 1]
    c3 = ising_bond_coefficients(3)
    # prefix 000 has both bonds aligned
    assert c3[0] == 2
    assert c3[0b010] == -2
    assert c3[0b111] == 2


def test_ising_energy_coefficient_values():
    # flipping an interior site of the all-aligned prefix breaks two bonds
    x = Prefix(4, 0)
    assert ising_energy_coefficient(GroupoidElement(x, e(2))) == 4
    assert ising_energy_coefficient(GroupoidElement(x, e(3))) == 4
    # the first site has a single bond
    assert ising_energy_coefficient(GroupoidElement(x, e(1))) == 2
    assert ising_energy_coefficient(GroupoidElement(x, FlipWord(0))) == 0
    with pytest.raises(DepthTooSmall):
        ising_energy_coefficient(GroupoidElement(Prefix(2, 0), e(2)))


def test_ising_delta_consistent():
    spec = IsingBoltzmann(0.7)
    w = FlipWord.from_sites([2])
    table = spec.delta_table(w, 4)
    for bits in range(16):
        g = GroupoidElement(Prefix(4, bits), w)
        assert table[bits] == pytest.approx(spec.delta(g), rel=1e-15)
    with pytest.raises(DepthTooSmall):
        spec.delta_table(w, 2)  # needs horizon + 1


def test_ising_delta_truncation_independent():
    spec = IsingBoltzmann(1.3)
    w = FlipWord.from_sites([1, 2])
    fine = spec.delta_table(w, 5)
    coarse = spec.delta_table(w, 3)
    assert np.array_equal(fine, np.tile(coarse, 4))


def test_ising_weights_normalized():
    spec = IsingBoltzmann(0.9)
    assert math.fsum(spec.weight_table(5)) == pytest.approx(1.0, abs=1e-14)
    with pytest.raises(InvalidSpec):
        IsingBoltzmann(math.inf)


def test_partition_function_small():
    # Z_2 at J = 1: sum over 4 configurations of exp(-J s s')
    assert partition_function_brute(1.0, 2) == pytest.approx(
        2 * math.exp(-1) + 2 * math.exp(1), rel=1e-15
    )
    assert partition_function(1.0, 2) == pytest.approx(4 * math.cosh(1.0), rel=1e-14)
    with pytest.raises(ValueError):
        partition_function(1.0, 0)


def test_partition_report_flags_closed_form():
    rep = partition_report(1.0, 2)
    assert rep["rel_dev_brute_recursion"] < 1e-13
    assert rep["closed_form"] == pytest.approx((2 * math.cosh(1.0)) ** 2, rel=1e-15)
    assert rep["discrepancy_flag"] is True
    assert rep["closed_form_over_brute"] == pytest.approx(math.cosh(1.0), rel=1e-12)
    # at J = 0 every route is the plain count and the flag clears
    rep0 = partition_report(0.0, 3)
    assert rep0["discrepancy_flag"] is False
    assert rep0["brute_force"] == 8.0


def test_pushforward_projection():
    rep = pushforward_projection_check(Bernoulli(LAM), 5, 2)
    assert rep["exact_zero"] is True
    rep_f = pushforward_projection_check(IsingBoltzmann(1.0), 6, 3)
    assert rep_f["max_abs_deviation"] < 1e-15
    with pytest.raises(ValueError):
        pushforward_projection_check(Bernoulli(LAM), 3, 3)


def test_translation_covariance():
    rep = translation_covariance_check(Bernoulli(LAM), FlipWord.from_sites([1, 3]), 4)
    assert rep["exact_zero"] is True
    rep_i = translation_covariance_check(IsingBoltzmann(0.5), e(2), 5)
    assert rep_i["max_rel_deviation"] < 1e-14
    with pytest.raises(DepthTooSmall):
        translation_covariance_check(IsingBoltzmann(0.5), e(3), 3)


def test_measure_json_roundtrip():
    spec = measure_from_json({"kind": "bernoulli", "lambda": "3/10"})
    assert spec == Bernoulli(Fraction(3, 10))
    assert measure_from_json(spec.to_json()) == spec
    ising = measure_from_json({"kind": "ising", "J": 0.5})
    assert ising == IsingBoltzmann(0.5)
    assert measure_from_json(ising.to_json()) == ising
    for bad in ({}, {"kind": "nope"}, {"kind": "bernoulli"}, {"kind": "ising"}, None):
        with pytest.raises(InvalidSpec):
            measure_from_json(bad)


def test_parse_lambda():
    assert parse_lambda("3/10") == Fraction(3, 10)
    assert parse_lambda("0.3") == Fraction(3, 10)
    assert parse_lambda(0.3) == 0.3
    assert isinstance(parse_lambda(0.3), float)
    with pytest.raises(InvalidSpec):
        parse_lambda([1, 2])


def test_modular_delta_dispatch():
    g = GroupoidElement(Prefix(2, 0b01), e(1))
    assert modular_delta(Bernoulli(LAM), g) == Fraction(7, 3)
    assert modular_delta(IsingBoltzmann(1.0), g) > 0


@pytest.fixture
def cold_tables():
    """Start from an empty table cache, as a fresh process does."""
    measures._TABLES.clear()
    yield
    measures._TABLES.clear()


@pytest.mark.parametrize(
    "spec", [Bernoulli(0.3), Bernoulli(LAM), IsingBoltzmann(0.7)], ids=repr
)
def test_tables_are_read_only(spec):
    w = FlipWord.from_sites([1, 3])
    tables = [
        spec.weight_table(0),
        spec.weight_table(4),
        spec.delta_table(EMPTY_WORD, 4),
        spec.delta_table(w, 4),
        spec.delta_inv_table(w, 4),
        ising_bond_coefficients(4),
    ]
    for table in tables:
        with pytest.raises(ValueError):
            table[0] = table[0]


def test_tables_are_shared_between_equal_measures():
    assert Bernoulli(0.3).weight_table(4) is Bernoulli(0.3).weight_table(4)
    assert IsingBoltzmann(0.7).weight_table(4) is IsingBoltzmann(0.7).weight_table(4)
    assert ising_bond_coefficients(4) is ising_bond_coefficients(4)


@pytest.mark.parametrize("first_exact", [False, True])
def test_cache_keeps_exact_and_float_apart(cold_tables, first_exact):
    # equal and equally hashed measures, but only the Fraction one is exact
    assert Bernoulli(0.5) == Bernoulli(Fraction(1, 2))
    specs = [Bernoulli(0.5), Bernoulli(Fraction(1, 2))]
    if first_exact:
        specs.reverse()
    w = FlipWord.from_sites([2])
    for spec in specs:
        tables = [
            spec.weight_table(4),
            spec.delta_table(EMPTY_WORD, 4),
            spec.delta_table(w, 4),
            spec.delta_inv_table(w, 4),
        ]
        for table in tables:
            if spec.exact:
                assert table.dtype == object
                assert all(isinstance(v, Fraction) for v in table.tolist())
            else:
                assert table.dtype == np.float64


@pytest.mark.parametrize("lam", [LAM, 0.3], ids=["exact", "float"])
def test_bernoulli_tables_match_pointwise_oracles(lam):
    spec = Bernoulli(lam)
    depth = 4
    weights = spec.weight_table(depth)
    for bits in range(1 << depth):
        want = spec.cylinder_weight(Prefix(depth, bits))
        if spec.exact:
            assert weights[bits] == want
        else:
            assert weights[bits] == pytest.approx(want, rel=1e-14)
    for mask in range(1 << 3):
        w = FlipWord(mask)
        delta = spec.delta_table(w, depth)
        inv = spec.delta_inv_table(w, depth)
        for bits in range(1 << depth):
            want = spec.delta(GroupoidElement(Prefix(depth, bits), w))
            if spec.exact:
                assert delta[bits] == want
                assert inv[bits] * want == 1
            else:
                assert delta[bits] == pytest.approx(want, rel=1e-14)
                assert inv[bits] * want == pytest.approx(1.0, rel=1e-14)


def test_ising_tables_match_pointwise_oracles():
    J = 0.7
    spec = IsingBoltzmann(J)
    depth = 5
    Z = partition_function(J, depth)
    weights = spec.weight_table(depth)
    bonds = ising_bond_coefficients(depth)
    for bits in range(1 << depth):
        p = Prefix(depth, bits)
        spins = [1 - 2 * p.bit(k) for k in range(1, depth + 1)]
        bond_sum = sum(a * b for a, b in zip(spins, spins[1:]))
        assert bonds[bits] == bond_sum
        assert weights[bits] == pytest.approx(math.exp(-J * bond_sum) / Z, rel=1e-13)
    for mask in range(1 << 3):
        w = FlipWord(mask)
        delta = spec.delta_table(w, depth)
        inv = spec.delta_inv_table(w, depth)
        for bits in range(1 << depth):
            g = GroupoidElement(Prefix(depth, bits), w)
            assert delta[bits] == pytest.approx(spec.delta(g), rel=1e-14)
            assert delta[bits] == pytest.approx(
                math.exp(-ising_energy_brute(J, g)), rel=1e-14
            )
            assert inv[bits] * delta[bits] == pytest.approx(1.0, rel=1e-14)


def test_algebra_report_same_from_cold_and_warm_cache(cold_tables):
    outputs = []
    for _ in range(2):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = cli.main(["algebra", "--trials", "50"])
        assert code == 0
        outputs.append(buf.getvalue())
    assert outputs[0] == outputs[1]
