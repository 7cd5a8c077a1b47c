import contextlib
import io
import json
import math
from fractions import Fraction

import numpy as np
import pytest

from flipchain import (
    DEPTH_CAP,
    EMPTY_WORD,
    Bernoulli,
    CylinderFunction,
    DepthTooSmall,
    FlipWord,
    HorizonOverflow,
    InvalidSpec,
    IsingBoltzmann,
    e,
    integrate,
    ising_bond_coefficients,
    ising_energy_table,
    parse_lambda,
    partition_function,
    partition_function_brute,
    partition_report,
    pushforward_projection_check,
    translation_covariance_check,
)
from flipchain import cli, measures
from oracles import (
    bernoulli_delta,
    bernoulli_delta_inv_table,
    bernoulli_weight,
    bond_sums,
    ising_delta_inv_table,
    ising_energy,
    lattice_table,
)

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


def test_cylinder_eval_uses_low_bits():
    f = CylinderFunction(1, np.array([3.0, 7.0]))
    assert f.lift(3).values[0b110] == 3.0
    assert f.lift(3).values[0b111] == 7.0


def test_cylinder_shape_guard():
    with pytest.raises(ValueError):
        CylinderFunction(2, np.zeros(3))


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
    assert bernoulli_weight(LAM, 0, 1) == spec.weight_table(1)[0] == LAM
    assert bernoulli_weight(LAM, 1, 1) == spec.weight_table(1)[1] == 1 - LAM
    assert bernoulli_weight(LAM, 0b01, 2) == (1 - LAM) * LAM
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
    assert bernoulli_delta(LAM, 1, e(1).mask) == spec.delta_table(e(1), 1)[1] == Fraction(7, 3)
    assert spec.delta_table(e(1), 1)[0] == Fraction(3, 7)
    assert Bernoulli(0.3).delta_table(e(1), 1)[1] == pytest.approx(7 / 3, rel=1e-15)


def test_bernoulli_delta_tables_match_pointwise():
    spec = Bernoulli(LAM)
    w = FlipWord.from_sites([1, 3])
    table = spec.delta_table(w, 3)
    inv = spec.delta_inv_table(w, 3)
    for bits in range(8):
        assert table[bits] == bernoulli_delta(LAM, bits, w.mask)
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


def test_ising_bond_coefficients_equal_the_bond_loop():
    for depth in range(17):
        table = ising_bond_coefficients(depth)
        assert table.dtype == np.int64
        assert np.array_equal(table, bond_sums(depth))


def test_lattice_table_equals_the_site_loop():
    spec = Bernoulli(0.3)
    for depth in range(13):
        for mask in range(1 << depth):
            table = spec.lattice_table(FlipWord(mask), depth)
            assert table.dtype == np.int64
            assert np.array_equal(table, lattice_table(FlipWord(mask), depth))


def test_ising_energy_coefficient_values():
    # flipping an interior site of the all-aligned prefix breaks two bonds
    x = 0  # the all-zeros prefix at depth 4
    assert ising_energy_table(e(2), 4)[x] == 4
    assert ising_energy_table(e(3), 4)[x] == 4
    # the first site has a single bond
    assert ising_energy_table(e(1), 4)[x] == 2
    assert ising_energy_table(FlipWord(0), 4)[x] == 0
    with pytest.raises(DepthTooSmall):
        ising_energy_table(e(2), 2)


def test_ising_delta_consistent():
    spec = IsingBoltzmann(0.7)
    w = FlipWord.from_sites([2])
    table = spec.delta_table(w, 4)
    for bits in range(16):
        assert table[bits] == pytest.approx(
            math.exp(-ising_energy(0.7, bits, w.mask, 4)), rel=1e-15)
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


def test_worst_by_check_nan_first_witness_and_zero():
    rows = [
        ("a", {"zero": 0.0, "tie": 1.0, "nan": 2.0}),
        ("b", {"zero": 0.0, "tie": 1.0, "nan": math.nan}),
        ("c", {"zero": 0.0, "tie": 0.5, "nan": 3.0}),
    ]
    worst, witness = measures.worst_by_check(rows)
    assert list(worst) == ["zero", "tie", "nan"]
    assert worst["zero"] == 0.0 and worst["tie"] == 1.0
    assert math.isnan(worst["nan"])
    # ties keep the first row; a worst still at 0.0 has no witness
    assert witness == {"tie": "a", "nan": "b"}


def test_parse_lambda():
    assert parse_lambda("3/10") == Fraction(3, 10)
    assert parse_lambda("0.3") == Fraction(3, 10)
    assert parse_lambda(0.3) == 0.3
    assert isinstance(parse_lambda(0.3), float)
    with pytest.raises(InvalidSpec):
        parse_lambda([1, 2])


def test_modular_delta_dispatch():
    # every measure answers the same table call
    assert Bernoulli(LAM).delta_table(e(1), 2)[0b01] == Fraction(7, 3)
    assert IsingBoltzmann(1.0).delta_table(e(1), 2)[0b01] > 0


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
        want = bernoulli_weight(lam, bits, depth)
        if spec.exact:
            assert weights[bits] == want
        else:
            assert weights[bits] == pytest.approx(want, rel=1e-14)
    for mask in range(1 << 3):
        w = FlipWord(mask)
        delta = spec.delta_table(w, depth)
        inv = spec.delta_inv_table(w, depth)
        for bits in range(1 << depth):
            want = bernoulli_delta(lam, bits, mask)
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
        spins = [1 - 2 * (bits >> (k - 1) & 1) for k in range(1, depth + 1)]
        bond_sum = sum(a * b for a, b in zip(spins, spins[1:]))
        assert bonds[bits] == bond_sum
        assert weights[bits] == pytest.approx(math.exp(-J * bond_sum) / Z, rel=1e-13)
    for mask in range(1 << 3):
        w = FlipWord(mask)
        delta = spec.delta_table(w, depth)
        inv = spec.delta_inv_table(w, depth)
        for bits in range(1 << depth):
            assert delta[bits] == pytest.approx(
                math.exp(-ising_energy(J, bits, mask, depth)), rel=1e-14
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


MAX_ABS_CASES = {
    "float with a NaN": np.array([1.0, -3.5, np.nan, 2.0]),
    "float": np.array([1.0, -3.5, 2.0]),
    "int64": np.array([4, -7, 2], dtype=np.int64),
    "all -0.0": np.array([-0.0, -0.0]),
    "complex": np.array([3 + 4j, -1j, 2.0]),
}


@pytest.mark.parametrize("arr", MAX_ABS_CASES.values(), ids=MAX_ABS_CASES)
def test_max_abs_equals_max_of_abs(monkeypatch, arr):
    want = float(np.max(np.abs(arr)))
    if not np.iscomplexobj(arr):
        # a real input is folded from its extremes, never copied as |arr|
        monkeypatch.setattr(np, "abs", lambda *a, **k: pytest.fail("np.abs called"))
    assert repr(measures._max_abs(arr)) == repr(want)  # NaN is NaN, 0.0 is not -0.0


MAX_ABS_TABLES = {
    "NaN": np.array([[1.0, np.nan, -2.0], [-3.0, 0.5, 2.0]]),
    "inf and -inf": np.array([[1.0, -np.inf, 2.0], [np.inf, 0.0, -1.0], [np.nan, np.inf, 1.0]]),
    "-0.0": np.array([[-0.0, -0.0], [0.0, -0.0], [-1.0, -0.0]]),
    "no entries": np.zeros((3, 0)),
    "no rows": np.zeros((0, 4)),
    "int64": np.array([[4, -7, 2], [0, 0, 0]], dtype=np.int64),
    "complex": np.array([[3 + 4j, -1j], [complex(np.nan, 1.0), 2.0], [-0.0, -0.0j]]),
    "object Fractions": np.array([[Fraction(1, 3), Fraction(-5, 2)], [Fraction(0), Fraction(-7)]],
                                 dtype=object),
    "object complex": np.array([[3 + 4j, -1.0], [complex(0, -2), 1j]], dtype=object),
}


@pytest.mark.parametrize("rows", MAX_ABS_TABLES.values(), ids=MAX_ABS_TABLES)
def test_max_abs_of_rows_and_of_whole_tables_equals_max_of_abs(monkeypatch, rows):
    want = [repr(float(np.max(np.abs(row), initial=0.0))) for row in rows]
    whole = repr(float(np.max(np.abs(rows), initial=0.0)))
    if rows.dtype != object and not np.iscomplexobj(rows):
        # real rows are folded from their extremes, never copied as |rows|
        monkeypatch.setattr(np, "abs", lambda *a, **k: pytest.fail("np.abs called"))
    got = measures._max_abs_rows(rows)
    assert got.dtype == np.float64
    assert [repr(v) for v in got.tolist()] == want  # NaN is NaN, 0.0 is not -0.0
    assert repr(measures._max_abs(rows)) == whole


@pytest.mark.parametrize("spec", [Bernoulli(lam) for lam in (1e-300, 0.1, 0.3, 0.5, 0.9)]
                         + [IsingBoltzmann(J) for J in (-0.7, 0, 1, 2)], ids=repr)
def test_depth_zero_weight_table_is_exactly_one(spec):
    table = spec.weight_table(0)
    assert table.dtype == np.float64
    assert table.tobytes() == np.ones(1).tobytes()
    if isinstance(spec, Bernoulli):  # the first site's weights, unrounded
        assert spec.weight_table(1).tolist() == [spec.lam, 1.0 - spec.lam]
    with pytest.raises(HorizonOverflow):
        spec.weight_table(DEPTH_CAP + 1)


def _same_bits(got, want) -> bool:
    if got.dtype != want.dtype or got.shape != want.shape:
        return False
    if got.dtype == object:  # exact rationals: equal values are equal numbers
        return got.tolist() == want.tolist()
    return got.tobytes() == want.tobytes()


@pytest.mark.parametrize("spec", [
    Bernoulli(0.3), Bernoulli(0.1), Bernoulli(0.7), Bernoulli(LAM),
    IsingBoltzmann(1.0), IsingBoltzmann(2), IsingBoltzmann(-0.7), IsingBoltzmann(0.0),
    IsingBoltzmann(-0.0), IsingBoltzmann(1e-300),
    IsingBoltzmann(700.0),  # tables that overflow to inf and underflow to 0
], ids=repr)
def test_delta_inv_table_bits_equal_direct_build(spec):
    # the package reads the inverse table across the flip, delta(x ^ w, w)
    if isinstance(spec, Bernoulli):
        def oracle(w, d):
            return bernoulli_delta_inv_table(spec.lam, w, d)
    else:
        def oracle(w, d):
            return ising_delta_inv_table(spec.J, w, d)
    with np.errstate(over="ignore"):
        for depth in range(11):
            for mask in range(1 << min(depth, 5)):
                w = FlipWord(mask)
                if depth >= spec.min_delta_depth(w):
                    assert _same_bits(spec.delta_inv_table(w, depth), oracle(w, depth)), (w, depth)


EXACT_LAMS = [Fraction(3, 10), Fraction(1, 5), Fraction(9, 25), Fraction(1, 2)]


def _assert_exact_table(table, nums, den, want):
    """Every entry is a Fraction equal to its oracle value and to its
    integer numerator over the table's one denominator."""
    assert all(type(v) is Fraction for v in table.tolist())
    assert table.tolist() == want
    assert all(type(n) is int for n in nums.tolist()) and type(den) is int
    assert [Fraction(n, den) for n in nums.tolist()] == want


@pytest.mark.parametrize("lam", EXACT_LAMS, ids=str)
def test_exact_integer_form_matches_fraction_oracles(lam):
    spec = Bernoulli(lam)
    for depth in range(11):
        size = 1 << depth
        nums, den = measures._numerators(spec, depth)
        want = [bernoulli_weight(lam, x, depth) for x in range(size)]
        _assert_exact_table(spec.weight_table(depth), nums, den, want)
        if depth <= 6:
            masks = range(size)
        else:  # the words of horizon <= 3 and the all-sites word
            masks = [*range(8), size - 1] if depth == 10 else []
        for mask in masks:
            w = FlipWord(mask)
            nums, den = measures._numerators(spec, depth, w)
            want = [bernoulli_delta(lam, x, mask) for x in range(size)]
            _assert_exact_table(spec.delta_table(w, depth), nums, den, want)
            # the checks read delta**-1 as the numerators across the flip
            _assert_exact_table(spec.delta_inv_table(w, depth), nums[np.arange(size) ^ mask],
                                den, bernoulli_delta_inv_table(lam, w, depth).tolist())


def _perturb_ints(monkeypatch, hit):
    """Add 1 to the first numerator of every exact table for which hit(depth, word) holds."""
    ints = Bernoulli._ints

    def perturbed(self, depth, word=None):
        row, den, counts = ints(self, depth, word)
        return ([row[0] + 1] + row[1:] if hit(depth, word) else row), den, counts

    monkeypatch.setattr(Bernoulli, "_ints", perturbed)


def test_perturbed_delta_numerator_fails_covariance(monkeypatch, cold_tables):
    target = FlipWord.from_sites([1, 3])
    _perturb_ints(monkeypatch, lambda depth, word: word == target)
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(["haar", "--lambda", "3/10", "--n", "3", "--depth", "5"])
    doc = json.loads(buf.getvalue())
    assert code == 1
    assert doc["failure"] == {"invariant": "measure covariance", "witness": {"word": [1, 3]}}
    # the Fraction route over the same perturbed table
    spec = Bernoulli(LAM)
    weights = spec.weight_table(5).tolist()
    inverse = spec.delta_inv_table(target, 5).tolist()
    want = max(abs(weights[x ^ target.mask] - inverse[x] * weights[x]) / (inverse[x] * weights[x])
               for x in range(32))
    assert want > 0
    assert doc["report"]["max_rel_deviation"] == float(want)
    rows = {tuple(row["word"]): row for row in doc["report"]["covariance"]}
    assert rows[(1, 3)]["exact_zero"] is False
    assert all(row["exact_zero"] for word, row in rows.items() if word != (1, 3))


def test_perturbed_weight_numerator_fails_projection(monkeypatch, cold_tables):
    _perturb_ints(monkeypatch, lambda depth, word: word is None and depth == 5)
    rep = pushforward_projection_check(Bernoulli(LAM), 5, 2)
    assert rep["exact_zero"] is False
    # one fine cylinder gained 1 / q**5, and so did the coarse one above it
    assert rep["max_abs_deviation"] == float(Fraction(1, 10 ** 5))
    assert pushforward_projection_check(Bernoulli(LAM), 4, 2)["exact_zero"] is True
