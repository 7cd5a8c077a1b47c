from fractions import Fraction
from itertools import product

import numpy as np
import pytest

from flipchain import (
    Cochain,
    CylinderFunction,
    DepthTooSmall,
    DfsTable,
    EMPTY_WORD,
    FlipWord,
    InvariantViolation,
    OrderUnsupported,
    coboundary,
    cochain_delta,
    dfs_build,
    dfs_check,
    dfs_seed_extend,
    dfs_to_cochain,
    dfs_to_json,
    e,
    is_exact,
    random_cylinder,
    rng_for,
)
from flipchain.measures import _worse


def build_random(n, depth, master=31, exact=False):
    seeds = []
    for k in range(n):
        rng = rng_for(master, k)
        if exact:
            vals = rng.integers(-5, 6, size=1 << depth).astype(np.int64)
            seeds.append(CylinderFunction(depth, vals))
        else:
            seeds.append(random_cylinder(rng, depth, complex_values=False))
    return dfs_build(n, seeds, depth)


def test_table_fills_missing_words():
    S = DfsTable(1, {e(1): CylinderFunction(1, np.array([1.0, -1.0]))})
    assert set(S.entries) == {EMPTY_WORD, e(1)}
    assert list(S.entries[EMPTY_WORD].values) == [0.0, 0.0]
    assert S.values[e(1).mask][0b1] == -1.0


def _holding_all(dtypes):
    """Object if any row holds objects, else the common numeric type: the
    rule a table's dtype follows, not leaning on np.result_type for objects."""
    return object if any(t == object for t in dtypes) else np.result_type(*dtypes)


@pytest.mark.parametrize("mix", [
    (), (np.int64,), (np.float64,), (np.complex128,), (object,), (np.int64, np.float64),
    (np.int32, np.float32), (np.int64, np.complex128), (np.float64, object),
    (np.int64, object, np.complex128), (object, object, np.float64, np.int64),
], ids=lambda mix: "+".join(np.dtype(t).name for t in mix) or "no rows")
def test_table_dtype_holds_every_row(mix):
    def row(dtype):
        if dtype is object:
            return np.array([Fraction(k, 3) for k in range(4)], dtype=object)
        return np.arange(4).astype(dtype)

    entries = {FlipWord(m): CylinderFunction(2, row(t)) for m, t in enumerate(mix)}
    want = _holding_all([np.dtype(t) for t in mix] or [np.float64])
    assert DfsTable(2, entries).values.dtype == want


def test_table_guards():
    with pytest.raises(InvariantViolation):
        DfsTable(1, {e(2): CylinderFunction(2, np.zeros(4))})
    with pytest.raises(DepthTooSmall):
        DfsTable(2, {}, 1)
    with pytest.raises(InvariantViolation):
        DfsTable(1, {}, 1) + DfsTable(2, {}, 2)


def test_extension_constant_seeds_oracle():
    # two constant seeds; every table entry is forced by the chain rules
    S = dfs_build(2, [CylinderFunction.constant(1.0), CylinderFunction.constant(2.0)], 2)
    assert list(S.entries[EMPTY_WORD].values) == [0.0, 0.0, 0.0, 0.0]
    assert list(S.entries[e(1)].values) == [1.0, -1.0, 1.0, -1.0]
    assert list(S.entries[e(2)].values) == [2.0, 2.0, -2.0, -2.0]
    assert list(S.entries[FlipWord.from_sites([1, 2])].values) == [3.0, 1.0, -1.0, -3.0]


def test_build_checks_pass():
    S = build_random(3, 5)
    rep = dfs_check(S)
    assert rep["passed"] and rep["max_violation"] < 1e-12
    assert rep["n"] == 3 and rep["depth"] == 5
    assert not rep["exact_zero"]


def test_build_exact_integer_seeds():
    S = build_random(3, 4, exact=True)
    rep = dfs_check(S)
    assert rep["exact_zero"] is True
    assert rep["max_violation"] == 0.0
    assert S.exact


def _max_abs(x) -> float:
    """Largest |entry|, NaN if any entry is; not the package's kernel, which
    dfs_check reduces with."""
    return float(np.max(np.abs(x), initial=0.0))


def pair_loop_max_violation(S):
    """Independent oracle: the three identities one word, then one word pair, at a time."""
    idx = np.arange(1 << S.depth)
    T = {w.mask: f.values for w, f in S.entries.items()}
    worst = _max_abs(T[0])
    for m in T:
        worst = _worse(worst, _max_abs(T[m][idx ^ m] + T[m]))
    for mu in T:
        for mv in T:
            worst = _worse(worst, _max_abs(T[mu ^ mv] - (T[mu][idx ^ mv] + T[mv])))
            worst = _worse(worst, _max_abs(T[mu ^ mv] - (T[mu] + T[mv][idx ^ mu])))
    return worst


def test_check_matches_pair_loop_oracle():
    # depth 13 puts 4 rows in each block of the 16 words, so the blocks split
    S = build_random(4, 13, master=49)
    rows = S.values.copy()
    rows[5, 77] += 1e-3
    corrupted = DfsTable.of_rows(rows)
    rows = S.values.copy()
    rows[11, 4000] = np.nan
    with_nan = DfsTable.of_rows(rows)
    # exact tables, one corrupted entry each: int64, and Fractions (object)
    rows = build_random(4, 13, master=52, exact=True).values.copy()
    rows[6, 1234] += 3
    int_corrupted = DfsTable.of_rows(rows)
    exact = build_random(3, 5, master=53, exact=True).values
    rows = np.array([[Fraction(int(v), 7) for v in row] for row in exact], dtype=object)
    rows[3, 17] += Fraction(1, 3)
    fraction_corrupted = DfsTable.of_rows(rows)
    for T in (S, corrupted, with_nan, int_corrupted, fraction_corrupted):
        got = dfs_check(T)["max_violation"]
        want = pair_loop_max_violation(T)
        assert np.array_equal(got, want, equal_nan=True)
    assert 0 < dfs_check(S)["max_violation"] < 1e-12
    assert dfs_check(corrupted)["max_violation"] >= 1e-3
    assert np.isnan(dfs_check(with_nan)["max_violation"])
    assert dfs_check(int_corrupted)["max_violation"] == 3.0
    assert dfs_check(fraction_corrupted)["max_violation"] == 1 / 3
    assert int_corrupted.exact and fraction_corrupted.exact


def test_cochains_of_every_order_are_read_only():
    for order in range(3):
        raw = np.zeros((4,) * order + (8,))
        c = Cochain(order, 2, 3, raw)
        with pytest.raises(ValueError):
            c.values[(0,) * (order + 1)] = 1.0
        raw[(0,) * (order + 1)] = 1.0  # the caller's own array stays writable
    with pytest.raises(ValueError):
        cochain_delta(c).values[0, 0, 0, 0] = 1.0


def test_rows_are_read_only_and_shared_with_the_cochain():
    S = build_random(2, 4, master=50)
    with pytest.raises(ValueError):
        S.values[1, 0] = 1.0
    with pytest.raises(ValueError):
        S.entries[e(1)].values[0] = 1.0
    c = dfs_to_cochain(S)
    assert np.shares_memory(c.values, S.values)


def test_float_seeds_give_a_float_zero_row():
    S = build_random(3, 5, master=51)
    assert S.values.dtype == np.float64
    assert S.entries[EMPTY_WORD].values.dtype == np.float64
    assert not S.values[0].any()


def test_build_guards():
    with pytest.raises(InvariantViolation):
        dfs_build(2, [CylinderFunction.constant(1.0)], 3)
    with pytest.raises(DepthTooSmall):
        dfs_build(2, [CylinderFunction.constant(1.0)] * 2, 1)


def test_check_catches_corruption():
    S = build_random(2, 4)
    entries = dict(S.entries)
    bad = entries[e(1)].values.copy()
    bad[3] += 0.5
    entries[e(1)] = CylinderFunction(4, bad)
    rep = dfs_check(DfsTable(2, entries, 4))
    assert not rep["passed"]
    assert rep["max_violation"] >= 0.5


def test_extend_validates_input():
    S = build_random(2, 4)
    entries = dict(S.entries)
    entries[e(2)] = CylinderFunction(4, entries[e(2)].values + 1.0)
    broken = DfsTable(2, entries, 4)
    with pytest.raises(InvariantViolation):
        dfs_seed_extend(broken, CylinderFunction.constant(0.0, 4))


def test_scale_and_add_stay_cocycles():
    A = build_random(2, 4, master=41)
    B = build_random(2, 4, master=42)
    assert dfs_check(DfsTable.of_rows(2.5 * A.values) + B)["passed"]
    # a sum is still a table: it has entries and serializes
    T = DfsTable.of_rows(2.0 * A.values) + A
    assert set(T.entries) == set(A.entries)
    assert dfs_check(T)["passed"]
    assert dfs_to_json(T) == dfs_to_json(DfsTable.of_rows(T.values))


def test_cochain_shapes():
    with pytest.raises(InvariantViolation):
        Cochain(1, 2, 3, np.zeros((3, 8)))
    c = Cochain(0, 2, 3, np.zeros(8))
    assert c.order == 0 and c.depth == 3


def test_dfs_cochain_roundtrip():
    S = build_random(2, 4, master=43)
    assert dfs_to_cochain(S) is S


def test_coboundary_of_parity():
    H = Cochain(0, 1, 2, CylinderFunction.psi(1, 2).values)
    dH = coboundary(H)
    # flipping site 1 negates the parity: H(x ^ e1) - H(x) = -2 psi_1(x)
    assert list(dH.values[1]) == [-2.0, 2.0, -2.0, 2.0]
    assert list(dH.values[0]) == [0.0] * 4
    with pytest.raises(OrderUnsupported):
        coboundary(dH)


def product_loop_delta(c):
    """Independent oracle: the differential one argument tuple at a time."""
    k, gn = c.order, 1 << c.n
    idx = np.arange(1 << c.depth)
    out = np.zeros((gn,) * (k + 1) + (1 << c.depth,), dtype=c.values.dtype)
    for u in product(range(gn), repeat=k + 1):
        term = c.values[u[1:]][idx ^ u[0]]
        for i in range(1, k + 1):
            merged = u[:i - 1] + (u[i - 1] ^ u[i],) + u[i + 1:]
            term = term + (-1) ** i * c.values[merged[:k]]
        term = term + (-1) ** (k + 1) * c.values[u[:k]]
        out[u] = term
    return out


@pytest.mark.parametrize("kind", ["float with a NaN", "int64", "Fraction"])
@pytest.mark.parametrize("order", [0, 1, 2])
def test_delta_matches_product_loop_oracle(order, kind):
    rng = rng_for(55, order)
    shape = (4,) * order + (8,)
    if kind == "int64":
        vals = rng.integers(-9, 10, size=shape).astype(np.int64)
    elif kind == "Fraction":
        ints = rng.integers(-9, 10, size=shape)
        vals = np.vectorize(lambda v: Fraction(int(v), 7), otypes=[object])(ints)
    else:
        vals = rng.standard_normal(shape)
        vals[(1,) * order + (5,)] = np.nan
    c = Cochain(order, 2, 3, vals)
    got, want = cochain_delta(c).values, product_loop_delta(c)
    assert got.dtype == want.dtype == vals.dtype
    if kind == "Fraction":
        assert all(type(v) is Fraction for v in got.flat)
        assert got.tolist() == want.tolist()
    else:
        assert got.tobytes() == want.tobytes()
        assert np.isnan(got).any() == (kind != "int64")


def test_differential_squares_to_zero():
    rng = rng_for(44, 0)
    H = Cochain(0, 2, 4, rng.integers(-9, 10, size=16).astype(np.int64))
    dd = cochain_delta(cochain_delta(H))
    assert dd.order == 2
    assert dd.max_abs() == 0.0
    # and on order-1 cochains, including non-cocycles
    c1 = Cochain(1, 2, 4, rng.integers(-9, 10, size=(4, 16)).astype(np.int64))
    assert cochain_delta(cochain_delta(c1)).max_abs() == 0.0
    with pytest.raises(OrderUnsupported):
        cochain_delta(cochain_delta(cochain_delta(c1)))


def test_built_tables_are_cocycles():
    S = build_random(2, 4, master=45)
    assert cochain_delta(dfs_to_cochain(S)).max_abs() < 1e-12


def test_is_exact_reconstructs_gauge_potential():
    S = build_random(3, 5, master=46)
    H = is_exact(S)
    assert H is not None
    dev = coboundary(H) - dfs_to_cochain(S)
    assert dev.max_abs() < 1e-12


def test_is_exact_rejects_non_cocycle():
    S = build_random(2, 4, master=47)
    entries = dict(S.entries)
    entries[e(1)] = CylinderFunction(4, entries[e(1)].values + CylinderFunction.psi(2, 4).values)
    assert is_exact(DfsTable(2, entries, 4)) is None


def test_is_exact_exact_arithmetic():
    S = build_random(2, 4, master=48, exact=True)
    H = is_exact(S)
    assert H is not None
    assert (coboundary(H) - dfs_to_cochain(S)).max_abs() == 0.0
