import math
from fractions import Fraction

import numpy as np
import pytest

from flipchain import (
    AlgebraElement,
    Bernoulli,
    CylinderFunction,
    DegenerateSpectrum,
    DepthTooSmall,
    DfsTable,
    InvalidSpec,
    IsingBoltzmann,
    NonCocyclePerturbation,
    attained_spectrum,
    dfs_check,
    e,
    heisenberg_equivalence_check,
    ising_energy_table,
    is_exact,
    l2_norm,
    max_abs_diff,
    modular_operator_pow,
    modular_spectrum_points,
    random_algebra_element,
    rng_for,
    tt_evolve,
    word_from_sites,
)
import oracles
from oracles import bernoulli_delta, ising_dfs_coefficients, ising_energy


def energy(spec, x, w, depth):
    """The transition energy S(x, w) = -log delta(x, w), read from the
    measure's depth-`depth` table."""
    return spec.energy_table(w, depth)[x]


def test_transition_energy_values():
    x = 0  # the all-zeros prefix at depth 4
    E = IsingBoltzmann(0.7)
    assert energy(E, x, e(2), 4) == pytest.approx(4 * 0.7)
    assert energy(E, x, e(1), 4) == pytest.approx(2 * 0.7)
    assert energy(IsingBoltzmann(2.0), x, e(3), 4) == 8.0
    with pytest.raises(InvalidSpec):
        IsingBoltzmann(math.nan)


def test_transition_energy_tables():
    E = IsingBoltzmann(1.0)
    w = word_from_sites([2])
    coeffs = ising_energy_table(w, 4)
    assert coeffs.dtype == np.int64
    assert np.array_equal(E.energy_table(w, 4), coeffs.astype(float))
    with pytest.raises(DepthTooSmall):
        ising_energy_table(w, 2)


def test_energy_brute_force_agreement():
    # closed form vs the H_D difference route, exhaustive at small depth
    for D in range(2, 7):
        for w in range(1 << (D - 1)):
            for x in range(1 << D):
                closed = energy(IsingBoltzmann(1.0), x, w, D)
                assert ising_energy(1.0, x, w, D) == pytest.approx(closed, abs=1e-12)


def test_energy_matches_measure_delta():
    spec = IsingBoltzmann(0.8)
    E = IsingBoltzmann(0.8)
    w = word_from_sites([1, 3])
    for x in range(16):
        delta = spec.delta_table(w, 4)[x]
        assert delta == pytest.approx(math.exp(-energy(E, x, w, 4)), rel=1e-14)


def test_modular_hamiltonian_lattice():
    ham = Bernoulli(0.3)
    assert ham.step == pytest.approx(math.log(7 / 3), rel=1e-15)
    x, w = 0b11, word_from_sites([1, 2])
    assert ham.lattice_table(w, 2)[x] == 2
    assert energy(ham, x, w, 2) == pytest.approx(-2 * ham.step)
    table = ham.lattice_table(word_from_sites([1, 2]), 2)
    assert list(table) == [-2, 0, 0, 2]
    with pytest.raises(DepthTooSmall):
        ham.lattice_table(e(3), 2)
    with pytest.raises(InvalidSpec):
        Bernoulli(1.2)


def test_modular_hamiltonian_is_log_delta():
    ham = Bernoulli(0.3)
    w = word_from_sites([1, 3])
    for x in range(8):
        assert bernoulli_delta(0.3, x, w) == pytest.approx(math.exp(-energy(ham, x, w, 3)),
                                                           rel=1e-13)


def test_ising_dfs_tables_exact():
    S = ising_dfs_coefficients(3, 5)
    rep = dfs_check(S)
    assert rep["exact_zero"] is True and rep["max_violation"] == 0.0
    with pytest.raises(DepthTooSmall):
        ising_dfs_coefficients(3, 3)
    T = DfsTable.of_rows(0.5 * ising_dfs_coefficients(2, 4).values)
    rep_f = dfs_check(T)
    assert rep_f["passed"] and rep_f["max_violation"] < 1e-13
    assert np.array_equal(T.entries[e(1)].values, 0.5 * S.entries[e(1)].values[:16])


def test_ising_table_is_coboundary_at_truncation():
    S = ising_dfs_coefficients(2, 4)
    H = is_exact(S)
    assert H is not None


def test_spectrum_points():
    step = math.log(7 / 3)
    pts = modular_spectrum_points(0.3, 2)
    assert pts == {k * step for k in (-2, -1, 0, 1, 2)}
    with pytest.raises(DegenerateSpectrum):
        modular_spectrum_points(0.5, 3)
    with pytest.raises(InvalidSpec):
        modular_spectrum_points(0.7, 3)
    with pytest.raises(InvalidSpec):
        modular_spectrum_points(0.0, 3)


def test_attained_spectrum_window():
    for horizon in (1, 2, 3, 4):
        rep = attained_spectrum(0.3, horizon)
        assert rep["matches_window"] is True and rep["mismatched"] == 0
        assert rep["attained_k"] == list(range(-horizon, horizon + 1))


def test_attained_spectrum_counts_the_points_off_the_window(monkeypatch):
    # every index read as 0 (attained {0}) and as 1 (attained {1}) misses
    # 2 * horizon window points; an index of horizon + 1 adds one outside it
    for k, mismatched in ((0, 6), (1, 6), (4, 8)):
        monkeypatch.setattr(Bernoulli, "lattice_table",
                            lambda self, word, depth, k=k: np.full(1 << depth, k))
        rep = attained_spectrum(0.3, 3)
        assert rep["attained_k"] == [k]
        assert rep["mismatched"] == mismatched and rep["matches_window"] is False


def _window_report(rep: dict) -> dict:
    return {key: rep[key] for key in ("attained_k", "matches_window", "mismatched")}


@pytest.mark.parametrize("lam", [0.3, Fraction(1, 10)])
def test_attained_spectrum_matches_its_oracle(lam):
    for horizon in range(10):
        assert _window_report(attained_spectrum(lam, horizon)) == \
            oracles.attained_spectrum(lam, horizon)


def test_attained_spectrum_matches_its_oracle_on_wrong_tables(monkeypatch):
    # constant tables inside and outside the window, and a table that spreads
    # its words over indices on both sides of it
    tables = [lambda self, word, depth, k=k: np.full(1 << depth, k) for k in (0, 1, 4, -5)]
    tables.append(lambda self, word, depth: np.arange(1 << depth) - word)
    for table in tables:
        monkeypatch.setattr(Bernoulli, "lattice_table", table)
        for horizon in (0, 1, 3, 5):
            assert _window_report(attained_spectrum(0.3, horizon)) == \
                oracles.attained_spectrum(0.3, horizon)


def test_tt_evolve_basics():
    spec = IsingBoltzmann(1.0)
    rng = rng_for(51, 0)
    F = random_algebra_element(rng, 5, horizon=4)
    assert max_abs_diff(tt_evolve(F, 0.0, spec), F) < 1e-15
    # phases have modulus one, so the flow is isometric
    assert abs(l2_norm(tt_evolve(F, 0.9, spec), spec) - l2_norm(F, spec)) < 1e-12
    # group law in t
    twice = tt_evolve(tt_evolve(F, 0.4, spec), 0.5, spec)
    assert max_abs_diff(twice, tt_evolve(F, 0.9, spec)) < 1e-12


def test_heisenberg_equivalence_ising():
    rng = rng_for(52, 0)
    F = random_algebra_element(rng, 5, horizon=4)
    psi = random_algebra_element(rng, 5, 2, horizon=4)
    rep = heisenberg_equivalence_check(F, psi, 0.37, IsingBoltzmann(1.0))
    assert rep["max_deviation"] < 1e-12
    assert abs(rep["norms_before"]["l2"] - rep["norms_after"]["l2"]) < 1e-12
    assert abs(rep["norms_before"]["hahn"] - rep["norms_after"]["hahn"]) < 1e-12
    assert rep["J"] == 1.0 and rep["lambda"] is None


def test_heisenberg_equivalence_bernoulli_side():
    # the log-modular lattice energy is additive too, so the same identity holds
    rng = rng_for(53, 0)
    F = random_algebra_element(rng, 4, horizon=3)
    psi = random_algebra_element(rng, 4, 2, horizon=3)
    rep = heisenberg_equivalence_check(F, psi, 1.3, Bernoulli(0.3))
    assert rep["max_deviation"] < 1e-12
    assert rep["lambda"] == 0.3 and rep["J"] is None


def pinned_pair():
    one = AlgebraElement({e(1): CylinderFunction.constant(1.0, 1)})
    rng = rng_for(54, 0)
    F = random_algebra_element(rng, 4, horizon=3) + one
    psi = random_algebra_element(rng, 4, 2, horizon=3) + one
    return F, psi


def test_non_cocycle_control_breaks_equivalence():
    spec = IsingBoltzmann(1.0)
    broken = NonCocyclePerturbation(spec)
    F, psi = pinned_pair()
    for t in (0.37, 1.0, math.pi):
        rep = heisenberg_equivalence_check(F, psi, t, spec, energy=broken)
        assert rep["max_deviation"] > 1e-3


def test_non_cocycle_amplitude_resonance():
    # with amplitude 1 the identity defect is +-2, which e^{i . t} cannot see
    # at t = pi; the default amplitude 1/2 avoids exactly this
    spec = IsingBoltzmann(1.0)
    F, psi = pinned_pair()
    resonant = NonCocyclePerturbation(spec, amplitude=1.0)
    rep = heisenberg_equivalence_check(F, psi, math.pi, spec, energy=resonant)
    assert rep["max_deviation"] < 1e-9
    half = NonCocyclePerturbation(spec, amplitude=0.5)
    rep_half = heisenberg_equivalence_check(F, psi, math.pi, spec, energy=half)
    assert rep_half["max_deviation"] > 1e-3


def test_non_cocycle_plumbing():
    base = IsingBoltzmann(0.6)
    broken = NonCocyclePerturbation(base)
    assert broken.base.J == 0.6
    assert broken.min_delta_depth(e(1)) == 2
    w = word_from_sites([1, 2])
    diff = broken.energy_table(w, 3) - base.energy_table(w, 3)
    psi2 = CylinderFunction.psi(2, 3).values
    assert np.array_equal(diff, 0.5 * psi2)
    # words avoiding site 1 are untouched
    assert np.array_equal(broken.energy_table(e(2), 3), base.energy_table(e(2), 3))


CONVENTION_SPECS = {
    "Bernoulli 0.3": Bernoulli(0.3),
    "Bernoulli 3/10": Bernoulli(Fraction(3, 10)),
    "Ising J=1": IsingBoltzmann(1.0),
    "Ising J=2": IsingBoltzmann(2.0),
}


@pytest.mark.parametrize("spec", CONVENTION_SPECS.values(), ids=CONVENTION_SPECS)
def test_energy_is_minus_log_delta(spec):
    # one convention for both measures: delta = e^{-S}
    depth = 5
    for w in range(1 << 4):
        delta = np.asarray(spec.delta_table(w, depth), dtype=np.float64)
        S = spec.energy_table(w, depth)
        assert np.allclose(np.exp(-S), delta, rtol=1e-13, atol=0.0)


@pytest.mark.parametrize("spec", CONVENTION_SPECS.values(), ids=CONVENTION_SPECS)
def test_flow_at_i_is_the_modular_operator(spec):
    G = random_algebra_element(rng_for(55, 0), 6, horizon=4)
    flowed = tt_evolve(G, 1j, spec)
    delta_G = modular_operator_pow(G, 1, spec)
    scale = max(abs(complex(v)) for f in delta_G.terms.values() for v in f.values)
    assert max_abs_diff(flowed, delta_G) <= 1e-13 * scale
