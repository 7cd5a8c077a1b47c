"""Acceptance gate: every criterion at its stated scale and tolerance.

Each test is one criterion; the conftest hook prints a one-line PASS/FAIL
verdict per criterion after the run.  Scales (trial counts, horizons,
depths, time budgets) are part of the contract and are not reduced here.
"""

import math
import time
from fractions import Fraction

import numpy as np
import oracles
import pytest

from flipchain import (
    AlgebraElement,
    Bernoulli,
    Cochain,
    CylinderFunction,
    DegenerateSpectrum,
    DfsTable,
    FlipWord,
    IsingBoltzmann,
    NonCocyclePerturbation,
    attained_spectrum,
    axioms_report,
    canonical_weight,
    coboundary,
    cochain_delta,
    convolve,
    dfs_build,
    dfs_check,
    e,
    gns_deviations,
    hahn_norm,
    heisenberg_equivalence_check,
    integrate,
    involution,
    l2_norm,
    max_abs_diff,
    modular_spectrum_points,
    partition_report,
    random_algebra_element,
    random_cylinder,
    rng_for,
    translation_covariance_check,
)


def test_criterion_01_groupoid_axioms():
    """Exhaustive axiom pass at horizon 3: zero violations, under a second,
    by the package's broadcast sweep and by the scalar oracle alike."""
    for sweep in (axioms_report, oracles.axioms_report_scalar):
        report = sweep(3)
        assert report["violations"] == 0
        assert report["checks"] > 6000
        assert report["elapsed_seconds"] < 1.0


def test_criterion_02_measure_covariance():
    """Flip covariance of the weights: exact for rational parameters, 1e-12
    for floats, both measure families."""
    words = [FlipWord(m) for m in range(8)]
    for lam in (Fraction(1, 5), Fraction(3, 10), Fraction(1, 2)):
        spec = Bernoulli(lam)
        for w in words:
            rep = translation_covariance_check(spec, w, 5)
            assert rep["exact_zero"] is True
            assert rep["max_rel_deviation"] == 0.0
    for lam in (0.2, 0.3, 0.5):
        spec = Bernoulli(lam)
        worst = max(
            translation_covariance_check(spec, w, 5)["max_rel_deviation"]
            for w in words
        )
        assert worst < 1e-12
    for J in (0.5, 1.0):
        spec = IsingBoltzmann(J)
        worst = max(
            translation_covariance_check(spec, w, 6)["max_rel_deviation"]
            for w in words
        )
        assert worst < 1e-12


def test_criterion_03_modular_homomorphism():
    """Delta of a composition is the product of deltas: exhaustive over all
    word pairs at horizon 4, both measures, relative 1e-12."""
    depth = 5
    idx = np.arange(1 << depth)
    for spec in (Bernoulli(0.3), IsingBoltzmann(1.0)):
        worst = 0.0
        for mu in range(16):
            u = FlipWord(mu)
            du = spec.delta_table(u, depth)
            for mv in range(16):
                v = FlipWord(mv)
                dv = spec.delta_table(v, depth)
                duv = spec.delta_table(u ^ v, depth)
                product = du * dv[idx ^ mu]
                worst = max(worst, float(np.max(np.abs(duv - product) / duv)))
        assert worst < 1e-12
    # rational mode is identically equal
    spec = Bernoulli(Fraction(3, 10))
    for mu in range(16):
        u = FlipWord(mu)
        du = spec.delta_table(u, depth)
        for mv in range(16):
            v = FlipWord(mv)
            product = du * spec.delta_table(v, depth)[idx ^ mu]
            assert np.array_equal(spec.delta_table(u ^ v, depth), product)


def test_criterion_04_convolution_star_algebra():
    """1000 random triples: associativity and the adjoint antihomomorphism,
    deviations under 1e-12.

    The adjoint leg runs over product measures, where an absolute 1e-12 is a
    meaningful float64 bound.  Boltzmann weights at J = 1 scale values by up
    to e^10, pushing the same absolute tolerance below machine epsilon in
    relative terms; that spec's antihomomorphism is covered at relative
    tolerance in the algebra module tests instead.
    """
    specs = (Bernoulli(0.3), Bernoulli(0.5))
    worst_assoc = 0.0
    worst_star = 0.0
    for i in range(1000):
        rng = rng_for(100, i)
        F = random_algebra_element(rng, 5, horizon=5)
        G = random_algebra_element(rng, 5, horizon=5)
        H = random_algebra_element(rng, 5, horizon=5)
        worst_assoc = max(
            worst_assoc,
            max_abs_diff(convolve(convolve(F, G), H), convolve(F, convolve(G, H))),
        )
        spec = specs[i % 2]
        worst_star = max(
            worst_star,
            max_abs_diff(
                involution(convolve(F, G), spec),
                convolve(involution(G, spec), involution(F, spec)),
            ),
        )
    assert worst_assoc < 1e-12
    assert worst_star < 1e-12


def test_criterion_05_operator_bound():
    """1000 random samples: the action norm never exceeds the fibrewise L1
    bound beyond 1e-12 slack."""
    specs = (Bernoulli(0.3), IsingBoltzmann(1.0))
    violations = 0
    for i in range(1000):
        rng = rng_for(101, i)
        F = random_algebra_element(rng, 5, horizon=5)
        psi = random_algebra_element(rng, 5, 2, horizon=5)
        spec = specs[i % 2]
        gap = l2_norm(convolve(F, psi), spec) - hahn_norm(F, spec) * l2_norm(psi, spec)
        if gap > 1e-12:
            violations += 1
    assert violations == 0


def test_criterion_06_matrix_state_agreement():
    """Product-state expectations agree between the dense matrix side and
    the cyclic-vector weight: n = 6, 100 random draws per lambda, 1e-10,
    inside ten seconds."""
    t0 = time.perf_counter()
    for lam in (0.5, 0.3):
        spec = Bernoulli(lam)
        rngs = [rng_for(11, i) for i in range(100)]
        assert all(dev < 1e-10 for dev in gns_deviations(rngs, 6, spec))
    assert time.perf_counter() - t0 < 10.0


def test_criterion_07_traceality_dichotomy():
    """The canonical weight is a trace at lambda = 1/2 (1000 random pairs)
    and visibly fails to be one otherwise: the single-flip witness violation
    reaches the integral-oracle floor |int delta - int delta_inv|."""
    spec_half = Bernoulli(0.5)
    worst = 0.0
    for i in range(1000):
        rng = rng_for(102, i)
        F = random_algebra_element(rng, 4, horizon=4)
        G = random_algebra_element(rng, 4, horizon=4)
        dev = abs(
            complex(canonical_weight(convolve(F, G), spec_half))
            - complex(canonical_weight(convolve(G, F), spec_half))
        )
        worst = max(worst, dev)
    assert worst < 1e-12

    spec = Bernoulli(0.3)
    W = AlgebraElement({e(1): CylinderFunction.constant(1.0, 1)})
    adj = involution(W, spec)
    forward = float(canonical_weight(convolve(W, adj), spec))
    backward = float(canonical_weight(convolve(adj, W), spec))
    violation = abs(forward - backward)
    floor = abs(
        float(integrate(spec, CylinderFunction(1, spec.delta_table(e(1), 1))))
        - float(integrate(spec, CylinderFunction(1, spec.delta_inv_table(e(1), 1))))
    )
    assert floor > 0.5  # the asymmetry is macroscopic, not rounding
    assert violation >= floor - 1e-12
    # exact arithmetic pins both sides of the dichotomy
    spec_q = Bernoulli(Fraction(3, 10))
    Wq = AlgebraElement({e(1): CylinderFunction.constant(Fraction(1), 1)})
    adj_q = involution(Wq, spec_q)
    assert canonical_weight(convolve(Wq, adj_q), spec_q) == Fraction(37, 21)
    assert canonical_weight(convolve(adj_q, Wq), spec_q) == 1


def test_criterion_08_additive_chain_construction():
    """Random-seed table building up to horizon 4 at depth 6 passes the
    exhaustive chain check below 1e-12, and the differential of a
    differential vanishes on random 0-cochains."""
    for n, depth, master in ((2, 4, 103), (3, 5, 104), (4, 6, 105)):
        seeds = [
            random_cylinder(rng_for(master, k), depth, complex_values=False)
            for k in range(n)
        ]
        S = dfs_build(n, seeds, depth)
        rep = dfs_check(S)
        assert rep["passed"]
        assert rep["max_violation"] < 1e-12
    for i in range(20):
        rng = rng_for(106, i)
        H = Cochain(0, 3, 5, rng.standard_normal(32))
        assert cochain_delta(coboundary(H)).max_abs() < 1e-12
    # integer cochains vanish identically
    rng = rng_for(107, 0)
    Hz = Cochain(0, 3, 5, rng.integers(-9, 10, size=32).astype(np.int64))
    assert cochain_delta(coboundary(Hz)).max_abs() == 0.0


def test_criterion_09_chain_energy_tables():
    """Bond-energy tables satisfy the chain identities with violation
    exactly zero in integer arithmetic (float twin under 1e-13), and the
    interior/boundary flip energies match the brute-force route up to
    depth 8."""
    coeffs = oracles.ising_dfs_coefficients(4, 6)
    rep = dfs_check(coeffs)
    assert rep["exact_zero"] is True
    assert rep["max_violation"] == 0.0
    rep_f = dfs_check(DfsTable.of_rows(0.8 * coeffs.values))
    assert rep_f["max_violation"] < 1e-13

    J = 1.0
    spec = IsingBoltzmann(J)
    for D in range(2, 9):
        # S(x, w) at the all-zeros prefix x = 0
        assert spec.energy_table(e(1), D)[0] == 2 * J
        for j in range(2, D):
            assert spec.energy_table(e(j), D)[0] == 4 * J
            assert oracles.ising_energy(J, 0, e(j).mask, D) == pytest.approx(4 * J, abs=1e-12)
        assert oracles.ising_energy(J, 0, e(1).mask, D) == pytest.approx(2 * J, abs=1e-12)
        # random prefixes and words against the brute oracle
        for i in range(50):
            rng = rng_for(108, 100 * D + i)
            x = int(rng.integers(0, 1 << D))
            w = int(rng.integers(0, 1 << (D - 1)))
            assert spec.energy_table(FlipWord(w), D)[x] == pytest.approx(
                oracles.ising_energy(J, x, w, D), abs=1e-12
            )


def test_criterion_10_partition_function():
    """Brute force equals the transfer recursion to 1e-12 for n up to 12;
    the quoted closed form is reported verbatim and flagged; the ratio
    identity holds to 1e-12."""
    for J in (0.5, 1.0):
        for n in range(1, 13):
            rep = partition_report(J, n)
            assert rep["rel_dev_brute_recursion"] < 1e-12
            assert rep["ratio_identity_max_rel_dev"] < 1e-12
            assert rep["closed_form"] == (2.0 * math.cosh(J)) ** n
            assert rep["discrepancy_flag"] is True


def test_criterion_11_phase_flow_equivalence():
    """The cocycle phase flow equals Heisenberg conjugation to 1e-12 at
    t in {0.37, 1, pi} with J = 1, preserves norms to 1e-12, and the
    non-cocycle control deviates by more than 1e-3."""
    times = (0.37, 1.0, math.pi)
    spec = IsingBoltzmann(1.0)
    broken = NonCocyclePerturbation(spec)
    one = AlgebraElement({e(1): CylinderFunction.constant(1.0, 1)})
    worst = 0.0
    norm_drift = 0.0
    control_min = math.inf
    for i, t in enumerate(times):
        rng = rng_for(109, i)
        F = random_algebra_element(rng, 5, horizon=4)
        psi = random_algebra_element(rng, 5, 2, horizon=4)
        rep = heisenberg_equivalence_check(F, psi, t, spec)
        worst = max(worst, rep["max_deviation"])
        norm_drift = max(
            norm_drift,
            abs(rep["norms_before"]["l2"] - rep["norms_after"]["l2"]),
            abs(rep["norms_before"]["hahn"] - rep["norms_after"]["hahn"]),
        )
        control = heisenberg_equivalence_check(F + one, psi + one, t, spec, energy=broken)
        control_min = min(control_min, control["max_deviation"])
    assert worst < 1e-12
    assert norm_drift < 1e-12
    assert control_min > 1e-3


def test_criterion_12_modular_spectrum_lattice():
    """Attained modular values at horizons up to 6 fill the integer lattice
    window exactly; the symmetric point degenerates to {0}."""
    step = math.log((1 - 0.3) / 0.3)
    for horizon in range(1, 7):
        rep = attained_spectrum(0.3, horizon)
        assert rep["matches_window"] is True
        assert rep["attained_k"] == list(range(-horizon, horizon + 1))
        points = modular_spectrum_points(0.3, horizon)
        assert points == {k * rep["step"] for k in rep["attained_k"]}
        assert rep["step"] == step
    # rational parameters keep the lattice indices exact integers
    rep_q = attained_spectrum(Fraction(3, 10), 6)
    assert rep_q["attained_k"] == list(range(-6, 7))
    with pytest.raises(DegenerateSpectrum):
        modular_spectrum_points(0.5, 6)
