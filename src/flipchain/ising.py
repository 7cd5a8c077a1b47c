"""Transition energies, modular Hamiltonians, and the induced dynamics.

The nearest-neighbor chain energy at depth D is H_D = -J * sum of bond
products.  The infinite-chain series diverges, but the energy *difference*
caused by flipping finitely many sites,

    S(x, w) = H(x ^ w) - H(x),

is a finite sum over the bonds touching a flipped site, does not depend on
the truncation once the depth clears the horizon by one, and satisfies the
additive cocycle identities of a DFS table.  The same role is played on the
Bernoulli side by the logarithm of the modular function, whose values lie on
the lattice log((1-lambda)/lambda) * Z.

Either energy generates a pointwise phase flow e^{i S t} which is unitary
for the corresponding measure, and the flow is equivalent to a Heisenberg
conjugation precisely because S is a cocycle; a deliberately broken
perturbation is provided to witness the necessity.
"""

from __future__ import annotations

import math

import numpy as np

from .algebra import AlgebraElement, convolve, hahn_norm, l2_norm, max_abs_diff
from .dfs import DfsTable
from .errors import DegenerateSpectrum, DepthTooSmall, InvalidSpec
from .groupoid import FlipWord, GroupoidElement
from .measures import Bernoulli, CylinderFunction, IsingBoltzmann, ising_energy_table


class TransitionEnergy:
    """Ising energy difference S(x, w) = H(x ^ w) - H(x), in closed form.

    Exposes per-word tables for the phase flow and single-transition values;
    the associated Boltzmann measure has modular function e^{-S}.
    """

    __slots__ = ("J",)

    def __init__(self, J: float):
        if not math.isfinite(float(J)):
            raise InvalidSpec(f"J must be finite, got {J}")
        self.J = float(J)

    def min_depth(self, word: FlipWord) -> int:
        return word.horizon + 1 if word else 0

    def value(self, g: GroupoidElement) -> float:
        return self.J * int(ising_energy_table(g.flips, g.point.depth)[g.point.bits])

    def table(self, word: FlipWord, depth: int) -> np.ndarray:
        return self.J * ising_energy_table(word, depth)

    def measure(self) -> IsingBoltzmann:
        return IsingBoltzmann(self.J)

    def __repr__(self):
        return f"TransitionEnergy(J={self.J})"


class ModularHamiltonian:
    """log of the Bernoulli modular function: step * sum_j (2 x_j - 1).

    The step is log((1-lambda)/lambda); the sum runs over flipped sites, so
    values sit on the integer lattice scaled by the step.
    """

    __slots__ = ("lam", "step")

    def __init__(self, lam):
        if not 0 < float(lam) < 1:
            raise InvalidSpec(f"lambda={lam} outside (0, 1)")
        self.lam = lam
        self.step = math.log((1 - float(lam)) / float(lam))

    def min_depth(self, word: FlipWord) -> int:
        return word.horizon

    def integer_eval(self, g: GroupoidElement) -> int:
        """The lattice index k with H = step * k; exact."""
        return int(self.integer_table(g.flips, g.point.depth)[g.point.bits])

    def value(self, g: GroupoidElement) -> float:
        return self.step * self.integer_eval(g)

    def integer_table(self, word: FlipWord, depth: int) -> np.ndarray:
        if depth < word.horizon:
            raise DepthTooSmall(
                f"horizon {word.horizon} needs depth >= {word.horizon}, got {depth}"
            )
        idx = np.arange(1 << depth)
        k = np.zeros(1 << depth, dtype=np.int64)
        for j in word.sites:
            k += 2 * ((idx >> (j - 1)) & 1) - 1
        return k

    def table(self, word: FlipWord, depth: int) -> np.ndarray:
        return self.step * self.integer_table(word, depth)

    def measure(self) -> Bernoulli:
        return Bernoulli(self.lam)

    def __repr__(self):
        return f"ModularHamiltonian(lambda={self.lam})"


class NonCocyclePerturbation:
    """A deliberately broken energy: base + a * [site 1 flipped] * psi_2(x).

    The added term fails the chain identity, so the Heisenberg equivalence
    must degrade visibly under it.  (A psi_1 term would cancel in the
    identity and leave the flow equivalent; psi_2 keeps the defect alive.)
    The identity defect is +-2a; since phases only see it mod 2 pi / t, the
    default a = 1/2 keeps the defect at +-1, which no probed time in (0, 2
    pi) can rotate back to a trivial phase.
    """

    __slots__ = ("base", "amplitude")

    def __init__(self, base, amplitude: float = 0.5):
        self.base = base
        self.amplitude = float(amplitude)

    def min_depth(self, word: FlipWord) -> int:
        return max(self.base.min_depth(word), 2)

    def table(self, word: FlipWord, depth: int) -> np.ndarray:
        out = np.asarray(self.base.table(word, depth), dtype=np.float64)
        if 1 in word.sites:
            out = out + self.amplitude * CylinderFunction.psi(2, depth).values
        return out

    def value(self, g: GroupoidElement) -> float:
        return float(self.table(g.flips, g.point.depth)[g.point.bits])

    @property
    def J(self):
        return getattr(self.base, "J", None)

    def measure(self):
        return self.base.measure()


def ising_energy_brute(J: float, g: GroupoidElement) -> float:
    """Independent route: full bond sums of truncated chains, then subtract.

    Each sum reads the spins site by site from the prefix, sharing no table
    with ising_energy_table; H = -J * sum, so S = -J * (sum at the source -
    sum at the target).
    """
    def bond_sum(p):
        spins = [1 - 2 * p.bit(k) for k in range(1, p.depth + 1)]
        return sum(a * b for a, b in zip(spins, spins[1:]))

    return -J * (bond_sum(g.point ^ g.flips) - bond_sum(g.point))


def ising_dfs_coefficients(n: int, D: int):
    """The S / J tables on all words up to horizon n, in exact integers."""
    if D < n + 1:
        raise DepthTooSmall(f"horizon {n} tables need depth >= {n + 1}, got {D}")
    rows = [ising_energy_table(FlipWord(m), D) for m in range(1 << n)]
    return DfsTable.of_rows(np.stack(rows))


def ising_dfs_table(J: float, n: int, D: int):
    """Float tables of S on all words up to horizon n at depth D."""
    coeffs = ising_dfs_coefficients(n, D)
    return DfsTable.of_rows(float(J) * coeffs.values.astype(np.float64))


def modular_spectrum_points(lam, horizon: int) -> set:
    """The lattice {step * k : |k| <= horizon} of modular log-eigenvalues."""
    lam_f = float(lam)
    if lam_f == 0.5:
        raise DegenerateSpectrum(
            "lambda = 1/2 collapses the lattice to the single point 0"
        )
    if not 0 < lam_f < 0.5:
        raise InvalidSpec(f"lambda={lam} outside (0, 1/2)")
    step = math.log((1 - lam_f) / lam_f)
    return {step * k for k in range(-horizon, horizon + 1)}


def attained_spectrum(lam, horizon: int) -> dict:
    """Exhaustively enumerate the lattice indices reached at a horizon.

    Every transition with words and prefixes inside the horizon contributes
    k = sum over flipped sites of (2 x_j - 1), an exact integer; the report
    compares the attained set with the full integer window.
    """
    ham = ModularHamiltonian(lam)
    attained = set()
    for mask in range(1 << horizon):
        # one table at a time: np.unique over all of them at once costs memory
        attained.update(np.unique(ham.integer_table(FlipWord(mask), horizon)).tolist())
    expected = set(range(-horizon, horizon + 1))
    return {
        "lambda": float(lam),
        "horizon": horizon,
        "step": ham.step,
        "attained_k": sorted(attained),
        "matches_window": attained == expected,
    }


def tt_evolve(F: AlgebraElement, t: float, energy) -> AlgebraElement:
    """Pointwise phase flow: multiply each entry by e^{i S(x, w) t}."""
    d = F.depth
    for w in F.terms:
        d = max(d, energy.min_depth(w))
    F = F.lift(d)
    out = {}
    for w, f in F.terms.items():
        phase = np.exp(1j * t * np.asarray(energy.table(w, d), dtype=np.float64))
        vals = f.values.astype(np.complex128) if f.values.dtype == object else f.values
        out[w] = CylinderFunction(d, phase * vals)
    return AlgebraElement(out, d)


def heisenberg_equivalence_check(
    F: AlgebraElement,
    psi: AlgebraElement,
    t: float,
    J: float = 1.0,
    energy=None,
) -> dict:
    """Compare the modular flow of a product with the flowed-factor product.

    Checks e^{iSt} (F * e^{-iSt} psi) = (e^{iSt} F) * psi, which holds
    exactly when S chains additively; the report carries the max pointwise
    deviation and the norms of F before and after the flow.
    """
    if energy is None:
        energy = TransitionEnergy(J)
    spec = energy.measure()
    evolved_F = tt_evolve(F, t, energy)
    lhs = tt_evolve(convolve(F, tt_evolve(psi, -t, energy)), t, energy)
    rhs = convolve(evolved_F, psi)
    lam = getattr(spec, "lam", None)
    return {
        "t": float(t),
        "J": getattr(energy, "J", None) if lam is None else None,
        "lambda": float(lam) if lam is not None else None,
        "max_deviation": max_abs_diff(lhs, rhs),
        "norms_before": {"l2": l2_norm(F, spec), "hahn": hahn_norm(F, spec)},
        "norms_after": {
            "l2": l2_norm(evolved_F, spec),
            "hahn": hahn_norm(evolved_F, spec),
        },
    }
