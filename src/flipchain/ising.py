"""The modular phase flow, its convolution equivalence and the log-spectrum.

The flow is generated by the measure's own transition energy, S = -log
delta, read from ``spec.energy_table`` (``measures``).  For the Ising chain
S(x, w) = H(x ^ w) - H(x) is a finite sum over the bonds touching a flipped
site; for the Bernoulli measure it lies on the lattice
log((1-lambda)/lambda) * Z.  The flow F -> e^{i S t} F is unitary for the
measure, and at t = i it is the modular operator delta itself.

The flow is equivalent to a Heisenberg conjugation of convolution precisely
because S is an additive cocycle; a deliberately broken perturbation is
provided to witness the necessity.
"""

from __future__ import annotations

import numpy as np

from .algebra import AlgebraElement, convolve, hahn_norm, l2_norm, max_abs_diff
# the one depth rule of the modular maps, and their per-word tables
from .algebra import _per_word
from .errors import DegenerateSpectrum, InvalidSpec
from .measures import Bernoulli, CylinderFunction


class NonCocyclePerturbation:
    """A deliberately broken energy: S + a * [site 1 flipped] * psi_2(x),
    with S the energy of the measure `base`.

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

    def min_delta_depth(self, word: int) -> int:
        return max(self.base.min_delta_depth(word), 2)

    def energy_table(self, word: int, depth: int) -> np.ndarray:
        out = np.asarray(self.base.energy_table(word, depth), dtype=np.float64)
        if word & 1:  # site 1 flipped
            out = out + self.amplitude * CylinderFunction.psi(2, depth).values
        return out


def modular_spectrum_points(lam, horizon: int) -> set:
    """The lattice {step * k : |k| <= horizon} of modular log-eigenvalues."""
    lam_f = float(lam)
    if lam_f == 0.5:
        raise DegenerateSpectrum(
            "lambda = 1/2 collapses the lattice to the single point 0"
        )
    if not 0 < lam_f < 0.5:
        raise InvalidSpec(f"lambda={lam} outside (0, 1/2)")
    step = Bernoulli(lam).step
    return {step * k for k in range(-horizon, horizon + 1)}


def attained_spectrum(lam, horizon: int) -> dict:
    """Exhaustively enumerate the lattice indices reached at a horizon.

    Every transition with words and prefixes inside the horizon contributes
    k = sum over flipped sites of (2 x_j - 1), an exact integer; the report
    compares the attained set with the full integer window and counts the
    points by which the two differ.
    """
    spec = Bernoulli(lam)
    # one table at a time, marked by index into the window [-horizon, horizon];
    # the indices outside it, which only a wrong table reaches, go to a set
    window = np.zeros(2 * horizon + 1, dtype=bool)
    outside = set()
    for mask in range(1 << horizon):
        k = spec.lattice_table(mask, horizon)
        inside = np.abs(k) <= horizon
        window[k[inside] + horizon] = True
        outside.update(k[~inside].tolist())
    attained = outside.union((np.flatnonzero(window) - horizon).tolist())
    mismatched = len(attained ^ set(range(-horizon, horizon + 1)))
    return {
        "lambda": float(lam),
        "horizon": horizon,
        "step": spec.step,
        "attained_k": sorted(attained),
        "matches_window": mismatched == 0,
        "mismatched": mismatched,
    }


def tt_evolve(F: AlgebraElement, t, energy) -> AlgebraElement:
    """Pointwise phase flow: multiply each entry by e^{i S(x, w) t}, with S
    the energy table of `energy` (a measure, or a perturbation of one).

    At t = i the flow is the modular operator delta = e^{-S}.
    """
    F, phases = _per_word(F, energy, lambda w, d: np.exp(
        1j * t * np.asarray(energy.energy_table(w, d), dtype=np.float64)))
    values = F.values.astype(np.complex128) if F.values.dtype == object else F.values
    return F._with(F.depth, phases * values)


def heisenberg_equivalence_check(
    F: AlgebraElement, psi: AlgebraElement, t: float, spec, energy=None
) -> dict:
    """Compare the modular flow of a product with the flowed-factor product.

    Checks e^{iSt} (F * e^{-iSt} psi) = (e^{iSt} F) * psi, which holds
    exactly when S chains additively; the report carries the max pointwise
    deviation and the norms of F under `spec` before and after the flow.
    The flow is that of `energy`, by default the measure's own.
    """
    if energy is None:
        energy = spec
    evolved_F = tt_evolve(F, t, energy)
    lhs = tt_evolve(convolve(F, tt_evolve(psi, -t, energy)), t, energy)
    rhs = convolve(evolved_F, psi)
    lam = getattr(spec, "lam", None)
    return {
        "t": float(t),
        "J": float(spec.J) if lam is None else None,
        "lambda": float(lam) if lam is not None else None,
        "max_deviation": max_abs_diff(lhs, rhs),
        "norms_before": {"l2": l2_norm(F, spec), "hahn": hahn_norm(F, spec)},
        "norms_after": {
            "l2": l2_norm(evolved_F, spec),
            "hahn": hahn_norm(evolved_F, spec),
        },
    }
