"""Every check can fail: mutants of the package that the CLI must catch.

Each mutant replaces one function in every flipchain module that binds it
(the CLI imports kernels by name), or one method on its class, and names the
CLI run that must catch it: the run's exit code under the mutant must differ
from the unmutated package's, with a report and without raising.  The
groupoid law's mutants break one function of the mask law each; the axiom
sweep must see every one.  The max-|entry| kernel decides every verdict, so
a kernel that drops NaN or reads every table as zero must flip one.

Mutants that no CLI run catches yet are strict xfails naming the ROADMAP
item whose check will catch them; the fix turns each into a failure, and
its marker must then go.
"""

import json
import math
import sys

import numpy as np
import pytest

from flipchain import algebra, groupoid, ising, matrices, measures
from flipchain.cli import main
from flipchain.measures import Bernoulli, IsingBoltzmann

# run name -> (argv, exit code of the unmutated package, the invariant that
# the failure record of a caught mutant names; None where a mutant makes the
# run pass).  A survivor is asserted only to flip the exit code, so that
# whichever check of the run first catches it turns its xfail into a failure.
RUNS = {
    "axioms": (["axioms", "--n", "3"], 0, "groupoid axioms"),
    "dfs-check of a table with a NaN entry": (["dfs-check", "{nan_table}"], 1, None),
    "ising-dynamics": (["ising-dynamics"], 0,
                       "non-cocycle control must visibly break the equivalence"),
    "algebra": (["algebra", "--trials", "50"], 0, None),
    "trace": (["trace", "--trials", "20"], 0, "trace violation witness fell below its floor"),
    "trace at the symmetric point": (["trace", "--lambda", "0.5", "--trials", "20"], 0,
                                     "trace property at the symmetric point"),
    "spectrum": (["spectrum", "--n", "3"], 0, "attained lattice window"),
    "glimm": (["glimm", "--trials", "20"], 0, "state equality between matrix and groupoid sides"),
}

_pow, _tt_evolve, _energy = algebra.modular_operator_pow, ising.tt_evolve, Bernoulli.energy_table
_ising_energy = IsingBoltzmann.energy_table
_integrate_rows = measures._integrate_rows
_pauli, _flip = matrices.pauli_operator, algebra.pukanszky_V


def _max_abs_dropping_nan(rows):
    """np.nanmax-style: the largest absolute entry of every row, NaN ignored."""
    return np.nanmax(np.abs(rows), axis=1, initial=0.0)


def _involution_without_delta(F, spec):
    """involution without its delta**-1 factor: conj(F(x ^ w, w)) alone."""
    return F._with(F.depth, np.conjugate(algebra._flipped(F)))


def _weight_of_every_word(F, spec):
    """canonical_weight summing the integral of every word, not the empty word's alone."""
    integrals = _integrate_rows(spec, F.depth, F.values)
    return F._per_trial(algebra._trial_totals(F, F.trial.tolist(), integrals))


def _lattice_index_without_sign(self, word, depth):
    """lattice_table as popcount(x & w), the flipped sites at 1 without those at 0."""
    return measures._bit_count(measures._index(depth) & word)


def _flip_without_root(w, spec):
    """pukanszky_V with its delta**-1/2 table read as ones: the bare flip."""
    V = _flip(w, spec)
    return V._with(V.depth, np.ones_like(V.values))


def _hahn_target_only(F, spec):
    """hahn_norm without its source branch: sup_x sum_w |F(x, w)| alone."""
    totals = np.zeros((F._count, 1 << F.depth))
    np.add.at(totals, F.trial, np.abs(F.values).astype(np.float64))
    return F._per_trial(totals.max(axis=1).tolist())


# name -> (function, or (class, method name); replacement; run that catches it)
MUTANTS = {
    "compose's word as u | v":
        (groupoid.compose_masks, lambda x, u, v: (x, u | v), "axioms"),
    "inverse without the point flip":
        (groupoid.inverse_masks, lambda x, w: (x, w), "axioms"),
    "source read as x":
        (groupoid.source, lambda x, w: x, "axioms"),
    "composability always true":
        (groupoid.composable, lambda x, u, y: True, "axioms"),
    "max-|entry| drops NaN":
        (measures._max_abs_rows, _max_abs_dropping_nan, "dfs-check of a table with a NaN entry"),
    "max-|entry| is always 0":
        (measures._max_abs_rows, lambda rows: np.zeros(len(rows)), "ising-dynamics"),
    "involution without its delta factor":
        (algebra.involution, _involution_without_delta, "trace"),
    "canonical weight of every word":
        (algebra.canonical_weight, _weight_of_every_word, "trace at the symmetric point"),
    "lattice index read as popcount(x & w)":
        ((Bernoulli, "lattice_table"), _lattice_index_without_sign, "spectrum"),
    "Pauli word without its sign":
        (matrices.pauli_operator, lambda w, n: np.abs(_pauli(w, n)), "glimm"),
}

# name -> (function or (class, method name), replacement, run, the item that will catch it)
SURVIVORS = {
    "modular flow as delta**-is":
        (_pow, lambda F, t, spec: _pow(F, t.conjugate(), spec), "algebra",
         "item 16: the regular representation checks every power of delta"),
    "Hahn norm without its source branch":
        (algebra.hahn_norm, _hahn_target_only, "algebra",
         "item 16: the regular representation bounds the Hahn norm from both fibres"),
    "tt_evolve with e^{-iSt}":
        (_tt_evolve, lambda F, t, energy: _tt_evolve(F, -t, energy), "ising-dynamics",
         "item 3: the KMS condition in flow form fixes the sign of t"),
    "Bernoulli energy with its sign flipped":
        ((Bernoulli, "energy_table"), lambda self, w, d: -_energy(self, w, d), "trace",
         "item 3: the KMS condition drives the Bernoulli flow"),
    "every integral against uniform weights":
        (_integrate_rows, lambda spec, depth, rows: _integrate_rows(Bernoulli(0.5), depth, rows),
         "glimm", "item 6: the bridge integrates one side without weight_table"),
    "Ising energy with its sign flipped":
        ((IsingBoltzmann, "energy_table"), lambda self, w, d: -_ising_energy(self, w, d),
         "ising-dynamics", "item 3: the KMS condition drives the Ising flow"),
    "Ising energy scaled by 2":
        ((IsingBoltzmann, "energy_table"), lambda self, w, d: 2 * _ising_energy(self, w, d),
         "ising-dynamics", "item 3: the flow at half its period is the grading"),
    "Bernoulli energy scaled by 2":
        ((Bernoulli, "energy_table"), lambda self, w, d: 2 * _energy(self, w, d), "trace",
         "item 3: the flow at half its period is the grading"),
    # V * V = unit either way, and the state reads only the empty word
    "glimm's flip without its delta**-1/2 root":
        (_flip, _flip_without_root, "glimm",
         "item 6: the bridge intertwines the modular flows, which read the root"),
}

CASES = [pytest.param(target, replacement, run, RUNS[run][2], id=name)
         for name, (target, replacement, run) in MUTANTS.items()] + [
    pytest.param(target, replacement, run, None, id=name, marks=pytest.mark.xfail(
        strict=True, raises=AssertionError, reason=f"no CLI run catches it until {item}"))
    for name, (target, replacement, run, item) in SURVIVORS.items()]


@pytest.fixture(scope="module")
def nan_table(tmp_path_factory):
    """A dfs-build report whose table holds one NaN, on the first single-flip word."""
    path = tmp_path_factory.mktemp("tables") / "nan.json"
    assert main(["dfs-build", "--n", "3", "--depth", "4", "--out", str(path)]) == 0
    doc = json.loads(path.read_text())
    doc["report"]["table"]["entries"][1]["values"][0] = math.nan
    path.write_text(json.dumps(doc))
    return path


def _run(capsys, run, nan_table):
    argv, _, _ = RUNS[run]
    code = main([arg.format(nan_table=nan_table) for arg in argv])
    payload = json.loads(capsys.readouterr().out)
    assert payload["passed"] == (code == 0)
    return code, payload


def _patch(monkeypatch, original, replacement) -> int:
    """Replace original in every loaded flipchain module; the count of bindings."""
    bindings = [(module, name)
                for key, module in list(sys.modules.items())
                if key == "flipchain" or key.startswith("flipchain.")
                for name, value in list(vars(module).items()) if value is original]
    for module, name in bindings:
        monkeypatch.setattr(module, name, replacement)
    return len(bindings)


@pytest.mark.parametrize("run", RUNS)
def test_unmutated_verdict(capsys, nan_table, run):
    assert _run(capsys, run, nan_table)[0] == RUNS[run][1]


@pytest.mark.parametrize("target, replacement, run, invariant", CASES)
def test_mutant_is_caught(monkeypatch, capsys, nan_table, target, replacement, run, invariant):
    monkeypatch.setattr(matrices, "_IMAGES", {})  # a warm memo of images hides a mutant
    if isinstance(target, tuple):  # a method, patched on its class
        monkeypatch.setattr(*target, replacement)
    else:
        assert _patch(monkeypatch, target, replacement) >= 1
    code, payload = _run(capsys, run, nan_table)
    assert code == 1 - RUNS[run][1]
    if invariant is not None:
        assert payload["failure"]["invariant"] == invariant
    if run == "axioms":
        assert payload["report"]["violations"] > 0
