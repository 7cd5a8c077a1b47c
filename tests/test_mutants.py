"""Every check can fail: mutants of the package that the CLI must catch.

Each mutant replaces one function in every flipchain module that binds it
(the CLI imports kernels by name) and names the argv that must then exit 1,
with a failure record and without raising.  The groupoid law's mutants break
one function of the mask law each; the axiom sweep must see every one.
"""

import json
import sys

import pytest

from flipchain import groupoid
from flipchain.cli import main

AXIOMS = ["axioms", "--n", "3"]

# name -> (original, replacement, argv that must exit 1)
MUTANTS = {
    "compose's word as u | v":
        (groupoid.compose_masks, lambda x, u, v: (x, u | v), AXIOMS),
    "inverse without the point flip":
        (groupoid.inverse_masks, lambda x, w: (x, w), AXIOMS),
    "source read as x":
        (groupoid.source, lambda x, w: x, AXIOMS),
    "composability always true":
        (groupoid.composable, lambda x, u, y: True, AXIOMS),
}


def _patch(monkeypatch, original, replacement) -> int:
    """Replace original in every loaded flipchain module; the count of bindings."""
    bindings = [(module, name)
                for key, module in list(sys.modules.items())
                if key == "flipchain" or key.startswith("flipchain.")
                for name, value in list(vars(module).items()) if value is original]
    for module, name in bindings:
        monkeypatch.setattr(module, name, replacement)
    return len(bindings)


@pytest.mark.parametrize("original, replacement, argv", MUTANTS.values(), ids=MUTANTS)
def test_mutant_is_caught(monkeypatch, capsys, original, replacement, argv):
    assert _patch(monkeypatch, original, replacement) >= 1
    assert main(argv) == 1
    payload = json.loads(capsys.readouterr().out)
    assert payload["failure"]["invariant"] == "groupoid axioms"
    assert payload["report"]["violations"] > 0
