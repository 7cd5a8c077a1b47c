"""The benchmark's tracer (perfbench/tracer.py) patches flipchain by name.

It must still find every function and measure method it names, and put every
original back when it is uninstalled; a fold that removes or moves one of
those names fails here instead of in a benchmark run.
"""

import importlib
import sys
from pathlib import Path

import flipchain.cli  # noqa: F401  (the tracer patches every loaded flipchain module)
from flipchain import Bernoulli, IsingBoltzmann
from flipchain.cli import main

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _bindings() -> dict:
    """Every name the tracer may rebind: module globals, the entries of
    module-level dicts, and the attributes of the measure classes."""
    out = {}
    for name, module in list(sys.modules.items()):
        if name == "flipchain" or name.startswith("flipchain."):
            for key, value in vars(module).items():
                out[name, key] = value
                if isinstance(value, dict) and not key.startswith("__"):
                    out.update({(name, key, k): v for k, v in value.items()})
    for cls in (Bernoulli, IsingBoltzmann):
        out.update({(cls.__name__, k): v for k, v in vars(cls).items()})
    return out


def test_tracer_patches_every_name_and_restores_it(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    tracer = importlib.import_module("tracer")
    before = _bindings()
    t = tracer.Tracer()
    t.install()
    try:
        for module, attrs in tracer.FUNCTIONS.values():
            for attr in attrs:
                patched = getattr(sys.modules[module], attr)
                assert patched.__wrapped__ is before[module, attr], attr
        for attrs in tracer.METHODS.values():
            for cls_name in tracer.MEASURE_CLASSES:
                for attr in attrs:
                    patched = vars(getattr(flipchain.measures, cls_name))[attr]
                    assert patched.__wrapped__ is before[cls_name, attr], attr
    finally:
        t.uninstall()
    after = _bindings()
    assert after.keys() == before.keys()
    assert all(after[key] is value for key, value in before.items())


def test_traced_batched_runs_report_the_same_bytes(monkeypatch, capsys):
    # the tracer's observers read batched operands (convolve's word-pair
    # count reads len(F.terms) and F.depth); a crash there would otherwise
    # first show as a benchmark gate failure
    monkeypatch.syspath_prepend(str(PERFBENCH))
    tracer = importlib.import_module("tracer")
    runs = (["algebra", "--trials", "3"], ["trace", "--trials", "3"])
    plain = []
    for argv in runs:
        assert main(argv) == 0
        plain.append(capsys.readouterr().out)
    t = tracer.Tracer()
    t.install()
    try:
        for argv, want in zip(runs, plain):
            assert main(argv) == 0
            assert capsys.readouterr().out == want
    finally:
        t.uninstall()
    layers = t.layer_metrics(1.0)
    assert layers["algebra.convolve.word_pairs"] > 0
    assert layers["algebra.convolve.calls"] > 0
