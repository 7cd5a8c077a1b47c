"""Spans around calls into flipchain's public functions, from outside the package.

The tracer replaces each listed function in every flipchain module namespace
(and dict, such as ``cli.COMMANDS``) that holds it, and each listed measure
method on its class, with a wrapper that records a span: name, start, end,
parent span and operation id.  Spans stay in memory; ``layer_metrics`` turns
them into the per-layer figures when the pass is over.  Functions called
millions of times per pass (``groupoid.compose`` inside the axiom sweep) are
deliberately not wrapped.
"""

from __future__ import annotations

import functools
import sys
from collections import Counter, defaultdict
from time import perf_counter

# span name -> (module, function names); several functions may share a span.
FUNCTIONS = {
    "groupoid.axioms_report": ("flipchain.groupoid", ("axioms_report",)),
    "measures.integrate": ("flipchain.measures", ("integrate",)),
    "measures.ising_bond_coefficients":
        ("flipchain.measures", ("ising_bond_coefficients",)),
    "measures.translation_covariance_check":
        ("flipchain.measures", ("translation_covariance_check",)),
    "algebra.convolve": ("flipchain.algebra", ("convolve",)),
    "algebra.involution": ("flipchain.algebra", ("involution",)),
    "algebra.modular":
        ("flipchain.algebra", ("modular_operator_pow", "modular_conjugation")),
    "algebra.norms": ("flipchain.algebra", ("l2_norm", "hahn_norm")),
    "algebra.max_abs_diff": ("flipchain.algebra", ("max_abs_diff",)),
    "algebra.canonical_weight": ("flipchain.algebra", ("canonical_weight",)),
    "algebra.pukanszky_V": ("flipchain.algebra", ("pukanszky_V",)),
    "matrices.pauli_operator": ("flipchain.matrices", ("pauli_operator",)),
    "matrices.glimm_map": ("flipchain.matrices", ("glimm_map",)),
    "matrices.powers_state": ("flipchain.matrices", ("powers_state",)),
    "dfs.dfs_check": ("flipchain.dfs", ("dfs_check",)),
    "dfs.dfs_seed_extend": ("flipchain.dfs", ("dfs_seed_extend",)),
    "dfs.dfs_to_json": ("flipchain.dfs", ("dfs_to_json",)),
    "dfs.dfs_from_json": ("flipchain.dfs", ("dfs_from_json",)),
    "dfs.cochain_delta": ("flipchain.dfs", ("cochain_delta",)),
    "dfs.is_exact": ("flipchain.dfs", ("is_exact",)),
    "ising.attained_spectrum": ("flipchain.ising", ("attained_spectrum",)),
    "ising.tt_evolve": ("flipchain.ising", ("tt_evolve",)),
    "ising.heisenberg_equivalence_check":
        ("flipchain.ising", ("heisenberg_equivalence_check",)),
    "sampling.rng_for": ("flipchain.sampling", ("rng_for",)),
    "sampling.random_algebra_element":
        ("flipchain.sampling", ("random_algebra_element",)),
    "cli.render_json": ("flipchain.cli", ("render_json",)),
}

# The per-trial loops live in the subcommand bodies: their self time is what
# trial batching would remove.
CLI_COMMANDS = ("axioms", "haar", "algebra", "glimm", "trace", "dfs_build",
                "dfs_check", "ising_partition", "ising_dynamics", "spectrum")
FUNCTIONS.update({f"cli.{sub}": ("flipchain.cli", (f"cmd_{sub}",))
                  for sub in CLI_COMMANDS})

# span name -> method names, patched on every measure class.
METHODS = {
    "measures.weight_table": ("weight_table",),
    "measures.delta_table": ("delta_table", "delta_inv_table"),
}
MEASURE_CLASSES = ("Bernoulli", "IsingBoltzmann")


def _result_count(key):
    def count(tracer, name, fn, args, result):
        tracer.counters[name.split(".")[0] + "." + key] += result[key]
    return count


def _convolve_work(tracer, name, fn, args, result):
    F, G = args[0], args[1]
    pairs = len(F.terms) * len(G.terms)
    tracer.counters["algebra.convolve.word_pairs"] += pairs
    tracer.counters["algebra.convolve.entries"] += pairs << max(F.depth, G.depth)


def _rendered_bytes(tracer, name, fn, args, result):
    tracer.counters["cli.render_json.bytes"] += len(result.encode())


def _table_key(tracer, name, fn, args, result):
    # args = (measure, depth) or (measure, word, depth); measures and words
    # are frozen dataclasses, so the arguments themselves are the cache key.
    tracer.keys[name].add((fn.__qualname__,) + tuple(args))


OBSERVERS = {
    "groupoid.axioms_report": _result_count("checks"),
    "dfs.dfs_check": _result_count("checks"),
    "algebra.convolve": _convolve_work,
    "cli.render_json": _rendered_bytes,
    "measures.weight_table": _table_key,
    "measures.delta_table": _table_key,
}


class Tracer:
    """Records spans while installed; one instance per pass."""

    def __init__(self):
        self.spans = []  # (name, start, end, parent index, op, nested in same name)
        self.counters = Counter()
        self.keys = defaultdict(set)
        self.op = None
        self._stack = []
        self._active = Counter()
        self._patches = []

    def _wrap(self, name, fn):
        spans, stack, active = self.spans, self._stack, self._active
        observe = OBSERVERS.get(name)

        def traced(*args, **kwargs):
            i = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            nested = active[name] > 0
            stack.append(i)
            active[name] += 1
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                active[name] -= 1
                spans[i] = (name, start, end, parent, self.op, nested)
            if observe is not None:
                observe(self, name, fn, args, result)
            return result

        return functools.wraps(fn)(traced)

    def install(self):
        # Modules bind each other's functions by name (`from .algebra import
        # convolve`), and cli.COMMANDS holds the subcommand bodies, so every
        # namespace and module-level dict that holds a function gets the wrapper.
        namespaces = [vars(m) for key, m in sys.modules.items()
                      if key == "flipchain" or key.startswith("flipchain.")]
        namespaces += [value for ns in namespaces for key, value in ns.items()
                       if isinstance(value, dict) and not key.startswith("__")]
        for name, (module, attrs) in FUNCTIONS.items():
            for attr in attrs:
                fn = getattr(sys.modules[module], attr)
                wrapped = self._wrap(name, fn)
                for ns in namespaces:
                    for key, value in list(ns.items()):
                        if value is fn:
                            self._patches.append((ns, key, fn))
                            ns[key] = wrapped
        measures = sys.modules["flipchain.measures"]
        for name, attrs in METHODS.items():
            for cls_name in MEASURE_CLASSES:
                cls = getattr(measures, cls_name)
                for attr in attrs:
                    fn = cls.__dict__[attr]
                    self._patches.append((cls, attr, fn))
                    setattr(cls, attr, self._wrap(name, fn))

    def uninstall(self):
        for target, key, original in reversed(self._patches):
            if isinstance(target, dict):
                target[key] = original
            else:
                setattr(target, key, original)
        self._patches.clear()

    def calls_by_op(self) -> dict:
        """op id -> span name -> calls, for the self-test."""
        out = defaultdict(Counter)
        for name, _, _, _, op, _ in self.spans:
            out[op][name] += 1
        return out

    def layer_metrics(self, pass_s: float) -> dict:
        """Per-layer figures of one pass: calls, inclusive and self seconds."""
        child_time = [0.0] * len(self.spans)
        top_level = 0.0
        for name, start, end, parent, _, _ in self.spans:
            if parent < 0:
                top_level += end - start
            else:
                child_time[parent] += end - start
        calls, incl, self_s = Counter(), defaultdict(float), defaultdict(float)
        for i, (name, start, end, _, _, nested) in enumerate(self.spans):
            calls[name] += 1
            if not nested:
                incl[name] += end - start
            self_s[name] += end - start - child_time[i]
        out = {}
        for name in list(FUNCTIONS) + list(METHODS):
            out[f"{name}.calls"] = calls[name]
            out[f"{name}.s"] = incl[name]
            out[f"{name}.self_s"] = self_s[name]
        for name in METHODS:
            out[f"{name}.distinct_ratio"] = (
                len(self.keys[name]) / calls[name] if calls[name] else 0.0)
        for key in ("groupoid.checks", "dfs.checks", "algebra.convolve.word_pairs",
                    "algebra.convolve.entries", "cli.render_json.bytes"):
            out[key] = self.counters[key]
        out["trace.coverage"] = top_level / pass_s
        return out
