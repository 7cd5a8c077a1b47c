"""Self-test of the tracer and of the metric list.

    python3 perfbench/selftest.py

Run it from the root of a flipchain checkout (about a minute on 2 cores).
For each workload it runs one untraced and one traced pass and checks that

- every span records at least one call on a workload where it is active,
- spans predicted to be idle on a workload record no call there,
- traced and untraced output of every operation is byte-identical,
- the metrics ``run.py`` reports are exactly those ``BENCHMARK.json`` names.

It exits 1 and names each failed check, 0 when all hold.
"""

from __future__ import annotations

import json
import shutil
import sys
import tempfile
import time
from collections import Counter
from fnmatch import fnmatch
from pathlib import Path

import run
import spec
import tracer

# Spans each workload must exercise, and spans it must leave idle.
ACTIVE = {
    "algebra-random": (
        "measures.weight_table", "measures.delta_table", "measures.integrate",
        "measures.ising_bond_coefficients", "algebra.*", "sampling.*",
        "cli.render_json", "cli.algebra", "cli.trace",
    ),
    "exhaustive": (
        "groupoid.*", "dfs.*", "ising.attained_spectrum", "cli.render_json",
        "cli.axioms", "cli.dfs_build", "cli.dfs_check", "cli.spectrum",
        "cli.ising_partition",
    ),
    "bridge-flow": (
        "measures.*", "algebra.convolve", "algebra.norms", "algebra.max_abs_diff",
        "algebra.canonical_weight", "algebra.pukanszky_V", "matrices.*",
        "ising.tt_evolve", "ising.heisenberg_equivalence_check", "sampling.*",
        "cli.render_json", "cli.glimm", "cli.haar", "cli.ising_dynamics",
    ),
}
IDLE = {
    "algebra-random": ("groupoid.*", "dfs.*", "matrices.*", "ising.*",
                       "measures.translation_covariance_check"),
    # ising-partition reads the bond coefficients, and dfs-build draws its
    # site seeds with rng_for; the rest of measures and sampling is idle.
    "exhaustive": ("measures.weight_table", "measures.delta_table",
                   "measures.integrate", "measures.translation_covariance_check",
                   "algebra.*", "matrices.*",
                   "sampling.random_algebra_element", "ising.tt_evolve",
                   "ising.heisenberg_equivalence_check"),
    "bridge-flow": ("groupoid.*", "dfs.*", "ising.attained_spectrum",
                    "algebra.involution", "algebra.modular"),
}


def matching(patterns):
    names = list(tracer.FUNCTIONS) + list(tracer.METHODS)
    return [n for n in names if any(fnmatch(n, p) for p in patterns)]


def check_workload(name, bench, workdir) -> list:
    deadline = time.monotonic() + run.RUN_LIMIT_S
    plain = run.run_pass(name, spec.DEFAULT_SEED, workdir, 1, deadline)
    traced = run.run_pass(name, spec.DEFAULT_SEED, workdir, 1, deadline, "--trace")
    for doc in (plain, traced):
        if "error" in doc:
            return [f"{name}: {doc['error']}"]
    errors = []
    calls = Counter()
    for per_op in traced["calls_by_op"].values():
        calls.update(per_op)
    for span in matching(ACTIVE[name]):
        if calls[span] == 0:
            errors.append(f"{name}: {span} recorded no call")
    for span in matching(IDLE[name]):
        if calls[span] != 0:
            errors.append(f"{name}: {span} recorded {calls[span]} calls, expected 0")
    for a, b in zip(plain["ops"], traced["ops"]):
        if a["sha256"] != b["sha256"]:
            errors.append(f"{name}: {a['id']} output changes under tracing")
        errors += [f"{name}: {a['id']}: {p}" for p in a["problems"] + b["problems"]]
    for table, traced_docs in (("end_to_end", []), ("per_layer", [traced])):
        metrics, _ = run.measure([plain], traced_docs, [], bench)
        if set(metrics) != {m["name"] for m in bench[table]}:
            errors.append(f"{name}: reported metrics differ from {table}")
    return errors


def main() -> int:
    bench = json.loads(Path("BENCHMARK.json").read_text())
    names = set(tracer.FUNCTIONS) | set(tracer.METHODS)
    errors = [f"{span} is active on no workload" for span in sorted(
        names - {s for patterns in ACTIVE.values() for s in matching(patterns)})]
    scratch = Path(run.WORK_DIR)
    scratch.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="selftest-", dir=scratch)
    try:
        for name in spec.WORKLOADS:
            errors += check_workload(name, bench, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        if not any(scratch.iterdir()):
            scratch.rmdir()
    for error in errors:
        print(f"FAIL {error}")
    print(f"selftest: {len(errors)} failures")
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
