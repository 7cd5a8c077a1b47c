"""One pass over a workload, in the fresh interpreter that `run.py` starts.

    python3 perfbench/onepass.py WORKLOAD SEED WORKDIR SPAWNED RESULT [--trace|--setup-only]

SPAWNED is the parent's time.monotonic() just before it started this
process, so set-up time covers interpreter start-up, importing flipchain and
making the workload's inputs.  The pass runs every operation of the workload
once, in order, with a calibration (see ``calibrate``) before the first and
after each operation, then writes its timings, output digests and gate
findings to the RESULT file as JSON.  With --setup-only it stops after the set-up.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import resource
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import numpy as np  # noqa: E402

import flipchain  # noqa: E402
from flipchain import cli, dfs  # noqa: E402
from flipchain.measures import CylinderFunction  # noqa: E402
from flipchain.sampling import rng_for  # noqa: E402

import spec  # noqa: E402

OUT_FILE = "report.json"
TABLE_FILE = "table.json"


def make_inputs(workload: str, seed: int):
    """Everything a workload needs before its first operation, in WORKDIR."""
    if workload != "exhaustive":
        return None
    n, depth = spec.SETUP_TABLE_N, spec.SETUP_TABLE_DEPTH
    seeds = [
        CylinderFunction(depth, rng_for(seed, spec.SETUP_SEED_OFFSET + k)
                         .standard_normal(1 << depth))
        for k in range(n)
    ]
    table = dfs.dfs_build(n, seeds, depth)
    Path(TABLE_FILE).write_text(json.dumps(dfs.dfs_to_json(table)))
    return table


def calibrate() -> float:
    """Seconds taken by fixed reference work that does not touch flipchain.

    Like flipchain's checks, it is half interpreter-bound (integer arithmetic
    and dict stores) and half numpy-bound (gathers and multiply-adds on a
    1024-entry table).  ``run.py`` divides by it to cancel the drift of the
    machine's speed between runs.
    """
    start = time.perf_counter()
    acc = 0
    table = {}
    for i in range(40000):
        acc = (acc * 31 + i) & 0xFFFFFFFF
        table[i & 1023] = acc
    values = np.arange(1024, dtype=np.float64)
    index = np.arange(1024)
    for k in range(1000):
        values = values * 0.5 + values[index ^ (k & 1023)]
    return time.perf_counter() - start


def run_cli(argv):
    buf = io.StringIO()
    try:
        with contextlib.redirect_stdout(buf):
            code = cli.main(argv)
    except SystemExit as exc:  # argparse rejected the arguments
        code = exc.code if isinstance(exc.code, int) else 2
    except Exception:  # noqa: BLE001 - a crash is a finding, not the end of the pass
        return "raised", buf.getvalue(), traceback.format_exc()
    return code, buf.getvalue(), None


def run_cochain(table):
    """Library operation: the table's coboundary vanishes and it has a potential."""
    delta = dfs.cochain_delta(dfs.dfs_to_cochain(table)).max_abs()
    potential = dfs.is_exact(table)
    report = {
        "delta_max_abs": delta,
        "delta_vanishes": bool(delta <= spec.COCHAIN_TOL),
        "potential_found": potential is not None,
        "potential_sha256": None if potential is None else
        hashlib.sha256(np.ascontiguousarray(potential.values).tobytes()).hexdigest(),
    }
    ok = report["delta_vanishes"] and report["potential_found"]
    return (0 if ok else 1), json.dumps(report, sort_keys=True) + "\n", None


def lookup(doc, path):
    for key in path.split("."):
        doc = doc[key]
    return doc


def deviations(doc, path):
    if path.endswith(".*"):
        return list(lookup(doc, path[:-2]).values())
    return [lookup(doc, path)]


def gate(op, code, text, error) -> list:
    """What is wrong with one operation's outcome; empty when it is right."""
    if error is not None:
        return [f"raised: {error.strip().splitlines()[-1]}"]
    if code not in (0, 1):
        return [f"exit code {code}"]
    try:
        doc = json.loads(text)
    except ValueError:
        return ["report is not JSON"]
    problems = []
    if code == 1:
        known = op.known_failure
        invariant = doc.get("failure", {}).get("invariant")
        if known is None:
            problems.append(f"invariant violated: {invariant}")
        elif invariant not in known.invariants:
            problems.append(f"unexpected invariant violated: {invariant}")
        else:
            try:
                worst = max(v for p in known.deviations for v in deviations(doc, p))
            except (KeyError, TypeError):
                worst = float("nan")
            if not worst <= known.ceiling:
                problems.append(
                    f"{invariant} deviation {worst:.3e} is above the rounding "
                    f"ceiling {known.ceiling:.0e}")
    for path, want in op.expect.items():
        try:
            got = lookup(doc, path)
        except (KeyError, TypeError):
            got = "<missing>"
        if got != want:
            problems.append(f"{path} = {got!r}, expected {want!r}")
    return problems


def main(argv) -> int:
    workload, seed, workdir, spawned, result_path = argv[:5]
    traced = "--trace" in argv[5:]
    seed = int(seed)
    ops = spec.WORKLOADS[workload]
    os.chdir(workdir)  # relative file names keep reports free of run paths
    table = make_inputs(workload, seed)
    setup_s = time.monotonic() - float(spawned)
    if "--setup-only" in argv[5:]:
        Path(result_path).write_text(json.dumps({"setup_s": setup_s}))
        return 0

    tracer = None
    if traced:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    raw = []
    calibration = [calibrate()]
    for op in ops:
        if tracer is not None:
            tracer.op = op.id
        if op.argv is not None and "{out}" in op.argv:
            Path(OUT_FILE).unlink(missing_ok=True)
        start = time.perf_counter()
        if op.argv is None:
            outcome = run_cochain(table)
        else:
            args = [a.format(out=OUT_FILE, table=TABLE_FILE) for a in op.argv]
            outcome = run_cli(args + ["--seed", str(seed)])
        raw.append((op, time.perf_counter() - start, outcome))
        calibration.append(calibrate())
    pass_s = sum(seconds for _, seconds, _ in raw)
    if tracer is not None:
        tracer.uninstall()

    results = []
    for op, seconds, (code, text, error) in raw:
        if op.argv is not None and "{out}" in op.argv and code in (0, 1):
            text = Path(OUT_FILE).read_text()
        results.append({
            "id": op.id,
            "subcommand": op.subcommand,
            "seconds": seconds,
            "exit": code,
            "sha256": hashlib.sha256(text.encode()).hexdigest(),
            "problems": gate(op, code, text, error),
        })
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    doc = {
        "setup_s": setup_s,
        "pass_s": pass_s,
        "calibration_s": calibration,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "ops": results,
        "env": {
            "python": sys.version.split()[0],
            "numpy": np.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "flipchain": flipchain.__version__,
        },
    }
    if tracer is not None:
        doc["layers"] = tracer.layer_metrics(pass_s)
        doc["calls_by_op"] = tracer.calls_by_op()
    Path(result_path).write_text(json.dumps(doc))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
