"""flipchain benchmark: time to verdict of fixed verification workloads.

    python3 perfbench/run.py --workload algebra-random --seed 0 --seconds 30 --trace 0

Run it from the root of a flipchain checkout; it imports the package from
``src/`` and builds nothing.  Each pass over the workload's operations runs
in a fresh interpreter (``onepass.py``), as a CLI user pays for a fresh
process on every call.  One run is:

1. with ``--trace 1`` only: an untimed check pass with two BLAS threads;
2. timed passes with one BLAS thread, started until ``--seconds`` have gone
   by (with ``--trace 1``: half the time untraced, half traced);
3. a few set-ups on their own, for a steadier ``setup_s``.

Every operation of every pass goes through the correctness gate: it must
exit as expected, hold the recorded counts, and print byte-identical output
in every pass of the run, whatever the BLAS thread count or tracing.  The
lines before the last one describe the run; the last line is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``, whose names and
units are those of ``BENCHMARK.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys
import tempfile
import time
from collections import defaultdict
from pathlib import Path
from statistics import fmean, median

import spec

HERE = Path(__file__).resolve().parent
RUN_LIMIT_S = 170  # a run must end within 180 s
# Set-up is short and noisy, so besides the one in each timed pass a run
# times this many set-ups on their own and reports the median of all.
EXTRA_SETUPS = 5
WORK_DIR = ".perfbench_work"


def run_pass(workload, seed, workdir, threads, deadline, mode=None):
    """One pass in a fresh interpreter; returns its result document.

    mode is None, "--trace" or "--setup-only" (see onepass.py).
    """
    env = dict(os.environ)
    for var in spec.THREAD_VARS:
        env[var] = str(threads)
    workdir = Path(workdir).resolve()
    result = workdir / "pass.json"
    result.unlink(missing_ok=True)
    start = time.monotonic()
    argv = [sys.executable, str(HERE / "onepass.py"), workload, str(seed),
            str(workdir), repr(start), str(result)] + ([mode] if mode else [])
    try:
        proc = subprocess.run(argv, env=env, capture_output=True, text=True,
                              timeout=max(1.0, deadline - start))
    except subprocess.TimeoutExpired:
        return {"error": "pass timed out", "wall_s": time.monotonic() - start}
    wall_s = time.monotonic() - start
    if proc.returncode != 0 or not result.exists():
        last = (proc.stderr.strip().splitlines() or ["no output"])[-1]
        return {"error": f"pass exited {proc.returncode}: {last}", "wall_s": wall_s}
    doc = json.loads(result.read_text())
    doc.update(threads=threads, traced=mode == "--trace", wall_s=wall_s)
    return doc


def run_passes(args, workdir, cores):
    """Passes of the run, in order, then the set-up times of lone set-ups.

    Timed runs spend their time on timed passes.  The checks that need extra
    passes, another BLAS thread count and tracing, belong to the traced run.
    """
    deadline = time.monotonic() + RUN_LIMIT_S
    threads = min(spec.TIMED_BLAS_THREADS, cores)
    passes = []
    phases = [("timed", args.seconds)]
    if args.trace:
        check = run_pass(args.workload, args.seed, workdir,
                         min(spec.CHECK_BLAS_THREADS, cores), deadline)
        passes.append(dict(check, role="check"))
        phases = [("timed", args.seconds / 2), ("traced", args.seconds / 2)]
    for role, seconds in phases:
        mode = "--trace" if role == "traced" else None
        phase_end = time.monotonic() + seconds
        while True:
            doc = run_pass(args.workload, args.seed, workdir, threads, deadline, mode)
            passes.append(dict(doc, role=role))
            now = time.monotonic()
            if "error" in doc or now >= phase_end or now + 2 * doc["wall_s"] > deadline:
                break
    setups = [run_pass(args.workload, args.seed, workdir, threads, deadline,
                       "--setup-only") for _ in range(EXTRA_SETUPS)]
    return passes, [d["setup_s"] for d in setups if "error" not in d]


def gate(ops, passes):
    """Findings per (pass index, op id); an empty dict means every output is right."""
    findings = defaultdict(list)
    first = {}
    for index, doc in enumerate(passes):
        if "error" in doc:
            for op in ops:
                findings[index, op.id].append(doc["error"])
            continue
        for rec in doc["ops"]:
            findings[index, rec["id"]].extend(rec["problems"])
            ref_index, ref = first.setdefault(rec["id"], (index, doc))
            ref_rec = next(r for r in ref["ops"] if r["id"] == rec["id"])
            if rec["sha256"] != ref_rec["sha256"]:
                settings = [f"{d['threads']} BLAS threads"
                            + (", traced" if d["traced"] else "") for d in (ref, doc)]
                findings[index, rec["id"]].append(
                    f"output differs from pass {ref_index} "
                    f"({settings[0]} vs {settings[1]})")
    return {key: found for key, found in findings.items() if found}


def measure(timed, traced, setups, bench):
    """Metric name -> value for this run, plus the description lines."""
    per_op, per_sub = defaultdict(list), defaultdict(list)
    for doc in timed:
        sums = defaultdict(float)
        for rec in doc["ops"]:
            per_op[rec["id"]].append(rec["seconds"])
            sums[rec["subcommand"]] += rec["seconds"]
        for sub, value in sums.items():
            per_sub[sub].append(value)
    samples = {
        "setup_s": ([d["setup_s"] for d in timed] + setups, "s"),
        "pass_s": ([d["pass_s"] for d in timed], "s"),
        "peak_rss_mb": ([d["peak_rss_mb"] for d in timed], "MB"),
    }
    samples.update({f"{sub}_s": (per_sub[sub], "s") for sub in spec.SUBCOMMANDS
                    if sub in per_sub})
    values = {name: median(v) for name, (v, _) in samples.items()}
    # The end-to-end times are wall times scaled to the reference speed: the
    # calibration measured in the same passes cancels the machine's drift.
    calibration = [c for d in timed for c in d["calibration_s"]]
    scale = spec.REFERENCE_CALIBRATION_S / median(calibration)
    reference = {name: values[name] * scale for name in ("setup_s", "pass_s")}
    values["cli.fail_ratio"] = fmean(
        sum(rec["exit"] != 0 for rec in d["ops"]) / len(d["ops"]) for d in timed)
    lines = []
    for rec in timed[-1]["ops"]:
        times = per_op[rec["id"]]
        verdict = {0: "pass", 1: "fail"}.get(rec["exit"], rec["exit"])
        lines.append(f"op {rec['id']} verdict={verdict} median_s={median(times):.6g} "
                     f"max_s={max(times):.6g} n={len(times)} sha256={rec['sha256']}")
    lines.append(f"calibration median={median(calibration):.6g} "
                 f"n={len(calibration)} s; reference scale={scale:.6g}")
    for name, (v, unit) in samples.items():
        scaled = f" reference={reference[name]:.6g}" if name in reference else ""
        lines.append(f"metric {name} median={median(v):.6g} max={max(v):.6g} "
                     f"n={len(v)} {unit}{scaled}")
    lines.append(f"metric cli.fail_ratio {values['cli.fail_ratio']:.6g} ratio")

    wanted, values = bench["end_to_end"], dict(values, **reference)
    if traced:
        for key in traced[0]["layers"]:
            values[key] = median(d["layers"][key] for d in traced)
        values["trace.overhead"] = (median(d["pass_s"] for d in traced)
                                    / median(d["pass_s"] for d in timed))
        for sub in spec.SUBCOMMANDS:
            values.setdefault(f"{sub}_s", 0.0)
        wanted = bench["per_layer"]
        lines.append(f"metric trace.coverage {values['trace.coverage']:.6g} ratio")
        lines.append(f"metric trace.overhead {values['trace.overhead']:.6g} ratio")
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in wanted}
    return metrics, lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(spec.WORKLOADS))
    parser.add_argument("--seed", type=int, default=spec.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "flipchain" / "cli.py").is_file():
        print("perfbench: no flipchain sources at ./src/flipchain; "
              "run from the root of a flipchain checkout", file=sys.stderr)
        return 2
    bench = json.loads((root / "BENCHMARK.json").read_text())

    # On SIGTERM, unwind: subprocess.run kills and reaps the running pass,
    # and the finally below removes the work directory.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    cores = len(os.sched_getaffinity(0))
    scratch = root / WORK_DIR
    scratch.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=scratch)
    try:
        passes, setups = run_passes(args, workdir, cores)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        if not any(scratch.iterdir()):
            scratch.rmdir()

    ops = spec.WORKLOADS[args.workload]
    findings = gate(ops, passes)
    good = [d for d in passes if "error" not in d]
    timed = [d for d in good if d["role"] == "timed"]
    traced = [d for d in good if d["role"] == "traced"]
    env = {
        "nproc": cores,
        "blas_threads": {"timed": min(spec.TIMED_BLAS_THREADS, cores),
                         "check": min(spec.CHECK_BLAS_THREADS, cores)},
        "thread_env": {var: os.environ.get(var) for var in spec.THREAD_VARS},
        **(good[0]["env"] if good else {}),
    }
    print(f"perfbench workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace} passes={len(passes)}")
    print("env " + json.dumps(env, sort_keys=True))
    metrics = {}
    if timed and (traced or not args.trace):
        metrics, lines = measure(timed, traced, setups, bench)
        print("\n".join(lines))
    for op in ops:
        if op.known_failure is not None:
            print(f"known failure {op.id}: {op.known_failure.cause}")
    for (index, op_id), found in sorted(findings.items()):
        for finding in found:
            print(f"gate FAIL pass {index} {op_id}: {finding}")
    attempted = len(ops) * len(passes)
    print(f"gate: {len(findings)} of {attempted} operations failed")
    print(json.dumps({
        "correct": not findings and bool(metrics),
        "attempted": attempted,
        "failed": len(findings),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
