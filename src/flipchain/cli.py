"""Command-line harness: every verification as a subcommand with reports.

Reports are canonical JSON (sorted keys, two-space indent) or a flat CSV
projection; identical config and seed give byte-identical output.  Exit
status: 0 all checks pass, 1 an invariant is violated (the report carries a
failure record naming it and the witness), 2 usage or configuration errors.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import sys
from dataclasses import dataclass, fields
from fractions import Fraction
from functools import reduce

import numpy as np

from .algebra import (
    AlgebraElement,
    canonical_weight,
    convolve,
    hahn_norm,
    involution,
    l2_norm,
    max_abs_diff,
    modular_conjugation,
    modular_operator_pow,
    pukanszky_V,
    unit,
)
from .dfs import dfs_build, dfs_check, dfs_from_json, dfs_to_json
from .errors import (
    DegenerateSpectrum,
    FlipchainError,
    InvalidSpec,
    InvariantViolation,
)
from .groupoid import FlipWord, axioms_report, check_depth, e
from .ising import (
    NonCocyclePerturbation,
    attained_spectrum,
    heisenberg_equivalence_check,
    modular_spectrum_points,
)
from .matrices import gns_deviations
from .measures import (
    Bernoulli,
    CylinderFunction,
    IsingBoltzmann,
    _worse,
    check_fits,
    integrate,
    parse_lambda,
    partition_report,
    pushforward_projection_check,
    translation_covariance_check,
    worst_by_check,
)
from .sampling import random_algebra_element, random_cylinder, random_word, rng_for

TRACE_SWEEP = (0.2, 0.3, 0.4, 0.5)
DYNAMICS_TIMES = (0.37, 1.0, math.pi)


@dataclass
class RunConfig:
    measure_kind: str = "bernoulli"
    lam: object = 0.3
    J: float = 1.0
    n: int = 4
    depth: int = 6
    trials: int = 1000
    seed: int = 0
    tol: float = 1e-12
    format: str = "json"
    out: str | None = None
    table: str | None = None  # the table file dfs-check reads
    given: frozenset = frozenset()  # the fields a flag or the config file set

    def validate(self):
        if self.n < 0:
            raise InvalidSpec(f"horizon must be >= 0, got {self.n}")
        if self.depth < self.n:
            raise InvalidSpec(f"depth {self.depth} below horizon {self.n}")
        check_depth(self.depth)
        if not (self.tol > 0 and math.isfinite(self.tol)):
            raise InvalidSpec(f"tolerance must be positive and finite, got {self.tol}")
        if not math.isfinite(self.J):
            raise InvalidSpec(f"J must be finite, got {self.J}")
        if self.trials < 1:
            raise InvalidSpec(f"trials must be >= 1, got {self.trials}")
        if not -(1 << 63) <= self.seed < 1 << 63:
            raise InvalidSpec(f"seed must lie in [-2**63, 2**63), got {self.seed}")
        if self.measure_kind not in ("bernoulli", "ising"):
            raise InvalidSpec(f"unknown measure kind {self.measure_kind!r}")
        if self.format not in ("json", "csv"):
            raise InvalidSpec(f"unknown report format {self.format!r}")

    def spec(self):
        if self.measure_kind == "ising":
            return IsingBoltzmann(self.J)
        return Bernoulli(self.lam)

    def echo(self) -> dict:
        lam = str(self.lam) if isinstance(self.lam, Fraction) else float(self.lam)
        return {
            "measure": self.measure_kind,
            "lambda": lam,
            "J": float(self.J),
            "n": self.n,
            "depth": self.depth,
            "trials": self.trials,
            "seed": self.seed,
            "tol": self.tol,
        }


# Config-file keys: the RunConfig field each one sets and the type its value
# must have, the type its flag takes (lambda is parsed as its flag is).  The
# "measure" object has no field; it holds the keys of its own table.
MEASURE_KEYS = {"kind": ("measure_kind", str), "lambda": ("lam", parse_lambda),
                "J": ("J", float)}
CONFIG_KEYS = {"measure": (None, MEASURE_KEYS),
               **{key: (key, int) for key in ("n", "depth", "trials", "seed")},
               "tol": ("tol", float), "format": ("format", str), "out": ("out", str)}


def _file_values(doc, keys: dict, where: str) -> dict:
    """The fields a config-file object sets, each value checked as it is read."""
    if not isinstance(doc, dict):
        raise InvalidSpec(f"{where} must be a JSON object, got {doc!r}")
    stray = sorted(set(doc) - keys.keys())
    if stray:
        raise InvalidSpec(f"unknown {where} keys: {', '.join(stray)}")
    values = {}
    for key, value in doc.items():
        field, kind = keys[key]
        if field is None:
            values.update(_file_values(value, kind, f"config {key!r}"))
        elif kind is parse_lambda:
            values[field] = parse_lambda(value)
        elif isinstance(value, bool) or not isinstance(  # JSON booleans are ints
                value, (int, float) if kind is float else kind):
            raise InvalidSpec(f"config key {key!r} needs a {kind.__name__}, got {value!r}")
        else:
            values[field] = kind(value)
    return values


def config_from_args(args) -> RunConfig:
    values = {}
    if args.config:
        with open(args.config) as fh:
            values = _file_values(json.load(fh), CONFIG_KEYS, "config file")
    for field in fields(RunConfig):
        flag = getattr(args, field.name, None)
        if flag is not None:
            values[field.name] = parse_lambda(flag) if field.name == "lam" else flag
    cfg = RunConfig(**values, given=frozenset(values))
    cfg.validate()
    kinds = MEASURE_KINDS[args.subcommand]
    if "measure_kind" in cfg.given and cfg.measure_kind not in kinds:
        raise InvalidSpec(
            f"{args.subcommand} does not check the {cfg.measure_kind} measure")
    if len(kinds) > 1:  # haar and algebra check the one measure the config names
        kinds = (cfg.measure_kind,)
    for field, kind, name in (("lam", "bernoulli", "lambda"), ("J", "ising", "J")):
        if field in cfg.given and kind not in kinds:
            raise InvalidSpec(
                f"{args.subcommand} checks no {kind} measure, so it does not read {name}")
    if "trials" in cfg.given and args.subcommand not in ("algebra", "glimm", "trace"):
        raise InvalidSpec(f"{args.subcommand} runs no --trials trials, so it does not read trials")
    # the subcommands that build float delta tables, at the depth their kernels
    # lift to (an Ising word of horizon n needs n + 1), before any table is
    # built; haar keeps an exact measure's tables as integers
    if args.subcommand in ("haar", "algebra", "trace", "ising-dynamics"):
        spec = IsingBoltzmann(cfg.J) if kinds[0] == "ising" else Bernoulli(cfg.lam)
        if not (args.subcommand == "haar" and spec.exact):
            check_fits(spec, max(cfg.depth, spec.min_delta_depth(FlipWord((1 << cfg.n) - 1))))
    if args.subcommand == "glimm":  # the matrix side runs in float64
        cfg.lam = float(cfg.lam)
    return cfg


def _first_failure(tol: float, *checks):
    """The failure record of the first check whose deviation is not within tol.

    Each check is (invariant, deviation, witness); NaN never passes.
    """
    for invariant, dev, witness in checks:
        if not dev <= tol:
            return {"invariant": invariant, "witness": witness}
    return None


def cmd_axioms(cfg: RunConfig):
    report = axioms_report(cfg.n)
    # wall time would break byte-identical reports for equal configs
    del report["elapsed_seconds"]
    bad = report["violations"]
    return report, _first_failure(0, ("groupoid axioms", bad, {"violations": bad}))


def cmd_haar(cfg: RunConfig):
    spec = cfg.spec()
    rows = [
        translation_covariance_check(spec, FlipWord(mask), cfg.depth)
        for mask in range(1 << cfg.n)
    ]
    worst, witness = worst_by_check(
        (rep["word"], {"covariance": rep["max_rel_deviation"]}) for rep in rows
    )
    proj = [
        pushforward_projection_check(spec, cfg.depth, k)
        for k in range(1, cfg.depth)
    ]
    proj_worst = reduce(_worse, (p["max_abs_deviation"] for p in proj), 0.0)
    report = {
        "measure": spec.to_json(),
        "n": cfg.n,
        "depth": cfg.depth,
        "covariance": rows,
        "projection": proj,
        "max_rel_deviation": worst["covariance"],
        "max_projection_deviation": proj_worst,
    }
    failure = _first_failure(
        cfg.tol,
        ("measure covariance", worst["covariance"], {"word": witness.get("covariance")}),
        ("marginal consistency", proj_worst, None),
    )
    return report, failure


# Randomized subcommands check their trials in chunks of at most this many
# table entries (trials times 2**depth, at least one trial): algebra, trace and
# glimm's algebra side as one batch per drawn element or term factor (glimm's
# tables reach depth n, which sizes its chunks), ising-dynamics one trial at a
# time.  Trial i still draws from rng_for(seed, i), and the reports do not
# depend on the chunk size: it trades the fixed Python cost of each kernel call
# (one delta table per distinct word, among others) against the size of the
# working set.  A sweep of algebra-random on a 2-core VM (BENCH_chunk.json) put
# pass_s at 2.08, 1.80, 1.77 and 1.54 reference s for 2**9 .. 2**12, and peak
# RSS at +1.8%, +6.0% and +16.7% over 2**9.  2**12 is past +10% of RSS, and ten
# alternating pairs did not tell 2**11 from 2**10 in pass_s (8 wins of 10,
# medians 0.034 s apart against an IQR of 0.049 s), so the smaller working set
# is kept.
CHUNK_ENTRIES = 1 << 10


def _chunks(depth: int, count: int):
    size = max(1, CHUNK_ENTRIES >> depth)
    for start in range(0, count, size):
        yield range(start, min(start + size, count))


def _run_trials(cfg: RunConfig, check, count=None, depth=None):
    """Worst deviation per check over trials 0..count-1, and its witness trial.

    check(trials) gives one {check: deviation} per trial of a chunk, keys in
    report order; count defaults to cfg.trials, and the depth of the trials'
    tables, which sizes the chunks, to cfg.depth.
    """
    return worst_by_check(
        row for trials in _chunks(cfg.depth if depth is None else depth,
                                  cfg.trials if count is None else count)
        for row in zip(trials, check(trials)))


def _draw(rng, depth: int, n: int, *words):
    """One random element per word count, drawn from rng in that order."""
    return [random_algebra_element(rng, depth, k, horizon=n) for k in words]


def _batches(draws):
    """One batch per position of the per-trial tuples of lone elements."""
    return [AlgebraElement.batch(column) for column in zip(*draws)]


def cmd_algebra(cfg: RunConfig):
    spec = cfg.spec()

    def draw(i):
        rng = rng_for(cfg.seed, i)
        return _draw(rng, cfg.depth, cfg.n, 3, 3, 3, 2), random_word(rng, cfg.n) or e(1)

    def chunk(trials):
        elements, words = zip(*map(draw, trials))
        F, G, H, psi = _batches(elements)
        del elements  # copied into the batches
        V = pukanszky_V(words, spec)
        one = AlgebraElement.batch([unit()] * len(trials))
        # the key order is the order failures are reported in
        checks = {
            "associativity": max_abs_diff(
                convolve(convolve(F, G), H), convolve(F, convolve(G, H))
            ),
            "involution_antihomomorphism": max_abs_diff(
                involution(convolve(F, G), spec),
                convolve(involution(G, spec), involution(F, spec)),
            ),
            "involution_involutive": max_abs_diff(
                involution(involution(F, spec), spec), F
            ),
            "polar_decomposition": max_abs_diff(
                involution(F, spec),
                modular_conjugation(modular_operator_pow(F, 0.5, spec), spec),
            ),
            "flip_unitary": list(map(
                _worse,
                max_abs_diff(convolve(V, V), one),
                max_abs_diff(involution(V, spec), V),
            )),
            "bound_violation": [
                _worse(0.0, fpsi - hahn * norm)
                for fpsi, hahn, norm in zip(l2_norm(convolve(F, psi), spec),
                                            hahn_norm(F, spec), l2_norm(psi, spec))
            ],
        }
        return [dict(zip(checks, devs)) for devs in zip(*checks.values())]

    devs, witness = _run_trials(cfg, chunk)
    report = {
        "measure": spec.to_json(),
        "n": cfg.n,
        "depth": cfg.depth,
        "trials": cfg.trials,
        "seed": cfg.seed,
        "max_deviations": devs,
    }
    failure = _first_failure(
        cfg.tol, *((key, val, {"trial": witness.get(key)}) for key, val in devs.items())
    )
    return report, failure


def cmd_glimm(cfg: RunConfig):
    if not 1 <= cfg.n <= 8:
        raise InvalidSpec(f"n={cfg.n} outside 1..8 for dense 2**n matrices")
    spec = cfg.spec()

    def check(trials):
        rngs = [rng_for(cfg.seed, i) for i in trials]
        return [{"state": dev} for dev in gns_deviations(rngs, cfg.n, spec)]

    # the images reach depth n at most, whatever --depth says
    worst = _run_trials(cfg, check, depth=cfg.n)[0]["state"]
    report = {
        "n": cfg.n,
        "lambda": cfg.lam,
        "trials": cfg.trials,
        "max_abs_deviation": worst,
        "seed": cfg.seed,
    }
    failure = _first_failure(cfg.tol, (
        "state equality between matrix and groupoid sides", worst, {"seed": cfg.seed}))
    return report, failure


def _trace_witness(spec) -> dict:
    """Weight asymmetry of the element supported on the first-site flip."""
    word = e(1)
    witness = _one_at(word)
    adj = involution(witness, spec)
    forward = canonical_weight(convolve(witness, adj), spec)
    backward = canonical_weight(convolve(adj, witness), spec)
    d = spec.min_delta_depth(word)
    floor = abs(
        float(integrate(spec, CylinderFunction(d, spec.delta_table(word, d))))
        - float(integrate(spec, CylinderFunction(d, spec.delta_inv_table(word, d))))
    )
    return {
        "violation": abs(float(forward) - float(backward)),
        "floor": floor,
        "forward": float(forward),
        "backward": float(backward),
    }


def _one_at(word: FlipWord):
    return AlgebraElement(
        {word: CylinderFunction.constant(1.0, word.horizon)}
    )


def cmd_trace(cfg: RunConfig):
    lams = [cfg.lam] if "lam" in cfg.given else list(TRACE_SWEEP)
    rows = []
    failure = None

    def commutators(trials, spec):
        F, G = _batches(_draw(rng_for(cfg.seed, i), cfg.depth, cfg.n, 3, 3) for i in trials)
        forward = canonical_weight(convolve(F, G), spec)
        backward = canonical_weight(convolve(G, F), spec)
        return [{"commutator": abs(complex(f) - complex(b))} for f, b in zip(forward, backward)]

    for lam in lams:
        spec = Bernoulli(lam)
        if float(lam) == 0.5:
            worst = _run_trials(cfg, lambda trials: commutators(trials, spec))[0]["commutator"]
            row = {"lambda": float(lam), "mode": "tracial", "max_commutator_deviation": worst}
            check = ("trace property at the symmetric point", worst)
        else:
            wit = _trace_witness(spec)
            row = {"lambda": float(lam), "mode": "witness", **wit}
            # the shortfall of the asymmetry below its floor
            check = ("trace violation witness fell below its floor",
                     wit["floor"] - wit["violation"])
        row_failure = _first_failure(cfg.tol, (*check, {"lambda": float(lam)}))
        row["passed"] = row_failure is None
        failure = failure or row_failure
        rows.append(row)
    report = {
        "trials": cfg.trials,
        "seed": cfg.seed,
        "sweep": rows,
    }
    return report, failure


def _random_table(cfg: RunConfig):
    seeds = [
        random_cylinder(rng_for(cfg.seed, k), cfg.depth, complex_values=False)
        for k in range(cfg.n)
    ]
    return dfs_build(cfg.n, seeds, cfg.depth)


def _dfs_verdict(S, tol: float, invariant: str):
    """The one check of a DFS table, and its failure record under tol."""
    check = dfs_check(S, tol)
    dev = check["max_violation"]
    return check, _first_failure(tol, (invariant, dev, {"max_violation": dev}))


def cmd_dfs_build(cfg: RunConfig):
    S = _random_table(cfg)
    check, failure = _dfs_verdict(S, cfg.tol, "additive chain identities of the built table")
    report = {
        "n": cfg.n,
        "depth": cfg.depth,
        "seed": cfg.seed,
        "check": check,
        "table": dfs_to_json(S),
    }
    return report, failure


def cmd_dfs_check(cfg: RunConfig):
    if cfg.table:
        try:
            with open(cfg.table, encoding="utf-8") as fh:
                doc = json.load(fh)
        except ValueError as err:  # not UTF-8, or not JSON
            raise InvalidSpec(f"{cfg.table} is not a JSON document: {err}") from err
        # accept a bare table, a report with a table, or a full payload
        if isinstance(doc, dict) and "table" not in doc and "report" in doc:
            doc = doc["report"]
        if isinstance(doc, dict) and "table" in doc:
            doc = doc["table"]
        S = dfs_from_json(doc)
        source = cfg.table
    else:
        S = _random_table(cfg)
        source = "built from config seeds"
    check, failure = _dfs_verdict(S, cfg.tol, "additive chain identities")
    return {"source": source, "check": check}, failure


def cmd_ising_partition(cfg: RunConfig):
    report = partition_report(cfg.J, cfg.n, cfg.tol)
    witness = {"J": cfg.J, "n": cfg.n}
    failure = _first_failure(
        cfg.tol,
        ("brute force vs transfer recursion", report["rel_dev_brute_recursion"], witness),
        ("partition ratio identity", report["ratio_identity_max_rel_dev"], witness),
    )
    return report, failure


def cmd_ising_dynamics(cfg: RunConfig):
    depth = max(cfg.depth, cfg.n + 1)
    # not cfg.spec(): without --measure that is the default Bernoulli measure
    spec = IsingBoltzmann(cfg.J)
    broken = NonCocyclePerturbation(spec)

    runs, broken_devs = [], []  # per trial, beside the fold

    def flow(i):
        F, psi = _draw(rng_for(cfg.seed, i), depth, cfg.n, 3, 2)
        t = DYNAMICS_TIMES[i]
        rep = heisenberg_equivalence_check(F, psi, t, spec)
        # The defect of the broken energy lives on products whose factors
        # both touch site 1; pin such words so the control cannot pass by a
        # lucky draw.
        Fb = F + _one_at(e(1))
        psib = psi + _one_at(e(1))
        perturbed = heisenberg_equivalence_check(Fb, psib, t, spec, energy=broken)
        runs.append(rep)
        broken_devs.append(perturbed["max_deviation"])
        return {
            "max_deviation": rep["max_deviation"],
            "max_norm_drift": _worse(
                abs(rep["norms_before"]["l2"] - rep["norms_after"]["l2"]),
                abs(rep["norms_before"]["hahn"] - rep["norms_after"]["hahn"]),
            ),
        }

    worst, _ = _run_trials(cfg, lambda trials: list(map(flow, trials)), len(DYNAMICS_TIMES))
    broken_min = float(np.min(broken_devs))  # NaN if any is, unlike min()
    report = {
        "J": cfg.J,
        "times": list(DYNAMICS_TIMES),
        "seed": cfg.seed,
        "runs": runs,
        **worst,  # max_deviation and max_norm_drift
        "non_cocycle_min_deviation": broken_min,
    }
    dev, drift = worst["max_deviation"], worst["max_norm_drift"]
    failure = _first_failure(
        cfg.tol,
        ("phase flow equals conjugated product", dev, {"max_deviation": dev}),
        ("norm preservation under the flow", drift, {"max_norm_drift": drift}),
    )
    if failure is None and not broken_min > 1e-3:
        failure = {
            "invariant": "non-cocycle control must visibly break the equivalence",
            "witness": {"non_cocycle_min_deviation": broken_min},
        }
    return report, failure


def cmd_spectrum(cfg: RunConfig):
    horizon = cfg.n
    try:
        points = modular_spectrum_points(cfg.lam, horizon)
    except DegenerateSpectrum:
        report = {
            "lambda": float(cfg.lam),
            "horizon": horizon,
            "degenerate": True,
            "points": [0.0],
        }
        return report, None
    attained = attained_spectrum(cfg.lam, horizon)
    report = {
        "lambda": float(cfg.lam),
        "horizon": horizon,
        "degenerate": False,
        "step": attained["step"],
        "points": sorted(points),
        "attained_k": attained["attained_k"],
        "matches_window": attained["matches_window"],
    }
    return report, _first_failure(0, ("attained lattice window", attained["mismatched"],
                                      {"attained_k": attained["attained_k"]}))


COMMANDS = {
    "axioms": cmd_axioms,
    "haar": cmd_haar,
    "algebra": cmd_algebra,
    "glimm": cmd_glimm,
    "trace": cmd_trace,
    "dfs-build": cmd_dfs_build,
    "dfs-check": cmd_dfs_check,
    "ising-partition": cmd_ising_partition,
    "ising-dynamics": cmd_ising_dynamics,
    "spectrum": cmd_spectrum,
}

# The measure kinds each subcommand checks; an explicitly given other kind
# (flag or config file) is refused rather than silently replaced, and so is a
# lambda or J that no checked measure reads.
MEASURE_KINDS = {
    **dict.fromkeys(("axioms", "dfs-build", "dfs-check"), ()),
    **dict.fromkeys(("haar", "algebra"), ("bernoulli", "ising")),
    **dict.fromkeys(("glimm", "trace", "spectrum"), ("bernoulli",)),
    **dict.fromkeys(("ising-partition", "ising-dynamics"), ("ising",)),
}


def _json_default(o):
    if isinstance(o, Fraction):
        return str(o)
    if isinstance(o, (np.integer,)):
        return int(o)
    if isinstance(o, (np.floating,)):
        return float(o)
    if isinstance(o, (np.bool_,)):
        return bool(o)
    raise TypeError(f"not JSON serializable: {type(o)}")


def render_json(report: dict) -> str:
    return json.dumps(report, sort_keys=True, indent=2, default=_json_default) + "\n"


def _flatten(prefix: str, value, out: dict):
    if isinstance(value, dict):
        for k in sorted(value):
            _flatten(f"{prefix}.{k}" if prefix else str(k), value[k], out)
    else:
        out[prefix] = json.dumps(value, sort_keys=True, default=_json_default)


def render_csv(report: dict) -> str:
    flat: dict = {}
    _flatten("", report, flat)
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(list(flat.keys()))
    writer.writerow(list(flat.values()))
    return buf.getvalue()


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="flipchain",
        description="Verification harness for the bit-flip chain groupoid.",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)
    for name in COMMANDS:
        p = sub.add_parser(name, help=f"run the {name} checks")
        p.add_argument("--config", help="JSON config file; flags override it")
        p.add_argument("--measure", dest="measure_kind", choices=["bernoulli", "ising"])
        p.add_argument("--lambda", dest="lam",
                       help="Bernoulli parameter; fractions like 3/10 run exact")
        p.add_argument("--J", type=float, help="Ising coupling")
        p.add_argument("--n", type=int, help="word horizon")
        p.add_argument("--depth", type=int, help="prefix truncation depth")
        p.add_argument("--trials", type=int, help="randomized trial count")
        p.add_argument("--seed", type=int, help="master seed")
        p.add_argument("--tol", type=float, help="pass/fail tolerance")
        p.add_argument("--format", choices=["json", "csv"])
        p.add_argument("--out", help="write the report here instead of stdout")
    sub.choices["dfs-check"].add_argument("table", nargs="?", help="table JSON to verify")
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = config_from_args(args)
    except (FlipchainError, OSError, json.JSONDecodeError, ValueError) as err:
        print(f"config error: {err}", file=sys.stderr)
        return 2
    try:
        report, failure = COMMANDS[args.subcommand](cfg)
    except InvariantViolation as err:
        report = {"error": str(err)}
        failure = {"invariant": str(err), "witness": None}
    except (FlipchainError, OSError) as err:
        print(f"config error: {err}", file=sys.stderr)
        return 2
    payload = {
        "subcommand": args.subcommand,
        "config": cfg.echo(),
        "report": report,
        "passed": failure is None,
    }
    if failure is not None:
        payload["failure"] = failure
    text = render_csv(payload) if cfg.format == "csv" else render_json(payload)
    if cfg.out:
        try:
            with open(cfg.out, "w") as fh:
                fh.write(text)
        except OSError as err:
            print(f"config error: {err}", file=sys.stderr)
            return 2
    else:
        sys.stdout.write(text)
    return 0 if failure is None else 1


if __name__ == "__main__":
    sys.exit(main())
