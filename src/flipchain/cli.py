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
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .algebra import (
    apply,
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
    NotComposable,
)
from .groupoid import FlipWord, axioms_report, e
from .ising import (
    NonCocyclePerturbation,
    TransitionEnergy,
    attained_spectrum,
    heisenberg_equivalence_check,
    modular_spectrum_points,
)
from .matrices import gns_compare_random
from .measures import (
    Bernoulli,
    CylinderFunction,
    IsingBoltzmann,
    integrate,
    parse_lambda,
    partition_report,
    pushforward_projection_check,
    translation_covariance_check,
)
from .sampling import random_algebra_element, random_word, rng_for

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
    fmt: str = "json"
    out: str | None = None
    lam_given: bool = False

    def validate(self):
        if self.depth < self.n:
            raise InvalidSpec(f"depth {self.depth} below horizon {self.n}")
        if not self.tol > 0:
            raise InvalidSpec(f"tolerance must be positive, got {self.tol}")
        if self.trials < 1:
            raise InvalidSpec(f"trials must be >= 1, got {self.trials}")
        if self.measure_kind not in ("bernoulli", "ising"):
            raise InvalidSpec(f"unknown measure kind {self.measure_kind!r}")

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


def config_from_args(args) -> RunConfig:
    cfg = RunConfig()
    if args.config:
        with open(args.config) as fh:
            doc = json.load(fh)
        known = {"measure", "n", "depth", "trials", "seed", "tol", "format", "out"}
        stray = sorted(set(doc) - known)
        if stray:
            raise InvalidSpec(f"unknown config keys: {', '.join(stray)}")
        measure = doc.get("measure")
        if measure is not None:
            stray = sorted(set(measure) - {"kind", "lambda", "J"})
            if stray:
                raise InvalidSpec(f"unknown measure keys: {', '.join(stray)}")
            cfg.measure_kind = measure.get("kind", cfg.measure_kind)
            if "lambda" in measure:
                cfg.lam = parse_lambda(measure["lambda"])
                cfg.lam_given = True
            if "J" in measure:
                cfg.J = float(measure["J"])
        for key in ("n", "depth", "trials", "seed"):
            if key in doc:
                setattr(cfg, key, int(doc[key]))
        if "tol" in doc:
            cfg.tol = float(doc["tol"])
        if "format" in doc:
            cfg.fmt = str(doc["format"])
        if "out" in doc:
            cfg.out = doc["out"]
    if args.measure is not None:
        cfg.measure_kind = args.measure
    if args.lam is not None:
        cfg.lam = parse_lambda(args.lam)
        cfg.lam_given = True
    if args.J is not None:
        cfg.J = args.J
    for key in ("n", "depth", "trials", "seed", "tol"):
        val = getattr(args, key)
        if val is not None:
            setattr(cfg, key, val)
    if args.format is not None:
        cfg.fmt = args.format
    if args.out is not None:
        cfg.out = args.out
    cfg.validate()
    return cfg


def cmd_axioms(cfg: RunConfig):
    report = axioms_report(cfg.n)
    # wall time would break byte-identical reports for equal configs
    del report["elapsed_seconds"]
    failure = None
    if report["violations"]:
        failure = {
            "invariant": "groupoid axioms",
            "witness": {"violations": report["violations"]},
        }
    return report, failure


def cmd_haar(cfg: RunConfig):
    spec = cfg.spec()
    rows = []
    worst = 0.0
    witness = None
    for mask in range(1 << cfg.n):
        rep = translation_covariance_check(spec, FlipWord(mask), cfg.depth)
        rows.append(rep)
        if rep["max_rel_deviation"] > worst:
            worst = rep["max_rel_deviation"]
            witness = rep["word"]
    proj = [
        pushforward_projection_check(spec, cfg.depth, k)
        for k in range(1, cfg.depth)
    ]
    proj_worst = max(p["max_abs_deviation"] for p in proj)
    report = {
        "measure": spec.to_json(),
        "n": cfg.n,
        "depth": cfg.depth,
        "covariance": rows,
        "projection": proj,
        "max_rel_deviation": worst,
        "max_projection_deviation": proj_worst,
    }
    failure = None
    if worst > cfg.tol:
        failure = {"invariant": "measure covariance", "witness": {"word": witness}}
    elif proj_worst > cfg.tol:
        failure = {"invariant": "marginal consistency", "witness": None}
    return report, failure


def cmd_algebra(cfg: RunConfig):
    spec = cfg.spec()
    devs = {
        "associativity": 0.0,
        "involution_antihomomorphism": 0.0,
        "involution_involutive": 0.0,
        "polar_decomposition": 0.0,
        "flip_unitary": 0.0,
        "bound_violation": 0.0,
    }
    witness = {}
    for i in range(cfg.trials):
        rng = rng_for(cfg.seed, i)
        F = random_algebra_element(rng, cfg.depth, 3, horizon=cfg.n)
        G = random_algebra_element(rng, cfg.depth, 3, horizon=cfg.n)
        H = random_algebra_element(rng, cfg.depth, 3, horizon=cfg.n)
        psi = random_algebra_element(rng, cfg.depth, 2, horizon=cfg.n)

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
            "bound_violation": max(
                0.0,
                l2_norm(apply(F, psi), spec) - hahn_norm(F, spec) * l2_norm(psi, spec),
            ),
        }
        w = random_word(rng, cfg.n)
        if not w:
            w = e(1)
        V = pukanszky_V(w, spec)
        checks["flip_unitary"] = max(
            max_abs_diff(convolve(V, V), unit()),
            max_abs_diff(involution(V, spec), V),
        )
        for key, val in checks.items():
            if val > devs[key]:
                devs[key] = val
                witness[key] = i
    report = {
        "measure": spec.to_json(),
        "n": cfg.n,
        "depth": cfg.depth,
        "trials": cfg.trials,
        "seed": cfg.seed,
        "max_deviations": devs,
    }
    failure = None
    for key, val in devs.items():
        if val > cfg.tol:
            failure = {
                "invariant": key,
                "witness": {"trial": witness.get(key)},
            }
            break
    return report, failure


def cmd_glimm(cfg: RunConfig):
    report = gns_compare_random(cfg.n, cfg.trials, float(cfg.lam), cfg.seed)
    failure = None
    if report["max_abs_deviation"] > cfg.tol:
        failure = {
            "invariant": "state equality between matrix and groupoid sides",
            "witness": {"seed": cfg.seed},
        }
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
    from .algebra import AlgebraElement

    return AlgebraElement(
        {word: CylinderFunction.constant(1.0, word.horizon)}
    )


def cmd_trace(cfg: RunConfig):
    lams = [cfg.lam] if cfg.lam_given else list(TRACE_SWEEP)
    rows = []
    failure = None
    for lam in lams:
        spec = Bernoulli(lam)
        if float(lam) == 0.5:
            worst = 0.0
            for i in range(cfg.trials):
                rng = rng_for(cfg.seed, i)
                F = random_algebra_element(rng, cfg.depth, 3, horizon=cfg.n)
                G = random_algebra_element(rng, cfg.depth, 3, horizon=cfg.n)
                dev = abs(
                    complex(canonical_weight(convolve(F, G), spec))
                    - complex(canonical_weight(convolve(G, F), spec))
                )
                worst = max(worst, dev)
            row = {
                "lambda": float(lam),
                "mode": "tracial",
                "max_commutator_deviation": worst,
                "passed": worst <= cfg.tol,
            }
            if not row["passed"] and failure is None:
                failure = {
                    "invariant": "trace property at the symmetric point",
                    "witness": {"lambda": 0.5},
                }
        else:
            wit = _trace_witness(spec)
            passed = wit["violation"] >= wit["floor"] - cfg.tol
            row = {"lambda": float(lam), "mode": "witness", **wit, "passed": passed}
            if not passed and failure is None:
                failure = {
                    "invariant": "trace violation witness fell below its floor",
                    "witness": {"lambda": float(lam)},
                }
        rows.append(row)
    report = {
        "trials": cfg.trials,
        "seed": cfg.seed,
        "sweep": rows,
    }
    return report, failure


def _real_cylinder(rng, depth: int) -> CylinderFunction:
    return CylinderFunction(depth, rng.standard_normal(1 << depth))


def _random_seeds(cfg: RunConfig):
    return [_real_cylinder(rng_for(cfg.seed, k), cfg.depth) for k in range(cfg.n)]


def cmd_dfs_build(cfg: RunConfig):
    seeds = _random_seeds(cfg)
    S = dfs_build(cfg.n, seeds, cfg.depth)
    check = dfs_check(S, cfg.tol)
    report = {
        "n": cfg.n,
        "depth": cfg.depth,
        "seed": cfg.seed,
        "check": check,
        "table": dfs_to_json(S),
    }
    failure = None
    if not check["passed"]:
        failure = {
            "invariant": "additive chain identities of the built table",
            "witness": {"max_violation": check["max_violation"]},
        }
    return report, failure


def cmd_dfs_check(cfg: RunConfig, table_path: str | None):
    if table_path:
        with open(table_path) as fh:
            doc = json.load(fh)
        # accept a bare table, a report with a table, or a full payload
        if isinstance(doc, dict) and "table" not in doc and "report" in doc:
            doc = doc["report"]
        if isinstance(doc, dict) and "table" in doc:
            doc = doc["table"]
        S = dfs_from_json(doc)
        source = table_path
    else:
        S = dfs_build(cfg.n, _random_seeds(cfg), cfg.depth)
        source = "built from config seeds"
    check = dfs_check(S, cfg.tol)
    report = {"source": source, "check": check}
    failure = None
    if not check["passed"]:
        failure = {
            "invariant": "additive chain identities",
            "witness": {"max_violation": check["max_violation"]},
        }
    return report, failure


def cmd_ising_partition(cfg: RunConfig):
    report = partition_report(cfg.J, cfg.n, cfg.tol)
    failure = None
    if report["rel_dev_brute_recursion"] > cfg.tol:
        failure = {
            "invariant": "brute force vs transfer recursion",
            "witness": {"J": cfg.J, "n": cfg.n},
        }
    elif report["ratio_identity_max_rel_dev"] > cfg.tol:
        failure = {
            "invariant": "partition ratio identity",
            "witness": {"J": cfg.J, "n": cfg.n},
        }
    return report, failure


def cmd_ising_dynamics(cfg: RunConfig):
    depth = max(cfg.depth, cfg.n + 1)
    energy = TransitionEnergy(cfg.J)
    broken = NonCocyclePerturbation(energy)
    runs = []
    worst = 0.0
    norm_worst = 0.0
    broken_min = math.inf
    for i, t in enumerate(DYNAMICS_TIMES):
        rng = rng_for(cfg.seed, i)
        F = random_algebra_element(rng, depth, 3, horizon=cfg.n)
        psi = random_algebra_element(rng, depth, 2, horizon=cfg.n)
        rep = heisenberg_equivalence_check(F, psi, t, cfg.J)
        runs.append(rep)
        worst = max(worst, rep["max_deviation"])
        norm_worst = max(
            norm_worst,
            abs(rep["norms_before"]["l2"] - rep["norms_after"]["l2"]),
            abs(rep["norms_before"]["hahn"] - rep["norms_after"]["hahn"]),
        )
        # The defect of the broken energy lives on products whose factors
        # both touch site 1; pin such words so the control cannot pass by a
        # lucky draw.
        Fb = F + _one_at(e(1))
        psib = psi + _one_at(e(1))
        perturbed = heisenberg_equivalence_check(Fb, psib, t, cfg.J, energy=broken)
        broken_min = min(broken_min, perturbed["max_deviation"])
    report = {
        "J": cfg.J,
        "times": list(DYNAMICS_TIMES),
        "seed": cfg.seed,
        "runs": runs,
        "max_deviation": worst,
        "max_norm_drift": norm_worst,
        "non_cocycle_min_deviation": broken_min,
    }
    failure = None
    if worst > cfg.tol:
        failure = {
            "invariant": "phase flow equals conjugated product",
            "witness": {"max_deviation": worst},
        }
    elif norm_worst > cfg.tol:
        failure = {
            "invariant": "norm preservation under the flow",
            "witness": {"max_norm_drift": norm_worst},
        }
    elif broken_min <= 1e-3:
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
    failure = None
    if not attained["matches_window"]:
        failure = {
            "invariant": "attained lattice window",
            "witness": {"attained_k": attained["attained_k"]},
        }
    return report, failure


COMMANDS = {
    "axioms": cmd_axioms,
    "haar": cmd_haar,
    "algebra": cmd_algebra,
    "glimm": cmd_glimm,
    "trace": cmd_trace,
    "dfs-build": cmd_dfs_build,
    "ising-partition": cmd_ising_partition,
    "ising-dynamics": cmd_ising_dynamics,
    "spectrum": cmd_spectrum,
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
    for name in list(COMMANDS) + ["dfs-check"]:
        p = sub.add_parser(name, help=f"run the {name} checks")
        p.add_argument("--config", help="JSON config file; flags override it")
        p.add_argument("--measure", choices=["bernoulli", "ising"])
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
        if name == "dfs-check":
            p.add_argument("table", nargs="?", help="table JSON to verify")
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
        if args.subcommand == "dfs-check":
            report, failure = cmd_dfs_check(cfg, args.table)
        else:
            report, failure = COMMANDS[args.subcommand](cfg)
    except (InvariantViolation, NotComposable) as err:
        report = {"error": str(err)}
        failure = {"invariant": str(err), "witness": None}
    except FlipchainError as err:
        print(f"config error: {err}", file=sys.stderr)
        return 2
    except OSError as err:
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
    text = render_csv(payload) if cfg.fmt == "csv" else render_json(payload)
    if cfg.out:
        with open(cfg.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return 0 if failure is None else 1


if __name__ == "__main__":
    sys.exit(main())
