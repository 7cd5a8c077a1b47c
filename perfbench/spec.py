"""Workload definitions and the expected outcome of every operation.

A workload is a fixed list of verification operations run closed-loop by one
client in one process.  An operation is either one in-process
``flipchain.cli.main(argv)`` call (``argv`` below; the runner appends
``--seed``) or one library call (``argv`` is ``None``).  Placeholders in
``argv``: ``{out}`` is a scratch report file, ``{table}`` the table file made
at set-up.

The expected values below are seed-independent: they are what the
correctness gate in ``run.py`` holds every run to.
"""

from __future__ import annotations

from dataclasses import dataclass, field

DEFAULT_SEED = 0

# Timed passes run with one BLAS thread: on a machine with two shared cores a
# second thread adds spin-wait noise, and the workloads make little use of
# BLAS.  The untimed check pass runs with two threads (when there are two
# cores), so the gate sees whether any report depends on the thread count.
TIMED_BLAS_THREADS = 1
CHECK_BLAS_THREADS = 2
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

# End-to-end times are reported in reference seconds: wall seconds times
# REFERENCE_CALIBRATION_S over the run's median calibration time, that is, the
# time on a machine where `onepass.calibrate` takes 15 ms.  On a shared
# machine whose speed drifts by a third within minutes, this keeps the drift
# out of run-to-run comparisons; the wall times are printed too.
REFERENCE_CALIBRATION_S = 0.015

# The table that exists before the first timed operation of `exhaustive`:
# read back by `dfs-check` and used in memory by `cochain`.  n=6, depth 10 is
# the dfs-check size named in the ROADMAP's exhaustive-sweep item.
SETUP_TABLE_N = 6
SETUP_TABLE_DEPTH = 10
# Set-up table seeds are drawn from rng_for(seed, SETUP_SEED_OFFSET + k), so
# they never coincide with the per-site seeds `dfs-build` draws for itself.
SETUP_SEED_OFFSET = 1000
COCHAIN_TOL = 1e-12


def dfs_checks(n: int, depth: int) -> int:
    """Scalar checks `dfs_check` makes: zero entry, antisymmetry, two chains."""
    return (1 + (1 << n) + 2 * (1 << (2 * n))) << depth


@dataclass(frozen=True)
class KnownFailure:
    """An operation allowed to exit 1 because of a documented defect.

    It still has to fail the stated way: the named invariant, with every
    listed deviation at rounding level (at most ``ceiling``).  Exit 0 is also
    accepted, so the fix of the defect passes the gate.
    """

    cause: str
    invariants: tuple
    deviations: tuple  # dotted paths into the report; a trailing .* = all keys
    ceiling: float


@dataclass(frozen=True)
class Op:
    id: str
    subcommand: str
    argv: tuple | None
    expect: dict = field(default_factory=dict)  # dotted report path -> value
    known_failure: KnownFailure | None = None


ISING_ALGEBRA_CAUSE = (
    "ROADMAP open item 2: absolute 1e-12 tolerance on Ising-weighted values "
    "of size up to e^10; the involution identities hold to rounding")
ISING_NORM_CAUSE = (
    "ROADMAP open item 2: absolute 1e-12 tolerance on Hahn norms of size "
    "about 1e5; the norm is preserved to rounding")

WORKLOADS = {
    "algebra-random": (
        Op("algebra", "algebra", ("algebra",)),
        Op("algebra-n6-d10", "algebra",
           ("algebra", "--n", "6", "--depth", "10", "--trials", "100")),
        Op("algebra-exact", "algebra",
           ("algebra", "--lambda", "3/10", "--trials", "50")),
        Op("algebra-ising", "algebra",
           ("algebra", "--measure", "ising", "--trials", "300"),
           known_failure=KnownFailure(
               cause=ISING_ALGEBRA_CAUSE,
               invariants=("involution_antihomomorphism",
                           "involution_involutive", "polar_decomposition"),
               deviations=("report.max_deviations.*",),
               ceiling=1e-9,
           )),
        Op("trace", "trace", ("trace",)),
    ),
    "exhaustive": (
        Op("axioms-n4", "axioms", ("axioms", "--n", "4"),
           expect={"report.checks": 79648, "report.violations": 0}),
        Op("dfs-build-n7", "dfs_build",
           ("dfs-build", "--n", "7", "--depth", "11", "--out", "{out}"),
           expect={"report.check.checks": dfs_checks(7, 11)}),
        Op("dfs-check", "dfs_check", ("dfs-check", "{table}"),
           expect={"report.check.checks":
                   dfs_checks(SETUP_TABLE_N, SETUP_TABLE_DEPTH)}),
        Op("spectrum-n11", "spectrum", ("spectrum", "--n", "11", "--depth", "11"),
           expect={"report.attained_k": list(range(-11, 12))}),
        Op("ising-partition-n16", "ising_partition",
           ("ising-partition", "--n", "16", "--depth", "16")),
        Op("cochain", "cochain", None,
           expect={"delta_vanishes": True, "potential_found": True}),
    ),
    "bridge-flow": (
        Op("glimm", "glimm", ("glimm",)),
        Op("glimm-n6", "glimm", ("glimm", "--n", "6", "--depth", "6")),
        Op("haar-ising-n8", "haar",
           ("haar", "--measure", "ising", "--n", "8", "--depth", "14")),
        Op("haar-exact-n6", "haar",
           ("haar", "--lambda", "3/10", "--n", "6", "--depth", "10")),
        Op("ising-dynamics", "ising_dynamics", ("ising-dynamics",)),
        Op("ising-dynamics-n6", "ising_dynamics",
           ("ising-dynamics", "--n", "6", "--depth", "7"),
           known_failure=KnownFailure(
               cause=ISING_NORM_CAUSE,
               invariants=("norm preservation under the flow",),
               deviations=("report.max_norm_drift",),
               ceiling=1e-8,
           )),
    ),
}

# Subcommands whose wall time is reported per pass (summed over configs).
SUBCOMMANDS = ("algebra", "trace", "glimm", "haar", "axioms", "dfs_build",
               "dfs_check", "spectrum", "cochain", "ising_dynamics")
