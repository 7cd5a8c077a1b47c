"""Byte-identity of CLI reports: the stdout sha256 of fixed configs.

A speed or simplicity change must leave every report byte-identical, so a
report may change bytes only in a change whose stated purpose is to change
that report; the digest below is then updated in the same change.

The configs were chosen to make no numpy transcendental (exp, log) and no
BLAS call whose result depends on the summation order, since the last bits
of either can depend on the BLAS build, the CPU and the thread count.  The
only BLAS calls are the `glimm` matrix products of Pauli words, whose
entries are exact 0 and +-1: each output entry is one product plus zeros, so
it does not depend on the BLAS order or on FMA.  Everything else is
elementwise arithmetic, square roots and exact integers and Fractions.
IEEE 754 rounds real products, quotients and square roots correctly
everywhere, but it fixes no rounding for complex products or complex abs:
numpy computes both in SIMD loops that it picks at run time for the CPU,
and they round differently from Python's complex (on an x86 machine whose
numpy dispatched to AVX-512, the products differed on 43,842 of 100,000
random pairs and abs on 34,746).  The algebra and trace configs multiply
random complex tables, and algebra takes their complex abs, so their
digests hold for numpy builds and CPUs that pick loops which round alike.
glimm multiplies complex coefficients only into real tables, where the
zero imaginary parts keep each product a single real rounding; the haar,
axioms, dfs-build, dfs-check and spectrum configs compute in reals and
integers only.  Between them they cover the passing verdict of each of the
algebra, haar, trace, glimm, axioms, dfs-build and dfs-check paths, the
exact integer and Fraction paths, and the failure records of algebra, trace
and glimm; the larger algebra and trace configs run their trials in several
chunks.  All run in well under a second.  COCHAIN_DIGEST pins the benchmark's
library `cochain` operation (cochain_delta and is_exact) the same way.
"""

import contextlib
import hashlib
import io
import json

import numpy as np
import pytest

from flipchain import (
    CylinderFunction,
    cochain_delta,
    dfs_build,
    dfs_to_cochain,
    is_exact,
    rng_for,
)
from flipchain.cli import main

DIGESTS = {
    "axioms --n 3":
        (0, "fdf219b70450d9417ee2517807976845518c45210426b6a93e731332e5f88c8b"),
    # the benchmark's horizon, and the next one (79,648 and 1,154,112 checks)
    "axioms --n 4":
        (0, "72147c95d0ca1949e95b2ecae1156a1b8cce114dec335d49d0a665ad46be5c17"),
    "axioms --n 5":
        (0, "179b933549e5c6b96205ddfc0f688acdeabbd44202e21905256e0ab6db8549a1"),
    "algebra --trials 20":
        (0, "d4a52a1225980dff57280e9aabd334ef03999f85570d0e0d3b877d7909937b8f"),
    "algebra --lambda 3/10 --trials 5":
        (0, "800d6e2120ffe33c0ddac2db2eff8e9d6f2c16c7a322823463c4927b46f3d599"),
    "haar --lambda 3/10 --n 3 --depth 5":
        (0, "d32292ff9013e6193072253ec15874fd201829a2810c64792d2e7f2c06740fb7"),
    # the exact integer checks at larger depths, and their float path
    "haar --lambda 3/10 --n 6 --depth 10":
        (0, "a8254f262af6332e2cd47c72eab2edcf134c755d85f15ef0ce4c72fd7f43e1be"),
    "haar --lambda 1/5 --n 4 --depth 12":
        (0, "ac286ec68f5f989501977239a74568339e42985a300ba7658a9d8f65a8730ba9"),
    "haar --n 4 --depth 8":
        (0, "e3a647c11f3f8cb60532f7ec3027205ff99bd394ecce6d457a88f551bef39871"),
    "trace --trials 20":
        (0, "b4f79c2d6becf52cf580fcc387bb33e13525a8149cfb9ae1dc8c99269b5a77c0"),
    "dfs-build --n 3 --depth 5":
        (0, "f7b2962677cb0f6614adbc9c8b44de0c4d1a5d81806a1f14ebd21d6051520170"),
    "dfs-check --n 3 --depth 5":
        (0, "07f585575f514f5e9094e7c9a069f66cc96000fc310a237125252be8a5436b50"),
    "dfs-check --n 5 --depth 12":
        (0, "f795b2b2d6554ba1253613c928efaa4dc45edd92aa0108388360aaab1914dea6"),
    "spectrum --n 6 --depth 6":
        (0, "764a3b4b53a5c03225383a4528430fb259200cc0077310e8d5adb1d695611235"),
    # the lattice index of all 2,048 words at the largest horizon
    "spectrum --n 11 --depth 11":
        (0, "d179c422e331fbe68b384d5b0192725b7d3e966c321ef0f789ab97a61a43768d"),
    "glimm --trials 50":
        (0, "690dafc16bb8450e137fae48f35863bb854c350ab4e3a0e215046c7ad757bc41"),
    "glimm --n 6 --depth 6 --trials 50":
        (0, "a94917a8e0413ad5b71714a942946e3f19aed287670206f2f5eb9cb5bc6f682c"),
    # the product state at the largest n the dense side allows
    "glimm --n 8 --depth 8 --trials 20":
        (0, "d046837115f93239e2de74d2f6fd283898aee5265bf32222a9be178f84b0b345"),
    # the largest n again, whose chunks of four trials weigh up to three image
    # depths (3 and 5 to 8 over the run)
    "glimm --lambda 0.1 --n 8 --depth 8 --trials 200":
        (0, "d6a734156b978f131c2a16b759b558bef087f4d65d1982f417ea2d7a8f614439"),
    "algebra --tol 1e-30 --trials 3":
        (1, "77898c760ddadd257273e5a0f42454c589223769b46febb2550f63ffd14fc87a"),
    # several trial chunks each, with a ragged last chunk at the default depth
    "algebra --trials 100":
        (0, "495c867242dcc5bbc81064088974a9615b13b348d2c87cf709ef6f6a1793035a"),
    "algebra --n 5 --depth 8 --trials 10":
        (0, "9f51da8abbfa7356eac53a6edac3113174755769041e221c2533b55bbdd22bf8"),
    # rows of 1,024 entries through the max-|entry| kernel and the row integral
    "algebra --n 6 --depth 10 --trials 4":
        (0, "bf19b150115400933f05148236d84488a5cd96e285a2404ecff1dcfe99476694"),
    "trace --trials 100":
        (0, "ca17dfb19351809e347476e14f7a13a92f8c56253664f97c3c2ff79029cd3082"),
    # the failure records of the other two subcommands that fold trials
    "trace --tol 1e-30 --trials 9":
        (1, "339f64b33caf72fc6d42f203c38e99a9ffe990405e1fc2f6f889626097619fd2"),
    "glimm --tol 1e-30 --trials 9":
        (1, "6420e6d43e1c8a407de818845197239dd6947567379003c3c9d3865d5511574b"),
}

COCHAIN_DIGEST = "8dd6ebed85a62e1711b9e3e4702c6f1541f1707aa2acc67b636cbdc574582cf6"


@pytest.mark.parametrize("argv", DIGESTS)
def test_report_bytes_unchanged(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv.split())
    assert (code, hashlib.sha256(out.getvalue().encode()).hexdigest()) == DIGESTS[argv]


def cochain_report() -> str:
    """The JSON line of the benchmark's library `cochain` operation.

    Built as `perfbench/onepass.py`'s `run_cochain` builds it, on a table of
    standard-normal seeds drawn from rng_for(0, 1000 + k) at n=4, depth 8.
    """
    seeds = [CylinderFunction(8, rng_for(0, 1000 + k).standard_normal(1 << 8))
             for k in range(4)]
    table = dfs_build(4, seeds, 8)
    delta = cochain_delta(dfs_to_cochain(table)).max_abs()
    potential = is_exact(table)
    report = {
        "delta_max_abs": delta,
        "delta_vanishes": bool(delta <= 1e-12),
        "potential_found": potential is not None,
        "potential_sha256": None if potential is None else
        hashlib.sha256(np.ascontiguousarray(potential.values).tobytes()).hexdigest(),
    }
    return json.dumps(report, sort_keys=True) + "\n"


def test_cochain_operation_bytes_unchanged():
    assert hashlib.sha256(cochain_report().encode()).hexdigest() == COCHAIN_DIGEST
