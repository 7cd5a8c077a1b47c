"""Byte-identity of CLI reports: the stdout sha256 of fixed configs.

A speed or simplicity change must leave every report byte-identical, so a
report may change bytes only in a change whose stated purpose is to change
that report; the digest below is then updated in the same change.

The configs were chosen to make no BLAS call and no numpy transcendental
(exp, log), whose last bits can depend on the BLAS build, the CPU and the
thread count.  What they compute is elementwise float arithmetic and square
roots, which IEEE 754 rounds correctly everywhere, and exact Fractions, so
their digests hold on any machine.  Between them they cover
the passing verdict of each of the algebra, haar, trace, axioms, dfs-build
and dfs-check paths, the exact Fraction path, and one failure record.  All
eight run in well under a second.
"""

import contextlib
import hashlib
import io

import pytest

from flipchain.cli import main

DIGESTS = {
    "axioms --n 3":
        (0, "fdf219b70450d9417ee2517807976845518c45210426b6a93e731332e5f88c8b"),
    "algebra --trials 20":
        (0, "d4a52a1225980dff57280e9aabd334ef03999f85570d0e0d3b877d7909937b8f"),
    "algebra --lambda 3/10 --trials 5":
        (0, "800d6e2120ffe33c0ddac2db2eff8e9d6f2c16c7a322823463c4927b46f3d599"),
    "haar --lambda 3/10 --n 3 --depth 5":
        (0, "d32292ff9013e6193072253ec15874fd201829a2810c64792d2e7f2c06740fb7"),
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
    "algebra --tol 1e-30 --trials 3":
        (1, "77898c760ddadd257273e5a0f42454c589223769b46febb2550f63ffd14fc87a"),
}


@pytest.mark.parametrize("argv", DIGESTS)
def test_report_bytes_unchanged(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv.split())
    assert (code, hashlib.sha256(out.getvalue().encode()).hexdigest()) == DIGESTS[argv]
