import oracles
import pytest
import test_mutants

from flipchain import (
    HorizonOverflow,
    axioms_report,
    check_depth,
    e,
    word_from_sites,
    word_sites,
)


def test_flipword_site_bit_convention():
    # site k lives in bit k - 1, so site 1 is the least significant bit
    assert e(1) == 1
    assert e(3) == 4
    assert word_from_sites([1, 3]) == word_from_sites([3, 1]) == 5
    assert word_from_sites([]) == 0
    assert word_sites(5) == [1, 3]
    assert word_sites(6) == [2, 3]
    assert word_sites(0) == []
    for w in range(1 << 6):
        assert word_from_sites(word_sites(w)) == w


def test_flipword_group_law():
    u = word_from_sites([1, 2])
    v = word_from_sites([2, 4])
    assert (u ^ u) == 0
    assert (u ^ 0) == u
    assert (u ^ v) == (v ^ u) == word_from_sites([1, 4])


def test_flipword_rejects_bad_sites():
    for sites in ([0], [2, 2], [-1], [1.0], [True], ["1"]):
        with pytest.raises(ValueError):
            word_from_sites(sites)


def test_depth_cap():
    check_depth(20)
    with pytest.raises(HorizonOverflow):
        check_depth(21)
    with pytest.raises(HorizonOverflow):
        axioms_report(25)


def test_axioms_exhaustive_small():
    report = axioms_report(2)
    assert report["violations"] == 0
    assert report["checks"] > 0
    assert report["horizon"] == 2


def test_axioms_guards():
    with pytest.raises(ValueError):
        axioms_report(-1)
    with pytest.raises(HorizonOverflow):
        axioms_report(21)


@pytest.mark.parametrize("n", range(5))
def test_axiom_sweep_matches_the_scalar_oracle(n):
    got, want = axioms_report(n), oracles.axioms_report_scalar(n)
    assert (got["checks"], got["violations"]) == (want["checks"], want["violations"])


# the mutants of the mask law, each of which the axioms run must catch
LAW_MUTANTS = [name for name, (_, _, run) in test_mutants.MUTANTS.items() if run == "axioms"]


@pytest.mark.parametrize("name", LAW_MUTANTS)
def test_the_scalar_oracle_does_not_share_the_mask_law(monkeypatch, name):
    """A broken mask law moves the package's sweep and leaves the oracle at 0."""
    target, replacement, _ = test_mutants.MUTANTS[name]
    assert test_mutants._patch(monkeypatch, target, replacement) >= 1
    got, want = axioms_report(3), oracles.axioms_report_scalar(3)
    assert (got["checks"], got["violations"]) != (want["checks"], want["violations"])
    assert want["violations"] == 0


@pytest.mark.parametrize("n", range(7))
def test_axiom_check_count_closed_form(n):
    """N = 2**n words and prefixes: the word law N(N + 2), seven checks per
    (x, u), and per x the triples (x, u, v): 2 + 1 rejection + N associativity
    for u != 0, 2 + N for u = 0."""
    N = 1 << n
    report = axioms_report(n)
    assert report["checks"] == (N * (N + 2) + 7 * N * N
                                + N * ((N - 1) * N * (N + 3) + N * (N + 2)))
    assert report["violations"] == 0
