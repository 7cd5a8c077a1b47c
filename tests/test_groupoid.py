import oracles
import pytest
import test_mutants

from flipchain import (
    EMPTY_WORD,
    FlipWord,
    HorizonOverflow,
    axioms_report,
    check_depth,
    e,
    enumerate_gamma,
)


def test_flipword_site_bit_convention():
    # site k lives in bit k - 1, so site 1 is the least significant bit
    assert e(1).mask == 1
    assert e(3).mask == 4
    assert FlipWord.from_sites([1, 3]).mask == 5
    assert FlipWord(5).sites == (1, 3)
    assert FlipWord(5).horizon == 3
    assert EMPTY_WORD.horizon == 0
    assert not EMPTY_WORD
    assert list(FlipWord(6)) == [2, 3]


def test_flipword_group_law():
    u = FlipWord.from_sites([1, 2])
    v = FlipWord.from_sites([2, 4])
    assert (u ^ u) == EMPTY_WORD
    assert (u ^ EMPTY_WORD) == u
    assert (u ^ v) == (v ^ u) == FlipWord.from_sites([1, 4])


def test_flipword_rejects_bad_sites():
    with pytest.raises(ValueError):
        FlipWord.from_sites([0])
    with pytest.raises(ValueError):
        FlipWord.from_sites([2, 2])
    with pytest.raises(ValueError):
        FlipWord(-1)


def test_enumeration_order():
    words = enumerate_gamma(2)
    assert [w.mask for w in words] == [0, 1, 2, 3]
    with pytest.raises(ValueError):
        enumerate_gamma(-1)


def test_depth_cap():
    check_depth(20)
    with pytest.raises(HorizonOverflow):
        check_depth(21)
    with pytest.raises(HorizonOverflow):
        enumerate_gamma(25)


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
