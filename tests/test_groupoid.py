import oracles
import pytest

from flipchain import (
    EMPTY_WORD,
    DepthMismatch,
    DepthTooSmall,
    FlipWord,
    GroupoidElement,
    HorizonOverflow,
    NotComposable,
    Prefix,
    axioms_report,
    check_depth,
    compose,
    e,
    enumerate_gamma,
    enumerate_prefixes,
    identity,
    inverse,
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


def test_prefix_roundtrip():
    p = Prefix(3, 0b101)
    assert p.as_tuple() == (1, 0, 1)
    assert p.bit(1) == 1 and p.bit(2) == 0 and p.bit(3) == 1


def test_prefix_guards():
    with pytest.raises(ValueError):
        Prefix(2, 4)  # bits outside range
    with pytest.raises(DepthTooSmall):
        Prefix(2, 0).bit(3)
    with pytest.raises(DepthTooSmall):
        Prefix(1, 0) ^ e(2)


def test_prefix_xor_flips_listed_sites():
    p = Prefix(3, 0b010)
    assert (p ^ FlipWord.from_sites([1, 2])).as_tuple() == (1, 0, 0)
    assert (p ^ EMPTY_WORD) == p


def test_element_source_target():
    x = Prefix(3, 0b011)
    g = GroupoidElement(x, e(2))
    assert g.target == x
    assert g.source == Prefix(3, 0b001)
    assert inverse(g).target == g.source
    assert inverse(g).source == g.target
    assert inverse(inverse(g)) == g


def test_element_depth_guard():
    with pytest.raises(DepthTooSmall):
        GroupoidElement(Prefix(1, 0), e(2))


def test_compose_rules():
    x = Prefix(3, 0b011)
    a = GroupoidElement(x, e(1))
    b = GroupoidElement(x ^ e(1), e(3))
    ab = compose(a, b)
    assert ab.flips == FlipWord.from_sites([1, 3])
    assert ab.target == a.target and ab.source == b.source
    # units
    assert compose(identity(x), a) == a
    assert compose(a, identity(a.source)) == a
    assert compose(a, inverse(a)) == identity(x)
    # mismatched base point
    with pytest.raises(NotComposable):
        compose(a, GroupoidElement(x, e(3)))
    with pytest.raises(DepthMismatch):
        compose(a, GroupoidElement(Prefix(4, 0), e(1)))


def test_enumeration_order():
    words = enumerate_gamma(2)
    assert [w.mask for w in words] == [0, 1, 2, 3]
    prefixes = enumerate_prefixes(2)
    assert [p.bits for p in prefixes] == [0, 1, 2, 3]
    with pytest.raises(ValueError):
        enumerate_gamma(-1)


def test_depth_cap():
    check_depth(20)
    with pytest.raises(HorizonOverflow):
        check_depth(21)
    with pytest.raises(HorizonOverflow):
        enumerate_prefixes(25)


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
