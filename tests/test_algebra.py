import json
import math
from fractions import Fraction

import numpy as np
import oracles
import pytest

from flipchain import cli
from flipchain.measures import worst_by_check
from flipchain import (
    AlgebraElement,
    Bernoulli,
    CylinderFunction,
    DEPTH_CAP,
    EMPTY_WORD,
    FlipWord,
    HorizonOverflow,
    IsingBoltzmann,
    canonical_weight,
    convolve,
    e,
    hahn_norm,
    inner_product,
    involution,
    l2_norm,
    max_abs_diff,
    modular_conjugation,
    modular_operator_pow,
    pukanszky_L,
    pukanszky_V,
    random_algebra_element,
    rng_for,
    tt_evolve,
    unit,
)

SPECS = (Bernoulli(0.3), IsingBoltzmann(1.0))


def witness_element():
    """Constant 1 on the first-site flip word."""
    return AlgebraElement({e(1): CylinderFunction.constant(1.0, 1)})


def test_constructor_drops_zero_tables():
    F = AlgebraElement(
        {e(1): CylinderFunction.constant(1.0, 1), e(2): CylinderFunction(2, np.zeros(4))}
    )
    assert F.support == [e(1)]
    assert F.depth == 2  # common depth of the inputs, kept after dropping
    assert max(w.horizon for w in F.support) == 1


def test_depth_lifting_and_term_access():
    F = AlgebraElement({e(2): CylinderFunction(1, np.array([1.0, 2.0]))})
    assert F.depth == 2  # word horizon forces the lift
    assert list(F.terms[e(2)].values) == [1.0, 2.0, 1.0, 2.0]
    assert e(1) not in F.terms
    assert F.terms[e(2)].values[0b01] == 2.0


def test_unit_is_neutral():
    rng = rng_for(11, 0)
    F = random_algebra_element(rng, 3)
    assert max_abs_diff(convolve(unit(), F), F) == 0.0
    assert max_abs_diff(convolve(F, unit()), F) == 0.0
    assert convolve(F, AlgebraElement({})).support == []


@pytest.mark.parametrize(
    "dtype, nan", [(np.float64, math.nan), (np.complex128, complex(math.nan, 0.0)),
                   (object, math.nan)], ids=["float", "complex", "object"])
def test_max_abs_diff_propagates_nan(dtype, nan):
    def element(first):
        return AlgebraElement({EMPTY_WORD: CylinderFunction(1, np.array([first, 1], dtype=dtype))})

    zero = Fraction(0) if dtype is object else 0.0
    assert math.isnan(max_abs_diff(element(nan), element(zero)))
    assert math.isnan(max_abs_diff(element(zero), element(nan)))
    assert max_abs_diff(element(zero), element(zero)) == 0.0


def test_convolution_hand_example():
    # single-word factors: (F * G)(x, {}) = F(x, e1) G(x ^ e1, e1)
    F = AlgebraElement({e(1): CylinderFunction(1, np.array([2.0, 3.0]))})
    G = AlgebraElement({e(1): CylinderFunction(1, np.array([5.0, 7.0]))})
    P = convolve(F, G)
    assert P.support == [EMPTY_WORD]
    assert list(P.terms[EMPTY_WORD].values) == [2.0 * 7.0, 3.0 * 5.0]


def test_lift_refuses_depth_beyond_cap(monkeypatch):
    # the cap is enforced where tables grow, before any 2**depth tile is made
    F = AlgebraElement({EMPTY_WORD: CylinderFunction.constant(1.0, 6)})
    monkeypatch.setattr(np, "tile", lambda *a: pytest.fail("tiled past the cap"))
    with pytest.raises(HorizonOverflow):
        F.lift(DEPTH_CAP + 1)
    with pytest.raises(HorizonOverflow):
        F.terms[EMPTY_WORD].lift(DEPTH_CAP + 1)


def test_linear_structure():
    rng = rng_for(12, 0)
    F = random_algebra_element(rng, 3)
    G = random_algebra_element(rng, 3)
    H = random_algebra_element(rng, 3)
    lhs = convolve(F + 2 * G, H)
    rhs = convolve(F, H) + 2 * convolve(G, H)
    assert max_abs_diff(lhs, rhs) < 1e-12
    assert max_abs_diff(F - F, AlgebraElement({})) == 0.0
    assert max_abs_diff(-F, -1 * F) == 0.0


@pytest.mark.parametrize("spec", SPECS, ids=["bernoulli", "ising"])
def test_involution_properties(spec):
    for i in range(25):
        rng = rng_for(13, i)
        F = random_algebra_element(rng, 4, horizon=3)
        G = random_algebra_element(rng, 4, horizon=3)
        assert max_abs_diff(involution(involution(F, spec), spec), F) < 1e-12
        assert (
            max_abs_diff(
                involution(convolve(F, G), spec),
                convolve(involution(G, spec), involution(F, spec)),
            )
            < 1e-12
        )


@pytest.mark.parametrize("spec", SPECS, ids=["bernoulli", "ising"])
def test_polar_decomposition(spec):
    # the adjoint factors as modular conjugation after the half power
    for i in range(10):
        rng = rng_for(14, i)
        F = random_algebra_element(rng, 4, horizon=3)
        lhs = involution(F, spec)
        rhs = modular_conjugation(modular_operator_pow(F, 0.5, spec), spec)
        assert max_abs_diff(lhs, rhs) < 1e-12
        assert max_abs_diff(
            modular_conjugation(modular_conjugation(F, spec), spec), F
        ) < 1e-12


def test_modular_power_laws():
    spec = Bernoulli(0.3)
    rng = rng_for(15, 0)
    F = random_algebra_element(rng, 3)
    assert max_abs_diff(modular_operator_pow(F, 0, spec), F) == 0.0
    two_step = modular_operator_pow(modular_operator_pow(F, 0.7, spec), 0.3, spec)
    assert max_abs_diff(two_step, modular_operator_pow(F, 1.0, spec)) < 1e-12


def test_modular_power_exact_integer():
    spec = Bernoulli(Fraction(3, 10))
    W = AlgebraElement({e(1): CylinderFunction.constant(Fraction(1), 1)})
    scaled = modular_operator_pow(W, 2, spec)
    vals = scaled.terms[e(1)].values
    assert vals[0] == Fraction(9, 49)
    assert vals[1] == Fraction(49, 9)


def test_modular_flow_is_isometric():
    spec = Bernoulli(0.3)
    rng = rng_for(16, 0)
    F = random_algebra_element(rng, 3)
    flowed = modular_operator_pow(F, 1j * 0.9, spec)
    assert abs(l2_norm(flowed, spec) - l2_norm(F, spec)) < 1e-12


def test_inner_product_hermitian():
    spec = Bernoulli(0.3)
    rng = rng_for(17, 0)
    F = random_algebra_element(rng, 3)
    G = random_algebra_element(rng, 3)
    assert inner_product(F, G, spec) == pytest.approx(
        np.conjugate(inner_product(G, F, spec)), abs=1e-14
    )
    assert l2_norm(unit(), spec) == pytest.approx(1.0, abs=1e-15)


def test_hahn_norm_frozen_value():
    spec = Bernoulli(Fraction(3, 10))
    V = pukanszky_V(e(1), spec)
    assert hahn_norm(V, spec) == pytest.approx(math.sqrt(7 / 3), rel=1e-14)
    assert hahn_norm(AlgebraElement({}), spec) == 0.0


def test_hahn_norm_dominates_l2_of_action():
    for spec in SPECS:
        for i in range(50):
            rng = rng_for(18, i)
            F = random_algebra_element(rng, 4, horizon=3)
            psi = random_algebra_element(rng, 4, 2, horizon=3)
            bound = hahn_norm(F, spec) * l2_norm(psi, spec)
            assert l2_norm(convolve(F, psi), spec) <= bound + 1e-12


@pytest.mark.parametrize("spec", SPECS, ids=["bernoulli", "ising"])
def test_flip_unitaries(spec):
    for sites in ([1], [2], [1, 3]):
        V = pukanszky_V(FlipWord.from_sites(sites), spec)
        assert max_abs_diff(convolve(V, V), unit()) < 1e-12
        assert max_abs_diff(involution(V, spec), V) < 1e-12


def test_flip_unitary_symmetric_point():
    # at lambda = 1/2 the weight is flip-invariant and V is the bare flip
    V = pukanszky_V(e(2), Bernoulli(0.5))
    assert list(V.terms[e(2)].values) == [1.0, 1.0, 1.0, 1.0]


def test_multiplication_operators():
    spec = Bernoulli(0.3)
    phi = CylinderFunction.psi(1, 2)
    chi = CylinderFunction.psi(2, 2)
    assert (
        max_abs_diff(
            convolve(pukanszky_L(phi), pukanszky_L(chi)),
            pukanszky_L(CylinderFunction(2, phi.values * chi.values)),
        )
        == 0.0
    )
    assert max_abs_diff(involution(pukanszky_L(phi), spec), pukanszky_L(phi)) < 1e-15


def test_canonical_weight_trace_asymmetry():
    spec = Bernoulli(Fraction(3, 10))
    W = AlgebraElement({e(1): CylinderFunction.constant(Fraction(1), 1)})
    adj = involution(W, spec)
    forward = canonical_weight(convolve(W, adj), spec)
    backward = canonical_weight(convolve(adj, W), spec)
    assert forward == Fraction(37, 21)
    assert backward == 1
    assert canonical_weight(unit(), spec) == 1
    assert canonical_weight(W, spec) == 0  # no empty-word component


def test_canonical_weight_tracial_at_half():
    spec = Bernoulli(0.5)
    for i in range(25):
        rng = rng_for(19, i)
        F = random_algebra_element(rng, 3)
        G = random_algebra_element(rng, 3)
        dev = abs(
            complex(canonical_weight(convolve(F, G), spec))
            - complex(canonical_weight(convolve(G, F), spec))
        )
        assert dev < 1e-12


# --- ragged batches against the one-trial, word-by-word oracle -------------

def fraction_element(rng, depth=3, horizon=3):
    """Two words with exact rational tables (object arrays)."""
    masks = rng.choice(1 << horizon, size=2, replace=False)
    return AlgebraElement({
        FlipWord(int(m)): CylinderFunction(depth, np.array(
            [Fraction(int(v), 7) for v in rng.integers(-4, 5, 1 << depth)], dtype=object))
        for m in masks
    })


BATCH_CASES = {
    "float": (Bernoulli(0.3),
              lambda rng: random_algebra_element(rng, 4, 3, horizon=3, complex_values=False)),
    "complex": (Bernoulli(0.3), lambda rng: random_algebra_element(rng, 4, 3, horizon=3)),
    "complex-exact-measure": (Bernoulli(Fraction(3, 10)),
                              lambda rng: random_algebra_element(rng, 3, 2, horizon=3)),
    "fraction": (Bernoulli(Fraction(3, 10)), fraction_element),
    # horizon == depth: trials whose words reach site 3 need delta depth 4
    "ising-n-eq-depth": (IsingBoltzmann(1.0),
                         lambda rng: random_algebra_element(rng, 3, 2, horizon=3)),
}

# LOOP_PAIRS: the default, every convolution gathered rank by rank, and every
# convolution looped over its row pairs.  The ids keep the test names stable.
KERNEL_PATHS = {"default": None, "gather-row-blocks": 0, "loop-one-block": 10**9}


def same_scalar(x, y) -> bool:
    """Equal bit for bit (NaN equals NaN, -0.0 differs from 0.0)."""
    if type(x) is not type(y):
        return False
    if isinstance(x, float):
        return x.hex() == y.hex()
    if isinstance(x, complex):
        return same_scalar(x.real, y.real) and same_scalar(x.imag, y.imag)
    return x == y


def assert_trial_is(batch, t, lone):
    """Trial t of the batch holds the lone element's tables, bit for bit."""
    lone = lone.lift(batch.depth)
    got = {w: batch.values[r] for r, (s, w) in
           enumerate(zip(batch.trial.tolist(), batch.word.tolist())) if s == t}
    want = {w.mask: f.values for w, f in lone.terms.items()}
    assert got.keys() == want.keys()
    for w, row in want.items():
        assert got[w].dtype == row.dtype
        if row.dtype == object:
            assert all(map(same_scalar, got[w].tolist(), row.tolist()))
        else:
            assert got[w].tobytes() == row.tobytes()


def batch_trials(case, count=6):
    spec, draw = BATCH_CASES[case]
    Fs = [draw(rng_for(31, i)) for i in range(count)]
    Gs = [draw(rng_for(32, i)) for i in range(count)]
    Fs[2] = AlgebraElement({})  # trials without rows, in the middle of the batch
    Gs[4] = AlgebraElement({e(1): CylinderFunction(1, np.zeros(2))})  # dropped: also empty
    return spec, Fs, Gs


@pytest.fixture(params=KERNEL_PATHS)
def kernel_path(request, monkeypatch):
    import flipchain.algebra as algebra
    if KERNEL_PATHS[request.param] is not None:
        monkeypatch.setattr(algebra, "LOOP_PAIRS", KERNEL_PATHS[request.param])


@pytest.mark.parametrize("case", BATCH_CASES)
def test_batched_kernels_match_the_oracle_bit_for_bit(case, kernel_path):
    spec, Fs, Gs = batch_trials(case)
    F, G = AlgebraElement.batch(Fs), AlgebraElement.batch(Gs)
    assert (F.trials, len(F.support)) == (6, sum(len(X.support) for X in Fs))
    powers = (2, 0.5) if spec.exact else (0.5, 0.7j)
    element_kernels = [
        (convolve, oracles.convolve, (G,)),
        (involution, oracles.involution, (spec,)),
        (modular_conjugation, oracles.modular_conjugation, (spec,)),
    ] + [(lambda X, t, s: modular_operator_pow(X, t, s),
          lambda X, t, s: oracles.modular_operator_pow(X, t, s), (t, spec)) for t in powers]
    for kernel, oracle, args in element_kernels:
        batched = kernel(F, *args)
        for t in range(6):
            lone_args = [Gs[t] if a is G else a for a in args]
            assert_trial_is(batched, t, oracle(Fs[t], *lone_args))
            assert_trial_is(batched, t, kernel(Fs[t], *lone_args))
    product = convolve(F, G)
    scalar_kernels = [
        (max_abs_diff(F, G), oracles.max_abs_diff, lambda t: (Fs[t], Gs[t])),
        (inner_product(F, G, spec), oracles.inner_product, lambda t: (Fs[t], Gs[t], spec)),
        (l2_norm(product, spec), oracles.l2_norm,
         lambda t: (oracles.convolve(Fs[t], Gs[t]), spec)),
        (hahn_norm(F, spec), oracles.hahn_norm, lambda t: (Fs[t], spec)),
        (canonical_weight(product, spec), oracles.canonical_weight,
         lambda t: (oracles.convolve(Fs[t], Gs[t]), spec)),
    ]
    for results, oracle, args in scalar_kernels:
        assert len(results) == 6
        for t in range(6):
            assert same_scalar(results[t], oracle(*args(t)))


@pytest.mark.parametrize("case", BATCH_CASES)
def test_l2_norm_equals_the_complex_product_route(case):
    spec, Fs, Gs = batch_trials(case)
    for lone in (Fs, Gs, [F + G for F, G in zip(Fs, Gs)],
                 [oracles.convolve(F, G) for F, G in zip(Fs, Gs)]):
        norms = l2_norm(AlgebraElement.batch(lone), spec)
        for t in range(6):
            assert same_scalar(norms[t], oracles.l2_norm(lone[t], spec))
            assert same_scalar(l2_norm(lone[t], spec), norms[t])


@pytest.mark.parametrize("case", BATCH_CASES)
def test_batched_linear_structure_and_flow_match_lone_elements(case):
    spec, Fs, Gs = batch_trials(case)
    F, G = AlgebraElement.batch(Fs), AlgebraElement.batch(Gs)
    for batched, lone in ((F + G, lambda t: Fs[t] + Gs[t]), (F - G, lambda t: Fs[t] - Gs[t]),
                          (2 * F, lambda t: 2 * Fs[t]), (-G, lambda t: -Gs[t])):
        for t in range(6):
            assert_trial_is(batched, t, lone(t))
    if not spec.exact:
        flowed = tt_evolve(F, 0.37, spec)
        for t in range(6):
            assert_trial_is(flowed, t, oracles.tt_evolve(Fs[t], 0.37, spec))


@pytest.mark.parametrize("spec", SPECS + (Bernoulli(Fraction(3, 10)),),
                         ids=["bernoulli", "ising", "exact"])
def test_batched_flip_unitaries_match_the_oracle(spec):
    words = [e(1), FlipWord.from_sites([1, 3]), e(1), FlipWord.from_sites([2])]
    V = pukanszky_V(words, spec)
    assert V.trials == 4
    for t, w in enumerate(words):
        assert_trial_is(V, t, oracles.pukanszky_V(w, spec))
    assert_trial_is(pukanszky_V(e(2), spec), 0, oracles.pukanszky_V(e(2), spec))


def test_batch_operands_must_hold_the_same_trials():
    F = AlgebraElement.batch([unit(), unit()])
    with pytest.raises(ValueError):
        convolve(F, unit())
    with pytest.raises(ValueError):
        max_abs_diff(F, AlgebraElement.batch([unit()]))


def test_nan_trial_is_the_witness(kernel_path):
    Fs = [random_algebra_element(rng_for(33, i), 4, 3, horizon=3) for i in range(5)]
    word, table = next(iter(Fs[3].terms.items()))
    poisoned = table.values.copy()
    poisoned[5] = math.nan
    Fs[3] = Fs[3] + AlgebraElement({word: CylinderFunction(4, poisoned - table.values)})
    F = AlgebraElement.batch(Fs)
    spec = Bernoulli(0.3)
    devs = max_abs_diff(involution(involution(F, spec), spec), F)
    assert [math.isnan(x) for x in devs] == [False, False, False, True, False]
    assert math.isnan(hahn_norm(F, spec)[3]) and math.isnan(l2_norm(F, spec)[3])
    worst, witness = worst_by_check((t, {"involutive": x}) for t, x in enumerate(devs))
    assert math.isnan(worst["involutive"]) and witness["involutive"] == 3


def test_algebra_report_names_the_nan_trial(monkeypatch, capsys):
    # the F drawn for trial 3 carries a NaN; chunks of two trials
    monkeypatch.setattr(cli, "CHUNK_ENTRIES", 2 << 6)
    draws = []

    def draw(rng, depth, words, horizon=None):
        X = random_algebra_element(rng, depth, words, horizon=horizon)
        draws.append(X)
        if len(draws) == 4 * 3 + 1:
            word, table = next(iter(X.terms.items()))
            X = X + AlgebraElement({word: CylinderFunction(depth, np.full(1 << depth, math.nan))})
        return X

    monkeypatch.setattr(cli, "random_algebra_element", draw)
    assert cli.main(["algebra", "--trials", "6"]) == 1
    doc = json.loads(capsys.readouterr().out)
    assert doc["failure"] == {"invariant": "associativity", "witness": {"trial": 3}}
    # every check but the flip unitary's reads F
    assert {k for k, v in doc["report"]["max_deviations"].items() if math.isnan(v)} == {
        "associativity", "involution_antihomomorphism", "involution_involutive",
        "polar_decomposition", "bound_violation"}


# argv -> exit status; every subcommand that folds trials runs them in chunks
CHUNKED_RUNS = {
    "algebra --trials 7": 0,
    # V lifts to its chunk's largest horizon + 1; the absolute tolerance fails trial 5
    "algebra --measure ising --trials 7": 1,
    "algebra --lambda 3/10 --trials 7": 0,  # exact tables, the object path
    "trace --trials 7": 0,
    "algebra --tol 1e-30 --trials 7": 1,  # the witness trial too
    "glimm --trials 7": 0,
    "ising-dynamics": 0,
}


# trials per chunk -> the chunk sizes of 7 trials and of ising-dynamics' 3 flow
# times: one trial per chunk, chunks of three with a ragged last one, one chunk
CHUNKINGS = {1: ([1] * 7, [1] * 3), 3: ([3, 3, 1], [3]), 7: ([7], [3])}


@pytest.mark.parametrize("argv", CHUNKED_RUNS)
def test_reports_do_not_depend_on_the_chunking(monkeypatch, capsys, argv):
    # glimm's tables reach depth n, which sizes its chunks; the others' cfg.depth
    cfg = cli.RunConfig()
    depth = cfg.n if argv.startswith("glimm") else cfg.depth
    chunks, seen = cli._chunks, []

    def recorded(*args):
        out = list(chunks(*args))
        seen.extend(len(c) for c in out)
        return out

    monkeypatch.setattr(cli, "_chunks", recorded)
    reports = {}
    for per_chunk, (sizes, flow_sizes) in CHUNKINGS.items():
        monkeypatch.setattr(cli, "CHUNK_ENTRIES", per_chunk << depth)
        seen.clear()
        assert cli.main(argv.split()) == CHUNKED_RUNS[argv]
        assert seen == (flow_sizes if argv == "ising-dynamics" else sizes)
        reports[per_chunk] = capsys.readouterr().out
    assert reports[1] == reports[3] == reports[7]


def test_chunks_cover_every_trial_once_in_bounded_chunks():
    # at the shipped CHUNK_ENTRIES
    for depth in range(DEPTH_CAP + 1):
        size = max(1, cli.CHUNK_ENTRIES >> depth)
        for count in (0, 1, size - 1, size, size + 1, 1000):
            chunks = list(cli._chunks(depth, count))
            assert [i for chunk in chunks for i in chunk] == list(range(count))
            assert all(1 <= len(chunk) <= size for chunk in chunks)
