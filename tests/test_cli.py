import importlib.util
import json
import math
import sys
import time
import warnings
from pathlib import Path

import pytest

from flipchain import cli, dfs, matrices
from flipchain.cli import main
from flipchain.ising import NonCocyclePerturbation, attained_spectrum


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def run_json(capsys, *argv):
    code, out = run(capsys, *argv)
    return code, json.loads(out)


def test_axioms_passes(capsys):
    code, doc = run_json(capsys, "axioms", "--n", "2")
    assert code == 0
    assert doc["passed"] is True
    assert doc["report"]["violations"] == 0
    assert doc["subcommand"] == "axioms"
    # wall time is stripped so equal configs give equal bytes
    assert "elapsed_seconds" not in doc["report"]


def test_byte_identical_reports(capsys):
    args = ("glimm", "--n", "3", "--trials", "5", "--seed", "7")
    _, first = run(capsys, *args)
    _, second = run(capsys, *args)
    assert first == second
    _, other = run(capsys, "glimm", "--n", "3", "--trials", "5", "--seed", "8")
    assert first != other


def test_config_error_exit_2(capsys):
    assert main(["axioms", "--n", "5", "--depth", "3"]) == 2
    assert main(["glimm", "--lambda", "0.7"]) == 2
    assert main(["haar", "--measure", "bernoulli", "--trials", "0"]) == 2
    assert main(["trace", "--tol", "-1"]) == 2


def test_invariant_violation_exit_1(capsys):
    # an unreachable tolerance turns rounding noise into a failure
    code, doc = run_json(
        capsys, "ising-dynamics", "--n", "2", "--depth", "3", "--tol", "1e-18"
    )
    assert code == 1
    assert doc["passed"] is False
    assert "invariant" in doc["failure"]
    assert doc["failure"]["witness"]


def test_algebra_nan_deviation_fails(monkeypatch, capsys):
    # the kernels take batches of trials and give one deviation per trial
    monkeypatch.setattr(cli, "max_abs_diff", lambda F, G: [math.nan] * F.trials)
    code, doc = run_json(capsys, "algebra", "--trials", "2")
    assert code == 1
    assert doc["passed"] is False


def test_algebra_reports_first_failing_check_in_key_order(monkeypatch, capsys):
    # only flip_unitary and bound_violation fail: the first in key order wins
    monkeypatch.setattr(cli, "max_abs_diff", lambda F, G: [0.0] * F.trials)
    monkeypatch.setattr(cli, "_worse", lambda worst, dev: 1.0)
    code, doc = run_json(capsys, "algebra", "--trials", "2")
    assert code == 1
    assert doc["failure"] == {"invariant": "flip_unitary", "witness": {"trial": 0}}
    failing = {k for k, v in doc["report"]["max_deviations"].items() if v}
    assert failing == {"flip_unitary", "bound_violation"}


def test_haar_both_measures(capsys):
    code, doc = run_json(capsys, "haar", "--n", "2", "--depth", "4")
    assert code == 0
    assert doc["report"]["max_rel_deviation"] < 1e-13
    code_i, doc_i = run_json(
        capsys, "haar", "--measure", "ising", "--J", "0.5", "--n", "2", "--depth", "4"
    )
    assert code_i == 0
    assert doc_i["report"]["max_rel_deviation"] < 1e-13


def test_haar_exact_lambda_string(capsys):
    code, doc = run_json(capsys, "haar", "--lambda", "3/10", "--n", "2", "--depth", "4")
    assert code == 0
    assert doc["config"]["lambda"] == "3/10"
    assert all(row["exact_zero"] for row in doc["report"]["covariance"])


def test_algebra_subcommand(capsys):
    code, doc = run_json(
        capsys, "algebra", "--n", "3", "--depth", "4", "--trials", "5"
    )
    assert code == 0
    devs = doc["report"]["max_deviations"]
    assert set(devs) == {
        "associativity",
        "involution_antihomomorphism",
        "involution_involutive",
        "polar_decomposition",
        "flip_unitary",
        "bound_violation",
    }
    assert all(v < 1e-12 for v in devs.values())


def test_trace_sweep_and_single(capsys):
    code, doc = run_json(capsys, "trace", "--trials", "5", "--n", "3", "--depth", "4")
    assert code == 0
    lams = [row["lambda"] for row in doc["report"]["sweep"]]
    assert lams == [0.2, 0.3, 0.4, 0.5]
    modes = {row["lambda"]: row["mode"] for row in doc["report"]["sweep"]}
    assert modes[0.5] == "tracial" and modes[0.3] == "witness"
    code_s, doc_s = run_json(capsys, "trace", "--lambda", "0.3", "--trials", "5")
    assert code_s == 0
    (row,) = doc_s["report"]["sweep"]
    assert row["violation"] >= row["floor"] - 1e-12


def test_trace_nan_commutator_fails(monkeypatch, capsys):
    # the weights take batches of trials and give one weight per trial
    monkeypatch.setattr(cli, "canonical_weight", lambda F, spec: [math.nan] * F.trials)
    code, doc = run_json(capsys, "trace", "--lambda", "0.5", "--trials", "2")
    assert code == 1
    assert doc["failure"] == {"invariant": "trace property at the symmetric point",
                              "witness": {"lambda": 0.5}}
    (row,) = doc["report"]["sweep"]
    assert row["passed"] is False and math.isnan(row["max_commutator_deviation"])


def test_glimm_nan_state_of_one_trial_fails(monkeypatch, capsys):
    # the dense side runs trial by trial: the fourth of a chunk of seven reads NaN
    calls = []
    state = matrices.powers_state

    def nan_on_the_fourth(A, lam):
        calls.append(None)
        return complex(math.nan) if len(calls) == 4 else state(A, lam)

    monkeypatch.setattr(matrices, "powers_state", nan_on_the_fourth)
    code, doc = run_json(capsys, "glimm", "--trials", "7")
    assert code == 1 and len(calls) == 7
    assert doc["failure"]["invariant"] == "state equality between matrix and groupoid sides"
    assert math.isnan(doc["report"]["max_abs_deviation"])


def _stub_witness(monkeypatch, violation, floor=1.0):
    monkeypatch.setattr(cli, "_trace_witness", lambda spec: {
        "violation": violation, "floor": floor, "forward": 0.0, "backward": 0.0})


def test_trace_nan_witness_fails(monkeypatch, capsys):
    _stub_witness(monkeypatch, math.nan)
    code, doc = run_json(capsys, "trace", "--lambda", "0.3")
    assert code == 1
    assert doc["failure"] == {"invariant": "trace violation witness fell below its floor",
                              "witness": {"lambda": 0.3}}
    assert doc["report"]["sweep"][0]["passed"] is False


def test_trace_witness_floor_is_met_at_tol(monkeypatch, capsys):
    # floor - tol and floor - violation are exact here: the shortfall is tol itself
    tol = 2.0 ** -10
    _stub_witness(monkeypatch, 1.0 - tol)
    code, doc = run_json(capsys, "trace", "--lambda", "0.3", "--tol", str(tol))
    assert code == 0 and doc["report"]["sweep"][0]["passed"] is True
    _stub_witness(monkeypatch, math.nextafter(1.0 - tol, 0.0))
    code, doc = run_json(capsys, "trace", "--lambda", "0.3", "--tol", str(tol))
    assert code == 1 and doc["report"]["sweep"][0]["passed"] is False


def test_spectrum_missing_window_point_fails(monkeypatch, capsys):
    def without_zero(lam, horizon):
        attained = attained_spectrum(lam, horizon)
        attained["attained_k"].remove(0)
        return {**attained, "matches_window": False, "mismatched": 1}

    monkeypatch.setattr(cli, "attained_spectrum", without_zero)
    code, doc = run_json(capsys, "spectrum", "--n", "3")
    assert code == 1
    assert doc["failure"] == {"invariant": "attained lattice window",
                              "witness": {"attained_k": [-3, -2, -1, 1, 2, 3]}}


def test_spectrum_and_degenerate(capsys):
    code, doc = run_json(capsys, "spectrum", "--lambda", "0.3", "--n", "3")
    assert code == 0
    assert doc["report"]["matches_window"] is True
    assert len(doc["report"]["points"]) == 7
    code_d, doc_d = run_json(capsys, "spectrum", "--lambda", "0.5", "--n", "3")
    assert code_d == 0
    assert doc_d["report"]["degenerate"] is True
    assert doc_d["report"]["points"] == [0.0]
    assert main(["spectrum", "--lambda", "0.9"]) == 2


def test_ising_partition(capsys):
    code, doc = run_json(capsys, "ising-partition", "--J", "1", "--n", "2")
    assert code == 0
    rep = doc["report"]
    assert rep["brute_force"] == pytest.approx(6.1723225, rel=1e-6)
    assert rep["closed_form"] == pytest.approx(9.524391, rel=1e-6)
    assert rep["discrepancy_flag"] is True


def test_ising_dynamics(capsys):
    code, doc = run_json(capsys, "ising-dynamics", "--n", "3", "--depth", "4", "--seed", "2")
    assert code == 0
    rep = doc["report"]
    assert rep["max_deviation"] < 1e-12
    assert rep["max_norm_drift"] < 1e-12
    assert rep["non_cocycle_min_deviation"] > 1e-3
    assert len(rep["runs"]) == 3


def test_ising_dynamics_failure_records(monkeypatch, capsys):
    # an unreachable tolerance fails the flow check, the first in report order
    code, doc = run_json(capsys, "ising-dynamics", "--tol", "1e-30")
    assert code == 1
    assert doc["failure"]["invariant"] == "phase flow equals conjugated product"
    # a control with nothing broken keeps the equivalence, and must fail the run
    monkeypatch.setattr(cli, "NonCocyclePerturbation",
                        lambda base: NonCocyclePerturbation(base, amplitude=0.0))
    code, doc = run_json(capsys, "ising-dynamics")
    assert code == 1
    assert doc["failure"]["invariant"] == (
        "non-cocycle control must visibly break the equivalence")
    assert doc["failure"]["witness"]["non_cocycle_min_deviation"] < 1e-3


def test_dfs_build_check_roundtrip(tmp_path, capsys):
    out = tmp_path / "table.json"
    code = main(
        ["dfs-build", "--n", "2", "--depth", "4", "--seed", "3", "--out", str(out)]
    )
    assert code == 0
    assert capsys.readouterr().out == ""  # report went to the file
    payload = json.loads(out.read_text())
    assert payload["report"]["check"]["passed"] is True
    code2, doc2 = run_json(capsys, "dfs-check", str(out))
    assert code2 == 0
    assert doc2["report"]["source"] == str(out)


def test_dfs_build_checks_its_table_once(monkeypatch, capsys):
    horizons = []
    check = dfs.dfs_check

    def counting(S, tol=1e-12):
        horizons.append(S.n)
        return check(S, tol)

    monkeypatch.setattr(cli, "dfs_check", counting)
    monkeypatch.setattr(dfs, "dfs_check", counting)
    code, doc = run_json(capsys, "dfs-build", "--n", "3", "--depth", "5")
    assert code == 0
    # each extension checks its input; the report checks the finished table
    assert horizons == [0, 1, 2, 3]
    assert doc["report"]["check"]["n"] == 3


def test_dfs_check_rejects_corrupt_table(tmp_path, capsys):
    out = tmp_path / "table.json"
    main(["dfs-build", "--n", "2", "--depth", "4", "--seed", "3", "--out", str(out)])
    payload = json.loads(out.read_text())
    table = payload["report"]["table"]
    table["entries"][1]["values"][0] += 1.0
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(table))
    code, doc = run_json(capsys, "dfs-check", str(bad))
    assert code == 1
    assert doc["passed"] is False
    assert doc["report"]["check"]["max_violation"] >= 0.5


def test_dfs_check_fails_on_nan_entry(tmp_path, capsys):
    out = tmp_path / "table.json"
    main(["dfs-build", "--n", "2", "--depth", "4", "--seed", "3", "--out", str(out)])
    table = json.loads(out.read_text())["report"]["table"]
    table["entries"][1]["values"][0] = float("nan")
    bad = tmp_path / "nan.json"
    bad.write_text(json.dumps(table))
    code, doc = run_json(capsys, "dfs-check", str(bad))
    assert code == 1
    assert doc["passed"] is False
    assert doc["report"]["check"]["passed"] is False
    assert math.isnan(doc["report"]["check"]["max_violation"])


MALFORMED_TABLES = {
    "no entries": {"n": 2},
    "no n": {"entries": []},
    "not an object": [1, 2],
    "record without values": {"n": 1, "entries": [{"flips": [], "depth": 1}]},
    "record without depth": {"n": 1, "entries": [{"flips": [], "values": [0, 0]}]},
    "record without flips": {"n": 1, "entries": [{"depth": 1, "values": [0, 0]}]},
    "short values": {"n": 1, "entries": [{"flips": [], "depth": 2, "values": [0, 0, 0]}]},
    "bad value": {"n": 1, "entries": [{"flips": [], "depth": 1, "values": ["x", "0"]}]},
    "bad site": {"n": 1, "entries": [{"flips": [0], "depth": 1, "values": [0, 0]}]},
    "negative depth": {"n": 1, "entries": [{"flips": [], "depth": -1, "values": []}]},
    "negative horizon": {"n": -1, "entries": []},
    "a number": 5,
    "word beyond n": {"n": 1, "entries": [{"flips": [2], "depth": 2, "values": [0] * 4}]},
    "n beyond the depth cap": {"n": 30, "entries": []},
    "n 1000": {"n": 1000, "entries": []},
    "depth below n": {"n": 2, "entries": [{"flips": [1], "depth": 1, "values": [0, 0]}]},
    "boolean n": {"n": True, "entries": [{"flips": [], "depth": 1, "values": [0, 0]},
                                         {"flips": [1], "depth": 1, "values": [1, -1]}]},
    "boolean depth and site, fractional depth": {"n": 1, "entries": [
        {"flips": [], "depth": True, "values": [0, 0]},
        {"flips": [True], "depth": 1.9, "values": [1, -1]}]},
    "boolean depth": {"n": 1, "entries": [{"flips": [], "depth": True, "values": [0, 0]}]},
    "fractional depth": {"n": 1, "entries": [{"flips": [], "depth": 1.9, "values": [0, 0]}]},
    "boolean site": {"n": 1, "entries": [{"flips": [True], "depth": 1, "values": [1, -1]}]},
    "fractional site": {"n": 1, "entries": [{"flips": [1.0], "depth": 1, "values": [1, -1]}]},
    "site far beyond n": {"n": 1, "entries": [{"flips": [100], "depth": 1, "values": [0, 0]}]},
    "zero denominator": {"n": 0, "entries": [{"flips": [], "depth": 0, "values": ["1/0"]}]},
    "value beyond float": {"n": 0, "entries": [{"flips": [], "depth": 0, "values": [10**400]}]},
    # the first record breaks antisymmetry; a repeat must not hide it
    "repeated word": {"n": 1, "entries": [{"flips": [1], "depth": 1, "values": [1, 2]},
                                          {"flips": [1], "depth": 1, "values": [1, -1]}]},
}


def _refuse_table(*args, **kwargs):
    raise AssertionError("a table was allocated before its document was checked")


_FROM_SITES = dfs.word_from_sites


def _refuse_far_sites(sites):
    # a word with such a site would allocate its bit before the horizon check
    if any(isinstance(s, int) and s > 64 for s in sites):
        raise AssertionError(f"a word was built from the sites {sites!r}")
    return _FROM_SITES(sites)


@pytest.mark.parametrize("doc", MALFORMED_TABLES.values(), ids=MALFORMED_TABLES)
def test_dfs_check_malformed_table_exit_2(monkeypatch, tmp_path, capsys, doc):
    monkeypatch.setattr(dfs, "DfsTable", _refuse_table)
    monkeypatch.setattr(dfs, "word_from_sites", _refuse_far_sites)
    path = tmp_path / "malformed.json"
    path.write_text(json.dumps(doc))
    assert main(["dfs-check", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("config error: ")
    assert len(captured.err.splitlines()) == 1


def test_dfs_check_names_the_repeated_record(tmp_path, capsys):
    path = tmp_path / "repeated.json"
    path.write_text(json.dumps(MALFORMED_TABLES["repeated word"]))
    assert main(["dfs-check", str(path)]) == 2
    assert capsys.readouterr().err.startswith("config error: table entry 1: repeated word")


@pytest.mark.parametrize("raw", [b"{not json", b"", b"\xff\xfe{}"],
                         ids=["not JSON", "empty", "not UTF-8"])
def test_dfs_check_unreadable_table_file_exit_2(tmp_path, capsys, raw):
    path = tmp_path / "table.json"
    path.write_bytes(raw)
    assert main(["dfs-check", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("config error: ")


@pytest.mark.parametrize("where", ["a directory", "a missing directory"])
def test_unwritable_out_exit_2(tmp_path, capsys, where):
    out = tmp_path if where == "a directory" else tmp_path / "missing" / "report.json"
    assert main(["axioms", "--n", "1", "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("config error: ")


@pytest.mark.parametrize("subcommand", ["dfs-build", "dfs-check"])
def test_depth_beyond_cap_is_refused_before_drawing(monkeypatch, capsys, subcommand):
    def draw(*args, **kwargs):
        raise AssertionError("seeds drawn before the depth cap was checked")

    monkeypatch.setattr(cli, "random_cylinder", draw)
    assert main([subcommand, "--n", "3", "--depth", "30"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("config error: ")


def test_dfs_check_builds_fresh_without_file(capsys):
    code, doc = run_json(capsys, "dfs-check", "--n", "2", "--depth", "3", "--seed", "1")
    assert code == 0
    assert doc["report"]["source"] == "built from config seeds"


def test_config_file_with_flag_override(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(
        json.dumps(
            {
                "measure": {"kind": "bernoulli", "lambda": "3/10"},
                "n": 2,
                "depth": 4,
                "trials": 4,
                "seed": 5,
            }
        )
    )
    code, doc = run_json(capsys, "glimm", "--config", str(cfg), "--seed", "9")
    assert code == 0
    assert doc["config"]["seed"] == 9  # flag wins
    assert doc["config"]["trials"] == 4  # file value kept
    # glimm runs, and echoes, the float of the file's exact "3/10"
    assert doc["config"]["lambda"] == doc["report"]["lambda"] == 0.3
    assert main(["glimm", "--config", str(tmp_path / "missing.json")]) == 2


@pytest.mark.parametrize("lam", ["0.3", "3/10"])
def test_glimm_echoes_the_float_lambda_it_runs(capsys, lam):
    code, doc = run_json(capsys, "glimm", "--lambda", lam, "--n", "2", "--trials", "2")
    assert code == 0
    assert doc["config"]["lambda"] == doc["report"]["lambda"] == 0.3


@pytest.mark.parametrize("seed", [-2**63, 2**63 - 1])
def test_signed_64_bit_seed_range_is_accepted(capsys, seed):
    code, doc = run_json(capsys, "glimm", "--n", "1", "--trials", "1", "--seed", str(seed))
    assert code == 0 and doc["config"]["seed"] == seed


def test_config_file_rejects_stray_keys(tmp_path):
    # a misplaced key must not be dropped silently
    flat = tmp_path / "flat.json"
    flat.write_text(json.dumps({"lambda": "3/10"}))
    assert main(["glimm", "--config", str(flat)]) == 2
    nested = tmp_path / "nested.json"
    nested.write_text(json.dumps({"measure": {"kind": "bernoulli", "lam": 0.3}}))
    assert main(["glimm", "--config", str(nested)]) == 2


MALFORMED_CONFIGS = {
    "measure a number": {"measure": 5},
    "a number": 5,
    "a list": [1, 2],
    "n a list": {"n": [4]},
    "seed null": {"seed": None},
    "tol null": {"tol": None},
    "J null": {"measure": {"kind": "ising", "J": None}},
    "lambda boolean": {"measure": {"lambda": True}},
    "out a number": {"out": 5},
    "n fractional": {"n": 4.5},
    "n boolean": {"n": True},
    "unknown format": {"format": "xml"},
}


@pytest.mark.parametrize("doc", MALFORMED_CONFIGS.values(), ids=MALFORMED_CONFIGS)
def test_malformed_config_exit_2(tmp_path, capsys, doc):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(doc))
    assert main(["ising-partition", "--config", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("config error: ")


NON_FINITE_INPUTS = {
    "J nan, axioms": (["axioms", "--n", "2", "--J", "nan"], None),
    "J nan, ising-partition": (["ising-partition", "--n", "3", "--J", "nan"], None),
    "J inf, ising-partition": (["ising-partition", "--n", "3", "--J", "inf"], None),
    "tol inf": (["algebra", "--tol", "inf"], None),
    "tol Infinity in a config file": (["algebra"], {"tol": math.inf}),
    "J NaN in a config file": (["axioms"], {"measure": {"J": math.nan}}),
    **{f"n -1, {cmd}": ([cmd, "--n", "-1"], None) for cmd in (
        "haar", "algebra", "spectrum", "glimm", "trace", "ising-dynamics",
        "axioms", "dfs-build", "dfs-check", "ising-partition")},
    "n 0, glimm": (["glimm", "--n", "0"], None),
    "n 9, glimm": (["glimm", "--n", "9"], None),
    "lambda 0.7, glimm": (["glimm", "--lambda", "0.7"], None),
    "measure kind potts in a config file": (["haar"], {"measure": {"kind": "potts"}}),
    "n 0, ising-partition": (["ising-partition", "--n", "0"], None),
    # |J| n past the cut-off where the partition functions leave float64
    "J 800, ising-partition": (["ising-partition", "--J", "800"], None),
    "J -1000, ising-partition": (["ising-partition", "--J", "-1000"], None),
    "J 400, ising-partition": (["ising-partition", "--J", "400"], None),
    # the largest |log delta| at the run's depth past log(float64 max) = 709.78
    "lambda 1e-300, algebra": (["algebra", "--lambda", "1e-300", "--trials", "2"], None),
    "lambda 1e-320, trace": (["trace", "--lambda", "1e-320"], None),
    "lambda 1e-300 float in a config file, haar": (["haar"], {"measure": {"lambda": 1e-300}}),
    "J 800, haar": (["haar", "--measure", "ising", "--J", "800", "--n", "2", "--depth", "3"], None),
    "J 800, ising-dynamics": (["ising-dynamics", "--J", "800", "--n", "2", "--depth", "3"], None),
    # 2 |J| (depth - 1) = 356 at depth 2, but 712 at depth 3, where the kernels lift
    "J 178 lifted past the cut-off, algebra": (
        ["algebra", "--measure", "ising", "--J", "178", "--n", "2", "--depth", "2",
         "--trials", "2"], None),
    "lambda 1/0": (["haar", "--lambda", "1/0"], None),
    "lambda 1/0 in a config file": (["haar"], {"measure": {"lambda": "1/0"}}),
    # trial seeds hash the master seed as a signed 64-bit integer
    "seed 10**20": (["algebra", "--trials", "2", "--seed", str(10**20)], None),
    "seed 2**63, dfs-build": (["dfs-build", "--seed", str(2**63)], None),
    "seed -2**63 - 1, glimm": (["glimm", "--seed", str(-2**63 - 1)], None),
    # a Glimm image multiplies n roots delta**-+1/2: n/2 |log r| = 2763 at n 8
    "lambda 1e-300 at n 8, glimm": (
        ["glimm", "--lambda", "1e-300", "--n", "8", "--depth", "8", "--trials", "50"], None),
    "seed 10**20 in a config file": (["algebra", "--trials", "2"], {"seed": 10**20}),
}


@pytest.mark.parametrize("argv, doc", NON_FINITE_INPUTS.values(), ids=NON_FINITE_INPUTS)
def test_non_finite_input_exit_2(tmp_path, capsys, argv, doc):
    if doc is not None:
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(doc))  # json writes inf as Infinity, nan as NaN
        argv = argv + ["--config", str(path)]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("config error: ")



@pytest.mark.parametrize("J", ["173.9", "-173.9"])
def test_ising_partition_just_below_the_float64_cut_off(capsys, J):
    # |J| n = 695.6, below log(float64 max) - 14 = 695.78
    assert main(["ising-partition", "--J", J, "--n", "4"]) == 0
    report = json.loads(capsys.readouterr().out)["report"]
    assert math.isfinite(report["closed_form"]) and math.isfinite(report["brute_force"])


@pytest.mark.parametrize("argv", [
    "ising-dynamics --J 2",  # tolerance defects, not overflow
    "ising-dynamics --n 3 --J 30",
    "algebra --measure ising --J 177 --n 2 --depth 2 --trials 2",  # 708 at depth 3
    "trace --lambda 1e-51",  # 6 |log(b / a)| = 704.6
])
def test_tables_within_float64_are_accepted(argv):
    cli.config_from_args(cli.build_parser().parse_args(argv.split()))


@pytest.mark.parametrize("argv", [
    "glimm --lambda 1e-76 --n 8 --depth 8 --trials 20",  # n/2 |log r| = 700.3
    "glimm --lambda 1e-300 --n 2 --depth 2",  # |log r| = 690.8 at n 2
])
def test_glimm_images_within_float64_run_clean(capsys, argv):
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert main(argv.split()) == 0


def test_haar_just_below_the_float64_cut_off(capsys):
    # 2 |J| (depth - 1) = 708, below log(float64 max) = 709.78
    code, doc = run_json(capsys, "haar", "--measure", "ising", "--J", "177", "--n", "2",
                         "--depth", "3")
    assert code == 0 and math.isfinite(doc["report"]["max_rel_deviation"])


def test_haar_exact_lambda_past_the_float64_cut_off(capsys):
    # 6 |log(b / a)| = 4145, but haar compares an exact measure's integers
    code, doc = run_json(capsys, "haar", "--lambda", "1e-300")
    assert code == 0 and doc["report"]["max_rel_deviation"] == 0.0
    assert all(row["exact_zero"] for row in doc["report"]["covariance"])
    assert all(row["exact_zero"] for row in doc["report"]["projection"])


def test_axioms_n6_within_five_seconds(capsys):
    start = time.perf_counter()
    assert main(["axioms", "--n", "6"]) == 0
    assert time.perf_counter() - start < 5.0
    report = json.loads(capsys.readouterr().out)["report"]
    assert (report["checks"], report["violations"]) == (17_592_448, 0)


# Each subcommand checks the measure kinds cli.MEASURE_KINDS names; another
# kind, given by flag or config file, is refused instead of silently replaced.
MEASURE_MISMATCHES = {
    f"{kind} {how}, {cmd}": ([cmd, "--measure", kind] if how == "flag" else [cmd],
                             None if how == "flag" else {"measure": {"kind": kind}})
    for cmd, kinds in (
        ("axioms", ("bernoulli", "ising")),
        ("dfs-build", ("bernoulli", "ising")),
        ("dfs-check", ("bernoulli", "ising")),
        ("glimm", ("ising",)),
        ("trace", ("ising",)),
        ("spectrum", ("ising",)),
        ("ising-partition", ("bernoulli",)),
        ("ising-dynamics", ("bernoulli",)),
    )
    for kind in kinds
    for how in ("flag", "in a config file")
}


# lambda is read only where a Bernoulli measure is checked, J only where an
# Ising one is (for haar and algebra: the kind the config names); given
# anywhere else, by flag or config file, it is refused.
UNREAD_PARAMETERS = {
    f"{name} {how}, {' '.join(cmd)}": (
        cmd + ([f"--{name}", str(value)] if how == "flag" else []),
        None if how == "flag" else {"measure": {name: value}})
    for name, value, cmds in (
        ("lambda", "1/5", (["ising-partition", "--n", "2"], ["ising-dynamics"],
                           ["axioms", "--n", "2"], ["dfs-build"], ["dfs-check"],
                           ["haar", "--measure", "ising"],
                           ["algebra", "--measure", "ising"])),
        ("J", 3.0, (["glimm", "--n", "2", "--trials", "2"], ["spectrum"], ["trace"],
                    ["axioms", "--n", "2"], ["dfs-build"], ["dfs-check"], ["haar"],
                    ["algebra"], ["haar", "--measure", "bernoulli"])),
    )
    for cmd in cmds
    for how in ("flag", "in a config file")
}


# trials is read only by the subcommands that run --trials trials (ising-dynamics
# runs one per flow time); given to any other, by flag or config file, it is refused.
UNREAD_TRIALS = {
    f"trials {how}, {' '.join(cmd)}": (cmd + (["--trials", "5"] if how == "flag" else []),
                                       None if how == "flag" else {"trials": 5})
    for cmd in (["axioms", "--n", "2"], ["haar", "--n", "2", "--depth", "3"], ["dfs-build"],
                ["dfs-check"], ["ising-partition", "--n", "2"],
                ["ising-dynamics", "--n", "2", "--depth", "2"], ["spectrum", "--n", "3"])
    for how in ("flag", "in a config file")
}


MISMATCHES = {**MEASURE_MISMATCHES, **UNREAD_PARAMETERS, **UNREAD_TRIALS}


@pytest.mark.parametrize("argv, doc", MISMATCHES.values(), ids=MISMATCHES)
def test_measure_mismatch_exit_2(tmp_path, capsys, argv, doc):
    test_non_finite_input_exit_2(tmp_path, capsys, argv, doc)


def test_checked_measure_parameter_in_a_config_file(tmp_path, capsys):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"measure": {"kind": "ising", "J": 2.0}}))
    assert run(capsys, "haar", "--config", str(path), "--n", "2", "--depth", "3")[0] == 0


def test_measure_kinds_cover_every_subcommand():
    assert cli.MEASURE_KINDS.keys() == cli.COMMANDS.keys()


def test_checked_measure_may_be_named(capsys):
    assert run(capsys, "spectrum", "--measure", "bernoulli", "--n", "3")[0] == 0
    assert run(capsys, "ising-partition", "--measure", "ising", "--n", "3")[0] == 0
    code, doc = run_json(capsys, "ising-dynamics", "--measure", "ising", "--n", "2",
                         "--depth", "3")
    assert code == 0 and doc["config"]["measure"] == "ising"


def test_benchmark_argv_validates(monkeypatch):
    # an exit 2 on any benchmark operation fails the whole benchmark run
    path = Path(__file__).resolve().parents[1] / "perfbench" / "spec.py"
    loader = importlib.util.spec_from_file_location("perfbench_spec", path)
    bench = importlib.util.module_from_spec(loader)
    monkeypatch.setitem(sys.modules, loader.name, bench)  # dataclasses look it up
    loader.loader.exec_module(bench)
    parser = cli.build_parser()
    argvs = [op.argv for ops in bench.WORKLOADS.values() for op in ops if op.argv]
    assert len(argvs) == 16
    for argv in argvs:
        args = [a.format(out="report.json", table="table.json") for a in argv]
        cli.config_from_args(parser.parse_args(args + ["--seed", "0"]))

def test_csv_format(capsys):
    import csv
    import io

    code, out = run(
        capsys, "axioms", "--n", "2", "--format", "csv"
    )
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert len(rows) == 2
    idx = rows[0].index("report.violations")
    assert json.loads(rows[1][idx]) == 0
    assert "subcommand" in rows[0]
