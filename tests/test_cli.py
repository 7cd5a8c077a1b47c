import json
import math

import pytest

from flipchain.cli import main


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
}


@pytest.mark.parametrize("doc", MALFORMED_TABLES.values(), ids=MALFORMED_TABLES)
def test_dfs_check_malformed_table_exit_2(tmp_path, capsys, doc):
    path = tmp_path / "malformed.json"
    path.write_text(json.dumps(doc))
    assert main(["dfs-check", str(path)]) == 2
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
    assert doc["config"]["lambda"] == "3/10"
    assert main(["glimm", "--config", str(tmp_path / "missing.json")]) == 2


def test_config_file_rejects_stray_keys(tmp_path):
    # a misplaced key must not be dropped silently
    flat = tmp_path / "flat.json"
    flat.write_text(json.dumps({"lambda": "3/10"}))
    assert main(["glimm", "--config", str(flat)]) == 2
    nested = tmp_path / "nested.json"
    nested.write_text(json.dumps({"measure": {"kind": "bernoulli", "lam": 0.3}}))
    assert main(["glimm", "--config", str(nested)]) == 2


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
