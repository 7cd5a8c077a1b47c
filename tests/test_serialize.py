import json
from fractions import Fraction

import numpy as np

from flipchain import (
    CylinderFunction,
    dfs_build,
    dfs_check,
    dfs_from_json,
    dfs_to_json,
    rng_for,
)
from flipchain.cli import render_csv, render_json
from oracles import ising_dfs_coefficients


def roundtrip(doc):
    # push through actual JSON text so only serializable types survive
    return json.loads(json.dumps(doc))


def test_dfs_roundtrip_float():
    from flipchain import dfs_build, random_cylinder

    seeds = [random_cylinder(rng_for(62, k), 4, complex_values=False) for k in range(2)]
    S = dfs_build(2, seeds, 4)
    back = dfs_from_json(roundtrip(dfs_to_json(S)))
    assert back.n == S.n and back.depth == S.depth
    for w in S.entries:
        assert np.array_equal(back.entries[w].values, S.entries[w].values)


def test_dfs_roundtrip_exact():
    S = ising_dfs_coefficients(2, 4)
    doc = roundtrip(dfs_to_json(S))
    back = dfs_from_json(doc)
    for w in S.entries:
        got = back.entries[w].values
        want = S.entries[w].values
        assert [float(v) for v in got] == [float(v) for v in want]


def test_dfs_roundtrip_keeps_an_exact_table_exact():
    seeds = [
        CylinderFunction(3, np.array([Fraction(int(v), 7) for v in
                                      rng_for(63, k).integers(-9, 10, size=8)], dtype=object))
        for k in range(2)
    ]
    S = dfs_build(2, seeds, 3)
    doc = roundtrip(dfs_to_json(S))
    assert doc["entries"][0]["values"] == ["0"] * 8
    back = dfs_from_json(doc)
    assert back.exact
    assert back.values.tolist() == S.values.tolist()
    rep = dfs_check(back)
    assert rep["exact_zero"] is True and rep["max_violation"] == 0.0


def test_render_json_canonical():
    doc = {"b": 1, "a": {"z": Fraction(1, 3), "y": np.float64(2.5), "x": np.bool_(True)}}
    text = render_json(doc)
    assert text.endswith("\n")
    assert text == render_json(doc)
    parsed = json.loads(text)
    assert parsed["a"]["z"] == "1/3"
    assert parsed["a"]["y"] == 2.5
    assert parsed["a"]["x"] is True
    assert list(parsed) == ["a", "b"]


def test_render_csv_projection():
    import csv
    import io

    doc = {"b": {"y": [1, 2]}, "a": 1, "s": "hi"}
    rows = list(csv.reader(io.StringIO(render_csv(doc))))
    assert rows[0] == ["a", "b.y", "s"]
    # every cell is itself a JSON document
    assert [json.loads(c) for c in rows[1]] == [1, [1, 2], "hi"]
