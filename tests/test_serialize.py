import contextlib
import io
import json
from fractions import Fraction

import numpy as np
import pytest

from flipchain import (
    CylinderFunction,
    dfs_build,
    dfs_check,
    dfs_from_json,
    dfs_to_json,
    rng_for,
)
from flipchain import cli
from flipchain.cli import _json_default, render_csv, render_json
from oracles import ising_dfs_coefficients
from test_report_digests import DIGESTS


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


def dumps(doc) -> str:
    """The oracle: the text that render_json must write, byte for byte."""
    return json.dumps(doc, sort_keys=True, indent=2, default=_json_default) + "\n"


@pytest.mark.parametrize("argv", DIGESTS)
def test_render_json_is_json_dumps_on_every_pinned_report(monkeypatch, argv):
    payloads = []

    def keep(payload):
        payloads.append(payload)
        return ""

    monkeypatch.setattr(cli, "render_json", keep)
    with contextlib.redirect_stdout(io.StringIO()):
        cli.main(argv.split())
    assert len(payloads) == 1
    assert render_json(payloads[0]) == dumps(payloads[0])


NAN, INF = float("nan"), float("inf")
FLOATS = [NAN, INF, -INF, -0.0, 0.0, 5e-324, 1e16, 1e-7, 0.1, -2.5e300]

HAND_BUILT = [
    *FLOATS,
    FLOATS,
    [[1.0, 2.0], [], [[3.0, NAN]], (4.0, -INF)],
    [Fraction(1, 3), Fraction(-2), np.int64(-7), np.uint8(3), np.float64(2.5),
     np.float32(0.1), np.bool_(True), np.bool_(False)],
    [0.5, np.float64(0.25), 1.0],
    [np.float64(0.1), np.float64(NAN)],
    [1.0, 2, 3.5],
    [1.0, True, 0.0, False, None],
    [True, 1, 10**30, -5, None, "1.0"],
    [], {}, (), (1.0, 2.0), (1, "a", ()),
    {"a": [], "b": {}, "c": (), "d": {"e": [[]]}},
    "a, b", ["x, y", "a, b, c"], "ünïcödé ✓ \u2028 \"quoted\"\n", ["é", "\x00\t"],
    {3: "three", -1: "minus one", 10: "ten"},
    {0.5: 1, INF: 2, -0.0: 3, NAN: 4, 1e16: 5},
    {True: [1.0], False: [2.0]},
    {None: {"nested": {2: None}}},
    {"z": {1: 2.0}, "a": [{"k": np.float64(1.5)}], "m": Fraction(7, 2)},
]


@pytest.mark.parametrize("doc", HAND_BUILT, ids=range(len(HAND_BUILT)))
def test_render_json_is_json_dumps_on_hand_built_documents(doc):
    assert render_json(doc) == dumps(doc)
    assert render_json({"wrapped": doc}) == dumps({"wrapped": doc})


@pytest.mark.parametrize("doc", [
    object(), np.array([1.0]), [1.0, object()], {"a": {1j}}, {(1, 2): 3}, {np.int64(1): 2},
    {1: 2, "a": 3},
], ids=range(7))
def test_render_json_refuses_what_json_dumps_refuses(doc):
    with pytest.raises(TypeError) as want:
        dumps(doc)
    with pytest.raises(TypeError) as got:
        render_json(doc)
    assert str(got.value) == str(want.value)


def test_render_csv_projection():
    import csv

    doc = {"b": {"y": [1, 2]}, "a": 1, "s": "hi"}
    rows = list(csv.reader(io.StringIO(render_csv(doc))))
    assert rows[0] == ["a", "b.y", "s"]
    # every cell is itself a JSON document
    assert [json.loads(c) for c in rows[1]] == [1, [1, 2], "hi"]
