"""Report serialisation: the one-pass JSON writer against the json module."""

import json
import math
from fractions import Fraction

import numpy as np
import pytest

from transit import fixtures as fx
from transit.cli import build_parser
from transit.games import enumerate_pure_ne
from transit.io import load_game
from transit.reporting import Report, render_value


def _reference(report: Report) -> str:
    """What `Report.to_json` wrote when it rendered the document first and
    then called `json.dumps`."""
    doc = {
        "kind": report.kind,
        "inputs": report.inputs,
        "results": report.results,
        "provenance": report.provenance,
        "findings": report.findings,
        "status": report.status,
    }
    return json.dumps(render_value(doc), sort_keys=True, indent=2) + "\n"


LEAVES = {
    "floats": [math.inf, -math.inf, math.nan, -0.0, 0.0, 1e-7, 1 / 3, 2.5e300,
               np.float64(1 / 3), np.float64(-np.inf)],
    "ints": [0, -1, 2**63, -(2**64) - 1, 10**40],
    "constants": [True, False, None],
    "fractions": [Fraction(-3, 7), Fraction(4), Fraction(-4), Fraction(0), Fraction(10**30, 3)],
    "strings": ["", "plain", "Zoë", "日本", "tab\tquote\"back\\slash", " "],
    "Zoë": {"ключ": "значение"},
    "int keys": {2: "b", 10: "a", -1: "c"},
    "tuple keys": {(0, 1): 1, (1, 0): 2},
    "tuples": (1, (2, (3,)), ()),
    "empties": [{}, [], (), {"x": {}}, [[]]],
    "numpy": [np.int64(5), np.array([1, 2]).sum(), np.True_],
    "nested": [{"b": [Fraction(1, 2), 0.5], "a": None}],
}


def test_writer_matches_the_json_module_on_every_leaf():
    report = Report("leaves", {"x": 1}, LEAVES, {"fixture": "none"}, ["a: b"])
    assert report.to_json() == _reference(report)
    assert report.status == 1


@pytest.mark.parametrize("name", sorted(LEAVES))
def test_writer_matches_the_json_module_on_each_leaf_alone(name):
    report = Report("leaf", results={name: LEAVES[name]})
    assert report.to_json() == _reference(report)


def _fixture_verbs(tmp_path):
    """Argument vectors of every verb on every shipped fixture."""
    out = []
    for name, fix in fx.REGISTRY.items():
        if fix.kind == "game":
            for flags in (["--ne"], ["--ne", "--stable", "weak"], ["--eps", "1/2"]):
                out.append(["prices", name, *flags])
            out.append(["bounds", name, "--ne"])
            game = load_game(fx.fixture_path(name))
            path = tmp_path / f"{name}.ne.json"
            members = [list(m) for m in enumerate_pure_ne(game).members]
            path.write_text(json.dumps({"game": str(fx.fixture_path(name)), "members": members}))
            out.append(["degree", name, str(path), "--saturate"])
            out.append(["degree", name, str(path), "--profile", "0"])
        elif fix.kind == "routing":
            out.append(["routing", "analyze", name])
        else:
            out.append(["graph", "bounds", name])
            out.append(["graph", "construct", name, "--topology", "forest"
                        if name.startswith("star") else name.split("-")[0]])
        out.append(["oracle", name])
    out.append(["fixtures"])
    out.extend(["theorem", str(k)] for k in range(1, 6))
    return out


def test_writer_matches_the_json_module_on_every_fixture_verb(tmp_path):
    parser = build_parser()
    for argv in _fixture_verbs(tmp_path):
        args = parser.parse_args(argv)
        report = args.func(args)
        assert report.to_json() == _reference(report), argv
