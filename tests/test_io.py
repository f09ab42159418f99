"""Wire formats: loaders reject malformed input, dumpers round-trip."""

import json

import pytest

from transit import io as tio
from transit.congestion import parallel_links
from transit.errors import ParseError
from transit.fixtures import matrix6_game
from transit.routing import fig2_family


def test_game_round_trip_exact_rationals():
    game = matrix6_game()
    doc = tio.game_to_dict(game)
    back = tio.game_from_dict(doc)
    assert back.payoffs == game.payoffs
    assert doc["payoffs"][0][1] == ["2", "3/2"]  # a/c, b/c as exact strings


def test_game_loader_rejects_ragged_tensor():
    doc = {
        "convention": "max",
        "players": ["a", "b"],
        "strategies": [["x", "y"], ["u", "v"]],
        "payoffs": [[["1", "1"], ["1", "1"]], [["1", "1"]]],
    }
    with pytest.raises(ParseError, match="ragged"):
        tio.game_from_dict(doc)


def test_game_loader_rejects_bad_vector_arity():
    doc = {
        "convention": "max",
        "players": ["a", "b"],
        "strategies": [["x"], ["u"]],
        "payoffs": [[["1"]]],
    }
    with pytest.raises(ParseError):
        tio.game_from_dict(doc)


def test_solution_set_inline_game(tmp_path):
    doc = {
        "game": tio.game_to_dict(matrix6_game()),
        "label": "pair",
        "members": [[0, 0], [1, 1]],
    }
    path = tmp_path / "sol.json"
    path.write_text(json.dumps(doc))
    D = tio.load_solution_set(path)
    assert D.label == "pair" and len(D.members) == 2


def test_solution_set_relative_game_path(tmp_path):
    gpath = tmp_path / "game.json"
    gpath.write_text(json.dumps(tio.game_to_dict(matrix6_game())))
    spath = tmp_path / "sol.json"
    spath.write_text(
        json.dumps({"game": "game.json", "label": "x", "members": [[0, 0]]})
    )
    D = tio.load_solution_set(spath)
    assert D.members == ((0, 0),)


def test_congestion_round_trip():
    cg = parallel_links(3)
    back = tio.congestion_from_dict(tio.congestion_to_dict(cg))
    assert back.costs == cg.costs and back.strategies == cg.strategies


def test_routing_round_trip_poly_and_pwl():
    inst = fig2_family(3, 2, 0.25)
    back = tio.routing_from_dict(tio.routing_to_dict(inst))
    assert back.edges == inst.edges
    assert back.commodities == inst.commodities
    doc = {
        "nodes": 2,
        "edges": [{"from": 0, "to": 1, "cost": {"pwl": [[0, 0], [1, 2]]}}],
        "commodities": [{"source": 0, "sink": 1, "rate": 1, "paths": [[0]]}],
    }
    pwl = tio.routing_from_dict(doc)
    assert pwl.costs[0](0.5) == 1.0


def test_graph_text_and_json(tmp_path):
    text = tmp_path / "g.txt"
    text.write_text("# a square\n0 1\n1 2\n2 3\n3 0\n")
    g = tio.load_graph(text)
    assert g.n_nodes == 4 and len(g.edges) == 4
    jpath = tmp_path / "g.json"
    jpath.write_text(json.dumps(tio.graph_to_dict(g)))
    g2 = tio.load_graph(jpath)
    assert g2.edges == g.edges


def test_graph_text_rejects_garbage(tmp_path):
    bad = tmp_path / "bad.txt"
    bad.write_text("0 1 2\n")
    with pytest.raises(ParseError):
        tio.load_graph(bad)


def test_missing_file_is_parse_error():
    with pytest.raises(ParseError):
        tio.load_game("/nonexistent/game.json")
