"""Wire formats: loaders reject malformed input, dumpers round-trip."""

import json
from fractions import Fraction

import numpy as np
import pytest

from transit import io as tio
from transit.congestion import CongestionGame, congestion_to_game
from transit.errors import ParseError
from transit.fixtures import matrix6_game
from transit.games import Game
from transit.routing import fig2_family


def test_game_round_trip_exact_rationals():
    game = matrix6_game()
    doc = tio.game_to_dict(game)
    back = tio.game_from_dict(doc)
    assert back.payoffs == game.payoffs
    assert doc["payoffs"][0][1] == ["2", "3/2"]  # a/c, b/c as exact strings


F = Fraction

# game_to_dict documents as first written from the Fraction payoff tables
PINNED_DOCUMENTS = {
    "matrix6": '{"convention": "max", "players": ["row", "col"], "strategies": [["I", "II"], '
               '["1", "2"]], "payoffs": [[["4", "4"], ["2", "3/2"]], [["3/2", "2"], ["3", "3"]]]}',
    "congestion-min": '{"convention": "min", "players": ["p1", "p2"], "strategies": [["{0}", '
                      '"{0,1}"], ["{1}", "{0}"]], "payoffs": [[["1/2", "2"], ["3/4", "3/4"]], '
                      '[["17/6", "7/3"], ["11/4", "3/4"]]]}',
    "signed-wide": '{"convention": "min", "players": ["p1", "p2"], "strategies": [["0", "1"], '
                   '["0"]], "payoffs": [[["-1180591620717411303424", "1/3"]], [["0", "-5/7"]]]}',
}


def _pinned_game(name):
    if name == "matrix6":
        return matrix6_game()
    if name == "congestion-min":
        menus = ((frozenset([0]), frozenset([0, 1])), (frozenset([1]), frozenset([0])))
        return congestion_to_game(
            CongestionGame(2, 2, menus, ((F(1, 2), F(3, 4)), (F(2), F(7, 3))))
        )
    rows = ((F(-(2**70)), F(1, 3)), (F(0), F(-5, 7)))
    return Game.from_function((2, 1), lambda s: rows[s[0]], "min")


@pytest.mark.parametrize("name", sorted(PINNED_DOCUMENTS))
def test_game_documents_are_pinned_and_round_trip(name):
    game = _pinned_game(name)
    text = json.dumps(tio.game_to_dict(game))
    assert text == PINNED_DOCUMENTS[name]
    back = tio.game_from_dict(json.loads(text))
    assert back.ints[0] == game.ints[0]
    assert back.ints[1].dtype == game.ints[1].dtype
    assert np.array_equal(back.ints[1], game.ints[1])
    assert back.payoffs == game.payoffs


def test_game_loader_rejects_ragged_tensor():
    doc = {
        "convention": "max",
        "players": ["a", "b"],
        "strategies": [["x", "y"], ["u", "v"]],
        "payoffs": [[["1", "1"], ["1", "1"]], [["1", "1"]]],
    }
    with pytest.raises(ParseError, match="ragged"):
        tio.game_from_dict(doc)


@pytest.mark.parametrize("payoffs, message", [
    # a bad value before a ragged row, and a ragged row before a bad value
    ([[["x", "1"], ["1", "1"]], [["1", "1"]]], "cannot parse rational 'x'"),
    ([[["1", "1"]], [["x", "1"], ["1", "1"]]], r"ragged at \[0\]: expected 2"),
    # a short vector inside row 0 comes before the ragged row 1
    ([[["1", "1"], ["1"]], ["x"]], r"vector at \[0, 1\] must list 2"),
    # a dict of the right length where a vector or a row belongs
    ([[["1", "1"], {"0": "1", "1": "1"}], [["1", "1"], ["1", "1"]]],
     r"vector at \[0, 1\] must list 2"),
    ([{"0": ["1", "1"], "1": ["1", "1"]}, [["1", "1"], ["1", "1"]]],
     r"ragged at \[0\]: expected 2"),
    # a list where a scalar belongs, before a ragged row
    ([[["1", ["1"]], ["1", "1"]], [["1", "1"]]], r"cannot interpret \['1'\] as a payoff"),
    # a scalar where the whole tensor belongs
    ("1", r"ragged at \[\]: expected 2"),
])
def test_game_loader_reports_the_first_fault_in_document_order(payoffs, message):
    doc = {"players": ["a", "b"], "strategies": [["x", "y"], ["u", "v"]], "payoffs": payoffs}
    with pytest.raises(ParseError, match=message):
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
