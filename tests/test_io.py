"""Wire formats: loaders reject malformed input, dumpers round-trip."""

import builtins
import io
import json
import os
import random
import re
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


# a bad payoff scalar and the message of the loader's refusal
_BAD_SCALARS = (
    ("x", "cannot parse rational 'x'"),
    ("1/0", "cannot parse rational '1/0'"),
    (True, "boolean is not a payoff value: True"),
    (None, "cannot interpret None as a payoff value"),
    (["1"], "cannot interpret ['1'] as a payoff value"),
    ({"a": 1}, "cannot interpret {'a': 1} as a payoff value"),
)


def _planted_faults(rng):
    """(shape, payoffs, message): a well-formed tensor of 1-3 players of 1-3
    strategies with one node made ragged and one scalar made bad, outside
    the ragged subtree, at random preorder positions; the message is the
    refusal of whichever of the two comes first.  None when every scalar
    lies below the ragged node."""
    shape = tuple(rng.randint(1, 3) for _ in range(rng.randint(1, 3)))
    n = len(shape)
    sizes = (*shape, n)

    def build(depth):
        return [build(depth + 1) if depth < n else "1" for _ in range(sizes[depth])]

    def preorder(node, path):
        yield path
        if len(path) <= n:
            for k, sub in enumerate(node):
                yield from preorder(sub, path + [k])

    def at(node, path):
        for k in path:
            node = node[k]
        return node

    payoffs = build(0)
    order = list(preorder(payoffs, []))
    ragged = rng.choice([p for p in order if len(p) <= n])
    scalars = [p for p in order if len(p) == n + 1 and p[: len(ragged)] != ragged]
    if not scalars:
        return None
    scalar = rng.choice(scalars)
    bad, bad_message = rng.choice(_BAD_SCALARS)
    at(payoffs, scalar[:-1])[scalar[-1]] = bad
    node = at(payoffs, ragged)
    if rng.random() < 0.5:
        node.pop()
    else:
        node.append(build(len(ragged) + 1) if len(ragged) < n else "1")
    if order.index(scalar) < order.index(ragged):
        return shape, payoffs, bad_message
    if len(ragged) == n:
        return shape, payoffs, f"payoff vector at {ragged} must list {n} values"
    return shape, payoffs, (
        f"payoff tensor is ragged at {ragged}: expected {shape[len(ragged)]} entries"
    )


def test_game_loader_reports_the_first_of_two_planted_faults():
    rng = random.Random(8)
    cases = [c for c in (_planted_faults(rng) for _ in range(4000)) if c is not None]
    firsts = set()
    for shape, payoffs, message in cases:
        doc = {"players": [f"p{i}" for i in range(len(shape))],
               "strategies": [[str(x) for x in range(k)] for k in shape],
               "payoffs": payoffs}
        with pytest.raises(ParseError) as exc:
            tio.game_from_dict(doc)
        assert str(exc.value) == message, (shape, payoffs)
        firsts.add(" ".join(message.split()[:2]))
    # both orders, and both kinds of ragged node, are drawn
    assert len(cases) > 2500
    assert firsts == {"payoff vector", "payoff tensor", "cannot parse", "cannot interpret",
                      "boolean is"}


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
    from test_routing import scalar_cost

    assert scalar_cost(pwl.costs[0], 0.5) == 1.0


def test_graph_text_and_json(tmp_path):
    text = tmp_path / "g.txt"
    text.write_text("# a square\n0 1\n1 2\n2 3\n3 0\n")
    g = tio.load_graph(text)
    assert g.n_nodes == 4 and len(g.edges) == 4
    jpath = tmp_path / "g.json"
    jpath.write_text(json.dumps(tio.graph_to_dict(g)))
    g2 = tio.load_graph(jpath)
    assert g2.edges == g.edges


def test_a_json_graph_under_another_name_is_read_once(tmp_path, monkeypatch):
    # the text read to tell JSON from an edge list is the text parsed, with
    # the errors of every other JSON loader
    path = tmp_path / "g.graph"
    opened = []
    real = builtins.open

    def counting(file, *args, **kwargs):
        opened.append(os.fspath(file))
        return real(file, *args, **kwargs)

    monkeypatch.setattr(builtins, "open", counting)
    monkeypatch.setattr(io, "open", counting)
    path.write_text(json.dumps({"nodes": 3, "edges": [[0, 1], [1, 2]]}))
    opened.clear()
    g = tio.load_graph(path)
    assert (g.n_nodes, g.edges) == (3, ((0, 1), (1, 2)))
    assert opened == [os.fspath(path)]
    for text, message in (
        ('{"nodes": 3}', f"{path} is malformed: missing key 'edges'"),
        ('{"nodes": 3, "edges": [[0, "x"]]}', f"{path} is malformed: invalid literal"),
        ('{"nodes": 3,', f"{path} is not valid JSON: "),
    ):
        path.write_text(text)
        with pytest.raises(ParseError, match=re.escape(message)):
            tio.load_graph(path)


def test_graph_text_rejects_garbage(tmp_path):
    bad = tmp_path / "bad.txt"
    bad.write_text("0 1 2\n")
    with pytest.raises(ParseError):
        tio.load_graph(bad)


def test_missing_file_is_parse_error():
    with pytest.raises(ParseError):
        tio.load_game("/nonexistent/game.json")
