"""Corpus completeness and expectation round-trips."""

import json
import math
from fractions import Fraction

import numpy as np
import pytest

from transit import io as tio
from transit.coordination import coordination_to_game, utilities
from transit.errors import ParseError
from transit.fixtures import (
    REGISTRY,
    compare_expectations,
    compute_expectations,
    expectation_path,
    fixture_path,
    fixtures,
    load_expectations,
    matching_strategy_game,
    matrix2_game,
    resolve_input,
)

F = Fraction


def test_corpus_is_large_enough():
    assert len(REGISTRY) >= 13
    kinds = {f.kind for f in REGISTRY.values()}
    assert kinds == {"game", "routing", "graph"}


def test_every_fixture_has_files_and_expectations():
    listing = fixtures()
    assert len(listing) == len(REGISTRY)
    for row in listing:
        assert fixture_path(row["name"]).exists()
        assert expectation_path(row["name"]).exists()


def test_expectations_have_sources_for_every_value():
    for name in REGISTRY:
        doc = load_expectations(name)
        assert set(doc["values"]) == set(doc["sources"]), name
        assert all(v in ("closed-form", "brute-force") for v in doc["sources"].values())


@pytest.mark.parametrize("name", sorted(REGISTRY))
def test_oracle_reproduces_shipped_expectations(name):
    out = compare_expectations(name)
    assert out["ok"], [r for r in out["rows"] if not r["match"]]


def test_instance_files_round_trip_through_loaders():
    for name, fix in REGISTRY.items():
        path = fixture_path(name)
        if fix.kind == "game":
            game = tio.load_game(path)
            built = fix.build()
            assert game.payoffs == built.payoffs
            assert game.convention == built.convention
        elif fix.kind == "routing":
            inst = tio.load_routing(path)
            built = fix.build()
            assert inst.edges == built.edges
            assert inst.commodities == built.commodities
        elif fix.kind == "graph":
            g = tio.load_graph(path)
            built = fix.build()
            assert g.edges == built.edges and g.n_nodes == built.n_nodes


# L and the sum of U of every fixture's integer grid, as first derived from
# the per-profile Fraction payoffs
GRID_PINS = {
    "matrix2": (1, 4),
    "matrix5": (10, 22),
    "matrix6": (2, 42),
    "example2-3player": (1, 51),
    "matching-strategy": (1, 36),
    "parallel-links-4": (1, -1792),
    "cycle-6": (1, 384),
    "clique-4": (1, 96),
    "star-5": (1, 128),
    "forest-10": (1, 7168),
}


def _flatten(node):
    if isinstance(node, list):
        return [v for sub in node for v in _flatten(sub)]
    return [node]


@pytest.mark.parametrize("name", sorted(GRID_PINS))
def test_integer_grid_matches_the_payoffs_as_written(name):
    fix = REGISTRY[name]
    inst = fix.build()
    if fix.kind == "game":
        game = tio.load_game(fixture_path(name))
        doc = json.loads(fixture_path(name).read_text())
        values = [Fraction(str(v)) for v in _flatten(doc["payoffs"])]
        assert np.array_equal(inst.ints[1], game.ints[1]) and inst.ints[0] == game.ints[0]
    else:
        game = coordination_to_game(inst)
        menus = inst.menus()
        values = [
            Fraction(u) for s in game.profiles()
            for u in utilities(inst, [menus[i][c] for i, c in enumerate(s)])
        ]
    # the reference: L is the lcm of every denominator and U the signed
    # payoffs times L, player-major
    scale = math.lcm(*(v.denominator for v in values))
    sign = 1 if game.convention == "max" else -1
    flat = np.array([int(sign * v * scale) for v in values], dtype=np.int64)
    expected = np.moveaxis(flat.reshape(*game.shape, game.n), -1, 0)
    assert (game.ints[0], int(game.ints[1].sum())) == GRID_PINS[name]
    assert game.ints[0] == scale
    assert game.ints[1].dtype == np.int64
    assert np.array_equal(game.ints[1], expected)
    rows = [tuple(values[k:k + game.n]) for k in range(0, len(values), game.n)]
    assert dict(game.payoffs) == dict(zip(game.profiles(), rows))


def test_paper_values_present_in_expectations():
    m2 = load_expectations("matrix2")["values"]
    assert m2["poa"] == "1" and m2["pota"] == "0" and m2["posta"] == "0"
    m5 = load_expectations("matrix5")["values"]
    assert m5["poa"] == "1/10" and m5["pots"] == "1"
    m6 = load_expectations("matrix6")["values"]
    assert m6["pota"] == "7/16"
    e2 = load_expectations("example2-3player")["values"]
    assert e2["pos"] == "1/10" and e2["pots"] == "1"
    ms = load_expectations("matching-strategy")["values"]
    assert ms["m_pota"][1] == "5/13"
    fig1 = load_expectations("fig1-3")["values"]
    assert fig1["pota"] == pytest.approx(3.0, rel=1e-6)


def test_resolve_input_accepts_names_and_paths(tmp_path):
    kind, path = resolve_input("matrix2")
    assert kind == "game" and path.exists()
    real = tmp_path / "g.json"
    real.write_text(json.dumps(tio.game_to_dict(matrix2_game())))
    kind, path = resolve_input(str(real))
    assert kind == "" and path == real
    with pytest.raises(ParseError):
        resolve_input("no-such-fixture")


def test_matching_strategy_game_values():
    game = matching_strategy_game((2, 3))
    assert game.payoffs[(0, 0)] == (F(4), F(9))
    assert game.payoffs[(0, 1)] == (F(2), F(3))


def test_expectation_values_never_drift_from_recompute():
    for name in REGISTRY:
        shipped = load_expectations(name)["values"]
        fresh = compute_expectations(name)["values"]
        assert set(shipped) == set(fresh)


def test_fixture_without_expectations_rejected(monkeypatch):
    import transit.fixtures as fx

    ghost = fx.Fixture(
        name="ghost",
        kind="game",
        anchor="no files on disk",
        build=matrix2_game,
        expected=lambda obj: {},
        sources={},
    )
    monkeypatch.setitem(fx.REGISTRY, "ghost", ghost)
    with pytest.raises(ParseError, match="expectations"):
        fx.fixtures()
