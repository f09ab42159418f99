"""One transition box per solution set: built once, shared by every analysis.

`transition_set(D)` builds D's box (projections, `np.ix_` index, size and
profile-cap check) on the first call and keeps it on D; its degree grid is
built on first read and is read-only.  Every consumer reads that one box,
so the result of each must not depend on what read the box before it.
"""

import dataclasses
import random
from fractions import Fraction

import numpy as np
import pytest

from transit import degrees
from transit.cli import main
from transit.efficiency import (
    check_bound_observations,
    coordination_dependence,
    extensive_smoothness,
    price_report,
)
from transit.errors import ParseError
from transit.fixtures import example2_game, matrix6_game
from transit.games import Game, SolutionSet, enumerate_pure_ne
from transit.polymatrix import m_posta
from transit.transitions import (
    degree_map,
    m_transition_set,
    saturation_degree,
    transition_set,
)
from test_transitions import stable_transition_set

F = Fraction


def _random_game(rng, shape, convention):
    low = rng.choice((-3, 0, 1))
    return Game.from_function(
        shape, lambda s: tuple(F(rng.randint(low, 5), rng.choice((1, 2))) for _ in shape),
        convention,
    )


def test_the_box_and_its_degree_grid_are_built_once_per_solution_set():
    game = _random_game(random.Random(1), (3, 3, 2), "max")
    D = SolutionSet(game, ((0, 0, 0), (1, 2, 1), (2, 1, 0)))
    assert transition_set(D) is transition_set(D)
    assert degree_map(D) is degree_map(D)
    assert degree_map(D) is transition_set(D).degree
    # kept on the set itself, not keyed by its members
    twin = SolutionSet(game, D.members)
    assert twin == D and transition_set(twin) is not transition_set(D)
    assert len(transition_set(D)) == transition_set(D).size == 3 * 3 * 2


def test_the_degree_grid_is_read_only():
    game = _random_game(random.Random(2), (2, 3), "min")
    D = SolutionSet(game, ((0, 0), (1, 2)))
    grid = degree_map(D)
    with pytest.raises(ValueError):
        grid[0, 0] = 5
    assert grid.tolist() == [[1, 2], [2, 1]]


def test_bounds_builds_one_degree_map(monkeypatch, capsys):
    # price_report (twice), coordination_dependence and extensive_smoothness
    # all read the degree map of the one solution set of the call
    builds = []
    build = degrees.degree_map

    def counted(members):
        builds.append(len(members))
        return build(members)

    monkeypatch.setattr(degrees, "degree_map", counted)
    assert main(["bounds", "matrix6", "--ne"]) == 0
    capsys.readouterr()
    assert builds == [2]


def _outcome(call, D):
    """A consumer's result on D in comparable form, or what it raised."""
    try:
        value = call(D)
    except Exception as exc:  # noqa: BLE001 - the raise is the outcome
        return ("raised", type(exc).__name__, str(exc))
    if isinstance(value, np.ndarray):
        return (value.shape, value.tolist())
    if isinstance(value, tuple) and all(isinstance(v, np.ndarray) for v in value):
        return [(v.shape, v.tolist()) for v in value]
    if isinstance(value, list):
        return [dataclasses.asdict(v) if dataclasses.is_dataclass(v) else v for v in value]
    return dataclasses.asdict(value) if dataclasses.is_dataclass(value) else value


def _consumers(game, other):
    """Every reader of the box, as (name, call on a solution set of game);
    `other` is a game of the same shape that the "on another game" calls
    are handed instead of the set's own."""
    calls = [
        ("price_report", lambda D: price_report(game, D)),
        ("price_report weak", lambda D: price_report(game, D, "weak")),
        ("price_report on another game", lambda D: price_report(other, D)),
        ("coordination_dependence", lambda D: coordination_dependence(game, D)),
        ("coordination_dependence on another game",
         lambda D: coordination_dependence(other, D)),
        ("check_bound_observations", lambda D: check_bound_observations(game, D)),
        ("extensive_smoothness", lambda D: extensive_smoothness(game, D)),
        ("extensive_smoothness on another game", lambda D: extensive_smoothness(other, D)),
        ("saturation_degree", saturation_degree),
        ("stable_transition_set", stable_transition_set),
        ("stable_transition_set weak", lambda D: stable_transition_set(D, "weak")),
        ("degree_map", degree_map),
        ("transition_set", lambda D: list(transition_set(D))),
    ]
    for m in range(1, game.n + 1):
        calls += [
            (f"m_transition_set {m}", lambda D, m=m: m_transition_set(D, m)),
            (f"m_posta {m}", lambda D, m=m: m_posta(game, D, m)),
            (f"m_posta {m} on another game", lambda D, m=m: m_posta(other, D, m)),
        ]
    return calls


def _instances():
    """Random games of both conventions with equilibrium, epsilon and
    arbitrary solution sets, each with a second game of its shape."""
    rng = random.Random(2027)
    out = []
    while len(out) < 36:
        shape = tuple(rng.randint(2, 3) for _ in range(rng.randint(2, 3)))
        convention = rng.choice(("max", "min"))
        game = _random_game(rng, shape, convention)
        other = _random_game(rng, shape, rng.choice(("max", "min")))
        sets = [enumerate_pure_ne(game), enumerate_pure_ne(game, F(1, 2))]
        profiles = list(game.profiles())
        sets.append(SolutionSet(game, tuple(rng.sample(profiles, rng.randint(1, 4)))))
        out += [(game, other, D) for D in sets if not D.is_empty]
    return out


def test_every_consumer_reads_the_shared_box_as_it_would_a_fresh_one():
    for game, other, D in _instances():
        calls = _consumers(game, other)
        fresh = {name: _outcome(call, SolutionSet(game, D.members, D.label))
                 for name, call in calls}
        shared = SolutionSet(game, D.members, D.label)
        forward = {name: _outcome(call, shared) for name, call in calls}
        shared = SolutionSet(game, D.members, D.label)
        backward = {name: _outcome(call, shared) for name, call in reversed(calls)}
        for name, _ in calls:
            assert forward[name] == fresh[name], (name, game.shape, D.members)
            assert backward[name] == fresh[name], (name, game.shape, D.members)


def test_every_analysis_refuses_a_set_that_does_not_fit_its_game():
    # matrix6's two equilibria are profiles of a 2 x 2 game, not of
    # example2's 2 x 2 x 2 grid
    D = enumerate_pure_ne(matrix6_game())
    game = example2_game()
    calls = [
        lambda: price_report(game, D),
        lambda: check_bound_observations(game, D),
        lambda: coordination_dependence(game, D),
        lambda: extensive_smoothness(game, D),
    ] + [lambda m=m: m_posta(game, D, m) for m in (1, 2, 3)]
    for call in calls:
        with pytest.raises(ParseError, match=r"invalid profile \(0, 0\) for shape \(2, 2, 2\)"):
            call()
