"""Core game representation, best responses, and equilibrium enumeration."""

import re
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from transit import io as tio
from transit.congestion import congestion_to_game, parallel_links
from transit.errors import ParseError, TooLarge
from transit.fixtures import example2_game, matrix2_game, matrix6_game
from transit.games import (
    Game,
    SolutionSet,
    as_exact,
    best_responses,
    enumerate_pure_ne,
    social_value,
)
from transit import oracle

F = Fraction


def small_game(values, convention="max"):
    """2x2 game from a flat list of 4 payoff pairs, row-major."""
    table = {
        (0, 0): values[0],
        (0, 1): values[1],
        (1, 0): values[2],
        (1, 1): values[3],
    }
    return Game.from_function((2, 2), lambda s: table[s], convention=convention)


def test_best_response_in_coordination_matrix():
    game = matrix2_game(a=1)
    assert best_responses(game, 0, (0, 0)) == {0}  # row I against column 1
    assert best_responses(game, 1, (1, 0)) == {1}


def test_best_response_single_option():
    game = Game.from_function((1,), lambda s: (F(7),))
    assert best_responses(game, 0, (0,)) == {0}


def test_best_response_all_ties_in_constant_game():
    game = Game.from_function((3, 2), lambda s: (F(1), F(1)))
    assert best_responses(game, 0, (0, 1)) == {0, 1, 2}


def test_best_response_cost_convention_minimises():
    game = small_game([(2, 0), (1, 0), (5, 0), (9, 0)], convention="min")
    assert best_responses(game, 0, (0, 0)) == {0}  # cost 2 beats cost 5
    assert best_responses(game, 0, (0, 1)) == {0}


def test_best_responses_mapping_input_requires_full_fix():
    game = example2_game()
    assert best_responses(game, 0, {1: 0, 2: 0}) == {0}
    with pytest.raises(ParseError):
        best_responses(game, 0, {1: 0})


def test_pure_ne_matrix2():
    game = matrix2_game(a=1)
    ne = enumerate_pure_ne(game)
    assert set(ne.members) == {(0, 0), (1, 1)}
    assert ne.label == "pure-NE"


def test_pure_ne_matching_pennies_empty():
    game = small_game(
        [(1, -1), (-1, 1), (-1, 1), (1, -1)],
    )
    ne = enumerate_pure_ne(game)
    assert ne.members == ()
    assert "(empty)" in ne.label
    assert ne.is_empty


def test_pure_ne_example2_all_but_two():
    game = example2_game(a=30, b=1)
    ne = enumerate_pure_ne(game)
    expected = set(game.profiles()) - {(0, 0, 0), (1, 0, 0)}
    assert set(ne.members) == expected


def test_epsilon_ne_monotone_in_epsilon():
    game = matrix6_game()
    small = set(enumerate_pure_ne(game, F(1, 2)).members)
    large = set(enumerate_pure_ne(game, F(3, 2)).members)
    assert small <= large


def test_epsilon_ne_label_and_oracle_agreement():
    game = matrix6_game()
    for eps in (0, F(1, 2), F(2)):
        mine = set(enumerate_pure_ne(game, eps).members)
        ref = set(oracle.ne_profiles(game, eps))
        assert mine == ref


def test_social_value_matrix2():
    game = matrix2_game(a=1)
    assert social_value(game, (0, 0)) == 2


def test_social_value_zero_game():
    game = Game.from_function((2, 2), lambda s: (F(0), F(0)))
    assert social_value(game, (1, 0)) == 0


def test_social_value_matrix6_off_diagonal():
    # direct sum of the two off-diagonal entries: a/c + b/c
    game = matrix6_game(a=4, b=3, c=2)
    assert social_value(game, (0, 1)) == F(7, 2)


def test_social_value_is_the_sum_of_the_payoffs_as_written():
    # both conventions, on int64 grids and on grids wide enough for Python ints
    for convention in ("max", "min"):
        for big in (0, 2**61):
            game = Game.from_function(
                (2, 3), lambda s: (F(big + s[0], 3), F(big - s[1] - 1, 2)), convention
            )
            for s in game.profiles():
                assert social_value(game, s) == sum(game.payoffs[s]), (convention, big, s)


def test_social_value_negation_shift():
    game = matrix6_game()
    flipped = Game.from_function(
        (2, 2),
        lambda s: (-game.payoffs[s][0], game.payoffs[s][1]),
    )
    for s in game.profiles():
        lhs = social_value(flipped, s)
        rhs = social_value(game, s) - 2 * game.payoffs[s][0]
        assert lhs == rhs


def test_ne_iff_every_player_best_responds():
    game = matrix6_game()
    ne = set(enumerate_pure_ne(game).members)
    for s in game.profiles():
        mutual = all(s[i] in best_responses(game, i, s) for i in range(game.n))
        assert (s in ne) == mutual


@settings(max_examples=60, deadline=None)
@given(
    st.lists(
        st.tuples(st.integers(-5, 5), st.integers(-5, 5)),
        min_size=4,
        max_size=4,
    ),
    st.sampled_from(["max", "min"]),
)
def test_ne_characterisation_random(values, convention):
    game = small_game([(F(a), F(b)) for a, b in values], convention=convention)
    ne = set(enumerate_pure_ne(game).members)
    for s in game.profiles():
        mutual = all(s[i] in best_responses(game, i, s) for i in range(game.n))
        assert (s in ne) == mutual


def test_profile_cap_enforced(monkeypatch):
    monkeypatch.setenv("TRANSIT_PROFILE_CAP", "3")
    with pytest.raises(TooLarge):
        Game.from_function((2, 2), lambda s: (F(0), F(0)))


def test_builders_refuse_over_the_cap_before_any_payoff(monkeypatch):
    monkeypatch.setenv("TRANSIT_PROFILE_CAP", "1000")

    def payoff(s):
        raise AssertionError(f"payoff of {s} computed over the cap")

    with pytest.raises(TooLarge):
        Game.from_function((10, 10, 11), payoff)
    # the payoff tensor, empty here, is never read
    doc = {"players": ["a", "b", "c"], "payoffs": [],
           "strategies": [[str(j) for j in range(k)] for k in (10, 10, 11)]}
    with pytest.raises(TooLarge):
        tio.game_from_dict(doc)
    with pytest.raises(TooLarge):
        congestion_to_game(parallel_links(5))


def test_a_float_and_the_binary_fraction_it_equals_parse_apart():
    # 0.1 == Fraction(0.1) in Python, but the float is read as 1/10 and the
    # Fraction is the float's exact binary value
    game = Game.from_function((2,), lambda s: ((F(0.1),), (0.1,))[s[0]])
    assert game.payoffs == {(0,): (F(0.1),), (1,): (F(1, 10),)}


def test_ragged_payoffs_rejected():
    payoffs = {(0, 0): (F(1),), (0, 1): (F(1), F(1)), (1, 0): (F(1), F(1)), (1, 1): (F(1), F(1))}
    with pytest.raises(ParseError):
        Game.from_function(
            (2, 2), payoffs.__getitem__, players=("a", "b"),
            strategies=(("x", "y"), ("x", "y")),
        )


def test_strategy_names_must_fit_the_shape():
    with pytest.raises(ParseError, match="do not fit the shape"):
        Game.from_function((2, 3), lambda s: (F(0), F(0)), strategies=("xyz", "uv"))


def test_solution_set_rejects_duplicates():
    game = matrix2_game()
    with pytest.raises(ParseError):
        SolutionSet(game, ((0, 0), (0, 0)))


@pytest.mark.parametrize("members, message", [
    # an out-of-range member before a duplicate, and a duplicate before one
    (((5, 0), (0, 0), (0, 0)), r"invalid profile \(5, 0\)"),
    (((0, 0), (0, 0), (5, 0)), r"duplicate solution \(0, 0\)"),
])
def test_solution_set_names_the_first_bad_member(members, message):
    with pytest.raises(ParseError, match=message):
        SolutionSet(matrix2_game(), members)


def _checked_member_by_member(game, members):
    """The per-member check, the reference the array check must agree with."""
    seen = set()
    for s in members:
        game.validate_profile(s)
        if s in seen:
            raise ParseError(f"duplicate solution {s!r}")
        seen.add(s)


@pytest.mark.parametrize("members", [
    (),
    ((0, 1), (1, 0)),
    ((1, 1), (0, 0), (1, 0), (0, 1)),
    ((1, 2),),
    ((-1, 0),),
    ((0, 0, 0),),
    ((0,), (0, 0)),
    ((0, 0), (0,)),
    ((2**70, 0),),
    ((True, 0), (0, 1)),
    ((1.0, 0),),
    ((-0.5, 0),),
    ((float("nan"), 0),),
    ((0, 1), (1, float("nan"))),
])
def test_solution_set_check_agrees_with_the_member_loop(members):
    game = matrix2_game()
    try:
        _checked_member_by_member(game, members)
    except ParseError as exc:
        with pytest.raises(ParseError, match=re.escape(str(exc))):
            SolutionSet(game, members)
    else:
        assert SolutionSet(game, members).members == members


INTEGER_LIKE = [
    "0", "7", "-12", "007", "-0", "+5", " 5", "5 ", "1_0", "\u0663", "\u00b2", "-", "",
    "--5", "5-3", "-" + "9" * 30, "3/4", "-1.25", "1e3", "9" * 5000,
]


@pytest.mark.parametrize("text", INTEGER_LIKE)
def test_integer_strings_parse_as_fraction_parses_them(text):
    try:
        want = Fraction(text)
    except ValueError:
        with pytest.raises(ParseError, match="cannot parse rational"):
            as_exact(text)
    else:
        got = as_exact(text)
        assert type(got) is Fraction and got == want


@pytest.mark.parametrize("text", INTEGER_LIKE)
def test_payoff_strings_read_as_as_exact_reads_them(text):
    # a written game's strings, where every one may take the int path: the
    # scaled grid and every refusal are those of as_exact, value by value
    values = ["3", text, "-2", text]
    try:
        exact = [as_exact(v) for v in values]
    except ParseError as exc:
        with pytest.raises(ParseError, match=re.escape(str(exc))):
            Game.from_values(("a", "b"), (("x", "y"), ("z",)), values)
        return
    scale, grid = Game.from_values(("a", "b"), (("x", "y"), ("z",)), values).ints
    assert [Fraction(int(u), scale) for u in np.moveaxis(grid, 0, -1).ravel()] == exact
