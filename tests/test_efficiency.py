"""Price measures, tightest constants, condition-based bounds, smoothness."""

import json
import random
from fractions import Fraction

import pytest

from transit.cli import main
from transit.errors import Infeasible, UndefinedPrice, WrongArity, WrongConvention
from transit.efficiency import (
    check_bound_observations,
    coordination_dependence,
    default_lambda_grid,
    extensive_smoothness,
    price_report,
    two_player_pots_condition,
    verify_identical_utility,
)
from transit.fixtures import (
    constant_game,
    example2_game,
    matching_strategy_game,
    matrix2_game,
    matrix5_game,
    matrix6_game,
)
from transit.games import Game, SolutionSet, enumerate_pure_ne
from transit.io import game_to_dict
from transit import oracle

F = Fraction


def report_for(game, variant="strict"):
    return price_report(game, enumerate_pure_ne(game), variant)


def test_matrix2_prices():
    r = report_for(matrix2_game(a=1))
    assert r.poa == 1 and r.pos == 1
    assert r.pota == 0 and r.posta == 0
    assert r.pots == 1 and r.posts == 1


def test_example2_prices():
    r = report_for(example2_game(a=30, b=1))
    assert r.pos == F(1, 10)
    assert r.pots == 1
    assert r.poa == F(1, 10)
    assert r.pota == F(1, 10)


def test_matrix6_prices():
    r = report_for(matrix6_game(a=4, b=3, c=2))
    assert r.poa == F(3, 4)
    assert r.pos == 1
    assert r.pota == F(7, 16)  # (a + b) / (2 c a)
    assert r.pots == 1


def test_matrix5_identical_utility_prices():
    r = report_for(matrix5_game(eps="0.1", a=1))
    assert r.poa == F(1, 10)
    assert r.pota == 0 and r.posta == 0
    assert r.pos == 1 and r.pots == 1


def test_prices_match_oracle_on_random_games():
    rng = random.Random(15)
    checked = 0
    while checked < 20:
        n = rng.randint(2, 3)
        k = rng.randint(2, 3)
        conv = rng.choice(["max", "min"])
        game = Game.from_function(
            (k,) * n,
            lambda s: tuple(F(rng.randint(1, 9)) for _ in range(n)),
            convention=conv,
        )
        D = enumerate_pure_ne(game)
        if D.is_empty:
            continue
        mine = report_for(game)
        ref = oracle.prices_for(game, D)
        assert mine.poa == ref["poa"] and mine.pos == ref["pos"]
        assert mine.pota == ref["pota"] and mine.pots == ref["pots"]
        assert mine.posta == ref["posta"] and mine.posts == ref["posts"]
        assert list(mine.m_pota) == ref["m_pota"]
        assert list(mine.m_pots) == ref["m_pots"]
        checked += 1


def test_observation1_and_chain_on_random_games():
    rng = random.Random(77)
    checked = 0
    while checked < 25:
        n = rng.randint(2, 3)
        conv = rng.choice(["max", "min"])
        game = Game.from_function(
            (2,) * n,
            lambda s: tuple(F(rng.randint(1, 6)) for _ in range(n)),
            convention=conv,
        )
        D = enumerate_pure_ne(game)
        if D.is_empty:
            continue
        r = report_for(game)
        assert r.observation1_holds()
        assert r.chain_holds()
        assert r.m_pota[0] == r.poa  # T(D, 1) = D
        assert r.m_pota[-1] == r.pota  # T(D, n) = T(D)
        checked += 1


def test_chain_holds_when_epsilon_equilibria_are_not_stable(tmp_path):
    # at eps = 2 the profile (1, 1) is an eps-equilibrium but no stable
    # transition, and posta = 1 lies above poa = 8/17: the stable prices sit
    # on the solutions' side of the transition prices, not between them
    pay = {(0, 0): (9, 8), (0, 1): (3, 4), (1, 0): (4, 4), (1, 1): (1, 7)}
    game = Game.from_function((2, 2), lambda s: tuple(F(v) for v in pay[s]))
    D = enumerate_pure_ne(game, 2)
    assert D.members == ((0, 0), (1, 1))
    r = price_report(game, D)
    ref = oracle.prices_for(game, D)
    assert {k: v for k, v in r.as_dict().items() if k != "convention"} == ref
    assert (r.poa, r.pota, r.posta) == (F(8, 17), F(7, 17), 1)
    assert not r.solutions_stable
    assert r.chain_holds()

    path = tmp_path / "game.json"
    path.write_text(json.dumps(game_to_dict(game)))
    assert main(["prices", str(path), "--eps", "2"]) == 0


def test_undefined_price_on_nonpositive_optimum():
    game = Game.from_function((2, 2), lambda s: (F(0), F(0)))
    with pytest.raises(UndefinedPrice):
        report_for(game)


def test_cost_convention_prices():
    # social cost doubles on the off-diagonal; the transition set is full
    table = {
        (0, 0): (F(1), F(1)),
        (0, 1): (F(2), F(2)),
        (1, 0): (F(2), F(2)),
        (1, 1): (F(1), F(1)),
    }
    game = Game.from_function((2, 2), lambda s: table[s], convention="min")
    r = report_for(game)
    assert r.poa == 1 and r.pos == 1
    assert r.pota == 2  # worst transition costs twice the optimum
    assert r.pots == 1
    assert r.observation1_holds()


def test_constant_sum_positive_games_have_unit_prices():
    # every profile has the same social value
    rng = random.Random(5)
    for _ in range(10):
        c = F(rng.randint(1, 5))
        game = Game.from_function(
            (2, 2),
            lambda s: (x := F(rng.randint(0, 3)), c - x),
        )
        D = enumerate_pure_ne(game)
        if D.is_empty:
            continue
        r = report_for(game)
        assert r.poa == r.pos == r.pota == r.pots == 1


def test_zero_sum_prices_undefined():
    game = Game.from_function((2, 2), lambda s: (F(1), F(-1)))
    with pytest.raises(UndefinedPrice):
        report_for(game)


# -- coordination dependence ---------------------------------------------------


def test_matrix6_dependence_constants():
    game = matrix6_game(a=4, b=3, c=2)
    dep = coordination_dependence(game, enumerate_pure_ne(game))
    assert dep.alpha_lower == (F(2), F(2))  # the scaling constant c
    assert dep.alpha_upper == (F(1), F(1))
    assert dep.beta == (F(1), F(1))


def test_identical_utility_dependence():
    game = matrix5_game()
    dep = coordination_dependence(game, enumerate_pure_ne(game))
    assert dep.alpha_upper == (F(1), F(1))
    assert dep.beta == (F(1), F(1))


def test_singleton_solution_set_dependence():
    game = matrix6_game()
    D = SolutionSet(game, ((0, 0),), "single")
    dep = coordination_dependence(game, D)
    assert dep.alpha_lower == (F(1), F(1))
    assert dep.alpha_upper == (F(1), F(1))
    assert dep.beta == (F(1), F(1))


def test_dependence_requires_utility_convention():
    game = Game.from_function((2, 2), lambda s: (F(1), F(1)), convention="min")
    with pytest.raises(WrongConvention):
        coordination_dependence(game, enumerate_pure_ne(game))


# -- condition-based bounds -----------------------------------------------------


def rows_by_name(rows):
    return {row.name: row for row in rows}


def test_matrix6_player_bound_matches_closed_form():
    game = matrix6_game(a=4, b=3, c=2)
    rows = rows_by_name(check_bound_observations(game, enumerate_pure_ne(game)))
    row = rows["player-dependence-anarchy"]
    assert row.holds
    assert row.rhs == F(3, 8)  # poa / c with alpha = c = 2, beta = 1
    assert row.lhs == F(7, 16)


def test_matching_strategy_degree_bound_tight():
    game = matching_strategy_game((2, 3))
    D = enumerate_pure_ne(game)
    r = price_report(game, D)
    assert r.poa == 1 and r.m_pota_at(2) == F(5, 13)
    rows = rows_by_name(check_bound_observations(game, D))
    row = rows["welfare-degree-anarchy(m=2)"]
    assert row.holds and row.slack == 0  # tightest constants give equality


def test_welfare_bounds_hold_with_equality_at_tightest_constants():
    # the tightest constants are extracted as the exact extremal ratios, so
    # both the plain and the telescoped per-degree welfare bounds collapse
    # to equalities whenever they are defined
    rng = random.Random(4)
    checked = 0
    while checked < 15:
        game = Game.from_function(
            (2, 2, 2),
            lambda s: tuple(F(rng.randint(1, 7)) for _ in range(3)),
        )
        D = enumerate_pure_ne(game)
        if D.is_empty:
            continue
        rows = rows_by_name(check_bound_observations(game, D))
        anarchy = rows["welfare-lower-dependence-anarchy"]
        stability = rows["welfare-upper-dependence-stability"]
        assert anarchy.holds and anarchy.slack == 0
        assert stability.holds and stability.slack == 0
        for m in range(2, game.n + 1):
            for name in (f"welfare-degree-anarchy(m={m})",
                         f"welfare-degree-stability(m={m})"):
                row = rows[name]
                assert row.skipped or (row.holds and row.slack == 0), row
        checked += 1


def test_singleton_solution_bounds_zero_slack():
    # T(D) = D for a singleton, so every tightest constant is 1 and every
    # bound collapses to an equality
    game = matrix6_game()
    D = SolutionSet(game, ((0, 0),), "single")
    rows = check_bound_observations(game, D)
    assert rows
    for row in rows:
        assert row.skipped or (row.holds and row.slack == 0)


def test_bound_soundness_on_random_games():
    # certified bounds never exceed / fall below the exhaustive prices
    rng = random.Random(8)
    checked = 0
    while checked < 30:
        n = rng.randint(2, 4)
        k = rng.randint(2, 4)
        game = Game.from_function(
            (k,) * n,
            lambda s: tuple(F(rng.randint(0, 9)) for _ in range(n)),
        )
        D = enumerate_pure_ne(game)
        if D.is_empty:
            continue
        try:
            rows = check_bound_observations(game, D)
        except UndefinedPrice:
            continue
        for row in rows:
            assert row.skipped or row.holds, row
        checked += 1


def test_cost_games_skip_bound_machinery():
    game = Game.from_function((2, 2), lambda s: (F(1), F(1)), convention="min")
    rows = check_bound_observations(game, enumerate_pure_ne(game))
    assert len(rows) == 1 and rows[0].skipped


# -- two-player welfare monotonicity ---------------------------------------------


def test_identical_utility_two_player_condition_true():
    game = matrix5_game()
    assert two_player_pots_condition(game)
    r = report_for(game)
    assert r.pots == r.pos


def test_condition_asserted_only_when_true():
    game = matrix2_game()
    cond = two_player_pots_condition(game)
    r = report_for(game)
    if cond:
        assert r.pots == r.pos


def test_trivial_strategy_spaces_condition_true():
    game = Game.from_function((1, 1), lambda s: (F(1), F(2)))
    assert two_player_pots_condition(game)


def test_condition_wrong_arity():
    game = example2_game()
    with pytest.raises(WrongArity):
        two_player_pots_condition(game)


def test_condition_implies_pots_equals_pos_on_random_games():
    rng = random.Random(13)
    checked = 0
    while checked < 40:
        game = Game.from_function(
            (rng.randint(2, 3), rng.randint(2, 3)),
            lambda s: tuple(F(rng.randint(1, 5)) for _ in range(2)),
        )
        D = enumerate_pure_ne(game)
        if D.is_empty:
            continue
        if two_player_pots_condition(game):
            r = report_for(game)
            assert r.pots == r.pos
        checked += 1


# -- extensive smoothness ----------------------------------------------------------


def test_lambda_grid_contains_one_and_two():
    grid = default_lambda_grid()
    assert len(grid) == 64
    assert F(1) in grid and F(2) in grid
    assert all(0 < x <= 2 for x in grid)


def test_constant_game_smoothness_certifies_one():
    res = extensive_smoothness(constant_game(2, 2, 1))
    assert res.alpha == 1 and res.beta == 1
    assert res.best_bound == 1 == res.pota
    assert res.holds


def test_matrix6_smoothness_bound_below_true_price():
    res = extensive_smoothness(matrix6_game())
    assert res.holds
    assert res.best_bound <= F(7, 16)


def test_matrix2_degenerate_smoothness_sound():
    res = extensive_smoothness(matrix2_game())
    assert res.best_bound <= 0
    assert res.holds


def test_smoothness_soundness_random():
    rng = random.Random(21)
    checked = 0
    while checked < 20:
        game = Game.from_function(
            (2, 2),
            lambda s: tuple(F(rng.randint(1, 6)) for _ in range(2)),
        )
        if enumerate_pure_ne(game).is_empty:
            continue
        try:
            res = extensive_smoothness(game)
        except Infeasible:
            continue
        assert res.holds
        checked += 1


def test_smoothness_requires_utility_convention():
    game = Game.from_function((2, 2), lambda s: (F(1), F(1)), convention="min")
    with pytest.raises(WrongConvention):
        extensive_smoothness(game)


# -- identical utility -------------------------------------------------------------


def test_verify_identical_utility_matrix5():
    out = verify_identical_utility(matrix5_game(eps="0.1", a=1))
    assert out["holds"]
    assert out["poa"] == F(1, 10)
    assert out["pota"] == 0 and out["posta"] == 0


def test_verify_identical_utility_rejects_other_games():
    from transit.errors import NotIdenticalUtility

    with pytest.raises(NotIdenticalUtility):
        verify_identical_utility(matrix6_game())


def test_independent_best_responses_imply_equal_prices():
    # separable utilities make every transition of equilibria an equilibrium
    rng = random.Random(33)
    from transit.games import has_independent_best_responses

    for _ in range(15):
        n = rng.randint(2, 3)
        own = [[F(rng.randint(1, 6)) for _ in range(2)] for _ in range(n)]
        ext = [[F(rng.randint(0, 6)) for _ in range(2)] for _ in range(n)]

        def pay(s):
            return tuple(own[i][s[i]] + ext[i][s[(i + 1) % n]] for i in range(n))

        game = Game.from_function((2,) * n, pay)
        if not has_independent_best_responses(game):
            continue
        D = enumerate_pure_ne(game)
        if D.is_empty:
            continue
        r = report_for(game)
        assert r.pota == r.poa and r.pots == r.pos


def test_own_utility_games_have_unit_prices():
    # with no externalities every equilibrium attains the optimum exactly
    rng = random.Random(35)
    for _ in range(10):
        n = rng.randint(2, 3)
        own = [[F(rng.randint(1, 6)) for _ in range(3)] for _ in range(n)]
        game = Game.from_function((3,) * n, lambda s: tuple(own[i][s[i]] for i in range(n)))
        r = report_for(game)
        assert r.pota == r.poa == r.pos == r.pots == 1


def test_m_price_arrays_match_explicit_recomputation():
    from transit.transitions import m_transition_set

    game = example2_game()
    D = enumerate_pure_ne(game)
    rep = price_report(game, D)
    opt = rep.optimum.value
    for m in range(1, game.n + 1):
        pool = m_transition_set(D, m)
        sw = [sum(game.payoffs[t]) for t in pool]
        assert rep.m_pota_at(m) == min(sw) / opt
        assert rep.m_pots_at(m) == max(sw) / opt


def test_tightest_constants_bind_with_equality():
    # the extracted constants are exact extremal ratios, so the defining
    # inequalities hold with equality at the extremal witnesses
    rng = random.Random(42)
    checked = 0
    while checked < 15:
        game = Game.from_function(
            (2, 2),
            lambda s: tuple(F(rng.randint(1, 9)) for _ in range(2)),
        )
        D = enumerate_pure_ne(game)
        if D.is_empty:
            continue
        dep = coordination_dependence(game, D)
        from transit.transitions import transition_set

        trans = list(transition_set(D))
        for i in range(game.n):
            u = lambda s: game.payoffs[s][i]
            if dep.alpha_lower[i] is not None:
                assert min(u(t) for t in trans) * dep.alpha_lower[i] == max(
                    min(u(d) for d in D.members),
                    min(u(t) for t in trans),  # the >= 1 clamp binds at D = T(D)
                )
            if dep.alpha_upper[i] is not None:
                assert max(u(t) for t in trans) == dep.alpha_upper[i] * max(
                    u(d) for d in D.members
                ) or dep.alpha_upper[i] == 1
        checked += 1
