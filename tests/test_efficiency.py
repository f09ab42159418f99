"""Price measures, tightest constants, condition-based bounds, smoothness."""

import dataclasses
import functools
import itertools
import json
import random
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from transit.cli import main
from transit.errors import Infeasible, UndefinedPrice, WrongArity, WrongConvention
from transit.efficiency import (
    CoordinationDependence,
    check_bound_observations,
    coordination_dependence,
    SmoothnessResult,
    _LAMBDA_GRID,
    _grid_envelope,
    _ratio_floor,
    _tightest,
    extensive_smoothness,
    price_report,
    two_player_pots_condition,
    verify_identical_utility,
)
from transit.fixtures import (
    example2_game,
    matching_strategy_game,
    matrix2_game,
    matrix5_game,
    matrix6_game,
)
from transit.games import Game, SolutionSet, enumerate_pure_ne
from transit.io import game_to_dict
from transit.transitions import degree_extremes, degree_map, transition_set
from transit import cli, efficiency, oracle

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


@pytest.mark.parametrize("plant, findings", [
    # m_pota rises with m, m_pots falls, posta beats pota: each breaks the chain
    ({"m_pota": (F(7, 16), F(3, 4))}, ["degree-chain"]),
    ({"m_pots": (F(1), F(7, 8))}, ["degree-chain"]),
    ({"posta": F(1, 4)}, ["degree-chain"]),
    # a worst solution below the worst transition breaks Observation 1 alone
    ({"poa": F(1, 4)}, ["transition-anarchy-ordering"]),
])
def test_prices_reports_a_planted_price_out_of_order(plant, findings, monkeypatch, capsys):
    # matrix6 under its equilibria: poa 3/4, pota = posta 7/16, every stable
    # price 1, m_pota (3/4, 7/16), m_pots (1, 1); one price moved out of order
    real = efficiency.price_report

    def planted(*args):
        return dataclasses.replace(real(*args), **plant)

    monkeypatch.setattr(cli, "price_report", planted)
    assert main(["prices", "matrix6", "--ne"]) == 1
    doc = json.loads(capsys.readouterr().out)
    assert [f.split(":")[0] for f in doc["findings"]] == findings


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


def test_a_welfare_constant_of_one_fails_the_anarchy_row(monkeypatch):
    # matrix6's pota (7/16) is below its poa (3/4): with sw_alpha_lower = 1
    # the row asserts pota >= poa and fails
    game = matrix6_game()
    D = enumerate_pure_ne(game)
    dep = coordination_dependence(game, D)
    monkeypatch.setattr(efficiency, "coordination_dependence",
                        lambda game, D: dataclasses.replace(dep, sw_alpha_lower=F(1)))
    rows = {row.name: row for row in check_bound_observations(game, D)}
    row = rows["welfare-lower-dependence-anarchy"]
    assert (row.lhs, row.rhs, row.holds) == (F(7, 16), F(3, 4), False)


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
    grid = _LAMBDA_GRID
    assert len(grid) == 64
    assert F(1) in grid and F(2) in grid
    assert all(0 < x <= 2 for x in grid)


def constant_game(n=2, k=2, value=1):
    """n players with k strategies each, all paid `value` everywhere."""
    return Game.from_function((k,) * n, lambda s: (F(value),) * n)


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


# -- smoothness against the pairwise scan ------------------------------------------
#
# The reference below is the pairwise certificate the linear one replaced: it
# scans every (transition, solution) pair for alpha, every pair of
# transitions for beta, and every (optimum, transition) pair at each lambda.


def _pairwise_ratio_floor(pairs):
    hi = None
    lo = None
    for num, den in pairs:
        if den > 0:
            r = num / den
            hi = r if hi is None else min(hi, r)
        elif den == 0:
            if num < 0:
                raise Infeasible("smoothness constant infeasible: u >= a*0 fails")
        else:
            r = num / den
            lo = r if lo is None else max(lo, r)
    if hi is None:
        raise Infeasible("no positive-denominator ratio to pin the constant")
    if lo is not None and lo > hi:
        raise Infeasible("smoothness constant constraints are contradictory")
    return hi


@pytest.mark.parametrize("groups", [
    # a <= 1, and a >= 3 from the tighter of -3/-1 and -3/-4
    [(2, [2]), (-3, [-1, -4])],
    # a <= -1, and a >= -1/2 from the tighter of 2/-1 and 2/-4
    [(-1, [1]), (2, [-1, -4])],
    # a <= 2; a >= 1, then a >= 3 from a later group
    [(2, [1]), (-1, [-1]), (-3, [-1])],
])
def test_negative_denominators_asking_too_much_are_contradictory(groups):
    # each group (least, dens) stands for the pairs (least, d), d in dens;
    # _ratio_floor takes the groups as rows, marking the dens each holds
    width = max(len(dens) for _, dens in groups)
    rows = np.array([dens + [0] * (width - len(dens)) for _, dens in groups], dtype=np.int64)
    valid = np.array([[k < len(dens) for k in range(width)] for _, dens in groups])
    least = np.array([least for least, _ in groups], dtype=np.int64)
    with pytest.raises(Infeasible, match="contradictory"):
        _ratio_floor([(least, rows, valid)])
    with pytest.raises(Infeasible, match="contradictory"):
        _pairwise_ratio_floor(
            (F(least), F(d)) for least, dens in groups for d in dens)


def _pairwise_sums(game, optima, trans):
    """(sw(s*), sum_i u_i(s*_i, t_-i), sw(t)) of every (optimum, transition)
    pair, summed once for all lambdas."""
    return [
        (
            sum(game.payoffs[star]),
            sum(game.payoffs[t[:i] + (star[i],) + t[i + 1 :]][i] for i in range(game.n)),
            sum(game.payoffs[t]),
        )
        for star in optima
        for t in trans
    ]


def _pairwise_min_mu(sums, lam):
    lo = None
    hi = None
    for sw_star, total, sw_t in sums:
        need = lam * sw_star - total
        if sw_t > 0:
            r = need / sw_t
            lo = r if lo is None else max(lo, r)
        elif sw_t == 0:
            if need > 0:
                return None
        else:
            r = need / sw_t
            hi = r if hi is None else min(hi, r)
    mu = F(0) if lo is None or lo < 0 else lo
    if hi is not None and mu > hi:
        return None
    return mu


def _pairwise_smoothness(game, D):
    sw = {s: sum(game.payoffs[s]) for s in game.profiles()}
    opt = max(sw.values())
    if opt <= 0:
        raise UndefinedPrice(f"maximum social welfare is {opt}; prices are undefined")
    trans = list(transition_set(D))
    optima = [s for s in game.profiles() if sw[s] == opt]
    alpha = _pairwise_ratio_floor(
        (game.payoffs[s][i], game.payoffs[d][i])
        for i in range(game.n)
        for s in trans
        for d in D.members
        if s[i] == d[i]
    )

    def completed(i, star, t):
        return game.payoffs[t[:i] + (star[i],) + t[i + 1 :]][i]

    beta = _pairwise_ratio_floor(
        (completed(i, star, t), completed(i, star, v))
        for i in range(game.n)
        for star in optima
        for t in trans
        for v in trans
    )
    ab = alpha * beta
    rows = []
    best = None
    sums = _pairwise_sums(game, optima, trans)
    for lam in _LAMBDA_GRID:
        mu = _pairwise_min_mu(sums, lam)
        if mu is None or 1 + ab * mu <= 0:
            continue
        bound = ab * lam / (1 + ab * mu)
        rows.append((lam, mu, bound))
        if best is None or bound > best:
            best = bound
    if best is None:
        raise Infeasible("no (lambda, mu) pair with mu >= 0 is feasible on the grid")
    pota = min(sw[t] for t in trans) / opt
    return SmoothnessResult(alpha, beta, tuple(rows), best, pota, best <= pota)


def _smoothness_outcome(certify, game, D):
    try:
        return certify(game, D)
    except (Infeasible, UndefinedPrice) as exc:
        return str(exc)


def _assert_matches_pairwise(game, D):
    got = _smoothness_outcome(extensive_smoothness, game, D)
    assert got == _smoothness_outcome(_pairwise_smoothness, game, D)
    return got


# (shape, planted equilibria): the thirteen games of the benchmark's bounds ops
BOUNDS_GAMES = (
    ((7, 6), 5), ((3, 3, 3), 9), ((8, 7), 7), ((8, 8), 7), ((8, 8), 8),
    ((4, 4, 4), 4), ((5, 5, 5), 4), ((4, 6, 5), 4), ((6, 6, 5), 4),
    ((3, 5, 4, 6), 3), ((3, 3, 3, 3), 3), ((4, 3, 4, 3), 3), ((5, 5, 6), 5),
)


def _planted_game(rng, shape, k):
    """Utility game whose pure equilibria are k planted profiles.

    A player earns a step for every coordinate in which the profile agrees
    with its nearest planted profile, plus noise below the step; planted
    profiles sit at Hamming distance 2 or more.
    """
    n = len(shape)
    if k == 9:
        code = [(x, y, (x + y) % 3) for x in range(3) for y in range(3)]
    else:
        code = [(j,) * n for j in range(k)]
    perms = [rng.sample(range(m), m) for m in shape]
    planted = [tuple(perms[i][c[i]] for i in range(n)) for c in code]
    steps = [rng.randint(20, 40) for _ in range(n)]

    def pay(s):
        d = min(sum(a != b for a, b in zip(s, p)) for p in planted)
        return tuple(F(steps[i] * (n - d) + rng.randrange(steps[i] - 1)) for i in range(n))

    return Game.from_function(shape, pay), planted


def test_smoothness_matches_pairwise_on_planted_bounds_games():
    rng = random.Random(8)
    for shape, k in BOUNDS_GAMES:
        game, planted = _planted_game(rng, shape, k)
        D = enumerate_pure_ne(game)
        assert sorted(D.members) == sorted(planted)
        assert isinstance(_assert_matches_pairwise(game, D), SmoothnessResult)


# 1 keeps the exact view in int64; 2**62 + 1 pushes its integers past 2**62
# and 1 / (2**61 + 1) gives a large lcm of the denominators
SCALES = (F(1), F(2**62 + 1), F(1, 2**61 + 1))


@functools.cache
def _random_instances():
    """About 500 (game, solution set) pairs: 420 of 2-3 players with 2-4
    strategies each, then 4-player ones on 2x2x2x2 and 3x2x2x2 boxes, whose
    transitions reach degrees 3 and 4; negative and zero payoffs, equilibrium
    and arbitrary solution sets."""
    rng = random.Random(2015)
    instances = []

    def draw(shape):
        low = rng.choice((-4, -1, 0))
        game = Game.from_function(
            shape, lambda s: tuple(F(rng.randint(low, 4)) for _ in shape)
        )
        ne = enumerate_pure_ne(game)
        if not ne.is_empty:
            instances.append((game, ne))
        pair = rng.sample(list(game.profiles()), 2)
        instances.append((game, SolutionSet(game, tuple(pair))))

    while len(instances) < 420:
        draw(tuple(rng.randint(2, 4) for _ in range(rng.randint(2, 3))))
    while len(instances) < 500:
        draw(rng.choice(((2, 2, 2, 2), (3, 2, 2, 2))))
    return instances


def _scaled(game, D, scale):
    """The game with every payoff times scale > 0, and D on it."""
    if scale == 1:
        return game, D
    big = Game.from_function(
        game.shape, lambda s: tuple(v * scale for v in game.payoffs[s])
    )
    return big, SolutionSet(big, D.members, D.label)


def test_smoothness_matches_pairwise_on_random_games():
    for scale in SCALES:
        outcomes = [
            _assert_matches_pairwise(*_scaled(game, D, scale))
            for game, D in _random_instances() if game.n < 4
        ]
        messages = {o for o in outcomes if isinstance(o, str)}
        assert messages >= {
            "smoothness constant infeasible: u >= a*0 fails",
            "no positive-denominator ratio to pin the constant",
            "smoothness constant constraints are contradictory",
            f"maximum social welfare is {-scale}; prices are undefined",
        }
        assert sum(isinstance(o, SmoothnessResult) for o in outcomes) > len(outcomes) // 3


def test_smoothness_matches_pairwise_on_four_player_games():
    # the 4-player instances apart, so each test stays short
    certified = 0
    for scale in SCALES:
        for game, D in _random_instances():
            if game.n == 4:
                outcome = _assert_matches_pairwise(*_scaled(game, D, scale))
                certified += isinstance(outcome, SmoothnessResult)
    assert certified > 30


def test_smoothness_matches_pairwise_when_no_lambda_is_feasible():
    # D = {(0, 0)} is its own only transition, of welfare 0; completing the
    # optimum (1, 1) pays 1 - 2 < 0 there, so lambda * 8 <= -1 fails at
    # every lambda although alpha = beta = 1
    table = {(0, 0): (F(1), F(-1)), (0, 1): (F(0), F(-2)), (1, 0): (F(1), F(0)),
             (1, 1): (F(4), F(4))}
    game = Game.from_function((2, 2), table.__getitem__)
    for scale in SCALES:
        outcome = _assert_matches_pairwise(*_scaled(game, SolutionSet(game, ((0, 0),)), scale))
        assert outcome == (
            "no (lambda, mu) pair with mu >= 0 is feasible on the grid"
        )


def test_smoothness_is_undefined_without_positive_welfare(tmp_path, capsys):
    # best welfare 0 (a 1 x 1 game) and -1 (a constant 2 x 2 game): no
    # certificate is measured against a nonpositive optimum
    for shape, pay, opt in (((1, 1), (F(1), F(-1)), 0), ((2, 2), (F(1), F(-2)), -1)):
        game = Game.from_function(shape, lambda s: pay)
        message = f"maximum social welfare is {opt}; prices are undefined"
        with pytest.raises(UndefinedPrice) as exc:
            extensive_smoothness(game)
        assert str(exc.value) == message
        D = enumerate_pure_ne(game)
        assert _smoothness_outcome(_pairwise_smoothness, game, D) == message

        path = tmp_path / "game.json"
        path.write_text(json.dumps(game_to_dict(game)))
        assert main(["bounds", str(path), "--ne"]) == 4
        captured = capsys.readouterr()
        assert (captured.out, captured.err) == ("", f"error: {message}\n")


# -- regularity constants against the Fraction tables --------------------------
#
# The reference below is the dependence search the integer array passes
# replaced: a Fraction welfare table, per-player scans of the transitions and
# of every welfare-ordered solution pair, and a second pass confirming beta.


def _reference_tightest(num, den):
    # the least a >= 1 with num <= a * den: a * den never grows with a when
    # den <= 0, so a = 1 is then the only candidate
    if den > 0:
        return max(num / den, F(1))
    return F(1) if num <= den else None


def _reference_beta_verifies(game, sw, D, i, b):
    for s, t in itertools.product(D.members, repeat=2):
        if sw[s] >= sw[t]:
            if game.payoffs[s][i] * b < game.payoffs[t][i]:
                return False
    return True


def _reference_dependence(game, D):
    trans = list(transition_set(D))
    degs = dict(zip(trans, degree_map(D).ravel().tolist()))
    n = game.n
    sw = {s: sum(game.payoffs[s]) for s in game.profiles()}
    wit = {}
    stages = {m: [t for t in trans if degs[t] <= m] for m in range(1, n + 1)}

    alpha_lower, alpha_upper, beta = [], [], []
    for i in range(n):
        u = lambda s: game.payoffs[s][i]
        alpha_lower.append(_reference_tightest(min(u(d) for d in D.members),
                                               min(u(t) for t in trans)))
        alpha_upper.append(_reference_tightest(max(u(t) for t in trans),
                                               max(u(d) for d in D.members)))
        b = F(1)
        for s, t in itertools.product(D.members, repeat=2):
            if sw[s] >= sw[t] and u(t) > 0:
                cand = _reference_tightest(u(t), u(s))
                if cand is None:
                    b = None
                    break
                if b is not None and cand > b:
                    b = cand
                    wit[f"beta[{i}]"] = (s, t)
        if b is not None and not _reference_beta_verifies(game, sw, D, i, b):
            b = None
        beta.append(b)

    sw_lower, sw_upper, player_lower, player_upper = [], [], [], []
    for m in range(1, n):
        small, large = stages[m], stages[m + 1]
        sw_lower.append(_reference_tightest(min(sw[t] for t in small),
                                            min(sw[t] for t in large)))
        sw_upper.append(_reference_tightest(max(sw[t] for t in large),
                                            max(sw[t] for t in small)))
        player_lower.append(tuple(
            _reference_tightest(min(game.payoffs[t][i] for t in small),
                                min(game.payoffs[t][i] for t in large))
            for i in range(n)))
        player_upper.append(tuple(
            _reference_tightest(max(game.payoffs[t][i] for t in large),
                                max(game.payoffs[t][i] for t in small))
            for i in range(n)))

    return CoordinationDependence(
        alpha_lower=tuple(alpha_lower),
        alpha_upper=tuple(alpha_upper),
        beta=tuple(beta),
        sw_alpha_lower=_reference_tightest(min(sw[d] for d in D.members),
                                           min(sw[t] for t in trans)),
        sw_alpha_upper=_reference_tightest(max(sw[t] for t in trans),
                                           max(sw[d] for d in D.members)),
        sw_degree_alpha_lower=tuple(sw_lower),
        sw_degree_alpha_upper=tuple(sw_upper),
        player_degree_alpha_lower=tuple(player_lower),
        player_degree_alpha_upper=tuple(player_upper),
        witnesses=wit,
    )


def test_dependence_constants_match_the_fraction_reference():
    undefined_betas = witnessed = 0
    for scale in SCALES:
        for game, D in _random_instances():
            game, D = _scaled(game, D, scale)
            got = coordination_dependence(game, D)
            ref = _reference_dependence(game, D)
            for f in dataclasses.fields(CoordinationDependence):
                assert getattr(got, f.name) == getattr(ref, f.name), f.name
            undefined_betas += None in got.beta
            witnessed += bool(got.witnesses)
    # both beta paths run: undefined constants, and pairs that set one
    assert undefined_betas > 0 and witnessed > 0


def test_tightest_is_the_least_constant_of_its_contract():
    # _tightest(num, den) is the least a >= 1 with num <= a * den, or None
    # when no such a exists; the candidates cover every answer in range
    candidates = sorted({F(1)} | {F(p, q) for p in range(1, 5) for q in range(1, 5)
                                  if p >= q})
    for num, den in itertools.product(range(-4, 5), repeat=2):
        feasible = [a for a in candidates if num <= a * den]
        assert _tightest(num, den) == (feasible[0] if feasible else None), (num, den)


def test_every_bound_row_that_is_not_skipped_holds_on_random_games():
    # negative and zero payoffs, equilibrium and arbitrary solution sets:
    # 18 of these instances had a failing row before the constants and the
    # per-player rows respected the sign of what they divide
    checked = 0
    for game, D in _random_instances():
        try:
            rows = check_bound_observations(game, D)
        except UndefinedPrice:
            continue
        checked += 1
        assert [r.name for r in rows if r.holds is False] == [], (game.payoffs, D.members)
    assert checked > 300


def _bounds_rows(tmp_path, capsys, payoffs, strategies):
    path = tmp_path / "game.json"
    path.write_text(json.dumps({"convention": "max", "players": ["p1", "p2"],
                                "strategies": strategies, "payoffs": payoffs}))
    code = main(["bounds", str(path), "--ne"])
    out, err = capsys.readouterr()
    assert (code, err) == (0, "")
    return {row["name"]: row for row in json.loads(out)["results"]["rows"]}


def test_bounds_skip_a_welfare_constant_with_no_finite_value(tmp_path, capsys):
    # least welfare -2 over the solutions against -10 over the transitions:
    # no a >= 1 gives -2 >= -10 / a, so the anarchy rows have no constant
    payoffs = [[["-6", "-4"], ["4", "2"]], [["-4", "2"], ["-6", "-4"]],
               [["-6", "-6"], ["-3", "1"]]]
    rows = _bounds_rows(tmp_path, capsys, payoffs, [["0", "1", "2"], ["0", "1"]])
    assert rows["welfare-lower-dependence-anarchy"]["skipped"] == "constant undefined"
    assert rows["welfare-degree-anarchy(m=2)"]["skipped"] == (
        "a per-degree constant is undefined")
    assert all(row["holds"] is not False for row in rows.values())


def test_bounds_skip_the_per_player_rows_on_a_negative_solution_utility(tmp_path, capsys):
    # player 1 gets -1 at the equilibrium (1, 1); the per-player proofs need
    # every solution utility nonnegative, and here their anarchy rows would
    # read 1/5 against 8/25
    payoffs = [[["1", "2"], ["-1", "5"]], [["1", "4"], ["-1", "2"]]]
    rows = _bounds_rows(tmp_path, capsys, payoffs, [["0", "1"], ["0", "1"]])
    for name in ("player-dependence-anarchy", "player-dependence-stability",
                 "player-degree-anarchy(m=2)", "player-degree-stability(m=2)"):
        assert rows[name]["skipped"] == "a utility is negative at a solution"
    assert rows["welfare-lower-dependence-anarchy"]["holds"]


def test_smoothness_matches_pairwise_when_no_transition_has_positive_welfare():
    # D = {(0, 0)} is its own only transition, of welfare -2 or 0, so mu has
    # only an upper envelope or only the zero-welfare test; both allow mu = 0
    # up to lambda = 1/2 against the optimum (1, 1) of welfare 8.
    for corner in ((F(3), F(-5)), (F(3), F(-3))):
        table = {(0, 0): corner, (0, 1): (F(0), F(2)), (1, 0): (F(2), F(0)),
                 (1, 1): (F(4), F(4))}
        game = Game.from_function((2, 2), table.__getitem__)
        res = _assert_matches_pairwise(game, SolutionSet(game, ((0, 0),)))
        assert [lam for lam, _, _ in res.grid] == [
            lam for lam in _LAMBDA_GRID if lam <= F(1, 2)
        ]


def _brute_tops(lines, opt):
    return [max(F(lam * opt - m, v) for v, m in lines) for lam in _LAMBDA_GRID]


def _swept_tops(lines, opt):
    tops = _grid_envelope(lines, opt)
    assert len(tops) == len(_LAMBDA_GRID) and all(den > 0 for _, den in tops)
    return [F(num, den) for num, den in tops]


# lines (v, m) stand for lambda -> (lambda*opt - m) / v; concurrent lines
# pass through lambda = 1, a grid point, at height 1 when m = opt - v
@pytest.mark.parametrize(
    "lines, opt",
    [
        pytest.param([(1, 0)], 1, id="lines0"),  # a single line
        pytest.param([(1, 0), (1, -3), (1, 2)], 1, id="lines1"),  # equal slopes
        pytest.param([(1, 1), (2, 0), (3, -1)], 2, id="lines2"),  # three through (1, 1)
        pytest.param([(1, 1), (2, 0), (3, -1), (4, -2)], 2, id="lines3"),  # four through it
        pytest.param(  # equal slopes among others
            [(9, -5), (4, 1), (1, 7), (1, 3), (6, -2), (2, 0)], 3, id="lines4"
        ),
        pytest.param([(2, 0), (1, 1)], 8, id="break-at-quarter"),
        pytest.param([(2, 0), (1, 1)], 1, id="break-at-last-point"),
        pytest.param([(2, 0), (1, 1)], 2**63, id="break-at-first-point"),
        pytest.param(
            [(3 * 2**64 + 1, -(2**70)), (2**64, 2**65 + 7), (5, 2**63)], 2**62 + 1,
            id="past-2^62",
        ),
    ],
)
def test_upper_envelope_is_the_greatest_line(lines, opt):
    assert _swept_tops(lines, opt) == _brute_tops(lines, opt)


def test_upper_envelope_breakpoints_on_powers_of_two_are_exact():
    grid = _LAMBDA_GRID
    for opt, lam in ((8, F(1, 4)), (1, F(2)), (2**63, F(1, 2**62))):
        # (lambda*opt - 0) / 2 and (lambda*opt - 1) / 1 meet exactly at lam
        assert F(lam * opt, 2) == lam * opt - 1
        k = grid.index(lam)
        tops = _swept_tops([(2, 0), (1, 1)], opt)
        assert tops[k] == lam * opt / 2
        # the shallower line (v = 2) is on top below lam, the steeper above it
        assert tops[:k] == [x * opt / 2 for x in grid[:k]]
        assert tops[k + 1:] == [x * opt - 1 for x in grid[k + 1:]]


def test_upper_envelope_of_an_empty_side_is_empty():
    assert _grid_envelope([], 1) == []
    assert _grid_envelope([], 2**62 + 1) == []


def test_smoothness_matches_pairwise_with_an_empty_falling_side():
    # every transition of matrix6 has positive welfare, so no line bounds mu
    # from above; the case with an empty rising side is pinned above
    game = matrix6_game()
    D = enumerate_pure_ne(game)
    assert all(game.welfare[t] > 0 for t in transition_set(D))
    _assert_matches_pairwise(game, D)


def test_upper_envelope_on_random_lines():
    rng = random.Random(4)
    for scale in (1, 2**62 + 1):
        for _ in range(200):
            opt = rng.randint(1, 5) * scale
            lines = [
                (rng.randint(1, 6) * scale, rng.randint(-9, 9) * scale + rng.randint(-2, 2))
                for _ in range(rng.randint(1, 8))
            ]
            assert _swept_tops(lines, opt) == _brute_tops(lines, opt)


REPORTS = Path(__file__).parent / "bounds_reports"
STATUS = json.loads((REPORTS / "exit_status.json").read_text())


@pytest.mark.parametrize("fixture", sorted(STATUS))
def test_bounds_reports_are_pinned(fixture, capsys):
    # captured before the smoothness certificate moved to integer sweeps; a
    # change that moves a field rewrites these files and lists the change
    assert main(["bounds", fixture, "--ne"]) == STATUS[fixture]
    out, err = capsys.readouterr()
    assert err == ""
    assert out == (REPORTS / f"{fixture}.json").read_text()


PRICES = Path(__file__).parent / "prices_reports"


@pytest.mark.parametrize("fixture", sorted(STATUS))
@pytest.mark.parametrize("stable", ["strict", "weak"])
def test_prices_reports_are_pinned(fixture, stable, capsys):
    # captured before the decomposition rows moved to BoundRow; every
    # shipped game, under both stable variants
    argv = ["prices", fixture, "--ne"] + (["--stable", "weak"] if stable == "weak" else [])
    assert main(argv) == 0
    out, err = capsys.readouterr()
    assert err == ""
    suffix = "-weak" if stable == "weak" else ""
    assert out == (PRICES / f"{fixture}{suffix}.json").read_text()


PLANTED_4 = "planted-3x3x3x3"


@pytest.mark.parametrize("verb, pins", [("bounds", REPORTS), ("prices", PRICES)])
def test_four_player_reports_are_pinned(verb, pins, tmp_path, monkeypatch, capsys):
    # a seeded planted (3, 3, 3, 3) utility game with 3 equilibria: its m = 3
    # and m = 4 rows and prices are what the fixtures, of at most 3 players,
    # leave unpinned
    game, planted = _planted_game(random.Random(4), (3, 3, 3, 3), 3)
    assert sorted(enumerate_pure_ne(game).members) == sorted(planted)
    monkeypatch.chdir(tmp_path)
    Path(f"{PLANTED_4}.json").write_text(json.dumps(game_to_dict(game)))
    assert main([verb, f"{PLANTED_4}.json", "--ne"]) == 0
    out, err = capsys.readouterr()
    assert err == ""
    assert out == (pins / f"{PLANTED_4}.json").read_text()


# -- identical utility -------------------------------------------------------------


def test_identical_utility_fails_on_a_price_of_stability_below_one(monkeypatch):
    monkeypatch.setattr(efficiency, "price_report",
                        lambda game, D: dataclasses.replace(price_report(game, D), pos=F(1, 2)))
    out = verify_identical_utility(matrix5_game(eps="0.1", a=1))
    assert out["pos"] == F(1, 2) and out["holds"] is False


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
    from test_properties import has_independent_best_responses

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


def _assert_m_prices_recomputed(game, D):
    from transit.transitions import m_transition_set

    rep = price_report(game, D)
    opt = rep.optimum
    for m in range(1, game.n + 1):
        # m_transition_set lists the pool in lexicographic order, so the
        # first extreme in it is the witness
        pool = m_transition_set(D, m)
        sw = [sum(game.payoffs[t]) for t in pool]
        assert rep.m_pota_at(m) == min(sw) / opt
        assert rep.m_pots_at(m) == max(sw) / opt
        assert rep.witnesses[f"m_pota[{m}]"] == pool[sw.index(min(sw))]
        assert rep.witnesses[f"m_pots[{m}]"] == pool[sw.index(max(sw))]
    assert rep.witnesses["pota"] == rep.witnesses[f"m_pota[{game.n}]"]
    assert rep.witnesses["pots"] == rep.witnesses[f"m_pots[{game.n}]"]


def test_m_price_arrays_match_explicit_recomputation():
    game = example2_game()
    _assert_m_prices_recomputed(game, enumerate_pure_ne(game))
    checked = four = 0
    for scale in SCALES:
        for game, D in _random_instances():
            try:
                _assert_m_prices_recomputed(*_scaled(game, D, scale))
            except UndefinedPrice:
                continue
            checked += 1
            four += game.n == 4
    assert checked > 900 and four > 100


def test_degree_extremes_match_masked_box_rows():
    # the table against a masked copy and reduction per m: every row's
    # extremes and W's first extreme in C order, on int64 and object grids
    object_grids = 0
    for scale in SCALES:
        for game, D in _random_instances():
            game, D = _scaled(game, D, scale)
            box = transition_set(D).box
            rows = np.vstack([game.welfare[box].ravel(),
                              game.ints[1][(slice(None),) + box].reshape(game.n, -1)])
            degree = degree_map(D).ravel()
            table = degree_extremes(D)
            for m in range(1, game.n + 1):
                at = np.flatnonzero(degree <= m)
                part = rows[:, at]
                assert [row[m - 1] for row in table.least] == part.min(axis=1).tolist()
                assert [row[m - 1] for row in table.greatest] == part.max(axis=1).tolist()
                assert table.least_at[m - 1] == at[part[0].argmin()]
                assert table.greatest_at[m - 1] == at[part[0].argmax()]
            object_grids += rows.dtype == object
    assert object_grids > 0


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


# payoffs of a 3-player game whose pure equilibria (0, 1, 0) and (1, 1, 1)
# leave the welfare floor, the per-degree floors, player 1's alpha and
# player 2's beta undefined: its rows take every skip path
UNDEFINED_CONSTANTS = {
    (0, 0, 0): (-2, 1, 3), (0, 0, 1): (1, 1, -1), (0, 1, 0): (2, 2, -2),
    (0, 1, 1): (-2, 0, -2), (1, 0, 0): (0, 0, 3), (1, 0, 1): (-2, -1, 4),
    (1, 1, 0): (1, -1, -2), (1, 1, 1): (2, 0, 1),
}


def _skipped(name, anchor, reason):
    return (name, anchor, {}, "", None, None, None, None, reason)


BOUND_ROWS = {
    "matrix6": [
        ('welfare-lower-dependence-anarchy', 'welfare-coordination-bound',
         {'alpha': F(12, 7)}, 'pota >= poa / alpha',
         F(7, 16), F(7, 16), True, F(0), None),
        ('welfare-upper-dependence-stability', 'welfare-coordination-bound',
         {'alpha': F(1)}, 'pots <= alpha * pos',
         F(1), F(1), True, F(0), None),
        ('welfare-degree-anarchy(m=2)', 'degree-coordination-bound',
         {'alphas': (F(12, 7),)}, 'm_pota >= poa / prod(alpha_i)',
         F(7, 16), F(7, 16), True, F(0), None),
        ('welfare-degree-stability(m=2)', 'degree-coordination-bound',
         {'alphas': (F(1),)}, 'm_pots <= prod(alpha_i) * pos',
         F(1), F(1), True, F(0), None),
        ('player-dependence-anarchy', 'player-coordination-bound',
         {'alpha': F(2), 'beta': F(1)}, 'pota >= poa / (alpha * beta)',
         F(7, 16), F(3, 8), True, F(1, 16), None),
        ('player-dependence-stability', 'player-coordination-bound',
         {'alpha': F(1), 'beta': F(1)}, 'pots <= alpha * beta * pos',
         F(1), F(1), True, F(0), None),
        ('player-degree-anarchy(m=2)', 'player-degree-bound',
         {'alphas': (F(2),), 'beta': F(1)}, 'm_pota >= poa / (prod(alpha_i) * beta)',
         F(7, 16), F(3, 8), True, F(1, 16), None),
        ('player-degree-stability(m=2)', 'player-degree-bound',
         {'alphas': (F(1),), 'beta': F(1)}, 'm_pots <= prod(alpha_i) * beta * pos',
         F(1), F(1), True, F(0), None),
    ],
    "example2": [
        ('welfare-lower-dependence-anarchy', 'welfare-coordination-bound',
         {'alpha': F(1)}, 'pota >= poa / alpha',
         F(1, 10), F(1, 10), True, F(0), None),
        ('welfare-upper-dependence-stability', 'welfare-coordination-bound',
         {'alpha': F(10)}, 'pots <= alpha * pos',
         F(1), F(1), True, F(0), None),
        ('welfare-degree-anarchy(m=2)', 'degree-coordination-bound',
         {'alphas': (F(1),)}, 'm_pota >= poa / prod(alpha_i)',
         F(1, 10), F(1, 10), True, F(0), None),
        ('welfare-degree-stability(m=2)', 'degree-coordination-bound',
         {'alphas': (F(10),)}, 'm_pots <= prod(alpha_i) * pos',
         F(1), F(1), True, F(0), None),
        ('welfare-degree-anarchy(m=3)', 'degree-coordination-bound',
         {'alphas': (F(1), F(1))}, 'm_pota >= poa / prod(alpha_i)',
         F(1, 10), F(1, 10), True, F(0), None),
        ('welfare-degree-stability(m=3)', 'degree-coordination-bound',
         {'alphas': (F(10), F(1))}, 'm_pots <= prod(alpha_i) * pos',
         F(1), F(1), True, F(0), None),
        _skipped('player-dependence-anarchy', 'player-coordination-bound',
                 'a per-player constant is undefined'),
        ('player-dependence-stability', 'player-coordination-bound',
         {'alpha': F(30), 'beta': F(1)}, 'pots <= alpha * beta * pos',
         F(1), F(3), True, F(2), None),
        _skipped('player-degree-anarchy(m=2)', 'player-degree-bound',
                 'a constant is undefined'),
        ('player-degree-stability(m=2)', 'player-degree-bound',
         {'alphas': (F(30),), 'beta': F(1)}, 'm_pots <= prod(alpha_i) * beta * pos',
         F(1), F(3), True, F(2), None),
        _skipped('player-degree-anarchy(m=3)', 'player-degree-bound',
                 'a constant is undefined'),
        ('player-degree-stability(m=3)', 'player-degree-bound',
         {'alphas': (F(30), F(1)), 'beta': F(1)},
         'm_pots <= prod(alpha_i) * beta * pos',
         F(1), F(3), True, F(2), None),
    ],
    "undefined-constants": [
        ('welfare-lower-dependence-anarchy', 'welfare-coordination-bound',
         {'alpha': None}, 'pota >= poa / alpha',
         None, None, None, None, 'constant undefined'),
        ('welfare-upper-dependence-stability', 'welfare-coordination-bound',
         {'alpha': F(1)}, 'pots <= alpha * pos',
         F(1), F(1), True, F(0), None),
        _skipped('welfare-degree-anarchy(m=2)', 'degree-coordination-bound',
                 'a per-degree constant is undefined'),
        ('welfare-degree-stability(m=2)', 'degree-coordination-bound',
         {'alphas': (F(1),)}, 'm_pots <= prod(alpha_i) * pos',
         F(1), F(1), True, F(0), None),
        _skipped('welfare-degree-anarchy(m=3)', 'degree-coordination-bound',
                 'a per-degree constant is undefined'),
        ('welfare-degree-stability(m=3)', 'degree-coordination-bound',
         {'alphas': (F(1), F(1))}, 'm_pots <= prod(alpha_i) * pos',
         F(1), F(1), True, F(0), None),
        # player 3 gets -2 at the equilibrium (0, 1, 0): the per-player
        # hypothesis fails before any constant is read
        _skipped('player-dependence-anarchy', 'player-coordination-bound',
                 'a utility is negative at a solution'),
        _skipped('player-dependence-stability', 'player-coordination-bound',
                 'a utility is negative at a solution'),
        _skipped('player-degree-anarchy(m=2)', 'player-degree-bound',
                 'a utility is negative at a solution'),
        _skipped('player-degree-stability(m=2)', 'player-degree-bound',
                 'a utility is negative at a solution'),
        _skipped('player-degree-anarchy(m=3)', 'player-degree-bound',
                 'a utility is negative at a solution'),
        _skipped('player-degree-stability(m=3)', 'player-degree-bound',
                 'a utility is negative at a solution'),
    ],
}


@pytest.mark.parametrize("name", sorted(BOUND_ROWS))
def test_bound_rows_are_pinned_field_by_field(name):
    # every field of every row, in report order: names, anchors, constants,
    # inequality text, both sides, verdict, slack and skip reason
    game = {
        "matrix6": lambda: matrix6_game(4, 3, 2),
        "example2": example2_game,
        "undefined-constants": lambda: Game.from_function(
            (2, 2, 2), lambda s: UNDEFINED_CONSTANTS[s]
        ),
    }[name]()
    D = enumerate_pure_ne(game)
    rows = check_bound_observations(game, D)
    assert [dataclasses.astuple(r) for r in rows] == BOUND_ROWS[name]
    if name == "undefined-constants":
        dep = coordination_dependence(game, D)
        assert dep.sw_alpha_lower is None and dep.beta[1] is None
        assert None not in dep.alpha_upper


NO_STABLE_TRANSITION = {(0, 0): (2, 5), (0, 1): (1, 3), (1, 0): (1, 4), (1, 1): (4, 4)}


def test_no_stable_transition_is_an_undefined_price(tmp_path, capsys):
    # (1, 0) is its own only transition; the row player gains by leaving it
    # and the column player, already best-responding, may not help under the
    # strict variant, so posta and posts would extremise over nothing.  Under
    # the weak variant the column player's switch to 1 repairs the row player.
    game = Game.from_function((2, 2), lambda s: NO_STABLE_TRANSITION[s])
    D = SolutionSet(game, ((1, 0),))
    for call in (price_report, check_bound_observations):
        with pytest.raises(UndefinedPrice, match="no strict stable transition"):
            call(game, D)
    assert oracle.prices_for(game, D) == {"undefined": True}
    weak = price_report(game, D, "weak")
    assert {k: v for k, v in weak.as_dict().items() if k != "convention"} == (
        oracle.prices_for(game, D, "weak")
    )

    gpath = tmp_path / "game.json"
    gpath.write_text(json.dumps(game_to_dict(game)))
    spath = tmp_path / "solutions.json"
    spath.write_text(json.dumps({"game": str(gpath), "members": [[1, 0]]}))
    for verb in ("prices", "bounds"):
        assert main([verb, str(gpath), "--solutions", str(spath)]) == 4
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "error: solution set 'user' has no strict stable transition; "
            "posta and posts are undefined\n"
        )
