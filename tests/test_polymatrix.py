"""Polymatrix hypothesis checks, generator, and the welfare floor."""

import itertools
import json
import random
from fractions import Fraction

import pytest

from transit import cli, oracle, polymatrix
from transit.congestion import congestion_to_game, parallel_links
from transit.efficiency import price_report
from transit.errors import PreconditionFailed, UndefinedPrice
from transit.games import Game, SolutionSet, enumerate_pure_ne
from transit.polymatrix import (
    PolymatrixGame,
    check_polymatrix_symmetry_and_regularity,
    generate_theorem1_instances,
    is_symmetric_profile,
    m_posta,
    symmetric_equilibria,
    verify_theorem1,
)
from transit.transitions import merge_set

F = Fraction


def symmetric_members(D):
    return [s for s in D.members if is_symmetric_profile(s)]


def constant_pg(n=3, k=2, c=1):
    mat = tuple(tuple(F(c) for _ in range(k)) for _ in range(k))
    return PolymatrixGame(n, (k,) * n, {(i, j): mat for i in range(n) for j in range(n) if j != i})


def test_inducement_matches_pairwise_sums():
    mat01 = ((F(1), F(2)), (F(3), F(4)))
    mat10 = ((F(5), F(6)), (F(7), F(8)))
    pg = PolymatrixGame(2, (2, 2), {(0, 1): mat01, (1, 0): mat10})
    game = pg.to_game()
    assert game.payoffs[(0, 1)] == (F(2), F(7))
    assert game.payoffs[(1, 0)] == (F(3), F(6))
    assert pg.to_game() is game  # built once, on first use
    # utilities up to 2 * 2**61 are summed in Python ints, not int64
    big = ((F(2**61), F(1, 3)), (F(0), F(2**61 - 1)))
    pg = PolymatrixGame(3, (2, 2, 2), {(i, j): big for i in range(3) for j in range(3) if j != i})
    game = pg.to_game()
    assert game.ints[1].dtype == object
    assert game.payoffs[(0, 0, 1)] == (F(2**61) + F(1, 3), F(2**61) + F(1, 3), F(0))


def test_identical_constant_matrices_are_symmetric():
    out = check_polymatrix_symmetry_and_regularity(constant_pg())
    assert out["holds"]["per-player matrix equality"]
    assert out["holds"]["welfare monotonicity"]


def test_unequal_opponent_matrices_flagged_with_witness():
    n, k = 3, 2
    base = tuple(tuple(F(1) for _ in range(k)) for _ in range(k))
    other = tuple(tuple(F(2) for _ in range(k)) for _ in range(k))
    mats = {(i, j): base for i in range(n) for j in range(n) if j != i}
    mats[(0, 2)] = other
    pg = PolymatrixGame(n, (k,) * n, mats)
    out = check_polymatrix_symmetry_and_regularity(pg)
    assert not out["holds"]["per-player matrix equality"]
    assert out["witnesses"]["per-player matrix equality"] == (0, 1, 2)


def test_generated_instances_pass_both_checks():
    rng = random.Random(7)
    for pg, D in generate_theorem1_instances(rng, 5):
        out = check_polymatrix_symmetry_and_regularity(pg, D)
        assert all(out["holds"].values())


def test_regularity_collapses_multi_solution_nonnegative_games():
    # two symmetric solutions admit a transition matching one of them
    # everywhere except a single player i; the regularity sum for i is then
    # empty and cannot cover twice a positive pairwise maximum
    pg = constant_pg(n=3, k=2, c=1)
    game = pg.to_game()
    ne = enumerate_pure_ne(game)
    sym = symmetric_members(ne)
    assert len(sym) == 2
    D = SolutionSet(game, tuple(sym), "symmetric-NE")
    out = check_polymatrix_symmetry_and_regularity(pg, D)
    assert out["holds"]["regularity"] is False
    assert out["witnesses"]["regularity"]["lhs"] < out["witnesses"]["regularity"]["rhs"]


def test_theorem1_holds_on_generated_instances():
    rng = random.Random(99)
    for pg, D in generate_theorem1_instances(rng, 25):
        rows = verify_theorem1(pg, D, (1, 2, 3))
        assert [out["m"] for out in rows] == [1, 2, 3]
        assert all(out["holds"] for out in rows)


def test_theorem1_gates_and_prices_each_instance_once(monkeypatch, capsys):
    # theorem 1 --instances 20: the generator draws 26 candidates that pass
    # every other hypothesis and keeps the 20 whose optimum is positive,
    # without pricing them; verification then gates each instance once and
    # prices it once for all m.  Before, the generator also built a price
    # report of every instance it kept (40 in all), and before that the
    # checks and the report ran once per m: 86 regularity checks
    # (26 + 3 * 20) and 80 price reports (20 + 3 * 20).
    calls = {"price_report": 0, "_regularity": 0}
    for name in calls:
        inner = getattr(polymatrix, name)

        def counted(*args, _inner=inner, _name=name):
            calls[_name] += 1
            return _inner(*args)

        monkeypatch.setattr(polymatrix, name, counted)
    assert cli.main(["theorem", "1", "--instances", "20"]) == 0
    capsys.readouterr()
    assert calls == {"price_report": 20, "_regularity": 26 + 20}


def test_m_posta_below_poa_over_m_fails_theorem1(monkeypatch, capsys):
    # poa is never negative, so m_posta = -1 falls below poa / m at every m
    monkeypatch.setattr(polymatrix, "m_posta", lambda game, D, m: F(-1))
    pg, D = next(generate_theorem1_instances(random.Random(99), 1))
    assert [out["holds"] for out in verify_theorem1(pg, D, (1, 2, 3))] == [False] * 3
    assert cli.main(["theorem", "1", "--instances", "5"]) == 1
    assert json.loads(capsys.readouterr().out)["findings"] == [
        "stable-degree-welfare-floor: m-posta >= poa / m on every generated instance"]


def test_singleton_solution_set_floor_is_trivial():
    rng = random.Random(13)
    pg, D = next(generate_theorem1_instances(rng, 1))
    if len(D.members) == 1:
        (out,) = verify_theorem1(pg, D, (2,))
        assert out["m_posta"] >= out["poa"] / 2


def test_theorem1_refuses_failing_regularity():
    pg = constant_pg(n=3, k=2, c=1)
    game = pg.to_game()
    D = SolutionSet(game, tuple(symmetric_members(enumerate_pure_ne(game))), "sym")
    with pytest.raises(PreconditionFailed, match="regularity"):
        verify_theorem1(pg, D, (2,))


def test_theorem1_refuses_negative_payoffs():
    mat = ((F(-1), F(0)), (F(0), F(0)))
    pg = PolymatrixGame(2, (2, 2), {(0, 1): mat, (1, 0): mat})
    game = pg.to_game()
    D = SolutionSet(game, ((1, 1),), "sym")
    with pytest.raises(PreconditionFailed, match="nonnegativity"):
        verify_theorem1(pg, D, (1,))


def test_theorem1_refuses_asymmetric_solution_sets():
    pg = constant_pg(n=2, k=2, c=1)
    game = pg.to_game()
    D = SolutionSet(game, ((0, 1),), "mixed")
    with pytest.raises(PreconditionFailed, match="symmetry"):
        verify_theorem1(pg, D, (1,))


def test_m_posta_between_posta_and_poa():
    rng = random.Random(55)
    pg, D = next(generate_theorem1_instances(rng, 1))
    game = pg.to_game()
    r = price_report(game, D)
    for m in range(1, game.n + 1):
        val = m_posta(game, D, m)
        assert r.posta <= val <= r.poa


def test_m_posta_on_a_cost_game_is_the_greatest_cost_over_the_least():
    # three players on three unit-slope links: the optimum spreads them at
    # cost 3, one merge of two equilibria piles two on one link (cost 5),
    # and at m = n the price is posta
    game = congestion_to_game(parallel_links(3), "min")
    D = enumerate_pure_ne(game)
    assert [m_posta(game, D, m) for m in (1, 2, 3)] == [F(1), F(5, 3), F(5, 3)]
    assert m_posta(game, D, 3) == price_report(game, D).posta


def test_m_posta_is_undefined_without_a_stable_transition():
    # each player earns more on strategy 1 whatever the other plays, so the
    # user's one solution (0, 0), its only transition, is not stable
    game = Game.from_function((2, 2), lambda s: (F(s[0] + 1), F(s[1] + 1)))
    D = SolutionSet(game, ((0, 0),), "user")
    assert oracle.stable_transitions(game, D.members) == []
    for m in (1, 2):
        with pytest.raises(UndefinedPrice, match="'user' has no strict stable transition"):
            m_posta(game, D, m)


def _pairwise_welfare_monotone(game):
    # every pair of profiles, as the check read the dense game before
    sw = {s: sum(game.payoffs[s]) for s in game.profiles()}
    for s, t in itertools.combinations(list(game.profiles()), 2):
        lo, hi = (s, t) if sw[s] <= sw[t] else (t, s)
        if any(game.payoffs[hi][i] < game.payoffs[lo][i] for i in range(game.n)):
            return False
    return True


def _fraction_regularity(pg, members):
    # the per-profile Fraction walk over the merge set that the integer
    # pass over the transition box replaced, kept as the reference
    n = pg.n_players
    rhs_of = [
        2 * max(v for j in range(n) if j != i for row in pg.matrices[(i, j)] for v in row)
        for i in range(n)
    ]
    for t in merge_set(members):
        for s in members:
            p_s = {p for p in range(n) if t[p] == s[p]}
            for i in range(n):
                if i in p_s:
                    continue
                lhs = sum(
                    (pg.matrices[(i, k)][s[i]][t[k]]
                     for k in range(n) if k not in p_s and k != i),
                    start=F(0),
                )
                if lhs < rhs_of[i]:
                    return False, {"transition": t, "solution": s, "player": i,
                                   "lhs": lhs, "rhs": rhs_of[i]}
    return True, None


def test_matrix_checks_match_the_dense_game():
    # random polymatrix games, some with one matrix per player as the
    # generator draws them, some with every matrix drawn, some fractional;
    # regularity is also checked against solution sets drawn at random,
    # asymmetric and of up to four members
    rng = random.Random(5)
    draws = random.Random(6)
    seen = {True: 0, False: 0}
    regular = {True: 0, False: 0}
    failed_at = set()
    for trial in range(300):
        n, k = rng.randint(2, 4), rng.randint(1, 3)
        values = [F(v, rng.choice((1, 1, 2, 3))) for v in range(-1, 3)]
        draw = lambda: tuple(tuple(rng.choice(values) for _ in range(k)) for _ in range(k))
        if trial % 3:
            per_player = [draw() for _ in range(n)]
            mats = {(i, j): per_player[i] for i in range(n) for j in range(n) if j != i}
        else:
            mats = {(i, j): draw() for i in range(n) for j in range(n) if j != i}
        pg = PolymatrixGame(n, (k,) * n, mats)
        game = pg.to_game()
        reference = Game.from_function(
            (k,) * n,
            lambda s: tuple(sum(mats[(i, j)][s[i]][s[j]] for j in range(n) if j != i)
                            for i in range(n)),
        )
        assert (game.players, game.strategies, game.convention, game.ints[0]) == (
            reference.players, reference.strategies, reference.convention, reference.ints[0]
        )
        assert game.ints[1].dtype == reference.ints[1].dtype
        assert (game.ints[1] == reference.ints[1]).all()
        assert symmetric_equilibria(pg) == symmetric_members(enumerate_pure_ne(game))
        out = check_polymatrix_symmetry_and_regularity(pg)
        assert out["holds"]["welfare monotonicity"] == _pairwise_welfare_monotone(game)
        seen[out["holds"]["welfare monotonicity"]] += 1
        if not out["holds"]["welfare monotonicity"]:
            hi, lo, i = out["witnesses"]["welfare monotonicity"]
            assert sum(game.payoffs[hi]) >= sum(game.payoffs[lo])
            assert game.payoffs[hi][i] < game.payoffs[lo][i]
        profiles = list(game.profiles())
        drawn = draws.sample(profiles, draws.randint(1, min(4, len(profiles))))
        for D in (out["solution_set"], SolutionSet(game, tuple(drawn), "drawn")):
            if D.is_empty:
                assert out["holds"]["regularity"] is None
                continue
            got = check_polymatrix_symmetry_and_regularity(pg, D)
            holds, witness = _fraction_regularity(pg, D.members)
            assert got["holds"]["regularity"] == holds
            assert got["witnesses"]["regularity"] == witness
            regular[holds] += 1
            if witness:
                failed_at.add((witness["transition"] == D.members[0], witness["player"]))
    assert min(seen.values()) > 10
    assert min(regular.values()) > 10
    assert len(failed_at) > 4  # witnesses at and away from the first solution
