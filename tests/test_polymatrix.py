"""Polymatrix hypothesis checks, generator, and the welfare floor."""

import itertools
import random
from fractions import Fraction

import pytest

from transit import oracle
from transit.errors import PreconditionFailed, UndefinedPrice
from transit.games import Game, SolutionSet, enumerate_pure_ne
from transit.polymatrix import (
    PolymatrixGame,
    check_polymatrix_symmetry_and_regularity,
    generate_theorem1_instances,
    m_posta,
    symmetric_equilibria,
    symmetric_members,
    verify_theorem1,
)

F = Fraction


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


def test_identical_constant_matrices_are_symmetric():
    out = check_polymatrix_symmetry_and_regularity(constant_pg())
    assert out["part1"] and out["part2"] and out["symmetric"]


def test_unequal_opponent_matrices_flagged_with_witness():
    n, k = 3, 2
    base = tuple(tuple(F(1) for _ in range(k)) for _ in range(k))
    other = tuple(tuple(F(2) for _ in range(k)) for _ in range(k))
    mats = {(i, j): base for i in range(n) for j in range(n) if j != i}
    mats[(0, 2)] = other
    pg = PolymatrixGame(n, (k,) * n, mats)
    out = check_polymatrix_symmetry_and_regularity(pg)
    assert not out["part1"]
    assert out["witnesses"]["part1"] == (0, 1, 2)


def test_generated_instances_pass_both_checks():
    rng = random.Random(7)
    for pg, D in generate_theorem1_instances(rng, 5):
        out = check_polymatrix_symmetry_and_regularity(pg, D)
        assert out["symmetric"] and out["regular"]


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
    assert out["regular"] is False
    assert out["witnesses"]["regularity"]["lhs"] < out["witnesses"]["regularity"]["rhs"]


def test_theorem1_holds_on_generated_instances():
    rng = random.Random(99)
    for pg, D in generate_theorem1_instances(rng, 25):
        for m in (1, 2, 3):
            out = verify_theorem1(pg, D, m)
            assert out["holds"]


def test_singleton_solution_set_floor_is_trivial():
    rng = random.Random(13)
    pg, D = next(generate_theorem1_instances(rng, 1))
    if len(D.members) == 1:
        out = verify_theorem1(pg, D, 2)
        assert out["m_posta"] >= out["poa"] / 2


def test_theorem1_refuses_failing_regularity():
    pg = constant_pg(n=3, k=2, c=1)
    game = pg.to_game()
    D = SolutionSet(game, tuple(symmetric_members(enumerate_pure_ne(game))), "sym")
    with pytest.raises(PreconditionFailed, match="regularity"):
        verify_theorem1(pg, D, 2)


def test_theorem1_refuses_negative_payoffs():
    mat = ((F(-1), F(0)), (F(0), F(0)))
    pg = PolymatrixGame(2, (2, 2), {(0, 1): mat, (1, 0): mat})
    game = pg.to_game()
    D = SolutionSet(game, ((1, 1),), "sym")
    with pytest.raises(PreconditionFailed, match="nonnegativity"):
        verify_theorem1(pg, D, 1)


def test_theorem1_refuses_asymmetric_solution_sets():
    pg = constant_pg(n=2, k=2, c=1)
    game = pg.to_game()
    D = SolutionSet(game, ((0, 1),), "mixed")
    with pytest.raises(PreconditionFailed, match="symmetry"):
        verify_theorem1(pg, D, 1)


def test_m_posta_between_posta_and_poa():
    rng = random.Random(55)
    pg, D = next(generate_theorem1_instances(rng, 1))
    game = pg.to_game()
    from transit.efficiency import price_report

    r = price_report(game, D)
    for m in range(1, game.n + 1):
        val = m_posta(game, D, m)
        assert r.posta <= val <= r.poa


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


def test_matrix_checks_match_the_dense_game():
    # random polymatrix games, some with one matrix per player as the
    # generator draws them, some with every matrix drawn, some fractional
    rng = random.Random(5)
    seen = {True: 0, False: 0}
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
        assert symmetric_equilibria(pg) == symmetric_members(enumerate_pure_ne(game))
        out = check_polymatrix_symmetry_and_regularity(pg)
        assert out["part2"] == _pairwise_welfare_monotone(game)
        seen[out["part2"]] += 1
        if not out["part2"]:
            hi, lo, i = out["witnesses"]["part2"]
            assert sum(game.payoffs[hi]) >= sum(game.payoffs[lo])
            assert game.payoffs[hi][i] < game.payoffs[lo][i]
    assert min(seen.values()) > 10
