"""Polymatrix hypothesis checks, generator, and the welfare floor."""

import random
from fractions import Fraction

import pytest

from transit.errors import PreconditionFailed
from transit.games import SolutionSet, enumerate_pure_ne
from transit.polymatrix import (
    PolymatrixGame,
    check_polymatrix_symmetry_and_regularity,
    generate_theorem1_instances,
    m_posta,
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
    assert pg.to_game() is game  # built once, with the instance


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
