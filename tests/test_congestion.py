"""Congestion games: conversion, subadditivity, merge lemma, degree scaling."""

import itertools
import math
import random
from fractions import Fraction

import numpy as np
import pytest

from transit.congestion import (
    CongestionGame,
    congestion_to_game,
    has_monotone_subadditive_totals,
    is_subadditive,
    is_superadditive,
    parallel_link_m_pota,
    parallel_link_m_pota_claimed,
    parallel_links,
    random_congestion_game,
    social_cost,
    verify_merge_lemma,
    verify_parallel_link_family,
)
from transit.decomposition import exact_potential_fourcycle
from transit.efficiency import price_report
from transit.games import enumerate_pure_ne

F = Fraction


def has_monotone_costs(cg):
    """Every resource's per-user cost table is nondecreasing in the load."""
    return all(a <= b for table in cg.costs for a, b in zip(table, table[1:]))


def two_links_linear():
    # 2 players, 2 parallel links, c(x) = x
    return parallel_links(2)


def test_conversion_shared_link_costs():
    cg = two_links_linear()
    game = congestion_to_game(cg)
    assert game.payoffs[(0, 0)] == (F(2), F(2))
    assert game.payoffs[(0, 1)] == (F(1), F(1))
    assert game.convention == "min"


def test_conversion_distinct_links_cost_one_each():
    cg = parallel_links(3)
    game = congestion_to_game(cg)
    assert game.payoffs[(0, 1, 2)] == (F(1), F(1), F(1))
    assert social_cost(cg, (0, 1, 2)) == 3


def test_conversion_single_resource_quadratic():
    n = 3
    cg = CongestionGame.build(
        strategies=[[[0]]] * n,
        costs=[[k * k for k in range(1, n + 1)]],
    )
    game = congestion_to_game(cg)
    assert game.payoffs[(0, 0, 0)] == (F(9),) * 3


def test_subadditivity_examples():
    linear = CongestionGame.build([[[0]]] * 3, [[1, 2, 3]])
    assert is_subadditive(linear)
    quadratic = CongestionGame.build([[[0]]] * 3, [[1, 4, 9]])
    assert not is_subadditive(quadratic)  # c(2) = 4 > 2 c(1)
    assert is_superadditive(quadratic)
    constant = CongestionGame.build([[[0]]] * 3, [[5, 5, 5]])
    assert is_subadditive(constant)


def test_merge_lemma_singleton():
    cg = two_links_linear()
    out = verify_merge_lemma(cg, [(0, 1)])
    assert out["holds"] and out["checked"] == 1


def test_merge_lemma_parallel_links_two_equilibria():
    cg = parallel_links(4)
    out = verify_merge_lemma(cg, [(0, 1, 2, 3), (1, 0, 3, 2)])
    assert out["holds"]


def test_merge_lemma_can_fail_without_subadditivity():
    # quadratic costs violate subadditivity; hunt for a violating merge
    cg = CongestionGame.build(
        [[[0], [1]]] * 2,
        [[1, 16], [1, 16]],
    )
    assert not is_subadditive(cg)
    out = verify_merge_lemma(cg, [(0, 1), (1, 0)])
    assert not out["holds"]
    assert out["counterexample"] is not None


def test_merge_lemma_violations_are_genuine_and_surfaced():
    # subadditivity alone does not cap merge welfare: crowding a resource
    # multiplies its (higher) price by every user while the budget sums
    # each solution's smaller loads at their own prices; the checker must
    # report such violations with a verifiable counterexample
    rng = random.Random(1234)
    cases = []
    for _ in range(250):
        n = rng.randint(2, 4)
        cg = random_congestion_game(rng, n, rng.randint(1, 4))
        profiles = set()
        shape = cg.shape()
        while len(profiles) < min(3, rng.randint(1, 3)):
            profiles.add(tuple(rng.randrange(k) for k in shape))
        cases.append((cg, sorted(profiles)))
    # guarantee one witness: crowding the expensive resource costs 73 > 55
    pinned = CongestionGame.build(
        strategies=[
            [[0, 1], [0, 2], [2]],
            [[0, 1, 2], [1], [2]],
            [[0, 2], [1]],
        ],
        costs=[[10, 15, 21], [3, 4, 6], [1, 1, 1]],
    )
    cases.append((pinned, [(0, 2, 0), (2, 0, 1)]))
    seen_violation = False
    for cg, profiles in cases:
        out = verify_merge_lemma(cg, profiles)
        if not out["holds"]:
            seen_violation = True
            ce = out["counterexample"]
            assert social_cost(cg, ce["merge"]) == ce["merge_welfare"]
            assert ce["merge_welfare"] > out["budget"]
            assert is_subadditive(cg)  # the stated hypothesis is insufficient
    assert seen_violation, "expected the sweep to surface at least one witness"


def test_merge_lemma_pinned_counterexample_monotone_subadditive():
    # monotone tables (10,15,21), (3,4,6), (1,1,1); the merge (0,0,0) piles
    # three users onto the expensive resource and costs 73 > 35 + 20
    cg = CongestionGame.build(
        strategies=[
            [[0, 1], [0, 2], [2]],
            [[0, 1, 2], [1], [2]],
            [[0, 2], [1]],
        ],
        costs=[[10, 15, 21], [3, 4, 6], [1, 1, 1]],
    )
    assert is_subadditive(cg) and has_monotone_costs(cg)
    out = verify_merge_lemma(cg, [(0, 2, 0), (2, 0, 1)])
    assert not out["holds"]
    assert out["budget"] == 55
    assert out["counterexample"]["merge_welfare"] == 73


def test_merge_lemma_holds_for_constant_costs():
    # with load-independent prices the merge total is linear in the loads,
    # which the member loads dominate coordinate-wise
    rng = random.Random(50)
    for _ in range(40):
        n = rng.randint(2, 4)
        m = rng.randint(1, 4)
        tables = [[F(rng.randint(0, 9))] * n for _ in range(m)]
        cg = random_congestion_game(rng, n, m)
        cg = CongestionGame(cg.n_players, cg.n_resources, cg.strategies,
                            tuple(tuple(t) for t in tables))
        profiles = {tuple(rng.randrange(k) for k in cg.shape())
                    for _ in range(rng.randint(1, 3))}
        assert verify_merge_lemma(cg, sorted(profiles))["holds"]


def test_merge_lemma_holds_on_parallel_link_equilibria():
    rng = random.Random(51)
    for n in (3, 4):
        cg = parallel_links(n)
        game = congestion_to_game(cg)
        ne = list(enumerate_pure_ne(game).members)
        for _ in range(10):
            chosen = rng.sample(ne, rng.randint(1, 3))
            assert verify_merge_lemma(cg, sorted(chosen))["holds"]


def test_merge_lemma_needs_monotone_costs():
    # subadditivity alone does not carry the welfare bound: with the
    # decreasing table (10, 1, 3), two profiles that crowd the resource pay
    # 1 per user, while a merge that leaves a single user there pays 10.
    cg = CongestionGame.build(
        strategies=[[[0], [0, 1], [1]]] * 3,
        costs=[[0, 0, 0], [10, 1, 3]],
    )
    assert is_subadditive(cg)
    assert not has_monotone_costs(cg)
    out = verify_merge_lemma(cg, [(0, 1, 2), (1, 2, 0)])
    assert not out["holds"]
    assert out["counterexample"]["merge_welfare"] > out["budget"]


def test_monotone_subadditive_totals_class():
    # the merge bound's hypothesis is on totals f(k) = k c(k), not on c
    pinned = CongestionGame.build(
        strategies=[
            [[0, 1], [0, 2], [2]],
            [[0, 1, 2], [1], [2]],
            [[0, 2], [1]],
        ],
        costs=[[10, 15, 21], [3, 4, 6], [1, 1, 1]],
    )
    assert is_subadditive(pinned)
    assert not has_monotone_subadditive_totals(pinned)  # totals 10, 30, 63
    heterogeneous = CongestionGame.build(
        strategies=[[[0], [1]], [[0], [0, 1], [1]]],
        costs=[[3, 6], [4, 8]],
    )
    assert not has_monotone_subadditive_totals(heterogeneous)  # 12 > 3 + 3
    assert not has_monotone_subadditive_totals(parallel_links(4))  # totals k^2
    decreasing = CongestionGame.build(
        strategies=[[[0], [0, 1], [1]]] * 3,
        costs=[[0, 0, 0], [10, 1, 3]],
    )
    assert not has_monotone_subadditive_totals(decreasing)  # totals 10, 2, 9

    # per-user (10, 6, 4) has totals 10, 12, 12: inside the class, and no
    # merge of any two or three profiles exceeds its budget
    inside = CongestionGame(pinned.n_players, pinned.n_resources,
                            pinned.strategies, ((F(10), F(6), F(4)),) * 3)
    assert has_monotone_subadditive_totals(inside)
    out = verify_merge_lemma(inside, [(0, 2, 0), (2, 0, 1)])
    assert out["holds"] and out["budget"] == 68  # 34 + 34
    profiles = list(itertools.product(*(range(k) for k in inside.shape())))
    for r in (2, 3):
        for chosen in itertools.combinations(profiles, r):
            assert verify_merge_lemma(inside, chosen)["holds"], chosen


def cost_prices(cg):
    game = congestion_to_game(cg, "min")
    return price_report(game, enumerate_pure_ne(game))


def test_theorem2_bound_and_precondition():
    # the m * poa cap on 2-limited transitions holds on parallel links
    rep = cost_prices(parallel_links(4))
    assert rep.poa == 1
    assert rep.m_pota_at(2) <= 2 * rep.poa


def test_theorem2_cap_fails_on_heterogeneous_links():
    # two equilibria of equal cost 7 exist, yet piling both players onto the
    # pricier resource yields a 2-limited transition costing 16 > 2 * 7,
    # although the per-user cost tables are subadditive
    cg = CongestionGame.build(
        strategies=[[[0], [1]], [[0], [0, 1], [1]]],
        costs=[[3, 6], [4, 8]],
    )
    assert is_subadditive(cg)
    game = congestion_to_game(cg)
    ne = enumerate_pure_ne(game)
    assert set(ne.members) == {(0, 2), (1, 0)}
    rep = price_report(game, ne)
    assert rep.poa == 1
    assert rep.m_pota_at(2) == F(16, 7)
    assert rep.m_pota_at(2) > 2 * rep.poa


def test_theorem2_m_equals_one_collapses_to_poa():
    rep = cost_prices(parallel_links(3))
    assert rep.m_pota_at(1) == rep.poa


@pytest.mark.parametrize("n", [3, 4, 5])
def test_parallel_link_family_verified_closed_form(n):
    rows = verify_parallel_link_family(n)
    assert [(fam["n"], fam["m"]) for fam in rows] == [(n, m) for m in range(1, n + 1)]
    assert all(fam["tight_at_n"] for fam in rows)
    for m, fam in enumerate(rows, start=1):
        assert fam["poa"] == 1
        assert fam["verified_matches"], (n, m)
        assert fam["cap_holds"]
        assert fam["m_pota"] == parallel_link_m_pota(n, m)
    assert rows[n - 1]["m_pota"] == n  # n * poa, tight


def test_parallel_link_single_pile_value_not_always_worst():
    # the single-overloaded-link cost is attainable but the worst merge can
    # overload several links at once; first mismatch is n=4, m=2
    fam = verify_parallel_link_family(4)[2 - 1]
    assert fam["claimed_value"] == F(3, 2)
    assert fam["m_pota"] == F(2)
    assert not fam["claimed_matches"]
    assert parallel_link_m_pota_claimed(4, 2) < parallel_link_m_pota(4, 2)


def test_congestion_games_admit_exact_potential():
    rng = random.Random(888)
    for _ in range(25):
        cg = random_congestion_game(rng, rng.randint(2, 3), rng.randint(1, 3),
                                    subadditive=rng.random() < 0.5)
        game = congestion_to_game(cg)
        assert exact_potential_fourcycle(game)


def test_equilibria_of_parallel_links_are_permutations():
    game = congestion_to_game(parallel_links(3))
    ne = enumerate_pure_ne(game)
    assert all(len(set(s)) == 3 for s in ne.members)
    assert len(ne.members) == 6


def _reference_ints(cg, convention):
    """(L, U) derived profile by profile from `player_cost`: L is the lcm of
    every payoff denominator, U the payoffs times L, negated under "min",
    int64 unless some |U| reaches 2**62."""
    shape = cg.shape()
    profiles = list(itertools.product(*map(range, shape)))
    costs = [cg.player_cost(i, s) for i in range(cg.n_players) for s in profiles]
    scale = math.lcm(*(v.denominator for v in costs))
    sign = 1 if convention == "max" else -1
    grid = [sign * v.numerator * (scale // v.denominator) for v in costs]
    dtype = np.int64 if max(map(abs, grid)) < 2**62 else object
    return scale, np.array(grid, dtype=dtype).reshape(cg.n_players, *shape)


def test_array_game_matches_the_per_profile_costs():
    rng = random.Random(2024)
    seen = set()
    for trial in range(240):
        n = rng.randint(1, 4)
        drawn = random_congestion_game(rng, n, rng.randint(1, 3), subadditive=False)
        kind = trial % 3
        if kind == 1:  # fractional costs, some shared denominators
            tables = tuple(
                tuple(F(rng.randint(0, 20), rng.choice((1, 2, 3, 4, 6))) for _ in range(n))
                for _ in range(drawn.n_resources)
            )
        elif kind == 2:  # max cost * n * m past 2**62: summed in Python ints
            big = rng.choice((2**59, 2**61, 2**62, 2**70))
            tables = tuple(
                tuple(F(rng.randint(0, 2) * big + rng.randint(0, 5), rng.choice((1, 3)))
                      for _ in range(n))
                for _ in range(drawn.n_resources)
            )
        else:
            tables = drawn.costs
        cg = CongestionGame(n, drawn.n_resources, drawn.strategies, tables)
        for convention in ("min", "max"):
            game = congestion_to_game(cg, convention)
            scale, grid = game.ints
            ref_scale, ref_grid = _reference_ints(cg, convention)
            assert scale == ref_scale
            assert grid.dtype == ref_grid.dtype
            assert np.array_equal(grid, ref_grid)
            assert not grid.flags.writeable
            seen.add(grid.dtype)
    assert seen == {np.dtype(np.int64), np.dtype(object)}
