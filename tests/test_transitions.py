"""Transition sets, degrees, stability, merges, and their invariants."""

import itertools
import math
import random
from fractions import Fraction

import pytest

from transit.errors import EmptySolutionSet, NotATransition
from transit.fixtures import example2_game, matrix2_game, matrix5_game
from transit.games import Game, SolutionSet, enumerate_pure_ne
from transit import oracle
from transit.transitions import (
    degree_map,
    is_stable_transition,
    is_transition,
    m_transition_set,
    merge_set,
    stable_transition_set,
    transition_degree,
    transition_set,
)

F = Fraction


def is_product_set(profiles):
    """True iff the profile set equals the product of its own projections."""
    projections = [set(column) for column in zip(*profiles)]
    return math.prod(map(len, projections)) == len(set(profiles))


def ne_of(game):
    return enumerate_pure_ne(game)


def random_solution_set(rng, n=3, k=3, size=4):
    game = Game.from_function(
        (k,) * n,
        lambda s: tuple(F(rng.randint(0, 6)) for _ in range(n)),
    )
    profiles = list(game.profiles())
    members = tuple(sorted(rng.sample(profiles, size)))
    return SolutionSet(game, members, "user")


def test_transition_set_of_matrix2_is_everything():
    game = matrix2_game()
    ts = transition_set(ne_of(game))
    assert set(ts) == set(game.profiles())
    assert is_transition(ne_of(game), (0, 1))


def test_members_are_transitions():
    rng = random.Random(7)
    D = random_solution_set(rng)
    for d in D.members:
        assert is_transition(D, d)


def test_example2_transition_contains_everything():
    game = example2_game()
    D = ne_of(game)
    assert is_transition(D, (1, 0, 0))
    assert set(transition_set(D)) == set(game.profiles())


def test_transition_set_product_characterisation():
    rng = random.Random(3)
    for _ in range(40):
        D = random_solution_set(rng, n=3, k=2, size=rng.randint(1, 5))
        ts = set(transition_set(D))
        assert is_product_set(sorted(ts))
        assert set(D.members) <= ts
        # equality with own transitions iff the member list is a product
        assert (ts == set(D.members)) == is_product_set(D.members)


def test_transition_idempotent():
    rng = random.Random(11)
    for _ in range(20):
        D = random_solution_set(rng, n=3, k=3, size=3)
        once = merge_set(list(D.members))
        twice = merge_set(once)
        assert once == twice


def test_merge_examples():
    assert merge_set([(0, 1)]) == [(0, 1)]
    assert merge_set([(0, 0), (0, 1)]) == [(0, 0), (0, 1)]
    game = matrix2_game()
    assert len(merge_set(list(ne_of(game).members))) == 4


def test_empty_solution_set_rejected():
    game = matrix2_game()
    empty = SolutionSet(game, (), "empty")
    with pytest.raises(EmptySolutionSet):
        transition_set(empty)
    with pytest.raises(EmptySolutionSet):
        is_transition(empty, (0, 0))


def test_degree_of_member_is_one():
    rng = random.Random(5)
    D = random_solution_set(rng)
    w = transition_degree(D, D.members[0])
    assert w.degree == 1


def test_degree_matrix2_mix_needs_two():
    game = matrix2_game()
    w = transition_degree(ne_of(game), (0, 1))
    assert w.degree == 2
    assert len(w.witnesses) == 2


def test_degree_requires_transition():
    game = matrix5_game()
    D = SolutionSet(game, ((0, 0),), "single")
    with pytest.raises(NotATransition):
        transition_degree(D, (1, 1))


def test_degree_exact_matches_bruteforce_on_random_instances():
    rng = random.Random(2024)
    for _ in range(30):
        n = rng.randint(2, 6)
        k = rng.randint(2, 3)
        game = Game.from_function(
            (k,) * n, lambda s: tuple(F(0) for _ in range(n))
        )
        profiles = list(game.profiles())
        members = tuple(sorted(rng.sample(profiles, min(8, len(profiles)))))
        D = SolutionSet(game, members)
        ts = list(transition_set(D))
        t = rng.choice(ts)
        assert transition_degree(D, t).degree == oracle.degree(members, t)


def test_greedy_within_log_factor_of_exact():
    rng = random.Random(99)
    for _ in range(25):
        D = random_solution_set(rng, n=4, k=3, size=5)
        t = rng.choice(list(transition_set(D)))
        exact = transition_degree(D, t, "exact").degree
        greedy = transition_degree(D, t, "greedy").degree
        assert exact <= greedy <= (1 + math.log(D.game.n)) * exact


def test_m_transition_chain():
    game = example2_game()
    D = ne_of(game)
    n = game.n
    prev = set(D.members)
    assert set(m_transition_set(D, 1)) == prev
    for m in range(2, n + 1):
        cur = set(m_transition_set(D, m))
        assert prev <= cur
        prev = cur
    assert prev == set(transition_set(D))


def test_m_transition_matrix2():
    game = matrix2_game()
    assert len(m_transition_set(ne_of(game), 2)) == 4


def test_m_transition_matches_oracle():
    rng = random.Random(31)
    for _ in range(10):
        D = random_solution_set(rng, n=3, k=3, size=4)
        for m in (1, 2, 3):
            mine = set(m_transition_set(D, m))
            ref = set(oracle.m_transitions(D.game, list(D.members), m))
            assert mine == ref


def test_composition_of_limited_transitions():
    # T(T(D, m), m') == T(D, m*m') on exhaustively enumerated small cases
    rng = random.Random(17)
    for _ in range(12):
        n = rng.randint(2, 4)
        k = rng.randint(2, 3)
        game = Game.from_function((k,) * n, lambda s: (F(0),) * n)
        profiles = list(game.profiles())
        members = tuple(sorted(rng.sample(profiles, rng.randint(1, 4))))
        D = SolutionSet(game, members)
        for m, mp in itertools.product((1, 2), repeat=2):
            inner = m_transition_set(D, m)
            E = SolutionSet(game, tuple(inner), "inner")
            lhs = set(m_transition_set(E, mp))
            rhs = set(m_transition_set(D, m * mp))
            assert lhs == rhs


def random_equilibrium_set(rng, n=3, k=2):
    """Pure equilibria of a random game; retries until some exist.

    Stability is studied over equilibrium solution sets: at a solution every
    player best-responds, so the helper condition is vacuous there.
    """
    while True:
        game = Game.from_function(
            (k,) * n,
            lambda s: tuple(F(rng.randint(0, 4)) for _ in range(n)),
        )
        ne = enumerate_pure_ne(game)
        if not ne.is_empty:
            return ne


def test_solutions_are_stable_transitions():
    rng = random.Random(23)
    for _ in range(10):
        D = random_equilibrium_set(rng)
        for d in D.members:
            assert is_stable_transition(D, d)
            assert is_stable_transition(D, d, "weak")


def test_stable_chain_between_solutions_and_transitions():
    rng = random.Random(29)
    for _ in range(15):
        D = random_equilibrium_set(rng)
        st_set = set(stable_transition_set(D))
        assert set(D.members) <= st_set <= set(transition_set(D))


def test_strict_stability_implies_weak():
    rng = random.Random(37)
    for _ in range(15):
        D = random_equilibrium_set(rng)
        strict = set(stable_transition_set(D, "strict"))
        weak = set(stable_transition_set(D, "weak"))
        assert strict <= weak


def test_stable_idempotent():
    rng = random.Random(41)
    for _ in range(10):
        D = random_equilibrium_set(rng)
        st1 = stable_transition_set(D)
        E = SolutionSet(D.game, tuple(sorted(st1)), "st")
        st2 = stable_transition_set(E)
        assert set(st1) == set(st2)


def test_stable_matches_oracle_both_variants():
    rng = random.Random(53)
    for _ in range(10):
        D = random_solution_set(rng, n=3, k=3, size=3)
        for variant in ("strict", "weak"):
            mine = set(stable_transition_set(D, variant))
            ref = set(oracle.stable_transitions(D.game, list(D.members), variant))
            assert mine == ref


def test_stable_nontransition_is_false():
    game = matrix5_game()
    D = SolutionSet(game, ((0, 0),), "single")
    assert not is_stable_transition(D, (1, 1))


def test_degree_map_agrees_with_pointwise_degrees():
    rng = random.Random(61)
    D = random_solution_set(rng, n=4, k=2, size=4)
    ts = transition_set(D)
    degs = degree_map(D)
    assert degs.shape == tuple(len(p) for p in ts.projections)
    for t, d in zip(ts, degs.ravel().tolist()):
        assert transition_degree(D, t).degree == d
