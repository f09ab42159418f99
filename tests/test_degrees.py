"""Set-cover machinery, the degree map and the saturation degree."""

import itertools
import math
import random

import pytest

import numpy as np

from transit import degrees, oracle
from transit.degrees import (
    CoverInstance,
    degree_map,
    exact_cover,
    greedy_basis,
    greedy_cover,
    reduce_to_cover,
)
from transit.errors import Infeasible, NotATransition, TooLarge
from transit.games import Game, SolutionSet
from transit.transitions import saturation_degree as saturation_of_set


def mask(s):
    return sum(1 << i for i in s)


def cover_of(universe, sets):
    return CoverInstance(
        mask(universe), tuple(mask(s) for s in sets), tuple(range(len(sets)))
    )


def as_profiles(n, sets):
    """Each set as a 0/1 solution; its cover optimum is the degree of all-ones."""
    return [tuple(1 if j in s else 0 for j in range(n)) for s in sets]


def is_independent(members, subset):
    """No chosen solution is a transition of the others."""
    chosen = [members[i] for i in subset]
    return not any(
        oracle.is_transition(chosen[:pos] + chosen[pos + 1 :], chosen[pos])
        for pos in range(len(chosen))
    )


def covers_universe(ci, picks):
    got = 0
    for idx in picks:
        got |= ci.sets[idx]
    return got == ci.universe


def saturation_degree(members):
    """transitions.saturation_degree of distinct members of an all-zero game."""
    n = len(members[0])
    shape = tuple(max(d[i] for d in members) + 1 for i in range(n))
    game = Game.from_function(shape, lambda s: (0,) * n)
    return saturation_of_set(SolutionSet(game, tuple(members)))


def box_max_degree(members):
    """Largest oracle degree over the product of the members' projections."""
    n = len(members[0])
    box = itertools.product(*[sorted({d[i] for d in members}) for i in range(n)])
    return max(oracle.degree(members, t) for t in box)


def test_member_covers_everything():
    members = [(0, 1, 2), (2, 1, 0)]
    ci = reduce_to_cover(members, (0, 1, 2))
    assert len(exact_cover(ci)) == 1


def test_reduction_eliminates_useless_solutions():
    members = [(0, 0), (1, 1), (2, 2)]
    ci = reduce_to_cover(members, (0, 1))
    # (2, 2) covers nothing of (0, 1) and is dropped
    assert len(ci.sets) == 2
    assert set(ci.origins) == {0, 1}


def test_reduction_rejects_nontransitions():
    with pytest.raises(NotATransition):
        reduce_to_cover([(0, 0), (1, 1)], (0, 2))


def test_reverse_reduction_fixture_roundtrip():
    # encode the cover instance {1,2}, {2,3,4}, {4,5} over universe {1..5}
    # as 0/1 solutions against the all-ones target; the optimum is whatever
    # exhaustive search says on both sides (all three sets are needed here)
    sets = [{0, 1}, {1, 2, 3}, {3, 4}]
    members = as_profiles(5, sets)
    target = (1, 1, 1, 1, 1)
    direct = exact_cover(cover_of(range(5), sets))
    ci = reduce_to_cover(members, target)
    via_profiles = exact_cover(ci)
    assert covers_universe(ci, via_profiles)
    assert len(via_profiles) == len(direct) == oracle.degree(members, target) == 3


def test_disjoint_singletons_need_everything():
    sets = [{i} for i in range(4)]
    assert len(exact_cover(cover_of(range(4), sets))) == 4
    assert len(greedy_cover(cover_of(range(4), sets))) == 4


def test_greedy_single_set():
    assert greedy_cover(cover_of(range(3), [{0, 1, 2}])) == [0]


def test_greedy_gap_family_stays_within_log_bound():
    # the bait set pulls greedy away from the two-set optimum
    sets = [{0, 1, 2, 3}, {0, 1, 4}, {2, 3, 5}]
    ci = cover_of(range(6), sets)
    greedy = greedy_cover(ci)
    picks = exact_cover(ci)
    assert covers_universe(ci, picks) and len(picks) == 2
    assert len(greedy) == 3
    assert len(greedy) <= (1 + math.log(6)) * len(picks)


def test_greedy_infeasible():
    with pytest.raises(Infeasible):
        greedy_cover(cover_of(range(3), [{0}, {1}]))


def test_exact_matches_bruteforce_random():
    rng = random.Random(303)
    for _ in range(80):
        n = rng.randint(2, 8)
        k = rng.randint(1, 7)
        sets = []
        while True:
            sets = [
                set(rng.sample(range(n), rng.randint(1, n))) for _ in range(k)
            ]
            if set().union(*sets) == set(range(n)):
                break
        ci = cover_of(range(n), sets)
        fast = exact_cover(ci)
        assert covers_universe(ci, fast)
        assert len(fast) == oracle.degree(as_profiles(n, sets), (1,) * n)


def oracle_map(members):
    """oracle.degree at every entry of the box, as the degree map lays it out."""
    projs = [sorted({d[i] for d in members}) for i in range(len(members[0]))]
    degs = [oracle.degree(members, t) for t in itertools.product(*projs)]
    return np.array(degs, dtype=np.int64).reshape([len(p) for p in projs])


def assert_matches_oracle(members):
    got = degree_map(members)
    assert got.dtype == np.int64
    np.testing.assert_array_equal(got, oracle_map(members))


def test_degree_map_matches_the_oracle_on_random_lists():
    # duplicates and single-valued players occur freely here
    rng = random.Random(5)
    for _ in range(400):
        n = rng.randint(1, 5)
        k = rng.randint(1, 4)
        members = [
            tuple(rng.randrange(k) for _ in range(n)) for _ in range(rng.randint(1, 8))
        ]
        assert_matches_oracle(members)


def test_degree_map_without_live_players_is_one_entry_of_degree_one():
    for members in ([(2, 0, 1)], [(2, 0, 1)] * 3, [(4,), (4,)]):
        got = degree_map(members)
        assert got.shape == (1,) * len(members[0])
        assert got.tolist() == oracle_map(members).tolist()
        assert got.ravel().tolist() == [1]


def test_degree_map_with_duplicates_and_dead_players():
    # players 1 and 3 hold one value in every solution; (0, 5, 1, 7, 0) is
    # listed twice
    members = [(0, 5, 1, 7, 0), (1, 5, 0, 7, 1), (0, 5, 1, 7, 0), (2, 5, 2, 7, 1)]
    got = degree_map(members)
    assert got.shape == (3, 1, 3, 1, 2)
    np.testing.assert_array_equal(got, oracle_map(members))
    assert got.max() == 3


def test_degree_map_of_one_player_games():
    for values in ([3], [0, 2], [4, 1, 4, 0]):
        members = [(v,) for v in values]
        got = degree_map(members)
        assert got.tolist() == [1] * len(set(values))


def test_degree_map_on_many_live_players(monkeypatch):
    # 7 to 10 binary players, every one live: the keyed map's packed bitmap
    # key (2^n' under 32 solutions' worth for one-byte masks, 4 for wider)
    # and its sorted-mask key (fewer solutions), with masks past a byte
    # from 9 players on
    monkeypatch.setattr(degrees, "_prefers_dp", lambda *_: False)
    rng = random.Random(16)
    for n, count in ((7, 16), (7, 6), (8, 6), (9, 5), (9, 70), (9, 150), (10, 7)):
        for _ in range(2):
            members = []
            while any(len({d[i] for d in members}) < 2 for i in range(n)):
                members = [tuple(rng.randrange(2) for _ in range(n)) for _ in range(count)]
            assert_matches_oracle(members)


@pytest.mark.parametrize(
    "keyed, sets, width",
    [
        (degrees._word_keys, 4, 3),
        (degrees._word_keys, 64, 9),
        (degrees._bitmap_keys, 128, 20),
        (degrees._bitmap_keys, 512, 70),
        (degrees._sorted_keys, 128, 6),
        (degrees._sorted_keys, 1024, 8),
    ],
)
def test_mask_set_keys_are_canonical(keyed, sets, width):
    # two rows get one key exactly when their sets of nonzero masks agree,
    # whatever the order, repeats and zeros; rows are drawn in pairs that
    # share most of their masks, so near misses are common
    rng = random.Random(sets + width)
    dtype = np.min_scalar_type(sets - 1)
    rows = []
    for _ in range(150):
        pool = [0] + rng.sample(range(1, sets), min(sets - 1, width))
        row = [rng.choice(pool) for _ in range(width)]
        rows.append(row)
        other = row[:]
        rng.shuffle(other)
        other[rng.randrange(width)] = rng.choice(pool if rng.random() < 0.5 else range(sets))
        rows.append(other)
    keys = keyed(np.array(rows, dtype=dtype), sets).tolist()
    for a in range(len(rows)):
        for b in range(a + 1, min(a + 6, len(rows))):
            same = set(rows[a]) - {0} == set(rows[b]) - {0}
            assert (keys[a] == keys[b]) == same, (rows[a], rows[b])


@pytest.mark.parametrize("cells", [1, 5, 40, 300])
def test_degree_map_across_blocks(monkeypatch, cells):
    # a small budget splits the box into blocks of one to a few dozen
    # entries; the keyed map's memo and C-order layout must carry across them
    monkeypatch.setattr(degrees, "_CELLS", cells)
    monkeypatch.setattr(degrees, "_prefers_dp", lambda *_: False)
    rng = random.Random(cells)
    for n, k, count in ((3, 3, 4), (4, 3, 6), (5, 2, 5), (8, 2, 4), (7, 2, 30)):
        members = [tuple(rng.randrange(k) for _ in range(n)) for _ in range(count)]
        assert_matches_oracle(members)


def cover_reference(members):
    """exact_cover(reduce_to_cover(...)) at every entry of the box."""
    projs = [sorted({d[i] for d in members}) for i in range(len(members[0]))]
    degs = [len(exact_cover(reduce_to_cover(members, t))) for t in itertools.product(*projs)]
    return np.array(degs, dtype=np.int64).reshape([len(p) for p in projs])


def test_both_methods_match_the_per_entry_cover_search(monkeypatch):
    # random lists of two kinds, few players on many values with many
    # solutions and many players on few values with few, which the rule
    # sends mostly to the DP and to the keyed map; no and one live player
    # occur among the second kind.  Every list runs under both methods
    rule = degrees._prefers_dp
    rng = random.Random(31)
    picked = {True: 0, False: 0}
    live = set()
    for trial in range(240):
        if trial % 2:
            n = rng.randint(2, 4)
            k, count = {2: 10, 3: 6, 4: 5}[n], rng.randint(20, 150)
        else:
            n, k, count = rng.randint(1, 6), rng.randint(1, 3), rng.randint(1, 12)
        members = [tuple(rng.randrange(k) for _ in range(n)) for _ in range(count)]
        sizes = [s for s in (len({d[i] for d in members}) for i in range(n)) if s > 1]
        live.add(len(sizes))
        if sizes:
            picked[rule(sizes, len(members))] += 1
        want = cover_reference(members)
        for dp in (True, False):
            monkeypatch.setattr(degrees, "_prefers_dp", lambda *_, dp=dp: dp)
            got = degree_map(members)
            assert got.dtype == np.int64
            np.testing.assert_array_equal(got, want)
    assert {0, 1} <= live
    assert min(picked.values()) > 60, picked


def test_subset_dp_matches_the_keyed_map_on_permutation_sets(monkeypatch):
    # the equilibria of n players on n parallel links: n! solutions over a
    # box of n^n entries, which the rule sends to the DP from n = 5 on
    rule = degrees._prefers_dp
    for n in range(2, 7):
        members = list(itertools.permutations(range(n)))
        assert rule([n] * n, len(members)) == (n >= 5)
        maps = []
        for dp in (True, False):
            monkeypatch.setattr(degrees, "_prefers_dp", lambda *_, dp=dp: dp)
            maps.append(degree_map(members))
        np.testing.assert_array_equal(*maps)


@pytest.mark.parametrize(
    "sizes, solutions, dp",
    [
        ([7] * 7, 5040, True),  # theorem 2 --n 7
        ([5] * 4, 120, True),  # a links game's 120 equilibria
        ([2] * 8, 6, False),  # many players, few solutions
        ([2] * 12, 8, False),
        ([2, 2], 2, False),  # matrix6's two equilibria
        ([4] * 3, 4, False),  # 3-player planted games
        ([5] * 3, 5, False),
        ([3] * 3, 9, False),
        ([2] * 16, 10**6, False),  # 3^16 cells: over the DP's table budget
    ],
)
def test_cost_rule_regimes(sizes, solutions, dp):
    assert degrees._prefers_dp(sizes, solutions) == dp


def test_independence_oracle():
    members = [(0, 0), (1, 1), (0, 1)]
    assert is_independent(members, [0, 1])
    assert is_independent(members, [0, 2])
    assert not is_independent(members, [0, 1, 2])  # (0,1) merges the others


def test_greedy_basis_skips_dependent_members():
    members = [(0, 0), (1, 1), (0, 1), (1, 0)]
    basis = greedy_basis(members)
    assert is_independent(members, basis)
    assert len(basis) == 2


def test_greedy_basis_matches_the_independence_oracle_on_random_lists():
    # the mask-based basis against its definition: each member, in order,
    # joins when the oracle calls the grown list independent
    rng = random.Random(15)
    duplicated = 0
    for _ in range(600):
        n = rng.randint(1, 5)
        pool = [tuple(rng.randrange(3) for _ in range(n)) for _ in range(rng.randint(1, 6))]
        members = [rng.choice(pool) for _ in range(rng.randint(1, 9))]
        duplicated += len(set(members)) < len(members)
        want: list[int] = []
        for idx in range(len(members)):
            if is_independent(members, want + [idx]):
                want.append(idx)
        assert greedy_basis(members) == want
    assert duplicated > 100


def test_saturation_single_solution():
    out = saturation_degree([(0, 1, 0)])
    assert out.m == 1 and out.basis == (0,) and out.basis_is_minimal


def test_saturation_two_opposed_solutions():
    out = saturation_degree([(0, 0), (1, 1)])
    assert out.m == 2
    assert out.basis_is_minimal


def test_saturation_refuses_a_box_over_the_profile_cap(monkeypatch):
    # the game is built under the default cap; its 2 x 2 box is then refused
    # by the degree map the saturation degree reads
    game = Game.from_function((2, 2), lambda s: (0, 0))
    D = SolutionSet(game, ((0, 0), (1, 1)))
    monkeypatch.setenv("TRANSIT_PROFILE_CAP", "3")
    with pytest.raises(TooLarge, match="4 profiles, cap is 3"):
        saturation_of_set(D)


def test_saturation_redundant_member_excluded_from_basis():
    members = [(0, 0), (1, 1), (0, 1)]
    out = saturation_degree(members)
    assert out.m == 2
    assert 2 not in out.basis
    # every maximal independent subset has two elements
    maximal = []
    for size in range(len(members), 0, -1):
        for combo in itertools.combinations(range(len(members)), size):
            if is_independent(members, combo):
                 if not any(set(combo) < set(m) for m in maximal):
                    maximal.append(combo)
    assert maximal and all(len(m) == 2 for m in maximal)


def test_saturation_greedy_basis_can_overshoot_minimum():
    # a full product set already has every transition at degree one, yet no
    # basis can shrink below two; the verified minimum wins and the result
    # flags the discrepancy instead of hiding it
    members = [(0, 0), (0, 1), (1, 0), (1, 1)]
    out = saturation_degree(members)
    assert out.m == 1
    assert len(out.basis) == 2
    assert not out.basis_is_minimal


def test_saturation_order_invariance():
    rng = random.Random(404)
    for _ in range(25):
        n = rng.randint(2, 4)
        k = rng.randint(2, 3)
        pool = list(itertools.product(range(k), repeat=n))
        members = rng.sample(pool, rng.randint(1, min(6, len(pool))))
        reference = saturation_degree(members).m
        for _ in range(5):
            shuffled = members[:]
            rng.shuffle(shuffled)
            assert saturation_degree(shuffled).m == reference


def test_saturation_m_is_minimal():
    rng = random.Random(505)
    for _ in range(25):
        n = rng.randint(2, 4)
        k = rng.randint(2, 3)
        pool = list(itertools.product(range(k), repeat=n))
        members = rng.sample(pool, rng.randint(1, min(5, len(pool))))
        m = saturation_degree(members).m
        assert m == box_max_degree(members)
        # no transition needs more than m solutions, and some needs exactly m
        assert all(
            len(exact_cover(reduce_to_cover(members, t))) <= m
            for t in itertools.product(*[sorted({d[i] for d in members}) for i in range(n)])
        )


def _maximal_independent_sizes(members):
    sizes = set()
    for size in range(len(members), 0, -1):
        for combo in itertools.combinations(range(len(members)), size):
            if is_independent(members, combo):
                grow = any(
                    is_independent(members, list(combo) + [x])
                    for x in range(len(members))
                    if x not in combo
                )
                if not grow:
                    sizes.add(size)
    return sizes


def test_independence_system_is_not_a_matroid():
    # surveying small solution sets turns up maximal independent subsets of
    # different sizes, so greedily grown bases cannot be trusted to be
    # minimal (or even well-defined in size); this pins one witness
    members = [(1, 0, 1), (0, 0, 1), (0, 1, 1), (1, 1, 1), (1, 0, 0)]
    assert is_independent(members, [1, 3, 4])  # maximal of size 3
    assert is_independent(members, [0, 1])  # maximal of size 2
    for x in (2, 3, 4):
        assert not is_independent(members, [0, 1, x])
    assert _maximal_independent_sizes(members) == {2, 3}
    # the verified minimum is insensitive to all of this
    assert saturation_degree(members).m == box_max_degree(members)


def test_equinumerosity_violations_are_surfaced_not_hidden():
    pool = list(itertools.product(range(2), repeat=3))
    rng = random.Random(606)
    violations = []
    for _ in range(60):
        members = rng.sample(pool, rng.randint(2, 5))
        sizes = _maximal_independent_sizes(members)
        if len(sizes) > 1:
            violations.append((tuple(members), tuple(sorted(sizes))))
    # the survey does find witnesses; saturation_degree stays order-free
    assert violations, "expected the survey to expose at least one witness"
    for members, _ in violations:
        base = saturation_degree(list(members)).m
        shuffled = list(members)
        rng.shuffle(shuffled)
        assert saturation_degree(shuffled).m == base
