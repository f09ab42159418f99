"""Set-cover machinery and the saturation degree."""

import itertools
import math
import random

import pytest

from transit import oracle
from transit.degrees import (
    CoverInstance,
    covers,
    exact_cover,
    greedy_basis,
    greedy_cover,
    is_independent,
    reduce_to_cover,
    saturation_degree,
)
from transit.errors import Infeasible, NotATransition


def mask(s):
    return sum(1 << i for i in s)


def cover_of(universe, sets):
    return CoverInstance(
        mask(universe), tuple(mask(s) for s in sets), tuple(range(len(sets)))
    )


def as_profiles(n, sets):
    """Each set as a 0/1 solution; its cover optimum is the degree of all-ones."""
    return [tuple(1 if j in s else 0 for j in range(n)) for s in sets]


def covers_universe(ci, picks):
    got = 0
    for idx in picks:
        got |= ci.sets[idx]
    return got == ci.universe


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
