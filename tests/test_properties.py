"""Property suites: randomised invariants backed by brute-force oracles."""

import ast
import itertools
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from transit import oracle
from transit.congestion import (
    random_congestion_game,
    verify_merge_lemma,
)
from transit.degrees import CoverInstance, exact_cover
from transit.efficiency import price_report, two_player_pots_condition
from transit.errors import UndefinedPrice
from transit.games import (
    Game,
    SolutionSet,
    best_responses,
    enumerate_pure_ne,
)
from transit.polymatrix import m_posta
from transit.transitions import (
    degree_map,
    is_stable_transition,
    m_transition_set,
    stable_transition_set,
    transition_set,
)

F = Fraction


def has_independent_best_responses(game):
    """Whether each player's best-response set ignores the others: player
    i's best-response grid (`Game.regret` at 0) is constant off axis i."""
    for i, br in enumerate(game.regret[1] == 0):
        rest = tuple(j for j in range(game.n) if j != i)
        if (br.any(axis=rest) != br.all(axis=rest)).any():
            return False
    return True


def game_strategy(draw, max_players=3, max_strats=3, lo=0, hi=8, convention=None):
    n = draw(st.integers(2, max_players))
    k = draw(st.integers(2, max_strats))
    conv = convention or draw(st.sampled_from(["max", "min"]))
    cells = draw(
        st.lists(
            st.tuples(*(st.integers(lo, hi) for _ in range(n))),
            min_size=k**n,
            max_size=k**n,
        )
    )
    table = {}
    idx = 0
    import itertools

    for s in itertools.product(range(k), repeat=n):
        table[s] = tuple(F(v) for v in cells[idx])
        idx += 1
    return Game.from_function((k,) * n, lambda s: table[s], convention=conv)


games = st.builds(lambda: None)  # placeholder, composed below


@st.composite
def random_games(draw, **kw):
    return game_strategy(draw, **kw)


@st.composite
def games_with_ne(draw, **kw):
    game = game_strategy(draw, **kw)
    ne = enumerate_pure_ne(game)
    if ne.is_empty:
        # force the last profile into an equilibrium by making it dominant
        # (largest payoff under max, cheapest under min)
        if game.convention == "max":
            forced = max(max(v) for v in game.payoffs.values()) + 1
        else:
            forced = min(min(v) for v in game.payoffs.values()) - 1
        top = tuple(k - 1 for k in game.shape)
        table = dict(game.payoffs)
        table[top] = tuple(forced for _ in range(game.n))
        game = Game.from_function(game.shape, table.__getitem__, game.convention,
                                  game.players, game.strategies)
        ne = enumerate_pure_ne(game)
    return game, ne


@settings(max_examples=50, deadline=None)
@given(games_with_ne(lo=1))
def test_observation1_and_degree_chain(pair):
    game, ne = pair
    try:
        rep = price_report(game, ne)
    except UndefinedPrice:
        return
    assert rep.observation1_holds()
    assert rep.chain_holds()
    assert rep.m_pota[0] == rep.poa
    assert rep.m_pota[-1] == rep.pota


@settings(max_examples=40, deadline=None)
@given(random_games())
def test_transition_set_matches_oracle(game):
    members = tuple(sorted(game.profiles())[:: max(1, game.num_profiles // 3)])
    D = SolutionSet(game, members)
    mine = set(transition_set(D))
    ref = set(oracle.transitions(game, members))
    assert mine == ref


@settings(max_examples=40, deadline=None)
@given(random_games(max_players=3, max_strats=3), st.integers(1, 3))
def test_m_transitions_match_oracle(game, m):
    import itertools

    profiles = list(game.profiles())
    members = tuple(profiles[:: max(1, len(profiles) // 4)][:4])
    D = SolutionSet(game, members)
    assert set(m_transition_set(D, m)) == set(
        oracle.m_transitions(game, list(members), m)
    )


@settings(max_examples=30, deadline=None)
@given(games_with_ne(), st.sampled_from(["strict", "weak"]))
def test_stable_transitions_match_oracle(pair, variant):
    game, ne = pair
    mine = set(stable_transition_set(ne, variant))
    ref = set(oracle.stable_transitions(game, list(ne.members), variant))
    assert mine == ref
    assert set(ne.members) <= mine <= set(transition_set(ne))


@settings(max_examples=30, deadline=None)
@given(games_with_ne())
def test_solutions_stay_stable(pair):
    game, ne = pair
    for d in ne.members:
        assert is_stable_transition(ne, d)


# a small value pool makes ties common; scaling every payoff and epsilon by
# 2**62 + 1 puts the integers of the exact view past 2**62, so both its
# int64 and its Python-int path run, and 1 / (2**61 + 1) gives a large lcm
PAYOFF_POOL = [F(-2), F(-1), F(-1, 2), F(0), F(1, 3), F(1), F(2)]
SCALES = [F(1), F(2**62 + 1), F(1, 2**61 + 1)]


@st.composite
def exact_instances(draw):
    """(game, solution set, epsilon): either convention, uneven strategy
    counts, an epsilon-equilibrium set or a user-supplied profile list."""
    import itertools

    shape = tuple(draw(st.lists(st.integers(1, 3), min_size=1, max_size=3)))
    n = len(shape)
    scale = draw(st.sampled_from(SCALES))
    profiles = list(itertools.product(*(range(k) for k in shape)))
    cells = draw(st.lists(st.tuples(*(st.sampled_from(PAYOFF_POOL) for _ in range(n))),
                          min_size=len(profiles), max_size=len(profiles)))
    table = {s: tuple(v * scale for v in vec) for s, vec in zip(profiles, cells)}
    game = Game.from_function(shape, table.__getitem__,
                              convention=draw(st.sampled_from(["max", "min"])))
    eps = draw(st.sampled_from([F(0), F(1, 3), F(1, 2), F(1), F(5, 2)])) * scale
    if draw(st.booleans()):
        picks = draw(st.lists(st.sampled_from(profiles), min_size=1, max_size=4,
                              unique=True))
        D = SolutionSet(game, tuple(picks))
    else:
        D = enumerate_pure_ne(game, eps)
    return game, D, eps


@settings(max_examples=120, deadline=None)
@given(exact_instances())
def test_array_passes_match_the_oracle(instance):
    game, D, eps = instance
    assert list(enumerate_pure_ne(game, eps).members) == oracle.ne_profiles(game, eps)
    for i in range(game.n):
        for s in game.profiles():
            assert best_responses(game, i, s) == oracle._best_set(game, s, i)
    if D.is_empty:
        return
    members = list(D.members)
    for variant in ("strict", "weak"):
        ref = oracle.stable_transitions(game, members, variant)
        assert stable_transition_set(D, variant) == ref
        for s in game.profiles():
            assert is_stable_transition(D, s, variant) == (s in ref)
    assert degree_map(D).ravel().tolist() == [
        oracle.degree(members, t) for t in oracle.transitions(game, members)
    ]
    for variant in ("strict", "weak"):
        ref = oracle.prices(game, members, variant)
        try:
            rep = price_report(game, D, variant)
        except UndefinedPrice:
            assert ref == {"undefined": True}
            continue
        assert {k: v for k, v in rep.as_dict().items() if k != "convention"} == ref
        assert rep.witnesses == _first_extremes(game, members, variant)
        # witnesses are plain ints, so reports render them as JSON numbers
        assert all(type(x) is int for w in rep.witnesses.values() for x in w)
    if game.convention == "min":
        return
    sw = {s: sum(game.payoffs[s]) for s in game.profiles()}
    opt = max(sw.values())
    stable = set(oracle.stable_transitions(game, members))
    for m in range(1, game.n + 1):
        pool = [sw[t] for t in oracle.m_transitions(game, members, m) if t in stable]
        if opt <= 0 or not pool:
            with pytest.raises(UndefinedPrice):
                m_posta(game, D, m)
        else:
            assert m_posta(game, D, m) == min(pool) / opt


def _first_extremes(game, members, variant):
    """Witness of every price: the first profile, in member or lexicographic
    order, of least and of greatest welfare (cost under min)."""
    sw = lambda s: sum(game.payoffs[s])
    anarchy, stability = (min, max) if game.convention == "max" else (max, min)
    sets = [(("poa", "pos"), members),
            (("pota", "pots"), oracle.transitions(game, members)),
            (("posta", "posts"), oracle.stable_transitions(game, members, variant))]
    sets += [((f"m_pota[{m}]", f"m_pots[{m}]"), oracle.m_transitions(game, members, m))
             for m in range(1, game.n + 1)]
    out = {"optimum": stability(game.profiles(), key=sw)}
    for (worst, best), profiles in sets:
        out[worst] = anarchy(profiles, key=sw)
        out[best] = stability(profiles, key=sw)
    return out


@settings(max_examples=120, deadline=None)
@given(exact_instances())
def test_array_conditions_match_the_profile_loops(instance):
    # the loops the array passes replaced, kept as the reference
    game = instance[0]
    u = game.signed_utility
    independent = all(
        len({frozenset(oracle._best_set(game, s, i)) for s in game.profiles()}) == 1
        for i in range(game.n)
    )
    assert has_independent_best_responses(game) == independent
    if game.n != 2:
        return
    k1, k2 = game.shape
    sw = lambda x, y: u(0, (x, y)) + u(1, (x, y))
    monotone = all(
        sw(x, y) <= sw(xp, y) or sw(x, y) <= sw(x, yp)
        for x, xp, y, yp in itertools.product(range(k1), range(k1), range(k2), range(k2))
        if u(0, (x, y)) <= u(0, (xp, y)) and u(1, (x, y)) <= u(1, (x, yp))
    )
    assert two_player_pots_condition(game) == monotone


def test_exact_view_switches_to_python_ints_past_2_to_the_62():
    small = Game.from_function((2, 2), lambda s: (F(2**61), F(-(2**61))))
    big = Game.from_function((2, 2), lambda s: (F(2**62), F(s[0])))
    # 1/3 times the lcm 3 * (2**62 + 1) of the denominators passes 2**62
    tiny = Game.from_function((2, 2), lambda s: (F(s[1], 2**62 + 1), F(1, 3)))
    assert small.regret[1].dtype == np.int64
    assert big.regret[1].dtype == object
    assert tiny.regret[0] == 3 * (2**62 + 1)
    assert tiny.regret[1].dtype == object
    # every |U| stays below 2**62, so U and G keep int64, but three players
    # earning 2**62 - 1 each sum past 2**63: the welfare widens to Python ints
    wide = Game.from_function((2, 1, 1), lambda s: (F(2**62 - 1 - s[0]),) * 3)
    assert wide.ints[1].dtype == np.int64
    assert wide.regret[1].dtype == np.int64
    assert wide.welfare.dtype == object
    assert wide.welfare.ravel().tolist() == [3 * (2**62 - 1), 3 * (2**62 - 2)]
    assert Game.from_function((2, 2), lambda s: (F(s[0]), F(-3))).welfare.dtype == np.int64


@settings(max_examples=40, deadline=None)
@given(st.randoms(use_true_random=False))
def test_merge_lemma_on_constant_costs(rng):
    # load-independent prices make merge welfare linear in the loads, the
    # one congestion class among nondecreasing per-user tables where the
    # merge budget bound provably holds
    from transit.congestion import CongestionGame

    n = rng.randint(2, 4)
    cg = random_congestion_game(rng, n, rng.randint(1, 4))
    tables = tuple(
        (F(rng.randint(0, 9)),) * n for _ in range(cg.n_resources)
    )
    cg = CongestionGame(cg.n_players, cg.n_resources, cg.strategies, tables)
    shape = cg.shape()
    profiles = {tuple(rng.randrange(k) for k in shape) for _ in range(rng.randint(1, 3))}
    out = verify_merge_lemma(cg, sorted(profiles))
    assert out["holds"]


@settings(max_examples=60, deadline=None)
@given(
    st.integers(2, 7),
    st.lists(st.sets(st.integers(0, 6), min_size=1), min_size=0, max_size=5),
)
def test_exact_cover_agrees_with_subset_search(n, raw_sets):
    # clip to the universe, drop empties, and append one covering set so
    # the instance is always feasible
    sets = [s & set(range(n)) for s in raw_sets]
    sets = [s for s in sets if s] + [set(range(n))]
    masks = tuple(sum(1 << i for i in s) for s in sets)
    ci = CoverInstance((1 << n) - 1, masks, tuple(range(len(sets))))
    fast = exact_cover(ci)
    got = 0
    for idx in fast:
        got |= masks[idx]
    assert got == ci.universe
    # each set as a 0/1 profile; its optimum is the degree of the all-ones target
    members = [tuple(1 if j in s else 0 for j in range(n)) for s in sets]
    assert len(fast) == oracle.degree(members, (1,) * n)


def test_oracle_imports_nothing_of_the_package_but_the_game_model():
    # the oracle is the independent side of every dual-route check: it may
    # read games through `.games` but must not reuse any analysis module
    tree = ast.parse(Path(oracle.__file__).read_text())
    package = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            if node.level > 0 or (node.module or "").split(".")[0] == "transit":
                package.append(("." * node.level) + (node.module or ""))
        elif isinstance(node, ast.Import):
            package += [a.name for a in node.names if a.name.split(".")[0] == "transit"]
    assert package == [".games"]
