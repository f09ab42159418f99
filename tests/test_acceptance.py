"""Acceptance criteria, one test per criterion, one printed verdict line each.

Two criteria check the corrected form of a closed-form statement and keep
the original statement's failure asserted as a finding; the hand-verified
counterexamples are also pinned as unit tests in tests/test_congestion.py:

* Criterion 4 asserts the verified parallel-link value
  (floor(n/m) m^2 + (n mod m)^2) / n of m-pota.  The stated value
  (m^2 + n - m) / n piles m players onto a single link, but stacking m
  equilibria can overload floor(n/m) links at load m simultaneously; the
  stated value is never above the measured one and differs from it exactly
  at (n, m) in {(4,2), (5,2), (5,3)}
  (test_parallel_link_single_pile_value_not_always_worst).

* Criterion 5 asserts zero merge-budget violations on random congestion
  games whose total costs f(k) = k c(k) are nondecreasing and subadditive,
  the class on which the bound is a theorem.  Subadditive per-user tables
  do not suffice: crowding a resource multiplies its higher price by every
  user (monotone tables (10,15,21)/(3,4,6)/(1,1,1): merge 73 > budget 55,
  test_merge_lemma_pinned_counterexample_monotone_subadditive and
  test_merge_lemma_violations_are_genuine_and_surfaced).
"""

import itertools
import math
import random
from fractions import Fraction

from transit import oracle
from transit.congestion import (
    CongestionGame,
    congestion_to_game,
    has_monotone_subadditive_totals,
    random_congestion_game,
    verify_merge_lemma,
    verify_parallel_link_family,
)
from transit.coordination import (
    check_stable_transition_exact,
    clique_graph,
    construct_st_not_ne,
    cycle_graph,
    efficiency_bounds,
    is_ne_coloring,
    observation5_violations,
    random_forest,
    random_graph,
    stable_transitions,
)
from transit.decomposition import DecompositionCertificate, verify_decomposition_bounds
from transit.efficiency import check_bound_observations, price_report
from transit.fixtures import (
    example2_game,
    matrix2_game,
    matrix6_game,
)
from transit.games import Game, SolutionSet, enumerate_pure_ne
from transit.polymatrix import generate_theorem1_instances, verify_theorem1
from transit.routing import fig1_family, fig2_family, prop4_network, stretch_bound, transition_costs
from transit.transitions import (
    m_transition_set,
    saturation_degree,
    transition_degree,
    transition_set,
)

F = Fraction


def verdict(num: int, ok: bool, text: str) -> None:
    print(f"ACCEPTANCE {num:02d} [{'PASS' if ok else 'FAIL'}] {text}")
    assert ok, f"criterion {num}: {text}"


def test_acceptance_01_matrix2_prices_exact():
    game = matrix2_game(1)
    rep = price_report(game, enumerate_pure_ne(game))
    ok = (
        rep.poa == 1
        and rep.pos == 1
        and rep.pota == 0
        and rep.posta == 0
    )
    verdict(1, ok, "matrix2: poa = pos = 1 and pota = posta = 0, exact rationals")


def test_acceptance_02_example2_prices_exact():
    game = example2_game(30, 1)
    rep = price_report(game, enumerate_pure_ne(game))
    ok = rep.pos == F(1, 10) and rep.pots == 1
    verdict(2, ok, "example2 (a=30, b=1): pos = 1/10 and pots = 1, exact")


def test_acceptance_03_matrix6_closed_form_and_bound():
    game = matrix6_game(4, 3, 2)
    D = enumerate_pure_ne(game)
    rep = price_report(game, D)
    rows = {r.name: r for r in check_bound_observations(game, D)}
    bound = rows["player-dependence-anarchy"]
    ok = (
        rep.pota == F(7, 16)
        and bound.rhs == F(3, 8)
        and bound.holds
        and bound.rhs <= rep.pota
    )
    verdict(3, ok, "matrix6: brute-force pota = 7/16; certified floor 3/8 holds")


def test_acceptance_04_parallel_link_family_stated_closed_form():
    wrong = []
    mismatches = set()
    for n in (3, 4, 5):
        for fam in verify_parallel_link_family(n):
            m = fam["m"]
            q, r = divmod(n, m)
            verified = F(q * m * m + r * r, n)
            m_pota, poa = fam["m_pota"], fam["poa"]
            ok = (
                m_pota == verified == fam["verified_value"]
                and poa == 1
                and m_pota <= m * poa
                and (m_pota == m * poa) == (r == 0)
                and fam["claimed_value"] <= m_pota
            )
            if not ok:
                wrong.append(f"(n={n}, m={m}): measured {m_pota}, verified {verified}")
            if not fam["claimed_matches"]:
                mismatches.add((n, m))
    ok = not wrong and mismatches == {(4, 2), (5, 2), (5, 3)}
    verdict(
        4,
        ok,
        "parallel links, n in {3,4,5}, m in 1..n: m-pota = "
        "(floor(n/m) m^2 + (n mod m)^2)/n exactly, poa = 1, "
        "m-pota <= m poa with equality iff m divides n; the stated "
        "(m^2 + n - m)/n is never above it and differs at "
        f"{sorted(mismatches)}"
        + ("; wrong at " + "; ".join(wrong) if wrong else ""),
    )


def test_acceptance_05_merge_lemma_500_random_games():
    rng = random.Random(20240)
    violations = 0
    outside = 0
    for _ in range(500):
        n = rng.randint(2, 4)
        drawn = random_congestion_game(rng, n, rng.randint(1, 4))
        # each drawn table is read as total costs f(k); users pay f(k) / k
        per_user = tuple(
            tuple(f / k for k, f in enumerate(table, 1)) for table in drawn.costs
        )
        cg = CongestionGame(drawn.n_players, drawn.n_resources,
                            drawn.strategies, per_user)
        if not has_monotone_subadditive_totals(cg):
            outside += 1
        shape = cg.shape()
        profiles = {
            tuple(rng.randrange(k) for k in shape)
            for _ in range(rng.randint(1, 3))
        }
        if not verify_merge_lemma(cg, sorted(profiles))["holds"]:
            violations += 1
    verdict(5, outside == 0 and violations == 0,
            f"merge welfare bound on 500 random congestion games with "
            f"nondecreasing subadditive total costs ({outside} outside the "
            f"class): {violations} violations")


def test_acceptance_06_polymatrix_floor_200_instances():
    rng = random.Random(61)
    checked = 0
    violations = 0
    histogram = {}
    for pg, D in generate_theorem1_instances(rng, 200):
        checked += 1
        histogram[len(D.members)] = histogram.get(len(D.members), 0) + 1
        for out in verify_theorem1(pg, D, (1, 2, 3)):
            if not out["holds"]:
                violations += 1
    ok = checked >= 200 and violations == 0
    verdict(6, ok,
            f"m-posta >= poa/m on {checked} generated symmetric regular "
            f"instances, m in {{1,2,3}} ({violations} violations; "
            f"|D| histogram {histogram})")


def test_acceptance_07_fig1_flows_and_prices():
    ok = True
    details = []
    for n in (2, 3, 5):
        inst = fig1_family(n)
        out = transition_costs(inst, tol=1e-10)
        flows = out["equilibrium"].edge_flows()
        flow_err = max(abs(f - 1.0 / n) for f in flows)
        cost_err = abs(out["equilibrium_cost"] - 1.0 / n)
        pota_err = abs(out["pota"] - n)
        pots_err = abs(out["pots"] - 1.0)
        ok &= flow_err < 1e-8 and cost_err < 1e-8
        ok &= pota_err < 1e-6 and pots_err < 1e-6
        details.append(f"n={n}: flow_err={flow_err:.2e} pota_err={pota_err:.2e}")
    verdict(7, ok, "parallel x-links: flows 1/n, cost 1/n, pota = n, pots = 1 ("
            + "; ".join(details) + ")")


def test_acceptance_08_stretch_bound_and_trend():
    gaps = []
    ok = True
    for delta in (0.1, 0.01):
        inst = fig2_family(4, 2, delta)
        sb = stretch_bound(inst, transition_costs(inst, tol=1e-10))
        ok &= sb["holds"]
        gaps.append(sb["cap"] - sb["ratio"])
    ok &= gaps[1] < gaps[0]
    verdict(8, ok,
            f"shared-top-link family: ratio <= cap at both spreads and the "
            f"gap shrinks ({gaps[0]:.4f} -> {gaps[1]:.4f})")


def test_acceptance_09_prop4_pots_one():
    out = transition_costs(prop4_network(), tol=1e-10)
    err = abs(out["pots"] - 1.0)
    verdict(9, err < 1e-6,
            f"equal-intercept disjoint links: pots = 1 (err {err:.2e})")


def test_acceptance_10_coordination_corpus():
    rng = random.Random(907)
    bound_violations = 0
    floor_violations = 0
    checked = 0
    # full sweep over every graph on up to 4 nodes
    for n in (2, 3, 4):
        pairs = list(itertools.combinations(range(n), 2))
        for picks in itertools.chain.from_iterable(
            itertools.combinations(pairs, k) for k in range(1, len(pairs) + 1)
        ):
            from transit.coordination import GraphColoringInstance

            inst = GraphColoringInstance(n, tuple(picks))
            out = efficiency_bounds(inst)
            bound_violations += 0 if out["poa_holds"] and out["posta_holds"] else 1
            checked += 1
    # a thousand random graphs up to 12 nodes
    while checked < 1000 + 41:
        n = rng.randint(3, 12)
        inst = random_graph(rng, n, rng.uniform(0.2, 0.8))
        if not inst.edges:
            continue
        out = efficiency_bounds(inst)
        bound_violations += 0 if out["poa_holds"] and out["posta_holds"] else 1
        checked += 1
    # threshold floors against the exact stability notion on a subsample
    for _ in range(120):
        inst = random_graph(rng, rng.randint(2, 8), rng.uniform(0.2, 0.8))
        v = observation5_violations(inst)
        floor_violations += len(v["stable"]) + len(v["equilibria"])
    # the even 4-cycle attains both extremes exactly
    c4 = efficiency_bounds(cycle_graph(4))
    attained = c4["posta"] == c4["posta_bound"] == 0 and c4["poa"] == F(1, 2)
    ok = bound_violations == 0 and floor_violations == 0 and attained
    verdict(10, ok,
            f"coordination bounds and floors over {checked} graphs "
            f"({bound_violations} bound, {floor_violations} floor violations); "
            f"C4 attains posta = 0 and poa = 1/2")


def test_acceptance_11_constructions_and_odd_clique_emptiness():
    ok = True
    for n in range(4, 9):
        inst = cycle_graph(n)
        col = construct_st_not_ne(inst, "cycle")
        ok &= col is not None and check_stable_transition_exact(inst, col) \
            and not is_ne_coloring(inst, col)
    for n in (4, 6):
        inst = clique_graph(n)
        col = construct_st_not_ne(inst, "clique")
        ok &= col is not None and check_stable_transition_exact(inst, col) \
            and not is_ne_coloring(inst, col)
    for n in (3, 5):
        inst = clique_graph(n)
        ok &= construct_st_not_ne(inst, "clique") is None
        leftovers = [
            c for c in stable_transitions(inst) if not is_ne_coloring(inst, c)
        ]
        ok &= leftovers == []
    rng = random.Random(115)
    forests = 0
    while forests < 50:
        inst = random_forest(rng, rng.randint(2, 12))
        col = construct_st_not_ne(inst, "forest")
        if col is None:
            assert not inst.edges
            continue
        ok &= check_stable_transition_exact(inst, col) and not is_ne_coloring(
            inst, col
        )
        forests += 1
    verdict(11, ok,
            "C4..C8, K4, K6 and 50 random forests verified; K3, K5 have no "
            "stable non-equilibria")


def test_acceptance_12_degree_algorithms_300_instances():
    rng = random.Random(1212)
    ok = True
    for _ in range(300):
        n = rng.randint(2, 5)
        k = rng.randint(2, 3)
        game = Game.from_function((k,) * n, lambda s: (F(0),) * n)
        pool = list(game.profiles())
        members = tuple(sorted(rng.sample(pool, rng.randint(1, min(6, len(pool))))))
        D = SolutionSet(game, members)
        t = rng.choice(list(transition_set(D)))
        exact = transition_degree(D, t, "exact")
        ok &= exact.degree == oracle.degree(list(members), t)
        greedy = transition_degree(D, t, "greedy")
        ok &= exact.degree <= greedy.degree <= (1 + math.log(n)) * exact.degree
        sat = saturation_degree(D)
        shuffles = set()
        order = list(members)
        for _ in range(10):
            rng.shuffle(order)
            shuffles.add(saturation_degree(SolutionSet(game, tuple(order))).m)
        ok &= shuffles == {sat.m}
        full = set(transition_set(D))
        ok &= set(m_transition_set(D, sat.m)) == full
        if sat.m >= 2:
            ok &= set(m_transition_set(D, sat.m - 1)) < full
        if not ok:
            break
    verdict(12, ok,
            "300 instances: exact degree = subset-search oracle, greedy within "
            "1 + ln(n), saturation m order-invariant and minimal")


def test_acceptance_13_decomposition_verifier():
    from transit.congestion import CongestionGame

    cg = CongestionGame.build(
        strategies=[[[0], [1]], [[0], [1]]],
        costs=[[1, 2], [1, 2]],
    )
    P = congestion_to_game(cg, "max")

    def perturbed(scale):
        def res(s):
            sign = F(1) if s[0] == s[1] else F(-1)
            return (sign * scale, -sign * scale)

        return Game.from_function(
            P.shape, lambda s: tuple(P.payoffs[s][i] + res(s)[i] for i in range(2))
        )

    G = perturbed(F(1, 10))
    out = verify_decomposition_bounds(
        DecompositionCertificate(G, P), m=2, congestion=cg
    )
    perturbed_ok = out["holds"] and out["epsilon"] == F(1, 10)

    ident = verify_decomposition_bounds(DecompositionCertificate(P, P), m=2)
    identity_ok = (
        ident["epsilon"] == 0
        and ident["alphas_searched"]["alpha_ne"] == 1
        and all(r["lhs"] == r["rhs"] for r in ident["rows"])
    )
    verdict(13, perturbed_ok and identity_ok,
            "decomposition certificate: perturbed bounds hold with searched "
            "alpha; identity gives alpha = 1 with exact equality")
