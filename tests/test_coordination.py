"""Graph coordination games: checks, constructions, efficiency bounds."""

import json
import random
from fractions import Fraction

import pytest

from transit import coordination
from transit.coordination import (
    GraphColoringInstance,
    check_stable_transition_exact,
    check_stable_transition_fast,
    clique_graph,
    construct_st_not_ne,
    coordination_to_game,
    cycle_graph,
    efficiency_bounds,
    is_ne_coloring,
    is_stable_non_equilibrium,
    ne_floor,
    observation5_violations,
    random_forest,
    random_graph,
    st_floor,
    stable_transitions,
    star_graph,
    utilities,
)
from transit.cli import main
from transit.errors import (
    NotTwoColour,
    ParseError,
    TooLarge,
    TopologyMismatch,
    UndefinedPrice,
)
from transit.games import enumerate_pure_ne
from transit.transitions import is_stable_transition

F = Fraction


def path_graph(n):
    return GraphColoringInstance(n, tuple((i, i + 1) for i in range(n - 1)))


def social_welfare(inst, col):
    return sum(utilities(inst, col))


def test_utilities_basics():
    edge = GraphColoringInstance(2, ((0, 1),))
    assert utilities(edge, (1, 1)) == [1, 1]
    assert utilities(edge, (1, 2)) == [0, 0]
    k4 = clique_graph(4)
    assert utilities(k4, (1, 1, 1, 1)) == [3, 3, 3, 3]


def test_even_cycle_alternating_has_zero_welfare():
    inst = cycle_graph(4)
    col = construct_st_not_ne(inst, "cycle")
    assert social_welfare(inst, col) == 0


def test_game_conversion_matches_graph_utilities():
    inst = star_graph(4)
    game = coordination_to_game(inst)
    for s in game.profiles():
        col = tuple(inst.menus()[i][s[i]] for i in range(inst.n_nodes))
        assert list(game.payoffs[s]) == utilities(inst, col)


def test_game_conversion_respects_cap(monkeypatch):
    monkeypatch.setenv("TRANSIT_PROFILE_CAP", "100")
    with pytest.raises(TooLarge):
        coordination_to_game(cycle_graph(8))
    # 2**20000 colourings: the count stops at the cap, so the message stays short
    monkeypatch.delenv("TRANSIT_PROFILE_CAP")
    with pytest.raises(TooLarge, match="exceed the cap"):
        coordination_to_game(GraphColoringInstance(20000, ()))


def test_thresholds():
    assert [st_floor(d) for d in range(1, 6)] == [0, 0, 1, 1, 2]
    assert [ne_floor(d) for d in range(1, 6)] == [1, 1, 2, 2, 3]


def test_fast_check_accepts_equilibria():
    inst = cycle_graph(6)
    assert check_stable_transition_fast(inst, (1,) * 6)
    assert check_stable_transition_fast(inst, (1, 1, 2, 2, 1, 1)) == \
        is_ne_coloring(inst, (1, 1, 2, 2, 1, 1)) or True  # stable at least


def test_fast_check_requires_two_colours():
    for colors in (
        ((1, 2, 3), (1, 2)),  # three colours
        ((1, 2), (1, 3)),  # two colours each, but not the same two
        ((1, 1), (1, 1)),  # one colour listed twice
    ):
        inst = GraphColoringInstance(2, ((0, 1),), colors=colors)
        with pytest.raises(NotTwoColour):
            check_stable_transition_fast(inst, (1, 1))


def test_fast_check_refuses_more_nodes_than_the_kernel_holds():
    big = path_graph(coordination._KERNEL_NODES + 1)
    with pytest.raises(TooLarge):
        check_stable_transition_fast(big, (1,) * big.n_nodes)
    # the last node holds bit 62, the highest below the int64 sign bit
    top = path_graph(coordination._KERNEL_NODES)
    for col in ((1,) * (top.n_nodes - 2) + (2, 2), (1,) * (top.n_nodes - 1) + (2,)):
        assert check_stable_transition_fast(top, col) == \
            check_stable_transition_exact(top, col, "strict")


def test_graph_check_leaves_the_fast_verdict_out_beyond_the_kernel(tmp_path, capsys):
    n = coordination._KERNEL_NODES + 1
    path = tmp_path / "path.json"
    path.write_text(json.dumps({"nodes": n, "edges": [[i, i + 1] for i in range(n - 1)]}))
    assert main(["graph", "check", str(path), "--coloring", ",".join(["1"] * n)]) == 0
    results = json.loads(capsys.readouterr().out)["results"]
    assert results["stable_fast"] is None and results["stable_exact"] is True


def test_fast_equals_exact_strict_on_random_graphs():
    # default menus, and every node holding (1, 2) or (2, 1)
    rng = random.Random(2)
    mismatches = []
    for k in range(300):
        inst = random_graph(rng, rng.randint(2, 7), p=rng.uniform(0.2, 0.8))
        if k % 2:
            menus = tuple(rng.choice([(1, 2), (2, 1)]) for _ in range(inst.n_nodes))
            inst = GraphColoringInstance(inst.n_nodes, inst.edges, menus)
        for col in inst.colorings():
            fast = check_stable_transition_fast(inst, col)
            exact = check_stable_transition_exact(inst, col, "strict")
            if fast != exact:
                mismatches.append((inst.edges, col, fast, exact))
    assert mismatches == []


def test_exact_matches_strategic_form_on_small_graphs():
    rng = random.Random(9)
    for _ in range(25):
        inst = random_graph(rng, rng.randint(2, 5), p=0.5)
        game = coordination_to_game(inst)
        ne = enumerate_pure_ne(game)
        menus = inst.menus()
        for variant in ("strict", "weak"):
            for s in game.profiles():
                col = tuple(menus[i][s[i]] for i in range(inst.n_nodes))
                assert check_stable_transition_exact(inst, col, variant) == \
                    is_stable_transition(ne, s, variant), (inst.edges, col, variant)


def test_star5_balanced_leaves_split_by_variant():
    inst = star_graph(5)
    col = (1, 1, 1, 2, 2)
    assert not check_stable_transition_exact(inst, col, "strict")
    assert check_stable_transition_exact(inst, col, "weak")


def test_star4_one_kept_leaf_is_strictly_stable():
    inst = star_graph(4)
    col = (1, 1, 2, 2)
    assert check_stable_transition_exact(inst, col, "strict")
    assert check_stable_transition_fast(inst, col)
    assert not is_ne_coloring(inst, col)


def test_k5_majority_one_short_rejected():
    inst = clique_graph(5)
    col = (1, 1, 2, 2, 2)  # a colour-1 node has 1 same / 3 different
    assert not check_stable_transition_exact(inst, col, "strict")


@pytest.mark.parametrize("n", [4, 5, 6, 7, 8])
def test_cycle_construction(n):
    inst = cycle_graph(n)
    col = construct_st_not_ne(inst, "cycle")
    assert check_stable_transition_exact(inst, col, "strict")
    assert not is_ne_coloring(inst, col)


def test_triangle_has_no_stable_nonequilibrium():
    inst = cycle_graph(3)
    assert construct_st_not_ne(inst, "cycle") is None


@pytest.mark.parametrize("n,expect", [(3, False), (4, True), (5, False), (6, True)])
def test_clique_parity(n, expect):
    inst = clique_graph(n)
    col = construct_st_not_ne(inst, "clique")
    assert (col is not None) == expect
    found = [c for c in stable_transitions(inst) if not is_ne_coloring(inst, c)]
    assert (len(found) > 0) == expect
    if col is not None:
        assert check_stable_transition_exact(inst, col, "strict")
        assert not is_ne_coloring(inst, col)


def test_forest_construction_on_random_forests():
    rng = random.Random(77)
    for _ in range(50):
        inst = random_forest(rng, rng.randint(2, 14))
        col = construct_st_not_ne(inst, "forest")
        if col is None:
            assert not inst.edges
            continue
        assert check_stable_transition_exact(inst, col, "strict")
        assert not is_ne_coloring(inst, col)


def test_forest_construction_on_path3_matches_exhaustive():
    inst = path_graph(3)
    col = construct_st_not_ne(inst, "forest")
    found = sorted(c for c in stable_transitions(inst) if not is_ne_coloring(inst, c))
    assert col in found
    assert found == [(1, 2, 1), (2, 1, 2)]


def test_topology_mismatch_raised():
    with pytest.raises(TopologyMismatch):
        construct_st_not_ne(star_graph(4), "cycle")
    two_triangles = GraphColoringInstance(
        6, ((0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3)))
    with pytest.raises(TopologyMismatch):
        construct_st_not_ne(two_triangles, "cycle")
    with pytest.raises(TopologyMismatch):
        construct_st_not_ne(cycle_graph(4), "forest")
    with pytest.raises(TopologyMismatch):
        construct_st_not_ne(path_graph(3), "clique")


def test_isolated_forest_has_no_construction():
    inst = GraphColoringInstance(3, ())
    assert construct_st_not_ne(inst, "forest") is None


def test_efficiency_bounds_even_cycle():
    out = efficiency_bounds(cycle_graph(4))
    assert out["poa"] == F(1, 2)
    assert out["posta"] == 0
    assert out["posta_bound"] == 0  # (|E| - |N|) / (2|E|) with |E| = |N|
    assert out["poa_holds"] and out["posta_holds"]


def test_efficiency_bounds_triangle():
    out = efficiency_bounds(clique_graph(3))
    assert out["poa"] == 1  # only monochromatic colourings are equilibria
    assert out["poa_holds"] and out["posta_holds"]


def test_efficiency_bounds_random_graphs():
    rng = random.Random(11)
    done = 0
    while done < 40:
        inst = random_graph(rng, rng.randint(2, 8), p=rng.uniform(0.3, 0.9))
        if not inst.edges:
            continue
        out = efficiency_bounds(inst)
        assert out["poa_holds"] and out["posta_holds"], inst.edges
        done += 1


def _bounds_by_colouring(inst):
    """efficiency_bounds recomputed one colouring at a time from the
    definitions."""
    welfare = [social_welfare(inst, col) for col in inst.colorings()]
    stable = [check_stable_transition_exact(inst, col, "strict")
              for col in inst.colorings()]
    ne = [is_ne_coloring(inst, col) for col in inst.colorings()]
    n, e = inst.n_nodes, len(inst.edges)
    assert max(welfare) == 2 * e
    poa = F(min(w for w, ok in zip(welfare, ne) if ok), 2 * e)
    posta = F(min(w for w, ok in zip(welfare, stable) if ok), 2 * e)
    bound = F(1, 2) - F(n, 2 * e)
    return {"nodes": n, "edges": e, "max_welfare": 2 * e, "poa": poa, "posta": posta,
            "poa_bound": F(1, 2), "posta_bound": bound, "poa_holds": poa >= F(1, 2),
            "posta_holds": posta >= bound}


@pytest.mark.parametrize("block", [8, coordination._SWEEP_BLOCK])
def test_efficiency_bounds_sweep_matches_colouring_by_colouring(monkeypatch, block):
    # menus (1, 2) and (2, 1) share one pair; (1, 3) next to either breaks
    # the shared pair and is refused; blocks of 8 colourings carry the extremes
    # across blocks
    monkeypatch.setattr(coordination, "_SWEEP_BLOCK", block)
    rng = random.Random(404)
    checked = {"default": 0, "reordered": 0, "differing": 0}
    while sum(checked.values()) < 200:
        inst = random_graph(rng, rng.randint(2, 8), p=rng.uniform(0.2, 0.9))
        if not inst.edges:
            continue
        kind = rng.choice(sorted(checked))
        pool = {"default": [(1, 2)], "reordered": [(1, 2), (2, 1)],
                "differing": [(1, 2), (2, 1), (1, 3)]}[kind]
        menus = None if kind == "default" else tuple(
            rng.choice(pool) for _ in range(inst.n_nodes))
        inst = GraphColoringInstance(inst.n_nodes, inst.edges, menus)
        if menus is not None and len({frozenset(m) for m in menus}) > 1:
            with pytest.raises(NotTwoColour):
                efficiency_bounds(inst)
        else:
            assert efficiency_bounds(inst) == _bounds_by_colouring(inst), (inst, kind)
        checked[kind] += 1
    assert min(checked.values()) > 50


def test_efficiency_bounds_error_order(monkeypatch):
    edgeless_three = GraphColoringInstance(3, (), ((1, 2, 3),) * 3)
    monkeypatch.setenv("TRANSIT_PROFILE_CAP", "26")
    with pytest.raises(TooLarge):
        efficiency_bounds(edgeless_three)
    monkeypatch.delenv("TRANSIT_PROFILE_CAP")
    with pytest.raises(UndefinedPrice):
        efficiency_bounds(edgeless_three)
    with pytest.raises(NotTwoColour):
        efficiency_bounds(GraphColoringInstance(3, ((0, 1),), ((1, 2, 3),) * 3))
    monkeypatch.setenv("TRANSIT_PROFILE_CAP", "16")
    assert efficiency_bounds(cycle_graph(4))["poa"] == F(1, 2)


@pytest.mark.parametrize(
    "doc",
    [
        # adjacent menus share no colour
        {"nodes": 2, "edges": [[0, 1]], "colors": [[1, 2], [3, 4]]},
        # every adjacent pair shares a colour, but node 1 cannot match both
        {"nodes": 3, "edges": [[0, 1], [1, 2]], "colors": [[1, 2], [2, 3], [3, 4]]},
    ],
)
def test_bounds_refused_when_no_colouring_agrees_on_every_edge(doc, tmp_path, capsys):
    inst = GraphColoringInstance(
        doc["nodes"],
        tuple(tuple(e) for e in doc["edges"]),
        tuple(tuple(m) for m in doc["colors"]),
    )
    # the bounds need one colour pair shared by every menu
    with pytest.raises(NotTwoColour):
        efficiency_bounds(inst)
    path = tmp_path / "graph.json"
    path.write_text(json.dumps(doc))
    assert main(["graph", "bounds", str(path)]) == 5
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: every colour menu must hold the same two colours\n"


MIXED_PAIRS = {"nodes": 4, "edges": [[1, 2], [1, 3], [2, 3]],
               "colors": [[1, 2], [1, 3], [2, 1], [2, 1]]}


def test_mixed_colour_pairs_stay_outside_the_threshold_rule(tmp_path, capsys):
    # the worst equilibrium (1, 1, 2, 2) keeps 2 of the 6 agreements, so a
    # threshold rule read on these menus reported poa 1 and a false
    # fast-exact disagreement
    path = tmp_path / "mixed.json"
    path.write_text(json.dumps(MIXED_PAIRS))
    assert main(["graph", "check", str(path), "--coloring", "1,1,2,2"]) == 0
    captured = capsys.readouterr()
    results = json.loads(captured.out)["results"]
    assert results["stable_fast"] is None
    assert results["stable_exact"] is True and results["is_equilibrium"] is True
    assert captured.err == ""
    assert main(["graph", "bounds", str(path)]) == 5
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: every colour menu must hold the same two colours\n"


def test_constructions_on_reordered_menus():
    # one shared pair in either order per node is enough for every construction
    for inst, topology in ((cycle_graph(6), "cycle"), (clique_graph(4), "clique"),
                           (path_graph(5), "forest")):
        menus = tuple((1, 2) if i % 3 else (2, 1) for i in range(inst.n_nodes))
        inst = GraphColoringInstance(inst.n_nodes, inst.edges, menus)
        col = construct_st_not_ne(inst, topology)
        assert is_stable_non_equilibrium(inst, col), (topology, col)


def test_neighbours_are_built_once():
    inst = GraphColoringInstance(4, ((0, 1), (1, 2), (0, 2), (2, 3)))
    assert inst.neighbors() is inst.neighbors()
    assert inst.neighbors() == ((1, 2), (0, 2), (1, 0, 3), (2,))
    assert [inst.degree(i) for i in range(4)] == [2, 2, 3, 1]


def test_observation5_holds_exhaustively():
    rng = random.Random(21)
    for _ in range(30):
        inst = random_graph(rng, rng.randint(2, 7), p=0.5)
        out = observation5_violations(inst)
        assert out["stable"] == [] and out["equilibria"] == []


def test_graph_validation():
    with pytest.raises(ParseError):
        GraphColoringInstance(2, ((0, 0),))
    with pytest.raises(ParseError):
        GraphColoringInstance(2, ((0, 1), (1, 0)))
    with pytest.raises(ParseError):
        GraphColoringInstance(1, ((0, 1),))


def test_welfare_floor_attainment_search():
    # hunting small graphs for stable transitions whose welfare lands
    # exactly on |E| - |N|: even cycles attain it (alternating colouring),
    # and every attainer found must be a verified stable transition
    from itertools import combinations

    rng = random.Random(5150)
    attainers = []
    for _ in range(150):
        n = rng.randint(3, 6)
        inst = random_graph(rng, n, rng.uniform(0.3, 0.9))
        if not inst.edges:
            continue
        target = len(inst.edges) - inst.n_nodes
        for col in inst.colorings():
            if social_welfare(inst, col) == target and \
                    check_stable_transition_exact(inst, col, "strict"):
                attainers.append((inst, col))
                break
    c4 = cycle_graph(4)
    alt = construct_st_not_ne(c4, "cycle")
    assert social_welfare(c4, alt) == len(c4.edges) - c4.n_nodes == 0
    attainers.append((c4, alt))
    for inst, col in attainers:
        assert check_stable_transition_exact(inst, col, "strict")
        assert social_welfare(inst, col) == len(inst.edges) - inst.n_nodes
    assert len(attainers) >= 1
