"""Tests of the benchmark's checkers, references and trace arithmetic.

    python3 -m pytest perfbench

Each checker must pass the program's real output and reject a deliberately
wrong one.
"""

from __future__ import annotations

import copy
import json
import random
import sys
from fractions import Fraction
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import checks  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from spans import Tracer, summarise  # noqa: E402
from transit import cli, oracle  # noqa: E402
from transit import io as tio  # noqa: E402
from transit.congestion import CongestionGame, congestion_to_game  # noqa: E402
from transit.coordination import coordination_to_game, cycle_graph, star_graph  # noqa: E402
from transit.fixtures import REGISTRY  # noqa: E402
from transit.games import Game  # noqa: E402
from workloads import Op  # noqa: E402


def outcome(op):
    return run.call(cli, op.argv)


def rejects(op, status, doc, err="") -> bool:
    return bool(checks.check(op, status, json.dumps(doc), err, {}))


def accepted(op):
    status, out, err = outcome(op)
    assert checks.check(op, status, out, err, {}) == []
    return status, json.loads(out), err


def write(tmp_path, name, doc) -> str:
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


# -- trace arithmetic ---------------------------------------------------------


def test_summarise_self_and_inclusive_time_on_a_span_tree():
    #   0 cli.main [0, 10]
    #     1 a [1, 6]
    #       2 b [2, 3]
    #       3 b [4, 5.5]
    #         4 a [4.2, 5]      nested a: not counted again in a's inclusive time
    #     5 c [7, 9]
    #   6 a [11, 12]            outside any operation
    names = ["cli.main", "a", "b", "b", "a", "c", "a"]
    parents = [-1, 0, 1, 1, 3, 0, -1]
    starts = [0, 1, 2, 4, 4.2, 7, 11]
    ends = [10, 6, 3, 5.5, 5, 9, 12]
    out = summarise(names, parents, starts, ends)
    assert out["a"]["calls"] == 3 and out["a"]["op_calls"] == 2
    assert out["a"]["s"] == pytest.approx(5 + 1)
    assert out["a"]["self_s"] == pytest.approx((5 - 1 - 1.5) + 0.8 + 1)
    assert out["b"]["s"] == pytest.approx(2.5)
    assert out["b"]["self_s"] == pytest.approx(1 + (1.5 - 0.8))
    assert out["c"]["self_s"] == pytest.approx(2)
    assert out["cli.main"]["self_s"] == pytest.approx(10 - 5 - 2)
    assert out["cli.main"]["op_calls"] == 0


def test_tracer_sees_calls_made_through_every_lookup_and_restores_them():
    import transit.transitions as transitions

    original = transitions.degree_map
    tracer = Tracer()
    tracer.install()
    try:
        assert run.call(cli, ["bounds", "matrix6", "--ne"])[0] == 0
    finally:
        tracer.uninstall()
    assert transitions.degree_map is original
    summary = tracer.summary()
    # price_report, coordination_dependence and extensive_smoothness each
    # build the degree map, and cmd_bounds calls price_report once more
    # for two-player games
    assert summary["transitions.degree_map"]["op_calls"] == 4
    assert summary["efficiency.price_report"]["calls"] == 2
    assert summary["cli.main"]["calls"] == 1
    assert summary["reporting.render"]["calls"] == 1
    assert summary["degrees.exact_cover"]["calls"] > 0


def test_tail_percentile_leaves_ten_operations_above_it():
    for n in range(40, 200):
        values = list(range(n))
        pct = run.tail_percentile(n)
        assert sum(v > run.nearest_rank(values, pct) for v in values) >= 10
        assert sum(v > run.nearest_rank(values, pct + 1) for v in values) < 10


def test_nominal_time_scales_by_the_probes_around_it():
    ref = run.REFERENCE_PROBE_S
    assert run.nominal(0.3, ref, ref) == pytest.approx(0.3)
    # a host at half speed: the probes and the operation both take twice as long
    assert run.nominal(0.6, 2 * ref, 2 * ref) == pytest.approx(0.3)
    assert run.nominal(0.45, ref, 2 * ref) == pytest.approx(0.3)
    assert run.probe() == run.probe()


def test_every_run_has_at_least_forty_operations(tmp_path):
    for name, build in workloads.WORKLOADS.items():
        work = tmp_path / name
        work.mkdir()
        assert workloads.MIN_ROUNDS * len(build(1, work)) >= 40


# -- references -----------------------------------------------------------------


def test_reference_prices_and_cover_degree_match_the_oracle():
    rng = random.Random(7)
    for _ in range(12):
        shape = tuple(rng.randint(2, 3) for _ in range(3))
        game = Game.from_function(shape, lambda s: tuple(rng.randint(0, 4) for _ in s))
        members = oracle.ne_profiles(game) or [next(iter(game.profiles()))]
        for t in oracle.transitions(game, members):
            assert checks.cover_degree(members, t) == oracle.degree(members, t)
        for variant in ("strict", "weak"):
            assert checks.reference_prices(game, members, variant) == \
                oracle.prices(game, members, variant)


def test_coordination_sweep_matches_the_oracle_on_the_dense_game():
    for inst in (cycle_graph(5), cycle_graph(6), star_graph(5)):
        adj = inst.neighbors()
        game = coordination_to_game(inst)
        ref = oracle.prices(game, oracle.ne_profiles(game))
        assert checks.coordination_sweep(adj, len(inst.edges)) == (ref["poa"], ref["posta"])


def test_planted_games_have_exactly_the_planted_equilibria():
    from transit.games import enumerate_pure_ne

    for seed in (1, 2):
        rng = random.Random(seed)
        func, planted = workloads.planted_payoffs(rng, (3, 4, 5), workloads.diagonal_code(3, 3))
        game = Game.from_function((3, 4, 5), func)
        assert sorted(enumerate_pure_ne(game).members) == sorted(planted)


# -- checkers -------------------------------------------------------------------


@pytest.fixture
def links_game(tmp_path):
    menu = tuple(frozenset([j]) for j in range(3))
    tables = ((Fraction(2), Fraction(5), Fraction(9)),) * 3
    game = congestion_to_game(CongestionGame(3, 3, (menu,) * 3, tables))
    return game, write(tmp_path, "links.json", tio.game_to_dict(game))


@pytest.mark.parametrize("reference", ["oracle", "own"])
def test_prices_checker_rejects_a_perturbed_price(links_game, reference):
    game, path = links_game
    op = Op(["prices", path, "--ne"], "prices", {
        "game": game, "variant": "strict", "reference": reference,
        "closed_form": None})
    status, doc, _ = accepted(op)
    for key in ("pota", "posta"):
        wrong = copy.deepcopy(doc)
        wrong["results"][key]["exact"] = str(Fraction(wrong["results"][key]["exact"]) + 1)
        assert rejects(op, status, wrong)
    wrong = copy.deepcopy(doc)
    wrong["results"]["m_pota"][1]["exact"] = "7/2"
    assert rejects(op, status, wrong)


def test_saturate_and_theorem_checkers_reject_wrong_reports(links_game, tmp_path):
    game, path = links_game
    members = oracle.ne_profiles(game)
    spath = write(tmp_path, "links.ne.json",
                  {"game": "links.json", "members": [list(m) for m in members]})
    op = Op(["degree", path, spath, "--saturate"], "saturate", {"members": members})
    status, doc, _ = accepted(op)
    doc["results"]["m"] -= 1
    assert rejects(op, status, doc)

    op = Op(["theorem", "2", "--n", "4"], "theorem2", {"n": 4}, status=1)
    status, doc, err = accepted(op)
    assert rejects(op, 0, doc, err)
    wrong = copy.deepcopy(doc)
    wrong["results"]["rows"][1]["m_pota"]["exact"] = "3/2"
    assert rejects(op, status, wrong, err)
    wrong = copy.deepcopy(doc)
    wrong["findings"] = []
    assert rejects(op, status, wrong, err)


def test_bounds_checker_rejects_a_flipped_verdict_and_a_wrong_price(tmp_path):
    rng = random.Random(3)
    func, _ = workloads.planted_payoffs(rng, (3, 3, 3), workloads.mod3_code())
    game = Game.from_function((3, 3, 3), func)
    path = write(tmp_path, "planted.json", tio.game_to_dict(game))
    op = Op(["bounds", path, "--ne"], "bounds", {"game": game})
    status, doc, _ = accepted(op)
    rows = [k for k, row in enumerate(doc["results"]["rows"]) if not row["skipped"]]
    assert rows
    flipped = copy.deepcopy(doc)
    flipped["results"]["rows"][rows[0]]["holds"] = False
    assert rejects(op, status, flipped)
    perturbed = copy.deepcopy(doc)
    lhs = perturbed["results"]["rows"][rows[0]]["lhs"]
    lhs["exact"] = str(Fraction(lhs["exact"]) * 2)
    assert rejects(op, status, perturbed)
    smooth = copy.deepcopy(doc)
    smooth["results"]["smoothness"]["best_bound"] = smooth["results"]["smoothness"]["pota"]
    smooth["results"]["smoothness"]["best_bound"]["exact"] = "100"
    assert rejects(op, status, smooth)


@pytest.mark.parametrize("network", ["fig2-4x2", "pigou-pair"])
def test_routing_checker_rejects_a_wrong_worst_vertex_cost(tmp_path, network):
    path = write(tmp_path, f"{network}.json", REGISTRY[network].instance_dict())
    op = Op(["routing", "analyze", path], "routing", {"network": path})
    status, doc, _ = accepted(op)
    doc["results"]["worst_transition_cost"] *= 1.001
    assert rejects(op, status, doc)


def test_routing_checker_holds_fig1_to_its_closed_forms(tmp_path):
    from transit.routing import fig1_family

    path = write(tmp_path, "fig1.json", tio.routing_to_dict(fig1_family(4, 1.5)))
    op = Op(["routing", "analyze", path], "routing",
            {"network": path, "fig1": (4, 1.5), "vertices": 4})
    status, doc, _ = accepted(op)
    wrong = Op(op.argv, "routing", {"network": path, "fig1": (4, 1.4), "vertices": 4})
    assert rejects(wrong, status, doc)


def test_graph_checkers_reject_a_wrong_posta_and_an_equilibrium_colouring(tmp_path):
    for name, inst in (("cycle-6", cycle_graph(6)), ("cycle-11", cycle_graph(11))):
        path = write(tmp_path, f"{name}.json", tio.graph_to_dict(inst))
        op = Op(["graph", "bounds", path], "graph_bounds", {"graph": path})
        status, doc, _ = accepted(op)
        doc["results"]["posta"]["exact"] = str(Fraction(doc["results"]["posta"]["exact"]) + Fraction(1, 12))
        assert rejects(op, status, doc)

        op = Op(["graph", "construct", path, "--topology", "cycle"], "graph_construct",
                {"graph": path})
        status, doc, _ = accepted(op)
        doc["results"]["coloring"] = [1] * inst.n_nodes
        assert rejects(op, status, doc)


def test_coloring_status_follows_the_definitions():
    adj = cycle_graph(4).neighbors()
    # alternating: nobody best responds, each neighbour's flip repairs
    assert checks.coloring_status(adj, (1, 2, 1, 2)) == (True, False, 0)
    assert checks.coloring_status(adj, (1, 1, 1, 1)) == (True, True, 8)
    path = [[1], [0, 2], [1]]
    # end node 0 off its best colour; its only neighbour best responds
    assert checks.coloring_status(path, (2, 1, 1))[0] is False
    assert checks.coloring_status(path, (2, 1, 1), "weak")[0] is True
