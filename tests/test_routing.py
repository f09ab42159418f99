"""Equilibrium flows, transition flows, stretch bound, instance families."""

import math

import numpy as np
import pytest

from transit import routing
from transit.cli import main
from transit.errors import BadParams, ParseError
from transit.fixtures import REGISTRY
from transit.routing import (
    Commodity,
    Flow,
    PolyCost,
    PwlCost,
    RoutingInstance,
    cost_from_spec,
    equilibrium_flow,
    fig1_family,
    fig2_family,
    generate_family,
    is_transition_flow,
    min_cost_flow,
    pigou_pair,
    prop4_network,
    stretch_bound,
    supported_paths,
    transition_costs,
)


def test_poly_cost_eval_and_marginal():
    c = PolyCost((1.0, 2.0, 3.0))  # 1 + 2x + 3x^2
    assert c(2.0) == 17.0
    # d/dx x*c(x) = c(x) + x c'(x) = 17 + 2*(2 + 12) = 45
    assert c.marginal(2.0) == pytest.approx(45.0)


def test_pwl_cost_interpolation_and_validation():
    c = PwlCost(((0.0, 1.0), (1.0, 3.0)))
    assert c(0.5) == pytest.approx(2.0)
    assert c(2.0) == pytest.approx(5.0)  # extrapolated slope 2
    with pytest.raises(ParseError):
        PwlCost(((0.0, 3.0), (1.0, 1.0)))  # decreasing


def test_cost_spec_roundtrip():
    c = cost_from_spec({"poly": [0, 1]})
    assert isinstance(c, PolyCost)
    assert cost_from_spec(c.spec())(3.0) == 3.0
    p = cost_from_spec({"pwl": [[0, 0], [1, 2]]})
    assert isinstance(p, PwlCost)


def test_instance_validation_catches_broken_paths():
    edges = ((0, 1), (1, 2))
    costs = (PolyCost((0.0, 1.0)), PolyCost((0.0, 1.0)))
    with pytest.raises(ParseError, match="breaks"):
        RoutingInstance(3, edges, costs, (Commodity(0, 2, 1.0, ((1, 0),)),))
    ok = RoutingInstance(3, edges, costs, (Commodity(0, 2, 1.0, ((0, 1),)),))
    assert ok.total_demand() == 1.0


@pytest.mark.parametrize("n", [2, 3, 5])
def test_fig1_equilibrium_spreads_evenly(n):
    inst = fig1_family(n)
    eq = equilibrium_flow(inst)
    fe = eq.edge_flows()
    assert np.max(np.abs(fe - 1.0 / n)) < 1e-8
    assert abs(eq.cost() - 1.0 / n) < 1e-8


def test_cost_forms_agree():
    for inst in (fig1_family(3), pigou_pair(), prop4_network()):
        eq = equilibrium_flow(inst)
        assert eq.cost() == pytest.approx(eq.cost_path_form(), rel=1e-12)


def test_equilibrium_condition_on_used_paths():
    for inst in (fig1_family(4), pigou_pair(), fig2_family(3, 2, 0.2)):
        eq = equilibrium_flow(inst, tol=1e-10)
        costs = eq.path_costs()
        for sl in inst.commodity_slices():
            used = [p for p in range(sl.start, sl.stop) if eq.path_flows[p] > 1e-9]
            floor = min(costs[sl])
            for p in used:
                assert costs[p] <= floor + 1e-6 * max(1.0, floor)


def test_pigou_equilibrium_balances_cubic_against_square():
    inst = pigou_pair(rate=2.0)
    eq = equilibrium_flow(inst)
    assert np.allclose(eq.edge_flows(), [1.0, 1.0], atol=1e-7)


def test_single_path_routes_everything():
    inst = RoutingInstance(
        2, ((0, 1),), (PolyCost((0.0, 1.0)),), (Commodity(0, 1, 2.5, ((0,),)),)
    )
    eq = equilibrium_flow(inst)
    assert eq.path_flows[0] == pytest.approx(2.5)
    out = transition_costs(inst)
    assert out["pota"] == pytest.approx(1.0)
    assert out["pots"] == pytest.approx(1.0)


def test_supported_paths_fig1_all():
    inst = fig1_family(4)
    eq = equilibrium_flow(inst)
    sup = supported_paths(inst, eq)
    assert sup["paths"] == [[0, 1, 2, 3]]
    assert sup["exact"]


def test_supported_paths_prop4_all():
    inst = prop4_network()
    eq = equilibrium_flow(inst)
    assert supported_paths(inst, eq)["paths"] == [[0, 1]]


def test_supported_paths_excludes_expensive_intercept():
    inst = RoutingInstance(
        2,
        ((0, 1), (0, 1)),
        (PolyCost((0.0, 1.0)), PolyCost((10.0, 1.0))),
        (Commodity(0, 1, 1.0, ((0,), (1,))),),
    )
    eq = equilibrium_flow(inst)
    assert supported_paths(inst, eq)["paths"] == [[0]]


def test_transition_flow_membership():
    inst = fig1_family(3)
    eq = equilibrium_flow(inst)
    assert is_transition_flow(inst, eq, eq=eq)
    lopsided = Flow(inst, np.array([1.0, 0.0, 0.0]))
    assert is_transition_flow(inst, lopsided, eq=eq)
    infeasible = Flow(inst, np.array([0.5, 0.0, 0.0]))
    assert not is_transition_flow(inst, infeasible, eq=eq)


def test_transition_flow_on_unsupported_path_rejected():
    inst = RoutingInstance(
        2,
        ((0, 1), (0, 1)),
        (PolyCost((0.0, 1.0)), PolyCost((10.0, 1.0))),
        (Commodity(0, 1, 1.0, ((0,), (1,))),),
    )
    eq = equilibrium_flow(inst)
    bad = Flow(inst, np.array([0.0, 1.0]))
    assert not is_transition_flow(inst, bad, eq=eq)


def test_m_variant_is_degenerate():
    # equilibria form a convex set, so one equilibrium witnesses every
    # supported path and the m-limited variant matches the plain one
    inst = fig1_family(3)
    eq = equilibrium_flow(inst)
    lopsided = Flow(inst, np.array([1.0, 0.0, 0.0]))
    results = {m: is_transition_flow(inst, lopsided, m=m, eq=eq) for m in (1, 2, 5)}
    assert results == {1: True, 2: True, 5: True}
    with pytest.raises(BadParams):
        is_transition_flow(inst, lopsided, m=0, eq=eq)


@pytest.mark.parametrize("n", [2, 3, 5])
def test_fig1_prices(n):
    out = transition_costs(fig1_family(n))
    assert out["pota"] == pytest.approx(n, rel=1e-6)
    assert out["pots"] == pytest.approx(1.0, rel=1e-6)
    assert out["poa"] == pytest.approx(1.0, rel=1e-6)


def test_cost_ordering_best_eq_worst():
    for inst in (fig1_family(4), pigou_pair(), fig2_family(3, 2, 0.3)):
        out = transition_costs(inst)
        assert out["best_cost"] <= out["equilibrium_cost"] + 1e-9
        assert out["equilibrium_cost"] <= out["worst_cost"] + 1e-9


def test_prop4_pots_is_one():
    out = transition_costs(prop4_network())
    assert out["pots"] == pytest.approx(1.0, abs=1e-6)


def test_pigou_pots_reaches_optimum():
    out = transition_costs(pigou_pair())
    assert out["pots"] == pytest.approx(1.0, abs=1e-6)
    assert out["poa"] > 1.0  # the even split is not optimal


def test_stretch_fig1_tight():
    sb = stretch_bound(fig1_family(3))
    assert sb["cap"] == pytest.approx(3.0)
    assert sb["ratio"] == pytest.approx(3.0, rel=1e-6)
    assert sb["holds"]


def test_stretch_bound_fig2_and_trend():
    gaps = []
    for delta in (0.1, 0.01):
        sb = stretch_bound(fig2_family(4, 2, delta))
        assert sb["holds"]
        gaps.append(sb["cap"] - sb["ratio"])
    assert gaps[1] < gaps[0]


ROUTING_FIXTURES = [f for f in REGISTRY.values() if f.kind == "routing"]


@pytest.mark.parametrize("fixture", ROUTING_FIXTURES, ids=lambda f: f.name)
def test_stretch_bound_reuses_given_prices(fixture):
    inst = fixture.build()
    assert stretch_bound(inst, prices=transition_costs(inst)) == stretch_bound(inst)


def test_routing_analyze_solves_the_equilibrium_once(monkeypatch, capsys):
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return equilibrium_flow(*args, **kwargs)

    monkeypatch.setattr(routing, "equilibrium_flow", counted)
    assert main(["routing", "analyze", "fig2-4x2"]) == 0
    assert len(calls) == 1


def test_path_edge_matrix_is_cached_and_read_only():
    inst = fig2_family(4, 2, 0.1)
    # both commodities' first path is the shared edge 0, then private edges
    fresh = np.zeros((8, 7))
    for row, e in enumerate((0, 1, 2, 3, 0, 4, 5, 6)):
        fresh[row, e] = 1.0
    cached = inst.path_edge_matrix()
    assert cached is inst.path_edge_matrix()
    assert np.array_equal(cached, fresh)
    with pytest.raises(ValueError):
        cached[0, 0] = 2.0


def test_stretch_linear_specialisation():
    inst = fig2_family(4, 2, 0.5)
    sb = stretch_bound(inst)
    assert sb["linear_stretch"] is not None
    # all paths have length one, so the general and linear forms agree
    assert sb["linear_stretch"] == pytest.approx(sb["stretch"])


def test_stretch_degenerate_zero_intercept_with_constant_cost():
    inst = RoutingInstance(
        2,
        ((0, 1), (0, 1)),
        (PolyCost((0.0,)), PolyCost((0.0, 1.0))),
        (Commodity(0, 1, 1.0, ((0,), (1,))),),
    )
    sb = stretch_bound(inst)
    assert sb["degenerate"] and sb["holds"]
    assert math.isinf(sb["cap"])


def test_generate_family_dispatch_and_validation():
    assert len(generate_family("fig1", n=3).edges) == 3
    inst = generate_family("fig2", n=5, m=2, delta=0.1)
    assert len(inst.commodities) == 2
    assert len(inst.commodities[0].paths) == 5
    with pytest.raises(BadParams):
        generate_family("nope")
    with pytest.raises(BadParams):
        generate_family("fig1", wrong=1)
    with pytest.raises(BadParams):
        fig2_family(1, 1, 0.1)


def test_fig2_shares_exactly_the_top_edge():
    inst = fig2_family(3, 2, 0.1)
    # the first edge appears in both commodities' path lists
    first_paths = {p[0] for p in inst.commodities[0].paths}
    second_paths = {p[0] for p in inst.commodities[1].paths}
    assert first_paths & second_paths == {0}
    assert not inst.commodities_never_share_edges()


def test_min_cost_flow_restriction_matches_unrestricted_when_all_supported():
    inst = fig1_family(4)
    full = min_cost_flow(inst)
    restricted = min_cost_flow(inst, [[0, 1, 2, 3]])
    assert full.cost() == pytest.approx(restricted.cost(), rel=1e-9)


def test_pwl_instance_equilibrium():
    # table costs emulating linear links
    inst = RoutingInstance(
        2,
        ((0, 1), (0, 1)),
        (PwlCost(((0.0, 0.0), (2.0, 2.0))), PwlCost(((0.0, 0.0), (2.0, 4.0)))),
        (Commodity(0, 1, 1.5, ((0,), (1,))),),
    )
    eq = equilibrium_flow(inst)
    fe = eq.edge_flows()
    # equal costs: x = 2y with x + y = 1.5
    assert fe[0] == pytest.approx(1.0, abs=1e-6)
    assert fe[1] == pytest.approx(0.5, abs=1e-6)


def test_nonconvex_pwl_flags_worst_as_lower_bound():
    # nondecreasing but concave table: x * c(x) is not convex, so the
    # vertex maximum is only a lower bound and must be flagged
    concave = PwlCost(((0.0, 0.0), (1.0, 10.0), (2.0, 11.0)))
    assert not concave.is_convex_load_cost()
    inst = RoutingInstance(
        2,
        ((0, 1), (0, 1)),
        (concave, PolyCost((0.0, 5.0))),
        (Commodity(0, 1, 1.0, ((0,), (1,))),),
    )
    out = transition_costs(inst)
    assert out["worst_exact"] is False


def test_no_convergence_reports_gap():
    # two-path instances converge in one exact line search, so use a
    # multi-path family where a single iteration cannot finish
    from transit.errors import NoConvergence

    inst = fig2_family(4, 2, 0.5)
    with pytest.raises(NoConvergence) as err:
        equilibrium_flow(inst, tol=1e-16, max_iter=1)
    assert err.value.gap is not None and err.value.gap > 0
