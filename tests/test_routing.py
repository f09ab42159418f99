"""Equilibrium flows, transition flows, stretch bound, instance families."""

import itertools
import json
import math
import random
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from transit import routing
from transit.cli import main
from transit.errors import BadParams, NoConvergence, ParseError, TooLarge
from transit.io import routing_to_dict
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


def test_pwl_marginal_uses_the_right_hand_slope():
    # c = 2 up to x = 1, then slope 2 up to (3, 6), then slope 4 on and beyond (4, 10)
    c = PwlCost(((1.0, 2.0), (3.0, 6.0), (4.0, 10.0)))
    cases = {
        0.5: 2.0,  # before the first point: flat, so c itself
        1.0: 2.0 + 1.0 * 2.0,  # first point: the first segment's slope
        2.0: 4.0 + 2.0 * 2.0,  # inside the first segment
        3.0: 6.0 + 3.0 * 4.0,  # interior breakpoint: the segment to its right
        3.5: 8.0 + 3.5 * 4.0,
        4.0: 10.0 + 4.0 * 4.0,  # last point: the extrapolated slope
        6.0: 18.0 + 6.0 * 4.0,  # past the table
    }
    for x, want in cases.items():
        assert c.marginal(x) == want
    xs = np.array(list(cases))
    costs = routing.EdgeCosts((c, PolyCost((1.0, 1.0))))
    fe = np.stack([xs, xs], axis=1)
    assert np.array_equal(costs.marginal(fe)[:, 0], list(cases.values()))
    assert np.array_equal(costs.cost(fe)[:, 0], [c(x) for x in xs])


def test_table_edges_are_priced_bit_for_bit_in_one_pass():
    # tables of 2 to 5 points between polynomial edges, so the breakpoint
    # matrix is padded; each is priced before its first point, at and between
    # every breakpoint and past its last, in every column at once
    rng = random.Random(13)
    costs = [PolyCost((0.5, 1.0)), PolyCost((1.0, 0.0, 2.0))]
    for size in (2, 5, 3, 4):
        x, y = rng.uniform(-1.0, 1.0), rng.uniform(0.0, 1.0)
        points = [(x, y)]
        for _ in range(size - 1):
            x += rng.uniform(0.1, 1.5)
            y += rng.choice([0.0, rng.uniform(0.05, 3.0)])  # flat pieces too
            points.append((x, y))
        costs.insert(rng.randint(0, len(costs)), PwlCost(tuple(points)))
    tables = [e for e, c in enumerate(costs) if isinstance(c, PwlCost)]
    probes = []
    for e in tables:
        xs = [p[0] for p in costs[e].points]
        probes += xs + [xs[0] - 1.0, xs[-1] + 2.5, -0.0, 0.0]
        probes += [0.5 * (a + b) for a, b in zip(xs, xs[1:])]
        probes += [math.nextafter(v, side) for v in xs for side in (-math.inf, math.inf)]
    fe = np.array([[v] * len(costs) for v in probes])
    evaluator = routing.EdgeCosts(costs)
    got_cost, got_marginal = evaluator.cost(fe), evaluator.marginal(fe)
    for e in tables:
        assert got_cost[:, e].tolist() == [costs[e](v) for v in probes]
        assert got_marginal[:, e].tolist() == [costs[e].marginal(v) for v in probes]


@pytest.mark.parametrize(
    "points, convex",
    [
        (((1.0, 1.0), (2.0, 2.0), (3.0, 4.0)), True),  # flat head, then convex
        (((0.0, 0.0), (1.0, 10.0), (2.0, 11.0)), False),  # concave
    ],
)
def test_pwl_convexity_reads_the_slopes(points, convex):
    assert PwlCost(points).is_convex_load_cost() is convex


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
        # path form, sum_P c_P(f) * f_P, against the edge form of cost()
        path_form = float(np.dot(eq.path_costs(), eq.path_flows))
        assert eq.cost() == pytest.approx(path_form, rel=1e-12)


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


def is_transition_flow(inst, flow, m=None, eq=None):
    """True iff the flow is feasible and every positive-flow path is
    supported by some equilibrium.

    The m-limited variant coincides with the unrestricted one for every
    m >= 1: equilibria form a convex set (minimisers of a convex potential),
    so averaging one witness per supported path yields a single equilibrium
    flow positive on all of them.
    """
    if m is not None and m < 1:
        raise BadParams("m must be at least 1")
    tol = routing.FEASIBILITY_TOL
    if np.any(flow.path_flows < -tol):
        return False
    slices = inst.commodity_slices()
    if any(abs(float(np.sum(flow.path_flows[sl])) - c.rate) > tol
           for c, sl in zip(inst.commodities, slices)):
        return False
    if eq is None:
        eq = equilibrium_flow(inst)
    sup = supported_paths(inst, eq)["paths"]
    for ci, sl in enumerate(slices):
        for p in range(sl.stop - sl.start):
            if flow.path_flows[sl.start + p] > tol and p not in sup[ci]:
                return False
    return True


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
    inst = fig1_family(3)
    sb = stretch_bound(inst, transition_costs(inst))
    assert sb["cap"] == pytest.approx(3.0)
    assert sb["ratio"] == pytest.approx(3.0, rel=1e-6)
    assert sb["holds"]


def test_stretch_bound_fig2_and_trend():
    gaps = []
    for delta in (0.1, 0.01):
        inst = fig2_family(4, 2, delta)
        sb = stretch_bound(inst, transition_costs(inst))
        assert sb["holds"]
        gaps.append(sb["cap"] - sb["ratio"])
    assert gaps[1] < gaps[0]


def _count_solves(monkeypatch):
    solves = []
    solve = routing._conditional_gradient

    def counted(inst, marginal, allowed, *args):
        solves.append((marginal, allowed))
        return solve(inst, marginal, allowed, *args)

    monkeypatch.setattr(routing, "_conditional_gradient", counted)
    return solves


def test_routing_analyze_solves_the_equilibrium_once(monkeypatch, capsys):
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return equilibrium_flow(*args, **kwargs)

    monkeypatch.setattr(routing, "equilibrium_flow", counted)
    solves = _count_solves(monkeypatch)
    assert main(["routing", "analyze", "fig2-4x2"]) == 0
    assert len(calls) == 1
    # every path carries equilibrium flow: one min-cost solve gives the best
    # transition and the optimum both
    assert [marginal for marginal, _ in solves] == [False, True]


def test_routing_analyze_solves_the_optimum_apart_over_a_dominated_path(
    monkeypatch, capsys, tmp_path
):
    # link 1 costs at least 1.1 where link 0 costs at most 1, so it carries
    # no equilibrium flow, yet the optimum routes 9/22 over it
    inst = RoutingInstance(
        2,
        ((0, 1), (0, 1)),
        (PolyCost((0.0, 1.0)), PwlCost(((0.0, 1.1), (1.0, 1.2)))),
        (Commodity(0, 1, 1.0, ((0,), (1,))),),
    )
    path = tmp_path / "dominated.json"
    path.write_text(json.dumps(routing_to_dict(inst)))
    solves = _count_solves(monkeypatch)
    assert main(["routing", "analyze", str(path)]) == 0
    assert solves == [(False, None), (True, [[0]]), (True, None)]
    # the results as reported before the optimum's solve could be skipped
    assert json.loads(capsys.readouterr().out)["results"] == {
        "best_transition_cost": 1.0,
        "equilibrium_cost": 1.0,
        "optimum_cost": 0.815909090909,
        "poa": 1.22562674095,
        "pota": 1.22562674095,
        "pots": 1.22562674095,
        "stretch": [2.4],
        "stretch_cap": 2.4,
        "stretch_degenerate": False,
        "stretch_ratio": 1.0,
        "supported_exact": True,
        "supported_paths": [[0]],
        "worst_exact": True,
        "worst_transition_cost": 1.0,
    }


REPORTS = Path(__file__).parent / "routing_reports"


@pytest.mark.parametrize("network, inst", [
    ("fig1-3", None),
    ("fig2-4x2", None),
    ("pigou-pair", None),
    ("prop4-network", None),
    ("fig1-16-1.3.json", fig1_family(16, 1.3)),
    ("fig2-11-3-0.1.json", fig2_family(11, 3, 0.1)),
])
def test_routing_reports_are_pinned(network, inst, tmp_path, monkeypatch, capsys):
    # captured under the ITP line search; a solver change that moves a field
    # rewrites these files and lists the change
    monkeypatch.chdir(tmp_path)
    if inst is not None:
        Path(network).write_text(json.dumps(routing_to_dict(inst)))
    assert main(["routing", "analyze", network]) == 0
    out, err = capsys.readouterr()
    assert err == ""
    pinned = network if inst is not None else f"{network}.json"
    assert out == (REPORTS / pinned).read_text()


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
    # with c_e(x) = a_e * x the supremum term is a_max * total and the
    # infimum term a_min * r_i / |P_i|, so the stretch has a closed form
    inst = fig2_family(4, 2, 0.5)
    sb = stretch_bound(inst, transition_costs(inst))
    a = [cost.coeffs[1] for cost in inst.costs]
    assert all(cost.coeffs[0] == 0 and len(cost.coeffs) == 2 for cost in inst.costs)
    total = inst.total_demand()
    closed = []
    for c in inst.commodities:
        lens = [len(p) for p in c.paths]
        closed.append(max(lens) * max(a) * total * len(c.paths)
                      / (min(lens) * min(a) * c.rate))
    assert sb["stretch"] == pytest.approx(closed)


def test_stretch_degenerate_zero_intercept_with_constant_cost():
    inst = RoutingInstance(
        2,
        ((0, 1), (0, 1)),
        (PolyCost((0.0,)), PolyCost((0.0, 1.0))),
        (Commodity(0, 1, 1.0, ((0,), (1,))),),
    )
    sb = stretch_bound(inst, transition_costs(inst))
    assert sb["degenerate"] and sb["holds"]
    assert math.isinf(sb["cap"])


def test_fig2_shares_exactly_the_top_edge():
    inst = fig2_family(5, 2, 0.1)
    assert len(inst.commodities) == 2
    assert len(inst.commodities[0].paths) == 5
    with pytest.raises(BadParams):
        fig2_family(1, 1, 0.1)
    inst = fig2_family(3, 2, 0.1)
    # the first edge appears in both commodities' path lists
    first_paths = {p[0] for p in inst.commodities[0].paths}
    second_paths = {p[0] for p in inst.commodities[1].paths}
    assert first_paths & second_paths == {0}


def test_min_cost_flow_restriction_matches_unrestricted_when_all_supported():
    inst = fig1_family(4)
    full = min_cost_flow(inst)
    restricted = min_cost_flow(inst, [[0, 1, 2, 3]])
    assert full.cost() == pytest.approx(restricted.cost(), rel=1e-9)


def test_cheapest_path_ties_go_to_the_lowest_path_index():
    # paths 0 and 1 are the same link, so they tie at every step: all of
    # their flow goes to path 0, in whatever order `allowed` lists them
    link = PolyCost((0.0, 1.0))
    inst = RoutingInstance(
        2, ((0, 1), (0, 1)), (link, link), (Commodity(0, 1, 1.0, ((0,), (0,), (1,))),)
    )
    for flow in (equilibrium_flow(inst), min_cost_flow(inst, [[2, 1, 0]])):
        assert flow.path_flows[1] == 0.0
        assert flow.path_flows[0] == pytest.approx(0.5)


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
    inst = fig2_family(4, 2, 0.5)
    with pytest.raises(NoConvergence) as err:
        equilibrium_flow(inst, tol=1e-16, max_iter=1)
    assert err.value.gap is not None and err.value.gap > 0


def _bisection_70(derivative, lo=0.0, hi=1.0, iters=70):
    """The line search before its early exit: always 70 halvings."""
    if derivative(lo) >= 0:
        return lo
    if derivative(hi) <= 0:
        return hi
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        if derivative(mid) > 0:
            hi = mid
        else:
            lo = mid
    return 0.5 * (lo + hi)


def test_line_search_brackets_the_root_within_one_step_of_bisection():
    rng = random.Random(7)
    roots = [0.0, 1.0, 5e-324, 1e-320, 3e-310, 1e-300, 1 - 1e-8, 0.5, 0.25]
    roots += [rng.random() for _ in range(300)]
    roots += [10.0 ** rng.uniform(-320, -1) for _ in range(300)]
    for root in roots:
        scale = 10.0 ** rng.uniform(-3, 3)
        for shape, derivative in (
            ("linear", lambda g: scale * (g - root)),
            ("cubic", lambda g: (g - root) ** 3),
            ("sign", lambda g: 1.0 if g > root else -1.0),
            ("step", lambda g: 0.0 if g <= root else 1.0),
        ):
            got, calls = _evaluations(routing._line_search, derivative)
            _, halvings = _evaluations(_bisection_70, derivative)
            # once its ends are adjacent floats, _bisection_70 only evaluates
            # them again; the bisection it replaced stopped there instead
            assert len(calls) <= len(set(halvings)) + 1, (shape, root)
            if shape == "linear":
                assert len(calls) <= 16, root
            if derivative(0.0) >= 0:
                assert got == 0.0
            elif derivative(1.0) <= 0:
                assert got == 1.0
            else:
                below = min(got - 2.0**-70, math.nextafter(got, -math.inf))
                above = max(got + 2.0**-70, math.nextafter(got, math.inf))
                assert derivative(below) <= 0 <= derivative(above), (shape, root, got)


def test_line_search_steps_to_where_a_flat_derivative_turns_positive():
    # a table edge on a flat head makes the derivative vanish on an interval
    rng = random.Random(3)
    for _ in range(200):
        a, b = sorted(rng.random() for _ in range(2))

        def derivative(g):
            return min(g - a, 0.0) + max(g - b, 0.0)

        got = routing._line_search(derivative)
        assert abs(got - b) <= max(2.0**-70, math.ulp(b)), (a, b, got)


def _evaluations(search, derivative):
    """The search's result and the points where it evaluated the derivative."""
    calls = []

    def counted(g):
        calls.append(g)
        return derivative(g)

    return search(counted), calls


def _cap_network(n_commodities):
    """n commodities, each over two identical private links: 2**n vertices."""
    edges, costs, commodities = [], [], []
    for _ in range(n_commodities):
        first = len(edges)
        edges += [(0, 1), (0, 1)]
        costs += [PolyCost((0.0, 1.0)), PolyCost((0.0, 1.0))]
        commodities.append(Commodity(0, 1, 1.0, ((first,), (first + 1,))))
    return RoutingInstance(2, tuple(edges), tuple(costs), tuple(commodities))


def test_vertex_cap_fails_fast(tmp_path, capsys):
    inst = _cap_network(21)
    tracemalloc.start()
    try:
        with pytest.raises(TooLarge, match="2097152 supported-path vertices"):
            transition_costs(inst)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000
    path = tmp_path / "cap.json"
    path.write_text(json.dumps(routing_to_dict(inst)))
    capsys.readouterr()
    assert main(["routing", "analyze", str(path)]) == 5
    out, err = capsys.readouterr()
    assert out == ""
    assert err.count("\n") == 1 and err.startswith("error: ")


def test_vertex_pass_memory_stays_small():
    inst = fig2_family(16, 4, 0.1)  # 65,536 supported-path vertices
    tracemalloc.start()
    try:
        out = transition_costs(inst)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 32_000_000
    assert out["worst_flow"].path_flows[[0, 16, 32, 48]].tolist() == [1.0] * 4


# -- the per-edge reference: the scalar cost loops the array passes replaced --


def _reference_conditional_gradient(inst, edge_price, allowed, tol, max_iter):
    incidence = inst.path_edge_matrix()
    slices = inst.commodity_slices()
    if allowed is None:
        allowed = [list(range(len(c.paths))) for c in inst.commodities]
    f = np.zeros(incidence.shape[0])
    for ci, (c, sl) in enumerate(zip(inst.commodities, slices)):
        f[sl.start + allowed[ci][0]] = c.rate

    def prices(flows):
        fe = incidence.T @ flows
        return np.array([edge_price(fe[e], e) for e in range(len(inst.edges))])

    rel_gap = math.inf
    for _ in range(max_iter):
        path_prices = incidence @ prices(f)
        y = np.zeros_like(f)
        current = float(np.dot(path_prices, f))
        best_total = 0.0
        for ci, (c, sl) in enumerate(zip(inst.commodities, slices)):
            price, pick = min((path_prices[sl.start + p], p) for p in allowed[ci])
            y[sl.start + pick] = c.rate
            best_total += price * c.rate
        rel_gap = (current - best_total) / max(abs(current), 1e-30)
        if rel_gap <= tol:
            return f
        direction = y - f

        def deriv(gamma):
            return float(np.dot(incidence @ prices(f + gamma * direction), direction))

        step = _bisection_70(deriv)
        if step <= 0:
            return f
        f = f + step * direction
    raise NoConvergence(f"conditional gradient hit {max_iter} iterations", gap=rel_gap)


def _reference_cost(inst, path_flows):
    fe = inst.path_edge_matrix().T @ path_flows
    return float(sum(cost(fe[e]) * fe[e] for e, cost in enumerate(inst.costs)))


def _reference_worst_vertex(inst, allowed):
    slices = inst.commodity_slices()
    worst = worst_flow = None
    for combo in itertools.product(*allowed):
        f = np.zeros(sum(len(c.paths) for c in inst.commodities))
        for ci, pick in enumerate(combo):
            f[slices[ci].start + pick] = inst.commodities[ci].rate
        c = _reference_cost(inst, f)
        if worst is None or c > worst:
            worst, worst_flow = c, f
    return worst, worst_flow


def _random_cost(rng):
    if rng.random() < 0.6:
        return PolyCost(tuple(rng.uniform(0.1, 2.0) for _ in range(rng.randint(1, 4))))
    x, y = rng.choice([0.0, rng.uniform(0.1, 1.0)]), rng.uniform(0.0, 1.0)
    points = [(x, y)]
    for _ in range(rng.randint(1, 3)):
        x += rng.uniform(0.2, 1.5)
        y += rng.uniform(0.05, 3.0)
        points.append((x, y))
    return PwlCost(tuple(points))


def _random_network(rng):
    """A DAG on 6 nodes; each commodity routes over 2-4 distinct paths, whose
    edges are shared with its other paths and with other commodities."""
    edges, costs, index = [], [], {}

    def edge(u, v):
        if (u, v) not in index:
            index[(u, v)] = len(edges)
            edges.append((u, v))
            costs.append(_random_cost(rng))
        return index[(u, v)]

    commodities = []
    for _ in range(rng.randint(1, 3)):
        s, t = sorted(rng.sample(range(6), 2))
        paths = set()
        for _ in range(rng.randint(2, 4)):
            hops = sorted(rng.sample(range(s + 1, t), rng.randint(0, t - s - 1)))
            nodes = [s, *hops, t]
            paths.add(tuple(edge(u, v) for u, v in zip(nodes, nodes[1:])))
        if len(paths) == 1:  # a parallel link keeps a choice
            edges.append((s, t))
            costs.append(_random_cost(rng))
            paths.add((len(edges) - 1,))
        commodities.append(Commodity(s, t, rng.uniform(0.5, 2.0), tuple(sorted(paths))))
    return RoutingInstance(6, tuple(edges), tuple(costs), tuple(commodities))


def _capped(solve):
    """The solve's result, or the NoConvergence it raised."""
    try:
        return solve()
    except NoConvergence as exc:
        return exc


def test_array_passes_match_the_per_edge_reference():
    # conditional gradient needs thousands of steps on many of these networks
    # (where the optimum leaves paths unused), so both sides stop after the
    # same few steps; when the reference gives up, the array pass must too
    steps, tol = 10, routing.DEFAULT_TOL
    rng = random.Random(11)
    converged = 0
    for _ in range(100):
        inst = _random_network(rng)
        incidence = inst.path_edge_matrix()
        for solve, edge_price in (
            (lambda: equilibrium_flow(inst, tol, steps), lambda x, e: inst.costs[e](x)),
            (
                lambda: min_cost_flow(inst, None, tol, steps),
                lambda x, e: inst.costs[e].marginal(x),
            ),
        ):
            got = _capped(solve)
            want = _capped(
                lambda: _reference_conditional_gradient(inst, edge_price, None, tol, steps)
            )
            if isinstance(want, NoConvergence):
                assert isinstance(got, NoConvergence)
                continue
            converged += 1
            fe = got.edge_flows()
            assert np.max(np.abs(fe - incidence.T @ want)) <= 1e-9
            assert got.cost() == pytest.approx(_reference_cost(inst, got.path_flows), rel=1e-12)
            ce = np.array([cost(fe[e]) for e, cost in enumerate(inst.costs)])
            assert np.allclose(got.path_costs(), incidence @ ce, rtol=1e-12, atol=0)

        _assert_worst_vertex_matches(inst)
    assert converged >= 100


def test_along_matches_the_direct_derivative():
    # phi'(gamma) from the step's Taylor coefficients against pricing every
    # edge at fe + gamma * de, for both pricings, from a random split of each
    # commodity towards a random vertex; the last network adds a degree-4 link
    rng = random.Random(17)
    networks = [_random_network(rng) for _ in range(60)]
    quartic = PolyCost((0.3, 0.0, 1.5, 0.2, 0.7))
    networks.append(RoutingInstance(
        2, ((0, 1),) * 3, (quartic, PolyCost((1.0, 2.0)), PwlCost(((0.0, 0.5), (1.0, 2.0)))),
        (Commodity(0, 1, 1.7, ((0,), (1,), (2,))),),
    ))
    for inst in networks:
        costs = inst.edge_costs()
        f, y = [], []
        for c in inst.commodities:
            split = [rng.random() for _ in c.paths]
            f += [c.rate * w / sum(split) for w in split]
            pick = rng.randrange(len(c.paths))
            y += [c.rate if p == pick else 0.0 for p in range(len(c.paths))]
        fe = inst.path_edge_matrix().T @ np.array(f)
        de = inst.path_edge_matrix().T @ (np.array(y) - np.array(f))
        for marginal, price in ((False, costs.cost), (True, costs.marginal)):
            derivative = costs.along(fe, de, marginal)
            for gamma in (0.0, 0.37, 1.0):
                terms = price(fe + gamma * de) * de
                want = float(np.dot(price(fe + gamma * de), de))
                assert abs(derivative(gamma) - want) <= 1e-12 * np.abs(terms).sum()


def _assert_worst_vertex_matches(inst):
    for allowed in ([range(len(c.paths)) for c in inst.commodities],
                    [[0] + list(range(len(c.paths)))[2:] for c in inst.commodities]):
        worst, flows = routing._worst_vertex(inst, allowed)
        ref_worst, ref_flows = _reference_worst_vertex(inst, allowed)
        assert worst == pytest.approx(ref_worst, rel=1e-12)
        assert np.array_equal(flows, ref_flows)


def test_worst_vertex_spanning_many_blocks_matches_the_reference():
    # three commodities on a shared link plus six private links each: 343
    # vertices, so the vertex pass crosses several blocks
    rng = random.Random(5)
    for _ in range(5):
        edges, costs, commodities = [(0, 1)], [_random_cost(rng)], []
        for _ in range(3):
            first = len(edges)
            edges += [(0, 1)] * 6
            costs += [_random_cost(rng) for _ in range(6)]
            paths = ((0,),) + tuple((e,) for e in range(first, first + 6))
            commodities.append(Commodity(0, 1, rng.uniform(0.5, 2.0), paths))
        inst = RoutingInstance(2, tuple(edges), tuple(costs), tuple(commodities))
        assert 7**3 > 2 * routing.VERTEX_BLOCK
        _assert_worst_vertex_matches(inst)


def test_worst_vertex_keeps_the_first_of_tied_maxima():
    # every vertex of fig1 costs rate**2: the first one must win, across blocks
    n = 3 * routing.VERTEX_BLOCK
    worst, flows = routing._worst_vertex(fig1_family(n, 1.5), [range(n)])
    assert worst == 2.25
    assert flows[0] == 1.5 and flows.sum() == 1.5
