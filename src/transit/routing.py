"""Non-atomic routing: equilibrium flows, transition flows, stretch bounds.

Commodities route splittable demand over explicit path lists with
nondecreasing edge costs.  Equilibria minimise the potential
sum_e integral_0^{f_e} c_e, computed by conditional-gradient iterations
whose linear oracle is the cheapest path of each commodity, with an exact
line search (the directional derivative is monotone).  A transition
reallocates each commodity freely over the paths that can carry positive
equilibrium flow; its worst cost is attained at a vertex of the restricted
polytope whenever x * c_e(x) is convex, and its best cost by the same
conditional gradient run on the actual cost.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Iterator, Sequence

import numpy as np

from .errors import BadParams, NoConvergence, ParseError, TooLarge

DEFAULT_TOL = 1e-8
DEFAULT_MAX_ITER = 100_000
FEASIBILITY_TOL = 1e-9


# -- cost functions -----------------------------------------------------------


@dataclass(frozen=True)
class PolyCost:
    """Polynomial cost with nonnegative coefficients, lowest degree first."""

    coeffs: tuple[float, ...]

    def __post_init__(self) -> None:
        if not self.coeffs or any(c < 0 for c in self.coeffs):
            raise ParseError("polynomial costs need nonnegative coefficients")

    def __call__(self, x: float) -> float:
        acc = 0.0
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def marginal(self, x: float) -> float:
        """d/dx of x * c(x)."""
        deriv = 0.0
        for k in range(len(self.coeffs) - 1, 0, -1):
            deriv = deriv * x + k * self.coeffs[k]
        return self(x) + x * deriv

    def is_convex_load_cost(self) -> bool:
        # x * poly(x) keeps nonnegative coefficients, hence convex on x >= 0
        return True

    def spec(self) -> dict:
        return {"poly": list(self.coeffs)}


@dataclass(frozen=True)
class PwlCost:
    """Piecewise-linear cost through sorted (x, y) breakpoints.

    Extrapolates the last slope beyond the table and holds the first value
    before it.  The y values must be nondecreasing and nonnegative.
    """

    points: tuple[tuple[float, float], ...]

    def __post_init__(self) -> None:
        xs = [p[0] for p in self.points]
        ys = [p[1] for p in self.points]
        if len(self.points) < 2:
            raise ParseError("piecewise-linear costs need at least two points")
        if any(b <= a for a, b in zip(xs, xs[1:])):
            raise ParseError("breakpoint abscissae must increase")
        if any(y < 0 for y in ys) or any(b < a for a, b in zip(ys, ys[1:])):
            raise ParseError("piecewise-linear costs must be nonnegative and nondecreasing")

    def _segment(self, x: float) -> int:
        xs = [p[0] for p in self.points]
        for k in range(len(xs) - 1):
            if x <= xs[k + 1]:
                return k
        return len(xs) - 2

    def __call__(self, x: float) -> float:
        xs = [p[0] for p in self.points]
        ys = [p[1] for p in self.points]
        if x <= xs[0]:
            return ys[0]
        k = self._segment(x)
        t = (x - xs[k]) / (xs[k + 1] - xs[k])
        return ys[k] + t * (ys[k + 1] - ys[k])

    def marginal(self, x: float) -> float:
        eps = 1e-9
        slope = (self(x + eps) - self(x)) / eps
        return self(x) + x * slope

    def is_convex_load_cost(self) -> bool:
        # x * c(x) is convex when c is convex; check slopes nondecreasing
        slopes = []
        for (x0, y0), (x1, y1) in zip(self.points, self.points[1:]):
            slopes.append((y1 - y0) / (x1 - x0))
        flat_head = self.points[0][0] > 0  # constant before the first point
        if flat_head and slopes and slopes[0] < 0:
            return False
        return all(b >= a - 1e-12 for a, b in zip(slopes, slopes[1:]))

    def spec(self) -> dict:
        return {"pwl": [list(p) for p in self.points]}


def cost_from_spec(spec: dict) -> PolyCost | PwlCost:
    if "poly" in spec:
        return PolyCost(tuple(float(c) for c in spec["poly"]))
    if "pwl" in spec:
        return PwlCost(tuple((float(x), float(y)) for x, y in spec["pwl"]))
    raise ParseError(f"unknown cost spec {spec!r}")


# -- instance and flows -------------------------------------------------------


@dataclass(frozen=True)
class Commodity:
    source: int
    sink: int
    rate: float
    paths: tuple[tuple[int, ...], ...]  # edge-index sequences


@dataclass(frozen=True)
class RoutingInstance:
    n_nodes: int
    edges: tuple[tuple[int, int], ...]
    costs: tuple[PolyCost | PwlCost, ...]
    commodities: tuple[Commodity, ...]

    def __post_init__(self) -> None:
        if len(self.edges) != len(self.costs):
            raise ParseError("one cost per edge required")
        for u, v in self.edges:
            if not (0 <= u < self.n_nodes and 0 <= v < self.n_nodes):
                raise ParseError("edge endpoint out of range")
        for c in self.commodities:
            if c.rate <= 0:
                raise ParseError("commodity rates must be positive")
            if not c.paths:
                raise ParseError("every commodity needs at least one path")
            for path in c.paths:
                if not path:
                    raise ParseError("paths must use at least one edge")
                at = c.source
                for e in path:
                    if not (0 <= e < len(self.edges)):
                        raise ParseError("path uses an unknown edge")
                    u, v = self.edges[e]
                    if u != at:
                        raise ParseError(
                            f"path {path} breaks at edge {e}: expected tail {at}"
                        )
                    at = v
                if at != c.sink:
                    raise ParseError(f"path {path} does not reach the sink")
        incidence = np.zeros((sum(len(c.paths) for c in self.commodities), len(self.edges)))
        for row, (i, p) in enumerate(self.all_paths):
            for e in self.commodities[i].paths[p]:
                incidence[row, e] += 1.0
        incidence.flags.writeable = False
        object.__setattr__(self, "_incidence", incidence)

    @property
    def all_paths(self) -> list[tuple[int, int]]:
        """(commodity index, path index) pairs in declaration order."""
        return [
            (i, p) for i, c in enumerate(self.commodities) for p in range(len(c.paths))
        ]

    def path_edge_matrix(self) -> np.ndarray:
        """0/1 incidence of paths (rows) on edges (columns), built once with
        the instance and read-only."""
        return self._incidence

    def total_demand(self) -> float:
        return sum(c.rate for c in self.commodities)

    def commodity_slices(self) -> list[slice]:
        out = []
        start = 0
        for c in self.commodities:
            out.append(slice(start, start + len(c.paths)))
            start += len(c.paths)
        return out

    def edge_disjoint_paths_per_commodity(self) -> bool:
        for c in self.commodities:
            seen: set[int] = set()
            for path in c.paths:
                for e in path:
                    if e in seen:
                        return False
                    seen.add(e)
        return True

    def commodities_never_share_edges(self) -> bool:
        owner: dict[int, int] = {}
        for i, c in enumerate(self.commodities):
            for path in c.paths:
                for e in path:
                    if owner.setdefault(e, i) != i:
                        return False
        return True

    def convex_load_costs(self) -> bool:
        return all(c.is_convex_load_cost() for c in self.costs)

@dataclass(frozen=True)
class Flow:
    """Path-flow vector with derived edge flows and both cost forms."""

    inst: RoutingInstance
    path_flows: np.ndarray

    def edge_flows(self) -> np.ndarray:
        return self.inst.path_edge_matrix().T @ self.path_flows

    def feasible(self, tol: float = FEASIBILITY_TOL) -> bool:
        if np.any(self.path_flows < -tol):
            return False
        for c, sl in zip(self.inst.commodities, self.inst.commodity_slices()):
            if abs(float(np.sum(self.path_flows[sl])) - c.rate) > tol:
                return False
        return True

    def path_costs(self) -> np.ndarray:
        fe = self.edge_flows()
        ce = np.array([cost(fe[e]) for e, cost in enumerate(self.inst.costs)])
        return self.inst.path_edge_matrix() @ ce

    def cost(self) -> float:
        """Edge form of the total cost, sum_e c_e(f_e) * f_e."""
        fe = self.edge_flows()
        return float(sum(cost(fe[e]) * fe[e] for e, cost in enumerate(self.inst.costs)))

    def cost_path_form(self) -> float:
        """Path form, sum_P c_P(f) * f_P; agrees with cost() analytically."""
        return float(np.dot(self.path_costs(), self.path_flows))


# -- conditional gradient -----------------------------------------------------


def _line_search(derivative, lo: float = 0.0, hi: float = 1.0, iters: int = 70) -> float:
    """Root of a nondecreasing derivative on [lo, hi] by bisection."""
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


def _conditional_gradient(
    inst: RoutingInstance,
    edge_price,
    allowed: Sequence[Sequence[int]] | None,
    tol: float,
    max_iter: int,
) -> np.ndarray:
    """Minimise a convex separable objective over the path-flow polytope.

    edge_price(f_e, e) is the objective's derivative wrt the edge flow
    (c_e for the equilibrium potential, the marginal cost for the total
    cost).  `allowed` optionally restricts each commodity to a path subset.
    The relative gap compares the current pricing of the flow against the
    all-or-nothing assignment onto cheapest allowed paths.
    """
    incidence = inst.path_edge_matrix()
    slices = inst.commodity_slices()
    if allowed is None:
        allowed = [list(range(len(c.paths))) for c in inst.commodities]

    f = np.zeros(incidence.shape[0])
    for ci, (c, sl) in enumerate(zip(inst.commodities, slices)):
        f[sl.start + allowed[ci][0]] = c.rate

    def prices(flows: np.ndarray) -> np.ndarray:
        fe = incidence.T @ flows
        return np.array([edge_price(fe[e], e) for e in range(len(inst.edges))])

    rel_gap = math.inf
    for _ in range(max_iter):
        pe = prices(f)
        path_prices = incidence @ pe
        y = np.zeros_like(f)
        current = float(np.dot(path_prices, f))
        best_total = 0.0
        for ci, (c, sl) in enumerate(zip(inst.commodities, slices)):
            opts = [(path_prices[sl.start + p], p) for p in allowed[ci]]
            price, pick = min(opts)
            y[sl.start + pick] = c.rate
            best_total += price * c.rate
        rel_gap = (current - best_total) / max(abs(current), 1e-30)
        if rel_gap <= tol:
            return f
        direction = y - f

        def deriv(gamma: float) -> float:
            pe_g = prices(f + gamma * direction)
            return float(np.dot(incidence @ pe_g, direction))

        step = _line_search(deriv)
        if step <= 0:
            return f
        f = f + step * direction
    raise NoConvergence(
        f"conditional gradient hit {max_iter} iterations", gap=rel_gap
    )


def equilibrium_flow(
    inst: RoutingInstance, tol: float = DEFAULT_TOL, max_iter: int = DEFAULT_MAX_ITER
) -> Flow:
    """Feasible flow meeting the equal-cost condition within a relative gap.

    Minimises the potential whose edge derivative is c_e itself; edge flows
    are unique whenever all costs are strictly increasing.
    """
    flows = _conditional_gradient(
        inst, lambda x, e: inst.costs[e](x), None, tol, max_iter
    )
    return Flow(inst, flows)


def min_cost_flow(
    inst: RoutingInstance,
    allowed: Sequence[Sequence[int]] | None = None,
    tol: float = DEFAULT_TOL,
    max_iter: int = DEFAULT_MAX_ITER,
) -> Flow:
    """Cheapest feasible flow (optionally restricted to allowed paths).

    Requires convex load costs x * c_e(x); with polynomial costs that is
    automatic.
    """
    flows = _conditional_gradient(
        inst, lambda x, e: inst.costs[e].marginal(x), allowed, tol, max_iter
    )
    return Flow(inst, flows)


# -- transitions of equilibrium flows ----------------------------------------


def supported_paths(
    inst: RoutingInstance, eq: Flow, rel_tol: float = 1e-6
) -> dict:
    """Per-commodity paths that can carry positive equilibrium flow.

    Criterion: the path's cost at the equilibrium edge flows equals the
    commodity's minimum path cost (within a relative tolerance scaled to
    the cost magnitude).  Exact when each commodity's paths are pairwise
    edge-disjoint; in general the criterion is necessary but possibly not
    sufficient, which the `exact` flag reports.
    """
    costs = eq.path_costs()
    slices = inst.commodity_slices()
    per_commodity = []
    for c, sl in zip(inst.commodities, slices):
        vals = costs[sl]
        floor = float(np.min(vals))
        cut = floor + rel_tol * max(1.0, abs(floor))
        per_commodity.append([p for p in range(len(c.paths)) if costs[sl.start + p] <= cut])
    return {
        "paths": per_commodity,
        "exact": inst.edge_disjoint_paths_per_commodity(),
    }


def is_transition_flow(
    inst: RoutingInstance,
    flow: Flow,
    m: int | None = None,
    eq: Flow | None = None,
    rel_tol: float = 1e-6,
) -> bool:
    """True iff every positive-flow path is supported by some equilibrium.

    The m-limited variant coincides with the unrestricted one for every
    m >= 1: equilibria form a convex set (minimisers of a convex potential),
    so averaging one witness per supported path yields a single equilibrium
    flow positive on all of them.
    """
    if m is not None and m < 1:
        raise BadParams("m must be at least 1")
    if not flow.feasible():
        return False
    if eq is None:
        eq = equilibrium_flow(inst)
    sup = supported_paths(inst, eq, rel_tol)["paths"]
    slices = inst.commodity_slices()
    for ci, sl in enumerate(slices):
        for p in range(sl.stop - sl.start):
            if flow.path_flows[sl.start + p] > FEASIBILITY_TOL and p not in sup[ci]:
                return False
    return True


def _vertex_flows(inst: RoutingInstance, allowed: Sequence[Sequence[int]]) -> Iterator[np.ndarray]:
    """Vertices of the restricted polytope: each commodity on one path."""
    slices = inst.commodity_slices()
    for combo in itertools.product(*allowed):
        f = np.zeros(sum(len(c.paths) for c in inst.commodities))
        for ci, pick in enumerate(combo):
            f[slices[ci].start + pick] = inst.commodities[ci].rate
        yield f


def transition_costs(inst: RoutingInstance, tol: float = DEFAULT_TOL) -> dict:
    """Worst and best transition costs, the optimum, and both price ratios.

    The optimum is the cheapest feasible flow over all paths.  The worst
    transition is maximised over vertices of the supported-path polytope,
    which is exact when every x * c_e(x) is convex; otherwise the vertex
    maximum is only a lower bound and is flagged.  The best transition is
    the cheapest flow restricted to supported paths.
    """
    eq = equilibrium_flow(inst, tol)
    sup = supported_paths(inst, eq)
    allowed = sup["paths"]

    n_vertices = math.prod(len(a) for a in allowed)
    if n_vertices > 2_000_000:
        raise TooLarge(
            f"{n_vertices} supported-path vertices exceed the enumeration cap"
        )
    convex = inst.convex_load_costs()
    worst = None
    worst_flow = None
    for f in _vertex_flows(inst, allowed):
        c = Flow(inst, f).cost()
        if worst is None or c > worst:
            worst, worst_flow = c, f

    best_flow = min_cost_flow(inst, allowed, tol)
    opt_flow = min_cost_flow(inst, None, tol)
    best = best_flow.cost()
    opt = opt_flow.cost()
    eq_cost = eq.cost()

    def ratio(num: float) -> float:
        # zero-cost optima make the prices infinite (or 1 when the
        # numerator vanishes with them)
        if opt > 0:
            return num / opt
        return 1.0 if num <= FEASIBILITY_TOL else math.inf

    return {
        "equilibrium": eq,
        "equilibrium_cost": eq_cost,
        "supported": allowed,
        "supported_exact": sup["exact"],
        "worst_cost": worst,
        "worst_flow": Flow(inst, worst_flow),
        "worst_exact": convex,
        "best_cost": best,
        "best_flow": best_flow,
        "optimum_cost": opt,
        "poa": ratio(eq_cost),
        "pota": ratio(worst),
        "pots": ratio(best),
    }


# -- stretch bound -------------------------------------------------------------


def stretch_bound(
    inst: RoutingInstance, tol: float = DEFAULT_TOL, prices: dict | None = None
) -> dict:
    """Per-commodity stretch values and the anarchy-ratio cap they imply.

    For commodity i with demand r_i, the stretch compares the longest path
    priced at the supremum cost under the full network load against the
    shortest path priced at the infimum cost under r_i / |paths_i|, over the
    multiset of the instance's edge cost functions.  The measured
    pota / poa never exceeds the largest stretch; when the infimum term is
    zero the bound is infinite and the assertion is vacuous.  `prices` is
    the `transition_costs` result of `inst` when the caller already has it;
    otherwise it is computed here with `tol`.
    """
    total = inst.total_demand()
    out_s = []
    degenerate = False
    for c in inst.commodities:
        lens = [len(p) for p in c.paths]
        sup_term = max(cost(total) for cost in inst.costs)
        inf_term = min(cost(c.rate / len(c.paths)) for cost in inst.costs)
        if inf_term <= 0:
            degenerate = True
            out_s.append(math.inf)
        else:
            out_s.append(max(lens) * sup_term / (min(lens) * inf_term))

    linear = all(
        isinstance(cost, PolyCost)
        and len(cost.coeffs) == 2
        and cost.coeffs[0] == 0
        for cost in inst.costs
    )
    linear_values = None
    disjoint_values = None
    if linear:
        a = [cost.coeffs[1] for cost in inst.costs]
        a_max, a_min = max(a), min(a)
        linear_values = []
        disjoint_values = []
        for c in inst.commodities:
            lens = [len(p) for p in c.paths]
            rest = total - c.rate
            linear_values.append(
                max(lens) * a_max * (c.rate + rest) / (min(lens) * a_min * c.rate)
                * len(c.paths)
            )
            disjoint_values.append(
                max(lens) * a_max / (min(lens) * a_min) * len(c.paths)
            )

    if prices is None:
        prices = transition_costs(inst, tol)
    cap = max(out_s)
    ratio = prices["pota"] / prices["poa"]
    return {
        "stretch": out_s,
        "cap": cap,
        "linear_stretch": linear_values,
        "disjoint_linear_stretch": disjoint_values if
        (linear and inst.commodities_never_share_edges()) else None,
        "pota": prices["pota"],
        "poa": prices["poa"],
        "ratio": ratio,
        "degenerate": degenerate,
        "holds": True if degenerate else ratio <= cap * (1 + 1e-9),
    }


# -- instance families ----------------------------------------------------------


def fig1_family(n: int, rate: float = 1.0) -> RoutingInstance:
    """n parallel unit-slope links; the lone equilibrium spreads evenly."""
    if n < 1:
        raise BadParams("need at least one link")
    edges = tuple((0, 1) for _ in range(n))
    costs = tuple(PolyCost((0.0, 1.0)) for _ in range(n))
    paths = tuple((e,) for e in range(n))
    return RoutingInstance(2, edges, costs, (Commodity(0, 1, rate, paths),))


def fig2_family(
    n: int, m: int, delta: float, a_min: float = 1.0, rate: float = 1.0
) -> RoutingInstance:
    """m commodities sharing their most expensive link, n options each.

    Every commodity can use the shared top link (coefficient a_min*(1+delta))
    or one of its n-1 private links with coefficients descending to a_min.
    As delta shrinks the equilibrium spreads evenly and the worst transition
    (everybody on the shared link) approaches the stretch cap.
    """
    if n < 2 or m < 1 or delta <= 0:
        raise BadParams("need n >= 2 links, m >= 1 commodities, delta > 0")
    coeffs = [a_min * (1 + delta) ** ((n - k) / (n - 1)) for k in range(1, n + 1)]
    edges = [(0, 1)]
    costs = [PolyCost((0.0, coeffs[0]))]
    commodities = []
    for _ in range(m):
        paths = [(0,)]
        for k in range(1, n):
            edges.append((0, 1))
            costs.append(PolyCost((0.0, coeffs[k])))
            paths.append((len(edges) - 1,))
        commodities.append(Commodity(0, 1, rate, tuple(paths)))
    return RoutingInstance(2, tuple(edges), tuple(costs), tuple(commodities))


def pigou_pair(rate: float = 2.0) -> RoutingInstance:
    """Two links with costs x^2 and x^3; the equilibrium splits evenly."""
    edges = ((0, 1), (0, 1))
    costs = (PolyCost((0.0, 0.0, 1.0)), PolyCost((0.0, 0.0, 0.0, 1.0)))
    return RoutingInstance(
        2, edges, costs, (Commodity(0, 1, rate, ((0,), (1,))),)
    )


def prop4_network(rate: float = 1.0, intercept: float = 1.0) -> RoutingInstance:
    """Edge-disjoint strictly increasing links with equal intercepts."""
    if intercept <= 0:
        raise BadParams("intercept must be positive")
    edges = ((0, 1), (0, 1))
    costs = (PolyCost((intercept, 1.0)), PolyCost((intercept, 2.0)))
    return RoutingInstance(
        2, edges, costs, (Commodity(0, 1, rate, ((0,), (1,))),)
    )


FAMILIES = {
    "fig1": fig1_family,
    "fig2": fig2_family,
    "pigou": pigou_pair,
    "prop4": prop4_network,
}


def generate_family(kind: str, **params) -> RoutingInstance:
    if kind not in FAMILIES:
        raise BadParams(f"unknown family {kind!r}; choose from {sorted(FAMILIES)}")
    try:
        return FAMILIES[kind](**params)
    except TypeError as exc:
        raise BadParams(f"bad parameters for {kind!r}: {exc}") from exc
