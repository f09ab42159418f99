"""Non-atomic routing: equilibrium flows, transition flows, stretch bounds.

Commodities route splittable demand over explicit path lists with
nondecreasing edge costs.  Equilibria minimise the potential
sum_e integral_0^{f_e} c_e, computed by conditional-gradient iterations
whose linear oracle is the cheapest path of each commodity.  A solve refuses
a tol below 0, or NaN, with BadParams.  Each step's length is the root of the
monotone directional derivative, whose value t0 at the start of the move is
minus the gap the iteration has just priced: every step that runs has t0 < 0.
On an affine network (every edge a polynomial of at most 2 coefficients, no
table edge) that derivative is a line in the step, and its root is taken in
closed form.  Otherwise it is bracketed to 2**-70 (or adjacent floats) by the
ITP method: regula falsi, truncated and projected towards the midpoint, so
never more than one step beyond bisection and far fewer on smooth
derivatives.  On polynomial edges of higher degree the derivative is a
polynomial in the step, whose coefficients come from each edge's Taylor
coefficients at its flow, formed once per step by repeated synthetic
division, so each probe of the search is a scalar Horner.  A transition
reallocates each commodity freely over the paths that can carry positive
equilibrium flow; its worst cost is attained at a vertex of the restricted
polytope whenever x * c_e(x) is convex, and its best cost by the same
conditional gradient run on the actual cost.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

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

    def is_convex_load_cost(self) -> bool:
        # x * c(x) is convex when c is convex; check slopes nondecreasing
        slopes = []
        for (x0, y0), (x1, y1) in zip(self.points, self.points[1:]):
            slopes.append((y1 - y0) / (x1 - x0))
        return all(b >= a - 1e-12 for a, b in zip(slopes, slopes[1:]))

    def spec(self) -> dict:
        return {"pwl": [list(p) for p in self.points]}


class EdgeCosts:
    """Every edge's cost c_e, or its marginal d/dx[x * c_e(x)], in one pass:
    the one evaluator of the edge costs.

    Both map edge flows of shape (..., E) to an array of that shape.
    Polynomial edges are evaluated by Horner, highest coefficient first,
    over a zero-padded coefficient matrix, the marginal over the
    coefficients (k + 1) * a_k of x * c(x).  Table edges are priced all at
    once, over a breakpoint matrix padded with +inf: a table holds its first
    value up to its first point, interpolates between points and extends its
    last slope beyond its last point; its marginal c(x) + x * slope takes
    the slope to the right of x, 0 before the first point.  `along` gives
    the derivative of the objective along a move, a polynomial in the step
    on polynomial edges.
    """

    def __init__(self, costs: Sequence[PolyCost | PwlCost]) -> None:
        self.poly = np.flatnonzero([isinstance(c, PolyCost) for c in costs])
        width = max([2] + [len(costs[e].coeffs) for e in self.poly])
        coeffs = np.zeros((len(self.poly), width))
        for row, e in enumerate(self.poly):
            coeffs[row, : len(costs[e].coeffs)] = costs[e].coeffs
        self.coeffs = coeffs
        self.marginal_coeffs = coeffs * np.arange(1, width + 1)

        tables = [(e, c.points) for e, c in enumerate(costs) if isinstance(c, PwlCost)]
        self.tables = np.array([e for e, _ in tables], dtype=np.intp)
        # one table a row: breakpoints padded with +inf, so that the count of
        # those below x never passes the table's end, and each segment's
        # rise, run and slope in the same column as its left end
        size = max([2] + [len(points) for _, points in tables])
        self.xs = np.full((len(tables), size), np.inf)
        self.ys = np.zeros((len(tables), size))
        self.rise = np.zeros((len(tables), size - 1))
        self.run = np.ones((len(tables), size - 1))
        self.last = np.array([len(points) - 2 for _, points in tables], dtype=np.intp)
        for row, (_, points) in enumerate(tables):
            xs, ys = np.array(points).T
            self.xs[row, : len(xs)], self.ys[row, : len(ys)] = xs, ys
            self.rise[row, : len(xs) - 1] = ys[1:] - ys[:-1]
            self.run[row, : len(xs) - 1] = xs[1:] - xs[:-1]
        self.slope = self.rise / self.run

    def cost(self, fe: np.ndarray) -> np.ndarray:
        return self._evaluate(fe, marginal=False)

    def marginal(self, fe: np.ndarray) -> np.ndarray:
        return self._evaluate(fe, marginal=True)

    def _evaluate(self, fe: np.ndarray, marginal: bool) -> np.ndarray:
        coeffs = self.marginal_coeffs if marginal else self.coeffs
        if not self.tables.size:
            return _horner(fe, coeffs)
        out = np.empty_like(fe)
        out[..., self.poly] = _horner(fe[..., self.poly], coeffs)
        out[..., self.tables] = self._price_tables(fe[..., self.tables], marginal)
        return out

    def _price_tables(self, x: np.ndarray, marginal: bool) -> np.ndarray:
        """Table row t priced at x[..., t]: on the segment k with
        xs[k] < x <= xs[k + 1] (the first up to the first point, the last
        beyond the table), c = ys[k] + t * rise[k] with
        t = (max(x, xs[0]) - xs[k]) / run[k], so the first value is held
        before the first point; the marginal adds x times the slope right of
        x, the segment with xs[k] <= x < xs[k + 1], and 0 before the first
        point."""
        rows = np.arange(len(self.tables))
        # the segment k with xs[k] < x <= xs[k + 1], the last one beyond
        # the table; up to the first point t = 0 holds the first value
        k = np.minimum(np.maximum((self.xs < x[..., None]).sum(axis=-1) - 1, 0), self.last)
        t = (np.maximum(x, self.xs[:, 0]) - self.xs[rows, k]) / self.run[rows, k]
        out = self.ys[rows, k] + t * self.rise[rows, k]
        if marginal:
            # the slope right of x: 0 before the first point
            k = (self.xs <= x[..., None]).sum(axis=-1) - 1
            slope = self.slope[rows, np.minimum(np.maximum(k, 0), self.last)]
            out += x * np.where(k < 0, 0.0, slope)
        return out

    def along(self, fe: np.ndarray, de: np.ndarray, marginal: bool):
        """phi'(gamma) = sum_e de_e * p_e(fe_e + gamma * de_e) along the move
        de from the edge flows fe, p_e the cost or the marginal.  Its value
        t0 = phi'(0) is minus the gap the caller has just priced, so it is
        not priced again here.

        On an affine network, every edge a polynomial of at most 2
        coefficients and none a table, phi' is the line t0 + gamma * T1, and
        its slope T1 = sum_e de_e**2 * slope_e is returned, the slope a_1 for
        the cost and 2 * a_1 for the marginal; `_line_search` takes the root
        in closed form.

        Otherwise phi' is returned as a function of the scalar gamma, which
        `_line_search` brackets by ITP.  On polynomial edges it is itself a
        polynomial in gamma of the costs' width: its coefficient of gamma**k
        is T_k = sum_e de_e**(k + 1) * c_k(e), with c_k(e) = p_e^(k)(fe_e) / k!
        the Taylor coefficients of row e at fe_e.  They come from a copy of
        the coefficient rows by repeated synthetic division,
        c_j += fe_e * c_{j + 1} for j from the top down, once per k, in one
        array pass per (k, j), so that each call is a scalar Horner.  Table
        edges are priced at each call by `_price_tables`, over their own
        columns only.

        Cancellation: with nonnegative coefficients and flows, the synthetic
        division adds nonnegative terms only, and the terms of the Taylor
        form sum in magnitude to S = sum_e |de_e| * p_e(fe_e + gamma * |de_e|),
        so its rounding error is at most about n * 2**-53 * S, n the number of
        roundings along one term (at most 3 * width + E).  The direct form's
        bound has fe_e + gamma * de_e in place of fe_e + gamma * |de_e|.  The
        two differ only where the move takes flow off an edge, de_e < 0; there
        |de_e| <= fe_e keeps the argument below 2 * fe_e, so the Taylor form
        loses at most a factor 2**degree against the edge's price at the
        start of the move.
        """
        coeffs = self.marginal_coeffs if marginal else self.coeffs
        if not self.tables.size and coeffs.shape[1] == 2:
            return float((de * de * coeffs[:, 1]).sum())
        x, taylor = fe[self.poly], coeffs.T.copy()
        for k in range(len(taylor) - 1):
            for j in range(len(taylor) - 2, k - 1, -1):
                taylor[j] += x * taylor[j + 1]
        powers = de[self.poly] ** np.arange(1.0, len(taylor) + 1)[:, None]
        terms = (taylor * powers).sum(axis=1).tolist()[::-1]

        def polynomial(gamma: float) -> float:
            acc = 0.0
            for c in terms:
                acc = acc * gamma + c
            return acc

        if not self.tables.size:
            return polynomial
        xt, dt = fe[self.tables], de[self.tables]

        def derivative(gamma: float) -> float:
            return polynomial(gamma) + float(
                np.dot(self._price_tables(xt + gamma * dt, marginal), dt)
            )

        return derivative


def _horner(x: np.ndarray, coeffs: np.ndarray) -> np.ndarray:
    """Row e of coeffs (lowest degree first, at least two columns) evaluated
    at x[..., e] in Horner order: acc = acc * x + a_j from the highest
    coefficient down."""
    acc = x * coeffs[:, -1]
    acc += coeffs[:, -2]
    for j in range(coeffs.shape[1] - 3, -1, -1):
        acc *= x
        acc += coeffs[:, j]
    return acc


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
        paths = [path for c in self.commodities for path in c.paths]
        incidence = np.zeros((len(paths), len(self.edges)))
        for row, path in enumerate(paths):
            for e in path:
                incidence[row, e] += 1.0
        incidence.flags.writeable = False
        object.__setattr__(self, "_incidence", incidence)

    def path_edge_matrix(self) -> np.ndarray:
        """0/1 incidence of paths (rows) on edges (columns), built once with
        the instance and read-only."""
        return self._incidence

    def edge_costs(self) -> EdgeCosts:
        """Vector evaluator of every edge's cost, built on first use."""
        if "_edge_costs" not in self.__dict__:
            object.__setattr__(self, "_edge_costs", EdgeCosts(self.costs))
        return self._edge_costs

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

    def convex_load_costs(self) -> bool:
        return all(c.is_convex_load_cost() for c in self.costs)

@dataclass(frozen=True)
class Flow:
    """Path-flow vector with derived edge flows and both cost forms."""

    inst: RoutingInstance
    path_flows: np.ndarray

    def edge_flows(self) -> np.ndarray:
        return self.inst.path_edge_matrix().T @ self.path_flows

    def path_costs(self) -> np.ndarray:
        return self.inst.path_edge_matrix() @ self.inst.edge_costs().cost(self.edge_flows())

    def cost(self) -> float:
        """Edge form of the total cost, sum_e c_e(f_e) * f_e."""
        fe = self.edge_flows()
        return float((self.inst.edge_costs().cost(fe) * fe).sum())


# -- conditional gradient -----------------------------------------------------


# half the width at which the line search stops: 2 * LINE_SEARCH_EPS = 2**-70
# is what 70 halvings of [0, 1] leave
LINE_SEARCH_EPS = 2.0**-71


def _line_search(t0: float, derivative) -> float:
    """Root on [0, 1] of a nondecreasing derivative that starts at t0 < 0,
    minus the gap: in closed form when it is a line, given as its slope T1
    by `EdgeCosts.along`, and by the ITP method when it is a function of the
    step.

    Returns 1 when the derivative at 1 is <= 0; on a line, t0 + T1 <= 0.  A
    line's root is otherwise -t0 / T1.  On a function it keeps a bracket with
    derivative <= 0 at its left end, t0 at 0 to start with, and > 0 at its
    right end, and stops once the ends are adjacent floats or at most
    2 * LINE_SEARCH_EPS apart.  Each step interpolates the root by
    regula falsi, truncates that point towards the midpoint by
    kappa1 * width**2, and projects it to within r of the midpoint, where r
    is the slack that still meets the bisection's worst case plus n0 steps
    (Oliveira and Takahashi, "An enhancement of the bisection method average
    performance preserving minmax optimality", ACM TOMS; kappa1 = 0.2 on
    the unit bracket, kappa2 = 2, n0 = 1).  So it never takes more than one
    step beyond bisection's count (71 on [0, 1]), and far fewer where the
    derivative is smooth.
    """
    if isinstance(derivative, float):
        return 1.0 if t0 + derivative <= 0 else -t0 / derivative
    lo, hi, y_lo = 0.0, 1.0, t0
    y_hi = derivative(hi)
    if y_hi <= 0:
        return hi
    kappa1 = 0.2
    n_max = math.ceil(math.log2(1 / (2 * LINE_SEARCH_EPS))) + 1
    for j in range(n_max):
        width = hi - lo
        mid = 0.5 * (lo + hi)
        if width <= 2 * LINE_SEARCH_EPS or mid == lo or mid == hi:
            break
        # interpolate, truncate towards the midpoint, project within r of it
        x = lo - y_lo * (width / (y_hi - y_lo))
        delta = kappa1 * width * width
        sigma = 1.0 if mid >= x else -1.0
        x = x + sigma * delta if delta <= abs(mid - x) else mid
        r = math.ldexp(LINE_SEARCH_EPS, n_max - j) - 0.5 * width
        if abs(x - mid) > r:
            x = mid - sigma * r
        # a step below the float spacing still moves one float off the ends
        x = min(max(x, math.nextafter(lo, hi)), math.nextafter(hi, lo))
        y = derivative(x)
        if y > 0:
            hi, y_hi = x, y
        else:
            lo, y_lo = x, y
    return 0.5 * (lo + hi)


def _conditional_gradient(
    inst: RoutingInstance,
    marginal: bool,
    allowed: Sequence[Sequence[int]] | None,
    tol: float,
    max_iter: int,
) -> np.ndarray:
    """Minimise a convex separable objective over the path-flow polytope.

    The objective's derivative wrt each edge flow is c_e for the equilibrium
    potential and, with `marginal`, the marginal cost for the total cost.
    `allowed` optionally restricts each commodity to a path subset.
    The relative gap compares the current pricing of the flow against the
    all-or-nothing assignment onto cheapest allowed paths (ties to the
    lowest path index).  Each step moves towards that assignment by the
    `_line_search` root of the objective's derivative along the move, which
    `EdgeCosts.along` builds once per step and which starts at minus the
    gap, best_total - current.  A gap above tol >= 0 keeps that start below
    0, so a tol below 0, or NaN, is refused with BadParams.
    """
    if not tol >= 0:
        raise BadParams(f"the gap tolerance must be a number >= 0, not {tol}")
    costs = inst.edge_costs()
    price = costs.marginal if marginal else costs.cost
    incidence = inst.path_edge_matrix()
    slices = inst.commodity_slices()
    if allowed is None:
        allowed = [list(range(len(c.paths))) for c in inst.commodities]

    f = np.zeros(incidence.shape[0])
    for ci, (c, sl) in enumerate(zip(inst.commodities, slices)):
        f[sl.start + allowed[ci][0]] = c.rate
    rates = [c.rate for c in inst.commodities]
    # row ci: commodity ci's allowed path rows in increasing order, so that
    # argmin breaks ties towards the lowest path index, padded with the
    # index of the last price, which stays +inf
    choices = np.full((len(slices), max(len(a) for a in allowed)), len(f))
    for ci, (sl, paths) in enumerate(zip(slices, allowed)):
        choices[ci, : len(paths)] = sl.start + np.sort(paths)
    commodity = np.arange(len(slices))
    path_prices = np.full(len(f) + 1, np.inf)

    rel_gap = math.inf
    for _ in range(max_iter):
        fe = incidence.T @ f
        path_prices[:-1] = incidence @ price(fe)
        offered = path_prices[choices]
        pick = np.argmin(offered, axis=1)
        current = float(np.dot(path_prices[:-1], f))
        best_total = 0.0
        for cheapest, rate in zip(offered[commodity, pick].tolist(), rates):
            best_total += cheapest * rate
        rel_gap = (current - best_total) / max(abs(current), 1e-30)
        if rel_gap <= tol:
            return f
        # the move onto the cheapest allowed paths, y - f
        direction = -f
        direction[choices[commodity, pick]] += rates
        # the line search works on edge flows: fe + gamma * de
        de = incidence.T @ direction
        step = _line_search(best_total - current, costs.along(fe, de, marginal))
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
    flows = _conditional_gradient(inst, False, None, tol, max_iter)
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
    flows = _conditional_gradient(inst, True, allowed, tol, max_iter)
    return Flow(inst, flows)


# -- transitions of equilibrium flows ----------------------------------------


SUPPORT_REL_TOL = 1e-6


def supported_paths(inst: RoutingInstance, eq: Flow) -> dict:
    """Per-commodity paths that can carry positive equilibrium flow.

    Criterion: the path's cost at the equilibrium edge flows equals the
    commodity's minimum path cost (within SUPPORT_REL_TOL, scaled to the
    cost magnitude), or the path carries more than FEASIBILITY_TOL times the
    commodity's rate.  Exact when each commodity's paths are pairwise
    edge-disjoint; in general the criterion is necessary but possibly not
    sufficient, which the `exact` flag reports.  `off_cheapest` lists the
    (commodity, path) pairs that carry flow without being among the
    cheapest, as a solve stopped at a loose gap can leave them.
    """
    costs = eq.path_costs()
    slices = inst.commodity_slices()
    per_commodity, off_cheapest = [], []
    for ci, (c, sl) in enumerate(zip(inst.commodities, slices)):
        vals = costs[sl]
        floor = float(np.min(vals))
        cheapest = vals <= floor + SUPPORT_REL_TOL * max(1.0, abs(floor))
        carries = eq.path_flows[sl] > FEASIBILITY_TOL * c.rate
        per_commodity.append(np.flatnonzero(cheapest | carries).tolist())
        off_cheapest += [(ci, p) for p in np.flatnonzero(carries & ~cheapest).tolist()]
    return {
        "paths": per_commodity,
        "exact": inst.edge_disjoint_paths_per_commodity(),
        "off_cheapest": off_cheapest,
    }


# supported-path vertices priced per array pass.  The pass holds a few
# (VERTEX_BLOCK, E) float arrays whatever the vertex count: at 128 it peaks
# at about 0.1 MB on fig2_family(11, 3) and 0.2 MB on fig2_family(16, 4)
VERTEX_BLOCK = 128


def _worst_vertex(
    inst: RoutingInstance, allowed: Sequence[Sequence[int]]
) -> tuple[float, np.ndarray]:
    """Cost and path flows of the first costliest vertex of the restricted
    polytope (each commodity on one allowed path), in `itertools.product`
    order of `allowed`."""
    incidence = inst.path_edge_matrix()
    slices = inst.commodity_slices()
    costs = inst.edge_costs()
    # loads[k][j]: the edge flows of commodity k alone on its j-th allowed path
    loads = [
        c.rate * incidence[sl.start + np.asarray(paths)]
        for c, sl, paths in zip(inst.commodities, slices, allowed)
    ]
    n_vertices = math.prod(len(paths) for paths in allowed)
    worst, worst_at = None, 0
    for start in range(0, n_vertices, VERTEX_BLOCK):
        # mixed-radix digits of the block's vertex numbers, last commodity fastest
        block = np.arange(start, min(start + VERTEX_BLOCK, n_vertices))
        picks, rest = [], block
        for paths in reversed(allowed):
            rest, pick = np.divmod(rest, len(paths))
            picks.append(pick)
        fe = np.zeros((len(block), len(inst.edges)))
        for load, pick in zip(loads, reversed(picks)):
            fe += load[pick]
        vertex_costs = (costs.cost(fe) * fe).sum(axis=1)
        best = int(np.argmax(vertex_costs))
        if worst is None or vertex_costs[best] > worst:
            worst, worst_at = float(vertex_costs[best]), start + best

    flows = np.zeros(incidence.shape[0])
    for c, sl, paths in zip(reversed(inst.commodities), reversed(slices), reversed(allowed)):
        worst_at, pick = divmod(worst_at, len(paths))
        flows[sl.start + paths[pick]] = c.rate
    return worst, flows


def transition_costs(inst: RoutingInstance, tol: float = DEFAULT_TOL) -> dict:
    """Worst and best transition costs, the optimum, and both price ratios.

    The optimum is the cheapest feasible flow over all paths.  The worst
    transition is maximised over vertices of the supported-path polytope,
    which is exact when every x * c_e(x) is convex; otherwise the vertex
    maximum is only a lower bound and is flagged.  The best transition is
    the cheapest flow restricted to supported paths; when every path is
    supported it is the optimum, solved once.  `off_cheapest` passes on the
    paths that carry equilibrium flow without being among the cheapest.
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
    worst, worst_flow = _worst_vertex(inst, allowed)

    best_flow = min_cost_flow(inst, allowed, tol)
    # with every path supported the restriction is none: the solve over all
    # paths would start from the same flow and take the same steps
    if all(len(a) == len(c.paths) for a, c in zip(allowed, inst.commodities)):
        opt_flow = best_flow
    else:
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
        "off_cheapest": sup["off_cheapest"],
        "worst_cost": worst,
        "worst_flow": Flow(inst, worst_flow),
        "worst_exact": convex,
        "best_cost": best,
        "optimum_cost": opt,
        "poa": ratio(eq_cost),
        "pota": ratio(worst),
        "pots": ratio(best),
    }


# -- stretch bound -------------------------------------------------------------


def stretch_bound(inst: RoutingInstance, prices: dict) -> dict:
    """Per-commodity stretch values and the anarchy-ratio cap they imply.

    For commodity i with demand r_i, the stretch compares the longest path
    priced at the supremum cost under the full network load against the
    shortest path priced at the infimum cost under r_i / |paths_i|, over the
    multiset of the instance's edge cost functions.  The measured
    pota / poa, read from `prices` (the `transition_costs` result of
    `inst`), never exceeds the largest stretch; when an infimum term is zero
    the bound is infinite, `degenerate` is set and the assertion is vacuous.
    """
    # row 0 prices every edge at the full load, row i + 1 at commodity i's
    # even split, all in one call
    loads = [inst.total_demand()] + [c.rate / len(c.paths) for c in inst.commodities]
    prices_at = inst.edge_costs().cost(np.outer(loads, np.ones(len(inst.edges))))
    sup_term = prices_at[0].max().item()
    out_s = []
    degenerate = False
    for c, inf_term in zip(inst.commodities, prices_at[1:].min(axis=1).tolist()):
        lens = [len(p) for p in c.paths]
        if inf_term <= 0:
            degenerate = True
            out_s.append(math.inf)
        else:
            out_s.append(max(lens) * sup_term / (min(lens) * inf_term))

    cap = max(out_s)
    ratio = prices["pota"] / prices["poa"]
    return {
        "stretch": out_s,
        "cap": cap,
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

