"""Two-colour coordination games on graphs.

Players are nodes; a node's utility is how many neighbours share its
colour.  Monochromatic colourings are always equilibria, so the transition
set of the equilibria is everything and the interesting object is the
stable transitions: every non-best-responding node needs a neighbour whose
own best-response flip repairs it.  For two colours that boils down to
per-node threshold counting, which keeps every check combinatorial; the
dense game tensor is built only on demand for cross-validation.
"""

from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator, Sequence

import numpy as np

from .errors import (
    NotTwoColour,
    ParseError,
    PreconditionFailed,
    TooLarge,
    TopologyMismatch,
    UndefinedPrice,
)
from .games import Game, profile_cap

F = Fraction

Coloring = tuple[int, ...]

DEFAULT_COLOURS = (1, 2)

_SWEEP_BLOCK = 1 << 12  # colourings per block: under a megabyte of arrays


@dataclass(frozen=True)
class GraphColoringInstance:
    """Undirected simple graph with per-node colour menus (default {1, 2})."""

    n_nodes: int
    edges: tuple[tuple[int, int], ...]
    colors: tuple[tuple[int, ...], ...] | None = None

    def __post_init__(self) -> None:
        if self.n_nodes < 1:
            raise ParseError("need at least one node")
        seen = set()
        for u, v in self.edges:
            if u == v:
                raise ParseError(f"self-loop at node {u}")
            if not (0 <= u < self.n_nodes and 0 <= v < self.n_nodes):
                raise ParseError(f"edge ({u}, {v}) out of range")
            key = (min(u, v), max(u, v))
            if key in seen:
                raise ParseError(f"duplicate edge {key}")
            seen.add(key)
        if self.colors is not None:
            if len(self.colors) != self.n_nodes:
                raise ParseError("one colour menu per node required")
            if any(len(menu) == 0 for menu in self.colors):
                raise ParseError("colour menus must be nonempty")
        adj: list[list[int]] = [[] for _ in range(self.n_nodes)]
        for u, v in self.edges:
            adj[u].append(v)
            adj[v].append(u)
        # built once; every check reads it through neighbors()
        object.__setattr__(self, "_adj", tuple(tuple(a) for a in adj))

    def menus(self) -> tuple[tuple[int, ...], ...]:
        if self.colors is None:
            return tuple(DEFAULT_COLOURS for _ in range(self.n_nodes))
        return self.colors

    def neighbors(self) -> tuple[tuple[int, ...], ...]:
        return self._adj

    def degree(self, node: int) -> int:
        return len(self._adj[node])

    def validate_coloring(self, col: Sequence[int]) -> Coloring:
        menus = self.menus()
        t = tuple(col)
        if len(t) != self.n_nodes or any(
            t[i] not in menus[i] for i in range(self.n_nodes)
        ):
            raise ParseError(f"invalid colouring {col!r}")
        return t

    def colorings(self) -> Iterator[Coloring]:
        return itertools.product(*self.menus())

    def num_colorings(self) -> int:
        return math.prod(len(m) for m in self.menus())


def utilities(inst: GraphColoringInstance, col: Sequence[int]) -> list[int]:
    adj = inst.neighbors()
    return [sum(1 for j in adj[i] if col[j] == col[i]) for i in range(inst.n_nodes)]


def social_welfare(inst: GraphColoringInstance, col: Sequence[int]) -> int:
    return sum(utilities(inst, col))


def coordination_to_game(inst: GraphColoringInstance, cap: int | None = None) -> Game:
    """Dense strategic-form view; refuse beyond the profile cap."""
    limit = cap if cap is not None else profile_cap()
    if inst.num_colorings() > limit:
        raise TooLarge(
            f"{inst.num_colorings()} colourings exceed the cap {limit}"
        )
    menus = inst.menus()

    def pay(s: Sequence[int]) -> tuple[Fraction, ...]:
        col = [menus[i][s[i]] for i in range(inst.n_nodes)]
        return tuple(F(u) for u in utilities(inst, col))

    return Game.from_function(
        tuple(len(m) for m in menus),
        pay,
        strategies=tuple(tuple(str(c) for c in m) for m in menus),
    )


def best_colour_set(inst: GraphColoringInstance, col: Sequence[int], i: int) -> set[int]:
    """Colours maximising i's agreement count, holding everyone else fixed."""
    adj = inst.neighbors()
    menus = inst.menus()
    counts = {c: sum(1 for j in adj[i] if col[j] == c) for c in menus[i]}
    top = max(counts.values())
    return {c for c, v in counts.items() if v == top}


def is_ne_coloring(inst: GraphColoringInstance, col: Sequence[int]) -> bool:
    c = inst.validate_coloring(col)
    return all(c[i] in best_colour_set(inst, c, i) for i in range(inst.n_nodes))


def st_floor(deg: int) -> int:
    """Minimum same-colour neighbours any stable-transition node must keep."""
    return (deg - 1) // 2


def ne_floor(deg: int) -> int:
    """Minimum same-colour neighbours of a best-responding node."""
    return (deg + 1) // 2


def check_stable_transition_fast(inst: GraphColoringInstance, col: Sequence[int]) -> bool:
    """Threshold test for two-colour instances.

    Reject when any node keeps fewer than floor((deg-1)/2) same-colour
    neighbours; a node sitting exactly at that floor is one agreement short
    of best-responding and needs an oppositely coloured neighbour that is
    itself not best responding (that neighbour's only best response is to
    flip toward the node, which is also the only single flip that can help).
    """
    menus = inst.menus()
    if any(len(m) != 2 for m in menus):
        raise NotTwoColour("fast check needs exactly two colours per node")
    c = inst.validate_coloring(col)
    adj = inst.neighbors()
    same = utilities(inst, c)
    for i in range(inst.n_nodes):
        deg = len(adj[i])
        floor_i = st_floor(deg)
        if same[i] < floor_i:
            return False
        if same[i] == floor_i:
            helped = False
            for j in adj[i]:
                if c[j] != c[i] and same[j] < ne_floor(len(adj[j])):
                    helped = True
                    break
            if not helped:
                return False
    return True


def check_stable_transition_exact(
    inst: GraphColoringInstance, col: Sequence[int], variant: str = "strict"
) -> bool:
    """Direct evaluation of the stable-transition condition on the graph.

    Combinatorial equivalent of the strategic-form membership test: only a
    neighbour's flip changes a node's agreement counts, so helper search is
    restricted to the neighbourhood.
    """
    if variant not in ("strict", "weak"):
        raise ParseError(f"unknown variant {variant!r}")
    c = inst.validate_coloring(col)
    adj = inst.neighbors()
    for i in range(inst.n_nodes):
        best_i = best_colour_set(inst, c, i)
        if c[i] in best_i:
            continue
        if not _graph_helper(inst, c, i, adj, variant):
            return False
    return True


def _graph_helper(inst, c, i, adj, variant) -> bool:
    for j in adj[i]:
        best_j = best_colour_set(inst, c, j)
        if variant == "strict" and c[j] in best_j:
            continue
        for alt in sorted(best_j):
            if alt == c[j]:
                continue
            shifted = list(c)
            shifted[j] = alt
            if c[i] in best_colour_set(inst, shifted, i):
                return True
    return False


def stable_transitions(
    inst: GraphColoringInstance, variant: str = "strict", method: str = "exact"
) -> Iterator[Coloring]:
    check = (
        check_stable_transition_fast
        if method == "fast"
        else lambda g, c: check_stable_transition_exact(g, c, variant)
    )
    for col in inst.colorings():
        if check(inst, col):
            yield col


# -- constructions -----------------------------------------------------------


def _is_cycle(inst: GraphColoringInstance) -> bool:
    if inst.n_nodes < 3 or len(inst.edges) != inst.n_nodes:
        return False
    adj = inst.neighbors()
    if any(len(a) != 2 for a in adj):
        return False
    seen = {0}
    at, prev = adj[0][0], 0
    while at not in seen:
        seen.add(at)
        nxt = [x for x in adj[at] if x != prev]
        prev, at = at, nxt[0]
    return len(seen) == inst.n_nodes


def _is_clique(inst: GraphColoringInstance) -> bool:
    n = inst.n_nodes
    return len(inst.edges) == n * (n - 1) // 2 and n >= 2


def _forest_components(inst: GraphColoringInstance) -> list[list[int]] | None:
    adj = inst.neighbors()
    seen = [False] * inst.n_nodes
    comps = []
    for start in range(inst.n_nodes):
        if seen[start]:
            continue
        comp = []
        stack = [(start, -1)]
        seen[start] = True
        while stack:
            node, parent = stack.pop()
            comp.append(node)
            for j in adj[node]:
                if j == parent:
                    continue
                if seen[j]:
                    return None  # back edge: a cycle
                seen[j] = True
                stack.append((j, node))
        comps.append(comp)
    return comps


def _cycle_order(inst: GraphColoringInstance) -> list[int]:
    adj = inst.neighbors()
    order = [0, adj[0][0]]
    while len(order) < inst.n_nodes:
        nxt = [x for x in adj[order[-1]] if x != order[-2]]
        order.append(nxt[0])
    return order


def construct_st_not_ne(
    inst: GraphColoringInstance, topology: str
) -> Coloring | None:
    """Deterministic stable-transition-not-equilibrium colouring.

    cycle:  alternate colours around the cycle (length >= 4; any two
            adjacent non-best-responders repair each other).
    clique: half the nodes in each colour; possible iff the order is even
            (odd cliques tie their minority nodes into best responses).
    forest: root each tree with an edge at a maximum-degree node, leave the
            root one agreement short, and plant a matching deficiency in its
            first opposite-coloured child; all other nodes copy their
            parent.  Isolated-node forests admit none.
    """
    menus = inst.menus()
    if any(len(m) != 2 for m in menus) or len(set(menus)) != 1:
        raise NotTwoColour("constructions assume one shared two-colour menu")

    if topology == "cycle":
        if not _is_cycle(inst):
            raise TopologyMismatch("graph is not a single cycle")
        if inst.n_nodes < 4:
            return None  # a triangle is the odd clique on three nodes
        col = [0] * inst.n_nodes
        for pos, node in enumerate(_cycle_order(inst)):
            col[node] = menus[node][pos % 2]
        return tuple(col)

    if topology == "clique":
        if not _is_clique(inst):
            raise TopologyMismatch("graph is not complete")
        n = inst.n_nodes
        if n % 2 == 1:
            return None
        return tuple(menus[i][0] if i < n // 2 else menus[i][1] for i in range(n))

    if topology == "forest":
        comps = _forest_components(inst)
        if comps is None:
            raise TopologyMismatch("graph contains a cycle")
        adj = inst.neighbors()
        target = None
        for comp in comps:
            if any(adj[v] for v in comp):
                target = comp
                break
        if target is None:
            return None
        root = max(target, key=lambda v: (len(adj[v]), -v))
        col: dict[int, int] = {}
        first, second = menus[root]
        col[root] = first

        children = sorted(adj[root])
        keep = st_floor(len(children) + 0)  # root degree
        same_children = children[:keep]
        diff_children = children[keep:]
        helper = diff_children[0]
        for v in same_children:
            col[v] = first
        for v in diff_children:
            col[v] = second

        # helper keeps exactly floor((deg-1)/2) same-colour (second-colour)
        # children; its remaining children take the root's colour
        hkids = sorted(x for x in adj[helper] if x != root)
        hkeep = st_floor(len(hkids) + 1)
        for v in hkids[:hkeep]:
            col[v] = second
        for v in hkids[hkeep:]:
            col[v] = first

        # everything deeper copies its parent; other components go mono
        frontier = [(x, v) for v in hkids for x in adj[v] if x != helper] + [
            (x, v) for v in children if v != helper for x in adj[v] if x != root
        ]
        while frontier:
            node, parent = frontier.pop()
            if node in col:
                continue
            col[node] = col[parent]
            frontier.extend((x, node) for x in adj[node] if x != parent)
        for v in range(inst.n_nodes):
            col.setdefault(v, menus[v][0])
        out = tuple(col[v] for v in range(inst.n_nodes))
        return inst.validate_coloring(out)

    raise TopologyMismatch(f"unknown topology {topology!r}")


# -- efficiency -----------------------------------------------------------------


def _colouring_sweep(inst: GraphColoringInstance) -> tuple[int, int, int]:
    """(best welfare, worst equilibrium, worst stable transition) over every
    colouring of a two-colour instance, in one bitmask sweep.

    Bit i of a colouring picks node i's second menu colour; blocks of
    colourings are swept as integer arrays.  Agreement is counted by colour
    value, so menus may differ: agree[i][b] = (m0, m1) holds the neighbours
    whose first, resp. second, colour is i's colour b, and the neighbours
    sharing it are (m0 & ~col) | (m1 & col).  Stability follows
    `check_stable_transition_fast` (the st_floor/ne_floor thresholds; a
    helper holds another colour), equilibrium `is_ne_coloring` (i's own
    colour is held by at least as many neighbours as its other one).  An
    empty class reports 2|E| + 1.
    """
    n = inst.n_nodes
    menus = inst.menus()
    adj = inst.neighbors()
    agree = [[tuple(sum(1 << j for j in adj[i] if menus[j][k] == menus[i][b])
                    for k in (0, 1)) for b in (0, 1)] for i in range(n)]
    adj_mask = [sum(1 << j for j in adj[i]) for i in range(n)]
    best, worst_ne, worst_st = 0, 2 * len(inst.edges) + 1, 2 * len(inst.edges) + 1
    for lo in range(0, 1 << n, _SWEEP_BLOCK):
        col = np.arange(lo, min(lo + _SWEEP_BLOCK, 1 << n), dtype=np.int64)
        sharing, same = [], []
        ne = np.ones(col.shape, dtype=bool)
        for i, ((a0, a1), (b0, b1)) in enumerate(agree):
            bit = ((col >> i) & 1).astype(bool)
            first, second = (a0 & ~col) | (a1 & col), (b0 & ~col) | (b1 & col)
            sharing.append(np.where(bit, second, first))
            same.append(np.bitwise_count(sharing[i]))
            ne &= same[i] >= np.bitwise_count(np.where(bit, first, second))
        deficient = sum((same[j] < ne_floor(len(adj[j]))).astype(np.int64) << j
                        for j in range(n))
        stable = np.ones(col.shape, dtype=bool)
        for i in range(n):
            floor_i = st_floor(len(adj[i]))
            helped = (adj_mask[i] & ~sharing[i] & deficient) != 0
            stable &= (same[i] > floor_i) | ((same[i] == floor_i) & helped)
        welfare = np.sum(same, axis=0, dtype=np.int64)
        best = max(best, int(welfare.max()))
        worst_st = int(welfare.min(initial=worst_st, where=stable))
        worst_ne = int(welfare.min(initial=worst_ne, where=stable & ne))
    return best, worst_ne, worst_st


def efficiency_bounds(inst: GraphColoringInstance, cap: int | None = None) -> dict:
    """Exhaustive anarchy bounds for two-colour coordination games.

    The bounds assume a colouring that agrees on every edge (a monochromatic
    one when every menu holds a shared colour), so that the optimum equals
    twice the edge count; PreconditionFailed is raised when none exists.
    The worst equilibrium keeps half of it and the worst stable transition
    all but one agreement per node.  The colourings, at most `cap` (default
    `profile_cap()`), are swept once by `_colouring_sweep`; nodes may have
    different two-colour menus.
    """
    limit = cap if cap is not None else profile_cap()
    if inst.num_colorings() > limit:
        raise TooLarge("too many colourings to enumerate")
    if not inst.edges:
        raise UndefinedPrice("edgeless graphs have zero optimal welfare")
    if any(len(m) != 2 for m in inst.menus()):
        raise NotTwoColour("bounds are stated for two-colour instances")

    n, e = inst.n_nodes, len(inst.edges)
    max_sw = 2 * e
    best_sw, worst_ne, worst_st = _colouring_sweep(inst)
    if best_sw != max_sw:
        raise PreconditionFailed(
            "no colouring agrees on every edge, so the optimum is not 2|E|"
        )

    poa = F(worst_ne, max_sw)
    posta = F(worst_st, max_sw)
    poa_bound = F(1, 2)
    posta_bound = F(1, 2) - F(n, 2 * e)
    return {
        "nodes": n,
        "edges": e,
        "max_welfare": max_sw,
        "poa": poa,
        "posta": posta,
        "poa_bound": poa_bound,
        "posta_bound": posta_bound,
        "poa_holds": poa >= poa_bound,
        "posta_holds": posta >= posta_bound,
    }


def audit_instance(inst: GraphColoringInstance) -> dict:
    """`efficiency_bounds` capped at 24 nodes instead of by the profile cap,
    without the node and edge counts; checks the menus first."""
    if any(len(m) != 2 for m in inst.menus()):
        raise NotTwoColour("the audit sweep assumes two colours per node")
    if not inst.edges:
        raise UndefinedPrice("edgeless graphs have zero optimal welfare")
    if inst.n_nodes > 24:
        raise TooLarge("audit sweep is capped at 24 nodes")
    out = efficiency_bounds(inst, cap=1 << 24)
    return {k: v for k, v in out.items() if k not in ("nodes", "edges")}


def observation5_violations(inst: GraphColoringInstance) -> dict:
    """Exhaustively check the per-node floors on every ST and NE colouring.

    Stability is decided by the direct defining condition (not the
    threshold procedure, which enforces the floors by construction and
    would make the check circular).
    """
    adj = inst.neighbors()
    st_bad = []
    ne_bad = []
    for col in inst.colorings():
        same = utilities(inst, col)
        if check_stable_transition_exact(inst, col, "strict"):
            if any(same[i] < st_floor(len(adj[i])) for i in range(inst.n_nodes)):
                st_bad.append(col)
        if is_ne_coloring(inst, col):
            if any(same[i] < ne_floor(len(adj[i])) for i in range(inst.n_nodes)):
                ne_bad.append(col)
    return {"stable": st_bad, "equilibria": ne_bad}


# -- graph builders ---------------------------------------------------------------


def cycle_graph(n: int) -> GraphColoringInstance:
    if n < 3:
        raise ParseError("cycles need at least three nodes")
    return GraphColoringInstance(n, tuple((i, (i + 1) % n) for i in range(n)))


def clique_graph(n: int) -> GraphColoringInstance:
    return GraphColoringInstance(
        n, tuple((i, j) for i in range(n) for j in range(i + 1, n))
    )


def star_graph(n: int) -> GraphColoringInstance:
    if n < 2:
        raise ParseError("stars need at least two nodes")
    return GraphColoringInstance(n, tuple((0, i) for i in range(1, n)))


def path_graph(n: int) -> GraphColoringInstance:
    return GraphColoringInstance(n, tuple((i, i + 1) for i in range(n - 1)))


def random_tree_edges(rng: random.Random, nodes: Sequence[int]) -> list[tuple[int, int]]:
    """Uniform labelled tree on the given nodes via a random attachment chain."""
    order = list(nodes)
    rng.shuffle(order)
    edges = []
    for k in range(1, len(order)):
        edges.append((order[k], order[rng.randrange(k)]))
    return edges


def random_forest(
    rng: random.Random, n: int, parts: int | None = None
) -> GraphColoringInstance:
    if parts is None:
        parts = rng.randint(1, max(1, n // 3))
    nodes = list(range(n))
    rng.shuffle(nodes)
    cuts = sorted(rng.sample(range(1, n), parts - 1)) if parts > 1 else []
    edges: list[tuple[int, int]] = []
    start = 0
    for cut in cuts + [n]:
        chunk = nodes[start:cut]
        if len(chunk) > 1:
            edges.extend(random_tree_edges(rng, chunk))
        start = cut
    return GraphColoringInstance(n, tuple(edges))


def random_graph(rng: random.Random, n: int, p: float = 0.4) -> GraphColoringInstance:
    edges = [
        (i, j)
        for i in range(n)
        for j in range(i + 1, n)
        if rng.random() < p
    ]
    return GraphColoringInstance(n, tuple(edges))
