"""Two-colour coordination games on graphs.

Players are nodes; a node's utility is how many neighbours share its
colour.  Monochromatic colourings are always equilibria, so the transition
set of the equilibria is everything and the interesting object is the
stable transitions: every non-best-responding node needs a neighbour whose
own best-response flip repairs it.  When every menu holds the same two
colours that boils down to per-node threshold counting, which one array
kernel does for blocks of colourings at once.  The anarchy bounds sweep
each connected component on its own, over the half of its colourings that
hold its largest node at the first colour; the dense game tensor is built only
on demand for cross-validation.
"""

from __future__ import annotations

import contextlib
import functools
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
    TooLarge,
    TopologyMismatch,
    UndefinedPrice,
)
from .games import Game, profile_cap

F = Fraction

Coloring = tuple[int, ...]

DEFAULT_COLOURS = (1, 2)

_SWEEP_BLOCK = 1 << 12  # colourings per block: under a megabyte of arrays

_KERNEL_NODES = 63  # colourings are int64 bitmasks and bit 63 is the sign


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

    @functools.cached_property
    def _adj(self) -> tuple[tuple[int, ...], ...]:
        # built on first use, so a graph refused by size never allocates it
        adj: list[list[int]] = [[] for _ in range(self.n_nodes)]
        for u, v in self.edges:
            adj[u].append(v)
            adj[v].append(u)
        return tuple(tuple(a) for a in adj)

    @functools.cached_property
    def _played(self) -> tuple[tuple[int, ...], ...]:
        """Per node, the colours it holds in some equilibrium colouring, so
        a colouring is a transition of the equilibria exactly when each
        node's colour is among its own.  On one shared colour pair both
        monochromatic colourings are equilibria, so these are the menus,
        read without enumerating."""
        with contextlib.suppress(NotTwoColour):
            _shared_pair(self)
            return self.menus()
        return _equilibrium_colours(self)

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

    def colorings_exceed(self, cap: int) -> bool:
        """Whether there are more than cap colourings.

        Multiplies the menu sizes only until the product passes cap, so a
        huge graph is refused in time linear in the nodes read.
        """
        count = 1
        for menu in self.menus():
            count *= len(menu)
            if count > cap:
                return True
        return False


def utilities(inst: GraphColoringInstance, col: Sequence[int]) -> list[int]:
    adj = inst.neighbors()
    return [sum(1 for j in adj[i] if col[j] == col[i]) for i in range(inst.n_nodes)]


def coordination_to_game(inst: GraphColoringInstance) -> Game:
    """Dense strategic-form view; refuse beyond the profile cap."""
    limit = profile_cap()
    if inst.colorings_exceed(limit):
        raise TooLarge(f"the colourings exceed the cap {limit}")
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


def _equilibrium_colours(inst: GraphColoringInstance) -> tuple[tuple[int, ...], ...]:
    """Per node, the colours it holds in some equilibrium colouring, from one
    sweep over every colouring, `_SWEEP_BLOCK` at a time: a colouring is an
    equilibrium when no node has a colour in its menu that more neighbours
    hold than hold its own.  Refused past the profile cap."""
    limit = profile_cap()
    if inst.colorings_exceed(limit):
        raise TooLarge(f"the colourings exceed the cap {limit}")
    menus, adj = inst.menus(), inst.neighbors()
    sizes = [len(menu) for menu in menus]
    total = math.prod(sizes)
    played: list[set[int]] = [set() for _ in menus]
    for lo in range(0, total, _SWEEP_BLOCK):
        picks = np.unravel_index(np.arange(lo, min(lo + _SWEEP_BLOCK, total)), sizes)
        cols = [np.array(menu)[p] for menu, p in zip(menus, picks)]
        ne = np.ones(len(cols[0]), dtype=bool)
        for i, menu in enumerate(menus):
            none = np.zeros(len(ne), dtype=np.intp)
            own = sum((cols[j] == cols[i] for j in adj[i]), none)
            for c in menu:
                ne &= own >= sum((cols[j] == c for j in adj[i]), none)
        for seen, col in zip(played, cols):
            seen.update(col[ne].tolist())
    return tuple(tuple(sorted(seen)) for seen in played)


def st_floor(deg: int) -> int:
    """Minimum same-colour neighbours any stable-transition node must keep."""
    return (deg - 1) // 2


def ne_floor(deg: int) -> int:
    """Minimum same-colour neighbours of a best-responding node."""
    return (deg + 1) // 2


def _shared_pair(inst: GraphColoringInstance) -> tuple[int, ...]:
    """The two colours every menu holds, in the first menu's order.

    The threshold rule and the anarchy bounds are stated for this domain:
    two nodes agree exactly when they hold the same colour of the pair.
    Any other menus raise NotTwoColour.
    """
    pair = inst.menus()[0]
    if len(set(pair)) != 2 or any(
        len(m) != 2 or set(m) != set(pair) for m in inst.menus()
    ):
        raise NotTwoColour("every colour menu must hold the same two colours")
    return pair


def _threshold_kernel(
    inst: GraphColoringInstance, cols: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(welfare, equilibrium, strict stability) of each colouring in `cols`.

    Bit i of an int64 colouring says that node i holds the second colour of
    the shared pair, so node i agrees with the neighbours whose bit equals
    its own.  A node best-responds when it agrees with more than st_floor
    of its neighbours (that is, with at least ne_floor of them).  A node
    that does not must keep exactly st_floor agreements and have a
    neighbour of the other colour that does not best-respond either: that
    neighbour's only best response is to flip toward the node, which is
    also the only single flip that can help.  So a node is stable when its
    agreements plus that help exceed st_floor.  On a shared pair this
    threshold rule is the definition: it equals
    `check_stable_transition_exact` (strict) and `is_ne_coloring`.
    """
    adj = inst.neighbors()
    if len(adj) > _KERNEL_NODES:
        raise TooLarge(f"the threshold kernel holds at most {_KERNEL_NODES} nodes")
    masks = [sum(1 << j for j in a) for a in adj]
    floors = [st_floor(len(a)) for a in adj]
    sharing, same = [], []
    short = np.zeros(cols.shape, dtype=np.int64)  # bit j: node j does not best-respond
    for i, mask in enumerate(masks):
        # bit - 1 is all ones for a first-colour node: xor turns every bit
        # into "holds node i's colour"
        sharing.append((cols ^ (((cols >> i) & 1) - 1)) & mask)
        same.append(np.bitwise_count(sharing[i]))
        short |= (same[i] <= floors[i]) * (1 << i)
    stable = np.ones(cols.shape, dtype=bool)
    for i, mask in enumerate(masks):
        helped = ((sharing[i] ^ mask) & short) != 0
        stable &= same[i] + helped > floors[i]
    return np.sum(same, axis=0, dtype=np.int64), short == 0, stable


def check_stable_transition_fast(inst: GraphColoringInstance, col: Sequence[int]) -> bool:
    """`_threshold_kernel`'s strict-stability verdict on one colouring.

    Raises NotTwoColour unless every menu holds the same two colours, and
    TooLarge beyond the kernel's node count.
    """
    pair = _shared_pair(inst)
    c = inst.validate_coloring(col)
    bits = sum(1 << i for i, x in enumerate(c) if x == pair[1])
    return bool(_threshold_kernel(inst, np.array([bits], dtype=np.int64))[2][0])


def check_stable_transition_exact(
    inst: GraphColoringInstance, col: Sequence[int], variant: str = "strict"
) -> bool:
    """Direct evaluation of stable-transition membership on the graph.

    Combinatorial equivalent of the strategic-form membership test: the
    colouring must be a transition of the equilibria, each node holding a
    colour it holds in some equilibrium, and only a neighbour's flip
    changes a node's agreement counts, so helper search is restricted to
    the neighbourhood.
    """
    if variant not in ("strict", "weak"):
        raise ParseError(f"unknown variant {variant!r}")
    c = inst.validate_coloring(col)
    # on default menus, one shared pair, every colouring is a transition
    if inst.colors is not None and any(x not in p for x, p in zip(c, inst._played)):
        return False
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
    inst: GraphColoringInstance, variant: str = "strict"
) -> Iterator[Coloring]:
    for col in inst.colorings():
        if check_stable_transition_exact(inst, col, variant):
            yield col


def is_stable_non_equilibrium(inst: GraphColoringInstance, col: Sequence[int]) -> bool:
    """What every construction must produce: a strictly stable transition
    that is not an equilibrium."""
    return check_stable_transition_exact(inst, col) and not is_ne_coloring(inst, col)


# -- constructions -----------------------------------------------------------


def _is_clique(inst: GraphColoringInstance) -> bool:
    n = inst.n_nodes
    return len(inst.edges) == n * (n - 1) // 2 and n >= 2


def _components(inst: GraphColoringInstance) -> list[list[int]]:
    """The connected components, each sorted, in order of their least node."""
    adj = inst.neighbors()
    seen = [False] * inst.n_nodes
    comps = []
    for start in range(inst.n_nodes):
        if seen[start]:
            continue
        seen[start] = True
        comp, stack = [], [start]
        while stack:
            node = stack.pop()
            comp.append(node)
            for j in adj[node]:
                if not seen[j]:
                    seen[j] = True
                    stack.append(j)
        comps.append(sorted(comp))
    return comps


def _cycle_order(inst: GraphColoringInstance) -> list[int] | None:
    """The nodes in walking order from node 0, or None unless the graph is
    a single cycle."""
    adj = inst.neighbors()
    if inst.n_nodes < 3 or any(len(a) != 2 for a in adj):
        return None
    order = [0, adj[0][0]]
    while True:
        nxt = next(x for x in adj[order[-1]] if x != order[-2])
        if nxt == 0:
            return order if len(order) == inst.n_nodes else None
        order.append(nxt)


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
    pair = _shared_pair(inst)
    first, second = pair

    if topology == "cycle":
        order = _cycle_order(inst)
        if order is None:
            raise TopologyMismatch("graph is not a single cycle")
        if inst.n_nodes < 4:
            return None  # a triangle is the odd clique on three nodes
        col = [0] * inst.n_nodes
        for pos, node in enumerate(order):
            col[node] = pair[pos % 2]
        return tuple(col)

    if topology == "clique":
        if not _is_clique(inst):
            raise TopologyMismatch("graph is not complete")
        n = inst.n_nodes
        if n % 2 == 1:
            return None
        return tuple(first if i < n // 2 else second for i in range(n))

    if topology == "forest":
        comps = _components(inst)
        if len(inst.edges) != inst.n_nodes - len(comps):
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

        # every node not planted above copies its parent; other components go mono
        stack = [(root, None)]
        while stack:
            node, parent = stack.pop()
            for x in adj[node]:
                if x != parent:
                    col.setdefault(x, col[node])
                    stack.append((x, node))
        for v in range(inst.n_nodes):
            col.setdefault(v, first)
        out = tuple(col[v] for v in range(inst.n_nodes))
        return inst.validate_coloring(out)

    raise TopologyMismatch(f"unknown topology {topology!r}")


# -- efficiency -----------------------------------------------------------------


def efficiency_bounds(inst: GraphColoringInstance) -> dict:
    """Exhaustive anarchy bounds for two-colour coordination games.

    Every menu must hold the same two colours (NotTwoColour otherwise), so
    a monochromatic colouring agrees on every edge and the optimum is twice
    the edge count.  The worst equilibrium keeps half of it and the worst
    stable transition all but one agreement per node.  The colourings, at
    most `profile_cap()`, are swept in blocks by `_threshold_kernel`, one
    connected component at a time and over half of each component's
    colourings; both shortcuts keep every minimum:

    - Components.  A colouring is a product of per-component colourings and
      its welfare the sum of theirs.  A node's best-response test reads only
      its neighbours, and its stability test only its neighbours and their
      best-response state, so both stay inside its component: the
      equilibria and the stable transitions are each a product of
      per-component sets.  Each of those sets is nonempty, since a
      monochromatic colouring is an equilibrium and stable, so each worst
      welfare is the sum of the per-component worsts.  An isolated node adds
      no welfare and never fails a test (`st_floor(0) = -1`), so it is not
      swept.
    - Colour swap.  Flipping the colour of every node of a component leaves
      each node's agreement count unchanged, hence its welfare, equilibrium
      test and stability test too.  So each component of k nodes, its
      nodes relabelled 0 to k - 1 in order, is swept over the 2**(k - 1)
      colourings that hold its largest node at the first colour (bit k - 1
      is 0).
    """
    if inst.colorings_exceed(profile_cap()):
        raise TooLarge("too many colourings to enumerate")
    if not inst.edges:
        raise UndefinedPrice("edgeless graphs have zero optimal welfare")
    _shared_pair(inst)

    n, e = inst.n_nodes, len(inst.edges)
    max_sw = 2 * e
    worst_ne = worst_st = 0
    for comp in _components(inst):
        if len(comp) == 1:
            continue
        index = {v: i for i, v in enumerate(comp)}
        part = GraphColoringInstance(len(comp), tuple(
            (index[u], index[v]) for u, v in inst.edges if u in index))
        half = 1 << (part.n_nodes - 1)
        part_ne = part_st = 2 * len(part.edges)
        for lo in range(0, half, _SWEEP_BLOCK):
            cols = np.arange(lo, min(lo + _SWEEP_BLOCK, half), dtype=np.int64)
            welfare, ne, stable = _threshold_kernel(part, cols)
            part_ne = int(welfare.min(initial=part_ne, where=ne))
            part_st = int(welfare.min(initial=part_st, where=stable))
        worst_ne += part_ne
        worst_st += part_st

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
