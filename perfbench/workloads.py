"""Inputs and operations of the benchmark's two workloads, games and networks.

Each builder takes the workload seed and a work directory, builds its inputs
with the program's own builders (`Game.from_function`, `congestion_to_game`,
`enumerate_pure_ne`, the routing and graph families and the `io.*_to_dict`
serialisers), writes them as JSON files and returns the operations of one
round.  An operation is one argument vector for `transit.cli.main`; it names
only the files written here.

The seed changes payoffs, slopes, rates and edges.  It never changes a size,
an equilibrium count, a supported-path vertex count or a colouring count:
seeded games differ from each other by payoff noise and by a relabelling of
strategies, so the work of a round hardly moves from seed to seed.

Builders import `transit` inside the function, because the runner imports
the package afresh for every set-up repetition.
"""

from __future__ import annotations

import itertools
import json
import random
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path


@dataclass
class Op:
    """One CLI call and what its checker needs.

    kind:   the checker that judges the output (see checks.CHECKERS).
    ref:    inputs of that checker: in-memory instances, file paths, and
            closed-form parameters.
    status: the exit status a correct run returns.
    """

    argv: list[str]
    kind: str
    ref: dict = field(default_factory=dict)
    status: int = 0


# the fewest whole rounds a timed or traced run makes; every workload has at
# least 32 operations a round, so every run has at least 96 operations
MIN_ROUNDS = 3


def _write(path: Path, doc: dict) -> str:
    with open(path, "w") as fh:
        json.dump(doc, fh)
    return str(path)


# -- games with a chosen equilibrium set ------------------------------------


def diagonal_code(n: int, k: int) -> list[tuple[int, ...]]:
    """k profiles, profile j playing strategy j for everyone (distance n)."""
    return [(j,) * n for j in range(k)]


def mod3_code() -> list[tuple[int, ...]]:
    """All nine (x, y, x + y mod 3): pairwise Hamming distance at least 2."""
    return [(x, y, (x + y) % 3) for x in range(3) for y in range(3)]


def planted_payoffs(rng, shape, code):
    """Payoff function whose pure equilibria are exactly the planted profiles.

    The planted profiles are `code` with every player's strategies relabelled
    by a seeded permutation.  Player i earns c_i for every coordinate in
    which a profile agrees with its nearest planted profile, plus noise below
    c_i, all scaled by K + 1 (K planted profiles) so that player 0 can carry
    a distinct tie-break 1..K on the planted profiles: the optimum is then a
    single planted profile on every seed.  Off the planted set the player
    stepping towards the nearest planted profile gains, and every deviation
    from a planted profile loses, provided planted profiles are at Hamming
    distance 2 or more.

    Returns (payoff function, planted profiles).
    """
    n = len(shape)
    perms = [rng.sample(range(k), k) for k in shape]
    planted = [tuple(perms[i][c[i]] for i in range(n)) for c in code]
    scale = len(planted) + 1
    rank = {p: j + 1 for j, p in enumerate(planted)}
    steps = [rng.randint(20, 40) for _ in range(n)]
    table = {}
    for s in itertools.product(*(range(k) for k in shape)):
        d = min(sum(a != b for a, b in zip(s, p)) for p in planted)
        vec = [scale * (steps[i] * (n - d) + rng.randrange(steps[i] - 1)) for i in range(n)]
        vec[0] += rank.get(s, 0)
        table[s] = tuple(vec)
    return table.__getitem__, planted


# -- limited ------------------------------------------------------------------


def limited(seed: int, work: Path) -> list[Op]:
    """Link-load congestion games with 24 to 120 equilibria."""
    from transit import io as tio
    from transit.congestion import CongestionGame, congestion_to_game
    from transit.games import enumerate_pure_ne

    rng = random.Random(f"limited:{seed}")
    ops: list[Op] = []

    def links(name, players, slopes, intercepts, equilibria):
        menu = tuple(frozenset([j]) for j in range(len(slopes)))
        tables = tuple(
            tuple(Fraction(a * k + b) for k in range(1, players + 1))
            for a, b in zip(slopes, intercepts)
        )
        cg = CongestionGame(players, len(slopes), (menu,) * players, tables)
        game = congestion_to_game(cg)
        ne = enumerate_pure_ne(game)
        if len(ne.members) != equilibria:
            raise RuntimeError(f"{name}: {len(ne.members)} equilibria, expected {equilibria}")
        gpath = _write(work / f"{name}.json", tio.game_to_dict(game))
        spath = _write(
            work / f"{name}.ne.json",
            {"game": f"{name}.json", "label": ne.label,
             "members": [list(m) for m in ne.members]},
        )
        return game, ne.members, gpath, spath

    def identical(count):
        a, b = rng.randint(1, 9), rng.randint(0, 9)
        return [a] * count, [b] * count

    def prices(game, gpath, variants, reference, closed_form=None):
        for variant in variants:
            argv = ["prices", gpath, "--ne"]
            if variant == "weak":
                argv += ["--stable", "weak"]
            ops.append(Op(argv, "prices", {
                "game": game, "variant": variant,
                "reference": reference, "closed_form": closed_form,
            }))

    def saturate(game, members, gpath, spath):
        ops.append(Op(["degree", gpath, spath, "--saturate"], "saturate",
                      {"members": members}))

    for tag in ("a", "b"):
        game, members, g, s = links(f"links-4x5{tag}", 4, *identical(5), 120)
        prices(game, g, ("strict", "weak"), "own")
        saturate(game, members, g, s)
    game, members, g, s = links("links-3x4", 3, *identical(4), 24)
    prices(game, g, ("strict", "weak"), "oracle")
    saturate(game, members, g, s)
    game, members, g, s = links("links-3x6", 3, *identical(6), 120)
    prices(game, g, ("strict", "weak"), "own")
    saturate(game, members, g, s)
    mixed = [rng.randint(10, 19) for _ in range(4)]
    game, members, g, s = links("links-4x4-mixed", 4, mixed, [rng.randint(0, 9)] * 4, 24)
    prices(game, g, ("strict", "weak"), "oracle")
    saturate(game, members, g, s)
    a = rng.randint(1, 9)
    game, members, g, s = links("links-4x4-pure", 4, [a] * 4, [0] * 4, 24)
    prices(game, g, ("strict", "weak"), "oracle", closed_form=4)
    game, members, g, s = links("links-5x5", 5, *identical(5), 120)
    saturate(game, members, g, s)
    ops.append(Op(["theorem", "2", "--n", "4"], "theorem2", {"n": 4}, status=1))
    return ops


# -- bounds -------------------------------------------------------------------

BOUNDS_GAMES = (
    ((7, 6), 5),
    ((3, 3, 3), 9),
    ((8, 7), 7),
    ((8, 8), 7),
    ((8, 8), 8),
    ((4, 4, 4), 4),
    ((5, 5, 5), 4),
    ((4, 6, 5), 4),
    ((6, 6, 5), 4),
    ((3, 5, 4, 6), 3),
    ((3, 3, 3, 3), 3),
    ((4, 3, 4, 3), 3),
    ((5, 5, 6), 5),
)


def bounds(seed: int, work: Path) -> list[Op]:
    """Utility games with 3 to 9 planted strict equilibria."""
    from transit import io as tio
    from transit.games import Game, enumerate_pure_ne

    rng = random.Random(f"bounds:{seed}")
    ops = []
    for shape, k in BOUNDS_GAMES:
        code = mod3_code() if k == 9 else diagonal_code(len(shape), k)
        func, planted = planted_payoffs(rng, shape, code)
        game = Game.from_function(shape, func)
        if sorted(enumerate_pure_ne(game).members) != sorted(planted):
            raise RuntimeError(f"bounds game {shape}: equilibria differ from the planted set")
        name = "bounds-" + "x".join(map(str, shape)) + f"-k{k}"
        path = _write(work / f"{name}.json", tio.game_to_dict(game))
        ops.append(Op(["bounds", path, "--ne"], "bounds", {"game": game}))
    return ops


# -- routing ------------------------------------------------------------------

# fixture name -> supported-path vertex count
ROUTING_FIXTURES = {"fig1-3": 3, "fig2-4x2": 16, "pigou-pair": 2, "prop4-network": 2}
FIG1_LINKS = (6, 8, 16)
FIG2_SHAPES = ((4, 2), (5, 3), (4, 4), (3, 6), (7, 3), (8, 3), (9, 3), (6, 4), (10, 3),
               (11, 3))


def routing(seed: int, work: Path) -> list[Op]:
    """The routing fixtures and seeded fig1/fig2 family networks.

    fig1 networks get a seeded rate, fig2 networks a seeded rate and slope
    scale; conditional gradient takes the same steps under both scalings,
    and every path of these families carries equilibrium flow, so the
    supported-path vertex counts are n and n ** m.  Each network's count is
    confirmed with the program's equilibrium solve before it is written.
    """
    from transit import fixtures as fx
    from transit import io as tio
    from transit.routing import equilibrium_flow, fig1_family, fig2_family, supported_paths

    rng = random.Random(f"routing:{seed}")
    ops = []

    def network(name, inst, vertices, ref=None):
        count = 1
        for paths in supported_paths(inst, equilibrium_flow(inst))["paths"]:
            count *= len(paths)
        if count != vertices:
            raise RuntimeError(f"{name}: {count} supported-path vertices, expected {vertices}")
        path = _write(work / f"{name}.json", tio.routing_to_dict(inst))
        ops.append(Op(["routing", "analyze", path], "routing",
                      {"network": path, "vertices": vertices, **(ref or {})}))

    for name, vertices in ROUTING_FIXTURES.items():
        network(f"fixture-{name}", fx.REGISTRY[name].build(), vertices)
    for n in FIG1_LINKS:
        rate = round(rng.uniform(0.5, 2.0), 6)
        network(f"fig1-{n}", fig1_family(n, rate), n, {"fig1": (n, rate)})
    for n, m in FIG2_SHAPES:
        inst = fig2_family(n, m, 0.1, a_min=round(rng.uniform(0.5, 2.0), 6),
                           rate=round(rng.uniform(0.5, 2.0), 6))
        network(f"fig2-{n}x{m}", inst, n ** m)
    return ops


# -- graphs -------------------------------------------------------------------


def graphs(seed: int, work: Path) -> list[Op]:
    """Cycles, forests and random graphs of 10 to 14 nodes."""
    from transit import io as tio
    from transit.coordination import (
        GraphColoringInstance,
        clique_graph,
        cycle_graph,
        random_forest,
    )

    rng = random.Random(f"graphs:{seed}")
    ops = []

    def relabelled(inst):
        perm = rng.sample(range(inst.n_nodes), inst.n_nodes)
        edges = tuple(sorted((perm[u], perm[v]) for u, v in inst.edges))
        return GraphColoringInstance(inst.n_nodes, edges)

    def with_edges(n, count):
        pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
        return GraphColoringInstance(n, tuple(sorted(rng.sample(pairs, count))))

    made = {
        "cycle-10": relabelled(cycle_graph(10)),
        "cycle-12": relabelled(cycle_graph(12)),
        "cycle-13": relabelled(cycle_graph(13)),
        "cycle-14": relabelled(cycle_graph(14)),
        "forest-12a": random_forest(rng, 12, parts=2),
        "forest-12b": random_forest(rng, 12, parts=2),
        "forest-14": random_forest(rng, 14, parts=2),
        "random-11": with_edges(11, 16),
        "random-12a": with_edges(12, 18),
        "random-12b": with_edges(12, 18),
        "random-13a": with_edges(13, 20),
        "random-13b": with_edges(13, 20),
        "clique-8": clique_graph(8),
    }
    paths = {name: _write(work / f"{name}.json", tio.graph_to_dict(inst))
             for name, inst in made.items()}
    for name in made:
        if not name.startswith(("cycle-10", "clique")):
            ops.append(Op(["graph", "bounds", paths[name]], "graph_bounds",
                          {"graph": paths[name]}))
    for name, topology in (("cycle-10", "cycle"), ("clique-8", "clique"),
                           ("forest-12a", "forest"), ("forest-14", "forest")):
        ops.append(Op(["graph", "construct", paths[name], "--topology", topology],
                      "graph_construct", {"graph": paths[name]}))
    return ops


def games(seed: int, work: Path) -> list[Op]:
    """The limited and bounds operation sets: every strategic-form layer."""
    return limited(seed, work) + bounds(seed, work)


def networks(seed: int, work: Path) -> list[Op]:
    """The routing and graph operation sets: no game or degree code runs."""
    return routing(seed, work) + graphs(seed, work)


WORKLOADS = {"games": games, "networks": networks}
