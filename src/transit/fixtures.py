"""Named instance corpus used by the CLI, the oracle command, and the tests.

Every fixture ships as a JSON instance file plus an expectations file.
Expectation values are either closed forms quoted from the source analyses
or values regenerated by the brute-force oracle command
(`transit oracle <name> --update`); none are hand-typed numbers.
`fixtures()`, which `transit fixtures` and the test suite call, refuses a
fixture without an expectations file, so a stale corpus fails there rather
than silently shipping.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from fractions import Fraction
from importlib import resources
from pathlib import Path
from typing import Callable

from . import io as tio
from . import oracle
from .congestion import congestion_to_game, parallel_links
from .coordination import (
    GraphColoringInstance,
    clique_graph,
    construct_st_not_ne,
    cycle_graph,
    efficiency_bounds,
    is_stable_non_equilibrium,
    random_forest,
    star_graph,
)
from .errors import ParseError
from .games import Game, as_exact, enumerate_pure_ne
from .routing import fig1_family, fig2_family, pigou_pair, prop4_network, stretch_bound, transition_costs

F = Fraction


# -- strategic-form builders --------------------------------------------------


def matrix2_game(a=1) -> Game:
    """Two-strategy coordination game with payoff a on the diagonal."""
    a = as_exact(a)
    z = F(0)

    def pay(s):
        return (a, a) if s[0] == s[1] else (z, z)

    return Game.from_function(
        (2, 2), pay, players=("row", "col"), strategies=(("I", "II"), ("1", "2"))
    )


def matrix5_game(eps="0.1", a=1) -> Game:
    """Identical-utility coordination game with a weak and a strong optimum."""
    eps = as_exact(eps)
    a = as_exact(a)
    if not 0 < eps < a:
        raise ParseError("requires 0 < eps < a")
    z = F(0)

    def pay(s):
        if s == (0, 0):
            return (eps, eps)
        if s == (1, 1):
            return (a, a)
        return (z, z)

    return Game.from_function(
        (2, 2), pay, players=("row", "col"), strategies=(("I", "II"), ("1", "2"))
    )


def matrix6_game(a=4, b=3, c=2) -> Game:
    """Coordination game with off-diagonal payoffs scaled down by c.

    Requires a > b > a/c, which yields exactly two equilibria on the
    diagonal and a full transition set.
    """
    a, b, c = as_exact(a), as_exact(b), as_exact(c)
    if not (a > b > a / c):
        raise ParseError("requires a > b > a/c")
    table = {
        (0, 0): (a, a),
        (0, 1): (a / c, b / c),
        (1, 0): (b / c, a / c),
        (1, 1): (b, b),
    }
    return Game.from_function(
        (2, 2),
        lambda s: table[s],
        players=("row", "col"),
        strategies=(("I", "II"), ("1", "2")),
    )


def example2_game(a=30, b=1) -> Game:
    """Three players choosing 0/1; the all-zero profile pays only player 1.

    Every profile except (0,0,0) pays b to everyone; (0,0,0) pays a to the
    first player and nothing to the rest, so all profiles except (0,0,0)
    and (1,0,0) are equilibria.
    """
    a, b = as_exact(a), as_exact(b)
    if not a > b > 0:
        raise ParseError("requires a > b > 0")
    z = F(0)

    def pay(s):
        if s == (0, 0, 0):
            return (a, z, z)
        return (b, b, b)

    return Game.from_function((2, 2, 2), pay)


def matching_strategy_game(alphas=(2, 3)) -> Game:
    """Players gain alpha_i to the power of how many chose their strategy."""
    coeffs = tuple(as_exact(x) for x in alphas)
    if any(x <= 0 for x in coeffs):
        raise ParseError("alphas must be positive")
    n = len(coeffs)

    def pay(s):
        return tuple(
            coeffs[i] ** sum(1 for j in range(n) if s[j] == s[i]) for i in range(n)
        )

    return Game.from_function((n,) * n, pay)


def forest10_graph() -> GraphColoringInstance:
    return random_forest(random.Random(10), 10)


# -- expectation oracles -------------------------------------------------------


def _game_expectations(
    game: Game, keys=("poa", "pos", "pota", "pots", "posta", "posts")
) -> dict:
    D = enumerate_pure_ne(game)
    ref = oracle.prices_for(game, D)
    out = {k: str(ref[k]) for k in keys}
    out["m_pota"] = [str(v) for v in ref["m_pota"]]
    return out


def _routing_expectations(inst) -> dict:
    out = transition_costs(inst, tol=1e-10)
    values = {
        "poa": out["poa"],
        "pota": out["pota"],
        "pots": out["pots"],
        "equilibrium_cost": out["equilibrium_cost"],
    }
    sb = stretch_bound(inst, prices=out)
    values["stretch_cap"] = sb["cap"]
    values["stretch_holds"] = bool(sb["holds"])
    return values


def _graph_expectations(inst: GraphColoringInstance, topology: str | None) -> dict:
    out = efficiency_bounds(inst)
    values = {
        "poa": str(out["poa"]),
        "posta": str(out["posta"]),
        "max_welfare": out["max_welfare"],
        "poa_holds": bool(out["poa_holds"]),
        "posta_holds": bool(out["posta_holds"]),
    }
    if topology:
        col = construct_st_not_ne(inst, topology)
        values["construction_exists"] = col is not None
        if col is not None:
            values["construction_is_stable_non_ne"] = is_stable_non_equilibrium(inst, col)
    return values


# -- registry -------------------------------------------------------------------


@dataclass(frozen=True)
class Fixture:
    """One shipped instance: builder, file serialiser, expectation oracle."""

    name: str
    kind: str  # game | routing | graph
    anchor: str  # one-line provenance note
    build: Callable[[], object]
    expected: Callable[[object], dict]
    sources: dict  # per-value "closed-form" or "brute-force"
    tolerance: float = 0.0  # comparison slack for float-valued fixtures

    def instance_dict(self) -> dict:
        obj = self.build()
        if self.kind == "game":
            return tio.game_to_dict(obj)
        if self.kind == "routing":
            return tio.routing_to_dict(obj)
        if self.kind == "graph":
            return tio.graph_to_dict(obj)
        raise ParseError(f"unknown fixture kind {self.kind!r}")


def _fixture_list() -> list[Fixture]:
    closed = "closed-form"
    brute = "brute-force"
    return [
        Fixture(
            "matrix2",
            "game",
            "two-equilibrium coordination matrix, diagonal payoff 1",
            lambda: matrix2_game(1),
            _game_expectations,
            {"poa": closed, "pos": closed, "pota": closed, "pots": closed,
             "posta": brute, "posts": brute, "m_pota": brute},
        ),
        Fixture(
            "matrix5",
            "game",
            "identical-utility matrix with weak optimum eps=1/10, strong 1",
            lambda: matrix5_game("0.1", 1),
            _game_expectations,
            {"poa": closed, "pos": closed, "pota": closed, "pots": closed,
             "posta": closed, "posts": brute, "m_pota": brute},
        ),
        Fixture(
            "matrix6",
            "game",
            "scaled coordination matrix a=4 b=3 c=2",
            lambda: matrix6_game(4, 3, 2),
            _game_expectations,
            {"poa": closed, "pos": closed, "pota": closed, "pots": closed,
             "posta": brute, "posts": brute, "m_pota": brute},
        ),
        Fixture(
            "example2-3player",
            "game",
            "three players, all-zero profile pays only the first (a=30 b=1)",
            lambda: example2_game(30, 1),
            _game_expectations,
            {"pos": closed, "pots": closed, "poa": brute, "pota": brute,
             "posta": brute, "posts": brute, "m_pota": brute},
        ),
        Fixture(
            "matching-strategy",
            "game",
            "strategy-matching exponents (2, 3); worst 2-merge is 5/13",
            lambda: matching_strategy_game((2, 3)),
            _game_expectations,
            {"poa": closed, "pos": closed, "pota": brute, "pots": closed,
             "posta": brute, "posts": brute, "m_pota": brute},
        ),
        Fixture(
            "parallel-links-4",
            "game",
            "4 players on 4 unit-slope links; equilibria are permutations",
            lambda: congestion_to_game(parallel_links(4), "min"),
            lambda game: _game_expectations(game, ("poa",)),
            {"poa": closed, "m_pota": brute},
        ),
        Fixture(
            "fig1-3",
            "routing",
            "3 parallel links cost x; unique equilibrium spreads 1/3 each",
            lambda: fig1_family(3),
            _routing_expectations,
            {"poa": closed, "pota": closed, "pots": closed,
             "equilibrium_cost": closed, "stretch_cap": closed,
             "stretch_holds": closed},
            tolerance=1e-6,
        ),
        Fixture(
            "fig2-4x2",
            "routing",
            "two commodities sharing their priciest link, 4 options, spread 1.1",
            lambda: fig2_family(4, 2, 0.1),
            _routing_expectations,
            {"poa": brute, "pota": brute, "pots": brute,
             "equilibrium_cost": brute, "stretch_cap": closed,
             "stretch_holds": closed},
            tolerance=1e-6,
        ),
        Fixture(
            "pigou-pair",
            "routing",
            "two links costing x^2 and x^3, demand 2; equilibrium (1, 1)",
            lambda: pigou_pair(2.0),
            _routing_expectations,
            {"equilibrium_cost": closed, "pots": brute, "poa": brute,
             "pota": brute, "stretch_cap": brute, "stretch_holds": closed},
            tolerance=1e-6,
        ),
        Fixture(
            "prop4-network",
            "routing",
            "edge-disjoint strictly increasing links with equal intercepts",
            lambda: prop4_network(),
            _routing_expectations,
            {"pots": closed, "poa": brute, "pota": brute,
             "equilibrium_cost": brute, "stretch_cap": brute,
             "stretch_holds": closed},
            tolerance=1e-6,
        ),
        Fixture(
            "cycle-6",
            "graph",
            "even cycle; alternating colouring is stable with zero welfare",
            lambda: cycle_graph(6),
            lambda inst: _graph_expectations(inst, "cycle"),
            {"poa": closed, "posta": closed, "max_welfare": closed,
             "poa_holds": closed, "posta_holds": closed,
             "construction_exists": closed,
             "construction_is_stable_non_ne": brute},
        ),
        Fixture(
            "clique-4",
            "graph",
            "even clique; half-and-half colouring is stable but unstable none",
            lambda: clique_graph(4),
            lambda inst: _graph_expectations(inst, "clique"),
            {"poa": brute, "posta": brute, "max_welfare": closed,
             "poa_holds": closed, "posta_holds": closed,
             "construction_exists": closed,
             "construction_is_stable_non_ne": brute},
        ),
        Fixture(
            "star-5",
            "graph",
            "centre with four leaves; balanced leaves split the two variants",
            lambda: star_graph(5),
            lambda inst: _graph_expectations(inst, None),
            {"poa": brute, "posta": brute, "max_welfare": closed,
             "poa_holds": closed, "posta_holds": closed},
        ),
        Fixture(
            "forest-10",
            "graph",
            "seeded ten-node forest for the construction harness",
            forest10_graph,
            lambda inst: _graph_expectations(inst, "forest"),
            {"poa": brute, "posta": brute, "max_welfare": closed,
             "poa_holds": closed, "posta_holds": closed,
             "construction_exists": brute,
             "construction_is_stable_non_ne": brute},
        ),
    ]


REGISTRY: dict[str, Fixture] = {f.name: f for f in _fixture_list()}


def fixture_dir() -> Path:
    return Path(resources.files("transit") / "fixtures")  # type: ignore[arg-type]


def fixture_path(name: str) -> Path:
    return fixture_dir() / f"{name}.json"


def expectation_path(name: str) -> Path:
    return fixture_dir() / f"{name}.expect.json"


def fixtures() -> list[dict]:
    """Corpus listing with per-fixture provenance; validates completeness."""
    out = []
    for f in REGISTRY.values():
        exp = expectation_path(f.name)
        if not exp.exists():
            raise ParseError(
                f"fixture {f.name!r} has no expectations file; regenerate with "
                f"'transit oracle {f.name} --update'"
            )
        out.append(
            {
                "name": f.name,
                "kind": f.kind,
                "anchor": f.anchor,
                "instance": str(fixture_path(f.name)),
                "expectations": str(exp),
            }
        )
    return out


def load_expectations(name: str) -> dict:
    path = expectation_path(name)
    if not path.exists():
        raise ParseError(f"no expectations for fixture {name!r}")
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def resolve_fixture(name: str) -> Fixture:
    if name not in REGISTRY:
        raise ParseError(
            f"unknown fixture {name!r}; known: {', '.join(sorted(REGISTRY))}"
        )
    return REGISTRY[name]


def resolve_input(path_or_name: str) -> tuple[str, Path]:
    """Accept either a real path or a fixture name; return (kind hint, path)."""
    p = Path(path_or_name)
    # Path("") is the working directory, which names no input
    if path_or_name and p.exists():
        return "", p
    if path_or_name in REGISTRY:
        fp = fixture_path(path_or_name)
        if fp.exists():
            return REGISTRY[path_or_name].kind, fp
    raise ParseError(f"no such file or fixture: {path_or_name}")


def compute_expectations(name: str) -> dict:
    fix = resolve_fixture(name)
    values = fix.expected(fix.build())
    return {
        "fixture": name,
        "kind": fix.kind,
        "anchor": fix.anchor,
        "tolerance": fix.tolerance,
        "sources": fix.sources,
        "values": values,
    }


def compare_expectations(name: str) -> dict:
    """Recompute a fixture's values and diff them against the shipped file."""
    fix = resolve_fixture(name)
    shipped = load_expectations(name)
    fresh = compute_expectations(name)
    rows = []
    ok = True
    for key, want in shipped["values"].items():
        got = fresh["values"].get(key)
        if isinstance(want, float) or isinstance(got, float):
            tol = shipped.get("tolerance", 0.0) or 1e-9
            match = got is not None and abs(float(got) - float(want)) <= tol * max(
                1.0, abs(float(want))
            )
        else:
            match = got == want
        ok &= match
        rows.append({"name": key, "expected": want, "recomputed": got, "match": match})
    return {"fixture": name, "rows": rows, "ok": ok}


def _instance_text(value, pad: str = "") -> str:
    """JSON with sorted keys and two-space indents, except that a list of
    scalars (a payoff vector, an edge, a path) is written on one line."""
    inner = pad + "  "
    if isinstance(value, dict) and value:
        items = (f"{inner}{json.dumps(k)}: {_instance_text(value[k], inner)}"
                 for k in sorted(value))
        return "{\n" + ",\n".join(items) + "\n" + pad + "}"
    if isinstance(value, list) and any(isinstance(v, (dict, list)) for v in value):
        items = (inner + _instance_text(v, inner) for v in value)
        return "[\n" + ",\n".join(items) + "\n" + pad + "]"
    return json.dumps(value)


def write_fixture_files(name: str, directory: Path | None = None) -> tuple[Path, Path]:
    """(Re)write a fixture's instance and expectation files."""
    fix = resolve_fixture(name)
    base = directory if directory is not None else fixture_dir()
    base.mkdir(parents=True, exist_ok=True)
    inst = base / f"{name}.json"
    exp = base / f"{name}.expect.json"
    with open(inst, "w", encoding="utf-8") as fh:
        fh.write(_instance_text(fix.instance_dict()) + "\n")
    with open(exp, "w", encoding="utf-8") as fh:
        json.dump(compute_expectations(name), fh, indent=2, sort_keys=True)
        fh.write("\n")
    return inst, exp
