"""File formats: games, solution sets, networks, graphs.

All numeric fields accept integers, decimal floats, and "p/q" strings;
exact-rational fixtures round-trip losslessly through the string form.
"""

from __future__ import annotations

import itertools
import json
import os
from fractions import Fraction
from pathlib import Path
from typing import Any

import numpy as np

from .coordination import GraphColoringInstance
from .errors import ParseError
from .games import Game, SolutionSet, as_exact, checked_shape
from .routing import Commodity, RoutingInstance, cost_from_spec


def _load_json(path: str | Path) -> Any:
    """The JSON document at `path`, read as bytes: `json.loads` detects
    UTF-8, -16 or -32 itself (RFC 8259), whatever the locale."""
    try:
        with open(path, "rb") as fh:
            return json.loads(fh.read())
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path} is not UTF-8 text: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ParseError(f"{path} is not valid JSON: {exc}") from exc


# what a builder raises when it indexes a missing key or converts a value of
# the wrong type (OverflowError: int() of a JSON 1e999)
_MALFORMED = (KeyError, TypeError, ValueError, OverflowError)


def _load(path: str | Path, build, *args):
    """`build(document, *args)` on the JSON document at `path`.

    Builders index and convert fields directly, so a missing key or a value
    of the wrong type surfaces here, where it becomes a ParseError naming
    the file.
    """
    data = _load_json(path)
    try:
        return build(data, *args)
    except _MALFORMED as exc:
        why = f"missing key {exc}" if isinstance(exc, KeyError) else str(exc)
        raise ParseError(f"{path} is malformed: {why}") from None


def game_from_dict(data: dict) -> Game:
    """Game from {"convention", "players", "strategies", "payoffs"}.

    The payoff tensor is nested profile-major (player 1's strategy index
    outermost) with a per-player vector innermost.  Ragged tensors are
    rejected.  The profile cap is checked from the strategy lists before the
    payoffs are read.
    """
    if not isinstance(data, dict):
        raise ParseError("game document must be an object")
    try:
        convention = {"max": "max", "min": "min"}[data.get("convention", "max")]
    except KeyError:
        raise ParseError(f"unknown convention {data.get('convention')!r}") from None
    players = tuple(str(p) for p in data["players"])
    strategies = tuple(tuple(str(x) for x in row) for row in data["strategies"])
    if len(players) != len(strategies):
        raise ParseError("players and strategies disagree in length")
    shape = checked_shape(players, strategies, convention)
    values = _payoff_values(data["payoffs"], shape)
    return Game.from_values(players, strategies, values, convention)


def _payoff_values(tensor, shape: tuple[int, ...]) -> list:
    """The scalars of a payoff tensor in document order, one vector after
    another; they are parsed by `Game.from_values`.

    The tensor is flattened one level at a time, each level checked to hold
    lists of the expected length only.  When a level fails, `_first_fault`
    walks the tensor to name the fault.
    """
    level = [tensor]
    for size in (*shape, len(shape)):
        if set(map(type, level)) != {list} or set(map(len, level)) != {size}:
            return _first_fault(tensor, shape)
        level = list(itertools.chain.from_iterable(level))
    return level


def _first_fault(tensor, shape: tuple[int, ...]) -> list:
    """Walk the tensor in document order and raise at its first ragged
    node, once the scalars before it are parsed, so that the reported fault
    is the first in document order; return the scalars if there is none.
    """
    n = len(shape)
    values: list = []

    def fault(message):
        for v in values:
            as_exact(v)
        return ParseError(message)

    def walk(node, prefix):
        depth = len(prefix)
        if depth == n:
            if not isinstance(node, list) or len(node) != n:
                raise fault(f"payoff vector at {prefix} must list {n} values")
            values.extend(node)
            return
        if not isinstance(node, list) or len(node) != shape[depth]:
            raise fault(
                f"payoff tensor is ragged at {prefix}: expected {shape[depth]} entries"
            )
        for idx, sub in enumerate(node):
            walk(sub, prefix + [idx])

    walk(tensor, [])
    return values


def game_to_dict(game: Game) -> dict:
    """The game document; each distinct payoff is formatted once."""
    scale, grid = game.ints
    sign = 1 if game.convention == "max" else -1
    distinct, index = np.unique(grid.ravel(), return_inverse=True)
    text = np.array([str(Fraction(sign * int(v), scale)) for v in distinct], dtype=object)
    return {
        "convention": game.convention,
        "players": list(game.players),
        "strategies": [list(s) for s in game.strategies],
        "payoffs": np.moveaxis(text[index].reshape(grid.shape), 0, -1).tolist(),
    }


def load_game(path: str | Path) -> Game:
    return _load(path, game_from_dict)


def load_solution_set(path: str | Path, game: Game | None = None) -> SolutionSet:
    """SolutionSet from {"game": <path or inline>, "label", "members"}."""
    return _load(path, _solution_set_from_dict, path, game)


def _solution_set_from_dict(data: dict, path: str | Path, game: Game | None) -> SolutionSet:
    if not isinstance(data, dict):
        raise ParseError("solution document must be an object")
    if game is None:
        ref = data.get("game")
        if isinstance(ref, dict):
            game = game_from_dict(ref)
        elif isinstance(ref, str):
            base = Path(path).parent
            game = load_game(base / ref if not os.path.isabs(ref) else ref)
        else:
            raise ParseError("solution document needs a game path or inline game")
    members = tuple(tuple(int(x) for x in row) for row in data["members"])
    return SolutionSet(game, members, str(data.get("label", "user")))


def routing_from_dict(data: dict) -> RoutingInstance:
    """RoutingInstance from {"nodes", "edges", "commodities"}.

    Edges carry {"from", "to", "cost": {"poly": [...]} | {"pwl": [[x,y]..]}};
    commodities carry explicit path edge-index lists.
    """
    if not isinstance(data, dict):
        raise ParseError("network document must be an object")
    n_nodes = int(data["nodes"])
    edges = []
    costs = []
    for e in data["edges"]:
        edges.append((int(e["from"]), int(e["to"])))
        costs.append(cost_from_spec(e["cost"]))
    commodities = []
    for c in data["commodities"]:
        commodities.append(
            Commodity(
                int(c["source"]),
                int(c["sink"]),
                float(c["rate"]),
                tuple(tuple(int(x) for x in path) for path in c["paths"]),
            )
        )
    return RoutingInstance(n_nodes, tuple(edges), tuple(costs), tuple(commodities))


def routing_to_dict(inst: RoutingInstance) -> dict:
    return {
        "nodes": inst.n_nodes,
        "edges": [
            {"from": u, "to": v, "cost": cost.spec()}
            for (u, v), cost in zip(inst.edges, inst.costs)
        ],
        "commodities": [
            {
                "source": c.source,
                "sink": c.sink,
                "rate": c.rate,
                "paths": [list(p) for p in c.paths],
            }
            for c in inst.commodities
        ],
    }


def load_routing(path: str | Path) -> RoutingInstance:
    return _load(path, routing_from_dict)


def graph_from_dict(data: dict) -> GraphColoringInstance:
    if not isinstance(data, dict):
        raise ParseError("graph document must be an object")
    n = int(data["nodes"])
    edges = tuple((int(u), int(v)) for u, v in data["edges"])
    colors = None
    if "colors" in data and data["colors"] is not None:
        colors = tuple(tuple(int(c) for c in menu) for menu in data["colors"])
    return GraphColoringInstance(n, edges, colors)


def graph_to_dict(inst: GraphColoringInstance) -> dict:
    out = {"nodes": inst.n_nodes, "edges": [list(e) for e in inst.edges]}
    if inst.colors is not None:
        out["colors"] = [list(m) for m in inst.colors]
    return out


def graph_from_text(text: str) -> GraphColoringInstance:
    """Edge list, one "u v" pair per line; '#' starts a comment."""
    edges = []
    top = -1
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if len(parts) != 2:
            raise ParseError(f"line {lineno}: expected 'u v', got {raw!r}")
        try:
            u, v = int(parts[0]), int(parts[1])
        except ValueError:
            raise ParseError(f"line {lineno}: node ids must be integers") from None
        edges.append((u, v))
        top = max(top, u, v)
    if top < 0:
        raise ParseError("edge list is empty")
    return GraphColoringInstance(top + 1, tuple(edges))


def load_graph(path: str | Path) -> GraphColoringInstance:
    p = Path(path)
    if p.suffix != ".json":
        try:
            text = p.read_text(encoding="utf-8")
        except OSError as exc:
            raise ParseError(f"cannot read {p}: {exc}") from exc
        except UnicodeDecodeError as exc:
            raise ParseError(f"{p} is not UTF-8 text: {exc}") from exc
        if not text.lstrip().startswith("{"):
            return graph_from_text(text)
    return _load(p, graph_from_dict)
