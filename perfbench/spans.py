"""Spans around the program's public functions, and their per-layer totals.

`Tracer.install` wraps each target function where other modules look it
up: the module attribute in every `transit` module that holds it, or the
class attribute for a method.  Each call records a span (name, start, end,
parent).  Spans stay in memory in flat arrays until `write` stores them;
`summarise` turns them into per-name call counts, inclusive time and self
time.  The wrappers cost about a microsecond per call, which matters only
for the small functions called hundreds of thousands of times
(`games.best_responses`, `coordination.neighbors`).
"""

from __future__ import annotations

import functools
import importlib
import sys
from array import array
from time import perf_counter

# span name -> (module, attribute path) of the function it times
TARGETS = {
    "cli.main": ("transit.cli", "main"),
    "games.from_function": ("transit.games", "Game.from_function"),
    "games.enumerate_pure_ne": ("transit.games", "enumerate_pure_ne"),
    "games.best_responses": ("transit.games", "best_responses"),
    "congestion.congestion_to_game": ("transit.congestion", "congestion_to_game"),
    "congestion.verify_parallel_link_family":
        ("transit.congestion", "verify_parallel_link_family"),
    "io.load_game": ("transit.io", "load_game"),
    "io.load_routing": ("transit.io", "load_routing"),
    "io.load_graph": ("transit.io", "load_graph"),
    "reporting.render": ("transit.reporting", "Report.render"),
    "transitions.degree_map": ("transit.transitions", "degree_map"),
    "transitions.is_stable_transition": ("transit.transitions", "is_stable_transition"),
    "transitions.saturation_degree": ("transit.transitions", "saturation_degree"),
    "degrees.exact_cover": ("transit.degrees", "exact_cover"),
    "degrees.reduce_to_cover": ("transit.degrees", "reduce_to_cover"),
    "efficiency.price_report": ("transit.efficiency", "price_report"),
    "efficiency.extensive_smoothness": ("transit.efficiency", "extensive_smoothness"),
    "efficiency.coordination_dependence":
        ("transit.efficiency", "coordination_dependence"),
    "efficiency.check_bound_observations":
        ("transit.efficiency", "check_bound_observations"),
    "routing.equilibrium_flow": ("transit.routing", "equilibrium_flow"),
    "routing.min_cost_flow": ("transit.routing", "min_cost_flow"),
    "routing.transition_costs": ("transit.routing", "transition_costs"),
    "routing.stretch_bound": ("transit.routing", "stretch_bound"),
    "routing.path_edge_matrix": ("transit.routing", "RoutingInstance.path_edge_matrix"),
    "coordination.efficiency_bounds": ("transit.coordination", "efficiency_bounds"),
    "coordination.neighbors": ("transit.coordination", "GraphColoringInstance.neighbors"),
    "coordination.check_stable_transition_exact":
        ("transit.coordination", "check_stable_transition_exact"),
    "coordination.construct_st_not_ne": ("transit.coordination", "construct_st_not_ne"),
}

OP_SPAN = "cli.main"


class Tracer:
    """Records spans of the wrapped functions in flat arrays."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []

    def _wrap(self, span: str, fn):
        nid = len(self.names)
        self.names.append(span)
        stack, name, parent, start, end = (
            self._stack, self.name, self.parent, self.start, self.end)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = len(start)
            name.append(nid)
            parent.append(stack[-1] if stack else -1)
            end.append(0.0)
            stack.append(sid)
            start.append(perf_counter())
            try:
                return fn(*args, **kwargs)
            finally:
                end[sid] = perf_counter()
                stack.pop()

        return traced

    def install(self) -> None:
        modules = [m for key, m in sys.modules.items()
                   if m is not None and (key == "transit" or key.startswith("transit."))]
        for span, (modname, path) in TARGETS.items():
            owner = importlib.import_module(modname)
            if "." in path:
                cls_name, attr = path.split(".")
                cls = getattr(owner, cls_name)
                raw = cls.__dict__[attr]
                if isinstance(raw, classmethod):
                    wrapped = classmethod(self._wrap(span, raw.__func__))
                else:
                    wrapped = self._wrap(span, raw)
                self._restore.append((cls, attr, raw))
                setattr(cls, attr, wrapped)
                continue
            original = getattr(owner, path)
            wrapped = self._wrap(span, original)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        self._restore.append((mod, attr, original))
                        setattr(mod, attr, wrapped)

    def uninstall(self) -> None:
        for owner, attr, value in reversed(self._restore):
            setattr(owner, attr, value)
        self._restore.clear()

    def span_names(self) -> list[str]:
        return [self.names[i] for i in self.name]

    def summary(self) -> dict[str, dict]:
        return summarise(self.span_names(), self.parent, self.start, self.end)

    def write(self, path) -> None:
        """Store the spans as tab-separated id, parent, name, start, end."""
        with open(path, "w") as fh:
            fh.write("id\tparent\tname\tstart\tend\n")
            for sid, name in enumerate(self.span_names()):
                fh.write(f"{sid}\t{self.parent[sid]}\t{name}\t"
                         f"{self.start[sid]:.9f}\t{self.end[sid]:.9f}\n")


def summarise(names, parents, starts, ends, op_span: str = OP_SPAN) -> dict[str, dict]:
    """Per-name totals of spans given as parallel sequences indexed by span id.

    A span's parent is the id of the span it was called from, or -1, and
    precedes it.  For each name:

    calls:     spans of that name;
    op_calls:  those with an `op_span` ancestor;
    s:         inclusive seconds, counting only spans with no ancestor of
               the same name, so that nested calls are not counted twice;
    self_s:    seconds not covered by a direct child span.
    """
    count = len(names)
    child_time = [0.0] * count
    for sid in range(count):
        if parents[sid] >= 0:
            child_time[parents[sid]] += ends[sid] - starts[sid]
    interned: dict[frozenset, frozenset] = {frozenset(): frozenset()}
    ancestors: list[frozenset] = [frozenset()] * count
    out: dict[str, dict] = {}
    for sid in range(count):
        par, name = parents[sid], names[sid]
        above = frozenset()
        if par >= 0:
            above = ancestors[par] | {names[par]}
            above = interned.setdefault(above, above)
        ancestors[sid] = above
        duration = ends[sid] - starts[sid]
        row = out.setdefault(name, {"calls": 0, "op_calls": 0, "s": 0.0, "self_s": 0.0})
        row["calls"] += 1
        if op_span in above:
            row["op_calls"] += 1
        if name not in above:
            row["s"] += duration
        row["self_s"] += duration - child_time[sid]
    return out
