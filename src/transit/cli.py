"""Command-line front end.

Verbs: prices, bounds, degree, routing, graph, theorem, oracle, fixtures.
Exit codes: 0 all asserted inequalities hold, 1 at least one failed (a
finding, printed prominently), 2 parse errors, 3 empty solution sets,
4 undefined prices, 5 other operational errors, among them a stdout closed
before the report is written (a reader that exits early); that one is left
silent.
"""

from __future__ import annotations

import argparse
import functools
import math
import os
import random
import sys

import numpy as np

from . import fixtures as fx
from . import io as tio
from .congestion import verify_parallel_link_family
from .coordination import (
    check_stable_transition_exact,
    check_stable_transition_fast,
    clique_graph,
    construct_st_not_ne,
    cycle_graph,
    efficiency_bounds,
    is_ne_coloring,
    is_stable_non_equilibrium,
    random_forest,
    random_graph,
)
from .efficiency import (
    check_bound_observations,
    extensive_smoothness,
    price_report,
    two_player_pots_condition,
)
from .errors import (
    EmptySolutionSet,
    Infeasible,
    NotTwoColour,
    ParseError,
    TooLarge,
    TransitError,
)
from .games import Game, SolutionSet, as_exact, enumerate_pure_ne
from .polymatrix import generate_theorem1_instances, verify_theorem1
from .reporting import Report
from .routing import fig2_family, stretch_bound, transition_costs
from .transitions import saturation_degree, transition_degree


def _load_arg(path_or_name: str, want: str, noun: str, loader) -> tuple[object, dict]:
    """Load a fixture by name or a file by path, with the fixture's provenance.

    A fixture of another kind than `want` is refused as "not a {noun}".
    """
    kind, path = fx.resolve_input(path_or_name)
    provenance = {}
    if kind:
        if kind != want:
            raise ParseError(f"fixture {path_or_name!r} is a {kind}, not a {noun}")
        spec = fx.resolve_fixture(path_or_name)
        provenance = {"fixture": spec.name, "anchor": spec.anchor}
    return loader(path), provenance


def _echo(arg: str) -> str:
    """A command-line argument as a report echoes it: its bytes read as
    UTF-8 (others kept as surrogate escapes), whatever the locale that
    decoded them; files are opened by the argument as given."""
    return os.fsencode(arg).decode("utf-8", "surrogateescape")


def _numbers(text: str, kind, option: str) -> list:
    """Comma-separated numbers of one type; anything else is a ParseError."""
    try:
        return [kind(x) for x in text.split(",")]
    except ValueError:
        raise ParseError(f"{option} expects comma-separated {kind.__name__} values, "
                         f"got {text!r}") from None


def _solution_set(game: Game, args) -> SolutionSet:
    if args.solutions is not None:
        return tio.load_solution_set(args.solutions, game)
    if args.eps is not None:
        return enumerate_pure_ne(game, as_exact(args.eps)).require_nonempty()
    return enumerate_pure_ne(game).require_nonempty()


def cmd_prices(args) -> Report:
    game, provenance = _load_arg(args.game, "game", "game", tio.load_game)
    D = _solution_set(game, args)
    rep = price_report(game, D, args.stable)
    report = Report("prices", {"game": _echo(args.game), "solutions": D.label},
                    provenance=provenance)
    report.results = rep.as_dict()
    report.results["witnesses"] = {k: list(v) for k, v in rep.witnesses.items()}
    report.record(
        "transition-anarchy-ordering",
        rep.observation1_holds(),
        "anarchy over transitions must not beat anarchy over solutions",
    )
    report.record("degree-chain", rep.chain_holds(), "m-price monotonicity")
    return report


def cmd_bounds(args) -> Report:
    game, provenance = _load_arg(args.game, "game", "game", tio.load_game)
    D = _solution_set(game, args)
    rows = check_bound_observations(game, D)
    report = Report("bounds", {"game": _echo(args.game), "solutions": D.label},
                    provenance=provenance)
    report.results["rows"] = [row.as_dict() for row in rows]
    for row in rows:
        report.record(row.name, row.holds if not row.skipped else None)
    if game.n == 2 and game.convention == "max":
        cond = two_player_pots_condition(game)
        rep = price_report(game, D)
        report.results["two_player_condition"] = {
            "condition": cond,
            "pots": rep.pots,
            "pos": rep.pos,
        }
        if cond:
            report.record(
                "two-player-stability-condition",
                rep.pots == rep.pos,
                "condition promises pots = pos",
            )
    if game.convention != "max":
        return report
    # the certificate's derivation needs u_i(d) >= u_i(x, d_-i) at every d
    if game.regret[1][(slice(None), *D.array.T)].any():
        report.results["smoothness"] = {"skipped": "a solution is not a pure equilibrium"}
        return report
    try:
        smooth = extensive_smoothness(game, D)
        report.results["smoothness"] = {
            "alpha": smooth.alpha,
            "beta": smooth.beta,
            "best_bound": smooth.best_bound,
            "pota": smooth.pota,
            "holds": smooth.holds,
        }
        report.record("smoothness-certificate", smooth.holds,
                      "certified bound must not exceed the true price")
    except (Infeasible, EmptySolutionSet):
        report.results["smoothness"] = {"skipped": "no feasible certificate"}
    return report


def _parse_profile(game: Game, text: str):
    values = _numbers(text, int, "--profile")
    if len(values) > 1:
        return game.validate_profile(tuple(values))
    rank = values[0]
    if not 0 <= rank < game.num_profiles:
        raise ParseError(f"profile rank {rank} out of range")
    return tuple(int(x) for x in np.unravel_index(rank, game.shape))


def cmd_degree(args) -> Report:
    game, provenance = _load_arg(args.game, "game", "game", tio.load_game)
    D = tio.load_solution_set(args.solutions, game).require_nonempty()
    report = Report("degree", {"game": _echo(args.game), "solutions": _echo(args.solutions)},
                    provenance=provenance)
    if args.saturate:
        out = saturation_degree(D)
        report.results = {
            "m": out.m,
            "basis": [list(D.members[i]) for i in out.basis],
            "basis_is_minimal": out.basis_is_minimal,
        }
        return report
    profile = _parse_profile(game, args.profile)
    witness = transition_degree(D, profile, "greedy" if args.greedy else "exact")
    report.results = {
        "profile": list(witness.profile),
        "degree": witness.degree,
        "witnesses": [list(D.members[i]) for i in witness.witnesses],
        "exact": not args.greedy,
    }
    return report


def cmd_routing(args) -> Report:
    inst, provenance = _load_arg(args.network, "routing", "network", tio.load_routing)
    out = transition_costs(inst, tol=args.tol)
    sb = stretch_bound(inst, prices=out)
    report = Report("routing", {"network": _echo(args.network), "tol": args.tol,
                                "m": args.m},
                    provenance=provenance)
    report.results = {
        "equilibrium_cost": out["equilibrium_cost"],
        "optimum_cost": out["optimum_cost"],
        "worst_transition_cost": out["worst_cost"],
        "best_transition_cost": out["best_cost"],
        "poa": out["poa"],
        "pota": out["pota"],
        "pots": out["pots"],
        "supported_paths": out["supported"],
        "supported_exact": out["supported_exact"],
        "worst_exact": out["worst_exact"],
        "stretch": sb["stretch"],
        "stretch_cap": sb["cap"],
        "stretch_ratio": sb["ratio"],
        "stretch_degenerate": sb["degenerate"],
    }
    if args.m is not None:
        # equilibria form a convex set, so one equilibrium witnesses every
        # supported path and the m-limited transition set is the full one
        report.results["m"] = args.m
        report.results["m_note"] = (
            "m-limited transition flows coincide with unrestricted ones "
            "for every m >= 1"
        )
    report.record("stretch-bound", sb["holds"],
                  "pota/poa must stay below the largest stretch")
    report.record(
        "cost-ordering",
        out["best_cost"] <= out["equilibrium_cost"] + 1e-9
        and out["equilibrium_cost"] <= out["worst_cost"] + 1e-9,
        "best <= equilibrium <= worst transition cost",
    )
    for ci, path in out["off_cheapest"]:
        report.record("support-carries-flow", False,
                      f"commodity {ci} path {path} carries equilibrium flow "
                      "but is not among its cheapest paths")
    return report


def cmd_graph(args) -> Report:
    inst, provenance = _load_arg(args.graph, "graph", "graph", tio.load_graph)
    report = Report(f"graph-{args.action}", {"graph": _echo(args.graph)},
                    provenance=provenance)
    if args.action == "check":
        col = tuple(_numbers(args.coloring, int, "--coloring"))
        try:
            fast = check_stable_transition_fast(inst, col)
        except (NotTwoColour, TooLarge):
            fast = None  # outside the threshold rule's domain
        exact = check_stable_transition_exact(inst, col, args.stable)
        report.results = {
            "coloring": list(col),
            "stable_fast": fast,
            "stable_exact": exact,
            "variant": args.stable,
            "is_equilibrium": is_ne_coloring(inst, col),
        }
        if fast is not None and args.stable == "strict":
            report.record("fast-exact-agreement", fast == exact,
                          "threshold check must match the direct evaluation")
        return report
    if args.action == "construct":
        col = construct_st_not_ne(inst, args.topology)
        report.results = {"topology": args.topology}
        if col is None:
            report.results["coloring"] = None
            report.results["exists"] = False
        else:
            report.results["coloring"] = list(col)
            report.results["exists"] = True
            report.record("construction-verified", is_stable_non_equilibrium(inst, col),
                          "construction must be stable and not an equilibrium")
        return report
    out = efficiency_bounds(inst)
    report.results = dict(out)
    report.record("anarchy-floor", out["poa_holds"], "poa >= 1/2")
    report.record("stable-anarchy-floor", out["posta_holds"],
                  "posta >= 1/2 - |N| / (2|E|)")
    return report


def _theorem1(args) -> Report:
    rng = random.Random(args.seed)
    report = Report("theorem-1", {"instances": args.instances, "seed": args.seed})
    rows = []
    histogram: dict[int, int] = {}
    worst_slack = None
    checked = 0
    for pg, D in generate_theorem1_instances(rng, args.instances):
        checked += 1
        histogram[len(D.members)] = histogram.get(len(D.members), 0) + 1
        for out in verify_theorem1(pg, D, (1, 2, 3)):
            if not out["holds"]:
                rows.append(out)
            if worst_slack is None or out["slack"] < worst_slack:
                worst_slack = out["slack"]
    report.results = {
        "checked": checked,
        "violations": rows,
        "solution_size_histogram": {str(k): v for k, v in sorted(histogram.items())},
        "worst_slack": worst_slack,
    }
    report.record("stable-degree-welfare-floor", not rows,
                  "m-posta >= poa / m on every generated instance")
    report.record("instance-count", checked == args.instances,
                  f"{checked} of {args.instances} instances generated within "
                  "the generator's attempt cap")
    return report


def _theorem2(args) -> Report:
    n = args.n
    report = Report("theorem-2", {"n": n})
    rows = verify_parallel_link_family(n)
    for fam in rows:
        m = fam["m"]
        report.record(f"degree-cap(m={m})", fam["cap_holds"],
                      "m-pota <= m * poa")
        report.record(
            f"single-pile-value(m={m})",
            fam["claimed_matches"],
            f"stated closed form {fam['claimed_value']} vs measured {fam['m_pota']}",
        )
        report.record(f"verified-closed-form(m={m})", fam["verified_matches"],
                      "floor(n/m) m^2 + (n mod m)^2 over n")
    report.record("tight-at-n", rows[-1]["tight_at_n"],
                  "the n-limited worst merge costs n times the anarchy price")
    report.results = {"rows": rows}
    return report


def _theorem3(args) -> Report:
    deltas = _numbers(args.deltas, float, "--deltas")
    if not all(0 < delta < math.inf for delta in deltas):
        raise ParseError(f"--deltas values must be finite and above 0, got {args.deltas!r}")
    report = Report("theorem-3", {"n": args.n, "m": args.m, "deltas": deltas})
    rows = []
    for delta in deltas:
        inst = fig2_family(args.n, args.m, delta)
        sb = stretch_bound(inst, transition_costs(inst, tol=args.tol))
        rows.append(
            {
                "delta": delta,
                "cap": sb["cap"],
                "ratio": sb["ratio"],
                "gap": sb["cap"] - sb["ratio"],
                "holds": sb["holds"],
            }
        )
        report.record(f"stretch-bound(delta={delta})", sb["holds"])
    gaps = [row["gap"] for row in rows]
    if len(gaps) >= 2 and sorted(deltas, reverse=True) == deltas:
        report.record(
            "tightness-trend",
            all(b <= a for a, b in zip(gaps, gaps[1:])),
            "gap must shrink as the coefficient spread vanishes",
        )
    report.results = {"rows": rows}
    return report


def _theorem4(args) -> Report:
    report = Report("theorem-4", {"graph": args.graph and _echo(args.graph),
                                  "random": args.random, "seed": args.seed})
    instances = []
    if args.graph is not None:
        inst, _ = _load_arg(args.graph, "graph", "graph", tio.load_graph)
        instances.append(("input", inst))
    if args.random:
        rng = random.Random(args.seed)
        made = 0
        while made < args.random:
            g = random_graph(rng, rng.randint(3, args.max_nodes))
            if g.edges:
                instances.append((f"random-{made}", g))
                made += 1
    if not instances:
        instances = [("cycle-4", cycle_graph(4))]
    rows = []
    bad = 0
    for name, inst in instances:
        out = efficiency_bounds(inst)
        ok = out["poa_holds"] and out["posta_holds"]
        bad += 0 if ok else 1
        rows.append({"name": name, "poa": out["poa"], "posta": out["posta"],
                     "holds": ok})
    report.results = {"rows": rows, "violations": bad}
    report.record("coordination-bounds", bad == 0,
                  "poa >= 1/2 and posta >= 1/2 - |N|/(2|E|)")
    return report


def _theorem5(args) -> Report:
    report = Report("theorem-5", {"forests": args.forests, "seed": args.seed})
    rows = []

    def check(name, inst, topology, expect_exists):
        col = construct_st_not_ne(inst, topology)
        exists = col is not None
        verified = is_stable_non_equilibrium(inst, col) if exists else None
        rows.append({"name": name, "exists": exists, "verified": verified})
        report.record(
            f"construction({name})",
            (exists == expect_exists) and (verified is not False),
            "existence parity and verification",
        )
        if not exists and not expect_exists:
            leftovers = [
                c for c in inst.colorings() if is_stable_non_equilibrium(inst, c)
            ]
            report.record(f"emptiness({name})", leftovers == [],
                          "no stable non-equilibrium may survive exhaustion")

    for n in range(4, 9):
        check(f"cycle-{n}", cycle_graph(n), "cycle", True)
    for n, expect in ((3, False), (4, True), (5, False), (6, True)):
        check(f"clique-{n}", clique_graph(n), "clique", expect)
    rng = random.Random(args.seed)
    forest_bad = 0
    for k in range(args.forests):
        inst = random_forest(rng, rng.randint(2, 12))
        col = construct_st_not_ne(inst, "forest")
        ok = not inst.edges if col is None else is_stable_non_equilibrium(inst, col)
        forest_bad += 0 if ok else 1
    rows.append({"name": f"forests-x{args.forests}", "failures": forest_bad})
    report.record("forest-constructions", forest_bad == 0)
    report.results = {"rows": rows}
    return report


def cmd_oracle(args) -> Report:
    if args.update:
        inst, exp = fx.write_fixture_files(args.fixture)
        report = Report("oracle", {"fixture": _echo(args.fixture), "update": True})
        report.results = {"instance": str(inst), "expectations": str(exp)}
        return report
    out = fx.compare_expectations(args.fixture)
    report = Report("oracle", {"fixture": _echo(args.fixture)})
    report.results = out
    report.record("expectations-current", out["ok"],
                  "shipped expectations must match the recomputation")
    return report


def cmd_fixtures(args) -> Report:
    report = Report("fixtures", {})
    report.results = {"corpus": fx.fixtures()}
    return report


class _Parser(argparse.ArgumentParser):
    """An argument parser that takes every flag only as spelled in full, and
    whose usage errors raise ParseError, so that they leave `main` as one
    `error:` line with exit code 2."""

    def __init__(self, **kwargs):
        super().__init__(allow_abbrev=False, **kwargs)

    def error(self, message):
        raise ParseError(f"{self.prog}: {message}")

    def parse_known_args(self, args=None, namespace=None):
        namespace, extras = super().parse_known_args(args, namespace)
        # --greedy picks the cover method of --profile; no argparse group can
        # also keep it from --saturate, which shares a group with --profile
        if getattr(namespace, "greedy", False) and namespace.saturate:
            self.error("argument --greedy: not allowed with argument --saturate")
        return namespace, extras


def _int_at_least(low: int):
    """An argparse type: an integer no less than low."""

    def parse(text: str) -> int:
        value = int(text)
        if value < low:
            raise argparse.ArgumentTypeError(f"must be at least {low}, got {value}")
        return value

    parse.__name__ = "int"  # argparse names the type in "invalid int value"
    return parse


def _relative_gap(text: str) -> float:
    """An argparse type: the relative gap that ends a flow solve, strictly
    between 0 and 1 (so never nan), as the gap lies in [0, 1] for
    nonnegative costs."""
    value = float(text)
    if not 0 < value < 1:
        raise argparse.ArgumentTypeError(f"must lie strictly between 0 and 1, got {text}")
    return value


_relative_gap.__name__ = "float"  # argparse names the type in "invalid float value"


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser of every verb, built once per process and shared
    by every call of `main`; parsing does not change it.  Each verb, routing
    or graph action and theorem harness takes only the flags it reads."""
    parser = _Parser(
        prog="transit",
        description="Transitions between game solutions and their efficiency.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(subparsers, name, func, help):
        p = subparsers.add_parser(name, help=help)
        p.add_argument("--format", choices=("json", "csv"), default="json")
        p.set_defaults(func=func)
        return p

    def add_solution_flags(p):
        group = p.add_mutually_exclusive_group()
        group.add_argument("--ne", action="store_true", help="use the pure equilibria")
        group.add_argument("--eps", help="epsilon for approximate equilibria")
        group.add_argument("--solutions", help="solution-set JSON file")

    p = add(sub, "prices", cmd_prices, "all efficiency measures of a solution set")
    p.add_argument("game")
    add_solution_flags(p)
    p.add_argument("--stable", choices=("strict", "weak"), default="strict")

    p = add(sub, "bounds", cmd_bounds, "condition-based bounds with tightest constants")
    p.add_argument("game")
    add_solution_flags(p)

    p = add(sub, "degree", cmd_degree, "transition degree or saturation degree")
    p.add_argument("game")
    p.add_argument("solutions")
    mode = p.add_mutually_exclusive_group(required=True)
    mode.add_argument("--profile", help="profile rank or comma-separated indices")
    mode.add_argument("--saturate", action="store_true")
    p.add_argument("--greedy", action="store_true", help="greedy cover (with --profile)")

    p = sub.add_parser("routing", help="routing analyses")
    action = p.add_subparsers(dest="action", required=True)
    pa = add(action, "analyze", cmd_routing, "equilibrium, transitions, stretch")
    pa.add_argument("network")
    pa.add_argument("--tol", type=_relative_gap, default=1e-8)
    pa.add_argument("--m", type=_int_at_least(1), default=None)

    p = sub.add_parser("graph", help="coordination-game analyses")
    action = p.add_subparsers(dest="action", required=True)
    pa = add(action, "check", cmd_graph, "is a colouring a stable transition")
    pa.add_argument("graph")
    pa.add_argument("--coloring", required=True)
    pa.add_argument("--stable", choices=("strict", "weak"), default="strict")
    pa = add(action, "construct", cmd_graph, "a stable non-equilibrium colouring")
    pa.add_argument("graph")
    pa.add_argument("--topology", choices=("cycle", "clique", "forest"), required=True)
    pa = add(action, "bounds", cmd_graph, "poa and posta against their floors")
    pa.add_argument("graph")

    p = sub.add_parser("theorem", help="theorem verification harnesses")
    harness = p.add_subparsers(dest="number", required=True)
    pt = add(harness, "1", _theorem1, "polymatrix welfare floor m-posta >= poa / m")
    pt.add_argument("--instances", type=_int_at_least(0), default=200)
    pt.add_argument("--seed", type=int, default=0)
    pt = add(harness, "2", _theorem2, "parallel-link merges against m * poa")
    pt.add_argument("--n", type=_int_at_least(1), default=4)
    pt = add(harness, "3", _theorem3, "routing stretch bound on the Figure 2 family")
    pt.add_argument("--n", type=_int_at_least(2), default=4)
    pt.add_argument("--m", type=_int_at_least(1), default=2)
    pt.add_argument("--deltas", default="0.1,0.01")
    pt.add_argument("--tol", type=_relative_gap, default=1e-8)
    pt = add(harness, "4", _theorem4, "coordination-game poa and posta floors")
    pt.add_argument("--graph")
    pt.add_argument("--random", type=_int_at_least(0), default=0)
    pt.add_argument("--seed", type=int, default=0)
    pt.add_argument("--max-nodes", type=_int_at_least(3), default=9)
    pt = add(harness, "5", _theorem5, "stable non-equilibrium constructions")
    pt.add_argument("--forests", type=_int_at_least(0), default=50)
    pt.add_argument("--seed", type=int, default=0)

    p = add(sub, "oracle", cmd_oracle, "recompute a fixture's expectations")
    p.add_argument("fixture")
    p.add_argument("--update", action="store_true")

    add(sub, "fixtures", cmd_fixtures, "list the shipped corpus")

    return parser


def main(argv: list[str] | None = None) -> int:
    try:
        args = build_parser().parse_args(argv)
        report = args.func(args)
    except TransitError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.exit_code
    try:
        sys.stdout.write(report.render(args.format))
        sys.stdout.flush()
    except BrokenPipeError:
        # the flush at exit would raise again on the closed pipe
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 5
    if report.findings:
        print("findings:", file=sys.stderr)
        for line in report.findings:
            print(f"  FAILED {line}", file=sys.stderr)
    return report.status


if __name__ == "__main__":
    sys.exit(main())
