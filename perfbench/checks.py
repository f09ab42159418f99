"""Checkers of the CLI's outputs and the reference computations they use.

`check` takes an operation and what the CLI returned (exit status, stdout,
stderr), checks the status and passes the parsed report to the operation's
checker; it returns a list of problems, empty when the output is correct.  References are made apart from the program: `transit.oracle` (the
package's independent brute force) where it finishes in seconds, the
brute force below elsewhere, closed forms where an input family has one,
and a plain-Python re-evaluation of the network and graph files.
"""

from __future__ import annotations

import itertools
import json
import math
import re
from fractions import Fraction

# routing figures are floats from a conditional-gradient solve stopped at a
# relative gap of 1e-8 and printed with twelve significant digits
REL_TOL = 1e-6


def frac(value) -> Fraction:
    """A rendered rational ({"exact": "p/q", ...}) or an integer as a Fraction."""
    if isinstance(value, dict):
        return Fraction(value["exact"])
    return Fraction(value)


def close(a: float, b: float, rel: float = REL_TOL) -> bool:
    return abs(a - b) <= rel * max(1.0, abs(a), abs(b))


# -- transition degrees and prices ------------------------------------------


def cover_degree(members, t) -> int:
    """Fewest members whose coordinates assemble t, by search over player masks."""
    n = len(t)
    full = (1 << n) - 1
    masks = {sum(1 << i for i in range(n) if d[i] == t[i]) for d in members}
    masks.discard(0)
    reached = {0}
    for size in range(1, n + 1):
        reached = {r | m for r in reached for m in masks}
        if full in reached:
            return size
    raise ValueError(f"{t!r} is not a transition of the given members")


def reference_prices(game, members, variant: str = "strict") -> dict:
    """The eight prices, as oracle.prices defines them, with cover_degree.

    Transitions and stable transitions come from the oracle's scans, which
    are fast; only the degrees, where the oracle tries every member subset,
    are computed here.
    """
    from transit import oracle

    trans = oracle.transitions(game, members)
    stable = oracle.stable_transitions(game, members, variant)
    welfare = {s: sum(game.payoffs[s]) for s in game.profiles()}
    degs = {t: cover_degree(members, t) for t in trans}
    if game.convention == "max":
        opt, anarchy, stability = max(welfare.values()), min, max
    else:
        opt, anarchy, stability = min(welfare.values()), max, min
    if opt <= 0:
        return {"undefined": True}

    def ratio(profiles, pick):
        return pick(welfare[s] for s in profiles) / opt

    levels = [[t for t in trans if degs[t] <= m] for m in range(1, game.n + 1)]
    return {
        "poa": ratio(members, anarchy),
        "pos": ratio(members, stability),
        "pota": ratio(trans, anarchy),
        "pots": ratio(trans, stability),
        "posta": ratio(stable, anarchy),
        "posts": ratio(stable, stability),
        "m_pota": [ratio(level, anarchy) for level in levels],
        "m_pots": [ratio(level, stability) for level in levels],
        "optimum": opt,
    }


def parallel_link_m_pota(n: int, m: int) -> Fraction:
    """Worst m-limited transition cost ratio on n unit parallel links."""
    q, r = divmod(n, m)
    return Fraction(q * m * m + r * r, n)


def _prices_ref(op, cache: dict) -> dict:
    key = (id(op.ref["game"]), op.ref["variant"])
    if key not in cache:
        from transit import oracle

        game = op.ref["game"]
        members = oracle.ne_profiles(game)
        if op.ref["reference"] == "oracle":
            cache[key] = oracle.prices(game, members, op.ref["variant"])
        else:
            cache[key] = reference_prices(game, members, op.ref["variant"])
    return cache[key]


PRICE_KEYS = ("poa", "pos", "pota", "pots", "posta", "posts", "optimum")


def check_prices(op, doc, err, cache) -> list[str]:
    problems: list[str] = []
    res = doc["results"]
    ref = _prices_ref(op, cache)
    for key in PRICE_KEYS:
        if frac(res[key]) != ref[key]:
            problems.append(f"{key} {frac(res[key])} != reference {ref[key]}")
    for key in ("m_pota", "m_pots"):
        got = [frac(v) for v in res[key]]
        if got != ref[key]:
            problems.append(f"{key} {got} != reference {ref[key]}")
    n = op.ref["closed_form"]
    if n is not None:
        if frac(res["poa"]) != 1:
            problems.append(f"poa {frac(res['poa'])} on parallel links, expected 1")
        for m, value in enumerate(res["m_pota"], 1):
            if frac(value) != parallel_link_m_pota(n, m):
                problems.append(f"m_pota({m}) {frac(value)} != closed form "
                                f"{parallel_link_m_pota(n, m)}")
    return problems


def check_saturate(op, doc, err, cache) -> list[str]:
    problems: list[str] = []
    members = [tuple(m) for m in op.ref["members"]]
    n = len(members[0])
    projections = [sorted({d[i] for d in members}) for i in range(n)]
    worst = max(cover_degree(members, t) for t in itertools.product(*projections))
    res = doc["results"]
    if res["m"] != worst:
        problems.append(f"saturation degree {res['m']} != largest degree {worst}")
    basis = [tuple(b) for b in res["basis"]]
    if any(b not in members for b in basis):
        problems.append("basis holds a profile outside the solution set")
    for pos, b in enumerate(basis):
        rest = basis[:pos] + basis[pos + 1:]
        if rest and all(any(d[i] == b[i] for d in rest) for i in range(n)):
            problems.append(f"basis member {b} is a transition of the others")
    if res["basis_is_minimal"] != (res["m"] == len(basis)):
        problems.append("basis_is_minimal disagrees with the basis size")
    return problems


def check_theorem2(op, doc, err, cache) -> list[str]:
    """theorem 2 --n N: the verified form at every m, the stated one off where it differs."""
    problems: list[str] = []
    n = op.ref["n"]
    rows = doc["results"]["rows"]
    if [row["m"] for row in rows] != list(range(1, n + 1)):
        problems.append("theorem 2 must report one row per m = 1..n")
    expected_findings = []
    for row in rows:
        m = row["m"]
        verified = parallel_link_m_pota(n, m)
        stated = Fraction(m * m + n - m, n)
        if frac(row["poa"]) != 1:
            problems.append(f"m={m}: poa {frac(row['poa'])}, expected 1")
        if frac(row["m_pota"]) != verified or row["verified_matches"] is not True:
            problems.append(f"m={m}: m_pota {frac(row['m_pota'])} != {verified}")
        if row["claimed_matches"] != (stated == verified):
            problems.append(f"m={m}: claimed_matches should be {stated == verified}")
        if stated != verified:
            expected_findings.append(f"single-pile-value(m={m})")
    found = [line.split(":", 1)[0] for line in doc["findings"]]
    if found != expected_findings:
        problems.append(f"findings {found}, expected {expected_findings}")
    for name in expected_findings:
        if f"FAILED {name}" not in err:
            problems.append(f"stderr does not name the finding {name}")
    return problems


# -- bounds -------------------------------------------------------------------

# right-hand side of each asserted inequality, from the reference prices and
# the row's hypothesis constants
_RHS = {
    "pota >= poa / alpha": lambda p, c: p["poa"] / c["alpha"],
    "pots <= alpha * pos": lambda p, c: c["alpha"] * p["pos"],
    "m_pota >= poa / prod(alpha_i)": lambda p, c: p["poa"] / math.prod(c["alphas"]),
    "m_pots <= prod(alpha_i) * pos": lambda p, c: math.prod(c["alphas"]) * p["pos"],
    "pota >= poa / (alpha * beta)": lambda p, c: p["poa"] / (c["alpha"] * c["beta"]),
    "pots <= alpha * beta * pos": lambda p, c: c["alpha"] * c["beta"] * p["pos"],
    "m_pota >= poa / (prod(alpha_i) * beta)":
        lambda p, c: p["poa"] / (math.prod(c["alphas"]) * c["beta"]),
    "m_pots <= prod(alpha_i) * beta * pos":
        lambda p, c: math.prod(c["alphas"]) * c["beta"] * p["pos"],
}


def _constant(text: str):
    """A hypothesis constant as printed: "3/2", or a tuple of Fraction reprs."""
    if text.startswith("("):
        return tuple(Fraction(int(p), int(q))
                     for p, q in re.findall(r"Fraction\((-?\d+), (\d+)\)", text))
    return Fraction(text)


def _lhs(prices: dict, inequality: str, m: int | None) -> Fraction:
    name = inequality.split()[0]
    return prices[name][m - 1] if name.startswith("m_") else prices[name]


def check_bounds(op, doc, err, cache) -> list[str]:
    problems: list[str] = []
    key = id(op.ref["game"])
    if key not in cache:
        from transit import oracle

        game = op.ref["game"]
        cache[key] = oracle.prices(game, oracle.ne_profiles(game))
    ref = cache[key]
    res = doc["results"]
    for row in res["rows"]:
        if row["skipped"]:
            continue
        ineq = row["asserted_inequality"]
        name = row["name"]
        m = int(name.split("m=")[1].rstrip(")")) if "m=" in name else None
        lhs, rhs = frac(row["lhs"]), frac(row["rhs"])
        if ineq not in _RHS:
            problems.append(f"{name}: unknown inequality {ineq!r}")
            continue
        consts = {k: _constant(v) for k, v in row["hypothesis_constants"].items()}
        if lhs != _lhs(ref, ineq, m):
            problems.append(f"{name}: lhs {lhs} != reference {_lhs(ref, ineq, m)}")
        if rhs != _RHS[ineq](ref, consts):
            problems.append(f"{name}: rhs {rhs} != {_RHS[ineq](ref, consts)}")
        holds = lhs >= rhs if ">=" in ineq else lhs <= rhs
        if row["holds"] is not True or not holds:
            problems.append(f"{name}: bound reported holds={row['holds']}, "
                            f"{lhs} vs {rhs}")
    smooth = res.get("smoothness", {})
    if "best_bound" in smooth:
        if frac(smooth["pota"]) != ref["pota"]:
            problems.append(f"smoothness pota {frac(smooth['pota'])} != {ref['pota']}")
        if not frac(smooth["best_bound"]) <= ref["pota"] or smooth["holds"] is not True:
            problems.append("smoothness best_bound exceeds pota")
    two = res.get("two_player_condition")
    if two is not None:
        if frac(two["pots"]) != ref["pots"] or frac(two["pos"]) != ref["pos"]:
            problems.append("two-player pots/pos differ from the reference")
        if two["condition"] and frac(two["pots"]) != frac(two["pos"]):
            problems.append("two-player condition holds but pots != pos")
    return problems


# -- routing ------------------------------------------------------------------


def edge_cost(spec: dict, x: float) -> float:
    """c_e(x) for a {"poly": [...]} or {"pwl": [[x, y], ...]} edge cost."""
    if "poly" in spec:
        return sum(c * x ** k for k, c in enumerate(spec["poly"]))
    pts = spec["pwl"]
    if x <= pts[0][0]:
        return pts[0][1]
    for (x0, y0), (x1, y1) in zip(pts, pts[1:]):
        if x <= x1:
            break
    return y0 + (x - x0) / (x1 - x0) * (y1 - y0)


def worst_vertex_cost(net: dict, supported) -> float:
    """Largest total cost over flows sending each commodity down one supported path."""
    worst = 0.0
    for combo in itertools.product(*supported):
        flows = [0.0] * len(net["edges"])
        for com, pick in zip(net["commodities"], combo):
            for e in com["paths"][pick]:
                flows[e] += com["rate"]
        total = sum(edge_cost(edge["cost"], f) * f for edge, f in zip(net["edges"], flows))
        worst = max(worst, total)
    return worst


def check_routing(op, doc, err, cache) -> list[str]:
    problems: list[str] = []
    res = doc["results"]
    with open(op.ref["network"]) as fh:
        net = json.load(fh)
    supported = res["supported_paths"]
    vertices = 1
    for paths in supported:
        vertices *= len(paths)
    if "vertices" in op.ref and vertices != op.ref["vertices"]:
        problems.append(f"{vertices} supported-path vertices, expected {op.ref['vertices']}")
    worst = worst_vertex_cost(net, supported)
    if not close(res["worst_transition_cost"], worst, 1e-9):
        problems.append(f"worst transition cost {res['worst_transition_cost']} "
                        f"!= vertex maximum {worst}")
    chain = [res["optimum_cost"], res["best_transition_cost"],
             res["equilibrium_cost"], res["worst_transition_cost"]]
    for low, high in zip(chain, chain[1:]):
        if low > high and not close(low, high):
            problems.append(f"cost order broken: optimum <= best <= equilibrium <= worst "
                            f"fails on {chain}")
            break
    opt = res["optimum_cost"]
    for key, num in (("poa", "equilibrium_cost"), ("pota", "worst_transition_cost"),
                     ("pots", "best_transition_cost")):
        if not close(res[key], res[num] / opt, 1e-9):
            problems.append(f"{key} {res[key]} != {num} / optimum")
    if not res["stretch_degenerate"] and res["stretch_ratio"] > res["stretch_cap"] * (1 + 1e-9):
        problems.append(f"stretch ratio {res['stretch_ratio']} above cap {res['stretch_cap']}")
    if "fig1" in op.ref:
        n, rate = op.ref["fig1"]
        for key, value in (("equilibrium_cost", rate * rate / n),
                           ("worst_transition_cost", rate * rate),
                           ("poa", 1.0), ("pota", float(n))):
            if not close(res[key], value):
                problems.append(f"fig1 {key} {res[key]} != closed form {value}")
    return problems


# -- graphs -------------------------------------------------------------------


def _load_graph(path: str) -> tuple[int, list[list[int]], int]:
    with open(path) as fh:
        doc = json.load(fh)
    n = doc["nodes"]
    adj = [[] for _ in range(n)]
    for u, v in doc["edges"]:
        adj[u].append(v)
        adj[v].append(u)
    return n, adj, len(doc["edges"])


def coloring_status(adj, col, variant: str = "strict") -> tuple[bool, bool, int]:
    """(stable transition, equilibrium, welfare) of a colouring with colours 1, 2.

    Direct evaluation of the definitions: node i's best colours maximise the
    number of its neighbours sharing them; a node off its best colours needs
    a neighbour j (strictly: one off its own best colours) whose switch to a
    best colour of j makes i's colour best for i.
    """
    n = len(adj)

    def best(i, c):
        ones = sum(1 for j in adj[i] if c[j] == 1)
        twos = len(adj[i]) - ones
        return {1, 2} if ones == twos else ({1} if ones > twos else {2})

    bests = [best(i, col) for i in range(n)]
    welfare = sum(1 for i in range(n) for j in adj[i] if col[j] == col[i])
    equilibrium = all(col[i] in bests[i] for i in range(n))
    for i in range(n):
        if col[i] in bests[i]:
            continue
        helped = False
        for j in adj[i]:
            if variant == "strict" and col[j] in bests[j]:
                continue
            for alt in bests[j] - {col[j]}:
                shifted = list(col)
                shifted[j] = alt
                if col[i] in best(i, shifted):
                    helped = True
        if not helped:
            return False, equilibrium, welfare
    return True, equilibrium, welfare


def coordination_sweep(adj, edges: int) -> tuple[Fraction, Fraction]:
    """(poa, posta) of the two-colour coordination game over every colouring."""
    worst_ne = worst_st = None
    for col in itertools.product((1, 2), repeat=len(adj)):
        stable, equilibrium, welfare = coloring_status(adj, col)
        if stable:
            worst_st = welfare if worst_st is None else min(worst_st, welfare)
        if equilibrium:
            worst_ne = welfare if worst_ne is None else min(worst_ne, welfare)
    return Fraction(worst_ne, 2 * edges), Fraction(worst_st, 2 * edges)


def check_graph_bounds(op, doc, err, cache) -> list[str]:
    problems: list[str] = []
    n, adj, e = _load_graph(op.ref["graph"])
    poa, posta = coordination_sweep(adj, e)
    res = doc["results"]
    if (res["nodes"], res["edges"], res["max_welfare"]) != (n, e, 2 * e):
        problems.append("nodes, edges or max_welfare misreported")
    if frac(res["poa"]) != poa:
        problems.append(f"poa {frac(res['poa'])} != sweep {poa}")
    if frac(res["posta"]) != posta:
        problems.append(f"posta {frac(res['posta'])} != sweep {posta}")
    if not (poa >= Fraction(1, 2) and res["poa_holds"] is True):
        problems.append("poa >= 1/2 fails")
    if not (posta >= Fraction(1, 2) - Fraction(n, 2 * e) and res["posta_holds"] is True):
        problems.append("posta >= 1/2 - |N|/(2|E|) fails")
    return problems


# dense games up to this many profiles are checked with transit.oracle
ORACLE_PROFILES = 1024


def check_graph_construct(op, doc, err, cache) -> list[str]:
    problems: list[str] = []
    res = doc["results"]
    if not res["exists"]:
        problems.append("construction reported missing")
        return problems
    col = tuple(res["coloring"])
    n, adj, _ = _load_graph(op.ref["graph"])
    if 2 ** n <= ORACLE_PROFILES:
        from transit import io as tio
        from transit import oracle
        from transit.coordination import coordination_to_game

        game = coordination_to_game(tio.load_graph(op.ref["graph"]))
        members = oracle.ne_profiles(game)
        profile = tuple(c - 1 for c in col)
        stable = profile in oracle.stable_transitions(game, members)
        equilibrium = profile in members
    else:
        stable, equilibrium, _ = coloring_status(adj, col)
    if not stable or equilibrium:
        problems.append(f"constructed colouring {col}: stable={stable}, "
                        f"equilibrium={equilibrium}")
    return problems


CHECKERS = {
    "prices": check_prices,
    "saturate": check_saturate,
    "theorem2": check_theorem2,
    "bounds": check_bounds,
    "routing": check_routing,
    "graph_bounds": check_graph_bounds,
    "graph_construct": check_graph_construct,
}


def check(op, status: int, out: str, err: str, cache: dict) -> list[str]:
    """Problems with one operation's output; empty when it is correct."""
    problems = []
    if status != op.status:
        problems.append(f"exit status {status}, expected {op.status}")
    try:
        doc = json.loads(out)
    except json.JSONDecodeError as exc:
        return problems + [f"stdout is not JSON: {exc}"]
    if op.status == 0 and doc["findings"]:
        problems.append(f"unexpected findings {doc['findings']}")
    return problems + CHECKERS[op.kind](op, doc, err, cache)
