"""Congestion games: resource-based costs, merge welfare bound, degree scaling.

A congestion game assigns each player a menu of resource subsets; using a
resource costs c_j(k) per user where k is how many players chose it, so the
resource's total cost is f_j(k) = k * c_j(k).  When every total f_j is
nondecreasing and subadditive, the welfare of any merge of profiles is at
most the summed welfare of its constituents, which caps the worst m-limited
transition at m times the price of anarchy.  Subadditive per-user tables c_j
do not suffice: crowding multiplies the higher price by every user.  The
parallel-link family (totals k^2, outside that class) still respects the
cap and attains it exactly when m divides n.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

import numpy as np

from .efficiency import price_report
from .errors import ParseError
from .games import Game, Profile, as_exact, checked_shape, enumerate_pure_ne
from .transitions import _merge_box

F = Fraction


@dataclass(frozen=True)
class CongestionGame:
    """n players, resources 0..m-1, per-player menus of resource subsets.

    costs[j][k-1] is the cost of resource j when k players use it, tabulated
    for k = 1..n.  Costs must be nonnegative.
    """

    n_players: int
    n_resources: int
    strategies: tuple[tuple[frozenset[int], ...], ...]
    costs: tuple[tuple[Fraction, ...], ...]

    def __post_init__(self) -> None:
        if self.n_players < 1 or self.n_resources < 1:
            raise ParseError("need at least one player and one resource")
        if len(self.strategies) != self.n_players:
            raise ParseError("one strategy menu per player required")
        for menu in self.strategies:
            if not menu:
                raise ParseError("every player needs at least one strategy")
            for sub in menu:
                if not sub:
                    raise ParseError("strategies are nonempty resource subsets")
                if any(not (0 <= j < self.n_resources) for j in sub):
                    raise ParseError("strategy uses an unknown resource")
        if len(self.costs) != self.n_resources:
            raise ParseError("one cost table per resource required")
        for table in self.costs:
            if len(table) != self.n_players:
                raise ParseError("cost tables must cover loads 1..n")
            if any(v < 0 for v in table):
                raise ParseError("congestion costs must be nonnegative")

    @classmethod
    def build(cls, strategies, costs) -> "CongestionGame":
        menus = tuple(
            tuple(frozenset(int(j) for j in sub) for sub in menu) for menu in strategies
        )
        tables = tuple(tuple(as_exact(v) for v in table) for table in costs)
        n = len(menus)
        m = len(tables)
        return cls(n, m, menus, tables)

    def shape(self) -> tuple[int, ...]:
        return tuple(len(menu) for menu in self.strategies)


def congestion_to_game(cg: CongestionGame, convention: str = "min") -> Game:
    """Dense strategic-form view; costs by default, utilities on request.

    The costs are `_cost_grid` over the whole profile grid.  The profile cap
    is checked before any array is allocated.
    """
    players = tuple(f"p{i + 1}" for i in range(cg.n_players))
    names = tuple(
        tuple("{" + ",".join(str(j) for j in sorted(sub)) + "}" for sub in menu)
        for menu in cg.strategies
    )
    checked_shape(players, names, convention)
    scale, totals = _cost_grid(cg, [range(len(menu)) for menu in cg.strategies])
    return Game(players, names, scale, totals, convention)


def _cost_grid(cg: CongestionGame, picks: Sequence[Sequence[int]]) -> tuple[int, np.ndarray]:
    """(scale, totals): totals[i][s] is player i's cost times scale at the
    profile whose coordinate j is picks[j][s[j]], over the box of the picks.

    Built by array passes over the box, one resource at a time: with
    A_i[r, x] = 1 when player i's strategy x uses resource r, r's load at s
    is sum_i A_i[r, s_i], and player i pays sum_r A_i[r, s_i] * c_r(load).
    The costs are integers over the tables' common denominator, in Python
    ints when max c * n * m could reach 2**62.
    """
    n, m = cg.n_players, cg.n_resources
    shape = tuple(len(pick) for pick in picks)
    costs = [c for table in cg.costs for c in table]
    scale = math.lcm(*(c.denominator for c in costs))
    wide = max(costs) * scale * n * m >= 2**62
    dtype = object if wide else np.int64
    # table[r, k]: resource r's cost at load k, times scale; load 0 costs 0
    table = np.array(
        [[0] + [c.numerator * (scale // c.denominator) for c in row] for row in cg.costs],
        dtype=dtype,
    )
    totals = np.zeros((n, *shape), dtype=dtype)
    for r in range(m):
        uses = [
            np.array([r in menu[x] for x in pick], dtype=np.intp).reshape(
                [k if j == i else 1 for j, k in enumerate(shape)]
            )
            for i, (menu, pick) in enumerate(zip(cg.strategies, picks))
        ]
        cost = table[r][sum(uses)]
        for total, use in zip(totals, uses):
            if use.any():
                total += use * cost
    return scale, totals


def _additivity(tables, superadditive: bool) -> bool:
    for table in tables:
        n = len(table)
        for x in range(1, n + 1):
            for y in range(1, n - x + 1):
                lhs = table[x + y - 1]
                rhs = table[x - 1] + table[y - 1]
                if superadditive:
                    if lhs < rhs:
                        return False
                elif lhs > rhs:
                    return False
    return True


def _nondecreasing(tables) -> bool:
    return all(
        table[k] >= table[k - 1] for table in tables for k in range(1, len(table))
    )


def is_subadditive(cg: CongestionGame) -> bool:
    """Every tabulated cost satisfies c(x+y) <= c(x) + c(y) for x+y <= n."""
    return _additivity(cg.costs, superadditive=False)


def is_superadditive(cg: CongestionGame) -> bool:
    """Dual check used for utility-maximisation congestion games."""
    return _additivity(cg.costs, superadditive=True)


def has_monotone_subadditive_totals(cg: CongestionGame) -> bool:
    """Every total cost f(k) = k * c(k) is nondecreasing and subadditive.

    This is the class on which the merge welfare bound is a theorem.  A merge
    t of members s_1..s_r puts x_i users on resource j whose coordinates come
    from s_i, with x_i at most s_i's load l_i on j, so
    f_j(sum x_i) <= sum f_j(x_i) <= sum f_j(l_i); summing over resources
    gives sw(t) <= sum sw(s_i).
    """
    totals = tuple(tuple(k * c for k, c in enumerate(table, 1)) for table in cg.costs)
    return _nondecreasing(totals) and _additivity(totals, superadditive=False)


def verify_merge_lemma(cg: CongestionGame, profiles: Sequence[Profile]) -> dict:
    """Check sw(t) <= sum of member welfares for every merge t.

    Must never fail when has_monotone_subadditive_totals holds.  Outside that
    class a violation is legitimate, including on subadditive nondecreasing
    per-user tables such as (10, 15, 21), and comes back as a counterexample,
    not an exception.  The "subadditive" key reports per-user subadditivity.

    The social costs are read off `_cost_grid` over the merge box, whose C
    order is `merge_set`'s lexicographic order; the first merge over budget
    in that order is the counterexample.
    """
    members = [tuple(p) for p in profiles]
    projs = _merge_box(members)
    scale, totals = _cost_grid(cg, projs)
    welfare = totals.sum(axis=0)
    budget = sum(int(welfare[tuple(p.index(x) for p, x in zip(projs, s))]) for s in members)
    over = np.flatnonzero(welfare.ravel() > budget)
    counterexample = None
    if over.size:
        t = np.unravel_index(over[0], welfare.shape)
        counterexample = {
            "merge": tuple(p[k] for p, k in zip(projs, t)),
            "merge_welfare": F(int(welfare[t]), scale),
            "budget": F(budget, scale),
        }
    return {
        "holds": counterexample is None,
        "checked": int(over[0]) + 1 if over.size else welfare.size,
        "budget": F(budget, scale),
        "counterexample": counterexample,
        "subadditive": is_subadditive(cg),
    }


def parallel_links(n: int) -> CongestionGame:
    """n players choosing one of n identical unit-slope links.

    Equilibria are exactly the assignments with all-distinct links; merging
    m of them can pile m players onto one link, for a social cost of
    m^2 + (n - m), but the worst merge fills several links at once (see
    parallel_link_m_pota).
    """
    if n < 1:
        raise ParseError("need at least one player")
    menu = tuple(frozenset([j]) for j in range(n))
    table = tuple(F(k) for k in range(1, n + 1))
    return CongestionGame(n, n, (menu,) * n, (table,) * n)


def parallel_link_m_pota_claimed(n: int, m: int) -> Fraction:
    """The single-overloaded-link cost ratio, (m^2 + n - m) / n.

    This is the cost of piling m players onto one link while the rest stay
    spread out.  It is attainable but NOT always the worst m-limited
    transition; see parallel_link_m_pota for the verified maximum.
    """
    return F(m * m + n - m, n)


def parallel_link_m_pota(n: int, m: int) -> Fraction:
    """Verified worst m-limited transition cost ratio on parallel links.

    A profile is an m-limited transition iff its maximum link load is at
    most m (m equilibria can hand the same link to m different players, and
    a load-L link forces L distinct equilibria).  The social cost
    sum of squared loads is maximised by filling floor(n/m) links to load m
    and putting the remainder on one more, giving
    (floor(n/m) * m^2 + (n mod m)^2) / n.  Writing n = q m + r, it exceeds
    the single-overloaded-link value by ((q-1) m (m-1) + r (r-1)) / n, so the
    two differ exactly when that is positive (first at n=4, m=2 and n=5,
    m=3).  It always respects the m * poa cap since n mod m <= m, with
    equality exactly when m divides n.
    """
    q, r = divmod(n, m)
    return F(q * m * m + r * r, n)


def verify_parallel_link_family(n: int) -> list[dict]:
    """Brute-force the parallel-link fixture and compare both closed forms.

    One price report of the n-link game serves every m; the result holds one
    row per m = 1..n.
    """
    cg = parallel_links(n)
    game = congestion_to_game(cg, "min")
    D = enumerate_pure_ne(game)
    report = price_report(game, D)
    tight_at_n = report.m_pota_at(n) == n * report.poa
    rows = []
    for m in range(1, n + 1):
        measured = report.m_pota_at(m)
        claimed = parallel_link_m_pota_claimed(n, m)
        verified = parallel_link_m_pota(n, m)
        rows.append({
            "n": n,
            "m": m,
            "poa": report.poa,
            "m_pota": measured,
            "claimed_value": claimed,
            "claimed_matches": measured == claimed,
            "verified_value": verified,
            "verified_matches": measured == verified,
            "cap": m * report.poa,
            "cap_holds": measured <= m * report.poa,
            "tight_at_n": tight_at_n,
        })
    return rows


def random_subadditive_costs(rng: random.Random, n: int, hi=10) -> tuple[Fraction, ...]:
    """Sample a nondecreasing subadditive table for loads 1..n.

    Each value is drawn uniformly between the previous value and the
    tightest subadditivity budget min over splits of c(x) + c(k - x).
    Used as per-user costs, these tables are not the merge lemma's class:
    crowding multiplies the higher price by every user, so merges can
    exceed the budget.  Read as total costs f(k), with per-user cost
    f(k) / k, they satisfy has_monotone_subadditive_totals.
    """
    table: list[Fraction] = [F(rng.randint(0, hi))]
    for k in range(2, n + 1):
        cap = min(table[x - 1] + table[k - x - 1] for x in range(1, k))
        table.append(F(rng.randint(int(table[-1]), int(cap))))
    return tuple(table)


def random_congestion_game(
    rng: random.Random,
    n_players: int,
    n_resources: int,
    subadditive: bool = True,
) -> CongestionGame:
    resources = list(range(n_resources))
    available = (1 << n_resources) - 1  # nonempty subsets
    menus = []
    for _ in range(n_players):
        count = min(rng.randint(2, 3), available)
        menu = set()
        while len(menu) < count:
            size = rng.randint(1, n_resources)
            menu.add(frozenset(rng.sample(resources, size)))
        menus.append(tuple(sorted(menu, key=sorted)))
    if subadditive:
        tables = tuple(
            random_subadditive_costs(rng, n_players) for _ in range(n_resources)
        )
    else:
        tables = tuple(
            tuple(F(rng.randint(0, 10)) for _ in range(n_players))
            for _ in range(n_resources)
        )
    return CongestionGame(n_players, n_resources, tuple(menus), tables)
