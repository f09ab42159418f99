"""Efficiency measures of solution sets and their transitions.

Eight prices are computed by exhaustive extremisation: anarchy/stability
over the solutions themselves, over all transitions, over m-limited
transitions for every m, and over stable transitions.  On top of those,
this module extracts the tightest regularity constants (dependence on
coordination, variation across solutions, dependence on the transition
degree) and instantiates the generic bounds they imply, reporting each
asserted inequality with its slack.  A two-player welfare-monotonicity
condition and an extensive smoothness certificate round out the toolkit.
"""

from __future__ import annotations

import bisect
import itertools
import math
from dataclasses import dataclass, field
from fractions import Fraction

from .errors import Infeasible, UndefinedPrice, WrongArity, WrongConvention
from .games import Game, Profile, SolutionSet, Welfare, enumerate_pure_ne
from .transitions import degree_map, stable_transition_set

ONE = Fraction(1)
ZERO = Fraction(0)


def _welfare_table(game: Game) -> dict[Profile, Fraction]:
    """Social welfare of every profile, in lexicographic profile order."""
    return {s: sum(game.payoffs[s]) for s in game.profiles()}


def _extreme(sw: dict, profiles, pick) -> tuple[Profile, Fraction]:
    """First profile of least (pick=min) or greatest (pick=max) welfare."""
    arg = pick(profiles, key=sw.__getitem__)
    return arg, sw[arg]


@dataclass(frozen=True)
class PriceReport:
    """All eight efficiency measures plus witnesses.

    m_pota/m_pots are indexed by m-1 for m = 1..n.  Under the max convention
    anarchy takes minima of welfare and the denominator is the best welfare
    over all profiles; under the min convention anarchy takes maxima of cost
    and the denominator is the least cost, per the cost variants of the
    definitions.
    """

    convention: str
    poa: Fraction
    pos: Fraction
    pota: Fraction
    pots: Fraction
    posta: Fraction
    posts: Fraction
    m_pota: tuple[Fraction, ...]
    m_pots: tuple[Fraction, ...]
    optimum: Welfare
    solutions_stable: bool  # every solution is itself a stable transition
    witnesses: dict = field(default_factory=dict, compare=False)

    def m_pota_at(self, m: int) -> Fraction:
        return self.m_pota[min(m, len(self.m_pota)) - 1]

    def m_pots_at(self, m: int) -> Fraction:
        return self.m_pots[min(m, len(self.m_pots)) - 1]

    def observation1_holds(self) -> bool:
        """Anarchy over transitions is never better than over solutions."""
        if self.convention == "max":
            return self.pota <= self.poa and self.pots >= self.pos
        return self.pota >= self.poa and self.pots <= self.pos

    def chain_holds(self) -> bool:
        """m-prices are monotone in m and stable prices sit inside.

        Stable transitions are transitions, so posta is never worse than
        pota and posts never better than pots.  posta and posts lie between
        the solution and transition prices only when every solution is a
        stable transition, which an epsilon-equilibrium need not be.
        """
        n = len(self.m_pota)
        anarchy_dir = (lambda a, b: a >= b) if self.convention == "max" else (
            lambda a, b: a <= b
        )
        for m in range(1, n):
            if not anarchy_dir(self.m_pota[m - 1], self.m_pota[m]):
                return False
            if not anarchy_dir(self.m_pots[m], self.m_pots[m - 1]):
                return False
        if not (anarchy_dir(self.posta, self.pota) and anarchy_dir(self.pots, self.posts)):
            return False
        if not self.solutions_stable:
            return True
        between = (
            min(self.pota, self.poa) <= self.posta <= max(self.pota, self.poa)
            and min(self.pos, self.pots) <= self.posts <= max(self.pos, self.pots)
        )
        return between

    def as_dict(self) -> dict:
        return {
            "convention": self.convention,
            "poa": self.poa,
            "pos": self.pos,
            "pota": self.pota,
            "pots": self.pots,
            "posta": self.posta,
            "posts": self.posts,
            "m_pota": list(self.m_pota),
            "m_pots": list(self.m_pots),
            "optimum": self.optimum.value,
        }


def price_report(
    game: Game, D: SolutionSet, stable_variant: str = "strict"
) -> PriceReport:
    """Exhaustively compute every price of D over its game.

    Raises UndefinedPrice when the denominator (best welfare, or least cost)
    is not strictly positive, or when no transition is stable so that posta
    and posts extremise over nothing; ratios are never silently clamped.
    """
    D.require_nonempty()
    if D.game is not game:
        D = SolutionSet(game, D.members, D.label)

    if game.convention == "max":
        anarchy_of, stability_of, opt_name = min, max, "maximum social welfare"
    else:
        anarchy_of, stability_of, opt_name = max, min, "minimum social cost"
    sw = _welfare_table(game)
    opt_arg, opt = _extreme(sw, sw, stability_of)
    if opt <= 0:
        raise UndefinedPrice(f"{opt_name} is {opt}; prices are undefined")

    degs = degree_map(D)
    trans = sorted(degs)
    stable = stable_transition_set(D, stable_variant)
    if not stable:
        raise UndefinedPrice(
            f"solution set {D.label!r} has no {stable_variant} stable transition; "
            "posta and posts are undefined"
        )

    wit: dict = {"optimum": opt_arg}

    def price(profiles, pick, key):
        arg, val = _extreme(sw, profiles, pick)
        wit[key] = arg
        return val / opt

    poa = price(D.members, anarchy_of, "poa")
    pos = price(D.members, stability_of, "pos")
    pota = price(trans, anarchy_of, "pota")
    pots = price(trans, stability_of, "pots")
    posta = price(stable, anarchy_of, "posta")
    posts = price(stable, stability_of, "posts")

    m_pota = []
    m_pots = []
    for m in range(1, game.n + 1):
        sub = [t for t in trans if degs[t] <= m]
        m_pota.append(price(sub, anarchy_of, f"m_pota[{m}]"))
        m_pots.append(price(sub, stability_of, f"m_pots[{m}]"))

    return PriceReport(
        convention=game.convention,
        poa=poa,
        pos=pos,
        pota=pota,
        pots=pots,
        posta=posta,
        posts=posts,
        m_pota=tuple(m_pota),
        m_pots=tuple(m_pots),
        optimum=Welfare(opt, game.convention),
        solutions_stable=set(D.members) <= set(stable),
        witnesses=wit,
    )


# -- tightest regularity constants -----------------------------------------


def _tightest(num: Fraction, den: Fraction) -> Fraction | None:
    """Smallest constant a >= 1 with den >= num / a (equivalently num <= a*den).

    A 0/0 constraint binds nothing and yields 1; a positive numerator over a
    nonpositive denominator admits no finite constant and yields None.
    """
    if den > 0:
        return max(num / den, ONE)
    return ONE if num <= 0 else None


@dataclass(frozen=True)
class CoordinationDependence:
    """Tightest per-player regularity constants over a solution set.

    alpha_lower / alpha_upper bound how far minima/maxima of a player's
    utility move from the solutions to the full transition set; beta bounds
    how a player's utility varies across welfare-ordered solution pairs.
    The degree-indexed variants compare consecutive m-transition sets
    (index m-1 holds the constant from degree m to m+1), both for social
    welfare and per player.  None marks an undefined constant (nonpositive
    required denominator).
    """

    alpha_lower: tuple[Fraction | None, ...]
    alpha_upper: tuple[Fraction | None, ...]
    beta: tuple[Fraction | None, ...]
    sw_alpha_lower: Fraction | None
    sw_alpha_upper: Fraction | None
    sw_degree_alpha_lower: tuple[Fraction | None, ...]
    sw_degree_alpha_upper: tuple[Fraction | None, ...]
    player_degree_alpha_lower: tuple[tuple[Fraction | None, ...], ...]
    player_degree_alpha_upper: tuple[tuple[Fraction | None, ...], ...]
    witnesses: dict = field(default_factory=dict, compare=False)


def coordination_dependence(game: Game, D: SolutionSet) -> CoordinationDependence:
    """Exhaustive tightest-constant search; utility convention only."""
    if game.convention != "max":
        raise WrongConvention("dependence constants are defined for utility games")
    D.require_nonempty()

    degs = degree_map(D)
    trans = sorted(degs)
    n = game.n
    sw = _welfare_table(game)
    wit: dict = {}

    def stage(m: int) -> list[Profile]:
        return [t for t in trans if degs[t] <= m]

    stages = {m: stage(m) for m in range(1, n + 1)}

    alpha_lower = []
    alpha_upper = []
    beta = []
    for i in range(n):
        u = lambda s: game.payoffs[s][i]
        min_d = min(u(d) for d in D.members)
        max_d = max(u(d) for d in D.members)
        min_t = min(u(t) for t in trans)
        max_t = max(u(t) for t in trans)
        alpha_lower.append(_tightest(min_d, min_t))
        alpha_upper.append(_tightest(max_t, max_d))

        # beta: for every welfare-ordered pair (s, t) in D x D we need
        # u_i(s) >= u_i(t) / beta; only pairs with u_i(t) > 0 constrain beta.
        b: Fraction | None = ONE
        for s, t in itertools.product(D.members, repeat=2):
            if sw[s] >= sw[t] and u(t) > 0:
                cand = _tightest(u(t), u(s))
                if cand is None:
                    b = None
                    break
                if b is not None and cand > b:
                    b = cand
                    wit[f"beta[{i}]"] = (s, t)
        if b is not None and not _beta_verifies(game, sw, D, i, b):
            b = None
        beta.append(b)

    min_sw_d = min(sw[d] for d in D.members)
    max_sw_d = max(sw[d] for d in D.members)
    min_sw_t = min(sw[t] for t in trans)
    max_sw_t = max(sw[t] for t in trans)
    sw_alpha_lower = _tightest(min_sw_d, min_sw_t)
    sw_alpha_upper = _tightest(max_sw_t, max_sw_d)

    sw_deg_lower = []
    sw_deg_upper = []
    player_deg_lower = []
    player_deg_upper = []
    for m in range(1, n):
        small, large = stages[m], stages[m + 1]
        sw_deg_lower.append(
            _tightest(min(sw[t] for t in small), min(sw[t] for t in large))
        )
        sw_deg_upper.append(
            _tightest(max(sw[t] for t in large), max(sw[t] for t in small))
        )
        row_lo = []
        row_up = []
        for i in range(n):
            u = lambda s: game.payoffs[s][i]
            row_lo.append(_tightest(min(u(t) for t in small), min(u(t) for t in large)))
            row_up.append(_tightest(max(u(t) for t in large), max(u(t) for t in small)))
        player_deg_lower.append(tuple(row_lo))
        player_deg_upper.append(tuple(row_up))

    return CoordinationDependence(
        alpha_lower=tuple(alpha_lower),
        alpha_upper=tuple(alpha_upper),
        beta=tuple(beta),
        sw_alpha_lower=sw_alpha_lower,
        sw_alpha_upper=sw_alpha_upper,
        sw_degree_alpha_lower=tuple(sw_deg_lower),
        sw_degree_alpha_upper=tuple(sw_deg_upper),
        player_degree_alpha_lower=tuple(player_deg_lower),
        player_degree_alpha_upper=tuple(player_deg_upper),
        witnesses=wit,
    )


def _beta_verifies(game: Game, sw: dict, D: SolutionSet, i: int, b: Fraction) -> bool:
    """Confirm the variation bound with the candidate constant.

    Needed because negative utilities turn some pair constraints into upper
    bounds on the constant; the candidate from the lower-bound scan may then
    fail and the honest answer is "undefined".
    """
    for s, t in itertools.product(D.members, repeat=2):
        if sw[s] >= sw[t]:
            if game.payoffs[s][i] * b < game.payoffs[t][i]:
                return False
    return True


# -- condition-based bounds -------------------------------------------------


@dataclass(frozen=True)
class BoundRow:
    """One asserted inequality: constants, both sides, and the verdict."""

    name: str
    anchor: str
    constants: dict
    inequality: str
    lhs: Fraction | None
    rhs: Fraction | None
    holds: bool | None
    slack: Fraction | None
    skipped: str | None = None

    def as_dict(self) -> dict:
        return {
            "name": self.name,
            "anchor": self.anchor,
            "hypothesis_constants": {
                k: (str(v) if v is not None else None) for k, v in self.constants.items()
            },
            "asserted_inequality": self.inequality,
            "lhs": self.lhs,
            "rhs": self.rhs,
            "holds": self.holds,
            "slack": self.slack,
            "skipped": self.skipped,
        }


def _row(name, anchor, constants, inequality, lhs, rhs, ge=True) -> BoundRow:
    if lhs is None or rhs is None:
        return BoundRow(name, anchor, constants, inequality, None, None, None, None,
                        skipped="constant undefined")
    holds = lhs >= rhs if ge else lhs <= rhs
    slack = lhs - rhs if ge else rhs - lhs
    return BoundRow(name, anchor, constants, inequality, lhs, rhs, holds, slack)


def _skip(name, anchor, reason) -> BoundRow:
    return BoundRow(name, anchor, {}, "", None, None, None, None, skipped=reason)


@dataclass(frozen=True)
class _BoundFamily:
    """A pair of bound rows, anarchy then stability, built alike.

    Index 0 of each pair is the anarchy side, asserting pota >= poa / K;
    index 1 the stability side, asserting pots <= K * pos.  `constants`
    names the CoordinationDependence field that holds the alphas of each
    side.  K is the product of the alphas, times beta when `per_player`,
    where an alpha is then the largest over players.  A `per_degree` family
    has a row pair per m = 2..n that telescopes the first m - 1 degree
    constants and compares m_pota, m_pots instead.  `skip` is the reason a
    row is skipped when a constant it needs is undefined; without one the
    row keeps its undefined constant and reads "constant undefined".
    """

    names: tuple[str, str]
    anchor: str
    inequalities: tuple[str, str]
    constants: tuple[str, str]
    per_degree: bool
    per_player: bool
    skip: str | None


_BOUND_FAMILIES = (
    _BoundFamily(
        ("welfare-lower-dependence-anarchy", "welfare-upper-dependence-stability"),
        "welfare-coordination-bound",
        ("pota >= poa / alpha", "pots <= alpha * pos"),
        ("sw_alpha_lower", "sw_alpha_upper"),
        per_degree=False,
        per_player=False,
        skip=None,
    ),
    _BoundFamily(
        ("welfare-degree-anarchy", "welfare-degree-stability"),
        "degree-coordination-bound",
        ("m_pota >= poa / prod(alpha_i)", "m_pots <= prod(alpha_i) * pos"),
        ("sw_degree_alpha_lower", "sw_degree_alpha_upper"),
        per_degree=True,
        per_player=False,
        skip="a per-degree constant is undefined",
    ),
    _BoundFamily(
        ("player-dependence-anarchy", "player-dependence-stability"),
        "player-coordination-bound",
        ("pota >= poa / (alpha * beta)", "pots <= alpha * beta * pos"),
        ("alpha_lower", "alpha_upper"),
        per_degree=False,
        per_player=True,
        skip="a per-player constant is undefined",
    ),
    _BoundFamily(
        ("player-degree-anarchy", "player-degree-stability"),
        "player-degree-bound",
        ("m_pota >= poa / (prod(alpha_i) * beta)",
         "m_pots <= prod(alpha_i) * beta * pos"),
        ("player_degree_alpha_lower", "player_degree_alpha_upper"),
        per_degree=True,
        per_player=True,
        skip="a constant is undefined",
    ),
)


def check_bound_observations(game: Game, D: SolutionSet) -> list[BoundRow]:
    """Instantiate the welfare- and utility-level bounds with tightest constants.

    Every row pairs the hypothesis constants extracted from the instance with
    the concluded inequality, evaluated against the directly computed prices.
    Rows whose constants are undefined are reported as skipped, never
    silently dropped.
    """
    if game.convention != "max":
        return [
            _skip(
                "all",
                "coordination-bounds",
                "bound machinery is defined for utility-maximisation games",
            )
        ]
    report = price_report(game, D)
    dep = coordination_dependence(game, D)
    beta_undefined = any(v is None for v in dep.beta)
    rows: list[BoundRow] = []
    for fam in _BOUND_FAMILIES:
        for m in range(2, game.n + 1) if fam.per_degree else (None,):
            for side in (0, 1):
                name = fam.names[side] if m is None else f"{fam.names[side]}(m={m})"
                value = getattr(dep, fam.constants[side])
                stages = value[: m - 1] if fam.per_degree else (value,)
                if not fam.per_player:
                    stages = tuple((c,) for c in stages)
                if fam.skip and (
                    any(c is None for stage in stages for c in stage)
                    or (fam.per_player and beta_undefined)
                ):
                    rows.append(_skip(name, fam.anchor, fam.skip))
                    continue
                alphas = tuple(max(stage) for stage in stages)
                constants = {"alphas": alphas} if fam.per_degree else {"alpha": alphas[0]}
                factors = list(alphas)
                if fam.per_player:
                    constants["beta"] = max(dep.beta)
                    factors.append(constants["beta"])
                k = None if any(c is None for c in factors) else math.prod(factors)
                if side == 0:
                    lhs = report.pota if m is None else report.m_pota_at(m)
                    rhs = None if k is None else report.poa / k
                else:
                    lhs = report.pots if m is None else report.m_pots_at(m)
                    rhs = None if k is None else k * report.pos
                rows.append(
                    _row(name, fam.anchor, constants, fam.inequalities[side], lhs, rhs,
                         ge=side == 0)
                )
    return rows


def two_player_pots_condition(game: Game) -> bool:
    """Welfare-monotonicity test implying the best transition is no better
    than the best solution.

    For every x, x' in S1 and y, y' in S2: if player 1 weakly prefers x' at
    column y and player 2 weakly prefers y' at row x, then (x, y) is weakly
    welfare-dominated by one of the two unilateral replacements.  Works on
    either convention through the signed utility view.
    """
    if game.n != 2:
        raise WrongArity("condition is defined for exactly two players")
    k1, k2 = game.shape

    def u(i, x, y):
        return game.signed_utility(i, (x, y))

    def sw(x, y):
        return u(0, x, y) + u(1, x, y)

    for x, xp, y, yp in itertools.product(range(k1), range(k1), range(k2), range(k2)):
        if u(0, x, y) <= u(0, xp, y) and u(1, x, y) <= u(1, x, yp):
            if not (sw(x, y) <= sw(xp, y) or sw(x, y) <= sw(x, yp)):
                return False
    return True


# -- extensive smoothness ----------------------------------------------------


def default_lambda_grid() -> list[Fraction]:
    """64 geometric points in (0, 2] with ratio 2, so 1 and 2 are included."""
    return [Fraction(2) ** k for k in range(-62, 2)]


@dataclass(frozen=True)
class SmoothnessResult:
    alpha: Fraction
    beta: Fraction
    grid: tuple[tuple[Fraction, Fraction, Fraction], ...]  # (lambda, mu, bound)
    best_bound: Fraction
    pota: Fraction
    holds: bool


def extensive_smoothness(game: Game, D: SolutionSet | None = None) -> SmoothnessResult:
    """Best certified lower bound on the transition price of anarchy.

    The three smoothness conditions are instantiated with their tightest
    constants: alpha from comparing transitions against the solutions they
    borrow a coordinate from, beta from swapping the transition completing an
    optimal strategy, and for each lambda in `default_lambda_grid()` the
    least feasible mu.  The certified bound alpha*beta*lambda / (1 +
    alpha*beta*mu) is maximised over the grid and checked against the
    exhaustively computed price.

    No constant loops over pairs.  The pairs behind alpha and beta form
    product sets, one per player and strategy, whose extremes decide the
    constant (`_ratio_floor`).  Every optimum has welfare opt, so mu reads
    each transition t only through m_t, the least sum_i u_i(s*_i, t_-i) over
    optima s*, and sw(t): the lines lambda -> (lambda*opt - m_t) / sw(t) are
    built once into the two envelopes that each grid row reads.  Over the
    transitions T the cost is O(n*|T|*|optima| + n*|D|) sums plus
    O(|T| log |T|) for the envelopes and a bisection per grid row.
    """
    if game.convention != "max":
        raise WrongConvention("smoothness certificates require utility games")
    if D is None:
        D = enumerate_pure_ne(game)
    D.require_nonempty()
    trans = sorted(degree_map(D))
    sw = _welfare_table(game)
    opt = max(sw.values())
    optima = [s for s, w in sw.items() if w == opt]
    n = game.n

    def by_strategy(i, profiles):
        groups: dict[int, list[Fraction]] = {}
        for s in profiles:
            groups.setdefault(s[i], []).append(game.payoffs[s][i])
        return groups

    # condition 1 constant: u_i(s) >= alpha * u_i(d) whenever s_i = d_i.
    alpha_groups = []
    for i in range(n):
        nums = by_strategy(i, trans)
        for x, dens in by_strategy(i, D.members).items():
            alpha_groups.append((nums[x], dens))
    alpha = _ratio_floor(alpha_groups)

    # condition 2 constant: completing an optimal strategy with one
    # transition versus another moves the utility by at most 1/beta.
    completed = {
        (i, x): [game.payoffs[t[:i] + (x,) + t[i + 1 :]][i] for t in trans]
        for i in range(n)
        for x in {star[i] for star in optima}
    }
    beta = _ratio_floor((vals, vals) for vals in completed.values())

    # condition 3: mu >= (lambda*opt - m_t) / sw(t) when sw(t) > 0, mu <= it
    # when sw(t) < 0, and lambda*opt <= m_t when sw(t) = 0.
    totals = [
        [sum(us) for us in zip(*(completed[i, star[i]] for i in range(n)))] for star in optima
    ]
    rising, falling, flat = [], [], []
    for t, m in zip(trans, [min(ms) for ms in zip(*totals)]):
        w = sw[t]
        if w > 0:
            rising.append((opt / w, -m / w))
        elif w < 0:
            falling.append((-opt / w, m / w))  # negated: min is -max
        else:
            flat.append(m)
    mu_floor = _upper_envelope(rising)
    mu_ceiling = _upper_envelope(falling)
    flat_least = min(flat, default=None)

    ab = alpha * beta
    rows = []
    best = None
    for lam in default_lambda_grid():
        if flat_least is not None and lam * opt > flat_least:
            continue
        mu = max(ZERO, mu_floor(lam)) if rising else ZERO
        if falling and mu > -mu_ceiling(lam):
            continue
        denom = 1 + ab * mu
        if denom <= 0:
            continue
        bound = ab * lam / denom
        rows.append((lam, mu, bound))
        if best is None or bound > best:
            best = bound
    if best is None:
        raise Infeasible("no (lambda, mu) pair with mu >= 0 is feasible on the grid")

    pota = min(sw[t] for t in trans) / opt
    return SmoothnessResult(
        alpha=alpha,
        beta=beta,
        grid=tuple(rows),
        best_bound=best,
        pota=pota,
        holds=best <= pota,
    )


def _ratio_floor(groups) -> Fraction:
    """Largest a with num >= a * den for every pair with a positive denominator.

    Each group (nums, dens) stands for every pair in nums x dens, so only
    min(nums) and the extremes of the positive and negative dens are read.
    Zero denominators with nonnegative numerators bind nothing; a negative
    numerator over a zero denominator, a lack of positive denominators, or a
    negative denominator asking for more than the positive ones allow leaves
    no feasible constant, and the first of these reasons wins.
    """
    hi = None
    lo = None
    for nums, dens in groups:
        least = min(nums)
        pos = [d for d in dens if d > 0]
        neg = [d for d in dens if d < 0]
        if least < 0 and len(pos) + len(neg) < len(dens):
            raise Infeasible("smoothness constant infeasible: u >= a*0 fails")
        if pos:
            r = least / (max(pos) if least >= 0 else min(pos))
            hi = r if hi is None else min(hi, r)
        if neg:
            r = least / (min(neg) if least >= 0 else max(neg))
            lo = r if lo is None else max(lo, r)
    if hi is None:
        raise Infeasible("no positive-denominator ratio to pin the constant")
    if lo is not None and lo > hi:
        raise Infeasible("smoothness constant constraints are contradictory")
    return hi


def _upper_envelope(lines):
    """x -> the greatest a*x + b over the lines (a, b), by the convex-hull trick.

    Lines are kept in rising slope, the best intercept per slope, and a line
    is dropped once its neighbours meet at or above it, so the points where
    the top line changes rise and one bisection finds the top at any x.
    """
    best: dict[Fraction, Fraction] = {}
    for a, b in lines:
        if a not in best or b > best[a]:
            best[a] = b
    hull: list[tuple[Fraction, Fraction]] = []
    for line in sorted(best.items()):
        while len(hull) >= 2 and _meet(hull[-2], line) <= _meet(hull[-2], hull[-1]):
            hull.pop()
        hull.append(line)
    breaks = [_meet(p, q) for p, q in zip(hull, hull[1:])]

    def top(x: Fraction) -> Fraction:
        a, b = hull[bisect.bisect_left(breaks, x)]
        return a * x + b

    return top


def _meet(low, high) -> Fraction:
    """Where the steeper line `high` overtakes `low`."""
    return (low[1] - high[1]) / (high[0] - low[0])


# -- structural observations --------------------------------------------------


def verify_identical_utility(game: Game) -> dict:
    """For identical-utility games the best transition is already optimal."""
    from .errors import NotIdenticalUtility
    from .games import identical_utilities

    if not identical_utilities(game):
        raise NotIdenticalUtility("players' payoff vectors differ")
    D = enumerate_pure_ne(game)
    report = price_report(game, D)
    return {
        "pos": report.pos,
        "pots": report.pots,
        "poa": report.poa,
        "pota": report.pota,
        "posta": report.posta,
        "holds": report.pos == ONE and report.pots == ONE,
        "prices": report.as_dict(),
    }
