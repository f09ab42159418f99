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

import itertools
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Sequence

from .errors import Infeasible, UndefinedPrice, WrongArity, WrongConvention
from .games import Game, Profile, SolutionSet, Value, Welfare, enumerate_pure_ne
from .transitions import degree_map, is_stable_transition

ONE = Fraction(1)


def _sw(game: Game, s: Profile) -> Value:
    return sum(game.payoffs[s])


def _argmin(game: Game, profiles) -> tuple[Profile, Value]:
    best = None
    arg = None
    for s in profiles:
        v = _sw(game, s)
        if best is None or v < best:
            best, arg = v, s
    return arg, best


def _argmax(game: Game, profiles) -> tuple[Profile, Value]:
    best = None
    arg = None
    for s in profiles:
        v = _sw(game, s)
        if best is None or v > best:
            best, arg = v, s
    return arg, best


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
    poa: Value
    pos: Value
    pota: Value
    pots: Value
    posta: Value
    posts: Value
    m_pota: tuple[Value, ...]
    m_pots: tuple[Value, ...]
    optimum: Welfare
    solutions_stable: bool  # every solution is itself a stable transition
    witnesses: dict = field(default_factory=dict, compare=False)

    def m_pota_at(self, m: int) -> Value:
        return self.m_pota[min(m, len(self.m_pota)) - 1]

    def m_pots_at(self, m: int) -> Value:
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
    is not strictly positive; ratios are never silently clamped.
    """
    D.require_nonempty()
    if D.game is not game:
        D = SolutionSet(game, D.members, D.label)

    all_profiles = list(game.profiles())
    if game.convention == "max":
        opt_arg, opt = _argmax(game, all_profiles)
        if opt <= 0:
            raise UndefinedPrice(
                f"maximum social welfare is {opt}; prices are undefined"
            )
        anarchy_of = _argmin
        stability_of = _argmax
    else:
        opt_arg, opt = _argmin(game, all_profiles)
        if opt <= 0:
            raise UndefinedPrice(f"minimum social cost is {opt}; prices are undefined")
        anarchy_of = _argmax
        stability_of = _argmin

    degs = degree_map(D)
    trans = sorted(degs)
    stable = [t for t in trans if is_stable_transition(D, t, stable_variant)]

    wit: dict = {"optimum": opt_arg}

    def price(profiles, extremiser, key):
        arg, val = extremiser(game, profiles)
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


def _tightest(num: Value, den: Value) -> Value | None:
    """Smallest constant a >= 1 with den >= num / a (equivalently num <= a*den).

    A 0/0 constraint binds nothing and yields 1; a positive numerator over a
    nonpositive denominator admits no finite constant and yields None.
    """
    if den > 0:
        r = num / den
        if r >= 1:
            return r
        return ONE if isinstance(r, Fraction) else 1.0
    if num <= 0:
        return ONE if isinstance(num, Fraction) else 1.0
    return None


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

    alpha_lower: tuple[Value | None, ...]
    alpha_upper: tuple[Value | None, ...]
    beta: tuple[Value | None, ...]
    sw_alpha_lower: Value | None
    sw_alpha_upper: Value | None
    sw_degree_alpha_lower: tuple[Value | None, ...]
    sw_degree_alpha_upper: tuple[Value | None, ...]
    player_degree_alpha_lower: tuple[tuple[Value | None, ...], ...]
    player_degree_alpha_upper: tuple[tuple[Value | None, ...], ...]
    witnesses: dict = field(default_factory=dict, compare=False)


def coordination_dependence(game: Game, D: SolutionSet) -> CoordinationDependence:
    """Exhaustive tightest-constant search; utility convention only."""
    if game.convention != "max":
        raise WrongConvention("dependence constants are defined for utility games")
    D.require_nonempty()

    degs = degree_map(D)
    trans = sorted(degs)
    n = game.n
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
        b: Value | None = ONE if game.exact else 1.0
        for s, t in itertools.product(D.members, repeat=2):
            if _sw(game, s) >= _sw(game, t) and u(t) > 0:
                cand = _tightest(u(t), u(s))
                if cand is None:
                    b = None
                    break
                if b is not None and cand > b:
                    b = cand
                    wit[f"beta[{i}]"] = (s, t)
        if b is not None and not _beta_verifies(game, D, i, b):
            b = None
        beta.append(b)

    min_sw_d = min(_sw(game, d) for d in D.members)
    max_sw_d = max(_sw(game, d) for d in D.members)
    min_sw_t = min(_sw(game, t) for t in trans)
    max_sw_t = max(_sw(game, t) for t in trans)
    sw_alpha_lower = _tightest(min_sw_d, min_sw_t)
    sw_alpha_upper = _tightest(max_sw_t, max_sw_d)

    sw_deg_lower = []
    sw_deg_upper = []
    player_deg_lower = []
    player_deg_upper = []
    for m in range(1, n):
        small, large = stages[m], stages[m + 1]
        sw_deg_lower.append(
            _tightest(min(_sw(game, t) for t in small), min(_sw(game, t) for t in large))
        )
        sw_deg_upper.append(
            _tightest(max(_sw(game, t) for t in large), max(_sw(game, t) for t in small))
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


def _beta_verifies(game: Game, D: SolutionSet, i: int, b: Value) -> bool:
    """Confirm the variation bound with the candidate constant.

    Needed because negative utilities turn some pair constraints into upper
    bounds on the constant; the candidate from the lower-bound scan may then
    fail and the honest answer is "undefined".
    """
    for s, t in itertools.product(D.members, repeat=2):
        if _sw(game, s) >= _sw(game, t):
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
    lhs: Value | None
    rhs: Value | None
    holds: bool | None
    slack: Value | None
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
    n = game.n
    rows: list[BoundRow] = []

    # welfare-level dependence: anarchy never drops by more than the factor.
    a = dep.sw_alpha_lower
    rows.append(
        _row(
            "welfare-lower-dependence-anarchy",
            "welfare-coordination-bound",
            {"alpha": a},
            "pota >= poa / alpha",
            report.pota,
            None if a is None else report.poa / a,
        )
    )
    a_up = dep.sw_alpha_upper
    rows.append(
        _row(
            "welfare-upper-dependence-stability",
            "welfare-coordination-bound",
            {"alpha": a_up},
            "pots <= alpha * pos",
            report.pots,
            None if a_up is None else a_up * report.pos,
            ge=False,
        )
    )

    # welfare-level dependence on the transition degree, telescoped.
    for m in range(2, n + 1):
        chain = dep.sw_degree_alpha_lower[: m - 1]
        if any(c is None for c in chain):
            rows.append(
                _skip(
                    f"welfare-degree-anarchy(m={m})",
                    "degree-coordination-bound",
                    "a per-degree constant is undefined",
                )
            )
        else:
            prod = ONE
            for c in chain:
                prod *= c
            rows.append(
                _row(
                    f"welfare-degree-anarchy(m={m})",
                    "degree-coordination-bound",
                    {"alphas": tuple(chain)},
                    "m_pota >= poa / prod(alpha_i)",
                    report.m_pota_at(m),
                    report.poa / prod,
                )
            )
        chain_up = dep.sw_degree_alpha_upper[: m - 1]
        if any(c is None for c in chain_up):
            rows.append(
                _skip(
                    f"welfare-degree-stability(m={m})",
                    "degree-coordination-bound",
                    "a per-degree constant is undefined",
                )
            )
        else:
            prod = ONE
            for c in chain_up:
                prod *= c
            rows.append(
                _row(
                    f"welfare-degree-stability(m={m})",
                    "degree-coordination-bound",
                    {"alphas": tuple(chain_up)},
                    "m_pots <= prod(alpha_i) * pos",
                    report.m_pots_at(m),
                    prod * report.pos,
                    ge=False,
                )
            )

    # per-player dependence + variation.
    if any(v is None for v in dep.alpha_lower) or any(v is None for v in dep.beta):
        rows.append(
            _skip(
                "player-dependence-anarchy",
                "player-coordination-bound",
                "a per-player constant is undefined",
            )
        )
    else:
        alpha = max(dep.alpha_lower)
        bet = max(dep.beta)
        rows.append(
            _row(
                "player-dependence-anarchy",
                "player-coordination-bound",
                {"alpha": alpha, "beta": bet},
                "pota >= poa / (alpha * beta)",
                report.pota,
                report.poa / (alpha * bet),
            )
        )
    if any(v is None for v in dep.alpha_upper) or any(v is None for v in dep.beta):
        rows.append(
            _skip(
                "player-dependence-stability",
                "player-coordination-bound",
                "a per-player constant is undefined",
            )
        )
    else:
        alpha = max(dep.alpha_upper)
        bet = max(dep.beta)
        rows.append(
            _row(
                "player-dependence-stability",
                "player-coordination-bound",
                {"alpha": alpha, "beta": bet},
                "pots <= alpha * beta * pos",
                report.pots,
                alpha * bet * report.pos,
                ge=False,
            )
        )

    # per-player dependence on the transition degree.
    for m in range(2, n + 1):
        stages = dep.player_degree_alpha_lower[: m - 1]
        flat = [c for row_ in stages for c in row_]
        if any(c is None for c in flat) or any(v is None for v in dep.beta):
            rows.append(
                _skip(
                    f"player-degree-anarchy(m={m})",
                    "player-degree-bound",
                    "a constant is undefined",
                )
            )
        else:
            prod = ONE
            for row_ in stages:
                prod *= max(row_)
            bet = max(dep.beta)
            rows.append(
                _row(
                    f"player-degree-anarchy(m={m})",
                    "player-degree-bound",
                    {"alphas": tuple(max(r) for r in stages), "beta": bet},
                    "m_pota >= poa / (prod(alpha_i) * beta)",
                    report.m_pota_at(m),
                    report.poa / (prod * bet),
                )
            )
        stages_up = dep.player_degree_alpha_upper[: m - 1]
        flat_up = [c for row_ in stages_up for c in row_]
        if any(c is None for c in flat_up) or any(v is None for v in dep.beta):
            rows.append(
                _skip(
                    f"player-degree-stability(m={m})",
                    "player-degree-bound",
                    "a constant is undefined",
                )
            )
        else:
            prod = ONE
            for row_ in stages_up:
                prod *= max(row_)
            bet = max(dep.beta)
            rows.append(
                _row(
                    f"player-degree-stability(m={m})",
                    "player-degree-bound",
                    {"alphas": tuple(max(r) for r in stages_up), "beta": bet},
                    "m_pots <= prod(alpha_i) * beta * pos",
                    report.m_pots_at(m),
                    prod * bet * report.pos,
                    ge=False,
                )
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
    alpha: Value
    beta: Value
    grid: tuple[tuple[Value, Value, Value], ...]  # (lambda, mu, bound)
    best_bound: Value
    pota: Value
    holds: bool


def extensive_smoothness(
    game: Game,
    D: SolutionSet | None = None,
    lambda_grid: Sequence[Value] | None = None,
) -> SmoothnessResult:
    """Best certified lower bound on the transition price of anarchy.

    The three smoothness conditions are instantiated with their tightest
    constants: alpha from comparing transitions against the solutions they
    borrow a coordinate from, beta from swapping the transition completing an
    optimal strategy, and for each lambda in the grid the least feasible mu.
    The certified bound alpha*beta*lambda / (1 + alpha*beta*mu) is maximised
    over the grid and checked against the exhaustively computed price.
    """
    if game.convention != "max":
        raise WrongConvention("smoothness certificates require utility games")
    if D is None:
        D = enumerate_pure_ne(game)
    D.require_nonempty()
    trans = sorted(degree_map(D))
    grid = list(lambda_grid) if lambda_grid is not None else default_lambda_grid()

    def sw(s):
        return _sw(game, s)

    opt = max(sw(s) for s in game.profiles())
    optima = [s for s in game.profiles() if sw(s) == opt]

    # condition 1 constant: u_i(s) >= alpha * u_i(d) whenever s_i = d_i.
    alpha = _ratio_floor(
        (game.payoffs[s][i], game.payoffs[d][i])
        for i in range(game.n)
        for s in trans
        for d in D.members
        if s[i] == d[i]
    )

    # condition 2 constant: completing an optimal strategy with one
    # transition versus another moves the utility by at most 1/beta.
    def completed(i, star, t):
        prof = t[:i] + (star[i],) + t[i + 1 :]
        return game.payoffs[prof][i]

    beta = _ratio_floor(
        (completed(i, star, t), completed(i, star, v))
        for i in range(game.n)
        for star in optima
        for t in trans
        for v in trans
    )

    ab = alpha * beta
    rows = []
    best = None
    for lam in grid:
        mu = _min_mu(game, optima, trans, lam)
        if mu is None:
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

    pota = min(sw(t) for t in trans) / opt
    tol = 0 if game.exact else game.tol
    return SmoothnessResult(
        alpha=alpha,
        beta=beta,
        grid=tuple(rows),
        best_bound=best,
        pota=pota,
        holds=best <= pota + tol,
    )


def _ratio_floor(pairs) -> Value:
    """Largest a with num >= a * den for all pairs (positive denominators).

    Zero denominators with nonnegative numerators bind nothing; a negative
    numerator over a zero or negative denominator has no feasible constant.
    """
    hi = None
    lo = None
    for num, den in pairs:
        if den > 0:
            r = Fraction(num) / Fraction(den) if isinstance(den, (int, Fraction)) else num / den
            hi = r if hi is None else min(hi, r)
        elif den == 0:
            if num < 0:
                raise Infeasible("smoothness constant infeasible: u >= a*0 fails")
        else:
            r = Fraction(num) / Fraction(den) if isinstance(den, (int, Fraction)) else num / den
            lo = r if lo is None else max(lo, r)
    if hi is None:
        raise Infeasible("no positive-denominator ratio to pin the constant")
    if lo is not None and lo > hi:
        raise Infeasible("smoothness constant constraints are contradictory")
    return hi


def _min_mu(game: Game, optima, trans, lam) -> Value | None:
    """Least mu >= 0 with sum_i u_i(s*_i, t_{-i}) >= lam*sw(s*) - mu*sw(t)."""
    lo = None
    hi = None
    for star in optima:
        sw_star = _sw(game, star)
        for t in trans:
            total = sum(
                game.payoffs[t[:i] + (star[i],) + t[i + 1 :]][i]
                for i in range(game.n)
            )
            sw_t = _sw(game, t)
            need = lam * sw_star - total  # need <= mu * sw(t)
            if sw_t > 0:
                r = need / sw_t
                lo = r if lo is None else max(lo, r)
            elif sw_t == 0:
                if need > 0:
                    return None
            else:
                r = need / sw_t
                hi = r if hi is None else min(hi, r)
    mu = lo if lo is not None else (Fraction(0) if game.exact else 0.0)
    if mu < 0:
        mu = Fraction(0) if game.exact else 0.0
    if hi is not None and mu > hi:
        return None
    return mu


# -- structural observations --------------------------------------------------


def verify_identical_utility(game: Game) -> dict:
    """For identical-utility games the best transition is already optimal."""
    from .errors import NotIdenticalUtility
    from .games import identical_utilities

    if not identical_utilities(game):
        raise NotIdenticalUtility("players' payoff vectors differ")
    D = enumerate_pure_ne(game)
    report = price_report(game, D)
    one = Fraction(1) if game.exact else 1.0
    return {
        "pos": report.pos,
        "pots": report.pots,
        "poa": report.poa,
        "pota": report.pota,
        "posta": report.posta,
        "holds": report.pos == one and report.pots == one,
        "prices": report.as_dict(),
    }
