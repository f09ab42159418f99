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

import functools
import math
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .errors import Infeasible, UndefinedPrice, WrongArity, WrongConvention
from .games import Game, Profile, SolutionSet, Welfare, enumerate_pure_ne
from .transitions import box_profiles, degree_map, transition_set

ONE = Fraction(1)


def _optimum(game: Game) -> tuple[Profile, int, Fraction]:
    """(s, w, opt): the first profile of best signed welfare, that welfare
    times L, and the optimum (best welfare, or least cost) it stands for.

    Raises UndefinedPrice when the optimum is not strictly positive.
    """
    welfare = game.welfare
    k = int(np.argmax(welfare))
    top = int(welfare.flat[k])
    name = "maximum social welfare" if game.convention == "max" else "minimum social cost"
    opt = Fraction(top if game.convention == "max" else -top, game.ints[0])
    if opt <= 0:
        raise UndefinedPrice(f"{name} is {opt}; prices are undefined")
    return tuple(int(x) for x in np.unravel_index(k, welfare.shape)), top, opt


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

    Each price is an extreme of the signed welfare W (`Game.welfare`) over
    the solutions or a masked part of D's transition box, over the best W:
    anarchy is the first least W, stability the first greatest, under either
    convention.  Raises UndefinedPrice when the denominator (best welfare,
    or least cost) is not strictly positive, or when no transition is
    stable so that posta and posts extremise over nothing; ratios are never
    silently clamped.
    """
    D.require_nonempty()
    if D.game is not game:
        D = SolutionSet(game, D.members, D.label)

    best, top, opt = _optimum(game)
    ts = transition_set(D)
    stable = game.stable_grid(stable_variant)
    stable_box = stable[ts.box]
    if not stable_box.any():
        raise UndefinedPrice(
            f"solution set {D.label!r} has no {stable_variant} stable transition; "
            "posta and posts are undefined"
        )

    wit: dict = {"optimum": best}

    def prices(keys, values, profiles):
        """Anarchy then stability ratio over values, with the first extreme
        of each as its witness; profiles(picks) names the picked entries."""
        picks = [int(np.argmin(values)), int(np.argmax(values))]
        wit.update(zip(keys, profiles(picks)))
        return [Fraction(int(values[k]), top) for k in picks]

    # W over the box as one flat vector in lexicographic order; each mask
    # selects flat indices, and only the picked ones become profiles
    flat = game.welfare[ts.box].ravel()

    def over_box(keys, at):
        return prices(keys, flat[at], lambda picks: box_profiles(ts, at[picks]))

    members = np.array(D.members)
    poa, pos = prices(("poa", "pos"), game.welfare[tuple(members.T)],
                      lambda picks: [tuple(members[k].tolist()) for k in picks])
    pota, pots = prices(("pota", "pots"), flat, lambda picks: box_profiles(ts, picks))
    posta, posts = over_box(("posta", "posts"), np.flatnonzero(stable_box))
    degree = degree_map(D)
    m_pota, m_pots = zip(*(
        over_box((f"m_pota[{m}]", f"m_pots[{m}]"), np.flatnonzero(degree <= m))
        for m in range(1, game.n + 1)
    ))

    return PriceReport(
        convention=game.convention,
        poa=poa,
        pos=pos,
        pota=pota,
        pots=pots,
        posta=posta,
        posts=posts,
        m_pota=m_pota,
        m_pots=m_pots,
        optimum=Welfare(opt, game.convention),
        solutions_stable=bool(stable[tuple(members.T)].all()),
        witnesses=wit,
    )


# -- tightest regularity constants -----------------------------------------


def _tightest(num, den) -> Fraction | None:
    """Smallest constant a >= 1 with den >= num / a (equivalently num <= a*den).

    num and den are integers in one unit.  A 0/0 constraint binds nothing
    and yields 1; a positive numerator over a nonpositive denominator admits
    no finite constant and yields None.
    """
    if den > 0:
        return max(Fraction(int(num), int(den)), ONE)
    return ONE if num <= 0 else None


def _dependence(small: np.ndarray, large: np.ndarray) -> tuple[tuple, tuple]:
    """Row by row, the tightest constants from the columns of small to those
    of large: min(small) >= min(large) / a and max(large) <= a * max(small)."""
    return (tuple(map(_tightest, small.min(axis=1), large.min(axis=1))),
            tuple(map(_tightest, large.max(axis=1), small.max(axis=1))))


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
    """Exhaustive tightest-constant search; utility convention only.

    Every constant compares extremes of the welfare W or a utility U_i, in
    the game's unit 1/L, over the solutions, the box or its degree stages.
    """
    if game.convention != "max":
        raise WrongConvention("dependence constants are defined for utility games")
    box = transition_set(D).box
    payoff, welfare = game.ints[1], game.welfare
    members = tuple(np.array(D.members).T)
    # rows: the welfare, then each player's utility; columns: the solutions,
    # or the box entries with their degrees
    solutions = np.vstack([welfare[members], payoff[(slice(None),) + members]])
    box_rows = np.vstack([welfare[box].ravel(),
                          payoff[(slice(None),) + box].reshape(game.n, -1)])
    degree = degree_map(D).ravel()

    wit: dict = {}
    beta = []
    for i, u in enumerate(solutions[1:]):
        b, pair = _beta(u, solutions[0])
        if pair is not None:
            wit[f"beta[{i}]"] = tuple(D.members[k] for k in pair)
        beta.append(b)
    lower, upper = _dependence(solutions, box_rows)
    # from the m-transitions to the (m + 1)-transitions, m = 1..n-1
    steps = [_dependence(box_rows[:, degree <= m], box_rows[:, degree <= m + 1])
             for m in range(1, game.n)]

    return CoordinationDependence(
        alpha_lower=lower[1:],
        alpha_upper=upper[1:],
        beta=tuple(beta),
        sw_alpha_lower=lower[0],
        sw_alpha_upper=upper[0],
        sw_degree_alpha_lower=tuple(lo[0] for lo, _ in steps),
        sw_degree_alpha_upper=tuple(up[0] for _, up in steps),
        player_degree_alpha_lower=tuple(lo[1:] for lo, _ in steps),
        player_degree_alpha_upper=tuple(up[1:] for _, up in steps),
        witnesses=wit,
    )


def _beta(u: np.ndarray, w: np.ndarray) -> tuple[Fraction | None, tuple[int, int] | None]:
    """One player's tightest variation constant over solution pairs, and the
    first pair (s, t) that sets it, as member indices (None while beta is 1).

    Each pair with sw(s) >= sw(t) asks u(s) * beta >= u(t).  In scan order,
    pairs with u(t) > 0 raise beta to u(t) / u(s) up to the first with
    u(s) <= 0, which leaves it undefined (the pair found so far stays).
    Negative utilities make other pairs upper bounds, so the constant is
    then checked against every pair.
    """
    ordered = w[:, None] >= w[None, :]
    # the largest u(t) over the pairs of each s; (s, s) is always one
    top = np.where(ordered, u[None, :], u.min()).max(axis=1)
    infinite = (top > 0) & (u <= 0)
    stop = int(np.argmax(infinite)) if infinite.any() else len(u)
    b, pair = ONE, None
    for s in np.flatnonzero(top[:stop] > 0):
        r = Fraction(int(top[s]), int(u[s]))
        if r > b:
            b, pair = r, (int(s), int(np.flatnonzero(ordered[s] & (u == top[s]))[0]))
    if infinite.any() or any(int(us) * b < int(ts) for us, ts in zip(u, top)):
        return None, pair
    return b, pair


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
    (u1, u2), w = game.ints[1], game.welfare
    # (x, y) fails when some x' that player 1 weakly prefers has less welfare
    # and so does some y' that player 2 weakly prefers
    row = ((u1[:, None, :] <= u1[None, :, :]) & (w[:, None, :] > w[None, :, :])).any(axis=1)
    col = ((u2[:, :, None] <= u2[:, None, :]) & (w[:, :, None] > w[:, None, :])).any(axis=2)
    return not (row & col).any()


# -- extensive smoothness ----------------------------------------------------


# 2^-62 .. 2^1: the k-th grid lambda is the integer 2^k over 2^_SHIFT
_SHIFT = 62
_LAMBDA_GRID = tuple(Fraction(2) ** k for k in range(-_SHIFT, 2))


def default_lambda_grid() -> list[Fraction]:
    """64 geometric points in (0, 2] with ratio 2, so 1 and 2 are included."""
    return list(_LAMBDA_GRID)


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
    exhaustively computed price.  Raises UndefinedPrice, as `price_report`
    does, when the maximum social welfare is not strictly positive.

    No constant loops over pairs or profiles; every pass reduces the
    integers U and W (`Game.ints`, `Game.welfare`) over D's transition box.
    The pairs behind alpha and beta form product sets, one per player and
    strategy, whose extremes decide the constant (`_ratio_floor`).  Every
    optimum has welfare opt, so mu reads each transition t only through
    sw(t) and m_t, the least sum_i u_i(s*_i, t_-i) over optima s*: each
    welfare value w != 0 gives the line lambda -> (lambda*opt - m) / |w|,
    m the least m_t at that value.  One integer hull sweep over the grid
    (`_grid_envelope`) reads the top line for w > 0 (the floor of mu) and
    for w < 0 (minus its ceiling).  Every grid lambda is an integer over
    2^62, and each row's feasibility and the best bound are decided by
    integer cross-multiplication, so a row's mu and bound are each one
    `Fraction` formed from integers.
    """
    if game.convention != "max":
        raise WrongConvention("smoothness certificates require utility games")
    if D is None:
        D = enumerate_pure_ne(game)
    D.require_nonempty()
    _, opt, _ = _optimum(game)
    ts = transition_set(D)
    # the certificate reads no degree; this read keeps the count of degree
    # map reads that perfbench/test_perfbench.py pins for `bounds`
    degree_map(D)
    box, projs = ts.box, ts.projections
    payoff, welfare = game.ints[1], game.welfare
    box_w = welfare[box]
    n = game.n

    # condition 1 constant: u_i(s) >= alpha * u_i(d) whenever s_i = d_i.
    members = np.array(D.members).T
    alpha_groups = []
    for i in range(n):
        least = payoff[i][box].min(axis=tuple(j for j in range(n) if j != i))
        dens = payoff[i][tuple(members)]
        alpha_groups += [(lo, dens[members[i] == x]) for x, lo in zip(projs[i], least)]
    alpha = _ratio_floor(alpha_groups)

    # condition 2 constant: completing an optimal strategy with one
    # transition versus another moves the utility by at most 1/beta.
    # completed[i][..., x, ...] = u_i(x, t_-i) over the box, x on axis i
    completed = [
        payoff[i][np.ix_(*(range(k) if j == i else p
                           for j, (k, p) in enumerate(zip(game.shape, projs))))]
        .astype(welfare.dtype, copy=False)
        for i in range(n)
    ]
    optima = np.argwhere(welfare == opt)
    beta = _ratio_floor(
        (vals.min(), vals.ravel())
        for i in range(n)
        for vals in (np.take(completed[i], [x], axis=i) for x in np.unique(optima[:, i]))
    )

    # condition 3: mu >= (lambda*opt - m_t) / sw(t) when sw(t) > 0, mu <= it
    # when sw(t) < 0, and lambda*opt <= m_t when sw(t) = 0.
    totals = (
        sum(np.take(completed[i], [star[i]], axis=i) for i in range(n)) for star in optima
    )
    least = np.broadcast_to(functools.reduce(np.minimum, totals), box_w.shape)
    values, index = np.unique(box_w, return_inverse=True)
    least_m = np.full(len(values), least.max(), dtype=least.dtype)
    np.minimum.at(least_m, index.ravel(), least.ravel())
    lines = list(zip(values.tolist(), least_m.tolist()))
    # mu >= the top rising line; mu <= minus the top falling line
    rising = _grid_envelope([(w, m) for w, m in lines if w > 0], opt)
    falling = _grid_envelope([(-w, m) for w, m in lines if w < 0], opt)
    flat_least = min((m for w, m in lines if w == 0), default=None)

    # the k-th lambda is 2^k / 2^_SHIFT; alpha * beta = a / b
    ab = alpha * beta
    a, b = ab.numerator, ab.denominator
    rows = []
    best = None
    for k, lam in enumerate(_LAMBDA_GRID):
        if flat_least is not None and opt << k > flat_least << _SHIFT:
            continue
        mu_num, mu_den = rising[k] if rising else (0, 1)
        if mu_num < 0:
            mu_num, mu_den = 0, 1
        if falling and mu_num * falling[k][1] + falling[k][0] * mu_den > 0:
            continue
        # 1 + ab * mu = (b * mu_den + a * mu_num) / (b * mu_den)
        denom = b * mu_den + a * mu_num
        if denom <= 0:
            continue
        bound = (a * mu_den << k, denom << _SHIFT)
        if best is None or bound[0] * best[1] > best[0] * bound[1]:
            best = bound
            best_row = len(rows)
        rows.append((lam, Fraction(mu_num, mu_den), Fraction(*bound)))
    if best is None:
        raise Infeasible("no (lambda, mu) pair with mu >= 0 is feasible on the grid")

    pota = Fraction(int(box_w.min()), opt)
    best_bound = rows[best_row][2]
    return SmoothnessResult(
        alpha=alpha,
        beta=beta,
        grid=tuple(rows),
        best_bound=best_bound,
        pota=pota,
        holds=best_bound <= pota,
    )


def _ratio_floor(groups) -> Fraction:
    """Largest a with num >= a * den for every pair with a positive denominator.

    Each group (least, dens) stands for every pair in nums x dens, where
    least is min(nums) and dens an integer array in the same unit, so only
    least and the extremes of the positive and negative dens are read.
    Zero denominators with nonnegative numerators bind nothing; a negative
    numerator over a zero denominator, a lack of positive denominators, or a
    negative denominator asking for more than the positive ones allow leaves
    no feasible constant, and the first of these reasons wins.  Candidate
    ratios are integer pairs (num, den > 0) compared by cross-multiplication.
    """
    hi = None
    lo = None
    for least, dens in groups:
        least = int(least)
        pos = dens[dens > 0]
        neg = dens[dens < 0]
        if least < 0 and pos.size + neg.size < dens.size:
            raise Infeasible("smoothness constant infeasible: u >= a*0 fails")
        if pos.size:
            den = int(pos.max() if least >= 0 else pos.min())
            if hi is None or least * hi[1] < hi[0] * den:
                hi = (least, den)
        if neg.size:
            den = -int(neg.min() if least >= 0 else neg.max())
            if lo is None or -least * lo[1] > lo[0] * den:
                lo = (-least, den)
    if hi is None:
        raise Infeasible("no positive-denominator ratio to pin the constant")
    if lo is not None and lo[0] * hi[1] > hi[0] * lo[1]:
        raise Infeasible("smoothness constant constraints are contradictory")
    return Fraction(*hi)


def _grid_envelope(lines, opt: int) -> list[tuple[int, int]]:
    """The greatest (lambda*opt - m) / v over the lines (v, m), v > 0, at
    every lambda of the grid, as integer pairs (num, den) with den > 0.

    Empty when there are no lines.  The least m is kept for each v, and the
    lines are stacked into their upper hull in rising slope opt/v, that is
    falling v.  The line (v_k, m_k) overtakes (v_j, m_j), v_j > v_k, at
    lambda = (m_k*v_j - m_j*v_k) / (opt*(v_j - v_k)); these breakpoints are
    held as integer pairs and compared by cross-multiplication, and a line
    whose breakpoint does not rise past its predecessor's is dropped.  One
    walk over the ascending grid, whose k-th lambda is the integer 2^k over
    2^62, then reads the top line at every point.
    """
    least: dict[int, int] = {}
    for v, m in lines:
        if v not in least or m < least[v]:
            least[v] = m
    hull: list[tuple[int, int]] = []
    breaks: list[tuple[int, int]] = []  # hull[i + 1] overtakes hull[i] at p / q
    for v, m in sorted(least.items(), reverse=True):
        while hull:
            hv, hm = hull[-1]
            p, q = m * hv - hm * v, opt * (hv - v)
            if not breaks or p * breaks[-1][1] > breaks[-1][0] * q:
                breaks.append((p, q))
                break
            hull.pop()
            breaks.pop()
        hull.append((v, m))
    if not hull:
        return []
    tops = []
    top = 0
    for k in range(len(_LAMBDA_GRID)):
        while top < len(breaks) and breaks[top][1] << k >= breaks[top][0] << _SHIFT:
            top += 1
        v, m = hull[top]
        tops.append(((opt << k) - (m << _SHIFT), v << _SHIFT))
    return tops


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
