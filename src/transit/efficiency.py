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
from collections.abc import Sequence
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .errors import Infeasible, NotIdenticalUtility, UndefinedPrice, WrongArity, WrongConvention
from .games import Game, Profile, SolutionSet, enumerate_pure_ne, identical_utilities
from .transitions import box_profiles, degree_extremes, degree_map, transition_set

ONE = Fraction(1)


def _optimum(game: Game) -> tuple[Profile, int, Fraction]:
    """(s, w, opt): the first profile of best signed welfare, that welfare
    times L, and the optimum (best welfare, or least cost) it stands for.

    Raises UndefinedPrice when the optimum is not strictly positive.
    """
    welfare = game.welfare
    k = int(welfare.argmax())
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
    optimum: Fraction
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
            "optimum": self.optimum,
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
    D = D.require_nonempty().on(game)
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
        picks = [int(values.argmin()), int(values.argmax())]
        wit.update(zip(keys, profiles(picks)))
        return [Fraction(int(values[k]), top) for k in picks]

    members = D.array
    poa, pos = prices(("poa", "pos"), game.welfare[tuple(members.T)],
                      lambda picks: [tuple(members[k].tolist()) for k in picks])
    # the m-prices and their witnesses are the table's W row; degree <= n
    # is the whole box, so pota and pots are its last entries
    table = degree_extremes(D)
    m_pota = tuple(Fraction(v, top) for v in table.least[0])
    m_pots = tuple(Fraction(v, top) for v in table.greatest[0])
    n = game.n
    named = box_profiles(ts, table.least_at + table.greatest_at)
    wit["pota"], wit["pots"] = named[n - 1], named[2 * n - 1]
    # W over the box as one flat vector in lexicographic order; the stable
    # mask selects flat indices, and only the picked ones become profiles
    at = np.flatnonzero(stable_box)
    posta, posts = prices(("posta", "posts"), game.welfare[ts.box].ravel()[at],
                          lambda picks: box_profiles(ts, at[picks]))
    for m in range(1, n + 1):
        wit[f"m_pota[{m}]"], wit[f"m_pots[{m}]"] = named[m - 1], named[n + m - 1]

    return PriceReport(
        convention=game.convention,
        poa=poa,
        pos=pos,
        pota=m_pota[-1],
        pots=m_pots[-1],
        posta=posta,
        posts=posts,
        m_pota=m_pota,
        m_pots=m_pots,
        optimum=opt,
        solutions_stable=bool(stable[tuple(members.T)].all()),
        witnesses=wit,
    )


# -- tightest regularity constants -----------------------------------------


def _tightest(num: int, den: int) -> Fraction | None:
    """Smallest constant a >= 1 with den >= num / a (equivalently num <= a*den).

    num and den are integers in one unit; a Fraction is made only for a
    constant above 1.  Over a nonpositive denominator a*den only falls as a
    grows, so a = 1 is the answer when num <= den and no a >= 1 exists
    otherwise (None): a 0/0 constraint binds nothing, while den < num <= 0,
    say num = -2 over den = -10, admits no constant.
    """
    if den > 0:
        return Fraction(num, den) if num > den else ONE
    return ONE if num <= den else None


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
    the game's unit 1/L.  The alphas and every degree step read them from
    D's table of extremes by degree (`transitions.degree_extremes`): the
    degree-1 entries of the box are the solutions, and degree n takes in
    the whole box.  Beta reads W and U_i at the solutions themselves.
    """
    if game.convention != "max":
        raise WrongConvention("dependence constants are defined for utility games")
    D = D.on(game)
    table = degree_extremes(D)
    members = tuple(D.array.T)
    betas = _betas(game.ints[1][(slice(None),) + members], game.welfare[members])
    wit = {f"beta[{i}]": tuple(D.members[k] for k in pair)
           for i, (_, pair) in enumerate(betas) if pair is not None}
    # rows W, U_1, ..., U_n; min(small) >= min(large) / a and max(large) <=
    # a * max(small), from the solutions to the box and from the m- to the
    # (m + 1)-transitions, m = 1..n-1
    lower = [_tightest(row[0], row[-1]) for row in table.least]
    upper = [_tightest(row[-1], row[0]) for row in table.greatest]
    steps = range(1, game.n)
    step_lower = [tuple(_tightest(row[m - 1], row[m]) for row in table.least) for m in steps]
    step_upper = [tuple(_tightest(row[m], row[m - 1]) for row in table.greatest) for m in steps]

    return CoordinationDependence(
        alpha_lower=tuple(lower[1:]),
        alpha_upper=tuple(upper[1:]),
        beta=tuple(b for b, _ in betas),
        sw_alpha_lower=lower[0],
        sw_alpha_upper=upper[0],
        sw_degree_alpha_lower=tuple(lo[0] for lo in step_lower),
        sw_degree_alpha_upper=tuple(up[0] for up in step_upper),
        player_degree_alpha_lower=tuple(lo[1:] for lo in step_lower),
        player_degree_alpha_upper=tuple(up[1:] for up in step_upper),
        witnesses=wit,
    )


def _betas(us: np.ndarray, w: np.ndarray) -> list[tuple[Fraction | None, tuple[int, int] | None]]:
    """Each player's tightest variation constant over solution pairs, and the
    first pair (s, t) that sets it, as member indices (None while beta is 1).

    us[i] holds player i's utilities at the solutions, w their welfare.
    Each pair with sw(s) >= sw(t) asks u(s) * beta >= u(t).  In scan order,
    pairs with u(t) > 0 raise beta to u(t) / u(s) up to the first with
    u(s) <= 0, which leaves it undefined (the pair found so far stays).
    Negative utilities make other pairs upper bounds, so the constant is
    then checked against every pair.  One array pass reads the largest u(t)
    over each s's pairs for every player; beta stays an integer pair p / q
    until it is returned.
    """
    ordered = w[:, None] >= w[None, :]
    # the largest u(t) over the pairs of each s; (s, s) is always one
    tops = np.where(ordered, us[:, None, :], us.min(axis=1)[:, None, None]).max(axis=2)
    out = []
    for u, top, row in zip(us.tolist(), tops.tolist(), us):
        p, q, pair, defined = 1, 1, None, True
        for s, (u_s, top_s) in enumerate(zip(u, top)):
            if top_s > 0 and u_s <= 0:
                defined = False
                break
            if top_s > 0 and top_s * q > p * u_s:
                p, q = top_s, u_s
                pair = (s, int(np.flatnonzero(ordered[s] & (row == top_s))[0]))
        if defined and any(u_s * p < top_s * q for u_s, top_s in zip(u, top)):
            defined = False
        out.append((Fraction(p, q) if defined else None, pair))
    return out


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


def _verdict(lhs: Fraction, p: int, q: int, ge: bool) -> tuple[bool, Fraction]:
    """Whether lhs >= p / q (lhs <= p / q when not ge), q > 0, and the slack:
    decided on integers, the slack the one Fraction made."""
    gap = lhs.numerator * q - p * lhs.denominator
    if not ge:
        gap = -gap
    return gap >= 0, Fraction(gap, lhs.denominator * q)


def _row(name, anchor, constants, inequality, lhs, rhs, ge=True) -> BoundRow:
    if lhs is None or rhs is None:
        return BoundRow(name, anchor, constants, inequality, None, None, None, None,
                        skipped="constant undefined")
    holds, slack = _verdict(lhs, rhs.numerator, rhs.denominator, ge)
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
    Rows whose constants are undefined, and the per-player rows when a
    utility at a solution is negative, are reported as skipped, never
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
    D = D.on(game)
    report = price_report(game, D)
    dep = coordination_dependence(game, D)
    beta = None if any(v is None for v in dep.beta) else max(dep.beta)
    # the per-player proofs divide u_i(s) / alpha_i >= u_i(s) / alpha, which
    # needs every utility at the solutions to be nonnegative
    members = tuple(D.array.T)
    negative = bool((game.ints[1][(slice(None),) + members] < 0).any())
    rows: list[BoundRow] = []
    for fam in _BOUND_FAMILIES:
        # each side's alpha at every stage, the largest over the players of a
        # per-player family; None where a constant it takes is undefined
        alphas = []
        for side in (0, 1):
            value = getattr(dep, fam.constants[side])
            stages = value if fam.per_degree else (value,)
            if fam.per_player:
                stages = [None if any(c is None for c in st) else max(st) for st in stages]
            alphas.append(list(stages))
        for m in range(2, game.n + 1) if fam.per_degree else (None,):
            for side in (0, 1):
                name = fam.names[side] if m is None else f"{fam.names[side]}(m={m})"
                if fam.per_player and negative:
                    rows.append(_skip(name, fam.anchor, "a utility is negative at a solution"))
                    continue
                factors = alphas[side][: m - 1] if fam.per_degree else alphas[side]
                if fam.skip and (any(c is None for c in factors)
                                 or (fam.per_player and beta is None)):
                    rows.append(_skip(name, fam.anchor, fam.skip))
                    continue
                constants = ({"alphas": tuple(factors)} if fam.per_degree
                             else {"alpha": factors[0]})
                if fam.per_player:
                    constants["beta"] = beta
                    factors = factors + [beta]
                if side == 0:
                    lhs, bound = (report.pota if m is None else report.m_pota_at(m)), report.poa
                else:
                    lhs, bound = (report.pots if m is None else report.m_pots_at(m)), report.pos
                rows.append(_bound_row(name, fam.anchor, constants, fam.inequalities[side],
                                       lhs, factors, bound, side == 0))
    return rows


def _bound_row(name, anchor, constants, inequality, lhs, factors, bound, anarchy) -> BoundRow:
    """The row asserting lhs >= bound / K (anarchy) or lhs <= K * bound, K
    the product of the factors: K, the right side, the verdict and the slack
    come from integer numerators and denominators, and only the right side
    and the slack become Fractions."""
    if any(c is None for c in factors):
        return _row(name, anchor, constants, inequality, lhs, None)
    num = math.prod(c.numerator for c in factors)
    den = math.prod(c.denominator for c in factors)
    if anarchy:
        p, q = bound.numerator * den, bound.denominator * num
    else:
        p, q = bound.numerator * num, bound.denominator * den
    holds, slack = _verdict(lhs, p, q, anarchy)
    return BoundRow(name, anchor, constants, inequality, lhs, Fraction(p, q), holds, slack)


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


# 64 geometric points in (0, 2] with ratio 2, so 1 and 2 are included:
# 2^-62 .. 2^1, the k-th grid lambda is the integer 2^k over 2^_SHIFT
_SHIFT = 62
_LAMBDA_GRID = tuple(Fraction(2) ** k for k in range(-_SHIFT, 2))


class _Grid(Sequence):
    """A certificate's feasible grid rows (lambda, mu, bound), held as the
    integers (k, mu_num, mu_den, bound_num, bound_den), lambda the k-th
    point of `_LAMBDA_GRID`, and made Fractions when first read.  It equals
    the tuple of those rows, as a tuple of them would."""

    def __init__(self, rows: list[tuple[int, int, int, int, int]]) -> None:
        self._rows = rows

    @functools.cached_property
    def _fractions(self) -> tuple[tuple[Fraction, Fraction, Fraction], ...]:
        return tuple((_LAMBDA_GRID[k], Fraction(mu_num, mu_den), Fraction(num, den))
                     for k, mu_num, mu_den, num, den in self._rows)

    def __getitem__(self, i):
        return self._fractions[i]

    def __len__(self) -> int:
        return len(self._rows)

    def __eq__(self, other) -> bool:
        return self._fractions == (other._fractions if isinstance(other, _Grid) else other)

    def __hash__(self) -> int:
        return hash(self._fractions)

    def __repr__(self) -> str:
        return repr(self._fractions)


@dataclass(frozen=True)
class SmoothnessResult:
    """alpha, beta, the feasible grid rows (lambda, mu, bound) in rising
    lambda, the best bound over them, the exhaustive pota, and whether the
    bound holds.  `extensive_smoothness` makes the grid's Fractions when it
    is first read (`_Grid`); only best_bound is made up front."""

    alpha: Fraction
    beta: Fraction
    grid: Sequence[tuple[Fraction, Fraction, Fraction]]
    best_bound: Fraction
    pota: Fraction
    holds: bool


def extensive_smoothness(game: Game, D: SolutionSet | None = None) -> SmoothnessResult:
    """Best certified lower bound on the transition price of anarchy.

    The three smoothness conditions are instantiated with their tightest
    constants: alpha from comparing transitions against the solutions they
    borrow a coordinate from, beta from swapping the transition completing an
    optimal strategy, and for each lambda of the grid (`_LAMBDA_GRID`) the
    least feasible mu.  The certified bound alpha*beta*lambda / (1 +
    alpha*beta*mu) is maximised over the grid and checked against the
    exhaustively computed price.  Raises UndefinedPrice, as `price_report`
    does, when the maximum social welfare is not strictly positive.

    No constant loops over pairs or profiles; every pass reduces the
    integers U and W (`Game.ints`, `Game.welfare`) over D's transition box.
    The pairs behind alpha and beta form product sets, one per player and
    strategy, whose extremes decide the constant; each constant reduces all
    its groups, of every player, in one array pass (`_ratio_floor`).  Every
    optimum has welfare opt, so mu reads each transition t only through
    sw(t) and m_t, the least sum_i u_i(s*_i, t_-i) over optima s*: each
    welfare value w != 0 gives the line lambda -> (lambda*opt - m) / |w|,
    m the least m_t at that value.  One integer hull sweep over the grid
    (`_grid_envelope`) reads the top line for w > 0 (the floor of mu) and
    for w < 0 (minus its ceiling).  Every grid lambda is an integer over
    2^62, and each row's feasibility and the best bound are decided by
    integer cross-multiplication.  The rows stay integer pairs: the best
    bound is the one Fraction made here, and the grid's Fractions are made
    when `SmoothnessResult.grid` is first read.
    """
    if game.convention != "max":
        raise WrongConvention("smoothness certificates require utility games")
    if D is None:
        D = enumerate_pure_ne(game)
    D = D.require_nonempty().on(game)
    _, opt, _ = _optimum(game)
    ts = transition_set(D)
    # the certificate reads no degree; this read keeps the count of degree
    # map reads that perfbench/test_perfbench.py pins for `bounds`
    degree_map(D)
    box, projs = ts.box, ts.projections
    payoff, welfare = game.ints[1], game.welfare
    box_w = welfare[box]
    n = game.n

    # condition 1 constant: u_i(s) >= alpha * u_i(d) whenever s_i = d_i;
    # one group per player i and value x of projs[i], its denominators the
    # u_i(d) of the members with d_i = x
    members = D.array.T
    player = np.repeat(np.arange(n), [len(p) for p in projs])
    value = np.array([x for p in projs for x in p])
    lowest = np.concatenate([payoff[i][box].min(axis=tuple(j for j in range(n) if j != i))
                             for i in range(n)])
    alpha = _ratio_floor([(lowest, payoff[(slice(None),) + tuple(members)][player],
                           members[player] == value[:, None])])

    # condition 2 constant: completing an optimal strategy with one
    # transition versus another moves the utility by at most 1/beta.
    # completed[i, x] = u_i(x, t_-i) over the box, x an optimum's strategy
    optima = list(zip(*(ix.tolist() for ix in (welfare == opt).nonzero())))
    strategies = [sorted({star[i] for star in optima}) for i in range(n)]
    completed = {
        (i, x): payoff[i][tuple(x if j == i else b for j, b in enumerate(box))]
        .astype(welfare.dtype, copy=False)
        for i in range(n)
        for x in strategies[i]
    }
    # one block per player, a row per strategy x: each pair of completions
    # is a numerator and a denominator
    blocks = [np.stack([completed[i, x].ravel() for x in strategies[i]]) for i in range(n)]
    beta = _ratio_floor((rows.min(axis=1), rows, None) for rows in blocks)

    # condition 3: mu >= (lambda*opt - m_t) / sw(t) when sw(t) > 0, mu <= it
    # when sw(t) < 0, and lambda*opt <= m_t when sw(t) = 0.
    totals = (sum(completed[i, star[i]] for i in range(n)) for star in optima)
    least = np.broadcast_to(functools.reduce(np.minimum, totals), box_w.shape)
    # each distinct welfare value with the least m_t at it, by one sort
    order = box_w.ravel().argsort()
    ranked = box_w.ravel()[order]
    starts = [0] + (np.flatnonzero(ranked[1:] != ranked[:-1]) + 1).tolist()
    lines = list(zip(ranked[starts].tolist(),
                     np.minimum.reduceat(least.ravel()[order], starts).tolist()))
    # mu >= the top rising line; mu <= minus the top falling line
    rising = _grid_envelope([(w, m) for w, m in lines if w > 0], opt)
    falling = _grid_envelope([(-w, m) for w, m in lines if w < 0], opt)
    flat_least = min((m for w, m in lines if w == 0), default=None)

    # the k-th lambda is 2^k / 2^_SHIFT; alpha * beta = a / b
    ab = alpha * beta
    a, b = ab.numerator, ab.denominator
    rows = []
    best = None
    for k in range(len(_LAMBDA_GRID)):
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
        rows.append((k, mu_num, mu_den) + bound)
    if best is None:
        raise Infeasible("no (lambda, mu) pair with mu >= 0 is feasible on the grid")

    pota = Fraction(int(box_w.min()), opt)
    best_bound = Fraction(*best)
    return SmoothnessResult(
        alpha=alpha,
        beta=beta,
        grid=_Grid(rows),
        best_bound=best_bound,
        pota=pota,
        holds=best_bound <= pota,
    )


def _ratio_floor(blocks) -> Fraction:
    """Largest a with num >= a * den for every pair with a positive denominator.

    Each block (least, dens, valid) holds groups of pairs: row g of the
    integer array dens holds the denominators of group g, those that valid
    marks (every one when valid is None), and least[g] the least of its
    numerators, in the same unit.  A group stands for every pair in nums x
    dens, so only least and the denominators that bind are read: a positive
    den binds most as the largest when least >= 0 and as the smallest
    otherwise, a negative one as the smallest when least >= 0 and as the
    largest otherwise, and one array pass finds them for every group of a
    block.  Zero denominators with nonnegative numerators bind nothing; a
    negative numerator over a zero denominator, a lack of positive
    denominators, or a negative denominator asking for more than the
    positive ones allow leaves no feasible constant, and the first of these
    reasons wins.  Candidate ratios are integer pairs (num, den > 0)
    compared by cross-multiplication.
    """
    hi = None
    lo = None
    for least, dens, valid in blocks:
        up = least >= 0
        flip = np.where(up, 1, -1)
        key = dens * flip[:, None]
        pos, neg, zero = dens > 0, dens < 0, dens == 0
        if valid is not None:
            pos, neg, zero = pos & valid, neg & valid, zero & valid
        if (zero.any(axis=1) & ~up).any():
            raise Infeasible("smoothness constant infeasible: u >= a*0 fails")
        # past every key: a side's binding den has the greatest key among
        # the positive dens and the least among the negative ones
        big = int(abs(dens).max()) + 1
        top = np.where(pos, key, -big).max(axis=1).tolist()
        bottom = np.where(neg, key, big).min(axis=1).tolist()
        for num, f, t, b in zip(least.tolist(), flip.tolist(), top, bottom):
            if t != -big:
                den = t * f
                if hi is None or num * hi[1] < hi[0] * den:
                    hi = (num, den)
            if b != big:
                den = -b * f
                if lo is None or -num * lo[1] > lo[0] * den:
                    lo = (-num, den)
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
    # hull[i] is on top from lambda = breaks[i - 1] up to breaks[i]
    tops = []
    k, size = 0, len(_LAMBDA_GRID)
    for (v, m), (p, q) in zip(hull, breaks + [(1, 0)]):
        m, v, p = m << _SHIFT, v << _SHIFT, p << _SHIFT
        while k < size and q << k < p:
            tops.append(((opt << k) - m, v))
            k += 1
    return tops


# -- structural observations --------------------------------------------------


def verify_identical_utility(game: Game) -> dict:
    """For identical-utility games the best transition is already optimal."""
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
