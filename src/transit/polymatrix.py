"""Polymatrix games and the limited-stable-transition welfare floor.

Utilities are sums of pairwise matrix payoffs.  The welfare floor
m-posta >= poa / m is asserted for nonnegative games passing two
hypothesis checks: a per-player symmetry (one matrix against all
opponents plus welfare-monotone utilities) and a regularity condition
quantified over all transitions of the designated symmetric solution set.
The hypothesis class is thin; the generator draws candidates by rejection
sampling and reports exactly which checks passed.
"""

from __future__ import annotations

import functools
import itertools
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator, Mapping, Sequence

import numpy as np

from .efficiency import price_report, transition_box
from .errors import ParseError, PreconditionFailed, UndefinedPrice
from .degrees import product_profiles, projections
from .games import Game, Profile, SolutionSet, as_exact

F = Fraction

Matrix = tuple[tuple[Fraction, ...], ...]


@dataclass(frozen=True)
class PolymatrixGame:
    """Pairwise-interaction game; matrices[(i, j)] has shape |S_i| x |S_j|."""

    n_players: int
    strategy_counts: tuple[int, ...]
    matrices: Mapping[tuple[int, int], Matrix]

    def __post_init__(self) -> None:
        n = self.n_players
        if n < 2:
            raise ParseError("polymatrix games need at least two players")
        if len(self.strategy_counts) != n:
            raise ParseError("one strategy count per player")
        for i, j in itertools.permutations(range(n), 2):
            m = self.matrices.get((i, j))
            if m is None:
                raise ParseError(f"missing matrix for pair ({i}, {j})")
            if len(m) != self.strategy_counts[i] or any(
                len(row) != self.strategy_counts[j] for row in m
            ):
                raise ParseError(f"matrix ({i}, {j}) has the wrong shape")

    @classmethod
    def build(cls, matrices: Mapping[tuple[int, int], Sequence[Sequence]], n=None):
        pairs = {
            (int(i), int(j)): tuple(tuple(as_exact(v) for v in row) for row in m)
            for (i, j), m in matrices.items()
        }
        players = {i for i, _ in pairs} | {j for _, j in pairs}
        count = n if n is not None else max(players) + 1
        shape = [0] * count
        for (i, j), m in pairs.items():
            shape[i] = len(m)
            shape[j] = len(m[0])
        return cls(count, tuple(shape), pairs)

    def utility(self, i: int, s: Sequence[int]) -> Fraction:
        return sum(
            (self.matrices[(i, j)][s[i]][s[j]]
             for j in range(self.n_players) if j != i),
            start=F(0),
        )

    def to_game(self) -> Game:
        """The dense game, built on first use; every analysis reads this one."""
        return self._game

    @functools.cached_property
    def _game(self) -> Game:
        return Game.from_function(
            self.strategy_counts,
            lambda s: tuple(self.utility(i, s) for i in range(self.n_players)),
        )

    @functools.cached_property
    def scaled_utilities(self) -> np.ndarray:
        """U[i, *s]: u_i(s) times the lcm of every matrix denominator.

        Exact Python ints (dtype object) summed from the matrices by
        broadcasting, without building the dense game; comparisons of
        utilities and welfare read the same on U.
        """
        n, shape = self.n_players, self.strategy_counts
        scale = math.lcm(
            *{v.denominator for m in self.matrices.values() for row in m for v in row}
        )
        utilities = np.zeros((n, *shape), dtype=object)
        for (i, j), m in self.matrices.items():
            pair = np.array(
                [[v.numerator * (scale // v.denominator) for v in row] for row in m],
                dtype=object,
            )
            axes = [1] * n
            axes[i], axes[j] = shape[i], shape[j]
            utilities[i] += (pair if i < j else pair.T).reshape(axes)
        return utilities

    def is_nonnegative(self) -> bool:
        return all(
            v >= 0 for m in self.matrices.values() for row in m for v in row
        )

    def pair_max(self, i: int, j: int) -> Fraction:
        return max(v for row in self.matrices[(i, j)] for v in row)


def is_symmetric_profile(s: Sequence[int]) -> bool:
    return len(set(s)) == 1


def symmetric_members(D: SolutionSet) -> list[Profile]:
    return [s for s in D.members if is_symmetric_profile(s)]


def symmetric_equilibria(pg: PolymatrixGame) -> list[Profile]:
    """The pure equilibria (x, ..., x) in increasing x, read off the
    matrices: no player gains by a switch against x everywhere else."""
    utilities = pg.scaled_utilities
    out = []
    for x in range(min(pg.strategy_counts)):
        s = (x,) * pg.n_players
        if all(
            utilities[(i,) + s[:i] + (slice(None),) + s[i + 1 :]].max()
            <= utilities[(i,) + s]
            for i in range(pg.n_players)
        ):
            out.append(s)
    return out


def _one_matrix_per_player(pg: PolymatrixGame) -> tuple[bool, tuple | None]:
    """Part 1: each player uses one matrix against every opponent."""
    n = pg.n_players
    for i in range(n):
        js = [j for j in range(n) if j != i]
        for j in js[1:]:
            if pg.matrices[(i, j)] != pg.matrices[(i, js[0])]:
                return False, (i, js[0], j)
    return True, None


def _welfare_monotone(pg: PolymatrixGame) -> tuple[bool, tuple | None]:
    """Part 2: welfare-ordered profiles order every player's utility alike.

    Equivalently, in order of welfare (ties in profile order) each
    profile's utilities are all at least the previous profile's: equal
    welfare then forces equal utilities, and the chain covers every pair.
    The witness (hi, lo, i) is the first adjacent pair where i loses.
    """
    utilities = pg.scaled_utilities.reshape(pg.n_players, -1)
    order = np.argsort(utilities.sum(axis=0), kind="stable")
    drops = np.diff(utilities[:, order], axis=1) < 0
    if not drops.any():
        return True, None
    step, i = (int(v) for v in np.argwhere(drops.T)[0])
    lo, hi = (
        tuple(int(v) for v in np.unravel_index(order[k], pg.strategy_counts))
        for k in (step, step + 1)
    )
    return False, (hi, lo, i)


def _regularity(
    pg: PolymatrixGame, members: Sequence[Profile]
) -> tuple[bool, dict | None]:
    """Regularity of a nonempty solution list, read off the matrices."""
    n = pg.n_players
    rhs_of = [2 * max(pg.pair_max(i, j) for j in range(n) if j != i) for i in range(n)]
    for t in product_profiles(projections(members, n)):
        for s in members:
            p_s = {p for p in range(n) if t[p] == s[p]}
            for i in range(n):
                if i in p_s:
                    continue
                lhs = sum(
                    (pg.matrices[(i, k)][s[i]][t[k]]
                     for k in range(n) if k not in p_s and k != i),
                    start=F(0),
                )
                if lhs < rhs_of[i]:
                    return False, {"transition": t, "solution": s, "player": i,
                                   "lhs": lhs, "rhs": rhs_of[i]}
    return True, None


def check_polymatrix_symmetry_and_regularity(
    pg: PolymatrixGame, D: SolutionSet | None = None
) -> dict:
    """Hypothesis checks with witnesses.

    Part 1: each player uses one matrix against every opponent.  Part 2:
    welfare-ordered profiles order every player's utility the same way.
    Regularity is relative to a solution set D (default: the symmetric pure
    equilibria): for every transition t, solution s, and player i outside
    P(s) = {p : t_p = s_p}, the contribution to i from players outside
    P(s) u {i} playing t, evaluated at s_i, covers twice the largest single
    pairwise payoff i can see.
    """
    part1, witness1 = _one_matrix_per_player(pg)
    part2, witness2 = _welfare_monotone(pg)

    if D is None:
        sym = symmetric_equilibria(pg)
        D = SolutionSet(pg.to_game(), tuple(sym), "symmetric-NE") if sym else None

    regular = None
    witness_reg = None
    if D is not None and not D.is_empty:
        regular, witness_reg = _regularity(pg, D.members)

    return {
        "symmetric": part1 and part2,
        "part1": part1,
        "part2": part2,
        "regular": regular,
        "witnesses": {
            "part1": witness1,
            "part2": witness2,
            "regularity": witness_reg,
        },
        "solution_set": D,
    }


def m_posta(game: Game, D: SolutionSet, m: int) -> Fraction:
    """Worst welfare ratio over transitions that are both stable and m-limited."""
    box, degree = transition_box(D)
    welfare = game.welfare if game.convention == "max" else -game.welfare
    pool = welfare[box][(degree <= m) & game.stable_grid("strict")[box]]
    opt = welfare.max()
    if opt <= 0:
        raise UndefinedPrice("maximum social welfare is nonpositive")
    if pool.size == 0:
        raise UndefinedPrice(
            f"solution set {D.label!r} has no strict stable transition of degree "
            f"<= {m}; m-posta is undefined"
        )
    return Fraction(int(pool.min()), int(opt))


def verify_theorem1(pg: PolymatrixGame, D: SolutionSet, m: int) -> dict:
    """Assert m-posta >= poa / m after gating on every hypothesis.

    Refuses (PreconditionFailed) when the game is not nonnegative, fails a
    symmetry part, fails regularity with respect to D, or D is not a
    symmetric profile set.
    """
    failures = []
    if not pg.is_nonnegative():
        failures.append("nonnegativity")
    if any(not is_symmetric_profile(s) for s in D.members):
        failures.append("solution set symmetry")
    checks = check_polymatrix_symmetry_and_regularity(pg, D)
    if not checks["part1"]:
        failures.append("per-player matrix equality")
    if not checks["part2"]:
        failures.append("welfare monotonicity")
    if checks["regular"] is False:
        failures.append("regularity")
    if failures:
        raise PreconditionFailed("violated hypotheses: " + ", ".join(failures))

    game = pg.to_game()
    D.require_nonempty()
    report = price_report(game, D)
    val = m_posta(game, D, m)
    bound = report.poa / m
    return {
        "m": m,
        "poa": report.poa,
        "m_posta": val,
        "bound": bound,
        "holds": val >= bound,
        "slack": val - bound,
        "solutions": len(D.members),
    }


def generate_theorem1_instances(
    rng: random.Random,
    count: int,
    n_range: tuple[int, int] = (2, 4),
    k_range: tuple[int, int] = (2, 3),
    value_range: tuple[int, int] = (0, 3),
    max_attempts: int = 200_000,
) -> Iterator[tuple[PolymatrixGame, SolutionSet]]:
    """Rejection-sample games passing every Theorem-1 hypothesis.

    Part 1 holds by construction (one drawn matrix per player, reused
    against every opponent).  Parts 2 and regularity are tested after the
    fact; the regularity condition is so demanding on nonnegative games
    that surviving instances mostly carry singleton solution sets, which
    the caller can see via the returned D.  Ranges are configurable to
    probe the boundary rather than bias the sample.
    """
    produced = 0
    attempts = 0
    lo, hi = value_range
    while produced < count and attempts < max_attempts:
        attempts += 1
        n = rng.randint(*n_range)
        k = rng.randint(*k_range)
        per_player = []
        for _ in range(n):
            if rng.random() < 0.5:
                # single repeated row: utilities depend only on own strategy
                row = [F(rng.randint(lo, hi)) for _ in range(k)]
                mat = tuple(tuple(F(row[a]) for _ in range(k)) for a in range(k))
            else:
                mat = tuple(
                    tuple(F(rng.randint(lo, hi)) for _ in range(k)) for _ in range(k)
                )
            per_player.append(mat)
        matrices = {
            (i, j): per_player[i]
            for i in range(n)
            for j in range(n)
            if j != i
        }
        pg = PolymatrixGame(n, (k,) * n, matrices)
        # every hypothesis is read off the matrices, so the dense game is
        # built for accepted candidates only
        sym = symmetric_equilibria(pg)
        if not (
            sym
            and _one_matrix_per_player(pg)[0]
            and _welfare_monotone(pg)[0]
            and _regularity(pg, sym)[0]
        ):
            continue
        game = pg.to_game()
        D = SolutionSet(game, tuple(sym), "symmetric-NE")
        try:
            price_report(game, D)
        except UndefinedPrice:
            continue
        produced += 1
        yield pg, D
