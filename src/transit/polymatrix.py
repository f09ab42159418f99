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

import itertools
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator, Mapping, Sequence

from .efficiency import price_report
from .errors import ParseError, PreconditionFailed, UndefinedPrice
from .games import Game, Profile, SolutionSet, as_exact, enumerate_pure_ne
from .transitions import degree_map, is_stable_transition, transition_set

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
        # built once; every analysis reads it through to_game()
        object.__setattr__(self, "_game", Game.from_function(
            self.strategy_counts,
            lambda s: tuple(self.utility(i, s) for i in range(n)),
        ))

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
        return self._game

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
    game = pg.to_game()
    n = pg.n_players

    part1 = True
    witness1 = None
    for i in range(n):
        mats = [pg.matrices[(i, j)] for j in range(n) if j != i]
        for k in range(1, len(mats)):
            if mats[k] != mats[0]:
                part1 = False
                js = [j for j in range(n) if j != i]
                witness1 = (i, js[0], js[k])
                break
        if not part1:
            break

    part2 = True
    witness2 = None
    profiles = list(game.profiles())
    sw = {s: sum(game.payoffs[s]) for s in profiles}
    for s, t in itertools.combinations(profiles, 2):
        lo, hi = (s, t) if sw[s] <= sw[t] else (t, s)
        for i in range(n):
            if game.payoffs[hi][i] < game.payoffs[lo][i]:
                part2 = False
                witness2 = (hi, lo, i)
                break
        if not part2:
            break

    if D is None:
        ne = enumerate_pure_ne(game)
        sym = symmetric_members(ne)
        D = SolutionSet(game, tuple(sym), "symmetric-NE") if sym else None

    regular = None
    witness_reg = None
    if D is not None and not D.is_empty:
        regular = True
        for t in transition_set(D):
            for s in D.members:
                p_s = {p for p in range(n) if t[p] == s[p]}
                for i in range(n):
                    if i in p_s:
                        continue
                    lhs = sum(
                        (pg.matrices[(i, k)][s[i]][t[k]]
                         for k in range(n) if k not in p_s and k != i),
                        start=F(0),
                    )
                    rhs = 2 * max(
                        pg.pair_max(i, j) for j in range(n) if j != i
                    )
                    if lhs < rhs:
                        regular = False
                        witness_reg = {"transition": t, "solution": s, "player": i,
                                       "lhs": lhs, "rhs": rhs}
                        break
                if regular is False:
                    break
            if regular is False:
                break

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
    degs = degree_map(D)
    pool = [t for t, d in degs.items() if d <= m and is_stable_transition(D, t)]
    sw = lambda s: sum(game.payoffs[s])
    opt = max(sw(s) for s in game.profiles())
    if opt <= 0:
        raise UndefinedPrice("maximum social welfare is nonpositive")
    return min(sw(t) for t in pool) / opt


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
        game = pg.to_game()
        ne = enumerate_pure_ne(game)
        sym = symmetric_members(ne)
        if not sym:
            continue
        D = SolutionSet(game, tuple(sym), "symmetric-NE")
        checks = check_polymatrix_symmetry_and_regularity(pg, D)
        if not (checks["symmetric"] and checks["regular"]):
            continue
        try:
            price_report(game, D)
        except UndefinedPrice:
            continue
        produced += 1
        yield pg, D
