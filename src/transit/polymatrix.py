"""Polymatrix games and the limited-stable-transition welfare floor.

Utilities are sums of pairwise matrix payoffs.  The welfare floor
m-posta >= poa / m is asserted for nonnegative games passing two
hypothesis checks: a per-player symmetry (one matrix against all
opponents plus welfare-monotone utilities) and a regularity condition
quantified over all transitions of the designated symmetric solution set.
The matrices are turned into integers once, over their common denominator;
the dense game is summed from them, and every check reads the game's
integer grid or those integer matrices.  The hypothesis class is thin; the
generator draws candidates by rejection sampling and reports exactly which
checks passed.
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

from .efficiency import _optimum, price_report
from .errors import ParseError, PreconditionFailed, UndefinedPrice
from .games import Game, Profile, SolutionSet, checked_shape
from .transitions import degree_map, transition_set

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

    @functools.cached_property
    def int_matrices(self) -> tuple[int, Mapping[tuple[int, int], np.ndarray]]:
        """(L, M): L the lcm of every matrix denominator and M[(i, j)] the
        matrix (i, j) times L, int64 while max |M| * (n - 1), the largest
        utility, stays below 2**62, and Python ints (dtype object) beyond."""
        scale = math.lcm(
            *{v.denominator for m in self.matrices.values() for row in m for v in row}
        )
        ints = {
            pair: [[v.numerator * (scale // v.denominator) for v in row] for row in m]
            for pair, m in self.matrices.items()
        }
        top = max((abs(x) for m in ints.values() for row in m for x in row), default=0)
        dtype = object if top * (self.n_players - 1) >= 2**62 else np.int64
        return scale, {pair: np.array(m, dtype=dtype) for pair, m in ints.items()}

    def to_game(self) -> Game:
        """The dense game, built on first use; every analysis reads this one."""
        return self._game

    @functools.cached_property
    def _game(self) -> Game:
        """U[i, *s] = sum over j != i of M_ij[s_i, s_j], summed by
        broadcasting each integer matrix over the profile grid."""
        n = self.n_players
        players = tuple(f"p{i + 1}" for i in range(n))
        names = tuple(tuple(str(x) for x in range(k)) for k in self.strategy_counts)
        shape = checked_shape(players, names, "max")
        scale, mats = self.int_matrices
        utilities = np.zeros((n, *shape), dtype=mats[(0, 1)].dtype)
        for (i, j), m in mats.items():
            axes = [1] * n
            axes[i], axes[j] = shape[i], shape[j]
            utilities[i] += (m if i < j else m.T).reshape(axes)
        return Game(players, names, scale, utilities)


def is_symmetric_profile(s: Sequence[int]) -> bool:
    return len(set(s)) == 1


def symmetric_equilibria(pg: PolymatrixGame) -> list[Profile]:
    """The pure equilibria (x, ..., x) in increasing x: no player gains by
    a switch there (every `Game.regret` entry is 0)."""
    gains = pg.to_game().regret[1]
    n = pg.n_players
    return [
        (x,) * n
        for x in range(min(pg.strategy_counts))
        if not gains[(slice(None),) + (x,) * n].any()
    ]


def _nonnegative(pg: PolymatrixGame) -> tuple[bool, tuple | None]:
    """Every matrix entry is at least 0; the witness is the first pair
    (i, j) whose matrix has a negative entry."""
    bad = next((pair for pair, m in pg.int_matrices[1].items() if m.min() < 0), None)
    return bad is None, bad


def _symmetric_solutions(D: SolutionSet) -> tuple[bool, tuple | None]:
    """Every solution is some (x, ..., x); the witness is the first that is not."""
    bad = next((s for s in D.members if not is_symmetric_profile(s)), None)
    return bad is None, bad


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

    Equivalently, in order of welfare W (ties in profile order) each
    profile's utilities U are all at least the previous profile's: equal
    welfare then forces equal utilities, and the chain covers every pair.
    The witness (hi, lo, i) is the first adjacent pair where i loses.
    """
    game = pg.to_game()
    utilities = game.ints[1].reshape(game.n, -1)
    order = np.argsort(game.welfare.reshape(-1), kind="stable")
    drops = np.diff(utilities[:, order], axis=1) < 0
    if not drops.any():
        return True, None
    step, i = (int(v) for v in np.argwhere(drops.T)[0])
    lo, hi = (
        tuple(int(v) for v in np.unravel_index(order[k], game.shape))
        for k in (step, step + 1)
    )
    return False, (hi, lo, i)


def _regularity(pg: PolymatrixGame, D: SolutionSet) -> tuple[bool | None, dict | None]:
    """Regularity of D (undecided, None, when D is empty).

    One integer pass over D's transition box per solution s and player i:
    wherever t_i != s_i, lhs(t) = sum over k != i with t_k != s_k of
    M_ik[s_i, t_k] must reach rhs = 2 max_j max M_ij.  The witness is the
    first failure in (t, s, i) order.
    """
    if D.is_empty:
        return None, None
    n = pg.n_players
    scale, mats = pg.int_matrices
    projs = transition_set(D).projections
    shape = tuple(map(len, projs))
    cols = [np.array(p) for p in projs]

    def along(k: int, v: np.ndarray) -> np.ndarray:
        return v.reshape([-1 if a == k else 1 for a in range(n)])

    rhs = [2 * max(int(mats[(i, j)].max()) for j in range(n) if j != i) for i in range(n)]
    first = None
    for s in D.members:
        for i in range(n):
            lhs = sum(
                along(k, np.where(cols[k] != s[k], mats[(i, k)][s[i], cols[k]], 0))
                for k in range(n) if k != i
            )
            fails = (lhs < rhs[i]) & along(i, cols[i] != s[i])
            if not fails.any():
                continue
            at = np.unravel_index(int(fails.argmax()), shape)
            if first is None or at < first[0]:
                first = (at, s, i, int(np.broadcast_to(lhs, shape)[at]))
    if first is None:
        return True, None
    at, s, i, lhs = first
    t = tuple(p[a] for p, a in zip(projs, at))
    return False, {"transition": t, "solution": s, "player": i,
                   "lhs": Fraction(lhs, scale), "rhs": Fraction(rhs[i], scale)}


def hypotheses(pg: PolymatrixGame, D: SolutionSet) -> Iterator[tuple[str, tuple]]:
    """Every hypothesis of Theorem 1 as (name, (holds, witness)), in the
    order refusals name them; each is checked when reached, so a caller
    may stop at the first failure."""
    yield "nonnegativity", _nonnegative(pg)
    yield "solution set symmetry", _symmetric_solutions(D)
    yield "per-player matrix equality", _one_matrix_per_player(pg)
    yield "welfare monotonicity", _welfare_monotone(pg)
    yield "regularity", _regularity(pg, D)


def check_polymatrix_symmetry_and_regularity(
    pg: PolymatrixGame, D: SolutionSet | None = None
) -> dict:
    """Every hypothesis of `hypotheses`, with witnesses.

    Per-player matrix equality: each player uses one matrix against every
    opponent.  Welfare monotonicity: welfare-ordered profiles order every
    player's utility the same way.  Regularity is relative to a solution
    set D (default: the symmetric pure equilibria): for every transition t,
    solution s, and player i outside P(s) = {p : t_p = s_p}, the
    contribution to i from players outside P(s) u {i} playing t, evaluated
    at s_i, covers twice the largest single pairwise payoff i can see.
    """
    if D is None:
        D = SolutionSet(pg.to_game(), tuple(symmetric_equilibria(pg)), "symmetric-NE")
    checks = dict(hypotheses(pg, D))
    return {
        "holds": {name: holds for name, (holds, _) in checks.items()},
        "witnesses": {name: witness for name, (_, witness) in checks.items()},
        "solution_set": D,
    }


def m_posta(game: Game, D: SolutionSet, m: int) -> Fraction:
    """Worst welfare ratio over transitions that are both stable and m-limited."""
    box = transition_set(D).box
    welfare = game.welfare if game.convention == "max" else -game.welfare
    pool = welfare[box][(degree_map(D) <= m) & game.stable_grid("strict")[box]]
    opt = welfare.max()
    if opt <= 0:
        raise UndefinedPrice("maximum social welfare is nonpositive")
    if pool.size == 0:
        raise UndefinedPrice(
            f"solution set {D.label!r} has no strict stable transition of degree "
            f"<= {m}; m-posta is undefined"
        )
    return Fraction(int(pool.min()), int(opt))


def verify_theorem1(pg: PolymatrixGame, D: SolutionSet, ms: Sequence[int]) -> list[dict]:
    """Assert m-posta >= poa / m for each m in ms, one row per m, after
    gating once on every hypothesis (`hypotheses`) and pricing D once.

    Refuses (PreconditionFailed) naming every hypothesis that fails.
    """
    holds = check_polymatrix_symmetry_and_regularity(pg, D)["holds"]
    failures = [name for name, ok in holds.items() if ok is False]
    if failures:
        raise PreconditionFailed("violated hypotheses: " + ", ".join(failures))

    game = pg.to_game()
    D.require_nonempty()
    poa = price_report(game, D).poa
    rows = []
    for m in ms:
        val = m_posta(game, D, m)
        bound = poa / m
        rows.append({
            "m": m,
            "poa": poa,
            "m_posta": val,
            "bound": bound,
            "holds": val >= bound,
            "slack": val - bound,
            "solutions": len(D.members),
        })
    return rows


# candidates of `generate_theorem1_instances`: player and strategy counts,
# and the range of every matrix entry, each drawn uniformly and inclusively
PLAYERS = (2, 4)
STRATEGIES = (2, 3)
VALUES = (0, 3)


def generate_theorem1_instances(
    rng: random.Random, count: int, max_attempts: int = 200_000
) -> Iterator[tuple[PolymatrixGame, SolutionSet]]:
    """Rejection-sample games passing every Theorem-1 hypothesis.

    The solution set is the symmetric pure equilibria.  Per-player matrix
    equality holds by construction (one drawn matrix per player, reused
    against every opponent); every hypothesis is still tested, in
    `hypotheses` order.  The regularity condition is so demanding on
    nonnegative games that surviving instances mostly carry singleton
    solution sets, which the caller can see via the returned D.  Fewer
    than count instances come out when max_attempts candidates run out
    first.

    Instances with a nonpositive optimum are dropped.  Every pure
    equilibrium is a strict stable transition, so on a nonempty D no other
    price can be undefined.
    """
    produced = 0
    attempts = 0
    lo, hi = VALUES
    while produced < count and attempts < max_attempts:
        attempts += 1
        n = rng.randint(*PLAYERS)
        k = rng.randint(*STRATEGIES)
        per_player = []
        for _ in range(n):
            if rng.random() < 0.5:
                # single repeated row: utilities depend only on own strategy
                row = [F(rng.randint(lo, hi)) for _ in range(k)]
                mat = tuple(tuple(row[a] for _ in range(k)) for a in range(k))
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
        sym = symmetric_equilibria(pg)
        if not sym:
            continue
        game = pg.to_game()
        D = SolutionSet(game, tuple(sym), "symmetric-NE")
        if not all(holds for _, (holds, _) in hypotheses(pg, D)):
            continue
        try:
            _optimum(game)
        except UndefinedPrice:
            continue
        produced += 1
        yield pg, D
