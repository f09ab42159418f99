"""Degree algorithms: set-cover reduction, greedy and exact solvers, saturation.

The minimum number of solutions needed to assemble a given transition is a
set-cover problem: each solution covers the players whose coordinate it
matches.  Coverage is an int bitmask over players.  The exact solver is a
breadth-first search over covered-player masks, exact on every input; the
greedy solver carries the usual 1 + ln(n) guarantee.  Everything here works
on raw profile tuples so the rest of the package can layer richer types on
top.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Iterator, Sequence

from .errors import Infeasible, NotATransition

Profile = tuple[int, ...]


def covers(members: Sequence[Profile], t: Sequence[Profile]) -> bool:
    """True iff every coordinate of t appears in some member at that slot."""
    return all(any(d[i] == t[i] for d in members) for i in range(len(t)))


def projections(members: Sequence[Profile], n: int) -> tuple[tuple[int, ...], ...]:
    """Per-coordinate sorted value sets of a nonempty profile list."""
    return tuple(tuple(sorted({d[i] for d in members})) for i in range(n))


def product_profiles(projs: Sequence[Sequence[int]]) -> Iterator[Profile]:
    return itertools.product(*projs)


def product_size(projs: Sequence[Sequence[int]]) -> int:
    return math.prod(len(p) for p in projs)


@dataclass(frozen=True)
class CoverInstance:
    """Set-cover instance induced by (solution list, target profile).

    universe: bitmask of the players to cover (bit i is player i).
    sets:     coverage bitmasks, one per retained solution; empty masks are
              dropped and duplicates keep their lowest solution index.
    origins:  index into the original solution list for each retained set.
    """

    universe: int
    sets: tuple[int, ...]
    origins: tuple[int, ...]

    def feasible(self) -> bool:
        got = 0
        for s in self.sets:
            got |= s
        return got == self.universe


def reduce_to_cover(members: Sequence[Profile], t: Sequence[int]) -> CoverInstance:
    """Build the cover instance whose optimum is the transition degree of t.

    Solutions covering no coordinate of t are eliminated up front.  Raises
    NotATransition when some coordinate of t appears in no solution.
    """
    target = tuple(t)
    n = len(target)
    first: dict[int, int] = {}
    covered = 0
    for idx, d in enumerate(members):
        mask = sum(1 << i for i in range(n) if d[i] == target[i])
        if mask:
            first.setdefault(mask, idx)
            covered |= mask
    universe = (1 << n) - 1
    if covered != universe:
        raise NotATransition(
            f"profile {target} is not a transition; players "
            f"{[i for i in range(n) if not covered >> i & 1]} are uncovered"
        )
    return CoverInstance(universe, tuple(first), tuple(first.values()))


def greedy_cover(ci: CoverInstance) -> list[int]:
    """Greedy cover: largest uncovered coverage first, ties by lowest index.

    Returns indices into ci.sets.  Size is at most (1 + ln |universe|) times
    the optimum.
    """
    if not ci.feasible():
        raise Infeasible("cover instance cannot cover its universe")
    uncovered = ci.universe
    chosen: list[int] = []
    while uncovered:
        best_idx = -1
        best_gain = 0
        for idx, s in enumerate(ci.sets):
            gain = (s & uncovered).bit_count()
            if gain > best_gain:
                best_gain = gain
                best_idx = idx
        chosen.append(best_idx)
        uncovered &= ~ci.sets[best_idx]
    return chosen


def exact_cover(ci: CoverInstance) -> list[int]:
    """Minimum cover, as indices into ci.sets.

    Breadth-first search over covered-player masks, one level per pick, so
    the first full mask reached is a minimum cover.  Players with a single
    projected value lie in every set, so at most 2^n' masks are visited,
    n' being the number of the other players: exact on every input, with
    no cap.  Greedy's cover is returned when it is already minimum;
    otherwise the first minimum cover found in index order.
    """
    greedy = greedy_cover(ci)
    frontier: dict[int, list[int]] = {0: []}
    seen = {0}
    for _ in range(len(greedy) - 1):
        step: dict[int, list[int]] = {}
        for covered, picks in frontier.items():
            for idx, s in enumerate(ci.sets):
                got = covered | s
                if got == ci.universe:
                    return picks + [idx]
                if got not in seen:
                    seen.add(got)
                    step[got] = picks + [idx]
        frontier = step
    return greedy


def is_independent(members: Sequence[Profile], subset: Sequence[int]) -> bool:
    """Independence oracle: no chosen solution is a transition of the others."""
    chosen = [members[i] for i in subset]
    for pos in range(len(chosen)):
        rest = chosen[:pos] + chosen[pos + 1 :]
        if rest and covers(rest, chosen[pos]):
            return False
    return True


def greedy_basis(members: Sequence[Profile]) -> list[int]:
    """Grow an independent set through the full oracle until maximal."""
    basis: list[int] = []
    for idx in range(len(members)):
        if is_independent(members, basis + [idx]):
            basis.append(idx)
    return basis


def degree_map(members: Sequence[Profile]) -> dict[Profile, int]:
    """Exact transition degree of every profile in the transition box.

    The box is the product of the per-player projections of the nonempty
    solution list; it is walked in lexicographic order.
    """
    box = product_profiles(projections(members, len(members[0])))
    return {t: len(exact_cover(reduce_to_cover(members, t))) for t in box}


@dataclass(frozen=True)
class SaturationResult:
    """Minimum degree saturating the transition set, plus the greedy basis.

    `m` is the verified minimum: the largest transition degree over the
    whole transition set, every one of them exact.  `basis` is the
    independent set the greedy farming produces; its size always satisfies
    the saturation property but can overshoot the minimum, in which case
    `basis_is_minimal` is False and the discrepancy should be surfaced, not
    hidden.
    """

    m: int
    basis: tuple[int, ...]
    basis_is_minimal: bool


def saturation_degree(members: Sequence[Profile]) -> SaturationResult:
    """Minimum m with every transition being an m-transition.

    The greedy independent basis bounds the answer from above (the basis
    projections already span the transition set), and the verified minimum
    is the exact worst transition degree.
    """
    if not members:
        raise Infeasible("empty solution list")
    basis = greedy_basis(members)
    m = max(degree_map(members).values())
    return SaturationResult(m=m, basis=tuple(basis), basis_is_minimal=m == len(basis))
