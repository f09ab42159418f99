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

import numpy as np

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


def _agreement_masks(members: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """masks[r, d] = sum over i of (rows[r, i] == members[d, i]) << i.

    Bit i of a mask says that solution d matches the target row in player
    i's coordinate.  The dtype is the smallest unsigned one holding n bits
    (object, i.e. Python ints, past 64 players).
    """
    n = members.shape[1]
    dtype = np.min_scalar_type((1 << n) - 1)
    masks = np.zeros((len(rows), len(members)), dtype=dtype)
    for i in range(n):
        masks |= (rows[:, i, None] == members[None, :, i]).astype(dtype) << i
    return masks


def _instance(masks: Sequence[int], universe: int) -> CoverInstance:
    """Cover instance of one row of agreement masks: empty masks dropped,
    duplicates keeping their lowest solution index."""
    first: dict[int, int] = {}
    for idx, mask in enumerate(masks):
        if mask:
            first.setdefault(mask, idx)
    return CoverInstance(universe, tuple(first), tuple(first.values()))


def reduce_to_cover(members: Sequence[Profile], t: Sequence[int]) -> CoverInstance:
    """Build the cover instance whose optimum is the transition degree of t.

    Solutions covering no coordinate of t are eliminated up front.  Raises
    NotATransition when some coordinate of t appears in no solution.
    """
    target = tuple(t)
    n = len(target)
    solutions = np.array(members, dtype=np.int64).reshape(len(members), n)
    row = _agreement_masks(solutions, np.array([target], dtype=np.int64))[0]
    ci = _instance(row.tolist(), (1 << n) - 1)
    covered = 0
    for mask in ci.sets:
        covered |= mask
    if covered != ci.universe:
        raise NotATransition(
            f"profile {target} is not a transition; players "
            f"{[i for i in range(n) if not covered >> i & 1]} are uncovered"
        )
    return ci


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
    """Grow an independent set, in member order, until maximal.

    The basis `is_independent` accepts, read from the pairwise agreement
    masks: a candidate joins unless the basis covers it (the OR of its masks
    against the basis is full) or it completes the cover of some basis
    member (that member's running OR against the rest of the basis, with
    the candidate's mask added, is full).
    """
    if not members:
        return []
    solutions = np.array(members, dtype=np.int64)
    agree = _agreement_masks(solutions, solutions).tolist()
    full = (1 << solutions.shape[1]) - 1
    basis: list[int] = []
    cover: list[int] = []  # cover[j]: OR of basis[j]'s masks against the rest
    for idx in range(len(members)):
        mine = 0
        for b in basis:
            mine |= agree[idx][b]
        grown = [c | agree[b][idx] for b, c in zip(basis, cover)]
        if basis and (mine == full or full in grown):
            continue
        basis.append(idx)
        cover = grown + [mine]
    return basis


# box profiles per agreement-mask block: the block's mask array holds this
# many rows of one mask per solution (one byte each for up to 8 players)
_BLOCK = 512


def degree_map(members: Sequence[Profile]) -> np.ndarray:
    """Exact transition degree at every entry of the transition box.

    The box is the product of the per-player projections of the nonempty
    solution list, and the result is an int64 array of its shape whose C
    order is lexicographic order.  The box is walked a block of entries at a
    time, each block's agreement masks built in one array pass.  An entry's
    degree depends only on the set of its masks, so the cover search runs
    once per distinct set.
    """
    n = len(members[0])
    projs = projections(members, n)
    shape = tuple(len(p) for p in projs)
    size = math.prod(shape)
    solutions = np.array(members)
    axes = [np.array(p) for p in projs]
    universe = (1 << n) - 1
    memo: dict[frozenset, int] = {}
    degs = []
    for start in range(0, size, _BLOCK):
        flat = np.arange(start, min(start + _BLOCK, size))
        rows = np.stack(
            [a[k] for a, k in zip(axes, np.unravel_index(flat, shape))], axis=1
        )
        for row in _agreement_masks(solutions, rows).tolist():
            key = frozenset(row)
            if key not in memo:
                memo[key] = len(exact_cover(_instance(row, universe)))
            degs.append(memo[key])
    return np.array(degs, dtype=np.int64).reshape(shape)


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
    m = int(degree_map(members).max())
    return SaturationResult(m=m, basis=tuple(basis), basis_is_minimal=m == len(basis))
