"""Degree algorithms: set-cover reduction, greedy and exact solvers, degree maps.

The minimum number of solutions needed to assemble a given transition is a
set-cover problem: each solution covers the players whose coordinate it
matches.  Coverage is an int bitmask over players.  The exact solver is a
breadth-first search over covered-player masks, exact on every input; the
greedy solver carries the usual 1 + ln(n) guarantee.  The degree map over
the whole transition box has two methods, with players of a single
projected value dropped from both.  The subset DP (Bjorklund, Husfeldt and
Koivisto, SICOMP 2009) composes the degree over each set of players from
its subsets, in about 3^n' array passes whatever the number of solutions.
The keyed map runs the exact search once per distinct set of agreement
masks, the masks built and keyed by array passes.  A cost estimate from
the box's shape and the solution count picks one before either runs
(`_prefers_dp`).  Everything here works on raw profile tuples so the rest
of the package can layer richer types on top.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator, Sequence

import numpy as np

from .errors import Infeasible, NotATransition

Profile = tuple[int, ...]


def projections(members: Sequence[Profile], n: int) -> tuple[tuple[int, ...], ...]:
    """Per-coordinate sorted value sets of a nonempty profile list."""
    return tuple(tuple(sorted({d[i] for d in members})) for i in range(n))


def product_size(projs: Sequence[Sequence[int]]) -> int:
    return math.prod(len(p) for p in projs)


@dataclass(frozen=True)
class CoverInstance:
    """Set-cover instance induced by (solution list, target profile).

    universe: bitmask of the players to cover (bit i is player i).
    sets:     coverage bitmasks, one per retained solution; empty masks are
              dropped and duplicates keep their lowest solution index.
    origins:  index into the original solution list for each retained set;
              empty for an instance read from a degree-map key.
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


def greedy_basis(members: Sequence[Profile]) -> list[int]:
    """Grow an independent set, in member order, until maximal.

    A set of solutions is independent when none of them is a transition of
    the others: each member has a coordinate that no other member shares at
    its slot.  Read from the pairwise agreement masks: a candidate joins
    unless the basis covers it (the OR of its masks against the basis is
    full) or it completes the cover of some basis member (that member's
    running OR against the rest of the basis, with the candidate's mask
    added, is full).
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


# cells of one block: box entries times the wider of |D| and the key's
# bitmap; at up to 9 bytes a cell, about a megabyte whatever the box
_CELLS = 1 << 17


def _or_product(tables: Sequence[np.ndarray]) -> np.ndarray:
    """Row r of the result ORs table j's row at digit j of r, over the box
    the tables span in C order: the masks of every entry of that box."""
    acc = tables[0]
    for t in tables[1:]:
        acc = (acc[:, None, :] | t[None, :, :]).reshape(-1, t.shape[1])
    return acc


def _mask_blocks(tables: Sequence[np.ndarray], rows: int) -> Iterator[np.ndarray]:
    """The agreement masks of the box, at most `rows` entries a block, in C
    order.

    The trailing axes whose product fits a block are ORed once by
    broadcasting; each block ORs them with a run of the leading axes'
    masks, gathered by index.
    """
    sizes = [len(t) for t in tables]
    k, inner = len(tables), 1
    while k and inner * sizes[k - 1] <= rows:
        k -= 1
        inner *= sizes[k]
    if k == 0:
        yield _or_product(tables)
        return
    tail = _or_product(tables[k:]) if k < len(tables) else None
    lead = math.prod(sizes[:k])
    step = rows // inner
    for lo in range(0, lead, step):
        idx = np.unravel_index(np.arange(lo, min(lo + step, lead)), sizes[:k])
        head = tables[0][idx[0]]
        for t, i in zip(tables[1:k], idx[1:]):
            head = head | t[i]
        if tail is not None:
            head = (head[:, None, :] | tail[None]).reshape(-1, head.shape[1])
        yield head


def _rows_as_keys(a: np.ndarray) -> np.ndarray:
    """Each row of a 2-d array as one opaque byte-string element."""
    a = np.ascontiguousarray(a)
    return a.view(np.dtype((np.void, a.shape[1] * a.itemsize))).ravel()


def _word_keys(masks: np.ndarray, sets: int) -> np.ndarray:
    """Bit m of a row's key is set iff some solution has nonzero mask m;
    for at most 64 possible masks, in the narrowest unsigned dtype."""
    one = np.min_scalar_type((1 << sets) - 1).type(1)
    return np.bitwise_or.reduce(one << masks, axis=1) & ~one


def _set_bits(key: int) -> tuple[int, ...]:
    """The positions of key's set bits in ascending order: a word key's
    masks."""
    bits = []
    while key:
        low = key & -key
        bits.append(low.bit_length() - 1)
        key ^= low
    return tuple(bits)


def _bitmap_keys(masks: np.ndarray, sets: int) -> np.ndarray:
    """The word key's presence bitmap, packed eight masks a byte."""
    rows = len(masks)
    flat = masks + (np.arange(rows, dtype=np.intp) * sets)[:, None]
    present = np.bincount(flat.ravel(), minlength=rows * sets).reshape(rows, sets) > 0
    present[:, 0] = False
    return _rows_as_keys(np.packbits(present, axis=1))


def _sorted_keys(masks: np.ndarray, sets: int) -> np.ndarray:
    """Each row's distinct masks in ascending order, repeats and mask 0
    turned into leading zeros."""
    keys = np.sort(masks, axis=1)
    keys[:, 1:][keys[:, 1:] == keys[:, :-1]] = 0
    keys.sort(axis=1)
    return _rows_as_keys(keys)


def _subset_dp(sizes: Sequence[int], index: np.ndarray) -> np.ndarray:
    """The degree over the box of `sizes`, from the solutions' box indices
    (index[d, j] is solution d's position on axis j), by the subset DP.

    deg[S], for a set S of axes, is shaped over S's axes only (size 1 on
    the others) and holds the fewest solutions covering t_S.  The solution
    covering S's lowest axis agrees with t on some P with lowest(S) in P,
    so deg[S] = min over such P of 1 + deg[S - P], P ranging over the sets
    on which some solution holds t_P.  pen[P] is 1 there and n + 1
    elsewhere, so pen[P] + deg[S - P] is the candidate of P, and one that
    no solution holds loses to the cover of one solution per axis.
    """
    n = len(sizes)
    shapes = [tuple(k if S >> j & 1 else 1 for j, k in enumerate(sizes)) for S in range(1 << n)]
    pen = [None]
    for P in range(1, 1 << n):
        grid = np.full(shapes[P], n + 1, dtype=np.int8)
        grid[tuple(index[:, j] if P >> j & 1 else 0 for j in range(n))] = 1
        pen.append(grid)
    deg = [np.zeros(shapes[0], dtype=np.int8)]
    for S in range(1, 1 << n):
        low = S & -S
        rest = S ^ low
        # P = {lowest(S)}: every value of an axis is some solution's
        best = deg[rest] + np.ones(shapes[S], dtype=np.int8)
        Q = rest
        while Q:
            np.minimum(best, pen[low | Q] + deg[rest ^ Q], out=best)
            Q = (Q - 1) & rest
        deg.append(best)
    return deg[-1]


def _keyed_map(
    projs: Sequence[Sequence[int]], live: Sequence[int], solutions: np.ndarray
) -> np.ndarray:
    """The degree at every box entry, in C order, by one cover search per
    distinct set of agreement masks (see `degree_map`)."""
    sets = 1 << len(live)
    dtype = np.min_scalar_type(sets - 1)
    tables = [
        (np.array(projs[j])[:, None] == solutions[None, :, j]).astype(dtype) << bit
        for bit, j in enumerate(live)
    ]
    if sets <= 64:
        keyed, width = _word_keys, len(solutions)
    elif sets < (32 if sets <= 256 else 4) * len(solutions):
        # the measured crossover of the key pass: numpy sorts one-byte
        # masks slowly, so the bitmap wins there over a wider range
        keyed, width = _bitmap_keys, max(sets, len(solutions))
    else:
        keyed, width = _sorted_keys, len(solutions)
    out = np.empty(math.prod(len(p) for p in projs), dtype=np.int64)
    memo: dict[object, int] = {}
    lo = 0
    for masks in _mask_blocks(tables, max(1, _CELLS // width)):
        uniq, first, inverse = np.unique(
            keyed(masks, sets), return_index=True, return_inverse=True
        )
        keys = uniq.tolist()
        fresh = [i for i, key in enumerate(keys) if key not in memo]
        if sets <= 64:
            found = (CoverInstance(sets - 1, _set_bits(keys[i]), ()) for i in fresh)
        else:
            found = (_instance(row, sets - 1) for row in masks[first[fresh]].tolist())
        for i, ci in zip(fresh, found):
            memo[keys[i]] = len(exact_cover(ci))
        out[lo : lo + len(masks)] = np.array([memo[key] for key in keys])[inverse]
        lo += len(masks)
    return out


# Costs of the two methods, fitted over 120 solution lists (the benchmark's
# games, permutation sets as in theorem 2, binary players and random lists)
# on a 2-vCPU x86-64 host with Python 3.11 and numpy 2.4; see `_prefers_dp`
_DP_SUBSET_S = 5.4e-6
_DP_PAIR_S = 2.75e-6
_DP_CELL_S = 0.93e-9
_KEY_CELL_S = 2.2e-9
_KEY_ENTRY_S = 0.6e-6
# the most cells pen and deg may each hold: 16 MB of int8 apiece
_DP_TABLE = 1 << 24


def _prefers_dp(sizes: Sequence[int], solutions: int) -> bool:
    """Whether the subset DP is estimated cheaper than the keyed map on a
    box of `sizes` (the live axes) and `solutions` solutions.

    The DP builds pen[P] and deg[S] for 2^n' subsets (5.4 us each), makes
    (3^n' - 1)/2 pairs (2.75 us each) and passes over
    (prod(1 + 2 k_j) - 1)/2 cells in them (0.93 ns each).  The keyed map
    builds and keys |D| masks per box entry (2.2 ns each) and runs a cover
    search per distinct key, which is known only after the key pass: it is
    charged 0.6 us an entry, a search of about 8 us for one entry in
    thirteen.  The DP's tables hold prod(1 + k_j) cells each, 3^n' for
    binary players, and past `_DP_TABLE` the keyed map runs whatever the
    estimate; that bound also keeps n' at most 15, so the int8 sums
    pen[P] + deg[S - P] stay at most 31.
    """
    n = len(sizes)
    if math.prod(1 + k for k in sizes) > _DP_TABLE:
        return False
    dp = (
        _DP_SUBSET_S * 2**n
        + _DP_PAIR_S * (3**n - 1) / 2
        + _DP_CELL_S * (math.prod(1 + 2 * k for k in sizes) - 1) / 2
    )
    return dp < math.prod(sizes) * (_KEY_CELL_S * solutions + _KEY_ENTRY_S)


def degree_map(members: Sequence[Profile]) -> np.ndarray:
    """Exact transition degree at every entry of the transition box.

    The box is the product of the per-player projections of the nonempty
    solution list, and the result is an int64 array of its shape whose C
    order is lexicographic order.  Players with one projected value change
    no degree, so both methods range over the n' live players only, and
    with no live player the box is one entry of degree 1.

    The subset DP (`_subset_dp`) wins where solutions are many: its cost
    grows with 3^n' and the box, not with |D|.  The keyed map (`_keyed_map`)
    wins where players are many and solutions few, and on tiny boxes.  The
    cost estimate of `_prefers_dp`, from the box's shape and |D| and made
    before either runs, picks one: 7 players on 7 values with 5,040
    solutions (`theorem 2 --n 7`) take the DP, 8 binary players with 6
    solutions and `matrix6`'s two solutions the keyed map.

    The keyed map ORs player j's agreement table E_j[v, d] =
    (proj_j[v] == d_j) << j over the box by broadcasting, a block of
    `_CELLS` at a time.  An entry's degree depends only on the set of its
    nonzero masks, so each row gets a canonical key for that set: its
    presence bitmap over the 2^n' masks, as one integer when 2^n' <= 64
    (whose set bits are then the cover sets), packed into bytes while 2^n'
    is under 32 |D| for one-byte masks or 4 |D| for wider ones, and
    otherwise the row's sorted distinct masks.  The cover search
    (`exact_cover`) runs once per distinct key, memoised across blocks, and
    its result is scattered back to every entry with that key.
    """
    n = len(members[0])
    projs = projections(members, n)
    shape = tuple(len(p) for p in projs)
    live = [j for j in range(n) if shape[j] > 1]
    if not live:
        return np.ones(shape, dtype=np.int64)
    solutions = np.array(members)
    sizes = [shape[j] for j in live]
    if _prefers_dp(sizes, len(members)):
        index = np.stack([np.searchsorted(projs[j], solutions[:, j]) for j in live], axis=1)
        return _subset_dp(sizes, index).astype(np.int64).reshape(shape)
    return _keyed_map(projs, live, solutions).reshape(shape)
