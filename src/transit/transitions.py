"""Transition sets, limited transitions, stable transitions, and merges.

A transition of a solution set lets every player copy her own coordinate
from some solution, so the transition set is the Cartesian product of the
per-player projections.  Limited (m-) transitions restrict how many distinct
solutions may be combined; the minimum number for a given profile is its
transition degree.  Stable transitions additionally require every
non-best-responding player to have a helper whose own best-response switch
repairs her.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass, field
from typing import Iterator, Sequence

import numpy as np

from . import degrees
from .errors import EmptySolutionSet, TooLarge
from .games import Profile, SolutionSet, profile_cap


@dataclass(frozen=True, eq=False)
class TransitionSet:
    """The transition box of a solution set, the product of its per-player
    projections: built once per set (`transition_set`), read by every
    analysis of it.

    projections: each player's sorted values; C order over the box is
                 lexicographic order.
    size:        the number of transitions; over the profile cap, TooLarge is
                 raised here, before anything is allocated over the box.
    box:         the `np.ix_` index of the box into the profile grid.
    degree:      the exact transition degree at every box entry, a read-only
                 int64 grid built on first read (`degrees.degree_map`).
    """

    source: SolutionSet
    projections: tuple[tuple[int, ...], ...]
    size: int = field(init=False)
    box: tuple[np.ndarray, ...] = field(init=False, repr=False)

    def __post_init__(self) -> None:
        size = degrees.product_size(self.projections)
        if size > profile_cap():
            raise TooLarge(f"transition set has {size} profiles, cap is {profile_cap()}")
        object.__setattr__(self, "size", size)
        object.__setattr__(self, "box", np.ix_(*self.projections))

    @functools.cached_property
    def degree(self) -> np.ndarray:
        grid = degrees.degree_map(self.source.members)
        grid.flags.writeable = False
        return grid

    def __contains__(self, s: Sequence[int]) -> bool:
        t = tuple(s)
        if len(t) != len(self.projections):
            return False
        return all(t[i] in self.projections[i] for i in range(len(t)))

    def __iter__(self) -> Iterator[Profile]:
        return itertools.product(*self.projections)

    def __len__(self) -> int:
        return self.size


def transition_set(D: SolutionSet) -> TransitionSet:
    """D's transition box, built on the first call and kept on D (as
    `RoutingInstance.edge_costs` keeps its evaluator) for every later one."""
    if "_transition_set" not in D.__dict__:
        D.require_nonempty()
        ts = TransitionSet(D, degrees.projections(D.members, D.game.n))
        object.__setattr__(D, "_transition_set", ts)
    return D._transition_set


def is_transition(D: SolutionSet, s: Sequence[int]) -> bool:
    """True iff every player's coordinate in s occurs in some solution."""
    ts = transition_set(D)
    return D.game.validate_profile(s) in ts


def merge_set(profiles: Sequence[Profile]) -> list[Profile]:
    """Transition set of an arbitrary nonempty profile list, enumerated.

    The inputs need not be solutions of anything; the congestion-game
    welfare lemma reads its costs over the same box (`_merge_box`).
    """
    return list(itertools.product(*_merge_box(profiles)))


def _merge_box(profiles: Sequence[Profile]) -> tuple[tuple[int, ...], ...]:
    """The per-player projections of a nonempty profile list, whose product
    is its merge set, refused over the profile cap."""
    if not profiles:
        raise EmptySolutionSet("cannot merge an empty profile list")
    projs = degrees.projections(profiles, len(profiles[0]))
    if degrees.product_size(projs) > profile_cap():
        raise TooLarge("merge set exceeds the profile cap")
    return projs


@dataclass(frozen=True)
class DegreeWitness:
    """A profile, its transition degree, and covering solution indices."""

    profile: Profile
    degree: int
    witnesses: tuple[int, ...]


def transition_degree(
    D: SolutionSet, s: Sequence[int], mode: str = "exact"
) -> DegreeWitness:
    """Minimum number of solutions whose coordinates assemble s.

    mode "exact" solves the induced cover instance exactly; "greedy" returns
    the 1 + ln(n)-approximate witness.
    """
    D.require_nonempty()
    t = D.game.validate_profile(s)
    ci = degrees.reduce_to_cover(D.members, t)
    if mode == "greedy":
        picks = degrees.greedy_cover(ci)
    elif mode == "exact":
        picks = degrees.exact_cover(ci)
    else:
        raise ValueError(f"unknown mode {mode!r}")
    origins = tuple(sorted(ci.origins[i] for i in picks))
    return DegreeWitness(t, len(picks), origins)


def degree_map(D: SolutionSet) -> np.ndarray:
    """Exact transition degree at every entry of D's transition box, as a
    read-only int64 array of the box's shape in lexicographic (C) order:
    `TransitionSet.degree`, built once per solution set."""
    return transition_set(D).degree


@dataclass(frozen=True)
class DegreeExtremes:
    """The extremes of D's game over its m-transitions, m = 1..n: entry m - 1
    of each row is taken over the box entries of degree at most m, so entry
    0 is over the solutions and entry n - 1 over the whole box.

    least, greatest:       one row for each of W, U_1, ..., U_n
                           (`Game.welfare`, `Game.ints`), Python ints in the
                           game's unit 1/L.
    least_at, greatest_at: the first C-order box index at which W takes that
                           extreme, the first least (greatest) profile in
                           lexicographic order.
    """

    least: tuple[tuple[int, ...], ...]
    greatest: tuple[tuple[int, ...], ...]
    least_at: tuple[int, ...]
    greatest_at: tuple[int, ...]


def degree_extremes(D: SolutionSet) -> DegreeExtremes:
    """The extremes of W and every U_i over D's m-transitions for every m,
    built on first read and kept on D's TransitionSet beside `degree`.

    Every read goes through `degree_map`, which the table is taken over.
    One stable sort orders the box by degree, each degree's entries in C
    order; `reduceat` takes every U_i's extremes per degree and `accumulate`
    carries them up the degrees, while W's extremes and witnesses come from
    one slice per degree.  Object grids (some |U| at or past 2**62) take the
    same path.
    """
    ts = transition_set(D)
    degree = degree_map(D)
    if "_extremes" not in ts.__dict__:
        object.__setattr__(ts, "_extremes", _extremes(ts, degree.ravel()))
    return ts._extremes


def _extremes(ts: TransitionSet, degree: np.ndarray) -> DegreeExtremes:
    game = ts.source.game
    n = game.n
    order = degree.argsort(kind="stable")
    at = np.ravel_multi_index(ts.box, game.shape).ravel()[order]
    w = game.welfare.ravel()[at]
    u = game.ints[1].reshape(n, -1).take(at, axis=1)
    # in this order the entries of degree m are [starts[m - 1], ends[m - 1]);
    # degree 1 always occurs, another degree need not
    ends = np.searchsorted(degree[order], np.arange(1, n + 1), side="right").tolist()
    starts = [0] + ends[:-1]
    present = [a for a, b in zip(starts, ends) if b > a]
    # the degrees present up to m, less one: m's column of the U extremes
    column = [c - 1 for c in itertools.accumulate(b > a for a, b in zip(starts, ends))]

    def carried(extreme):
        return extreme.accumulate(extreme.reduceat(u, present, axis=1), axis=1)[:, column]

    # (W, C index) of the least and (-W, C index) of the greatest so far: a
    # degree's first extreme is its slice's first, and among tied degrees
    # the least C index wins
    low_w, low_at, high_w, high_at = [], [], [], []
    low = high = None
    for a, b in zip(starts, ends):
        if b > a:
            part = w[a:b]
            i, j = a + int(part.argmin()), a + int(part.argmax())
            lo, hi = (w[i], order[i]), (-w[j], order[j])
            low = lo if low is None else min(low, lo)
            high = hi if high is None else min(high, hi)
        low_w.append(int(low[0]))
        low_at.append(int(low[1]))
        high_w.append(-int(high[0]))
        high_at.append(int(high[1]))

    return DegreeExtremes(
        least=tuple(map(tuple, [low_w] + carried(np.minimum).tolist())),
        greatest=tuple(map(tuple, [high_w] + carried(np.maximum).tolist())),
        least_at=tuple(low_at),
        greatest_at=tuple(high_at),
    )


def box_profiles(ts: TransitionSet, flat: np.ndarray) -> list[Profile]:
    """The profiles at flat (C-order) indices of the transition box, in the
    order of `flat`: each index is unravelled on the box's axes and read
    through the projections."""
    axes = np.unravel_index(flat, [len(p) for p in ts.projections])
    return list(zip(*(np.asarray(p)[a].tolist() for p, a in zip(ts.projections, axes))))


def m_transition_set(D: SolutionSet, m: int) -> list[Profile]:
    """All transitions of degree at most m, in lexicographic order."""
    if m < 1:
        raise ValueError("m must be at least 1")
    D.require_nonempty()
    if m == 1:
        return sorted(D.members)
    return box_profiles(transition_set(D), np.flatnonzero(degree_map(D) <= m))


def is_stable_transition(D: SolutionSet, s: Sequence[int], variant: str = "strict") -> bool:
    """Membership in the stable transition set.

    A transition s qualifies when every player i that is not best responding
    has a helper j != i whose switch to one of j's best responses makes i's
    current strategy a best response.  In the strict variant (the default)
    the helper must itself not be best responding; the weak variant only
    requires the helper to have a best response differing from its current
    strategy (a tie suffices).  Membership in the transition set is
    `is_transition`'s test; the condition is read off the game's stable
    grid (`Game.stable_grid`).
    """
    ts = transition_set(D)
    t = D.game.validate_profile(s)
    grid = D.game.stable_grid(variant)
    return t in ts and bool(grid[t])


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


def saturation_degree(D: SolutionSet) -> SaturationResult:
    """Minimum m with T(D, m) = T(D).

    The greedy independent basis (degrees.greedy_basis) bounds the answer
    from above, since the basis projections already span the transition
    set; the verified minimum is the largest entry of the degree map.
    """
    D.require_nonempty()
    basis = degrees.greedy_basis(D.members)
    m = int(degree_map(D).max())
    return SaturationResult(m=m, basis=tuple(basis), basis_is_minimal=m == len(basis))
