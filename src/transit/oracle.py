"""Brute-force reference computations.

Everything in this module re-derives results straight from definitions,
without reusing the production code paths: equilibria compare against every
deviation inline, transition membership scans the solution list per player,
degrees come from exhaustive subset search, and prices from full profile
scans.  Tests and the `transit oracle` command use these as the independent
side of every dual-route check, so keep this file free of imports from the
analysis modules.
"""

from __future__ import annotations

import itertools
from typing import Sequence

from .games import Game, Profile, SolutionSet


def ne_profiles(game: Game, epsilon=0) -> list[Profile]:
    """Profiles where no unilateral deviation gains more than epsilon."""
    eps = game.epsilon_value(epsilon)
    out = []
    for s in game.profiles():
        good = True
        for i in range(game.n):
            cur = game.signed_utility(i, s)
            for x in range(len(game.strategies[i])):
                dev = s[:i] + (x,) + s[i + 1 :]
                if game.signed_utility(i, dev) > cur + eps:
                    good = False
                    break
            if not good:
                break
        if good:
            out.append(s)
    return out


def is_transition(members: Sequence[Profile], s: Sequence[int]) -> bool:
    return all(any(d[i] == s[i] for d in members) for i in range(len(s)))


def transitions(game: Game, members: Sequence[Profile]) -> list[Profile]:
    return [s for s in game.profiles() if is_transition(members, s)]


def degree(members: Sequence[Profile], t: Sequence[int]) -> int:
    """Minimum covering subset size by exhaustive enumeration."""
    n = len(t)
    for size in range(1, len(members) + 1):
        for combo in itertools.combinations(members, size):
            if all(any(d[i] == t[i] for d in combo) for i in range(n)):
                return size
    raise ValueError(f"{t!r} is not a transition of the given solutions")


def m_transitions(game: Game, members: Sequence[Profile], m: int) -> list[Profile]:
    return [
        s
        for s in game.profiles()
        if is_transition(members, s) and degree(members, s) <= m
    ]


def _best_set(game: Game, s: Sequence[int], player: int) -> set[int]:
    vals = []
    base = list(s)
    for x in range(len(game.strategies[player])):
        base[player] = x
        vals.append(game.signed_utility(player, base))
    top = max(vals)
    return {x for x, v in enumerate(vals) if v == top}


def stable_transitions(
    game: Game, members: Sequence[Profile], variant: str = "strict"
) -> list[Profile]:
    """Stable transitions by direct evaluation of the defining condition."""
    out = []
    for s in transitions(game, members):
        ok = True
        for i in range(game.n):
            if s[i] in _best_set(game, s, i):
                continue
            helped = False
            for j in range(game.n):
                if j == i:
                    continue
                brj = _best_set(game, s, j)
                if variant == "strict" and s[j] in brj:
                    continue
                for alt in brj:
                    if alt == s[j]:
                        continue
                    shifted = s[:j] + (alt,) + s[j + 1 :]
                    if s[i] in _best_set(game, shifted, i):
                        helped = True
                        break
                if helped:
                    break
            if not helped:
                ok = False
                break
        if ok:
            out.append(s)
    return out


def _sw(game: Game, s: Profile):
    return sum(game.payoffs[s])


def _extreme(game: Game, profiles: Sequence[Profile], want: str):
    vals = [_sw(game, s) for s in profiles]
    return min(vals) if want == "min" else max(vals)


def prices(game: Game, members: Sequence[Profile], variant: str = "strict") -> dict:
    """All eight efficiency measures from scratch.

    Under utility maximisation each price divides by the best welfare over
    all profiles; under cost minimisation by the least cost, with anarchy
    taking the worst (most costly) member of the relevant set.  A
    nonpositive optimum or an empty stable-transition set leaves the prices
    undefined.
    """
    all_profiles = list(game.profiles())
    trans = transitions(game, members)
    stable = stable_transitions(game, members, variant)
    degs = {t: degree(members, t) for t in trans}
    n = game.n

    if game.convention == "max":
        opt = _extreme(game, all_profiles, "max")
        anarchy, stability = "min", "max"
    else:
        opt = _extreme(game, all_profiles, "min")
        anarchy, stability = "max", "min"
    if opt <= 0 or not stable:
        return {"undefined": True}

    def ratio(profiles: Sequence[Profile], want: str):
        return _extreme(game, profiles, want) / opt

    m_pota = []
    m_pots = []
    for m in range(1, n + 1):
        sub = [t for t in trans if degs[t] <= m]
        m_pota.append(ratio(sub, anarchy))
        m_pots.append(ratio(sub, stability))

    return {
        "poa": ratio(members, anarchy),
        "pos": ratio(members, stability),
        "pota": ratio(trans, anarchy),
        "pots": ratio(trans, stability),
        "posta": ratio(stable, anarchy),
        "posts": ratio(stable, stability),
        "m_pota": m_pota,
        "m_pots": m_pots,
        "optimum": opt,
    }


def prices_for(game: Game, D: SolutionSet, variant: str = "strict") -> dict:
    return prices(game, list(D.members), variant)
