"""Finite strategic-form games.

Games are stored as dense payoff maps over the full profile space.  Payoffs
are exact `Fraction`s, so equilibrium ties and epsilon comparisons are
decided exactly.  Both utility-maximisation ("max") and
cost-minimisation ("min") games are represented natively and every consumer
dispatches on the convention rather than negating payoffs.
"""

from __future__ import annotations

import itertools
import math
import os
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator, Mapping, Sequence

from .errors import EmptySolutionSet, ParseError, TooLarge

Profile = tuple[int, ...]

DEFAULT_PROFILE_CAP = 10_000_000


def profile_cap() -> int:
    """Enumeration cap; override with the TRANSIT_PROFILE_CAP env var."""
    raw = os.environ.get("TRANSIT_PROFILE_CAP", "")
    return int(raw) if raw else DEFAULT_PROFILE_CAP


def as_exact(x: object) -> Fraction:
    """Coerce an input number to an exact rational.

    Floats go through their decimal string so that e.g. 0.1 becomes 1/10,
    matching what a human wrote in a JSON file rather than the binary
    expansion.  Strings accept "p/q" and decimal forms.
    """
    if isinstance(x, Fraction):
        return x
    if isinstance(x, bool):
        raise ParseError(f"boolean is not a payoff value: {x!r}")
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, float):
        if not math.isfinite(x):
            raise ParseError(f"payoff must be finite, got {x!r}")
        return Fraction(str(x))
    if isinstance(x, str):
        try:
            return Fraction(x)
        except (ValueError, ZeroDivisionError) as exc:
            raise ParseError(f"cannot parse rational {x!r}") from exc
    raise ParseError(f"cannot interpret {x!r} as a payoff value")


@dataclass(frozen=True)
class Game:
    """A finite strategic-form game with dense payoffs.

    players:    ordered player names.
    strategies: per-player ordered strategy names.
    payoffs:    full profile (tuple of strategy indices) -> per-player
                exact rational values.
    convention: "max" for utility maximisation, "min" for cost minimisation.
    """

    players: tuple[str, ...]
    strategies: tuple[tuple[str, ...], ...]
    payoffs: Mapping[Profile, tuple[Fraction, ...]]
    convention: str = "max"

    def __post_init__(self) -> None:
        if len(self.players) < 1:
            raise ParseError("a game needs at least one player")
        if len(self.strategies) != len(self.players):
            raise ParseError("one strategy list per player is required")
        if any(len(s) == 0 for s in self.strategies):
            raise ParseError("every strategy set must be nonempty")
        if self.convention not in ("max", "min"):
            raise ParseError(f"unknown convention {self.convention!r}")
        count = self.num_profiles
        if count > profile_cap():
            raise TooLarge(
                f"{count} profiles exceed the cap {profile_cap()}; "
                "raise TRANSIT_PROFILE_CAP to force enumeration"
            )
        if len(self.payoffs) != count:
            raise ParseError(
                f"payoff map has {len(self.payoffs)} entries, expected {count}"
            )
        n = len(self.players)
        for s, vec in self.payoffs.items():
            if len(s) != n or any(
                not (0 <= s[i] < len(self.strategies[i])) for i in range(n)
            ):
                raise ParseError(f"invalid profile key {s!r}")
            if len(vec) != n:
                raise ParseError(f"payoff vector arity mismatch at {s!r}")

    # -- shape ------------------------------------------------------------

    @property
    def n(self) -> int:
        return len(self.players)

    @property
    def shape(self) -> tuple[int, ...]:
        return tuple(len(s) for s in self.strategies)

    @property
    def num_profiles(self) -> int:
        return math.prod(self.shape)

    def profiles(self) -> Iterator[Profile]:
        """All profiles in lexicographic order of strategy indices."""
        return itertools.product(*(range(k) for k in self.shape))

    def validate_profile(self, s: Sequence[int]) -> Profile:
        t = tuple(s)
        if len(t) != self.n or any(
            not (0 <= t[i] < len(self.strategies[i])) for i in range(self.n)
        ):
            raise ParseError(f"invalid profile {s!r} for shape {self.shape}")
        return t

    # -- payoffs ----------------------------------------------------------

    def payoff(self, s: Sequence[int]) -> tuple[Fraction, ...]:
        return self.payoffs[tuple(s)]

    def utility(self, player: int, s: Sequence[int]) -> Fraction:
        return self.payoffs[tuple(s)][player]

    def signed_utility(self, player: int, s: Sequence[int]) -> Fraction:
        """Payoff oriented so that larger is always better for the player."""
        v = self.payoffs[tuple(s)][player]
        return v if self.convention == "max" else -v

    def epsilon_value(self, epsilon: object) -> Fraction:
        eps = as_exact(epsilon)
        if eps < 0:
            raise ParseError("epsilon must be nonnegative")
        return eps

    # -- builders ----------------------------------------------------------

    @classmethod
    def from_function(
        cls,
        shape: Sequence[int],
        func,
        convention: str = "max",
        players: Sequence[str] | None = None,
        strategies: Sequence[Sequence[str]] | None = None,
    ) -> "Game":
        """Build a dense game from func(profile) -> per-player values."""
        n = len(shape)
        names = tuple(players) if players else tuple(f"p{i + 1}" for i in range(n))
        strats = (
            tuple(tuple(s) for s in strategies)
            if strategies
            else tuple(tuple(str(j) for j in range(k)) for k in shape)
        )
        table = {}
        for s in itertools.product(*(range(k) for k in shape)):
            table[s] = tuple(as_exact(v) for v in func(s))
        return cls(names, strats, table, convention)


@dataclass(frozen=True)
class Welfare:
    """Total payoff of a profile under the game's convention."""

    value: Fraction
    convention: str


@dataclass(frozen=True)
class SolutionSet:
    """A designated finite set of profiles of a game.

    Empty member lists are representable (an equilibrium enumeration may
    come back empty) but every transition analysis rejects them with
    EmptySolutionSet; the label records emptiness for reports.
    """

    game: Game
    members: tuple[Profile, ...]
    label: str = "user"

    def __post_init__(self) -> None:
        seen = set()
        for s in self.members:
            self.game.validate_profile(s)
            if s in seen:
                raise ParseError(f"duplicate solution {s!r}")
            seen.add(s)

    @property
    def is_empty(self) -> bool:
        return len(self.members) == 0

    def require_nonempty(self) -> "SolutionSet":
        if self.is_empty:
            raise EmptySolutionSet(
                f"solution set {self.label!r} is empty; transitions are undefined"
            )
        return self


def best_responses(
    game: Game, player: int, opponents: Sequence[int] | Mapping[int, int]
) -> set[int]:
    """All argmax strategies of `player` against fixed opponents.

    `opponents` either fixes every other player by index->strategy mapping or
    is a full profile whose entry for `player` is ignored.  Ties are all
    included (best response uses the weak inequality).
    """
    if isinstance(opponents, Mapping):
        missing = set(range(game.n)) - {player} - set(opponents)
        if missing:
            raise ParseError(f"opponents mapping leaves players {sorted(missing)} free")
        base = [0] * game.n
        for i, v in opponents.items():
            base[i] = v
    else:
        base = list(opponents)
        if len(base) != game.n:
            raise ParseError("opponent profile has wrong length")

    values = []
    for x in range(len(game.strategies[player])):
        base[player] = x
        values.append(game.signed_utility(player, base))
    best = max(values)
    return {x for x, v in enumerate(values) if v == best}


def _max_gain(game: Game, s: Profile, player: int) -> Fraction:
    """Largest signed improvement `player` can get by deviating from s."""
    current = game.signed_utility(player, s)
    base = list(s)
    best = current
    for x in range(len(game.strategies[player])):
        if x == s[player]:
            continue
        base[player] = x
        v = game.signed_utility(player, base)
        if v > best:
            best = v
    base[player] = s[player]
    return best - current


def enumerate_pure_ne(game: Game, epsilon: object = 0) -> SolutionSet:
    """All profiles where no player can unilaterally gain more than epsilon.

    epsilon = 0 gives the exact pure equilibria.  The result may be empty;
    the label then records it and downstream transition operations refuse
    the set.
    """
    eps = game.epsilon_value(epsilon)
    members = []
    for s in game.profiles():
        if all(_max_gain(game, s, i) <= eps for i in range(game.n)):
            members.append(s)
    label = "pure-NE" if eps == 0 else f"eps-NE({eps})"
    if not members:
        label += " (empty)"
    return SolutionSet(game, tuple(members), label)


def social_value(game: Game, s: Sequence[int]) -> Welfare:
    """Social welfare (or social cost under the min convention) of s."""
    t = game.validate_profile(s)
    return Welfare(sum(game.payoffs[t]), game.convention)


def identical_utilities(game: Game) -> bool:
    """True when all players receive the same payoff at every profile."""
    return all(len(set(vec)) == 1 for vec in game.payoffs.values())


def has_independent_best_responses(game: Game) -> bool:
    """Exhaustive check that each player's best-response set ignores others."""
    for i in range(game.n):
        others = [range(k) for j, k in enumerate(game.shape) if j != i]
        reference: set[int] | None = None
        for rest in itertools.product(*others):
            prof = list(rest[:i]) + [0] + list(rest[i:])
            br = best_responses(game, i, prof)
            if reference is None:
                reference = br
            elif br != reference:
                return False
    return True
