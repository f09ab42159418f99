"""Finite strategic-form games.

A game is stored as one exact integer grid over its profile space
(`Game.ints`): L, the least common denominator of every payoff, and U, where
U[i, *s] is player i's payoff at profile s times L, signed so that larger is
always better for the player.  Utility-maximisation ("max") games keep the
sign and cost-minimisation ("min") games negate it.  U is int64, or Python
ints (dtype object) once some |U| reaches 2**62, so no difference of two
entries overflows.  Equilibrium ties and epsilon comparisons are therefore
decided exactly.

Best responses, equilibria, stable transitions, prices, welfare extremes
and `social_value` read U and the welfare W = sum over i of U_i
(`Game.welfare`).  The payoffs as written (`Game.payoffs`, exact `Fraction`s
keyed by profile), a view built from U on first read, serve the oracle.
"""

from __future__ import annotations

import contextlib
import functools
import itertools
import math
import os
import types
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator, Mapping, Sequence

import numpy as np

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
    expansion.  Strings accept "p/q" and decimal forms; a plain ASCII
    integer, the common payoff of a written game, is read by `int` alone.
    """
    if isinstance(x, str):
        digits = x[1:] if x[:1] == "-" else x
        try:
            if digits.isdigit() and digits.isascii():
                return Fraction(int(x))
            return Fraction(x)
        except (ValueError, ZeroDivisionError) as exc:
            raise ParseError(f"cannot parse rational {x!r}") from exc
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
    raise ParseError(f"cannot interpret {x!r} as a payoff value")


def checked_shape(
    players: Sequence[str], strategies: Sequence[Sequence[str]], convention: str
) -> tuple[int, ...]:
    """The profile grid's shape, once the game's outline passes every check.

    The profile count is read from the shape alone, so a builder that calls
    this first refuses an oversized game before it computes or allocates any
    payoff.
    """
    if len(players) < 1:
        raise ParseError("a game needs at least one player")
    if len(strategies) != len(players):
        raise ParseError("one strategy list per player is required")
    if any(len(s) == 0 for s in strategies):
        raise ParseError("every strategy set must be nonempty")
    if convention not in ("max", "min"):
        raise ParseError(f"unknown convention {convention!r}")
    shape = tuple(len(s) for s in strategies)
    count = math.prod(shape)
    if count > profile_cap():
        raise TooLarge(
            f"{count} profiles exceed the cap {profile_cap()}; "
            "raise TRANSIT_PROFILE_CAP to force enumeration"
        )
    return shape


def _exact_values(values: Sequence[object]) -> tuple[int, np.ndarray]:
    """(d, x): d is the least common denominator of the payoff scalars
    `values`, and x[k] is values[k] times d, as an int64 or object array.

    Payoff tables repeat a few values many times, so each distinct scalar is
    parsed once, the values being their own keys.  When they mix types, the
    type joins the key, so that true never aliases 1 nor a float the exact
    rational it equals; only a str equals a str, so the types go unread
    when every distinct value is one, as in a written game.  When every one
    is also a plain ASCII integer, d is 1 and `int` reads each, with no
    `Fraction` made.  A value that does not parse raises at its first
    occurrence, so the error names the first bad value.
    """
    try:
        distinct = dict.fromkeys(values)
    except TypeError:  # an unhashable value, which as_exact rejects
        for v in values:
            as_exact(v)
        raise
    keys, scaled = values, None
    if all(type(key) is str for key in distinct):
        text = "".join(distinct)
        if text.isascii() and text.replace("-", "").isdigit():
            # digits and minus signs only: int reads each as as_exact does,
            # or refuses it, and then as_exact names the fault
            with contextlib.suppress(ValueError):
                scale, scaled = 1, list(map(int, distinct))
    elif len(set(map(type, values))) > 1:
        keys = list(zip(map(type, values), values))
        distinct = dict.fromkeys(keys)
    if scaled is None:
        exact = [as_exact(key if keys is values else key[1]) for key in distinct]
        scale = math.lcm(*(v.denominator for v in exact))
        scaled = [v.numerator * (scale // v.denominator) for v in exact]
    code = dict(zip(distinct, scaled))
    dtype = np.int64 if max(map(abs, scaled)) < 2**62 else object
    return scale, np.fromiter(map(code.__getitem__, keys), dtype=dtype, count=len(keys))


@dataclass(frozen=True, init=False, eq=False)
class Game:
    """A finite strategic-form game on a dense exact integer payoff grid.

    players:    ordered player names.
    strategies: per-player ordered strategy names.
    convention: "max" for utility maximisation, "min" for cost minimisation.
    ints:       (L, U), L the least common denominator of every payoff and
                U[i, *s] player i's payoff at s times L, negated under "min";
                U is read-only, int64 while every |U| < 2**62 and Python ints
                (dtype object) beyond.

    Game(players, strategies, denominator, numerators, convention) takes
    player i's payoff at s, as written, as numerators[i, *s] / denominator
    (numerators an integer array of shape (players, *shape)); it divides out
    any common factor so that L is least, and fixes U's sign and dtype.
    """

    players: tuple[str, ...]
    strategies: tuple[tuple[str, ...], ...]
    convention: str
    ints: tuple[int, np.ndarray]

    def __init__(
        self,
        players: Sequence[str],
        strategies: Sequence[Sequence[str]],
        denominator: int,
        numerators: np.ndarray,
        convention: str = "max",
    ) -> None:
        players = tuple(players)
        strategies = tuple(tuple(s) for s in strategies)
        shape = checked_shape(players, strategies, convention)
        values = np.asarray(numerators)
        if values.shape != (len(players), *shape):
            raise ParseError(
                f"payoff grid has shape {values.shape}, expected {(len(players), *shape)}"
            )
        common = math.gcd(denominator, int(np.gcd.reduce(values, axis=None)))
        scale = denominator // common
        if common > 1:
            values = values // common
        wide = max(-int(values.min()), int(values.max())) >= 2**62
        values = np.array(values, dtype=object if wide else np.int64, order="C")
        if convention == "min":
            np.negative(values, out=values)
        values.flags.writeable = False
        for name, value in (
            ("players", players),
            ("strategies", strategies),
            ("convention", convention),
            ("ints", (scale, values)),
        ):
            object.__setattr__(self, name, value)

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

    @functools.cached_property
    def payoffs(self) -> Mapping[Profile, tuple[Fraction, ...]]:
        """Full profile -> per-player payoffs as written (costs under
        "min"), exact `Fraction`s; a read-only view of U built on first read.
        """
        scale, grid = self.ints
        sign = 1 if self.convention == "max" else -1
        rows = np.moveaxis(grid, 0, -1).reshape(-1, self.n).tolist()
        return types.MappingProxyType({
            s: tuple(Fraction(sign * v, scale) for v in row)
            for s, row in zip(self.profiles(), rows)
        })

    def signed_utility(self, player: int, s: Sequence[int]) -> Fraction:
        """Payoff oriented so that larger is always better for the player."""
        v = self.payoffs[tuple(s)][player]
        return v if self.convention == "max" else -v

    def epsilon_value(self, epsilon: object) -> Fraction:
        eps = as_exact(epsilon)
        if eps < 0:
            raise ParseError("epsilon must be nonnegative")
        return eps

    # -- integer view -------------------------------------------------------

    @functools.cached_property
    def welfare(self) -> np.ndarray:
        """W = sum over i of U_i, the signed social welfare times L; summed
        over Python ints when n * max|U| reaches 2**62 and int64 could not."""
        payoff = self.ints[1]
        if payoff.dtype != object and self.n * int(np.abs(payoff).max()) >= 2**62:
            payoff = payoff.astype(object)
        return payoff.sum(axis=0)

    @functools.cached_property
    def regret(self) -> tuple[int, np.ndarray]:
        """(L, G): G[i, *s] is how much player i gains, times L, by switching
        from s_i to a best response against s_-i: max over axis i of U_i,
        minus U_i, in U's dtype.  G is the single definition of best
        response: x is one for i against s_-i exactly when G[i] is 0 there.
        """
        scale, payoff = self.ints
        gains = [u.max(axis=i, keepdims=True) - u for i, u in enumerate(payoff)]
        return scale, np.stack(gains)

    def stable_grid(self, variant: str = "strict") -> np.ndarray:
        """Boolean grid over all profiles: the stable-transition condition.

        A profile s passes when every player i that is not best responding
        has a helper j != i with a best response alt != s_j that makes s_i a
        best response of i at (s_-j, alt); the strict variant also requires
        s_j not to be a best response of j.  Only membership in a transition
        box is left for the solution set to decide.  Built once per variant.
        """
        if variant not in ("strict", "weak"):
            raise ValueError(f"unknown variant {variant!r}")
        grids = self._stable_grids
        if variant not in grids:
            br = self.regret[1] == 0
            grid = np.ones(self.shape, dtype=bool)
            for i in range(self.n):
                passes = br[i].copy()
                for j in range(self.n):
                    if j == i:
                        continue
                    # j's best responses do not depend on s_j, so at
                    # (s_-j, alt) both conditions read off the grids; the
                    # count along axis j minus the entry at s_j is the
                    # number of helping alternatives other than s_j
                    both = br[j] & br[i]
                    helps = both.sum(axis=j, keepdims=True) > both
                    if variant == "strict":
                        helps &= ~br[j]
                    passes |= helps
                grid &= passes
            grids[variant] = grid
        return grids[variant]

    @functools.cached_property
    def _stable_grids(self) -> dict[str, np.ndarray]:
        return {}

    # -- builders ----------------------------------------------------------

    @classmethod
    def from_values(
        cls,
        players: Sequence[str],
        strategies: Sequence[Sequence[str]],
        values: Sequence[object],
        convention: str = "max",
    ) -> "Game":
        """Game from its payoff scalars in profile order, one per player
        each: the order of a payoff document's innermost vectors."""
        shape = tuple(len(s) for s in strategies)
        scale, flat = _exact_values(values)
        grid = np.moveaxis(flat.reshape(*shape, len(players)), -1, 0)
        return cls(players, strategies, scale, grid, convention)

    @classmethod
    def from_function(
        cls,
        shape: Sequence[int],
        func,
        convention: str = "max",
        players: Sequence[str] | None = None,
        strategies: Sequence[Sequence[str]] | None = None,
    ) -> "Game":
        """Build a dense game from func(profile) -> per-player values.

        The profile cap is checked from the shape before func is called.
        """
        n = len(shape)
        names = tuple(players) if players else tuple(f"p{i + 1}" for i in range(n))
        strats = (
            tuple(tuple(s) for s in strategies)
            if strategies
            else tuple(tuple(str(j) for j in range(k)) for k in shape)
        )
        if checked_shape(names, strats, convention) != tuple(shape):
            raise ParseError(f"strategy names do not fit the shape {tuple(shape)}")
        values = []
        for s in itertools.product(*(range(k) for k in shape)):
            vec = tuple(func(s))
            if len(vec) != n:
                raise ParseError(f"payoff vector arity mismatch at {s!r}")
            values.extend(vec)
        return cls.from_values(names, strats, values, convention)


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
        """Every member must be a profile of the game, and none repeated.

        Integer members are checked as one array against the shape and for
        repeats as one set; the member loop runs only when that check fails
        or cannot decide, and names the first bad member in order.
        """
        members = self.members
        try:
            grid = np.array(members)
        except ValueError:  # members of different lengths
            grid = None
        if (
            grid is not None
            and grid.dtype.kind in "iu"
            and grid.shape == (len(members), self.game.n)
            and ((grid >= 0) & (grid < self.game.shape)).all()
            and len(set(members)) == len(members)
        ):
            grid = grid.astype(np.intp, copy=False)
            grid.flags.writeable = False
            self.__dict__["array"] = grid
            return
        seen = set()
        for s in members:
            self.game.validate_profile(s)
            if s in seen:
                raise ParseError(f"duplicate solution {s!r}")
            seen.add(s)

    @functools.cached_property
    def array(self) -> np.ndarray:
        """The members as one read-only intp array of shape (|D|, n), in
        member order; the check of a new set keeps the one it builds."""
        grid = np.array(self.members, dtype=np.intp).reshape(len(self.members), self.game.n)
        grid.flags.writeable = False
        return grid

    def on(self, game: Game) -> "SolutionSet":
        """This set when it is one of `game`, else its members re-made as a
        set of `game`, which refuses (ParseError) a member that does not fit."""
        return self if self.game is game else SolutionSet(game, self.members, self.label)

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

    base[player] = 0
    t = game.validate_profile(base)
    row = game.regret[1][(player,) + t[:player] + (slice(None),) + t[player + 1 :]]
    return {int(x) for x in np.flatnonzero(row == 0)}


def enumerate_pure_ne(game: Game, epsilon: object = 0) -> SolutionSet:
    """All profiles where no player can unilaterally gain more than epsilon.

    epsilon = 0 gives the exact pure equilibria.  The regrets are integers
    in units of 1/L, so comparing them with floor(epsilon * L) is exact.
    The members come in lexicographic order.  The result may be empty; the
    label then records it and downstream transition operations refuse the
    set.
    """
    eps = game.epsilon_value(epsilon)
    scale, regret = game.regret
    ok = (regret <= math.floor(eps * scale)).all(axis=0)
    members = tuple(zip(*(idx.tolist() for idx in np.nonzero(ok))))
    label = "pure-NE" if eps == 0 else f"eps-NE({eps})"
    if not members:
        label += " (empty)"
    return SolutionSet(game, members, label)


def social_value(game: Game, s: Sequence[int]) -> Fraction:
    """Social welfare (or social cost under the min convention) of s."""
    w = int(game.welfare[game.validate_profile(s)])
    return Fraction(w if game.convention == "max" else -w, game.ints[0])


def identical_utilities(game: Game) -> bool:
    """True when all players receive the same payoff at every profile."""
    payoff = game.ints[1]
    return bool((payoff == payoff[0]).all())
