"""Zero-sum + potential decomposition certificates and transfer bounds."""

import itertools
import random
from fractions import Fraction

import numpy as np
import pytest

from transit.congestion import CongestionGame, congestion_to_game
from transit.decomposition import (
    DecompositionCertificate,
    exact_potential_fourcycle,
    verify_decomposition_bounds,
)
from transit.errors import CertificateInvalid
from transit.fixtures import matrix2_game, matrix5_game
from transit.games import Game

F = Fraction


def congestion_potential_2x2():
    """Two players on two shared links, utility convention, linear gains."""
    cg = CongestionGame.build(
        strategies=[[[0], [1]], [[0], [1]]],
        costs=[[1, 2], [1, 2]],
    )
    return cg, congestion_to_game(cg, "max")


def perturbed(P: Game, scale: Fraction) -> Game:
    """Add a matching-pennies zero-sum residual of the given magnitude."""
    def res(s):
        sign = F(1) if s[0] == s[1] else F(-1)
        return (sign * scale, -sign * scale)

    return Game.from_function(
        P.shape,
        lambda s: tuple(P.payoffs[s][i] + res(s)[i] for i in range(2)),
    )


def test_identical_utility_games_pass_fourcycle():
    assert exact_potential_fourcycle(matrix5_game())
    assert exact_potential_fourcycle(matrix2_game())


def matching_pennies():
    return Game.from_function(
        (2, 2),
        lambda s: (F(1), F(-1)) if s[0] == s[1] else (F(-1), F(1)),
    )


def test_fourcycle_rejects_with_witness():
    ok, cycle = exact_potential_fourcycle(matching_pennies(), witness=True)
    assert not ok and cycle is not None
    assert len(set(cycle)) == 4


def test_identity_certificate_alpha_one_and_equalities():
    _, P = congestion_potential_2x2()
    cert = DecompositionCertificate(P, P)
    out = verify_decomposition_bounds(cert, m=2)
    assert out["epsilon"] == 0
    assert out["alphas_searched"]["alpha_ne"] == 1
    assert out["alphas_searched"]["alpha_m"] == 1
    assert out["holds"]
    for row in out["rows"]:
        assert row["holds"] and row["lhs"] == row["rhs"] == 1


def test_perturbed_certificate_bounds_hold():
    cg, P = congestion_potential_2x2()
    G = perturbed(P, F(1, 10))
    cert = DecompositionCertificate(G, P)
    out = verify_decomposition_bounds(cert, m=2, congestion=cg)
    assert out["epsilon"] == F(1, 10)
    assert out["holds"]
    names = {row["name"] for row in out["rows"]}
    assert "congestion-degree-floor" in names


def test_residual_must_be_zero_sum():
    _, P = congestion_potential_2x2()
    bad = Game.from_function(
        P.shape,
        lambda s: (P.payoffs[s][0] + F(1, 10), P.payoffs[s][1]),
    )
    with pytest.raises(CertificateInvalid, match="zero-sum"):
        verify_decomposition_bounds(DecompositionCertificate(bad, P), m=1)


def test_potential_part_must_pass_fourcycle():
    # shift matching pennies to keep the residual zero-sum while the
    # candidate potential part is genuinely not a potential game
    mp = matching_pennies()
    shifted = Game.from_function(
        (2, 2), lambda s: tuple(v + F(2) for v in mp.payoffs[s])
    )
    assert not exact_potential_fourcycle(shifted)
    with pytest.raises(CertificateInvalid, match="four-cycle"):
        verify_decomposition_bounds(DecompositionCertificate(shifted, shifted), m=1)


def test_given_alpha_mode_uses_supplied_constant():
    _, P = congestion_potential_2x2()
    cert = DecompositionCertificate(P, P, alpha=F(1, 2))
    out = verify_decomposition_bounds(cert, m=1, alpha_mode="given")
    assert out["alphas_used"]["alpha_ne"] == F(1, 2)
    # ratio 1 >= 1/2: the lower rows hold; upper rows need ratio <= 1/2 and fail
    by_name = {r["name"]: r for r in out["rows"]}
    assert by_name["anarchy-transfer"]["holds"]
    assert not by_name["stability-transfer"]["holds"]


def test_random_zero_sum_perturbations_keep_bounds():
    rng = random.Random(71)
    cg, P = congestion_potential_2x2()
    for _ in range(15):
        scale = F(rng.randint(1, 4), 10)
        G = perturbed(P, scale)
        cert = DecompositionCertificate(G, P)
        out = verify_decomposition_bounds(cert, m=rng.randint(1, 2), congestion=cg)
        assert out["holds"], out


# -- the array four-cycle test against the per-cycle definition ---------------


def four_cycles(game):
    """(i, j, cycle) for every unilateral four-cycle a -> b -> c -> d -> a
    (i deviates, then j, then i back, then j back), player pairs in order
    and corners a in lexicographic order."""
    for i, j in itertools.combinations(range(game.n), 2):
        for a in game.profiles():
            for xi in range(a[i] + 1, game.shape[i]):
                for xj in range(a[j] + 1, game.shape[j]):
                    b = a[:i] + (xi,) + a[i + 1:]
                    c = b[:j] + (xj,) + b[j + 1:]
                    d = a[:j] + (xj,) + a[j + 1:]
                    yield i, j, (a, b, c, d)


def cycle_sum(game, i, j, cycle):
    """The deviators' payoff changes around the cycle, from game.payoffs."""
    a, b, c, d = cycle
    u = game.payoffs
    return ((u[b][i] - u[a][i]) + (u[c][j] - u[b][j])
            + (u[d][i] - u[c][i]) + (u[a][j] - u[d][j]))


def reference_fourcycle(game):
    """(verdict over every four-cycle, first failing adjacent cycle)."""
    verdict, first = True, None
    for i, j, cycle in four_cycles(game):
        if cycle_sum(game, i, j, cycle) != 0:
            verdict = False
            a, _, c, _ = cycle
            if first is None and (c[i] - a[i], c[j] - a[j]) == (1, 1):
                first = cycle
    return verdict, first


def random_game(rng, potential, convention, top):
    n = rng.randint(2, 3)
    shape = tuple(rng.randint(1, 3) for _ in range(n))
    phi, dummy = {}, [{} for _ in range(n)]

    def value(i, s):
        if not potential:
            return F(rng.randint(-top, top), rng.randint(1, 3))
        rest = s[:i] + s[i + 1:]
        return (phi.setdefault(s, F(rng.randint(-top, top), rng.randint(1, 3)))
                + dummy[i].setdefault(rest, F(rng.randint(-top, top), 4)))

    return Game.from_function(
        shape, lambda s: tuple(value(i, s) for i in range(n)), convention
    )


def test_array_fourcycle_matches_the_per_cycle_definition():
    rng = random.Random(14)
    games = [
        random_game(rng, potential, convention, top)
        for potential in (True, False)
        for convention in ("max", "min")
        for top in (3, 3, 3, 2**64)
        for _ in range(15)
    ]
    # matching pennies at 2**61: int64 payoffs whose cycle sums to 2**64,
    # which int64 arithmetic would wrap to 0
    h = 2**61
    games.append(
        Game.from_function((2, 2), lambda s: (-h, h) if s[0] == s[1] else (h, -h))
    )
    assert games[-1].ints[1].dtype == np.int64
    assert any(g.ints[1].dtype == object for g in games)
    failing = 0
    for game in games:
        verdict, first = reference_fourcycle(game)
        ok, cycle = exact_potential_fourcycle(game, witness=True)
        assert exact_potential_fourcycle(game) == ok == verdict
        assert cycle == first
        if cycle is not None:
            failing += 1
            a, b, c, d = cycle
            i = next(k for k in range(game.n) if a[k] != b[k])
            j = next(k for k in range(game.n) if b[k] != c[k])
            assert [k for k in range(game.n) if a[k] != c[k]] == [i, j]
            assert (d[i], d[j]) == (a[i], c[j]) and i < j
            assert cycle_sum(game, i, j, cycle) != 0
    assert 0 < failing < len(games)


def test_residual_message_names_the_first_failing_profile_and_its_sum():
    # the two games have denominators 1 and 30; the residual sums to 0 at
    # (0, 0), 1/3 at (0, 1) and -1/10 at (1, 1)
    _, P = congestion_potential_2x2()
    extra = {(0, 1): (F(1, 2), F(-1, 6)), (1, 1): (F(1, 5), F(-3, 10))}
    G = Game.from_function(
        P.shape,
        lambda s: tuple(v + e for v, e in zip(P.payoffs[s], extra.get(s, (0, 0)))),
    )
    assert (G.ints[0], P.ints[0]) == (30, 1)
    with pytest.raises(CertificateInvalid) as info:
        DecompositionCertificate(G, P).validate()
    assert str(info.value) == "residual is not zero-sum at (0, 1): sums to 1/3"
