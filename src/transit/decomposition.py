"""Verification of a supplied zero-sum + potential decomposition.

Given a game G and a candidate potential game P on the same shape whose
residual G - P is zero-sum at every profile, the welfare of every profile
agrees between G and P, and equilibria of G are 2-epsilon equilibria of P
for epsilon = max |u_i - v_i|.  That carries anarchy ratios of P over to G
up to a factor alpha extracted from comparing near-equilibria of P against
its exact equilibria; this module computes epsilon, the tightest such
alphas, and checks every claimed inequality.  The decomposition itself is
an input: we verify certificates, we do not construct them.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .congestion import CongestionGame, congestion_to_game, is_superadditive
from .efficiency import _row, price_report
from .errors import BadParams, CertificateInvalid, EmptySolutionSet, PreconditionFailed
from .games import Game, enumerate_pure_ne
from .transitions import degree_map, transition_set


def fourcycle_witness(game: Game) -> tuple | None:
    """The first failing unilateral four-cycle (a, b, c, d), or None when
    the game has an exact potential.

    A game admits an exact potential iff around every cycle
    s -> (x_i') -> (x_i', x_j') -> (x_j') -> s of two players' unilateral
    deviations, the deviators' utility changes sum to zero.  That sum is the
    mixed second difference of U_j - U_i over axes i and j, and every cycle
    sums the adjacent cycles inside it, so the test is one array pass per
    player pair on the integer grid (`Game.ints`), exact.  The witness is
    the first failing adjacent cycle: pairs (i, j) in order, then profiles
    in lexicographic order.
    """
    payoff = game.ints[1]
    # a second difference adds four entries of U_j - U_i
    if payoff.dtype != object and int(np.abs(payoff).max()) >= 2**60:
        payoff = payoff.astype(object)
    for i, j in itertools.combinations(range(game.n), 2):
        cycles = np.diff(np.diff(payoff[j] - payoff[i], axis=i), axis=j)
        bad = np.flatnonzero(cycles)
        if bad.size:
            a = tuple(int(x) for x in np.unravel_index(bad[0], cycles.shape))
            b, d = (a[:k] + (a[k] + 1,) + a[k + 1:] for k in (i, j))
            return a, b, b[:j] + (b[j] + 1,) + b[j + 1:], d
    return None


@dataclass(frozen=True)
class DecompositionCertificate:
    """A game, a candidate potential part, and an optional claimed alpha.

    Invariants (checked by validate): both games share shape and convention,
    the residual utilities sum to exactly zero at every profile, and the
    potential part passes the exact-potential four-cycle test.  Without an
    alpha the transfer factors are searched; with one, every row uses it.
    """

    game: Game
    potential: Game
    alpha: Fraction | None = None

    @functools.cached_property
    def _residual(self) -> tuple[int, np.ndarray]:
        """(L, R): L = lcm of both games' denominators and R[i, *s] the
        residual u_i(s) - v_i(s) times L, in Python ints when a sum over
        players could pass 2**63."""
        (lg, ug), (lp, up) = self.game.ints, self.potential.ints
        scale = math.lcm(lg, lp)
        fg, fp = scale // lg, scale // lp
        peak = max(fg * int(np.abs(ug).max()), fp * int(np.abs(up).max()))
        if 2 * len(ug) * peak >= 2**63:
            ug, up = ug.astype(object), up.astype(object)
        return scale, ug * fg - up * fp

    def validate(self) -> None:
        g, p = self.game, self.potential
        if g.shape != p.shape or g.n != p.n:
            raise CertificateInvalid("game and potential part differ in shape")
        if g.convention != p.convention or g.convention != "max":
            raise CertificateInvalid("certificates are utility-maximisation only")
        scale, residual = self._residual
        total = residual.sum(axis=0)
        bad = np.flatnonzero(total)
        if bad.size:
            s = tuple(int(x) for x in np.unravel_index(bad[0], total.shape))
            raise CertificateInvalid(f"residual is not zero-sum at {s}: sums to "
                                     f"{Fraction(int(total[s]), scale)}")
        cycle = fourcycle_witness(p)
        if cycle is not None:
            raise CertificateInvalid(f"potential part fails the four-cycle test at {cycle}")

    def epsilon(self) -> Fraction:
        scale, residual = self._residual
        return Fraction(int(np.abs(residual).max()), scale)


# row, the price it compares, its alpha, and whether it is a lower bound
_TRANSFERS = (
    ("anarchy-transfer", "poa", "alpha_ne", True),
    ("stability-transfer", "pos", "alpha_ne_upper", False),
    ("degree-anarchy-transfer", "m_pota", "alpha_m", True),
    ("degree-stability-transfer", "m_pots", "alpha_m_upper", False),
)


def verify_decomposition_bounds(
    cert: DecompositionCertificate,
    m: int,
    congestion: CongestionGame | None = None,
) -> dict:
    """Check the anarchy/stability transfer inequalities of a certificate.

    Each searched transfer factor is one price of the potential part P over
    its 2-epsilon equilibria divided by the same price over its equilibria
    (1 when both are 0, None when only the second is); a certificate's
    alpha replaces every factor.  Asserts:

      poa_G / poa_P >= alpha_ne        pos_G / pos_P <= alpha_ne_upper
      m_pota_G / m_pota_P >= alpha_m   m_pots_G / m_pots_P <= alpha_m_upper

    The transfer needs nonnegative welfare on every m-limited transition of
    P's 2-epsilon equilibria, the largest set whose extremes the rows
    compare; PreconditionFailed is raised otherwise.  With a superadditive
    utility-maximisation congestion backend for the potential part,
    additionally asserts m_pota_G >= (alpha_m / m) * poa_P.  A row with an
    undefined ratio or alpha is skipped.  An m below 1 is refused with
    BadParams before any equilibrium is enumerated.
    """
    if m < 1:
        raise BadParams("m must be at least 1")
    cert.validate()
    G, P = cert.game, cert.potential
    eps = cert.epsilon()

    ne_g = enumerate_pure_ne(G)
    ne_p = enumerate_pure_ne(P)
    loose_p = enumerate_pure_ne(P, 2 * eps)
    if ne_g.is_empty or ne_p.is_empty:
        raise EmptySolutionSet("both games need pure equilibria for the transfer")

    if P.welfare[transition_set(loose_p).box][degree_map(loose_p) <= m].min() < 0:
        raise PreconditionFailed(f"welfare is negative on a transition of degree at most {m} "
                                 "of the potential part's 2-epsilon equilibria")

    report_g = price_report(G, ne_g)
    report_p = price_report(P, ne_p)
    report_loose = price_report(P, loose_p)

    def price(report, key):
        return getattr(report, f"{key}_at")(m) if key[:2] == "m_" else getattr(report, key)

    searched, used, rows = {}, {}, []
    for name, key, alpha, lower in _TRANSFERS:
        g, p, loose = (price(report, key) for report in (report_g, report_p, report_loose))
        searched[alpha] = loose / p if p else (Fraction(1) if loose == 0 else None)
        a = used[alpha] = searched[alpha] if cert.alpha is None else cert.alpha
        rows.append(_row(name, "decomposition-transfer", {alpha: a},
                         f"{key}_G / {key}_P {'>=' if lower else '<='} {alpha}",
                         g / p if p else None, a, ge=lower))

    if congestion is not None:
        backing = congestion_to_game(congestion, "max")
        if backing.ints[0] != P.ints[0] or not np.array_equal(backing.ints[1], P.ints[1]):
            raise PreconditionFailed("congestion backend does not reproduce the potential part")
        if not is_superadditive(congestion):
            raise PreconditionFailed("congestion utilities are not superadditive")
        a = used["alpha_m"]
        rows.append(_row("congestion-degree-floor", "superadditive-congestion-corollary",
                         {"alpha_m": a}, "m_pota_G >= alpha_m / m * poa_P",
                         report_g.m_pota_at(m), None if a is None else a / m * report_p.poa))

    return {
        "epsilon": eps,
        "alpha_mode": "search" if cert.alpha is None else "given",
        "alphas_searched": searched,
        "alphas_used": used,
        "prices_game": report_g.as_dict(),
        "prices_potential": report_p.as_dict(),
        "rows": [row.as_dict() for row in rows],
        "holds": all(row.holds is not False for row in rows),
    }
