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

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .congestion import CongestionGame, congestion_to_game, is_superadditive
from .efficiency import price_report
from .errors import CertificateInvalid, EmptySolutionSet, PreconditionFailed
from .games import Game, SolutionSet, enumerate_pure_ne
from .transitions import degree_map, transition_set

F = Fraction


def exact_potential_fourcycle(game: Game, witness: bool = False):
    """Exact-potential test via unilateral four-cycles.

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
            if not witness:
                return False
            a = tuple(int(x) for x in np.unravel_index(bad[0], cycles.shape))
            b, d = (a[:k] + (a[k] + 1,) + a[k + 1:] for k in (i, j))
            c = b[:j] + (b[j] + 1,) + b[j + 1:]
            return False, (a, b, c, d)
    return (True, None) if witness else True


@dataclass(frozen=True)
class DecompositionCertificate:
    """A game, a candidate potential part, and an optional claimed alpha.

    Invariants (checked by validate): both games share shape and convention,
    the residual utilities sum to exactly zero at every profile, and the
    potential part passes the exact-potential four-cycle test.
    """

    game: Game
    potential: Game
    alpha: Fraction | None = None

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
        scale, residual = self._residual()
        total = residual.sum(axis=0)
        bad = np.flatnonzero(total)
        if bad.size:
            s = tuple(int(x) for x in np.unravel_index(bad[0], total.shape))
            raise CertificateInvalid(
                f"residual is not zero-sum at {s}: sums to "
                f"{Fraction(int(total[s]), scale)}"
            )
        if not exact_potential_fourcycle(p):
            raise CertificateInvalid("potential part fails the four-cycle test")

    def epsilon(self) -> Fraction:
        scale, residual = self._residual()
        return Fraction(int(np.abs(residual).max()), scale)


def _abs_welfare(D: SolutionSet, m: int) -> tuple[np.ndarray, np.ndarray]:
    """|W| (`Game.welfare`) over D's solutions and over its transitions of
    degree at most m."""
    welfare = np.abs(D.game.welfare)
    return (welfare[tuple(np.array(D.members).T)],
            welfare[transition_set(D).box][degree_map(D) <= m])


def _tight_alpha(loose, strict) -> Fraction | None:
    """Transfer factor between matching extremes of |sw|, in one unit.

    The extreme over the loose set divided by the same extreme over the
    strict set: min over min gives the anarchy factor, max over max the
    stability factor.  1 when both are zero; None when only the strict
    extreme is zero (no finite factor exists).
    """
    if strict == 0:
        return F(1) if loose == 0 else None
    return F(int(loose), int(strict))


def verify_decomposition_bounds(
    cert: DecompositionCertificate,
    m: int,
    alpha_mode: str = "search",
    congestion: CongestionGame | None = None,
) -> dict:
    """Check the anarchy/stability transfer inequalities of a certificate.

    Enumerates the 2-epsilon equilibria of the potential part and their
    m-limited transitions, extracts the tightest transfer factors (or uses
    the certificate's claimed alpha when alpha_mode="given"), and asserts:

      poa_G / poa_P >= alpha_ne        pos_G / pos_P <= alpha_ne_upper
      m_pota_G / m_pota_P >= alpha_m   m_pots_G / m_pots_P <= alpha_m_upper

    With a superadditive utility-maximisation congestion backend for the
    potential part, additionally asserts m_pota_G >= (alpha_m / m) * poa_P.
    """
    if alpha_mode not in ("search", "given"):
        raise ValueError(f"unknown alpha_mode {alpha_mode!r}")
    if alpha_mode == "given" and cert.alpha is None:
        raise CertificateInvalid("alpha_mode='given' needs a supplied alpha")
    cert.validate()
    G, P = cert.game, cert.potential
    eps = cert.epsilon()

    ne_g = enumerate_pure_ne(G)
    ne_p = enumerate_pure_ne(P)
    loose_p = enumerate_pure_ne(P, 2 * eps)
    if ne_g.is_empty or ne_p.is_empty:
        raise EmptySolutionSet("both games need pure equilibria for the transfer")

    report_g = price_report(G, ne_g)
    report_p = price_report(P, ne_p)

    loose_ne, loose_m = _abs_welfare(loose_p, m)
    exact_ne, exact_m = _abs_welfare(ne_p, m)
    searched = {
        "alpha_ne": _tight_alpha(loose_ne.min(), exact_ne.min()),
        "alpha_ne_upper": _tight_alpha(loose_ne.max(), exact_ne.max()),
        "alpha_m": _tight_alpha(loose_m.min(), exact_m.min()),
        "alpha_m_upper": _tight_alpha(loose_m.max(), exact_m.max()),
    }
    if alpha_mode == "given":
        used = {k: cert.alpha for k in searched}
    else:
        used = searched

    rows = []

    def row(name, lhs, rhs, ge=True):
        if lhs is None or rhs is None:
            rows.append({"name": name, "holds": None, "skipped": "alpha undefined"})
            return
        rows.append(
            {
                "name": name,
                "lhs": lhs,
                "rhs": rhs,
                "holds": lhs >= rhs if ge else lhs <= rhs,
            }
        )

    a = used["alpha_ne"]
    row("anarchy-transfer", abs(report_g.poa / report_p.poa) if report_p.poa else None,
        a)
    a_up = used["alpha_ne_upper"]
    row(
        "stability-transfer",
        abs(report_g.pos / report_p.pos) if report_p.pos else None,
        a_up,
        ge=False,
    )
    am = used["alpha_m"]
    mp_g = report_g.m_pota_at(m)
    mp_p = report_p.m_pota_at(m)
    row("degree-anarchy-transfer", abs(mp_g / mp_p) if mp_p else None, am)
    am_up = used["alpha_m_upper"]
    ms_g = report_g.m_pots_at(m)
    ms_p = report_p.m_pots_at(m)
    row("degree-stability-transfer", abs(ms_g / ms_p) if ms_p else None, am_up,
        ge=False)

    corollary = None
    if congestion is not None:
        backing = congestion_to_game(congestion, "max")
        if backing.ints[0] != P.ints[0] or not np.array_equal(backing.ints[1], P.ints[1]):
            raise PreconditionFailed(
                "congestion backend does not reproduce the potential part"
            )
        if not is_superadditive(congestion):
            raise PreconditionFailed("congestion utilities are not superadditive")
        if am is None:
            corollary = {"name": "congestion-degree-floor", "holds": None,
                         "skipped": "alpha undefined"}
        else:
            rhs = am / m * report_p.poa
            corollary = {
                "name": "congestion-degree-floor",
                "lhs": mp_g,
                "rhs": rhs,
                "holds": mp_g >= rhs,
            }
        rows.append(corollary)

    return {
        "epsilon": eps,
        "alpha_mode": alpha_mode,
        "alphas_searched": searched,
        "alphas_used": used,
        "prices_game": report_g.as_dict(),
        "prices_potential": report_p.as_dict(),
        "rows": rows,
        "holds": all(r.get("holds") is not False for r in rows),
    }
