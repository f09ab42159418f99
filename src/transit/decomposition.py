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
from dataclasses import dataclass
from fractions import Fraction

from .congestion import CongestionGame, congestion_to_game, is_superadditive
from .efficiency import price_report
from .errors import CertificateInvalid, EmptySolutionSet, PreconditionFailed
from .games import Game, SolutionSet, enumerate_pure_ne
from .transitions import degree_map

F = Fraction


def exact_potential_fourcycle(game: Game, witness: bool = False):
    """Exact-potential test via unilateral four-cycles.

    A game admits an exact potential iff around every cycle
    s -> (x_i') -> (x_i', x_j') -> (x_j') -> s of two players' unilateral
    deviations, the deviators' utility changes sum to zero.  Payoffs are
    exact rationals, so the test compares with zero exactly.
    """
    n = game.n
    for i, j in itertools.combinations(range(n), 2):
        others = [range(k) for t, k in enumerate(game.shape) if t not in (i, j)]
        for rest in itertools.product(*others):
            def embed(xi, xj):
                prof = list(rest)
                prof.insert(min(i, j), xi if i < j else xj)
                prof.insert(max(i, j), xj if i < j else xi)
                return tuple(prof)

            for xi, xip in itertools.combinations(range(game.shape[i]), 2):
                for xj, xjp in itertools.combinations(range(game.shape[j]), 2):
                    a = embed(xi, xj)
                    b = embed(xip, xj)
                    c = embed(xip, xjp)
                    d = embed(xi, xjp)
                    total = (
                        (game.payoffs[b][i] - game.payoffs[a][i])
                        + (game.payoffs[c][j] - game.payoffs[b][j])
                        + (game.payoffs[d][i] - game.payoffs[c][i])
                        + (game.payoffs[a][j] - game.payoffs[d][j])
                    )
                    if total != 0:
                        return (False, (a, b, c, d)) if witness else False
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

    def validate(self) -> None:
        g, p = self.game, self.potential
        if g.shape != p.shape or g.n != p.n:
            raise CertificateInvalid("game and potential part differ in shape")
        if g.convention != p.convention or g.convention != "max":
            raise CertificateInvalid("certificates are utility-maximisation only")
        for s in g.profiles():
            residual = sum(g.payoffs[s][i] - p.payoffs[s][i] for i in range(g.n))
            if residual != 0:
                raise CertificateInvalid(
                    f"residual is not zero-sum at {s}: sums to {residual}"
                )
        if not exact_potential_fourcycle(p):
            raise CertificateInvalid("potential part fails the four-cycle test")

    def epsilon(self) -> Fraction:
        g, p = self.game, self.potential
        return max(
            abs(g.payoffs[s][i] - p.payoffs[s][i])
            for s in g.profiles()
            for i in range(g.n)
        )


def _abs_sw(game: Game, profiles, extreme) -> Fraction | None:
    """`extreme` (min or max) of |sw| over the profiles; None when empty."""
    vals = [abs(sum(game.payoffs[s])) for s in profiles]
    return extreme(vals) if vals else None


def _tight_alpha(loose, strict):
    """Transfer factor between matching extremes of |sw|.

    The extreme over the loose set divided by the same extreme over the
    strict set: min over min gives the anarchy factor, max over max the
    stability factor.  1 when both are zero; None when only the strict
    extreme is zero (no finite factor exists).
    """
    if strict == 0:
        return F(1) if loose == 0 else None
    return loose / strict


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

    degs_loose = degree_map(loose_p)
    degs_exact = degree_map(ne_p)
    loose_m = [t for t, d in degs_loose.items() if d <= m]
    exact_m = [t for t, d in degs_exact.items() if d <= m]

    searched = {
        "alpha_ne": _tight_alpha(
            _abs_sw(P, loose_p.members, min), _abs_sw(P, ne_p.members, min)
        ),
        "alpha_ne_upper": _tight_alpha(
            _abs_sw(P, loose_p.members, max), _abs_sw(P, ne_p.members, max)
        ),
        "alpha_m": _tight_alpha(_abs_sw(P, loose_m, min), _abs_sw(P, exact_m, min)),
        "alpha_m_upper": _tight_alpha(
            _abs_sw(P, loose_m, max), _abs_sw(P, exact_m, max)
        ),
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
        if backing.payoffs != dict(P.payoffs):
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
