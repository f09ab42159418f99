"""The decomposition transfer check, pinned as a report.

`decomposition_reports/transfers.json` holds, per call, the rendered result
of `verify_decomposition_bounds` or its refusal as type and message.  It was
captured before the transfer factors were read from `price_report`, so any
change to a factor, a row or a refusal shows here.
"""

import json
import random
from fractions import Fraction
from pathlib import Path

from transit.decomposition import DecompositionCertificate, verify_decomposition_bounds
from transit.errors import TransitError
from transit.reporting import render_value
from test_decomposition import congestion_potential_2x2, perturbed, random_certificate

F = Fraction


def transfer_calls():
    """(label, call) for each pinned call of verify_decomposition_bounds."""
    cg, P = congestion_potential_2x2()
    G = perturbed(P, F(1, 10))
    calls = [
        ("perturbed 1/10, congestion, m=2",
         lambda: verify_decomposition_bounds(DecompositionCertificate(G, P), 2, cg)),
        ("perturbed 1/10, congestion, m=2, alpha 1/2",
         lambda: verify_decomposition_bounds(DecompositionCertificate(G, P, F(1, 2)), 2, cg)),
        ("identity, m=2", lambda: verify_decomposition_bounds(DecompositionCertificate(P, P), 2)),
    ]
    rng = random.Random(5)
    for k in range(40):
        cert = DecompositionCertificate(*random_certificate(rng))
        calls.append((f"random_certificate(Random(5)) draw {k}, m=2",
                      lambda cert=cert: verify_decomposition_bounds(cert, 2)))
    return calls


def transfer_report() -> str:
    """Every pinned call's result, or its refusal as type and message."""
    entries = []
    for label, call in transfer_calls():
        try:
            entries.append({"call": label, "result": render_value(call())})
        except TransitError as exc:
            entries.append({"call": label, "refused": f"{type(exc).__name__}: {exc}"})
    return json.dumps(entries, sort_keys=True, indent=2) + "\n"


def test_transfer_reports_are_pinned():
    assert transfer_report() == (Path(__file__).parent / "decomposition_reports"
                                 / "transfers.json").read_text()
