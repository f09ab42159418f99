"""Report structure and deterministic serialisation.

Reports serialise to byte-identical JSON for identical requests: keys are
sorted, rationals render as "p/q" with a fixed-precision decimal twin, and
floats are normalised to twelve significant digits.  The CSV projection is
a flat numeric view (section, name, exact, decimal).
"""

from __future__ import annotations

import io
import json
import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Any

DECIMAL_DIGITS = 12


def render_value(value: Any) -> Any:
    """Normalise one leaf for JSON output."""
    if isinstance(value, Fraction):
        return {"exact": _exact(value), "decimal": _decimal(value)}
    if isinstance(value, float):
        if math.isinf(value):
            return "inf" if value > 0 else "-inf"
        if math.isnan(value):
            return "nan"
        return float(f"{value:.{DECIMAL_DIGITS}g}")
    if isinstance(value, (str, int, bool)) or value is None:
        return value
    if isinstance(value, dict):
        return {str(k): render_value(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [render_value(v) for v in value]
    return str(value)


def _exact(value: Fraction) -> str:
    if value.denominator == 1:
        return str(value.numerator)
    return f"{value.numerator}/{value.denominator}"


def _decimal(value: Fraction) -> str:
    return f"{float(value):.{DECIMAL_DIGITS}g}"


_string = json.encoder.encode_basestring_ascii


def _write_json(value: Any, out: list, pad: str) -> None:
    """Append to `out` the text of `json.dumps(render_value(value),
    sort_keys=True, indent=2)`, nested `pad` deep.

    `render_value`'s leaf rules are applied as each node is written, so no
    rendered copy of the document is built, and the text is joined once,
    where `indent` would send `json.dumps` through its pure-Python encoder.
    """
    if isinstance(value, str):
        out.append(_string(value))
    elif isinstance(value, dict):
        if not value:
            out.append("{}")
            return
        inner = pad + "  "
        items = {str(k): v for k, v in value.items()}
        head = "{\n"
        for key in sorted(items):
            out.append(f"{head}{inner}{_string(key)}: ")
            _write_json(items[key], out, inner)
            head = ",\n"
        out.append(f"\n{pad}}}")
    elif isinstance(value, (list, tuple)):
        if not value:
            out.append("[]")
            return
        inner = pad + "  "
        head = "[\n"
        for item in value:
            out.append(head + inner)
            _write_json(item, out, inner)
            head = ",\n"
        out.append(f"\n{pad}]")
    elif isinstance(value, Fraction):
        out.append(f'{{\n{pad}  "decimal": "{_decimal(value)}",\n'
                   f'{pad}  "exact": "{_exact(value)}"\n{pad}}}')
    elif isinstance(value, float):
        rendered = render_value(value)
        out.append(_string(rendered) if isinstance(rendered, str) else float.__repr__(rendered))
    elif value is None or isinstance(value, bool):
        out.append("null" if value is None else "true" if value else "false")
    elif isinstance(value, int):
        out.append(int.__repr__(value))
    else:
        out.append(_string(str(value)))


@dataclass
class Report:
    """Structured results of one CLI request.

    `status` follows the exit-code contract: 0 when every asserted
    inequality holds, 1 when at least one failed (a finding).  `findings`
    lists the failed assertions in human-readable form; `provenance` names
    the fixture and its anchor when the input is a shipped instance.
    """

    kind: str
    inputs: dict = field(default_factory=dict)
    results: dict = field(default_factory=dict)
    provenance: dict = field(default_factory=dict)
    findings: list = field(default_factory=list)

    @property
    def status(self) -> int:
        return 1 if self.findings else 0

    def record(self, name: str, holds: bool | None, detail: str = "") -> None:
        if holds is False:
            self.findings.append(f"{name}: {detail}" if detail else name)

    def to_json(self) -> str:
        doc = {
            "kind": self.kind,
            "inputs": self.inputs,
            "results": self.results,
            "provenance": self.provenance,
            "findings": self.findings,
            "status": self.status,
        }
        out: list[str] = []
        _write_json(doc, out, "")
        out.append("\n")
        return "".join(out)

    def to_csv(self) -> str:
        out = io.StringIO()
        out.write("section,name,exact,decimal\n")

        def emit(section: str, name: str, value: Any) -> None:
            if isinstance(value, Fraction):
                out.write(f"{section},{name},{_exact(value)},{_decimal(value)}\n")
            elif isinstance(value, bool):
                out.write(f"{section},{name},{value},{int(value)}\n")
            elif isinstance(value, (int, float)):
                out.write(f"{section},{name},,{render_value(float(value))}\n")

        def walk(section: str, node: Any) -> None:
            if isinstance(node, dict):
                for k in sorted(node):
                    walk(f"{section}.{k}" if section else str(k), node[k])
            elif isinstance(node, (list, tuple)):
                for idx, v in enumerate(node):
                    walk(f"{section}[{idx}]", v)
            else:
                head, _, name = section.rpartition(".")
                emit(head or section, name or section, node)

        walk("", self.results)
        out.write(f"status,exit,,{self.status}\n")
        return out.getvalue()

    def render(self, fmt: str = "json") -> str:
        if fmt == "json":
            return self.to_json()
        if fmt == "csv":
            return self.to_csv()
        raise ValueError(f"unknown format {fmt!r}")
