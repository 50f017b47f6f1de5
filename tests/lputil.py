"""A minimal LP-format reader, enough to round-trip what emit_lp writes.

Independent of flexshop.milp internals on purpose: it rebuilds a MilpModel
from nothing but the text, so the round-trip test fails if either side
drifts from the documented format.
"""

from __future__ import annotations

from flexshop.milp import MilpModel


def _parse_terms(tokens: list[str]) -> tuple[tuple[int, str], ...]:
    terms = []
    sign = 1
    coef: int | None = None
    for tok in tokens:
        if tok == "+":
            sign, coef = 1, None
        elif tok == "-":
            sign, coef = -1, None
        elif tok.lstrip("-").isdigit():
            coef = int(tok)
        else:
            terms.append((sign * (1 if coef is None else coef), tok))
            sign, coef = 1, None
    return tuple(terms)


def parse_lp(text: str) -> MilpModel:
    lines = [ln.strip() for ln in text.splitlines() if ln.strip()]
    pos = 0

    def expect(keyword: str) -> None:
        nonlocal pos
        if pos >= len(lines) or lines[pos] != keyword:
            raise ValueError(f"expected {keyword!r} at line {pos}, got {lines[pos] if pos < len(lines) else 'EOF'!r}")
        pos += 1

    expect("Minimize")
    expect("obj: Cmax")

    expect("Subject To")
    rows: list[tuple[str, tuple[tuple[int, str], ...], str, int]] = []
    while lines[pos] != "Bounds":
        name, body = lines[pos].split(":", 1)
        tokens = body.split()
        sense_at = next(i for i, t in enumerate(tokens) if t in ("<=", ">=", "="))
        rows.append((name.strip(), _parse_terms(tokens[:sense_at]), tokens[sense_at], int(tokens[sense_at + 1])))
        pos += 1

    expect("Bounds")
    continuous: list[str] = []
    while lines[pos] != "Binaries":
        tokens = lines[pos].split()
        if len(tokens) != 3 or tokens[1:] != [">=", "0"]:
            raise ValueError(f"unrecognized bound line {lines[pos]!r}")
        continuous.append(tokens[0])
        pos += 1

    expect("Binaries")
    binaries: list[str] = []
    while lines[pos] != "End":
        binaries.append(lines[pos])
        pos += 1

    return MilpModel(binaries=tuple(binaries), continuous=tuple(continuous), constraints=tuple(rows))
