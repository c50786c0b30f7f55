"""Output checks for benchmark ops.

Two kinds of check apply to every op.  The output must be byte-identical to
the output recorded for the same op (stored as a SHA-256 digest in
`golden.json`; an ideal op is compared with the grid of the unscaled ideal,
since a unit does not change the ideal).  Where the paper or the acceptance
suite fixes a value, the output must also show it:

* trefoil f_r = r, its mirror f_r = -r, exampleE f_r = min(3r, 1), unknot 0;
* f_plus(exampleE) = 3;
* a sum of trefoils and mirrors has f_r = (#trefoil - #mirror) * r and
  f_plus = #trefoil - #mirror;
* profiles fit those same lines, with exampleE's breakpoint at r = 1/3;
* `verify` passes;
* the trefoil grid excludes only (0, 0); the exampleE grid excludes exactly
  (0, 0), (0, 1) and (0, 2).
"""

from __future__ import annotations

import hashlib
import json
import re
from fractions import Fraction
from pathlib import Path

GOLDEN_PATH = Path(__file__).resolve().parent / "golden.json"

THIRD = Fraction(1, 3)


def load_golden() -> dict:
    with open(GOLDEN_PATH, encoding="utf-8") as fh:
        return json.load(fh)


def digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def expected_f_r(model: str, r: Fraction) -> Fraction:
    if model == "trefoil":
        return r
    if model == "trefoil_left":
        return -r
    if model == "exampleE":
        return min(3 * r, Fraction(1))
    return Fraction(0)


def _values(out: str, label: str) -> list:
    """Every value printed on a line `label = value`."""
    return [Fraction(m.group(1)) for m in
            re.finditer(rf"^{re.escape(label)} = (-?\d+(?:/\d+)?)$", out, re.M)]


def _expect_value(out, label, want):
    got = _values(out, label)
    if got != [want]:
        return [f"{label}: want {want}, got {', '.join(map(str, got)) or 'nothing'}"]
    return []


def _check_invariants(op, out):
    problems = []
    if op.r is not None:
        problems += _expect_value(out, "f_r", expected_f_r(op.subject, op.r))
    if op.subject == "exampleE":
        problems += _expect_value(out, "f_plus", Fraction(3))
    return problems


_SEGMENT = re.compile(r"^f_r = (.+) on \[(-?[\d/]+), (-?[\d/]+)\]$", re.M)
_BREAK = re.compile(r"^breakpoint at r = ([\d/]+)$", re.M)


def _check_profile(op, out):
    problems = []
    segments = [(f, Fraction(lo), Fraction(hi)) for f, lo, hi in _SEGMENT.findall(out)]
    if not segments:
        problems.append("profile has no fitted segment")
    for formula, lo, hi in segments:
        if op.subject == "trefoil":
            ok = formula == "r"
        else:
            ok = (formula == "3*r" and hi <= THIRD) or (formula == "1" and lo >= THIRD)
        if not ok:
            problems.append(f"segment f_r = {formula} on [{lo}, {hi}] contradicts the model")
    breaks = [Fraction(b) for b in _BREAK.findall(out)]
    if any(b != THIRD for b in breaks) or (op.subject == "trefoil" and breaks):
        problems.append(f"unexpected breakpoints {breaks}")
    return problems


def _check_sum(op, out):
    factors = op.subject.split(",")
    signed = factors.count("trefoil") - factors.count("trefoil_left")
    return (_expect_value(out, "f_r", signed * op.r)
            + _expect_value(out, "f_plus", Fraction(signed)))


def _check_verify(op, out):
    lines = out.splitlines()
    if not lines or lines[-1] != "verify: all checks passed" or any(
            line.startswith("FAIL") for line in lines):
        return ["verify reports failures"]
    return []


_EXCLUDED = {
    "trefoil": {(0, 0)},
    "exampleE": {(0, 0), (0, 1), (0, 2)},
}


def parse_grid(out: str) -> dict:
    """(g, delta) -> True when the grid marks P^g V^delta as in the ideal."""
    cells = {}
    for line in out.splitlines()[1:]:
        g, *marks = line.split()
        for d, mark in enumerate(marks):
            cells[(int(g), d)] = mark == "#"
    return cells


def _check_grid(op, out):
    excluded = _EXCLUDED.get(op.subject)
    if excluded is None:  # conjectural ideal: only the recorded grid pins it
        return []
    try:
        cells = parse_grid(out)
    except ValueError:
        return ["grid does not parse"]
    got = {cell for cell, inside in cells.items() if not inside}
    if not cells or got != excluded:
        return [f"grid excludes {sorted(got)}, want {sorted(excluded)}"]
    return []


_FACTS = {
    "invariants": _check_invariants,
    "unknotting": lambda op, out: [],
    "profile": _check_profile,
    "verify": _check_verify,
    "sum": _check_sum,
    "build": _check_grid,
    "query": _check_grid,
}


def problems(op, code, out: str, golden: dict) -> list:
    """Why the op's result is wrong; empty when it is right."""
    found = [] if code == 0 else [f"exit status {code}"]
    recorded = golden.get(op.golden)
    if recorded is None:
        found.append("no recorded output for this op")
    elif digest(out) != recorded:
        found.append("output differs from the recorded output")
    return found + _FACTS[op.kind](op, out)
