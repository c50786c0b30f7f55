"""`invariant_report` text, pinned byte for byte.

The fixture `golden_reports.json` maps a case label to the report text.  It
covers every catalog model under A, B(1/2), C and D, one mixed connected sum
under B(1/3), and the genus-shifted model whose f_plus is refused, the only
case that prints the `f_plus: unavailable` and `clasp number: n/a` lines.

Re-record (only when a change to the text is intended):

    PYTHONPATH=src python tests/test_golden_reports.py
"""

import json
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from concordia import catalog
from concordia.basechange import builtin
from concordia.homalg import ChainComplex, DistinguishedCycle, UNKNOT_TO_K
from concordia.invariants import KnotModel, as_forward, connected_sum, invariant_report
from concordia.laurent import LaurentElement, Ring

FIXTURE = Path(__file__).with_name("golden_reports.json")
MODELS = ("unknot", "trefoil", "trefoil_left", "exampleE")
SIGMAS = {"A": ("A",), "B(1/2)": ("B", Fraction(1, 2)), "C": ("C",), "D": ("D",)}


def _genus_shifted():
    return KnotModel(
        "shifted", ChainComplex(Ring.BN, {0: 1}),
        DistinguishedCycle(0, (LaurentElement.one(Ring.BN),), 1, 0, UNKNOT_TO_K),
    )


def _mixed_sum():
    return connected_sum(catalog.get_model("trefoil"),
                         as_forward(catalog.get_model("trefoil_left")))


def cases():
    """label -> (model factory, base-change factory)."""
    out = {}
    for name in MODELS:
        for label, args in SIGMAS.items():
            out[f"{name} {label}"] = (lambda n=name: catalog.get_model(n),
                                      lambda a=args: builtin(*a))
    out["trefoil # trefoil_left B(1/3)"] = (_mixed_sum, lambda: builtin("B", Fraction(1, 3)))
    out["shifted B(1/2)"] = (_genus_shifted, lambda: builtin("B", Fraction(1, 2)))
    return out


def report(label):
    model, sigma = cases()[label]
    return invariant_report(model(), sigma())


@pytest.mark.parametrize("label", sorted(cases()))
def test_report_matches_golden(label):
    golden = json.loads(FIXTURE.read_text())
    assert report(label) == golden[label]


def test_golden_covers_every_case():
    assert sorted(json.loads(FIXTURE.read_text())) == sorted(cases())


if __name__ == "__main__":
    recorded = {label: report(label) for label in sorted(cases())}
    FIXTURE.write_text(json.dumps(recorded, indent=1) + "\n")
    sys.stdout.write(f"recorded {len(recorded)} reports in {FIXTURE}\n")
