"""Command-line output, pinned byte for byte.

The fixture `golden_cli.json` maps a case label to the argv, the exit code,
stdout and stderr of one in-process `concordia` run.  The cases cover every
subcommand (`invariants` lives in `golden_reports.json`), membership both
ways, and one domain error (exit 1) and one usage error (exit 2).

Re-record (only when a change to the output is intended):

    PYTHONPATH=src python tests/test_golden_cli.py
"""

import io
import json
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest

from concordia.cli import main

FIXTURE = Path(__file__).with_name("golden_cli.json")
B_HALF = ("--example", "B", "--r", "1/2")
CASES = {
    "eval B(1/2) L": ("eval", *B_HALF, "--element", "L", "--ring", "BN",
                      "--ord", "--leading-form"),
    "eval A P^2*V^-1": ("eval", "--example", "A", "--element", "P^2*V^-1",
                        "--ord", "--leading-form"),
    "eval C V": ("eval", "--example", "C", "--element", "V", "--ord"),
    "profile trefoil": ("profile", "--knot", "trefoil", "--samples", "1/4,1/2,1"),
    "profile exampleE": ("profile", "--knot", "exampleE", "--samples", "1/8..1:7"),
    "sum trefoil,trefoil_left B(1/3)": ("sum", "--knots", "trefoil,trefoil_left",
                                        "--example", "B", "--r", "1/3"),
    "sum trefoil,trefoil D": ("sum", "--knots", "trefoil,trefoil", "--example", "D"),
    "membership true": ("membership", "--ring", "BN", "--ideal", "L,P",
                        "--element", "P"),
    "membership false": ("membership", "--ring", "BN", "--ideal", "L,P",
                         "--element", "P^2*L^-1"),
    "membership principal true": ("membership", "--ring", "BN", "--ideal", "L",
                                  "--element", "L*P + L^2"),
    "membership principal false": ("membership", "--ring", "BN", "--ideal", "L^2",
                                   "--element", "L*P"),
    "membership FULL false": ("membership", "--ring", "FULL", "--ideal", "P,V^3",
                              "--element", "P*V^-1 + V^2"),
    "membership FULL true": ("membership", "--ring", "FULL", "--ideal", "P,V^3",
                             "--element", "P*V + V^4"),
    "membership fractional true": ("membership", "--ring", "BN", "--ideal", "P*L^-1",
                                   "--element", "P"),
    "g-region BN": ("g-region", "--ring", "BN", "--ideal", "L,P",
                    "--gmax", "2", "--dmax", "3"),
    "g-region FULL": ("g-region", "--ring", "FULL", "--ideal", "P,V^3",
                      "--gmax", "2", "--dmax", "3"),
    "unknotting-bound trefoil_left": ("unknotting-bound", "--knot", "trefoil_left",
                                      *B_HALF),
    "unknotting-bound exampleE C": ("unknotting-bound", "--knot", "exampleE",
                                    "--example", "C"),
    "invariants trefoil D signature": ("invariants", "--knot", "trefoil",
                                       "--example", "D", "--signature", "4"),
    "catalog list": ("catalog", "list"),
    "catalog show trefoil": ("catalog", "show", "trefoil"),
    "catalog show k34_conjectural": ("catalog", "show", "k34_conjectural"),
    "catalog show exampleE --json": ("catalog", "show", "exampleE", "--json"),
    "catalog show hopf_skein_data --json": ("catalog", "show", "hopf_skein_data",
                                            "--json"),
    "catalog show k34_conjectural --json": ("catalog", "show", "k34_conjectural",
                                            "--json"),
    "verify": ("verify",),
    "exit 1 unknown knot": ("invariants", "--knot", "nosuchknot", "--example", "A"),
    "exit 2 B without r": ("invariants", "--knot", "trefoil", "--example", "B"),
}


def run(label):
    argv = list(CASES[label])
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    return {"argv": argv, "exit": code, "stdout": out.getvalue(),
            "stderr": err.getvalue()}


@pytest.mark.parametrize("label", sorted(CASES))
def test_cli_matches_golden(label):
    golden = json.loads(FIXTURE.read_text())
    assert run(label) == golden[label]


def test_golden_covers_every_case_and_both_error_codes():
    golden = json.loads(FIXTURE.read_text())
    assert sorted(golden) == sorted(CASES)
    assert {g["exit"] for g in golden.values()} == {0, 1, 2}


if __name__ == "__main__":
    recorded = {label: run(label) for label in sorted(CASES)}
    FIXTURE.write_text(json.dumps(recorded, indent=1) + "\n")
    sys.stdout.write(f"recorded {len(recorded)} cases in {FIXTURE}\n")
