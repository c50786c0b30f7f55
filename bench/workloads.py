"""Seeded op lists for the benchmark workloads.

An op is one `concordia` command line, run in-process through
`concordia.cli.main(argv)`.  Ops come in decks: every deck of a workload has
the same composition (which commands, on which models), and the seed draws
the parameters inside it (the rational r, the sample grid, the order of the
factors of a sum, the unit that scales an ideal) and the order of the ops.
A run plays whole decks, so two seeds differ in their inputs but not in the
mix of work, which keeps the end-to-end figures comparable across seeds.

Every parameter is drawn from a finite set, so `all_ops` can enumerate every
op a seed can produce and `record_golden.py` can record its output.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from fractions import Fraction

WORKLOADS = ("reports", "sums", "ideals")

MODELS = ("unknot", "trefoil", "trefoil_left", "exampleE")
RS = tuple(Fraction(a, b) for a, b in (
    (1, 8), (1, 6), (1, 5), (1, 4), (2, 7), (1, 3),
    (2, 5), (1, 2), (3, 5), (2, 3), (3, 4), (1, 1),
))
PROFILE_MODELS = ("trefoil", "exampleE")
GRID_LO = (Fraction(1, 8), Fraction(1, 6), Fraction(1, 5), Fraction(1, 4))
GRID_HI = (Fraction(2, 3), Fraction(3, 4), Fraction(1))
GRID_STEPS = 8
SUM_ORDERS = tuple(itertools.product(("trefoil", "trefoil_left"), repeat=3))

# name -> (ring, generators, build box, query boxes).  The generators are the
# catalog's expected ideals, written the way a user types them.  The boxes
# give a deck seven ops whose costs sort as trefoil build < exampleE build <
# trefoil query < exampleE 5x5 query < k34 build, k34 query < exampleE 6x6
# query, so the median op is the exampleE 5x5 query and the 90th percentile
# falls among the exampleE 6x6 queries once a run has two decks.
IDEALS = {
    "trefoil": ("BN", ("L", "P"), 3, (5,)),
    "exampleE": ("FULL", ("P", "V^3"), 3, (5, 6)),
    "k34_conjectural": (
        "BN", ("L^3", "L^2*P", "L*P^2", "P^3", "P^2 + T1^-2*P^2 + L^2"), 3, (4,),
    ),
}
RING_SLOTS = {"BN": (1, 2, 3), "FULL": (0, 1, 2, 3)}


@dataclass(frozen=True)
class Op:
    kind: str             # invariants | unknotting | profile | verify | sum | build | query
    argv: tuple           # what cli.main receives
    golden: str           # key of the recorded output
    reuse: frozenset      # evaluations the op performs; shared keys mean repeated work
    subject: str = ""     # model, comma-joined sum factors, or ideal name
    r: Fraction = None    # parameter of base change B, when used


def _sigma(name, r=None):
    if name == "B":
        return ("--example", "B", "--r", str(r)), f"B({r})"
    return ("--example", name), name


def _plain(kind, argv, reuse, subject="", r=None):
    return Op(kind, tuple(argv), " ".join(argv), frozenset(reuse), subject, r)


def invariants_op(model, sigma, r=None):
    flags, label = _sigma(sigma, r)
    return _plain("invariants", ("invariants", "--knot", model) + flags,
                  [(model, label)], model, r)


def unknotting_op(model, r):
    flags, label = _sigma("B", r)
    return _plain("unknotting", ("unknotting-bound", "--knot", model) + flags,
                  [(model, label)], model, r)


def grid_samples(lo, hi):
    """The sample points the CLI makes of `lo..hi:GRID_STEPS`."""
    step = (hi - lo) / GRID_STEPS
    return [lo + step * k for k in range(GRID_STEPS + 1)]


def profile_op(model, lo, hi):
    spec = f"{lo}..{hi}:{GRID_STEPS}"
    reuse = [(model, f"B({r})") for r in grid_samples(lo, hi)]
    return _plain("profile", ("profile", "--knot", model, "--samples", spec), reuse, model)


def verify_op():
    return _plain("verify", ("verify",), [("verify",)])


def sum_op(knots, r):
    flags, label = _sigma("B", r)
    joined = ",".join(knots)
    return _plain("sum", ("sum", "--knots", joined) + flags, [(joined, label)], joined, r)


def format_unit(ring, exps):
    """Text of the T-monomial with the given exponents on the ring's variables."""
    return "*".join(
        f"T{slot}" if e == 1 else f"T{slot}^{e}"
        for slot, e in zip(RING_SLOTS[ring], exps) if e
    )


def scaled_ideal(name, exps):
    """Generator text of a catalog ideal with every term multiplied by a unit."""
    ring, gens, _, _ = IDEALS[name]
    unit = format_unit(ring, exps)
    if not unit:
        return ",".join(gens)
    return ",".join(
        " + ".join(f"{unit}*{term.strip()}" for term in gen.split("+")) for gen in gens
    )


def ideal_op(kind, name, exps, box):
    ring = IDEALS[name][0]
    text = scaled_ideal(name, exps)
    argv = ("g-region", "--ring", ring, "--ideal", text,
            "--gmax", str(box), "--dmax", str(box))
    # A unit does not change the ideal, so every scaling has the unscaled grid.
    return Op(kind, argv, f"g-region {name} {box}x{box}", frozenset([text]), name)


# -- decks ------------------------------------------------------------------------

def _reports_deck(rng):
    ops = []
    for model in MODELS:
        for sigma in ("A", "B", "C", "D"):
            ops.append(invariants_op(model, sigma, rng.choice(RS) if sigma == "B" else None))
        ops.append(unknotting_op(model, rng.choice(RS)))
    for model in PROFILE_MODELS:
        ops.append(profile_op(model, rng.choice(GRID_LO), rng.choice(GRID_HI)))
    ops.append(verify_op())
    rng.shuffle(ops)
    return ops


def _sums_deck(rng):
    # every order of the factors once: the order moves an op's cost by up to
    # half, so a fixed set of orders keeps decks of different seeds comparable
    ops = [sum_op(knots, rng.choice(RS)) for knots in SUM_ORDERS]
    rng.shuffle(ops)
    return ops


def _unit_stream(rng, ring):
    """Units with exponents in {-1, 0, 1}, each used once per pass, so a build
    op always meets an ideal the run has not built yet (until a pass ends)."""
    units = list(itertools.product((-1, 0, 1), repeat=len(RING_SLOTS[ring])))
    while True:
        rng.shuffle(units)
        yield from units


def _ideals_decks(rng):
    streams = {name: _unit_stream(rng, IDEALS[name][0]) for name in IDEALS}
    while True:
        # queries re-read a basis a build of this deck cached, so each one
        # becomes available only after its build
        available = [("build", name, next(streams[name]), IDEALS[name][2])
                     for name in IDEALS]
        deck = []
        while available:
            kind, name, exps, box = available.pop(rng.randrange(len(available)))
            deck.append(ideal_op(kind, name, exps, box))
            if kind == "build":
                available += [("query", name, exps, q) for q in IDEALS[name][3]]
        yield deck


def decks(workload, seed):
    """Endless sequence of decks; the same (workload, seed) gives the same decks."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}; have {', '.join(WORKLOADS)}")
    rng = random.Random(f"{workload}:{seed}")
    if workload == "ideals":
        return _ideals_decks(rng)
    make = _reports_deck if workload == "reports" else _sums_deck
    return (make(rng) for _ in itertools.count())


def all_ops(workload):
    """Every op a seed can draw for the workload (ideals: the unscaled ones)."""
    if workload == "reports":
        ops = [invariants_op(m, s) for m in MODELS for s in ("A", "C", "D")]
        ops += [invariants_op(m, "B", r) for m in MODELS for r in RS]
        ops += [unknotting_op(m, r) for m in MODELS for r in RS]
        ops += [profile_op(m, lo, hi)
                for m in PROFILE_MODELS for lo in GRID_LO for hi in GRID_HI]
        return ops + [verify_op()]
    if workload == "sums":
        return [sum_op(knots, r) for knots in SUM_ORDERS for r in RS]
    ops = []
    for name, (ring, _, build_box, query_boxes) in IDEALS.items():
        unscaled = (0,) * len(RING_SLOTS[ring])
        ops.append(ideal_op("build", name, unscaled, build_box))
        ops += [ideal_op("query", name, unscaled, box) for box in query_boxes]
    return ops
