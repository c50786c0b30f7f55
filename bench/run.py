"""Closed-loop benchmark of the `concordia` command line.

Usage (from the root of a source checkout):

    python3 bench/run.py --workload reports --seed 1 --seconds 10 --trace 0

One process, one thread.  It imports `concordia` from `src/`, draws
the workload's op lists from the seed (see workloads.py) and calls
`concordia.cli.main(argv)` in-process for one op after another, each only
after the previous one has returned.  A run draws a fixed number of decks
and plays them a fixed number of times or more, until `--seconds` have
passed, each time in a fresh import of the package.  It checks every op's
output (see check.py) and prints a report whose last line is one JSON
object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With `--trace 0` the metrics are the end-to-end ones, measured untraced.
With `--trace 1` it plays the ops untraced as above, then once more in a
fresh import with the layer functions wrapped (see spans.py).  The metrics
are then the per-layer ones, plus the tracing overhead, the traced wall time
minus the median untraced one.

NOTES.md says why each workload exists and which layer each metric follows.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import io
import itertools
import json
import math
import os
import platform
import resource
import statistics
import sys
import traceback
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from time import perf_counter

BENCH_DIR = Path(__file__).resolve().parent
SRC_DIR = BENCH_DIR.parent / "src"
if str(BENCH_DIR) not in sys.path:
    sys.path.insert(0, str(BENCH_DIR))

import check  # noqa: E402
import workloads  # noqa: E402
from spans import Tracer  # noqa: E402

# Set-ups per run, spread over it: one before each play and an equal share
# after each op of the first play.  setup_s is their median.
SETUPS = 150
# Decks a run draws from its seed.  A run plays them once, in a fresh import
# of the package, and again while fewer than --seconds have passed.  At these
# sizes one play outlasts --seconds, so every run of a workload plays the
# same ops count.
DECKS = {"reports": 4, "sums": 2, "ideals": 3}
# The machine's speed drifts by tens of percent over seconds to minutes (see
# NOTES.md, Steadiness record), and every wall time moves with it.  So a fixed
# pure-Python loop is timed in each gap between ops, and every timing is
# scaled to a reference speed: a time t, taken while the loop took c seconds,
# counts as t * CALIBRATION_REF_S / c.  For an op, c is the mean of the gaps
# before and after it.
CALIBRATION_REF_S = 0.0035
# Time spent on the loop in a gap: this share of the op before it, and no
# less than CALIBRATION_MIN_S.
CALIBRATION_SHARE = 0.05
CALIBRATION_MIN_S = 0.03


def load_concordia():
    """Import `concordia` afresh from the source tree and return its cli module."""
    if str(SRC_DIR) not in sys.path:
        sys.path.insert(0, str(SRC_DIR))
    for name in [n for n in sys.modules if n == "concordia" or n.startswith("concordia.")]:
        del sys.modules[name]
    return importlib.import_module("concordia.cli")


def build_catalog():
    sys.modules["concordia.catalog"].names()


def setup(workload, seed):
    """What a command-line user pays before the first op: the import, the
    catalog build and, here, drawing the run's ops.

    Returns (seconds, cli module, ops of the run's decks in play order)."""
    gc.collect()  # a fresh interpreter carries no garbage from earlier set-ups
    start = perf_counter()
    cli = load_concordia()
    build_catalog()
    ops = draw(workload, seed)
    return perf_counter() - start, cli, ops


def draw(workload, seed):
    """The ops of the run's decks, in play order."""
    return list(itertools.chain.from_iterable(
        itertools.islice(workloads.decks(workload, seed), DECKS[workload])))


def calibration_loop():
    """Fixed interpreter-bound work that does not touch the program."""
    x = 0
    for i in range(40000):
        x += i * i % 7
    return x


def calibrate(seconds):
    """Mean seconds of one calibration loop, over loops run for `seconds`."""
    loops = 0
    start = perf_counter()
    while True:
        calibration_loop()
        loops += 1
        elapsed = perf_counter() - start
        if elapsed >= seconds:
            return elapsed / loops


def run_op(cli, argv):
    """(seconds, exit status, stdout, stderr) of one in-process CLI call."""
    out, err = io.StringIO(), io.StringIO()
    start = perf_counter()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = cli.main(list(argv))
        except SystemExit as exc:
            code = exc.code
        except Exception:  # an op that raises is a failure; the run goes on
            traceback.print_exc()
            code = "exception"
    return perf_counter() - start, code, out.getvalue(), err.getvalue()


def play(cli, ops, golden, after_op=None):
    """Run the ops once, one after another.  The calibration loop is timed
    before the first op and after each op; `after_op(calibration)`, if given,
    is called after each op with the loop's time right after it.  Both
    happen outside all timing.

    Returns (wall seconds of the ops, [(op, seconds, problems)],
    [loop seconds before the first op, then after each op]).
    """
    results = []
    cals = [calibrate(CALIBRATION_MIN_S)]
    paused = 0.0
    start = perf_counter()
    for op in ops:
        elapsed, code, out, err = run_op(cli, op.argv)
        found = check.problems(op, code, out, golden)
        if found:
            detail = err.strip().splitlines()[-1:] if err.strip() else []
            print(f"FAIL {' '.join(op.argv)[:160]}: {'; '.join(found + detail)}",
                  file=sys.stderr)
        results.append((op, elapsed, found))
        pause_start = perf_counter()
        cals.append(calibrate(max(CALIBRATION_MIN_S, CALIBRATION_SHARE * elapsed)))
        if after_op:
            after_op(cals[-1])
        paused += perf_counter() - pause_start
    return perf_counter() - start - paused, results, cals


def scaled(results, cals):
    """The play's results with each op's seconds at the reference speed."""
    return [(op, seconds * 2 * CALIBRATION_REF_S / (cals[i] + cals[i + 1]), found)
            for i, (op, seconds, found) in enumerate(results)]


def replay(workload, seed, seconds, golden, after_op=None):
    """Play the run's ops once, and again until `seconds` of ops have passed,
    each play in a fresh import, so every play starts with empty caches and
    does the same work.

    Returns ([seconds of each play's set-up], [what `play` returns, per play]).
    """
    setups, plays = [], []
    spent = 0.0
    while not plays or spent < seconds:
        took, cli, ops = setup(workload, seed)
        setups.append(took)
        plays.append(play(cli, ops, golden, after_op))
        spent += plays[-1][0]
    return setups, plays


def repeat_share(ops):
    """Share of ops that repeat an evaluation (model and base change) or an
    ideal that an earlier op of the run already did."""
    seen = set()
    repeats = 0
    for op in ops:
        repeats += bool(op.reuse & seen)
        seen |= op.reuse
    return repeats / len(ops)


def p90(values):
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=10, method="inclusive")[8]


# -- end-to-end run ------------------------------------------------------------------

def end_to_end(args, golden, say):
    workload = args.workload
    ops_per_play = len(draw(workload, args.seed))
    per_op = math.ceil((SETUPS - 1) / ops_per_play)
    extra = []  # (measured seconds, seconds at the reference speed)

    def time_setups(calibration):
        if len(extra) >= per_op * ops_per_play:  # the first play had its share
            return
        ours = {n: m for n, m in sys.modules.items() if n.split(".")[0] == "concordia"}
        for _ in range(per_op):
            took = setup(workload, args.seed)[0]
            extra.append((took, took * CALIBRATION_REF_S / calibration))
        sys.modules.update(ours)  # the ops go on with the modules they started with
        gc.collect()  # and do not pay for collecting the set-ups' modules

    play_setups, plays = replay(workload, args.seed, args.seconds, golden, time_setups)
    setups = [(took, took * CALIBRATION_REF_S / cals[0])
              for took, (_, _, cals) in zip(play_setups, plays)] + extra
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    results = [r for _, play_results, cals in plays for r in scaled(play_results, cals)]
    measured = [s for _, play_results, _ in plays for _, s, _ in play_results]
    latencies = [s for _, s, _ in results]
    failed = sum(1 for _, _, found in results if found)
    n = len(results)
    calibrations = [c for _, _, cals in plays for c in cals]
    metrics = {
        "setup_s": (statistics.median(ref for _, ref in setups), "s"),
        "ops_per_s": ((n - failed) / sum(latencies), "1/s"),
        "op_s.p50": (statistics.median(latencies), "s"),
        "op_s.p90": (p90(latencies), "s"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }
    say(f"ops: {n} in {len(plays)} play(s), {failed} failed; "
        f"{sum(wall for wall, _, _ in plays):.3f} s of ops")
    say(f"calibration loop: {CALIBRATION_REF_S:.6f} s at the reference speed; here "
        f"{min(calibrations):.6f} to {max(calibrations):.6f} s, "
        f"median {statistics.median(calibrations):.6f} s over {len(calibrations)} gaps")
    say("times at the reference speed [measured wall time]:")
    say(f"setup_s      = {metrics['setup_s'][0]:.6f} s   (median of {len(setups)} set-ups, "
        f"one before each play and {per_op} after each op of the first; "
        f"[{statistics.median(t for t, _ in setups):.6f}])")
    say(f"ops_per_s    = {metrics['ops_per_s'][0]:.6f} 1/s (correct ops over the sum of "
        f"their latencies; [{(n - failed) / sum(measured):.6f}])")
    say(f"op_s.p50     = {metrics['op_s.p50'][0]:.6f} s   (n = {n} ops; "
        f"[{statistics.median(measured):.6f}])")
    say(f"op_s.p90     = {metrics['op_s.p90'][0]:.6f} s   (n = {n} ops; [{p90(measured):.6f}])")
    say(f"peak_rss_mb  = {metrics['peak_rss_mb'][0]:.3f} MB")
    say(f"fail_ratio   = {failed / n:.6f}       ({failed} of {n} ops)")
    say(f"repeat_share = {repeat_share([op for op, _, _ in plays[0][1]]):.6f}       "
        f"(ops that repeat an earlier evaluation or ideal of the play)")
    say("ops by latency at the reference speed [measured]:")
    for i in sorted(range(n), key=lambda i: latencies[i]):
        say(f"  {latencies[i]:8.3f}  [{measured[i]:.3f}]  {results[i][0].golden[:90]}")
    return n, failed, metrics


# -- traced run ----------------------------------------------------------------------

def _element_key(x):
    if hasattr(x, "num"):  # LaurentFraction
        return (_element_key(x.num), _element_key(x.den))
    return (x.ring.value, x.terms)


def _images_key(sigma):
    return tuple((img.num.terms, img.den.terms) for img in sigma.images)


def _sigma_key(sigma):
    weights = tuple(sorted((v, w.vec) for v, w in sigma.weight.weights.items()))
    return (_images_key(sigma), weights)


def _complex_key(c):
    maps = tuple((k, tuple(tuple(e.terms for e in row) for row in m))
                 for k, m in sorted(c.maps.items()))
    return (c.ring.value, tuple(sorted(c.ranks.items())), maps)


def _apply_hook(tr, args, kwargs, result):
    tr.keys["basechange.apply"].add((_images_key(args[0]), _element_key(args[1])))


def _homology_hook(tr, args, kwargs, result):
    tr.keys["homalg.homology_over_valuation"].add((_complex_key(args[0]), _sigma_key(args[1])))


def _smith_hook(tr, args, kwargs, result):
    matrix = args[0]
    ncols = kwargs.get("ncols", args[4] if len(args) > 4 else None)
    cols = len(matrix[0]) if matrix else (ncols or 0)
    tr.counts["smith.pivots"] += result.rank
    tr.counts["smith.cells"] += len(matrix) * cols
    for d in result.diagonal:
        terms = len(d.num.terms) + len(d.den.terms)
        tr.counts["smith.max_pivot_terms"] = max(tr.counts["smith.max_pivot_terms"], terms)


def _tensor_hook(tr, args, kwargs, result):
    tr.counts["tensor.out_rank"] += sum(result.ranks.values())


def _buchberger_hook(tr, args, kwargs, result):
    tr.counts["buchberger.basis_len"] += len(result)


# (span name, module, attribute path, hook).  Several paths may share a name.
# Spans with no metric of their own still give their module a self time and
# show in the span table.
LAYERS = (
    ("cli.main", "concordia.cli", "main", None),
    ("catalog.build", "concordia.catalog", "_entries", None),
    ("catalog.get", "concordia.catalog", "get", None),
    ("catalog.get_model", "concordia.catalog", "get_model", None),
    ("catalog.verify_skein_consistency", "concordia.catalog", "verify_skein_consistency", None),
    ("invariants.invariant_report", "concordia.invariants", "invariant_report", None),
    ("invariants.f_sigma", "concordia.invariants", "f_sigma", None),
    ("invariants.f_plus", "concordia.invariants", "f_plus", None),
    ("invariants.f_profile", "concordia.invariants", "f_profile", None),
    ("invariants.znat_valuation", "concordia.invariants", "znat_valuation", None),
    ("invariants.znat_bn", "concordia.invariants", "znat_bn", None),
    ("invariants.unknotting_bound", "concordia.invariants", "unknotting_bound", None),
    ("invariants.connected_sum", "concordia.invariants", "connected_sum", None),
    ("ideals.g_region", "concordia.ideals", "g_region", None),
    ("ideals.FractionalIdeal.contains", "concordia.ideals", "FractionalIdeal.contains", None),
    ("ideals.groebner_for", "concordia.ideals", "groebner_for", None),
    ("ideals.buchberger", "concordia.ideals", "buchberger", _buchberger_hook),
    ("ideals.s_poly", "concordia.ideals", "s_poly", None),
    ("ideals.poly_reduce", "concordia.ideals", "poly_reduce", None),
    ("homalg.homology_over_valuation", "concordia.homalg", "homology_over_valuation",
     _homology_hook),
    ("homalg.smith_diagonalize", "concordia.homalg", "smith_diagonalize", _smith_hook),
    ("homalg.tensor", "concordia.homalg", "tensor", _tensor_hook),
    ("basechange.builtin", "concordia.basechange", "builtin", None),
    ("basechange.apply", "concordia.basechange", "BaseChange.apply", _apply_hook),
    ("laurent.parse_laurent_fraction", "concordia.laurent", "parse_laurent_fraction", None),
    ("laurent.LaurentElement.mul", "concordia.laurent", "LaurentElement.__mul__", None),
    ("valuation.ord_rf", "concordia.valuation", "MonomialWeight.ord_rf", None),
    ("field2.gcd", "concordia.field2", "gcd", None),
    ("field2.poly_div", "concordia.field2", "poly_div", None),
    ("field2.Poly2.mul", "concordia.field2", "Poly2.__mul__", None),
    ("field2.RationalFunction.arith", "concordia.field2", "RationalFunction.__add__", None),
    ("field2.RationalFunction.arith", "concordia.field2", "RationalFunction.__mul__", None),
    ("field2.RationalFunction.arith", "concordia.field2", "RationalFunction.__truediv__", None),
    ("field2.RationalFunction.arith", "concordia.field2", "RationalFunction.inverse", None),
)

MODULES = ("field2", "valuation", "laurent", "basechange", "homalg", "ideals",
           "invariants", "catalog", "cli")


def _ratio(num, den):
    return num / den if den else 0.0


def layer_metrics(tr, overhead_s, overhead_ratio):
    """name -> (value, unit), in the order BENCHMARK.json lists them."""
    m = {}

    def calls_and_s(name):
        m[f"{name}.calls"] = (tr.calls(name), "count")
        m[f"{name}.s"] = (tr.busy[name], "s")

    calls_and_s("basechange.apply")
    m["basechange.apply.unique_ratio"] = (
        _ratio(len(tr.keys["basechange.apply"]), tr.calls("basechange.apply")), "ratio")
    calls_and_s("homalg.homology_over_valuation")
    m["homalg.homology_over_valuation.unique_ratio"] = (
        _ratio(len(tr.keys["homalg.homology_over_valuation"]),
               tr.calls("homalg.homology_over_valuation")), "ratio")
    calls_and_s("homalg.smith_diagonalize")
    for key in ("pivots", "cells", "max_pivot_terms"):
        m[f"homalg.smith_diagonalize.{key}"] = (int(tr.counts[f"smith.{key}"]), "count")
    calls_and_s("homalg.tensor")
    m["homalg.tensor.out_rank"] = (int(tr.counts["tensor.out_rank"]), "count")
    for name in ("field2.gcd", "field2.poly_div", "field2.RationalFunction.arith",
                 "field2.Poly2.mul", "valuation.ord_rf", "laurent.LaurentElement.mul",
                 "ideals.buchberger"):
        calls_and_s(name)
    m["ideals.buchberger.basis_len"] = (
        _ratio(tr.counts["buchberger.basis_len"], tr.calls("ideals.buchberger")), "count")
    m["ideals.s_poly.calls"] = (tr.calls("ideals.s_poly"), "count")
    m["ideals.poly_reduce.query_s"] = (
        tr.time_under("ideals.poly_reduce", "ideals.buchberger"), "s")
    m["ideals.gb_cache.hit_ratio"] = (
        1 - _ratio(tr.calls("ideals.buchberger"), tr.calls("ideals.groebner_for"))
        if tr.calls("ideals.groebner_for") else 0.0, "ratio")
    m["invariants.invariant_report.s"] = (tr.busy["invariants.invariant_report"], "s")
    m["invariants.f_sigma.calls"] = (tr.calls("invariants.f_sigma"), "count")
    m["invariants.f_profile.s"] = (tr.busy["invariants.f_profile"], "s")
    m["invariants.connected_sum.s"] = (tr.busy["invariants.connected_sum"], "s")
    m["catalog.build_s"] = (tr.busy["catalog.build"], "s")
    for module in MODULES:
        m[f"{module}.self_s"] = (tr.self_seconds(module), "s")
    m["trace.overhead_s"] = (overhead_s, "s")
    m["trace.overhead_ratio"] = (overhead_ratio, "ratio")
    return m


def install_layers(tr):
    for name, module, path, hook in LAYERS:
        tr.install(name, module, path, hook)


def traced(args, golden, say):
    _, plain = replay(args.workload, args.seed, args.seconds, golden)
    wall_plain = statistics.median(wall for wall, _, _ in plain)
    ops = [op for op, _, _ in plain[0][1]]

    cli = load_concordia()
    tr = Tracer()
    install_layers(tr)
    build_catalog()
    wall_traced, with_spans, _ = play(cli, ops, golden)
    tr.uninstall()

    results = [r for _, play_results, _ in plain for r in play_results] + with_spans
    failed = sum(1 for _, _, found in results if found)
    metrics = layer_metrics(tr, wall_traced - wall_plain, wall_traced / wall_plain)
    say(f"ops: {len(ops)} played untraced in {len(plain)} play(s) of median "
        f"{wall_plain:.3f} s, then traced in {wall_traced:.3f} s; "
        f"{failed} of {len(results)} failed")
    say("spans (name, parent) by total time:")
    for line in tr.table():
        say("  " + line)
    say("per-layer metrics:")
    for name, (value, unit) in metrics.items():
        say(f"  {name:<46} {value:>16.6f} {unit}" if isinstance(value, float)
            else f"  {name:<46} {value:>16} {unit}")
    return len(results), failed, metrics


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC_DIR / "concordia" / "__init__.py").is_file():
        print(f"bench: no concordia sources under {SRC_DIR}", file=sys.stderr)
        return 2
    try:
        golden = check.load_golden()
    except (OSError, ValueError) as exc:
        print(f"bench: cannot read the recorded outputs: {exc}", file=sys.stderr)
        return 2

    # An installed package imports from cached bytecode, so set-up is timed
    # that way whatever PYTHONDONTWRITEBYTECODE says: the first import writes
    # the cache under src/, and the median set-up reads it.
    sys.dont_write_bytecode = False

    def say(line):
        print(line, flush=True)

    say(f"workload {args.workload}, seed {args.seed}, {args.seconds:g} s, "
        f"trace {args.trace}; python {platform.python_version()}, "
        f"nproc {os.cpu_count()}")
    run = traced if args.trace else end_to_end
    attempted, failed, metrics = run(args, golden, say)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
