"""Tests of the benchmark itself: generator, checker, tracer, report shape.

Run from the root of a source checkout:

    python3 -m pytest -q bench/test_bench.py
"""

import io
import json
import sys
import time
from contextlib import redirect_stdout
from fractions import Fraction
from pathlib import Path

import check
import run
import workloads
from spans import Tracer

BENCHMARK = json.loads((Path(run.BENCH_DIR).parent / "BENCHMARK.json").read_text())


def _first_decks(workload, seed, n=3):
    gen = workloads.decks(workload, seed)
    return [next(gen) for _ in range(n)]


def _composition(deck):
    return sorted((op.kind, op.subject.count("trefoil_left") if op.kind == "sum" else op.subject)
                  for op in deck)


def test_generator_is_deterministic_per_seed():
    for workload in workloads.WORKLOADS:
        assert _first_decks(workload, 7) == _first_decks(workload, 7)
        assert _first_decks(workload, 7) != _first_decks(workload, 8)


def test_every_deck_of_a_workload_has_the_same_composition():
    for workload in workloads.WORKLOADS:
        decks = _first_decks(workload, 1) + _first_decks(workload, 2)
        assert len({tuple(_composition(d)) for d in decks}) == 1


def test_every_drawn_op_has_a_recorded_output():
    golden = check.load_golden()
    for workload in workloads.WORKLOADS:
        for seed in range(5):
            for deck in _first_decks(workload, seed, 4):
                assert all(op.golden in golden for op in deck)


def test_ideal_queries_follow_their_build_and_builds_are_fresh():
    built = set()
    for deck in _first_decks("ideals", 3, 8):
        for op in deck:
            text = op.argv[4]
            if op.kind == "build":
                assert text not in built
                built.add(text)
            else:
                assert text in built


class _FakeCli:
    """Stands in for concordia.cli and prints a fixed text."""

    def __init__(self, text, code=0):
        self.text, self.code = text, code

    def main(self, argv):
        sys.stdout.write(self.text)
        return self.code


def _recorded_output(op):
    cli = run.load_concordia()
    _, code, out, _ = run.run_op(cli, op.argv)
    assert code == 0
    return out


def test_a_changed_f_r_is_counted_as_a_failure():
    op = workloads.invariants_op("trefoil", "B", Fraction(1, 2))
    good = _recorded_output(op)
    golden = check.load_golden()
    assert check.problems(op, 0, good, golden) == []
    bad = good.replace("f_r = 1/2", "f_r = 1/3")
    assert bad != good
    _, results, _ = run.play(_FakeCli(bad), [op], golden)
    assert results[0][2]
    # the paper fact catches it even against a golden recorded from the bad output
    assert check.problems(op, 0, bad, {op.golden: check.digest(bad)})


def test_a_wrong_grid_or_exit_status_is_a_failure():
    op = workloads.ideal_op("build", "trefoil", (1, 0, -1), 3)
    good = _recorded_output(op)
    golden = check.load_golden()
    assert check.problems(op, 0, good, golden) == []
    assert check.problems(op, 1, good, golden)
    bad = good.replace(".", "#", 1)
    assert check.problems(op, 0, bad, {op.golden: check.digest(bad)})


def test_wrappers_return_exactly_what_the_function_returns():
    tr = Tracer()
    sentinel = object()
    assert tr.wrap("t.f", lambda x, y=None: (x, y))(sentinel, y=sentinel) == (sentinel, sentinel)
    assert tr.wrap("t.g", lambda: sentinel)() is sentinel
    boom = tr.wrap("t.h", lambda: 1 / 0)
    try:
        boom()
    except ZeroDivisionError:
        pass
    else:
        raise AssertionError("the wrapper swallowed an exception")
    assert tr.calls("t.f") == tr.calls("t.g") == tr.calls("t.h") == 1


def test_install_patches_every_binding_and_uninstall_restores_it():
    run.load_concordia()
    field2 = sys.modules["concordia.field2"]
    laurent = sys.modules["concordia.laurent"]
    gcd, rf_add = field2.gcd, field2.RationalFunction.__add__
    tr = Tracer()
    run.install_layers(tr)
    assert laurent.gcd is field2.gcd is not gcd              # `from .field2 import gcd`
    assert field2.RationalFunction.__sub__ is field2.RationalFunction.__add__ is not rf_add
    x = field2.Poly2.parse(("a", "b"), "a + b")
    assert tr.calls("field2.Poly2.mul") == 0
    traced = x * x
    assert tr.calls("field2.Poly2.mul") == 1
    tr.uninstall()
    assert laurent.gcd is gcd and field2.RationalFunction.__sub__ is rf_add
    assert traced == x * x


def test_traced_ops_print_the_same_output():
    op = workloads.sum_op(("trefoil", "trefoil_left"), Fraction(1, 3))
    plain = _recorded_output(op)
    cli = run.load_concordia()
    tr = Tracer()
    run.install_layers(tr)
    _, code, out, _ = run.run_op(cli, op.argv)
    tr.uninstall()
    assert code == 0 and out == plain
    assert tr.calls("homalg.tensor") == 1 and tr.calls("cli.main") == 1


def test_a_run_plays_again_in_a_fresh_import_until_its_seconds_have_passed(monkeypatch):
    op = workloads.invariants_op("trefoil", "B", Fraction(1, 2))
    text = _recorded_output(op)
    golden = check.load_golden()
    clis, pauses = [], []

    class SlowCli(_FakeCli):
        def main(self, argv):
            time.sleep(0.01)
            return super().main(argv)

    def fake_setup(workload, seed):
        clis.append(SlowCli(text))
        return 0.01, clis[-1], [op, op]

    monkeypatch.setattr(run, "setup", fake_setup)
    setups, plays = run.replay("reports", 1, 0, golden, after_op=pauses.append)
    assert len(setups) == len(plays) == len(clis) == 1  # one play outlasts 0 s
    setups, plays = run.replay("reports", 1, 0.03, golden, after_op=pauses.append)
    assert len(setups) == len(plays) == 2 and len(clis) == 3
    assert len(pauses) == 6 and all(c > 0 for c in pauses)
    assert all(len(results) == 2 and len(cals) == 3 and cals[1:] == pauses[2 * i + 2:2 * i + 4]
               and not any(found for _, _, found in results)
               for i, (_, results, cals) in enumerate(plays))


def test_an_op_is_scaled_by_the_calibration_around_it():
    a = workloads.invariants_op("trefoil", "A")
    ref = run.CALIBRATION_REF_S
    # the machine ran at half the reference speed around the first op, and at
    # the reference speed after the second
    got = run.scaled([(a, 1.0, []), (a, 0.6, [])], [2 * ref, 2 * ref, ref])
    assert [s for _, s, _ in got] == [0.5, 0.6 * 2 / 3]


def test_metric_names_match_benchmark_json(monkeypatch):
    per_layer = [m["name"] for m in BENCHMARK["per_layer"]]
    assert list(run.layer_metrics(Tracer(), 0.0, 1.0)) == per_layer
    monkeypatch.setitem(run.DECKS, "reports", 1)
    buf = io.StringIO()
    args = type("Args", (), {"workload": "reports", "seed": 1, "seconds": 0})
    with redirect_stdout(buf):
        attempted, failed, metrics = run.end_to_end(args, check.load_golden(), print)
    assert failed == 0 and attempted == 23
    assert list(metrics) == [m["name"] for m in BENCHMARK["end_to_end"]]
    assert all(value > 0 for value, _ in metrics.values())
