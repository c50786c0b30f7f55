"""End-to-end command-line tests: exit codes, literal output, round-trips."""

import io
import itertools
import json
import sys
import time
import tracemalloc
from contextlib import redirect_stderr, redirect_stdout

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from concordia import catalog, ideals
from concordia.basechange import BUILTIN_NAMES
from concordia.cli import main
from concordia.errors import ConcordiaError
from concordia.homalg import K_TO_UNKNOT, UNKNOT_TO_K, complex_from_json
from concordia.laurent import Ring, parse_laurent_fraction


def run(capsys, *argv):
    code = main(list(argv))
    out, err = capsys.readouterr()
    return code, out, err


def test_invariants_report_literal_f_half(capsys):
    code, out, _ = run(capsys, "invariants", "--knot", "trefoil",
                       "--example", "B", "--r", "1/2")
    assert code == 0
    assert "f_r = 1/2" in out
    assert "znat (BN level): <P, L>" in out


def test_eval_degenerate_base_change_prints_zero(capsys):
    code, out, _ = run(capsys, "eval", "--example", "Cprime", "--element", "P")
    assert code == 0
    assert out.strip() == "0"


def test_eval_ord_and_leading_form(capsys):
    code, out, _ = run(capsys, "eval", "--example", "B", "--r", "1/2",
                       "--element", "L", "--ring", "BN", "--ord", "--leading-form")
    assert code == 0
    assert "ord = 1/2" in out
    assert "leading form =" in out


def _count_poly2_products(monkeypatch):
    """Count Poly2 products and squares made from now on."""
    from concordia.field2 import Poly2

    counts = {"products": 0}
    for name in ("__mul__", "square"):
        original = getattr(Poly2, name)

        def counted(*args, original=original):
            counts["products"] += 1
            return original(*args)

        monkeypatch.setattr(Poly2, name, counted)
    return counts


def test_eval_large_power_builds_it_by_squaring(capsys, monkeypatch):
    counts = _count_poly2_products(monkeypatch)
    code, out, _ = run(capsys, "eval", "--example", "A", "--element", "T1^8000")
    assert code == 0
    # (1 + q1*x)^8000 = prod over the bits 2^j of 8000 of (1 + (q1*x)^(2^j))
    bits = [1 << j for j in range(13) if 8000 >> j & 1]
    exps = {sum(b for b, keep in zip(bits, mask) if keep)
            for mask in itertools.product((0, 1), repeat=len(bits))}
    assert len(exps) == 64
    expected = " + ".join(
        f"q1^{e}*x^{e}" if e > 1 else ("q1*x" if e else "1") for e in sorted(exps, reverse=True))
    assert out.strip() == expected
    assert counts["products"] <= 2 * (8000).bit_length()


def test_eval_power_past_the_degree_limit_fails_after_log_steps(capsys, monkeypatch):
    counts = _count_poly2_products(monkeypatch)
    code, out, err = run(capsys, "eval", "--example", "A", "--element", "T1^16384")
    assert code == 1
    assert err.startswith("DegreeOverflow:") and "Traceback" not in err
    assert counts["products"] <= 2 * (16384).bit_length()


def test_membership_true_and_false(capsys):
    code, out, _ = run(capsys, "membership", "--ring", "BN",
                       "--ideal", "L,P", "--element", "P")
    assert code == 0 and out.strip() == "true"
    code, out, _ = run(capsys, "membership", "--ring", "BN",
                       "--ideal", "L,P", "--element", "P^2*L^-1")
    assert code == 0 and out.strip() == "false"


def test_stdin_model_matches_catalog_byte_for_byte(capsys, monkeypatch):
    code, doc, _ = run(capsys, "catalog", "show", "trefoil", "--json")
    assert code == 0
    _, direct, _ = run(capsys, "invariants", "--knot", "trefoil",
                       "--example", "B", "--r", "1/2")
    monkeypatch.setattr("sys.stdin", io.StringIO(doc))
    _, piped, _ = run(capsys, "invariants", "--stdin",
                      "--example", "B", "--r", "1/2")
    assert piped == direct


def test_catalog_list_names(capsys):
    code, out, _ = run(capsys, "catalog", "list")
    assert code == 0
    names = out.split()
    assert "trefoil" in names and "k34_conjectural" in names
    assert names == sorted(names)


def test_catalog_show_json_parses(capsys):
    code, out, _ = run(capsys, "catalog", "show", "exampleE", "--json")
    assert code == 0
    doc = json.loads(out)
    assert doc["name"] == "exampleE"
    assert doc["ring"] == "FULL"


def test_profile_csv(capsys, tmp_path):
    target = tmp_path / "profile.csv"
    code, out, _ = run(capsys, "profile", "--knot", "trefoil",
                       "--samples", "1/4,1/2,1", "--csv", str(target))
    assert code == 0
    assert "f_r = r on [1/4, 1]" in out
    assert target.read_text() == "r,f_r\n1/4,1/4\n1/2,1/2\n1,1\n"


def test_g_region_grid(capsys):
    code, out, _ = run(capsys, "g-region", "--ring", "BN",
                       "--ideal", "L,P", "--gmax", "1", "--dmax", "1")
    assert code == 0
    rows = out.splitlines()
    assert rows[1].endswith(". #")
    assert rows[2].endswith("# #")


def test_degree_cap_that_is_not_an_integer_exits_2(capsys, monkeypatch, empty_cache):
    monkeypatch.setenv("CONCORDIA_GB_MAXDEG", "abc")
    code, out, err = run(capsys, "g-region", "--ring", "BN",
                         "--ideal", "L,P", "--gmax", "1", "--dmax", "1")
    assert code == 2 and out == ""
    assert err == "UsageError: CONCORDIA_GB_MAXDEG must be an integer, got 'abc'\n"


def test_huge_degree_cap_gives_the_default_grid(capsys, monkeypatch, empty_cache):
    # the packed field width follows the cap, so a huge cap packs wide fields
    argv = ("g-region", "--ring", "BN", "--ideal", "L^3, L^2*P, L*P^2, P^3, P^2 + T1^-2*P^2 + L^2",
            "--gmax", "4", "--dmax", "4")
    monkeypatch.delenv("CONCORDIA_GB_MAXDEG", raising=False)
    default = run(capsys, *argv)
    monkeypatch.setenv("CONCORDIA_GB_MAXDEG", "1000000")
    ideals._GB_CACHE.clear()
    assert run(capsys, *argv) == default
    assert default[0] == 0 and default[1].count("#") == 19


@pytest.mark.parametrize("element, answer", [("T1^1000*P^3*L", "true"),
                                             ("T1^1000*P^2*L", "false")])
def test_a_large_unit_monomial_does_not_slow_membership(capsys, empty_cache, element, answer):
    # a unit does not change membership, so the element is divided by the
    # monomial gcd of its terms before it is saturated
    start = time.perf_counter()
    code, out, _ = run(capsys, "membership", "--ring", "BN", "--ideal", "L^2, P^3",
                       "--element", element)
    assert time.perf_counter() - start < 5
    assert (code, out.strip()) == (0, answer)


def test_a_principal_g_region_agrees_with_membership_cell_by_cell(capsys, empty_cache):
    # a principal ideal is decided by exact division, so no basis degree cap
    # is met however large the generator
    code, out, _ = run(capsys, "g-region", "--ring", "BN", "--ideal", "P^40",
                       "--gmax", "41", "--dmax", "1")
    assert code == 0
    rows = out.splitlines()[1:]
    assert len(rows) == 42
    for g, row in enumerate(rows):
        for d, cell in enumerate(row.split()[1:]):
            member = run(capsys, "membership", "--ring", "BN", "--ideal", "P^40",
                         "--element", f"P^{g}*L^{d}")
            assert member == (0, "true\n" if cell == "#" else "false\n", "")
    assert out.count("#") == 4


def test_unknotting_bound_output(capsys):
    code, out, _ = run(capsys, "unknotting-bound", "--knot", "trefoil_left",
                       "--example", "B", "--r", "1/2")
    assert code == 0
    assert "unknotting bound (reduced-model) = 1" in out
    assert "pass" in out


def test_sum_adds_f_values(capsys):
    code, out, _ = run(capsys, "sum", "--knots", "trefoil,trefoil",
                       "--example", "B", "--r", "1/2")
    assert code == 0
    assert "f_r = 1" in out


def test_verify_passes(capsys):
    code, out, _ = run(capsys, "verify")
    assert code == 0
    assert "verify: all checks passed" in out


def test_usage_error_exits_2(capsys):
    code, _, err = run(capsys, "invariants", "--knot", "trefoil", "--example", "B")
    assert code == 2
    assert "UsageError" in err


def test_domain_error_exits_1(capsys):
    code, _, err = run(capsys, "invariants", "--knot", "nosuchknot",
                       "--example", "A")
    assert code == 1
    assert "UnknownKnot" in err


@pytest.mark.parametrize("spelling", [("--r", "-1/3"), ("--r=-1/3",)])
def test_negative_r_is_an_invalid_parameter_however_spelled(capsys, spelling):
    code, _, err = run(capsys, "invariants", "--knot", "trefoil", "--example", "B", *spelling)
    assert code == 1
    assert "InvalidParameter: B requires r in (0, 1], got -1/3" in err


def test_bad_samples_exit_2(capsys):
    code, _, err = run(capsys, "profile", "--knot", "trefoil", "--samples", "")
    assert code == 2
    assert "UsageError" in err


def test_sample_count_that_is_not_a_number_exits_2(capsys):
    code, _, err = run(capsys, "profile", "--knot", "trefoil", "--samples", "1/8..1:x")
    assert code == 2
    assert "UsageError" in err and "1/8..1:x" in err


_TREFOIL = {"ring": "BN", "ranks": {"0": 1, "1": 2}, "boundaries": {"1": [["L", "P"]]},
            "cycle": {"degree": 1, "vector": ["0", "1"], "genus": 1, "dplus": 0,
                      "direction": "unknot-to-K"}}


def _without_vector():
    doc = json.loads(json.dumps(_TREFOIL))
    del doc["cycle"]["vector"]
    return doc


def _with_entry(entry):
    doc = json.loads(json.dumps(_TREFOIL))
    doc["boundaries"]["1"][0][1] = entry
    return doc


@pytest.mark.parametrize("doc", [
    [1, 2],
    "trefoil",
    _without_vector(),
    dict(_TREFOIL, ranks=[1, 2]),
    dict(_TREFOIL, boundaries={"1": 7}),
    dict(_TREFOIL, signature="minus two"),
    _with_entry(3),
], ids=["list", "string", "cycle-without-vector", "ranks-as-list", "matrix-as-number",
        "signature-as-string", "entry-as-number"])
def test_malformed_model_json_exits_2(capsys, monkeypatch, doc):
    monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps(doc)))
    code, out, err = run(capsys, "invariants", "--stdin", "--example", "B", "--r", "1/2")
    assert code == 2 and out == ""
    assert err.startswith("UsageError: malformed complex JSON")


def test_an_absent_differential_allocates_no_square_matrix(capsys, monkeypatch):
    # rank 2000 in degree 1 and no boundaries: a dense 2000 x 2000 identity
    # took seconds and over a hundred megabytes
    doc = {"ring": "BN", "ranks": {"0": 1, "1": 2000},
           "cycle": {"degree": 0, "vector": ["1"], "genus": 0, "dplus": 0,
                     "direction": UNKNOT_TO_K}}
    monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps(doc)))
    tracemalloc.start()
    start = time.perf_counter()
    try:
        code, out, _ = run(capsys, "invariants", "--stdin", "--example", "B", "--r", "1/2")
        seconds = time.perf_counter() - start
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert code == 0
    assert "  degree 1: free rank 2000, torsion ords: -\n" in out
    assert "f_r = 0\n" in out
    assert seconds < 1.0
    assert peak < 10 * 2 ** 20


def test_empty_knot_name_is_an_unknown_knot(capsys):
    # an empty --knot once fell through to --file and raised a TypeError
    code, out, err = run(capsys, "invariants", "--knot", "", "--example", "D")
    assert code == 1 and out == ""
    assert err.startswith("UnknownKnot: no catalog entry named ''")


def test_non_integral_entry_exits_2_without_a_gcd(capsys, monkeypatch):
    def no_gcd(a, b):
        raise AssertionError("integrality ran a gcd")

    monkeypatch.setattr("concordia.laurent.gcd", no_gcd)
    monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps(_with_entry("P^6*L^-3"))))
    code, _, err = run(capsys, "invariants", "--stdin", "--example", "B", "--r", "1/2")
    assert code == 2
    assert "UsageError: 'P^6*L^-3' is not integral over BN" in err


# -- fuzzing the parsers: only ConcordiaErrors may escape ---------------------------

_NAMES = ("P", "Q", "V", "L", "T0", "T1", "T2", "T3", "0", "1", "X", "p1")
_factor = st.builds(
    lambda name, exp: name if exp is None else f"{name}^{exp}",
    st.sampled_from(_NAMES), st.none() | st.integers(-2, 2))
_summand = st.lists(_factor, min_size=1, max_size=3).map("*".join)
_expression = st.lists(_summand, min_size=1, max_size=2).map(" + ".join)


@st.composite
def _garbled(draw):
    """An expression, sometimes with a stray character, never a digit, spliced in.

    Exponents stay in [-2, 2], so every input parses in milliseconds.
    """
    text = draw(_expression)
    if draw(st.booleans()):
        i = draw(st.integers(0, len(text)))
        text = text[:i] + draw(st.sampled_from(" ^*+-/(),x")) + text[i:]
    return text


@settings(derandomize=True, max_examples=150, deadline=None, database=None)
@given(_garbled(), st.sampled_from([Ring.BN, Ring.FULL]))
def test_fuzz_parse_laurent_fraction_raises_only_domain_errors(text, ring):
    try:
        parse_laurent_fraction(text, ring)
    except ConcordiaError:
        pass


_small = st.integers(-3, 3)
_junk = (st.none() | st.booleans() | _small | st.floats(-3, 3)
         | st.text(alphabet="ab_- ", max_size=3) | st.lists(_small, max_size=2)
         | st.dictionaries(st.text(alphabet="ab", max_size=2), _small, max_size=2))


def _or_junk(strategy):
    return strategy | _junk


_degree = _small.map(str) | st.text(alphabet="ab_- 1", max_size=3)   # JSON keys are strings
_matrix = _or_junk(st.lists(_or_junk(st.lists(_or_junk(_garbled()), max_size=3)),
                            max_size=3))
_model = st.fixed_dictionaries({}, optional={
    "ring": _or_junk(st.sampled_from(["BN", "FULL", "nope"])),
    "ranks": _or_junk(st.dictionaries(_degree, _or_junk(st.integers(-1, 3)), max_size=3)),
    "boundaries": _or_junk(st.dictionaries(_degree, _matrix, max_size=2)),
    "cycle": _or_junk(st.fixed_dictionaries({}, optional={
        "degree": _or_junk(_small),
        "vector": _or_junk(st.lists(_or_junk(_garbled()), max_size=3)),
        "genus": _or_junk(_small),
        "dplus": _or_junk(_small),
        "direction": _or_junk(st.sampled_from([UNKNOT_TO_K, K_TO_UNKNOT])),
    })),
    "signature": _or_junk(_small),
    "name": _or_junk(st.text(max_size=3)),
})


@settings(derandomize=True, max_examples=150, deadline=None, database=None)
@given(_or_junk(_model))
def test_fuzz_complex_from_json_raises_only_domain_errors(data):
    try:
        complex_from_json(data)
    except ConcordiaError:
        pass


# -- fuzzing every subcommand: exit 0, 1 or 2, never an uncaught exception ----------

def _joined(strategy, max_size):
    return st.lists(strategy, max_size=max_size).map(",".join)


_rational = st.sampled_from(["1/2", "1", "2/7", "1/8", "0", "-1/3", "3/2", "1/0", "r", ""])
_name = st.sampled_from(catalog.names()) | st.sampled_from(["", "nope"])
_ideal_gen = st.sampled_from(["L", "P", "V^3", "L*P^-1", "T1 + T2", "0", ""]) | _garbled()
_small_int = st.integers(-1, 2).map(str) | st.sampled_from(["x", "", "1.5"])
_samples = st.sampled_from(["1/8..1:3", "1/4,1/2,1", "1/2", "1..1/2", "0..1:2",
                            "1/2..1:x", "1/3,1/3", ",", "a", "1/4..1"])
_stdin_text = st.sampled_from([
    json.dumps(catalog.show_json("trefoil")), json.dumps(catalog.show_json("exampleE")),
    "{", "[]", '{"ring": "BN"}', "",
])

# Each subcommand's flag slots.  A slot holds one flag, or several that
# exclude each other, each with a strategy for its value (None: a bare
# switch).  A draw fills nine slots in ten, in any order, so most command
# lines reach the subcommand and some lack a required flag.
_SIGMA_SLOTS = [[("--example", st.sampled_from(BUILTIN_NAMES + ("B", "B", "Z")))],
                [("--r", _rational)]]
_MODEL_SLOTS = [[("--knot", _name), ("--knot", _name), ("--stdin", None),
                 ("--file", st.just("no-such-model.json"))]]
_RING = [("--ring", st.sampled_from(["BN", "FULL", "BN", "FULL", "R"]))]
_SUBCOMMANDS = {
    "eval": _SIGMA_SLOTS + [[("--element", _garbled())], _RING, [("--ord", None)],
                            [("--leading-form", None)]],
    "profile": _MODEL_SLOTS + [[("--samples", _samples)], [("--depth", _small_int)],
                               [("--csv", st.just("no-such-directory/out.csv"))]],
    "sum": _SIGMA_SLOTS + [[("--knots", _joined(_name, 4))]],
    "membership": [_RING, [("--ideal", _joined(_ideal_gen, 2))], [("--element", _garbled())]],
    "g-region": [_RING, [("--ideal", _joined(_ideal_gen, 2))], [("--gmax", _small_int)],
                 [("--dmax", _small_int)]],
    "unknotting-bound": _MODEL_SLOTS + _SIGMA_SLOTS,
    "invariants": _MODEL_SLOTS + _SIGMA_SLOTS + [[("--signature", _small_int)]],
    "catalog": [[("--json", None)]],
}


@st.composite
def _argv(draw):
    command = draw(st.sampled_from(sorted(_SUBCOMMANDS)))
    argv = [command]
    if command == "catalog":
        argv.append(draw(st.sampled_from(["list", "show", "show", "peek"])))
        argv += draw(st.lists(_name, max_size=1))
    slots = _SUBCOMMANDS[command]
    for i in draw(st.permutations(range(len(slots)))):
        if draw(st.integers(0, 9)) < 9:
            flag, value = draw(st.sampled_from(slots[i]))
            argv.append(flag)
            if value is not None:
                argv.append(draw(value))
    return argv


@settings(derandomize=True, max_examples=400, deadline=None, database=None)
@given(_argv(), _stdin_text)
def test_fuzz_every_subcommand_exits_0_1_or_2(argv, stdin_text):
    # argparse rejects a command line by raising SystemExit(2); anything
    # else that escapes main fails the test
    saved = sys.stdin
    sys.stdin = io.StringIO(stdin_text)
    try:
        with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
            try:
                code = main(argv)
            except SystemExit as exc:
                code = exc.code
    finally:
        sys.stdin = saved
    assert code in (0, 1, 2), argv
