"""The benchmark's layer table names functions the package still has.

`bench/run.py --trace 1` wraps every (module, attribute path) of its LAYERS
table with `Tracer.install`, which looks each one up with getattr; a renamed
function would stop the traced run.
"""

import importlib
import importlib.util
import sys
from pathlib import Path

import pytest

from concordia.field2 import Poly2
from concordia.laurent import Ring

BENCH_DIR = Path(__file__).resolve().parent.parent / "bench"


@pytest.fixture
def bench_run(monkeypatch):
    # run.py puts its own directory on sys.path for its helper modules
    monkeypatch.setattr(sys, "path", list(sys.path))
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec = importlib.util.spec_from_file_location("bench_run", BENCH_DIR / "run.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _resolve(module, path):
    owner = importlib.import_module(module)
    for part in path.split("."):
        owner = getattr(owner, part)
    return owner


def test_every_layer_path_resolves(bench_run):
    paths = {(module, path) for _, module, path, _ in bench_run.LAYERS}
    for module, path in paths:
        assert callable(_resolve(module, path)), (module, path)
    for name in ("s_poly", "poly_reduce", "buchberger"):
        assert ("concordia.ideals", name) in paths


def test_traced_groebner_layers_count_what_they_did(bench_run):
    from concordia import ideals

    tracer = bench_run.Tracer()
    bench_run.install_layers(tracer)
    try:
        polys = [ideals.saturation_poly(g.num)
                 for g in ideals.parse_generators("L, P", Ring.BN)]
        basis = ideals.buchberger(polys + ideals.saturation_relations(Ring.BN))
        ideals.poly_reduce(polys[0], basis)
    finally:
        tracer.uninstall()
    assert len(basis) == 23 and all(isinstance(g, Poly2) for g in basis)
    assert tracer.calls("ideals.buchberger") == 1
    assert tracer.counts["buchberger.basis_len"] == len(basis)
    # every pair the engine reduces goes through the traced S-polynomial
    assert tracer.calls("ideals.s_poly") == 84
    assert tracer.calls("ideals.poly_reduce") == 1
    assert ideals.buchberger.__name__ == "buchberger"
    assert not hasattr(ideals.buchberger, "__wrapped__")
