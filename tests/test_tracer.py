"""The benchmark's traced mode stays installable.

`perfbench/tracer.py` wraps library functions by module and attribute
name and calls the embedding kernel with its parameters in order, so a
renamed function or a changed kernel signature breaks the traced
benchmark run, which nothing else in tier-1 runs.  The tracer is loaded
by path and used as it is.
"""

import importlib
import importlib.util
import inspect
import random
import sys
from pathlib import Path

import pytest

from sunlab import catalog, ksets, witness

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


@pytest.fixture(scope="module")
def tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _bindings():
    """Every attribute of every loaded sunlab module and class, by identity."""
    out = {}
    for name, module in list(sys.modules.items()):
        if name == "sunlab" or name.startswith("sunlab."):
            for attr, value in vars(module).items():
                out[name, attr] = id(value)
                if inspect.isclass(value) and value.__module__ == name:
                    for meth, fn in vars(value).items():
                        out[name, attr, meth] = id(fn)
    return out


def test_every_traced_name_resolves(tracer):
    for module, attr in [*tracer.SPANS, *tracer.HOT, tracer.KERNEL]:
        assert callable(getattr(importlib.import_module(module), attr, None)), (module, attr)
    for module, cls, meth, _, _ in tracer.METHODS:
        assert meth in vars(getattr(importlib.import_module(module), cls)), (cls, meth)


def test_kernel_takes_the_parameters_the_tracer_passes(tracer):
    kernel = getattr(importlib.import_module(tracer.KERNEL[0]), tracer.KERNEL[1])
    assert list(inspect.signature(kernel).parameters) == [
        "A", "B", "candidate_filter", "candidates"]


def test_tracer_counts_searches_and_uninstalls_cleanly(tracer):
    chain = witness.build_witness_chain(catalog.pure_sets(), catalog.pure_set(3), 2, seed=2)
    P = ksets.random_presentation(chain.top(), 2, random.Random(1))

    def work():
        cert, trace = witness.extract_sunflower(chain, P)
        verdict = ksets.verify_witness(catalog.pure_set(5), catalog.pure_set(3), 2)
        return (cert.petals, cert.centre, [(s.case, s.copy) for s in trace.steps],
                verdict.passed, verdict.checked)

    plain = work()
    before = _bindings()
    t = tracer.Tracer("tier-1")
    t.install()
    try:
        assert _bindings() != before
        traced = work()
    finally:
        t.uninstall()
    assert _bindings() == before
    assert traced == plain
    assert t.calls[tracer.SEARCH] > 0
    assert t.calls["witness.search"] > 0 and t.calls["ksets.search"] > 0
    assert t.calls["witness.extract"] == t.calls["ksets.verify"] == 1
    assert t.busy[tracer.SEARCH] > 0
    assert all(span[2] is not None for span in t.spans)
