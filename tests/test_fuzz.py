"""Mutation fuzz of the CLI's JSON inputs.

The inputs of the golden commands, and of `encode`, `paste` and
`verify-witness --witness`, are mutated one node at a time: an integer
becomes -1, 0, v+7, 2.0, "1", [v], null or true; a string "zz", "", 1 or
null; a list [], [[]], 5, {} or itself with its first item repeated; an
object [], {} or 3; and each key of an object is dropped.  A seeded subset
of the mutants runs through `cli.run` in process.  Every run must return
an exit code from 0 to 4, with no exception escaping.
"""

import json
import random

import pytest
from test_golden import _two_colour_class

from sunlab.cli import run

PER_CASE = 150

# (label, argv, the input mutated); "{x}" names the input file x
CASES = [
    ("open-set", ["open-set", "--structure", "{graph6}", "--params", "0",
                  "--type", "{type}"], ["graph6", "type"]),
    ("partition", ["partition", "--structure", "{knfree}", "--scheme", "neighbourhood",
                   "--anchor", "0", "--klass", "knfree:3", "--probes", "k2",
                   "--base-bound", "1"], ["knfree"]),
    ("gen-class", ["gen", "--klass", "@{two-colour}", "--size", "10", "--seed", "7"],
     ["two-colour"]),
    ("girth", ["hypergraph", "girth", "--input", "{h2c5}"], ["h2c5"]),
    ("adversary", ["hypergraph", "adversary", "--input", "{h2c5}", "--s", "2"],
     ["h2c5"]),
    ("paste", ["paste", "--hypergraph", "{h2}", "--target", "k2", "--klass", "graphs"],
     ["h2"]),
    ("extract", ["extract", "--chain", "{chain}", "--presentation", "{shared}"],
     ["chain", "shared"]),
    ("verify-trace", ["verify-trace", "--chain", "{chain}", "--presentation",
                      "{shared}", "--trace", "{trace}"], ["chain", "trace"]),
    ("encode", ["encode", "--structure", "{graph6}", "--colouring", "{colouring}"],
     ["colouring"]),
    ("verify-witness", ["verify-witness", "--target", "k2", "--witness", "{graph6}",
                        "--k", "2"], ["graph6"]),
]


def _variants(x):
    """The replacements of one node, by its JSON type."""
    if isinstance(x, int):  # booleans too
        return [-1, 0, x + 7, 2.0, "1", [x], None, True]
    if isinstance(x, str):
        return ["zz", "", 1, None]
    if isinstance(x, list):
        return [[], [[]], 5, {}] + ([x[:1] + x] if x else [])
    if isinstance(x, dict):
        return [[], {}, 3] + [{k: v for k, v in x.items() if k != key} for key in x]
    return []


def mutants(doc):
    """Every document that differs from doc by one mutated node."""
    def walk(x, rebuild):
        for new in _variants(x):
            yield rebuild(new)
        if isinstance(x, dict):
            for key, v in x.items():
                yield from walk(v, lambda new, key=key: rebuild({**x, key: new}))
        elif isinstance(x, list):
            for i, v in enumerate(x):
                yield from walk(v, lambda new, i=i: rebuild(x[:i] + [new] + x[i + 1:]))
    return list(walk(doc, lambda new: new))


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    """name -> path of each intact input file."""
    tmp = tmp_path_factory.mktemp("inputs")
    for label, argv in [
            ("graph6", ["gen", "--id", "random-graph", "--size", "6", "--seed", "4"]),
            ("knfree", ["gen", "--klass", "knfree:3", "--size", "20", "--seed", "5"]),
            ("h2", ["hypergraph", "generate", "--n", "2", "--s", "1", "--g", "4",
                    "--seed", "7"]),
            ("h2c5", ["hypergraph", "generate", "--n", "2", "--c", "5", "--seed", "3"]),
            ("chain", ["build-witness", "--klass", "graphs", "--target", "k2",
                       "--k", "2", "--seed", "1"])]:
        assert run(argv + ["--out", str(tmp / label)]) == 0
    paths = {"graph6": tmp / "graph6" / "structure.json",
             "knfree": tmp / "knfree" / "structure.json",
             "h2": tmp / "h2" / "hypergraph.json",
             "h2c5": tmp / "h2c5" / "hypergraph.json",
             "chain": tmp / "chain" / "chain.json"}
    top_size = json.loads(paths["chain"].read_text())["levels"][-1]["structure"]["size"]
    for name, doc in [
            ("type", {"parameters": [0], "positives": [["E", [-1, 0]], ["E", [0, -1]]]}),
            ("two-colour", _two_colour_class()),
            ("shared", {"k": 2, "sets": [[v % 3, 10 + v] for v in range(top_size)]}),
            ("colouring", {"values": [v % 2 for v in range(6)]})]:
        paths[name] = tmp / f"{name}.json"
        paths[name].write_text(json.dumps(doc))
    assert run(["extract", "--chain", str(paths["chain"]), "--presentation",
                str(paths["shared"]), "--out", str(tmp / "extract")]) == 0
    paths["trace"] = tmp / "extract" / "trace.json"
    return paths


@pytest.mark.parametrize("label, argv, mutated", CASES, ids=[c[0] for c in CASES])
def test_mutated_inputs_exit_with_a_code(tmp_path, capsys, inputs, label, argv, mutated):
    rng = random.Random(f"fuzz|{label}")
    intact = {name: str(path) for name, path in inputs.items()}
    out = tmp_path / "intact"
    assert run([a.format(**intact) for a in argv] + ["--out", str(out)]) in {0, 1}
    for name in mutated:
        docs = mutants(json.loads(inputs[name].read_text()))
        for j, doc in enumerate(rng.sample(docs, min(PER_CASE, len(docs)))):
            path = tmp_path / f"{name}-{j}.json"
            path.write_text(json.dumps(doc))
            files = dict(intact, **{name: str(path)})
            out = tmp_path / f"out-{name}-{j}"
            code = run([a.format(**files) for a in argv] + ["--out", str(out)])
            assert code in range(5), (name, doc)
    capsys.readouterr()
