"""Relabelling invariance of the CLI, each pair of runs on a clock.

A case runs one command on an input and on a seeded relabelling of it,
both in one fresh interpreter with CLOCK_S seconds for the pair, so a
search that stalls on the relabelled input fails its test instead of
hanging the suite.  The outcomes must agree: verdicts, exit codes and
counts are equal, and a certificate or counterexample found on the
relabelled input checks out on that input.
"""

import itertools
import json
import os
import random
import subprocess
import sys

import pytest
from test_golden import SRC

from sunlab import catalog, jsonio
from sunlab.generators import gen_named
from sunlab.ksets import (
    Presentation,
    find_sunflower_copies,
    random_presentation,
    verify_sunflower_cert,
)
from sunlab.ramsey import (
    PartitionedHypergraph,
    gen_witness_hypergraph,
    is_counterexample_tuple,
)
from sunlab.structures import ClassSpec, Structure, are_isomorphic
from sunlab.witness import build_witness_chain, extract_sunflower

CLOCK_S = 2

_RUN = ("import json, sys\n"
        "from sunlab.cli import run\n"
        "print(json.dumps([run(argv) for argv in json.loads(sys.argv[1])]))")


def _on_clock(*argvs):
    """The exit codes of the CLI runs `argvs`, made in one interpreter."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    try:
        proc = subprocess.run([sys.executable, "-c", _RUN, json.dumps(argvs)], env=env,
                              capture_output=True, text=True, timeout=CLOCK_S)
    except subprocess.TimeoutExpired:
        pytest.fail(f"{argvs[0][0]} ran past {CLOCK_S} s")
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def _write(path, payload):
    path.write_text(jsonio.dumps(payload))
    return str(path)


def _read(path):
    return json.loads(path.read_text())


def _pair(tmp_path, build):
    """(argv, out dir) for the plain and the relabelled input: `build(d, i)`
    writes input i (0 plain, 1 relabelled) under d and returns its argv."""
    runs = []
    for i, tag in enumerate(("plain", "relabelled")):
        d = tmp_path / tag
        d.mkdir()
        runs.append(([*build(d, i), "--out", str(d / "out")], d / "out"))
    return runs


def _relabel_structure(S, rng):
    """S with its vertices shuffled; the new vertex i is the old order[i]."""
    order = rng.sample(range(S.size), S.size)
    return S.induced(order), order


def _k_minus(n, missing):
    K = catalog.complete_graph(n)
    return Structure(K.signature, n, {"E": [t for t in K.relations["E"]
                                            if set(t) not in missing]})


@pytest.mark.parametrize("target", ["k3", "p3"])
def test_sunflower_check_counts_and_certificates_survive_relabelling(tmp_path, target):
    S = gen_named("random-graph", 16, 3)
    P = random_presentation(S, 2, random.Random(1))
    rng = random.Random(f"relabel|sunflower-check|{target}")
    S2, order = _relabel_structure(S, rng)
    ground = sorted(set().union(*P.sets))
    image = dict(zip(ground, rng.sample(range(100, 100 + len(ground)), len(ground))))
    P2 = Presentation(S2, 2, [[image[x] for x in P.sets[v]] for v in order])
    inputs = [(S, P), (S2, P2)]

    def build(d, i):
        T, Q = inputs[i]
        return ["sunflower-check", "--target", target,
                "--structure", _write(d / "s.json", jsonio.structure_to_json(T)),
                "--presentation", _write(d / "p.json", jsonio.presentation_to_json(Q))]

    runs = _pair(tmp_path, build)
    assert _on_clock(*(argv for argv, _ in runs)) == [0, 0]
    plain, moved = (_read(out / "certificates.json") for _, out in runs)
    assert moved["count"] == plain["count"] > 0
    B = catalog.structure_by_name(target)
    for data in moved["certificates"]:
        assert verify_sunflower_cert(jsonio.cert_from_json(data, B, S2), B, P2)
    # the copies are the same vertex sets, read through the relabelling
    new = {v: i for i, v in enumerate(order)}
    assert ({frozenset(new[v] for v in c["petals"]) for c in plain["certificates"]}
            == {frozenset(c["petals"]) for c in moved["certificates"]})


@pytest.mark.parametrize("C, target, verdict", [
    (_k_minus(8, [{0, 1}, {1, 2}]), "k3", 0),
    (gen_named("random-graph", 8, 1), "p3", 1),
], ids=["k8-minus-a-path-passes", "random-graph-8-fails"])
def test_verify_witness_verdict_survives_relabelling(tmp_path, C, target, verdict):
    C2, _ = _relabel_structure(C, random.Random(f"relabel|verify-witness|{target}"))
    runs = _pair(tmp_path, lambda d, i: [
        "verify-witness", "--target", target, "--k", "2",
        "--witness", _write(d / "c.json", jsonio.structure_to_json((C, C2)[i]))])
    assert _on_clock(*(argv for argv, _ in runs)) == [verdict, verdict]
    for _, out in runs:
        assert _read(out / "verdict.json")["passed"] == (verdict == 0)
    if verdict:
        found = _read(runs[1][1] / "counterexample.json")
        Q = jsonio.presentation_from_json(found, C2)
        assert find_sunflower_copies(Q, catalog.structure_by_name(target), limit=1) == []


def _random_hypergraph(n, c, p, seed):
    rng = random.Random(seed)
    universe = range(n * c)
    edges = [e for e in itertools.combinations(universe, n) if rng.random() < p]
    return PartitionedHypergraph(n, [universe[i * c:(i + 1) * c] for i in range(n)], edges)


def _relabel_hypergraph(H, rng):
    """H on shuffled vertex labels 50, 51, ... with its parts reordered."""
    image = dict(zip(H.vertices, rng.sample(range(50, 50 + len(H.vertices)),
                                            len(H.vertices))))
    parts = [[image[v] for v in part] for part in H.parts]
    rng.shuffle(parts)
    return PartitionedHypergraph(H.n, parts, [[image[v] for v in e] for e in H.edges])


@pytest.mark.parametrize("n, c, p, seed, girth", [
    (3, 4, 0.05, 0, 2), (2, 6, 0.2, 1, 3), (2, 6, 0.2, 3, 6), (2, 6, 0.2, 0, None),
])
def test_hypergraph_girth_survives_relabelling(tmp_path, n, c, p, seed, girth):
    H = _random_hypergraph(n, c, p, seed)
    H2 = _relabel_hypergraph(H, random.Random(f"relabel|girth|{seed}"))
    runs = _pair(tmp_path, lambda d, i: [
        "hypergraph", "girth",
        "--input", _write(d / "h.json", jsonio.hypergraph_to_json((H, H2)[i]))])
    assert _on_clock(*(argv for argv, _ in runs)) == [0, 0]
    for _, out in runs:
        assert _read(out / "girth.json")["girth"] == girth


def test_girth_and_paste_take_negative_labels_and_labels_above_2_to_the_40(tmp_path):
    # an order-preserving relabelling, half the vertices below 0 and half
    # above 2^40, so the girth and the pasted structure stay the same
    H = gen_witness_hypergraph(3, 1, 4, 2, c_override=6)
    V = len(H.vertices)
    image = {v: -7 * (V - v) if v < V // 2 else (1 << 40) + 11 * v for v in H.vertices}
    H2 = PartitionedHypergraph(3, [[image[v] for v in p] for p in H.parts],
                               [[image[v] for v in e] for e in H.edges])
    argvs = []
    for i, tag in enumerate(("plain", "relabelled")):
        d = tmp_path / tag
        d.mkdir()
        source = _write(d / "h.json", jsonio.hypergraph_to_json((H, H2)[i]))
        argvs += [["hypergraph", "girth", "--input", source, "--out", str(d / "girth")],
                  ["paste", "--hypergraph", source, "--target", "p3",
                   "--klass", "knfree:3", "--out", str(d / "paste")]]
    assert _on_clock(*argvs) == [0, 0, 0, 0]
    for name in ("girth/girth.json", "paste/pasted.json"):
        assert _read(tmp_path / "relabelled" / name) == _read(tmp_path / "plain" / name)
    assert _read(tmp_path / "plain" / "girth" / "girth.json")["girth"] == 4


@pytest.mark.parametrize("seed, s, verdict", [(0, 1, 0), (0, 2, 1), (1, 2, 0), (3, 2, 1)])
def test_hypergraph_adversary_verdict_survives_relabelling(tmp_path, seed, s, verdict):
    # dense 2-uniform instances on two parts of 4, where no one colouring
    # kills every transversal edge
    H = _random_hypergraph(2, 4, 0.6, seed)
    H2 = _relabel_hypergraph(H, random.Random(f"relabel|adversary|{seed}|{s}"))
    runs = _pair(tmp_path, lambda d, i: [
        "hypergraph", "adversary", "--s", str(s),
        "--input", _write(d / "h.json", jsonio.hypergraph_to_json((H, H2)[i]))])
    assert _on_clock(*(argv for argv, _ in runs)) == [verdict, verdict]
    found = _read(runs[1][1] / "adversary.json")["counterexample"]
    assert (found is None) == (verdict == 0)
    if verdict:
        assert is_counterexample_tuple(H2, [[tuple(b) for b in p] for p in found])


def test_adversary_decides_a_14_vertex_survivor_on_the_clock(tmp_path):
    # `hypergraph generate --n 2 --c 7 --seed 1`: no counterexample at s=1,
    # so the adversary exhausts its search on both inputs within the clock
    H = gen_witness_hypergraph(2, 1, 4, 1, c_override=7)
    H2 = _relabel_hypergraph(H, random.Random("relabel|adversary|14"))
    runs = _pair(tmp_path, lambda d, i: [
        "hypergraph", "adversary", "--s", "1",
        "--input", _write(d / "h.json", jsonio.hypergraph_to_json((H, H2)[i]))])
    assert _on_clock(*(argv for argv, _ in runs)) == [0, 0]
    for _, out in runs:
        assert _read(out / "adversary.json") == {"counterexample": None}


def test_partition_report_survives_relabelling(tmp_path):
    S = gen_named("knfree:3", 20, 5)
    S2, order = _relabel_structure(S, random.Random("relabel|partition"))
    new = {v: i for i, v in enumerate(order)}
    runs = _pair(tmp_path, lambda d, i: [
        "partition", "--scheme", "neighbourhood", "--anchor", str((0, new[0])[i]),
        "--klass", "knfree:3", "--probes", "k2", "--base-bound", "1",
        "--structure", _write(d / "s.json", jsonio.structure_to_json((S, S2)[i]))])
    assert _on_clock(*(argv for argv, _ in runs)) == [0, 0]
    (plain, plain_report), (moved, moved_report) = (
        (_read(out / "partition.json"), _read(out / "report.json")) for _, out in runs)
    assert ([{order[v] for v in b} for b in moved["blocks"]]
            == [set(b) for b in plain["blocks"]])
    for a, b in ((plain_report, plain), (moved_report, moved)):
        assert [r["vertices"] for r in a["blocks"]] == b["blocks"]
    assert ([(r["probe_embeds"], len(r["defects"])) for r in moved_report["blocks"]]
            == [(r["probe_embeds"], len(r["defects"])) for r in plain_report["blocks"]])


@pytest.mark.parametrize("klass, bound, verdict", [
    ("knfree:3", 1, 1), ("rb-bichrome", 1, 1), ("oriented", 1, 0),
])
def test_check_3dap_verdict_survives_relabelling(tmp_path, klass, bound, verdict):
    K = catalog.class_by_name(klass)
    rng = random.Random(f"relabel|check-3dap|{klass}")
    forbidden = [_relabel_structure(F, rng)[0] for F in K.forbidden]
    rng.shuffle(forbidden)
    K2 = ClassSpec(K.signature, forbidden, K.name)
    runs = _pair(tmp_path, lambda d, i: [
        "check-3dap", "--bound", str(bound),
        "--klass", "@" + _write(d / "k.json", jsonio.classspec_to_json((K, K2)[i]))])
    assert _on_clock(*(argv for argv, _ in runs)) == [verdict, verdict]
    plain, moved = (_read(out / "3dap.json") for _, out in runs)
    assert (moved["passed"], moved["families_checked"]) == (
        plain["passed"], plain["families_checked"])
    assert moved["passed"] == (verdict == 0)
    if verdict:
        sides = [[jsonio.structure_from_json(x) for x in r["sides"]] for r in (plain, moved)]
        assert len(sides[0]) == len(sides[1])
        assert all(are_isomorphic(a, b) is not None for a, b in zip(*sides))


def test_verify_trace_survives_a_ground_bijection(tmp_path):
    chain = build_witness_chain(catalog.all_graphs(), catalog.complete_graph(2), 2, seed=1)
    top = chain.top()
    P = Presentation(top, 2, [(v % 3, 10 + v) for v in range(top.size)])
    _, trace = extract_sunflower(chain, P)
    assert trace.steps[0].case == "mono"
    ground = sorted(set().union(*P.sets))
    rng = random.Random("relabel|verify-trace")
    image = dict(zip(ground, rng.sample(range(200, 200 + len(ground)), len(ground))))
    P2 = Presentation(top, 2, [[image[x] for x in s] for s in P.sets])
    plain = jsonio.trace_to_json(trace)
    moved = json.loads(json.dumps(plain))
    for step in moved["steps"]:
        if step["shared"] is not None:
            step["shared"] = image[step["shared"]]
    # tampered: the relabelled presentation read with the plain trace
    inputs = [(P, plain), (P2, moved), (P2, plain)]
    chain_file = _write(tmp_path / "chain.json", jsonio.chain_to_json(chain))
    argvs = []
    for i, (Q, steps) in enumerate(inputs):
        d = tmp_path / str(i)
        d.mkdir()
        argvs.append(["verify-trace", "--chain", chain_file,
                      "--presentation", _write(d / "p.json", jsonio.presentation_to_json(Q)),
                      "--trace", _write(d / "t.json", steps), "--out", str(d / "out")])
    assert _on_clock(*argvs) == [0, 0, 1]
    assert [_read(tmp_path / str(i) / "out" / "trace_verdict.json")["replay_ok"]
            for i in range(3)] == [True, True, False]
