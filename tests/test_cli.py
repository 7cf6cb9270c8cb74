"""Command-line surface: exit codes, emitted files, manifests and
reproducibility."""

import argparse
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from sunlab import jsonio
from sunlab.cli import COMMANDS, build_parser, run
from sunlab.ramsey import PartitionedHypergraph, is_counterexample_tuple


def read(path: Path):
    return json.loads(path.read_text())


def test_gen_writes_structure_and_manifest(tmp_path):
    code = run(["gen", "--id", "knfree:3", "--size", "12", "--seed", "5",
                "--out", str(tmp_path)])
    assert code == 0
    data = read(tmp_path / "structure.json")
    assert data["size"] == 12
    manifest = read(tmp_path / "gen-manifest.json")
    assert manifest["command"] == "gen"
    assert manifest["seed"] == 5
    assert manifest["exit_code"] == 0


def test_gen_reproducible(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    for out in (a, b):
        assert run(["gen", "--id", "rb-bichrome", "--size", "15", "--seed", "3",
                    "--out", str(out)]) == 0
    assert (a / "structure.json").read_bytes() == (b / "structure.json").read_bytes()


def test_verify_witness_pass_and_fail(tmp_path):
    ok = run(["verify-witness", "--b-size", "3", "--k", "2",
              "--c-size", "7", "--mode", "exhaustive", "--out", str(tmp_path / "p")])
    assert ok == 0
    assert read(tmp_path / "p" / "verdict.json")["passed"] is True

    bad = run(["verify-witness", "--b-size", "3", "--k", "2",
               "--c-size", "6", "--mode", "exhaustive", "--out", str(tmp_path / "f")])
    assert bad == 1
    ce = read(tmp_path / "f" / "counterexample.json")
    assert ce["k"] == 2 and len(ce["sets"]) == 6


def test_verify_witness_empty_witness_passes(tmp_path):
    assert run(["verify-witness", "--c-size", "0", "--b-size", "0", "--k", "1",
                "--out", str(tmp_path)]) == 0
    assert read(tmp_path / "verdict.json")["passed"] is True


def test_enumerate_presentations(tmp_path):
    assert run(["enumerate-presentations", "--size", "2", "--k", "2",
                "--out", str(tmp_path)]) == 0
    data = read(tmp_path / "presentations.json")
    assert data["count"] == 2


def test_enumerate_budget_exit(tmp_path):
    assert run(["enumerate-presentations", "--size", "30", "--k", "2",
                "--out", str(tmp_path)]) == 3


def test_partition_command(tmp_path):
    gen_dir = tmp_path / "g"
    assert run(["gen", "--id", "knfree:3", "--size", "30", "--seed", "2",
                "--out", str(gen_dir)]) == 0
    out = tmp_path / "p"
    assert run(["partition", "--structure", str(gen_dir / "structure.json"),
                "--scheme", "neighbourhood", "--anchor", "0",
                "--klass", "knfree:3", "--probes", "k2", "--base-bound", "1",
                "--out", str(out)]) == 0
    part = read(out / "partition.json")
    assert sorted(v for b in part["blocks"] for v in b) == list(range(30))
    report = read(out / "report.json")
    assert report["blocks"][1]["probe_embeds"] == [False]


def test_partition_csv(tmp_path):
    gen_dir = tmp_path / "g"
    run(["gen", "--id", "rb-bichrome", "--size", "12", "--seed", "2",
         "--out", str(gen_dir)])
    out = tmp_path / "c"
    assert run(["partition", "--structure", str(gen_dir / "structure.json"),
                "--scheme", "first-edge-colour", "--klass", "rb-bichrome",
                "--format", "csv", "--out", str(out)]) == 0
    assert (out / "report.csv").read_text().startswith("block,kind")


def test_encode_and_sunflower_check(tmp_path):
    gen_dir = tmp_path / "g"
    run(["gen", "--id", "pure-set", "--size", "4", "--seed", "1",
         "--out", str(gen_dir)])
    (tmp_path / "col.json").write_text(json.dumps({"values": [0, 0, 1, 2]}))
    enc = tmp_path / "enc"
    assert run(["encode", "--structure", str(gen_dir / "structure.json"),
                "--colouring", str(tmp_path / "col.json"), "--out", str(enc)]) == 0
    pres = read(enc / "presentation.json")
    assert pres["k"] == 2
    chk = tmp_path / "chk"
    assert run(["sunflower-check", "--structure", str(gen_dir / "structure.json"),
                "--presentation", str(enc / "presentation.json"),
                "--target", "pure:2", "--out", str(chk)]) == 0
    certs = read(chk / "certificates.json")
    assert certs["count"] >= 1


def test_sunflower_check_reads_colours_of_any_size(tmp_path):
    # colour code 2 * 2**62 + 1 as an int mask would need an exabyte, so a
    # search on masks of the presentation's sets died with a MemoryError
    structure = _generated(tmp_path, "--id", "pure-set", "--size", "4", "--seed", "1")
    certs = {}
    for big in (2, 2 ** 62):
        (tmp_path / "col.json").write_text(json.dumps({"values": [0, big, big, 1]}))
        enc, chk = tmp_path / f"enc{big}", tmp_path / f"chk{big}"
        assert run(["encode", "--structure", str(structure),
                    "--colouring", str(tmp_path / "col.json"), "--out", str(enc)]) == 0
        assert run(["sunflower-check", "--structure", str(structure),
                    "--presentation", str(enc / "presentation.json"),
                    "--target", "pure:3", "--out", str(chk)]) == 0
        certs[big] = read(chk / "certificates.json")["certificates"]
    assert [c["petals"] for c in certs[2]] == [c["petals"] for c in certs[2 ** 62]] != []
    assert [c["centre"] for c in certs[2 ** 62]] == [[]] * len(certs[2])


def test_hypergraph_roundtrip(tmp_path):
    gen_dir = tmp_path / "h"
    assert run(["hypergraph", "generate", "--n", "2", "--s", "1", "--g", "4",
                "--seed", "7", "--out", str(gen_dir)]) == 0
    hpath = gen_dir / "hypergraph.json"
    girth_dir = tmp_path / "girth"
    assert run(["hypergraph", "girth", "--input", str(hpath), "--cap", "3",
                "--out", str(girth_dir)]) == 0
    assert read(girth_dir / "girth.json")["girth"] is None  # none below cap
    # 64 vertices: the search decides it in a few nodes at the default budget
    adv = tmp_path / "adv"
    assert run(["hypergraph", "adversary", "--input", str(hpath), "--s", "1",
                "--out", str(adv)]) == 0
    assert read(adv / "adversary.json") == {"counterexample": None}


def test_adversary_verdict_and_node_budget(tmp_path, capsys):
    # 18 vertices, which the Bell(V)^s guard used to refuse with exit 3
    gen_dir = tmp_path / "h"
    assert run(["hypergraph", "generate", "--n", "2", "--c", "9", "--seed", "1",
                "--out", str(gen_dir)]) == 0
    hpath = gen_dir / "hypergraph.json"
    adv = tmp_path / "adv"
    assert run(["hypergraph", "adversary", "--input", str(hpath), "--s", "1",
                "--out", str(adv)]) == 1
    found = read(adv / "adversary.json")["counterexample"]
    H = jsonio.hypergraph_from_json(read(hpath))
    assert is_counterexample_tuple(H, found)
    capsys.readouterr()
    cut = tmp_path / "cut"
    assert run(["hypergraph", "adversary", "--input", str(hpath), "--s", "1",
                "--budget", "1", "--out", str(cut)]) == 3
    assert _failed_run(cut, capsys, "hypergraph-adversary", 3) == (
        "error: adversary search cut off at a node budget of 1\n")
    assert not (cut / "adversary.json").exists()


def test_adversary_decides_a_deep_matching(tmp_path):
    # a search with one Python frame per merge died on this 1,000-edge
    # matching with a traceback, exit 1 and no manifest
    H = PartitionedHypergraph(2, [range(1000), range(1000, 2000)],
                              [(i, 1000 + i) for i in range(1000)])
    hpath = tmp_path / "matching.json"
    hpath.write_text(json.dumps(jsonio.hypergraph_to_json(H)))
    adv = tmp_path / "adv"
    assert run(["hypergraph", "adversary", "--input", str(hpath), "--s", "1",
                "--out", str(adv)]) == 1
    assert is_counterexample_tuple(H, read(adv / "adversary.json")["counterexample"])
    assert read(adv / "hypergraph-adversary-manifest.json")["exit_code"] == 1


def test_build_extract_verify_roundtrip(tmp_path):
    chain_dir = tmp_path / "chain"
    assert run(["build-witness", "--klass", "graphs", "--target", "k2",
                "--k", "2", "--seed", "1", "--out", str(chain_dir)]) == 0
    chain = read(chain_dir / "chain.json")
    top_size = chain["levels"][-1]["structure"]["size"]
    sets = [[2 * v, 2 * v + 1] for v in range(top_size)]
    (tmp_path / "pres.json").write_text(json.dumps({"k": 2, "sets": sets}))
    ext = tmp_path / "ext"
    assert run(["extract", "--chain", str(chain_dir / "chain.json"),
                "--presentation", str(tmp_path / "pres.json"),
                "--out", str(ext)]) == 0
    cert = read(ext / "certificate.json")
    assert cert["centre"] == []
    ver = tmp_path / "ver"
    structure_file = tmp_path / "top.json"
    structure_file.write_text(json.dumps(chain["levels"][-1]["structure"]))
    assert run(["verify-cert", "--cert", str(ext / "certificate.json"),
                "--target", "k2", "--structure", str(structure_file),
                "--presentation", str(tmp_path / "pres.json"),
                "--out", str(ver)]) == 0
    trace_dir = tmp_path / "trace"
    assert run(["verify-trace", "--chain", str(chain_dir / "chain.json"),
                "--presentation", str(tmp_path / "pres.json"),
                "--trace", str(ext / "trace.json"), "--out", str(trace_dir)]) == 0


def test_extract_failure_exit_code(tmp_path, capsys):
    # a 6-vertex pure-set top admits the two-triangle presentation, which
    # carries no sunflower triple: extraction must exit 4 and hand the
    # presentation back
    chain_dir = tmp_path / "chain"
    assert run(["build-witness", "--klass", "pure", "--target", "pure:3",
                "--k", "2", "--seed", "0", "--c", "2",
                "--out", str(chain_dir)]) == 0
    chain = read(chain_dir / "chain.json")
    assert chain["levels"][-1]["structure"]["size"] == 6
    pres = {"k": 2, "sets": [[0, 1], [1, 2], [0, 2], [3, 4], [4, 5], [3, 5]]}
    (tmp_path / "pres.json").write_text(json.dumps(pres))
    out = tmp_path / "ext"
    assert run(["extract", "--chain", str(chain_dir / "chain.json"),
                "--presentation", str(tmp_path / "pres.json"),
                "--out", str(out)]) == 4
    ce = read(out / "counterexample.json")
    assert ce["sets"] == pres["sets"]
    assert "no sunflower" in _failed_run(out, capsys, "extract", 4)


def test_check_3dap_exit_codes(tmp_path):
    assert run(["check-3dap", "--klass", "knfree:3", "--bound", "1",
                "--out", str(tmp_path / "a")]) == 1
    assert run(["check-3dap", "--klass", "k4h3free", "--bound", "1",
                "--out", str(tmp_path / "b")]) == 0
    assert read(tmp_path / "b" / "3dap.json")["passed"] is True


def test_usage_error_exit_code():
    assert run(["gen", "--size", "5"]) == 2          # missing seed
    assert run(["no-such-command"]) == 2


def test_min_colouring_command(tmp_path):
    gen_dir = tmp_path / "g"
    run(["gen", "--id", "random-graph", "--size", "6", "--seed", "4",
         "--out", str(gen_dir)])
    pattern = {"signature": [{"name": "E", "arity": 2}], "size": 1,
               "relations": {"E": []}}
    (tmp_path / "pattern.json").write_text(json.dumps(pattern))
    qtype = {"parameters": [0],
             "positives": [["E", [-1, 0]], ["E", [0, -1]]]}
    (tmp_path / "type.json").write_text(json.dumps(qtype))
    out = tmp_path / "mc"
    assert run(["min-colouring", "--structure", str(gen_dir / "structure.json"),
                "--pattern", str(tmp_path / "pattern.json"),
                "--type", str(tmp_path / "type.json"), "--out", str(out)]) == 0
    col = read(out / "colouring.json")
    assert len(col["values"]) == 6


def test_open_set_command(tmp_path):
    gen_dir = tmp_path / "g"
    run(["gen", "--id", "random-graph", "--size", "6", "--seed", "4",
         "--out", str(gen_dir)])
    qtype = {"parameters": [0],
             "positives": [["E", [-1, 0]], ["E", [0, -1]]]}
    (tmp_path / "type.json").write_text(json.dumps(qtype))
    out = tmp_path / "os"
    assert run(["open-set", "--structure", str(gen_dir / "structure.json"),
                "--params", "0", "--type", str(tmp_path / "type.json"),
                "--out", str(out)]) == 0
    data = read(out / "open_set.json")
    assert isinstance(data["vertices"], list)


def test_adversary_result_is_revalidated(tmp_path, capsys, monkeypatch):
    gen_dir = tmp_path / "h"
    assert run(["hypergraph", "generate", "--n", "2", "--c", "5", "--seed", "3",
                "--out", str(gen_dir)]) == 0
    hyper = read(gen_dir / "hypergraph.json")
    parts = [set(p) for p in hyper["parts"]]
    assert any(set(e) <= p for e in hyper["edges"] for p in parts)
    # one block holding every vertex leaves that within-part edge
    # monochromatic, so this is no counterexample
    monkeypatch.setattr("sunlab.cli.witness_adversary",
                        lambda H, s, **kw: [[tuple(H.vertices)]] * s)
    out = tmp_path / "adv"
    assert run(["hypergraph", "adversary", "--input", str(gen_dir / "hypergraph.json"),
                "--s", "1", "--out", str(out)]) == 4
    assert "re-validation" in _failed_run(out, capsys, "hypergraph-adversary", 4)
    assert not (out / "adversary.json").exists()


@pytest.mark.parametrize("command", ["partition", "gen"])
def test_schema_invalid_json_is_a_usage_error(tmp_path, capsys, command):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"signature": 5, "size": 3}))
    if command == "partition":
        argv = ["partition", "--structure", str(bad), "--scheme", "neighbourhood",
                "--anchor", "0"]
    else:
        argv = ["gen", "--klass", "@" + str(bad), "--size", "4", "--seed", "1"]
    assert run(argv + ["--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "malformed JSON" in err
    assert err.count("\n") == 1


def _one_error_line(capsys) -> str:
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    return err


def _failed_run(out: Path, capsys, command: str, code: int) -> str:
    """The one `error:` line of a run that exited with `code`, checked
    against the error.json and the manifest the run left in `out`."""
    line = _one_error_line(capsys)
    assert read(out / "error.json") == {"error": line[len("error: "):-1]}
    manifest = read(out / f"{command}-manifest.json")
    assert manifest["exit_code"] == code
    assert str(out / "error.json") in manifest["outputs"]
    return line


def test_dead_end_class_is_a_pipeline_failure(tmp_path, capsys):
    # forbidding both one-vertex graph structures leaves no first vertex
    sig = [{"name": "E", "arity": 2}]
    spec = {"name": "dead-end", "signature": sig,
            "forbidden": [{"signature": sig, "size": 1, "relations": {"E": rel}}
                          for rel in ([[0, 0]], [])]}
    path = tmp_path / "dead.json"
    path.write_text(json.dumps(spec))
    assert run(["gen", "--klass", "@" + str(path), "--size", "3", "--seed", "0",
                "--out", str(tmp_path / "out")]) == 4
    assert "no admissible vertex" in _failed_run(tmp_path / "out", capsys, "gen", 4)


@pytest.mark.parametrize("argv, code, line", [
    (["check-3dap", "--klass", "graphs", "--bound", "2", "--budget", "255"],
     3, "error: 256 pair amalgams exceed budget\n")],
    ids=["3dap-budget"])
def test_budget_and_pipeline_exits_print_one_error_line(tmp_path, capsys,
                                                        argv, code, line):
    assert run(argv + ["--out", str(tmp_path)]) == code
    assert _failed_run(tmp_path, capsys, argv[0], code) == line


@pytest.mark.parametrize("largest, rejected", [("knfree:256", "knfree:257"),
                                               ("k41h3free", "k42h3free")])
def test_gen_caps_the_complete_forbidden_structure(tmp_path, capsys, largest, rejected):
    # the largest class is built and grows, its complete structure too large
    # for any completion to need its automorphisms; the next one exits 3
    # before anything is built
    assert run(["gen", "--klass", largest, "--size", "2", "--seed", "1",
                "--out", str(tmp_path / "ok")]) == 0
    assert read(tmp_path / "ok" / "structure.json")["size"] == 2
    for name in (rejected, "k1000h3free"):
        out = tmp_path / name
        assert run(["gen", "--klass", name, "--size", "2", "--seed", "1",
                    "--out", str(out)]) == 3
        line = _failed_run(out, capsys, "gen", 3)
        assert line.startswith("error: complete structure on ")


def test_budget_raised_inside_a_command_prints_one_error_line(tmp_path, capsys,
                                                              monkeypatch):
    import sunlab.cli as cli

    def over(*args):
        raise cli.BudgetExceeded("over budget")

    monkeypatch.setattr(cli, "gen_generic", over)
    assert run(["gen", "--klass", "graphs", "--size", "3", "--seed", "1",
                "--out", str(tmp_path)]) == 3
    assert _failed_run(tmp_path, capsys, "gen", 3) == "error: over budget\n"


def test_partition_counts_its_bases_before_the_walk(tmp_path, capsys, monkeypatch):
    # the README structure: blocks of 164 and 36 vertices have 14,198 bases
    # at bound 2 and 743,102 at bound 3, which used to run for minutes
    import sunlab.partitionlab as partitionlab

    assert run(["gen", "--id", "knfree:3", "--size", "200", "--seed", "11",
                "--out", str(tmp_path / "tf")]) == 0
    monkeypatch.setattr(partitionlab, "extension_defects", lambda *args: [])
    argv = ["partition", "--structure", str(tmp_path / "tf" / "structure.json"),
            "--scheme", "neighbourhood", "--anchor", "0", "--klass", "knfree:3"]
    assert run(argv + ["--base-bound", "2", "--out", str(tmp_path / "b2")]) == 0

    def walked(*args):
        raise AssertionError("the walk started")

    monkeypatch.setattr(partitionlab, "extension_defects", walked)
    out = tmp_path / "b3"
    assert run(argv + ["--base-bound", "3", "--out", str(out)]) == 3
    line = _failed_run(out, capsys, "partition", 3)
    assert line == "error: 743102 bases exceed budget 50000\n"
    assert not (out / "partition.json").exists()


def test_class_forbidding_the_empty_structure_is_a_usage_error(tmp_path, capsys):
    # the empty structure embeds into everything, so nothing could be
    # generated; the class file itself is bad input
    sig = [{"name": "E", "arity": 2}]
    spec = {"name": "empty", "signature": sig,
            "forbidden": [{"signature": sig, "size": 0}]}
    path = tmp_path / "k.json"
    path.write_text(json.dumps(spec))
    out = tmp_path / "out"
    assert run(["gen", "--klass", "@" + str(path), "--size", "3", "--seed", "1",
                "--out", str(out)]) == 2
    assert "forbidden structures must have a vertex" in _one_error_line(capsys)
    assert not (out / "structure.json").exists()


def test_class_with_a_forbidden_structure_over_the_canonical_cap_exits_3(tmp_path, capsys):
    # a forbidden structure no larger than the widest relation is a window
    # the class tests look up among all of its relabellings, so one with 10
    # vertices is refused before any is listed
    sig = [{"name": "R", "arity": 10}]
    spec = {"name": "wide", "signature": sig,
            "forbidden": [{"signature": sig, "size": 10,
                           "relations": {"R": [list(range(10))]}}]}
    path = tmp_path / "k.json"
    path.write_text(json.dumps(spec))
    out = tmp_path / "out"
    assert run(["gen", "--klass", "@" + str(path), "--size", "2", "--seed", "1",
                "--out", str(out)]) == 3
    assert _failed_run(out, capsys, "gen", 3) == "error: canonical_form limited to 9 vertices\n"
    assert not (out / "structure.json").exists()


def test_paste_internal_inconsistency_is_a_pipeline_failure(tmp_path, capsys,
                                                             monkeypatch):
    gen_dir = tmp_path / "gen"
    assert run(["hypergraph", "generate", "--n", "2", "--c", "5", "--seed", "3",
                "--out", str(gen_dir)]) == 0
    import sunlab.witness as witness
    real = witness.satisfies_class
    # the target passes, the pasted structure is made to leave the class
    monkeypatch.setattr(witness, "satisfies_class",
                        lambda S, K: S.size <= 2 and real(S, K))
    assert run(["paste", "--hypergraph", str(gen_dir / "hypergraph.json"),
                "--target", "k2", "--klass", "graphs",
                "--out", str(tmp_path / "paste")]) == 4
    assert "left the class" in _failed_run(tmp_path / "paste", capsys, "paste", 4)


@pytest.mark.parametrize("module", ["sunlab", "sunlab.cli"])
def test_python_dash_m_runs_the_command(module):
    src = Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    proc = subprocess.run([sys.executable, "-m", module, "--help"], env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0
    assert proc.stdout.startswith("usage: sunlab")


def test_verify_witness_rejects_k_below_one(tmp_path, capsys):
    assert run(["verify-witness", "--c-size", "4", "--b-size", "2", "--k", "0",
                "--out", str(tmp_path / "out")]) == 2
    assert "k must be >= 1" in _one_error_line(capsys)
    assert not (tmp_path / "out" / "verdict.json").exists()


def test_random_verify_witness_rejects_k_below_one(tmp_path):
    # sampling 0-sets used to loop forever, so this runs in its own
    # interpreter with a timeout
    src = Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    proc = subprocess.run([sys.executable, "-m", "sunlab", "verify-witness",
                           "--c-size", "4", "--b-size", "2", "--k", "0",
                           "--mode", "random", "--out", str(tmp_path)],
                          env=env, capture_output=True, text=True, timeout=30)
    assert proc.returncode == 2
    assert proc.stderr == "error: k must be >= 1\n"


def test_random_verify_witness_rejects_trials_below_one(tmp_path, capsys):
    assert run(["verify-witness", "--c-size", "4", "--b-size", "2", "--k", "2",
                "--mode", "random", "--trials", "-3",
                "--out", str(tmp_path / "out")]) == 2
    assert "trials must be >= 1" in _one_error_line(capsys)
    assert not (tmp_path / "out" / "verdict.json").exists()


@pytest.mark.parametrize("mode, extra, message", [
    ("exhaustive", ["--trials", "5"], "exhaustive mode reads no --trials"),
    ("exhaustive", ["--seed", "9"], "exhaustive mode reads no --seed"),
    ("exhaustive", ["--trials", "5", "--seed", "9"],
     "exhaustive mode reads no --trials or --seed"),
    ("random", ["--budget", "22"], "random mode reads no --budget")],
    ids=["exhaustive-trials", "exhaustive-seed", "exhaustive-both", "random-budget"])
def test_verify_witness_rejects_options_its_mode_does_not_read(tmp_path, capsys, mode,
                                                               extra, message):
    # these used to be accepted and recorded, the seed as the run's seed
    out = tmp_path / "out"
    assert run(["verify-witness", "--b-size", "3", "--c-size", "6", "--k", "2",
                "--mode", mode, *extra, "--out", str(out)]) == 2
    assert _one_error_line(capsys) == f"error: {message}\n"
    assert not out.exists()


def test_verify_witness_manifest_records_what_its_mode_reads(tmp_path):
    base = ["verify-witness", "--b-size", "3", "--c-size", "6", "--k", "2"]
    assert run(base + ["--out", str(tmp_path / "e")]) == 1
    manifest = read(tmp_path / "e" / "verify-witness-manifest.json")
    assert manifest["parameters"] == {"b_size": 3, "budget": 18, "c_size": 6,
                                      "command": "verify-witness", "k": 2,
                                      "mode": "exhaustive"}
    assert manifest["seed"] is None
    assert run(base + ["--mode", "random", "--seed", "5", "--out", str(tmp_path / "r")]) == 1
    manifest = read(tmp_path / "r" / "verify-witness-manifest.json")
    assert manifest["parameters"] == {"b_size": 3, "c_size": 6, "command": "verify-witness",
                                      "k": 2, "mode": "random", "seed": 5, "trials": 1000}
    assert manifest["seed"] == 5


@pytest.mark.parametrize("extra, message", [(["--c", "3"], "--k 1 reads no --c")],
                         ids=["c"])
def test_build_witness_at_k_1_rejects_the_hypergraph_options(tmp_path, capsys, extra,
                                                              message):
    # one level generates no hypergraph; these used to be accepted and recorded
    out = tmp_path / "out"
    assert run(["build-witness", "--klass", "graphs", "--target", "k2", "--k", "1",
                "--seed", "1", *extra, "--out", str(out)]) == 2
    assert _one_error_line(capsys) == f"error: {message}\n"
    assert not out.exists()


@pytest.mark.parametrize("k, recorded", [("1", {}), ("2", {})])
def test_build_witness_manifest_records_c_cap_only_where_read(tmp_path, k, recorded):
    # the part-size cap is a constant of the generator, read from no option
    assert run(["build-witness", "--klass", "graphs", "--target", "k2", "--k", k,
                "--seed", "1", "--out", str(tmp_path)]) == 0
    params = read(tmp_path / "build-witness-manifest.json")["parameters"]
    assert {n: params[n] for n in ("c", "c_cap") if n in params} == recorded


@pytest.mark.parametrize("name", ["random-graph:5", "random-graph(9)", "pure-set:2",
                                  "nosuch:3"])
def test_gen_rejects_a_parameter_on_a_generator_that_takes_none(tmp_path, capsys, name):
    # the first three used to exit 0, the parameter changing only the seed
    out = tmp_path / "out"
    assert run(["gen", "--id", name, "--size", "6", "--seed", "4", "--out", str(out)]) == 2
    assert _one_error_line(capsys).startswith(f"error: unknown generator {name!r}")
    assert not out.exists()


GEN = ["gen", "--size", "6", "--seed", "4"]
VERIFY = ["verify-witness", "--c-size", "4", "--k", "2"]


@pytest.mark.parametrize("argv, name", [
    *[(GEN + ["--id", name], name)
      for name in ("knfree: 3", "knfree:+3", "knfree:03", "knfree:x", "knfree:")],
    pytest.param(GEN + ["--id", "knfree:" + "1" * 5000], "knfree:" + "1" * 5000,
                 id="knfree-5000-digits"),
    *[(GEN + ["--klass", name], name)
      for name in ("knfree: 3", "knfree:+3", "knfree:x", "kxh3free", "k+4h3free",
                   "k04h3free", "k 4h3free")],
    *[(VERIFY + ["--target", name], name)
      for name in ("pure:x", "pure:+3", "pure:03", "kn: 3", "kn:x")],
])
def test_parameters_must_be_canonical_decimal(tmp_path, capsys, argv, name):
    # signed, spaced and zero-padded parameters used to exit 0 or 1 with
    # the structure of the plain number (gen recording the id as given),
    # and letters or 5,000 digits printed only int()'s own message
    out = tmp_path / "out"
    assert run(argv + ["--out", str(out)]) == 2
    assert _one_error_line(capsys) == \
        f"error: bad parameter in {name!r}: digits only, no sign or leading zero\n"
    assert not out.exists()


def test_gen_rejects_id_with_klass(tmp_path, capsys):
    # --id used to be dropped without a word, and still recorded in the manifest
    out = tmp_path / "out"
    assert run(["gen", "--id", "knfree:3", "--klass", "graphs", "--size", "4",
                "--seed", "1", "--out", str(out)]) == 2
    assert "not allowed with argument --id" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("extra, message", [
    (["--probes", "k2"], "--probes"),
    (["--format", "csv", "--probes", "k2", "--base-bound", "3"],
     "--probes or --base-bound or --format")],
    ids=["probes", "all"])
def test_partition_without_klass_rejects_the_report_options(tmp_path, capsys, extra,
                                                            message):
    # these used to be accepted and recorded, with only partition.json written
    structure = _generated(tmp_path, "--id", "knfree:3", "--size", "8", "--seed", "1")
    capsys.readouterr()
    out = tmp_path / "out"
    assert run(["partition", "--structure", str(structure), "--scheme", "neighbourhood",
                "--anchor", "0", *extra, "--out", str(out)]) == 2
    assert _one_error_line(capsys) == f"error: partition without --klass reads no {message}\n"
    assert not out.exists()


@pytest.mark.parametrize("klass, recorded", [
    ([], {}), (["--klass", "knfree:3"], {"base_bound": 1, "format": "json"})])
def test_partition_manifest_records_report_options_only_with_klass(tmp_path, klass,
                                                                   recorded):
    structure = _generated(tmp_path, "--id", "knfree:3", "--size", "8", "--seed", "1")
    assert run(["partition", "--structure", str(structure), "--scheme", "neighbourhood",
                "--anchor", "0", *klass, "--out", str(tmp_path / "p")]) == 0
    params = read(tmp_path / "p" / "partition-manifest.json")["parameters"]
    assert {n: params[n] for n in ("base_bound", "format") if n in params} == recorded


@pytest.mark.parametrize("level", ["0", "5"])
def test_extract_rejects_level_outside_the_chain(tmp_path, capsys, level):
    # level 0 used to be read as the top level and level 5 ended in an
    # IndexError traceback with exit 1, the counterexample code
    chain_dir = tmp_path / "chain"
    assert run(["build-witness", "--klass", "graphs", "--target", "k2",
                "--k", "2", "--seed", "1", "--out", str(chain_dir)]) == 0
    top_size = read(chain_dir / "chain.json")["levels"][-1]["structure"]["size"]
    sets = [[2 * v, 2 * v + 1] for v in range(top_size)]
    (tmp_path / "pres.json").write_text(json.dumps({"k": 2, "sets": sets}))
    capsys.readouterr()
    out = tmp_path / "ext"
    assert run(["extract", "--chain", str(chain_dir / "chain.json"),
                "--presentation", str(tmp_path / "pres.json"),
                "--level", level, "--out", str(out)]) == 2
    assert "--level must be in 1..2" in _one_error_line(capsys)
    assert not (out / "certificate.json").exists()


@pytest.mark.parametrize("size", ["0", "-1"])
def test_gen_klass_rejects_size_below_one(tmp_path, capsys, size):
    # used to exit 0 with an empty structure whose meta recorded the size;
    # a usage error writes nothing, not even the output directory
    out = tmp_path / "out"
    assert run(["gen", "--klass", "knfree:3", "--size", size, "--seed", "1",
                "--out", str(out)]) == 2
    assert _one_error_line(capsys) == "error: size must be >= 1\n"
    assert not out.exists()


@pytest.mark.parametrize("argv", [["check-3dap", "--bound", "1"],
                                  ["gen", "--size", "3", "--seed", "1"],
                                  ["partition", "--structure", "{s}",
                                   "--scheme", "neighbourhood", "--anchor", "0"]])
def test_unknown_class_error_has_no_stray_quotes(tmp_path, capsys, argv):
    structure = tmp_path / "s.json"
    structure.write_text(json.dumps({"signature": [{"name": "E", "arity": 2}],
                                     "size": 2}))
    out = tmp_path / "out"
    assert run([a.format(s=structure) for a in argv]
               + ["--klass", "nosuch", "--out", str(out)]) == 2
    assert capsys.readouterr().err == "error: unknown class 'nosuch'\n"
    assert not out.exists()


@pytest.mark.parametrize("scheme, needs", [
    ("class-minus-point", "binary relation E"),
    ("out-neighbourhood", "binary relation E"),
    ("first-edge-colour", "binary relations R and B")])
def test_partition_scheme_names_the_relation_it_needs(tmp_path, capsys,
                                                      scheme, needs):
    # on a pure set, class-minus-point used to end in an IndexError
    # traceback and the other two printed only the missing relation name
    gen_dir = tmp_path / "g"
    assert run(["gen", "--id", "pure-set", "--size", "3", "--seed", "1",
                "--out", str(gen_dir)]) == 0
    capsys.readouterr()
    out = tmp_path / "out"
    anchor = [] if scheme == "first-edge-colour" else ["--anchor", "0"]
    assert run(["partition", "--structure", str(gen_dir / "structure.json"),
                "--scheme", scheme, *anchor, "--out", str(out)]) == 2
    assert _one_error_line(capsys) == f"error: scheme {scheme} needs the {needs}\n"
    assert not out.exists()


@pytest.mark.parametrize("scheme, meta", [
    ("first-edge-colour", {}), ("rational-cut", {"rational_labels": ["0", "1"]})])
@pytest.mark.parametrize("anchor", ["0", "5"])
def test_partition_rejects_an_anchor_its_scheme_does_not_read(tmp_path, capsys,
                                                              scheme, meta, anchor):
    # used to exit 0 and record the anchor, whatever it was
    structure = tmp_path / "s.json"
    structure.write_text(json.dumps({"signature": [{"name": "R", "arity": 2},
                                                   {"name": "B", "arity": 2}],
                                     "size": 2, "meta": meta}))
    out = tmp_path / "out"
    assert run(["partition", "--structure", str(structure), "--scheme", scheme,
                "--anchor", anchor, "--out", str(out)]) == 2
    assert _one_error_line(capsys) == f"error: scheme {scheme} takes no anchor\n"
    assert not out.exists()


@pytest.mark.parametrize("argv, missing", [
    (["enumerate-presentations", "--k", "2"], "--structure --size"),
    (["verify-witness", "--k", "2", "--c-size", "4"], "--target --b-size"),
    (["verify-witness", "--k", "2", "--b-size", "2"], "--witness --c-size"),
    (["gen", "--size", "4", "--seed", "1"], "--id --klass/--class")])
def test_commands_need_one_of_each_input_pair(tmp_path, capsys, argv, missing):
    # each used to end in a TypeError or AttributeError traceback with
    # exit 1, the counterexample code
    out = tmp_path / "out"
    assert run(argv + ["--out", str(out)]) == 2
    assert f"one of the arguments {missing} is required" in capsys.readouterr().err
    assert not out.exists()


def _generated(tmp_path, *argv) -> Path:
    gen_dir = tmp_path / "g"
    assert run(["gen", *argv, "--out", str(gen_dir)]) == 0
    return gen_dir / "structure.json"


def test_partition_rejects_negative_base_bound(tmp_path, capsys):
    # used to exit 0 with a report of no defects
    structure = _generated(tmp_path, "--id", "knfree:3", "--size", "8", "--seed", "1")
    capsys.readouterr()
    out = tmp_path / "out"
    assert run(["partition", "--structure", str(structure), "--scheme", "neighbourhood",
                "--anchor", "0", "--klass", "knfree:3", "--base-bound", "-1",
                "--out", str(out)]) == 2
    assert _one_error_line(capsys) == "error: base_bound must be >= 0\n"
    assert not out.exists()


@pytest.mark.parametrize("limit", ["0", "-1"])
def test_sunflower_check_rejects_limit_below_one(tmp_path, capsys, limit):
    # used to write "count": 1
    structure = _generated(tmp_path, "--id", "pure-set", "--size", "3", "--seed", "1")
    (tmp_path / "pres.json").write_text(json.dumps({"k": 2, "sets": [[1, 2], [1, 3], [1, 4]]}))
    capsys.readouterr()
    out = tmp_path / "out"
    assert run(["sunflower-check", "--structure", str(structure),
                "--presentation", str(tmp_path / "pres.json"), "--target", "pure:2",
                "--limit", limit, "--out", str(out)]) == 2
    assert _one_error_line(capsys) == "error: limit must be >= 1\n"
    assert not out.exists()


def test_open_set_checks_parameters_on_an_empty_structure(tmp_path, capsys):
    # no vertex used to reach the range check, so this exited 0 with []
    structure = tmp_path / "empty.json"
    structure.write_text(json.dumps({"signature": [{"name": "E", "arity": 2}],
                                     "size": 0}))
    (tmp_path / "type.json").write_text(json.dumps({"parameters": [0], "positives": []}))
    out = tmp_path / "out"
    assert run(["open-set", "--structure", str(structure), "--params", "3",
                "--type", str(tmp_path / "type.json"), "--out", str(out)]) == 2
    assert _one_error_line(capsys) == "error: vertex out of range\n"
    assert not out.exists()


def test_open_set_rejects_repeated_parameters(tmp_path, capsys):
    # used to exit 0 with [1, 2]: the vertices adjacent to "both" parameters
    structure = tmp_path / "k3.json"
    structure.write_text(json.dumps({"signature": [{"name": "E", "arity": 2}], "size": 3,
                                     "relations": {"E": [[u, v] for u in range(3)
                                                         for v in range(3) if u != v]}}))
    adjacent = [["E", [-1, j]] for j in (0, 1)] + [["E", [j, -1]] for j in (0, 1)]
    (tmp_path / "type.json").write_text(json.dumps({"parameters": [0, 1],
                                                    "positives": adjacent}))
    out = tmp_path / "out"
    assert run(["open-set", "--structure", str(structure), "--params", "0,0",
                "--type", str(tmp_path / "type.json"), "--out", str(out)]) == 2
    assert _one_error_line(capsys) == "error: parameters must not repeat\n"
    assert not out.exists()


@pytest.mark.parametrize("atom", [["Q", [-1, 0]], ["E", [-1, 0, 1]]])
def test_open_set_rejects_a_type_atom_outside_the_signature(tmp_path, capsys, atom):
    # used to exit 0 with no vertices
    structure = _generated(tmp_path, "--id", "random-graph", "--size", "4", "--seed", "1")
    (tmp_path / "type.json").write_text(json.dumps({"parameters": [0, 1],
                                                    "positives": [atom]}))
    capsys.readouterr()
    out = tmp_path / "out"
    assert run(["open-set", "--structure", str(structure), "--params", "0,1",
                "--type", str(tmp_path / "type.json"), "--out", str(out)]) == 2
    assert (_one_error_line(capsys)
            == f"error: type atom {atom[0]}{atom[1]} does not fit the signature\n")
    assert not out.exists()


def test_min_colouring_rejects_a_type_atom_outside_the_signature(tmp_path, capsys):
    # used to exit 0 with every vertex flagged
    structure = _generated(tmp_path, "--id", "random-graph", "--size", "6", "--seed", "4")
    k2 = {"signature": [{"name": "E", "arity": 2}], "size": 2,
          "relations": {"E": [[0, 1], [1, 0]]}}
    (tmp_path / "k2.json").write_text(json.dumps(k2))
    (tmp_path / "type.json").write_text(json.dumps({"parameters": [0, 1],
                                                    "positives": [["Q", [-1, 0]]]}))
    capsys.readouterr()
    out = tmp_path / "out"
    assert run(["min-colouring", "--structure", str(structure),
                "--pattern", str(tmp_path / "k2.json"),
                "--type", str(tmp_path / "type.json"), "--out", str(out)]) == 2
    assert _one_error_line(capsys) == "error: type atom Q[-1, 0] does not fit the signature\n"
    assert not out.exists()


def _c5_and_k2(tmp_path) -> tuple[Path, Path]:
    """The 5-cycle and K2 as structure files."""
    files = []
    for name, size, edges in (("c5", 5, [(v, (v + 1) % 5) for v in range(5)]),
                              ("k2", 2, [(0, 1)])):
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps({"signature": [{"name": "E", "arity": 2}], "size": size,
                                    "relations": {"E": [[u, v] for a, b in edges
                                                        for u, v in ((a, b), (b, a))]}}))
        files.append(path)
    return files[0], files[1]


@pytest.mark.parametrize("params", [[5, 0], [0, 0], [1]])
def test_min_colouring_rejects_parameters_that_are_not_the_patterns_vertices(
        tmp_path, capsys, params):
    # [5, 0] used to exit 1 with an IndexError traceback, [0, 0] to exit 0
    c5, k2 = _c5_and_k2(tmp_path)
    (tmp_path / "type.json").write_text(json.dumps({"parameters": params,
                                                    "positives": [["E", [-1, 0]]]}))
    out = tmp_path / "out"
    assert run(["min-colouring", "--structure", str(c5), "--pattern", str(k2),
                "--type", str(tmp_path / "type.json"), "--out", str(out)]) == 2
    assert (_one_error_line(capsys)
            == "error: the type's parameters must be the pattern's vertices, each once\n")
    assert not out.exists()


@pytest.mark.parametrize("command", ["open-set", "min-colouring"])
def test_type_atom_entries_below_minus_one_are_usage_errors(tmp_path, capsys, command):
    # open-set used to name a tuple (-2, 1) of the search pattern, and
    # min-colouring to exit 0 with every vertex flagged
    c5, k2 = _c5_and_k2(tmp_path)
    (tmp_path / "type.json").write_text(json.dumps({"parameters": [0, 1],
                                                    "positives": [["E", [-2, -1]]]}))
    out = tmp_path / "out"
    where = ["--params", "0,1"] if command == "open-set" else ["--pattern", str(k2)]
    assert run([command, "--structure", str(c5), *where,
                "--type", str(tmp_path / "type.json"), "--out", str(out)]) == 2
    assert _one_error_line(capsys) == "error: type atom references a missing parameter\n"
    assert not out.exists()


@pytest.mark.parametrize("labels", [["0", "1"], 5, ["0", None, "1"], ["0", "1/0", "1"],
                                    ["0", 0.5, "1"], ["0", "one", "1"]])
def test_rational_cut_needs_one_rational_per_vertex(tmp_path, capsys, labels):
    # the first four used to exit 1 with a traceback (IndexError, TypeError,
    # TypeError, ZeroDivisionError)
    structure = tmp_path / "s.json"
    structure.write_text(json.dumps({"signature": [], "size": 3,
                                     "meta": {"rational_labels": labels}}))
    out = tmp_path / "out"
    assert run(["partition", "--structure", str(structure), "--scheme", "rational-cut",
                "--out", str(out)]) == 2
    assert (_one_error_line(capsys) == "error: rational-cut needs meta['rational_labels'], "
                                       "one rational per vertex\n")
    assert not out.exists()


def test_class_minus_point_needs_an_equivalence(tmp_path, capsys):
    # used to exit 0 with the down-set of the anchor under < as its class
    structure = _generated(tmp_path, "--id", "generic-ordered-graph", "--size", "5",
                           "--seed", "1")
    capsys.readouterr()
    out = tmp_path / "out"
    assert run(["partition", "--structure", str(structure),
                "--scheme", "class-minus-point", "--anchor", "2", "--out", str(out)]) == 2
    assert (_one_error_line(capsys)
            == "error: scheme class-minus-point needs < to be an equivalence\n")
    assert not out.exists()


def _graph_chain_and_shared_trace(tmp_path) -> tuple[Path, Path, dict]:
    """The golden chain-graphs chain, its shared presentation and the
    extraction trace of that presentation (a mono step, then a base step)."""
    chain = tmp_path / "chain"
    assert run(["build-witness", "--klass", "graphs", "--target", "k2", "--k", "2",
                "--seed", "1", "--out", str(chain)]) == 0
    top_size = read(chain / "chain.json")["levels"][-1]["structure"]["size"]
    pres = tmp_path / "shared.json"
    pres.write_text(json.dumps({"k": 2, "sets": [[v % 3, 10 + v] for v in range(top_size)]}))
    ext = tmp_path / "ext"
    assert run(["extract", "--chain", str(chain / "chain.json"),
                "--presentation", str(pres), "--out", str(ext)]) == 0
    return chain / "chain.json", pres, read(ext / "trace.json")


def _replay(tmp_path, chain: Path, pres: Path, trace: dict) -> int:
    path = tmp_path / "trace-in.json"
    path.write_text(json.dumps(trace))
    out = tmp_path / "verdict"
    code = run(["verify-trace", "--chain", str(chain), "--presentation", str(pres),
                "--trace", str(path), "--out", str(out)])
    assert read(out / "trace_verdict.json") == {"replay_ok": code == 0}
    return code


def test_verify_trace_rejects_traces_that_prove_nothing(tmp_path):
    # the empty trace and the trace cut after its mono step used to exit 0
    chain, pres, trace = _graph_chain_and_shared_trace(tmp_path)
    assert [s["case"] for s in trace["steps"]] == ["mono", "base"]
    assert _replay(tmp_path, chain, pres, trace) == 0
    assert _replay(tmp_path, chain, pres, {"steps": []}) == 1
    assert _replay(tmp_path, chain, pres, {"steps": trace["steps"][:1]}) == 1


@pytest.mark.parametrize("level", [1, 2])
def test_verify_trace_rejects_a_base_step_on_the_top_level(tmp_path, level):
    # vertices 0, 1, 2 carry {0,1}, {0,2}, {1,2}, which form no sunflower,
    # yet a one-step base trace over them used to exit 0
    chain = tmp_path / "chain"
    assert run(["build-witness", "--klass", "pure", "--target", "pure:3", "--k", "2",
                "--seed", "0", "--c", "2", "--out", str(chain)]) == 0
    pres = tmp_path / "pres.json"
    pres.write_text(json.dumps({"k": 2, "sets": [[0, 1], [0, 2], [1, 2],
                                                 [3, 4], [4, 5], [3, 5]]}))
    trace = {"steps": [{"level": level, "case": "base", "copy": [0, 1, 2]}]}
    assert _replay(tmp_path, chain / "chain.json", pres, trace) == 1


@pytest.mark.parametrize("step", [
    {"level": 2, "case": "transversal", "copy": ["a", 1]},
    {"level": 2, "case": "transversal", "copy": [None, 1]},
    {"level": "two", "case": "mono", "copy": [0, 1]},
    {"level": 2, "case": "mono", "copy": [4, 31], "shared": [1]}],
    ids=["copy-string", "copy-null", "level-string", "shared-list"])
def test_verify_trace_rejects_non_integer_steps(tmp_path, capsys, step):
    # a non-integer copy entry or a list as the shared element of the
    # trace's real mono step used to end in a TypeError traceback, exit 1
    chain, pres, _ = _graph_chain_and_shared_trace(tmp_path)
    path = tmp_path / "trace-in.json"
    path.write_text(json.dumps({"steps": [step]}))
    capsys.readouterr()
    out = tmp_path / "verdict"
    assert run(["verify-trace", "--chain", str(chain), "--presentation", str(pres),
                "--trace", str(path), "--out", str(out)]) == 2
    _one_error_line(capsys)
    assert not (out / "trace_verdict.json").exists()


def _hypergraph_file(tmp_path) -> str:
    gen_dir = tmp_path / "h"
    assert run(["hypergraph", "generate", "--n", "2", "--c", "5", "--seed", "3",
                "--out", str(gen_dir)]) == 0
    return str(gen_dir / "hypergraph.json")


@pytest.mark.parametrize("argv, message", [
    (["hypergraph", "generate", "--seed", "1"],
     "sunlab hypergraph generate: error: the following arguments are required: --n"),
    (["hypergraph", "generate", "--n", "2", "--c", "0", "--seed", "1"],
     "and c >= 1"),
    (["hypergraph", "generate", "--n", "2", "--c", "-3", "--seed", "1"],
     "and c >= 1"),
    (["build-witness", "--klass", "graphs", "--target", "k2", "--k", "2",
      "--seed", "1", "--c", "0"], "and c >= 1"),
    (["hypergraph", "generate", "--n", "2", "--seed", "3", "--c-cap", "2"],
     "sunlab: error: unrecognized arguments: --c-cap 2"),
    (["build-witness", "--klass", "graphs", "--target", "k2", "--k", "2",
      "--seed", "1", "--c-cap", "8"], "sunlab: error: unrecognized arguments: --c-cap 8"),
    (["hypergraph", "girth", "--input", "{h}", "--cap", "1"], "cap must be >= 2"),
    (["hypergraph", "girth", "--input", "{h}", "--cap", "-5"], "cap must be >= 2"),
    (["hypergraph", "adversary", "--input", "{h}", "--budget", "0"],
     "budget must be >= 1"),
    (["hypergraph", "adversary", "--input", "{h}", "--budget", "-3"],
     "budget must be >= 1"),
    (["hypergraph", "adversary", "--input", "{h}", "--s", "0"], "s must be >= 1"),
    (["hypergraph", "adversary", "--input", "{h}", "--s", "-2"], "s must be >= 1"),
    (["hypergraph", "adversary", "--input", "{h}", "--mode", "random"],
     "sunlab: error: unrecognized arguments: --mode random"),
    (["hypergraph", "adversary", "--input", "{h}", "--trials", "5"],
     "sunlab: error: unrecognized arguments: --trials 5")],
    ids=["generate-without-n", "c-zero", "c-negative", "build-witness-c-zero",
         "c-cap", "build-witness-c-cap", "girth-cap-1",
         "girth-cap-negative", "adversary-budget-zero", "adversary-budget-negative",
         "adversary-s-zero", "adversary-s-negative", "adversary-mode", "adversary-trials"])
def test_hypergraph_inputs_out_of_range_are_usage_errors(tmp_path, capsys, argv, message):
    # the c ones used to end in a TypeError or ZeroDivisionError traceback
    # with exit 1, the s ones in exit 4 and an error.json, the budget ones
    # in exit 3 and a girth cap below 2 in exit 0; the adversary's random
    # mode and its --trials are gone, and so is --c-cap
    h = _hypergraph_file(tmp_path) if "{h}" in argv else ""
    capsys.readouterr()
    out = tmp_path / "out"
    assert run([a.format(h=h) for a in argv] + ["--out", str(out)]) == 2
    if ": error: " in message:
        # argparse prints the usage before its one error line
        *usage, line = capsys.readouterr().err.splitlines()
        assert usage[0].startswith("usage: sunlab") and line == message
    else:
        assert message in _one_error_line(capsys)
    assert not out.exists()


def test_a_manifest_records_only_what_its_action_reads(tmp_path, capsys):
    # girth used to take and record every option of every action
    h = _hypergraph_file(tmp_path)
    out = tmp_path / "girth"
    assert run(["hypergraph", "girth", "--input", h, "--cap", "3", "--out", str(out)]) == 0
    manifest = read(out / "hypergraph-girth-manifest.json")
    assert manifest["parameters"] == {"action": "girth", "cap": 3,
                                      "command": "hypergraph", "input": h}
    assert manifest["seed"] is None
    capsys.readouterr()
    seeded = tmp_path / "seeded"
    assert run(["hypergraph", "girth", "--input", h, "--seed", "9",
                "--out", str(seeded)]) == 2
    assert capsys.readouterr().err.endswith(
        "sunlab: error: unrecognized arguments: --seed 9\n")
    assert not seeded.exists()


def test_hypergraph_generate_manifest_records_what_it_reads(tmp_path):
    # c_cap used to be recorded as 32 beside --c, which it never read
    assert run(["hypergraph", "generate", "--n", "2", "--c", "5", "--seed", "3",
                "--out", str(tmp_path)]) == 0
    assert read(tmp_path / "hypergraph-generate-manifest.json")["parameters"] == {
        "action": "generate", "c": 5, "command": "hypergraph", "g": 4, "n": 2, "s": 1,
        "seed": 3}


@pytest.mark.parametrize("action, options", [
    ("generate", ["--n", "--s", "--g", "--c", "--seed"]),
    ("girth", ["--input", "--cap"]),
    ("adversary", ["--input", "--s", "--budget"])], ids=["generate", "girth", "adversary"])
def test_each_hypergraph_action_has_its_own_options(action, options):
    help_options = re.findall(r"^  (-[-\w]+)", _PARSERS[("hypergraph", action)].format_help(),
                              re.MULTILINE)
    assert help_options == ["-h", "--out", *options]


def test_an_input_path_that_is_a_directory_is_a_usage_error(tmp_path, capsys):
    # used to end in an IsADirectoryError traceback with exit 1
    out = tmp_path / "out"
    assert run(["hypergraph", "girth", "--input", str(tmp_path), "--out", str(out)]) == 2
    assert "Is a directory" in _one_error_line(capsys)
    assert not out.exists()


@pytest.mark.parametrize("argv, code", [
    (["gen", "--id", "knfree:3", "--size", "4", "--seed", "1"], 0),
    (["enumerate-presentations", "--size", "30", "--k", "2"], 3)],
    ids=["ok", "budget"])
@pytest.mark.parametrize("out", ["file", "file/sub"])
def test_out_that_is_not_a_directory_is_a_usage_error(tmp_path, capsys, argv, code, out):
    # used to end in a FileExistsError traceback with exit 1 at the first
    # write; the exits 3 and 4 raised it again while writing error.json
    (tmp_path / "file").write_text("kept")
    assert run(argv + ["--out", str(tmp_path / out)]) == 2
    assert "file is not a directory" in _one_error_line(capsys)
    assert (tmp_path / "file").read_text() == "kept"
    assert run(argv + ["--out", str(tmp_path / "dir")]) == code


def _parsers(parser: argparse.ArgumentParser, path=()):
    """(path, parser) for each command and each action of a command, the
    path being the words that name it on the command line."""
    for a in parser._actions:
        if isinstance(a, argparse._SubParsersAction):
            for name, p in a.choices.items():
                yield [*path, name], p
                yield from _parsers(p, [*path, name])


_PARSERS = {tuple(path): p for path, p in _parsers(build_parser())}


def _valid_argv(path: list) -> list:
    """The command with a value for each required option and group; a
    command with actions gets its first action and that action's values."""
    p = _PARSERS[tuple(path)]
    required = [a for a in p._actions if a.required]
    required += [g._group_actions[0] for g in p._mutually_exclusive_groups if g.required]
    argv = list(path)
    for a in required:
        if isinstance(a, argparse._SubParsersAction):
            argv += _valid_argv([*path, next(iter(a.choices))])[len(path):]
        else:
            argv += a.option_strings[:1] + [a.choices[0] if a.choices else "1"]
    return argv


def _with_bad_choice(path: list) -> list:
    """One argv per option or positional with choices, given a value
    outside them."""
    argv = _valid_argv(path)
    cases = []
    for a in _PARSERS[tuple(path)]._actions:
        if a.choices and a.option_strings:
            cases.append(argv + [a.option_strings[0], "no-such-choice"])
        elif a.choices:
            first = next(iter(a.choices))
            cases.append([v if v != first else "no-such-choice" for v in argv])
    return cases


def _usage_cases():
    yield "no-command", []
    yield "unknown-command", ["no-such-command"]
    yield "top-help", ["--help"]
    for path in _PARSERS:
        name = "-".join(path)
        yield f"{name}-help", [*path, "--help"]
        yield f"{name}-missing-required", list(path)
        yield f"{name}-extra-argument", _valid_argv(list(path)) + ["--no-such-option"]
        for i, argv in enumerate(_with_bad_choice(list(path))):
            yield f"{name}-bad-choice-{i}", argv


_USAGE_CASES = dict(_usage_cases())


@pytest.mark.parametrize("case", list(_USAGE_CASES))
def test_usage_output_is_that_of_the_full_parser(tmp_path, capsys, case):
    # run builds only the named command's parser; what it prints and
    # returns must be what the parser with every command gives
    argv = _USAGE_CASES[case] + ["--out", str(tmp_path / "out")]
    with pytest.raises(SystemExit) as e:
        build_parser().parse_args(argv)
    expected = (e.value.code, capsys.readouterr())
    assert (run(argv), capsys.readouterr()) == expected
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("argv, message", [
    ([], "the following arguments are required: command"),
    (["no-such-command"], "argument command: invalid choice: 'no-such-command'")])
def test_command_errors_name_the_command_argument(capsys, argv, message):
    assert run(argv) == 2
    *usage, error = capsys.readouterr().err.splitlines()
    assert " ".join(usage).split() == ["usage:", "sunlab", "[-h]",
                                       "{" + ",".join(COMMANDS) + "}", "..."]
    assert error.startswith(f"sunlab: error: {message}")


@pytest.mark.parametrize("path", list(_PARSERS), ids="-".join)
def test_one_command_parser_matches_the_full_parser(path):
    def actions(p):
        return [(a.option_strings, a.dest, a.default, a.required, a.nargs,
                 {k: actions(q) for k, q in a.choices.items()}
                 if isinstance(a, argparse._SubParsersAction) else a.choices)
                for a in p._actions]

    # the parser run builds for the path: the command's, and of its actions the named one
    one = {tuple(q): p for q, p in _parsers(build_parser(list(path)))}[path]
    full = _PARSERS[path]
    assert actions(one) == actions(full)
    assert one.format_help() == full.format_help()
    assert one.format_usage() == full.format_usage()


def test_a_job_builds_the_top_parser_and_one_subparser(tmp_path, monkeypatch):
    built = []
    init = argparse.ArgumentParser.__init__

    def counting_init(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
    assert run(["gen", "--id", "knfree:3", "--size", "4", "--seed", "1",
                "--out", str(tmp_path)]) == 0
    assert built == ["sunlab", "sunlab gen"]
    built.clear()
    # of a command with actions, only the named action's parser too
    assert run(["hypergraph", "generate", "--n", "2", "--c", "5", "--seed", "3",
                "--out", str(tmp_path)]) == 0
    assert built == ["sunlab", "sunlab hypergraph", "sunlab hypergraph generate"]
    built.clear()
    assert run([]) == 2
    assert len(built) == 1 + len(_PARSERS)


_BAD_STRUCTURES = {
    "size": {"signature": [{"name": "E", "arity": 2}], "size": 2.5},
    "tuple-entry": {"signature": [{"name": "E", "arity": 2}], "size": 2,
                    "relations": {"E": [[0, 1.7], [1, 0]]}},
    "arity": {"signature": [{"name": "E", "arity": 2.5}], "size": 2,
              "relations": {"E": [[0, 1], [1, 0]]}}}


@pytest.mark.parametrize("field", list(_BAD_STRUCTURES))
def test_open_set_rejects_a_structure_with_a_non_integer_number(tmp_path, capsys, field):
    # a float size ended in a traceback, exit 1; a float entry or arity was truncated
    structure = tmp_path / "s.json"
    structure.write_text(json.dumps(_BAD_STRUCTURES[field]))
    (tmp_path / "type.json").write_text(json.dumps({"parameters": [0], "positives": []}))
    out = tmp_path / "out"
    assert run(["open-set", "--structure", str(structure), "--params", "0",
                "--type", str(tmp_path / "type.json"), "--out", str(out)]) == 2
    assert "expected a JSON integer" in _one_error_line(capsys)
    assert not out.exists()


def test_verify_cert_rejects_float_petals(tmp_path, capsys):
    # float petals ended in a traceback, exit 1
    chain = tmp_path / "chain"
    assert run(["build-witness", "--klass", "graphs", "--target", "k2", "--k", "2",
                "--seed", "1", "--out", str(chain)]) == 0
    top = read(chain / "chain.json")["levels"][-1]["structure"]
    (tmp_path / "top.json").write_text(json.dumps(top))
    pres = tmp_path / "pres.json"
    pres.write_text(json.dumps({"k": 2, "sets": [[2 * v, 2 * v + 1] for v in range(top["size"])]}))
    ext = tmp_path / "ext"
    assert run(["extract", "--chain", str(chain / "chain.json"), "--presentation", str(pres),
                "--out", str(ext)]) == 0
    cert = read(ext / "certificate.json")
    cert["petals"] = [p + 0.0 for p in cert["petals"]]
    (tmp_path / "cert.json").write_text(json.dumps(cert))
    capsys.readouterr()
    out = tmp_path / "ver"
    assert run(["verify-cert", "--cert", str(tmp_path / "cert.json"), "--target", "k2",
                "--structure", str(tmp_path / "top.json"), "--presentation", str(pres),
                "--out", str(out)]) == 2
    assert "expected a JSON integer" in _one_error_line(capsys)
    assert not out.exists()


def test_sunflower_check_rejects_float_set_elements(tmp_path, capsys):
    # {0.5, 1.2} was read as {0, 1}, exit 0
    structure = _generated(tmp_path, "--id", "pure-set", "--size", "4", "--seed", "1")
    pres = tmp_path / "pres.json"
    pres.write_text(json.dumps({"k": 2, "sets": [[0.5, 1.2], [2, 3], [4, 5], [6, 7]]}))
    capsys.readouterr()
    out = tmp_path / "chk"
    assert run(["sunflower-check", "--structure", str(structure), "--presentation", str(pres),
                "--target", "pure:2", "--out", str(out)]) == 2
    assert "expected a JSON integer" in _one_error_line(capsys)
    assert not out.exists()


def test_hypergraph_girth_rejects_float_edges(tmp_path, capsys):
    # float edge entries were truncated, exit 0
    path = Path(_hypergraph_file(tmp_path))
    data = read(path)
    data["edges"][0] = [x + 0.25 for x in data["edges"][0]]
    path.write_text(json.dumps(data))
    capsys.readouterr()
    out = tmp_path / "girth"
    assert run(["hypergraph", "girth", "--input", str(path), "--cap", "3",
                "--out", str(out)]) == 2
    assert "expected a JSON integer" in _one_error_line(capsys)
    assert not out.exists()


def test_encode_rejects_float_colours(tmp_path, capsys):
    # 0.5 was read as colour 0 and 1.7 as 1, exit 0
    structure = _generated(tmp_path, "--id", "pure-set", "--size", "4", "--seed", "1")
    (tmp_path / "col.json").write_text(json.dumps({"values": [0, 0.5, 1.7, 2]}))
    capsys.readouterr()
    out = tmp_path / "enc"
    assert run(["encode", "--structure", str(structure),
                "--colouring", str(tmp_path / "col.json"), "--out", str(out)]) == 2
    assert "expected a JSON integer" in _one_error_line(capsys)
    assert not out.exists()


@pytest.mark.parametrize("qtype", [
    {"parameters": [0.9, 1], "positives": []},
    {"parameters": [0, 1], "positives": [["E", [-1, 0.5]]]}],
    ids=["parameter", "atom-entry"])
def test_open_set_rejects_float_type_numbers(tmp_path, capsys, qtype):
    # a float parameter was truncated and a float atom entry matched no
    # vertex, both exit 0
    structure = _generated(tmp_path, "--id", "random-graph", "--size", "4", "--seed", "1")
    (tmp_path / "type.json").write_text(json.dumps(qtype))
    capsys.readouterr()
    out = tmp_path / "out"
    assert run(["open-set", "--structure", str(structure), "--params", "0,1",
                "--type", str(tmp_path / "type.json"), "--out", str(out)]) == 2
    assert "expected a JSON integer" in _one_error_line(capsys)
    assert not out.exists()


def _drop_parts(chain):
    del chain["levels"][1]["parts"]


def _nested_part(chain):
    chain["levels"][1]["parts"][0] = [[]]


def _no_levels(chain):
    chain["levels"] = []


def _one_part_short(chain):
    chain["levels"][1]["parts"].pop()


def _string_colourings(chain):
    chain["levels"][1]["colourings"] = "x"


def _first_level_parts(chain):
    chain["levels"][0]["parts"] = [[0, 1, 2]]


@pytest.mark.parametrize("command, mutate, message", [
    ("extract", _drop_parts, "expected a JSON list, got None"),
    ("extract", _nested_part, "expected a JSON integer, got []"),
    ("verify-trace", _no_levels, "a chain needs at least one level"),
    ("extract", _one_part_short, "parts must split its vertices, one part per vertex"),
    ("extract", _string_colourings, "expected a JSON integer, got 'x'"),
    ("extract", _first_level_parts, "chain level 1: parts must be null")],
    ids=["parts-missing", "part-nested", "no-levels", "part-short", "colourings-string",
         "first-level-parts"])
def test_malformed_chains_exit_2(tmp_path, capsys, command, mutate, message):
    # the first three ended in a traceback: a TypeError in extraction for
    # both parts mutations, an IndexError in WitnessChain.top for the empty
    # chain; a missing part ended in the bare KeyError line "error: 64";
    # the last two exited 0
    built = tmp_path / "chain"
    assert run(["build-witness", "--klass", "pure", "--target", "pure:3", "--k", "2",
                "--seed", "1", "--out", str(built)]) == 0
    chain = read(built / "chain.json")
    top_size = chain["levels"][-1]["structure"]["size"]
    mutate(chain)
    (tmp_path / "chain.json").write_text(json.dumps(chain))
    pres = tmp_path / "pres.json"
    pres.write_text(json.dumps({"k": 2, "sets": [[2 * v, 2 * v + 1] for v in range(top_size)]}))
    (tmp_path / "trace.json").write_text(json.dumps({"steps": []}))
    extra = ["--trace", str(tmp_path / "trace.json")] if command == "verify-trace" else []
    capsys.readouterr()
    out = tmp_path / "out"
    assert run([command, "--chain", str(tmp_path / "chain.json"), "--presentation", str(pres),
                *extra, "--out", str(out)]) == 2
    assert message in _one_error_line(capsys)
    assert not out.exists()


def test_partition_rejects_a_relation_named_by_a_non_string(tmp_path, capsys):
    # the name null was read as the relation "None", exit 0
    structure = tmp_path / "s.json"
    structure.write_text(json.dumps({"signature": [{"name": None, "arity": 2}], "size": 3,
                                     "relations": {}}))
    out = tmp_path / "out"
    assert run(["partition", "--structure", str(structure), "--scheme", "neighbourhood",
                "--anchor", "0", "--out", str(out)]) == 2
    assert "expected a JSON string, got None" in _one_error_line(capsys)
    assert not out.exists()


def test_open_set_rejects_a_type_atom_named_by_a_non_string(tmp_path, capsys):
    # the name 1 was read as "1" and rejected as not fitting the signature
    structure = _generated(tmp_path, "--id", "random-graph", "--size", "4", "--seed", "1")
    (tmp_path / "type.json").write_text(json.dumps({"parameters": [0, 1],
                                                    "positives": [[1, [-1, 0]]]}))
    capsys.readouterr()
    out = tmp_path / "out"
    assert run(["open-set", "--structure", str(structure), "--params", "0,1",
                "--type", str(tmp_path / "type.json"), "--out", str(out)]) == 2
    assert "expected a JSON string, got 1" in _one_error_line(capsys)
    assert not out.exists()


_SIG_E = [{"name": "E", "arity": 2}]
_NOT_LISTS = {
    # each was read as an empty list (exit 0) or through its keys
    "signature": ({"signature": {}, "size": 3, "relations": {}}, "got {}"),
    "tuple-list": ({"signature": _SIG_E, "size": 3, "relations": {"E": {}}}, "got {}"),
    "tuple-list-keys": ({"signature": _SIG_E, "size": 3, "relations": {"E": {"a": 1}}},
                        "got {'a': 1}"),
    "tuple": ({"signature": _SIG_E, "size": 3, "relations": {"E": [[0, 1], {"1": 0}]}},
              "got {'1': 0}"),
}


@pytest.mark.parametrize("field", list(_NOT_LISTS))
def test_partition_rejects_a_structure_field_that_is_not_a_list(tmp_path, capsys, field):
    doc, got = _NOT_LISTS[field]
    structure = tmp_path / "s.json"
    structure.write_text(json.dumps(doc))
    out = tmp_path / "out"
    assert run(["partition", "--structure", str(structure), "--scheme", "neighbourhood",
                "--anchor", "0", "--out", str(out)]) == 2
    assert f"expected a JSON list, {got}" in _one_error_line(capsys)
    assert not out.exists()


def _hypergraph_argv(tmp_path, action, *extra, **doc):
    path = tmp_path / "h.json"
    path.write_text(json.dumps({"n": 2, "parts": [[0, 1], [2, 3]], "edges": [[0, 2]],
                                "meta": {}, **doc}))
    return ["hypergraph", action, "--input", str(path), *extra]


def _graph_file(tmp_path) -> Path:
    path = tmp_path / "s.json"
    path.write_text(json.dumps({"signature": _SIG_E, "size": 2,
                                "relations": {"E": [[0, 1], [1, 0]]}}))
    return path


def _encode_argv(tmp_path):
    (tmp_path / "c.json").write_text(json.dumps({"values": {}}))
    return ["encode", "--structure", str(_graph_file(tmp_path)),
            "--colouring", str(tmp_path / "c.json")]


def _sunflower_check_argv(tmp_path):
    (tmp_path / "p.json").write_text(json.dumps({"k": 2, "sets": {}}))
    return ["sunflower-check", "--structure", str(_graph_file(tmp_path)),
            "--presentation", str(tmp_path / "p.json"), "--target", "k2"]


def _verify_trace_argv(tmp_path):
    built = tmp_path / "chain"
    assert run(["build-witness", "--klass", "pure", "--target", "pure:3", "--k", "2",
                "--seed", "1", "--out", str(built)]) == 0
    top_size = read(built / "chain.json")["levels"][-1]["structure"]["size"]
    (tmp_path / "p.json").write_text(
        json.dumps({"k": 2, "sets": [[2 * v, 2 * v + 1] for v in range(top_size)]}))
    (tmp_path / "t.json").write_text(
        json.dumps({"steps": [{"level": 2, "case": "mono", "copy": {}}]}))
    return ["verify-trace", "--chain", str(built / "chain.json"),
            "--presentation", str(tmp_path / "p.json"), "--trace", str(tmp_path / "t.json")]


@pytest.mark.parametrize("argv", [
    lambda tmp: _hypergraph_argv(tmp, "girth", edges={}),
    lambda tmp: _hypergraph_argv(tmp, "adversary", "--s", "1", edges={}),
    lambda tmp: _hypergraph_argv(tmp, "girth", parts=[{}, {}]),
    _encode_argv, _sunflower_check_argv, _verify_trace_argv],
    ids=["edges-girth", "edges-adversary", "parts", "colouring-values",
         "presentation-sets", "trace-copy"])
def test_an_object_where_a_list_belongs_is_a_usage_error(tmp_path, capsys, argv):
    # {} was read as an empty list: girth exited 0 with girth null, the
    # adversary reported a verified counterexample, and parts of {} made
    # every edge use an unknown vertex
    args = argv(tmp_path)
    capsys.readouterr()
    out = tmp_path / "out"
    assert run(args + ["--out", str(out)]) == 2
    assert "expected a JSON list, got {}" in _one_error_line(capsys)
    assert not out.exists()
