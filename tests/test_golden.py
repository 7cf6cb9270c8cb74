"""Golden lock: seeded CLI commands must keep producing byte-identical
outputs, whatever the hash seed.

Each command runs in its own interpreter under PYTHONHASHSEED 1 and 2.
For every command the test records its exit code and one sha256 over the
names and bytes of its output files; manifests are left out because they
record wall times and paths.  A change that alters an output on purpose
re-baselines the table by running this file as a script and says so.
"""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src"


def run_on_clock(code, seconds):
    """Run `code` in its own interpreter on the package source and fail the
    calling test if it exits non-zero or runs past `seconds`, so a stall
    fails the test instead of hanging the suite."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    try:
        proc = subprocess.run([sys.executable, "-c", code], env=env,
                              capture_output=True, text=True, timeout=seconds)
    except subprocess.TimeoutExpired:
        pytest.fail(f"the run went past its {seconds} s clock")
    assert proc.returncode == 0, proc.stderr

# (label, argv); "{x}" is replaced by the output directory of command x
# and "{tmp}" by the scratch directory holding the input files.  The two
# presentations of the 2-chain's top level use disjoint 2-sets
# (transversal case) and 2-sets sharing small elements (monochromatic case).
COMMANDS = [
    ("h2", ["hypergraph", "generate", "--n", "2", "--s", "1", "--g", "4",
            "--seed", "7"]),
    ("h2c5", ["hypergraph", "generate", "--n", "2", "--c", "5", "--seed", "3"]),
    ("h2c6", ["hypergraph", "generate", "--n", "2", "--c", "6", "--seed", "1"]),
    ("h3raw", ["hypergraph", "generate", "--n", "3", "--g", "2", "--c", "6",
               "--seed", "3"]),
    ("h3", ["hypergraph", "generate", "--n", "3", "--s", "1", "--c", "16",
            "--seed", "3"]),
    ("h3s2", ["hypergraph", "generate", "--n", "3", "--s", "2", "--c", "16",
              "--seed", "5"]),
    # the extract chain's size: the default c = 32, 96 vertices
    ("h3c32", ["hypergraph", "generate", "--n", "3", "--seed", "2"]),
    ("h4c6", ["hypergraph", "generate", "--n", "4", "--c", "6", "--seed", "1"]),
    ("paste-h3s2", ["paste", "--hypergraph", "{h3s2}/hypergraph.json",
                    "--target", "p3", "--klass", "knfree:3"]),
    ("girth-h2-cap", ["hypergraph", "girth", "--input", "{h2}/hypergraph.json",
                      "--cap", "3"]),
    ("girth-h3raw", ["hypergraph", "girth", "--input", "{h3raw}/hypergraph.json"]),
    ("girth-h3", ["hypergraph", "girth", "--input", "{h3}/hypergraph.json"]),
    ("girth-h3c32", ["hypergraph", "girth", "--input", "{h3c32}/hypergraph.json",
                     "--cap", "3"]),
    ("adversary", ["hypergraph", "adversary", "--input",
                   "{h2c5}/hypergraph.json", "--s", "2"]),
    # 12 vertices and no counterexample at s=1
    ("adversary-survives", ["hypergraph", "adversary", "--input",
                            "{h2c6}/hypergraph.json", "--s", "1"]),
    # a hand-written file: edges shuffled, some reversed and one repeated
    ("girth-shuffled", ["hypergraph", "girth", "--input", "{tmp}/h-shuffled.json"]),
    ("adversary-shuffled", ["hypergraph", "adversary", "--input",
                            "{tmp}/h-shuffled.json", "--s", "1"]),
    ("paste-shuffled", ["paste", "--hypergraph", "{tmp}/h-shuffled.json",
                        "--target", "k2", "--klass", "knfree:3"]),
    ("chain-graphs", ["build-witness", "--klass", "graphs", "--target", "k2",
                      "--k", "2", "--seed", "1"]),
    ("chain-pure", ["build-witness", "--klass", "pure", "--target", "pure:3",
                    "--k", "2", "--seed", "0", "--c", "2"]),
    ("extract-disjoint", ["extract", "--chain", "{chain-graphs}/chain.json",
                          "--presentation", "{tmp}/disjoint.json"]),
    ("extract-shared", ["extract", "--chain", "{chain-graphs}/chain.json",
                        "--presentation", "{tmp}/shared.json"]),
    ("trace-shared", ["verify-trace", "--chain", "{chain-graphs}/chain.json",
                      "--presentation", "{tmp}/shared.json",
                      "--trace", "{extract-shared}/trace.json"]),
    ("graph6", ["gen", "--id", "random-graph", "--size", "6", "--seed", "4"]),
    ("open-set", ["open-set", "--structure", "{graph6}/structure.json",
                  "--params", "0", "--type", "{tmp}/type.json"]),
    ("gen-knfree", ["gen", "--klass", "knfree:3", "--size", "20", "--seed", "5"]),
    ("gen-named-knfree", ["gen", "--id", "knfree:3", "--size", "60", "--seed", "11"]),
    ("gen-named-rb", ["gen", "--id", "rb-bichrome", "--size", "40", "--seed", "4"]),
    ("gen-named-poset", ["gen", "--id", "generic-poset", "--size", "30", "--seed", "2"]),
    ("gen-oriented", ["gen", "--klass", "oriented", "--size", "12",
                      "--seed", "5"]),
    ("gen-f-free", ["gen", "--klass", "f-free-3hyper", "--size", "8",
                    "--seed", "5"]),
    ("gen-two-colour", ["gen", "--klass", "@{tmp}/two-colour.json", "--size", "10",
                        "--seed", "7"]),
    ("partition-knfree", ["partition", "--structure", "{gen-knfree}/structure.json",
                          "--scheme", "neighbourhood", "--anchor", "0",
                          "--klass", "knfree:3", "--probes", "k2",
                          "--base-bound", "1"]),
    ("partition-f-free", ["partition", "--structure", "{gen-f-free}/structure.json",
                          "--scheme", "neighbourhood", "--anchor", "0",
                          "--klass", "f-free-3hyper", "--probes", "hyperedge3",
                          "--base-bound", "2"]),
    ("partition-csv", ["partition", "--structure", "{gen-knfree}/structure.json",
                       "--scheme", "neighbourhood", "--anchor", "0",
                       "--klass", "knfree:3", "--probes", "k2",
                       "--base-bound", "1", "--format", "csv"]),
    # the classes workload's scale: a 200-vertex structure and its partition
    ("gen-named-knfree-200", ["gen", "--id", "knfree:3", "--size", "200",
                              "--seed", "7"]),
    ("partition-knfree-200", ["partition", "--structure",
                              "{gen-named-knfree-200}/structure.json",
                              "--scheme", "neighbourhood", "--anchor", "0",
                              "--klass", "knfree:3", "--probes", "k2",
                              "--base-bound", "1"]),
    # bases of two vertices: a pinned search per admissible type and base
    ("partition-knfree-b2", ["partition", "--structure",
                             "{gen-named-knfree}/structure.json",
                             "--scheme", "neighbourhood", "--anchor", "0",
                             "--klass", "knfree:3", "--probes", "k2",
                             "--base-bound", "2"]),
    # the type adjacent to the edge's first end only, over every embedding of K2
    ("min-colouring", ["min-colouring", "--structure",
                       "{gen-named-knfree}/structure.json",
                       "--pattern", "{tmp}/k2.json", "--type", "{tmp}/k2-type.json"]),
    ("gen-equivalence", ["gen", "--id", "equivalence-omega", "--size", "9",
                         "--seed", "1"]),
    ("partition-class-minus-point", ["partition", "--structure",
                                     "{gen-equivalence}/structure.json",
                                     "--scheme", "class-minus-point",
                                     "--anchor", "0", "--klass", "graphs",
                                     "--probes", "k2", "--base-bound", "2"]),
    ("3dap-graphs", ["check-3dap", "--klass", "graphs", "--bound", "2"]),
    ("3dap-knfree", ["check-3dap", "--klass", "knfree:3", "--bound", "1"]),
    ("3dap-rb", ["check-3dap", "--klass", "rb-bichrome", "--bound", "1"]),
    ("3dap-oriented", ["check-3dap", "--klass", "oriented", "--bound", "1"]),
    ("3dap-k4h3free", ["check-3dap", "--klass", "k4h3free", "--bound", "1"]),
    ("3dap-budget", ["check-3dap", "--klass", "graphs", "--bound", "2",
                     "--budget", "255"]),
    ("3dap-k4h3free-budget", ["check-3dap", "--klass", "k4h3free", "--bound", "3"]),
    ("witness-7-3", ["verify-witness", "--b-size", "3",
                     "--k", "2", "--c-size", "7"]),
    ("witness-6-3", ["verify-witness", "--b-size", "3",
                     "--k", "2", "--c-size", "6"]),
    ("witness-6-3-random", ["verify-witness", "--b-size", "3", "--c-size", "6",
                            "--k", "2", "--mode", "random", "--seed", "5"]),
    ("witness-10-4-random", ["verify-witness", "--b-size", "4", "--c-size", "10",
                             "--k", "2", "--mode", "random", "--seed", "1"]),
    ("witness-p3", ["verify-witness", "--target", "@{tmp}/p3.json",
                    "--witness", "{tmp}/p3-witness.json", "--k", "2"]),
    ("witness-p3-minus-8", ["verify-witness", "--target", "@{tmp}/p3.json",
                            "--witness", "{tmp}/p3-witness-minus-8.json", "--k", "2"]),
    ("enumerate", ["enumerate-presentations", "--size", "4", "--k", "3"]),
    # one empty family, a [1, 3, 1] array and 794 families of five 2-sets
    ("enumerate-0-2", ["enumerate-presentations", "--size", "0", "--k", "2"]),
    ("enumerate-3-1", ["enumerate-presentations", "--size", "3", "--k", "1"]),
    ("enumerate-5-2", ["enumerate-presentations", "--size", "5", "--k", "2"]),
]

EXPECTED = {
    "h2": [0, "6d58e93abccad5992120c710c4c4f472ae4bf15c7be964b022618fde07140195"],
    "h2c5": [0, "0b0e31a2740193695492fb1caae1ab45da8c43aac438576cb509fa9c3c1b30d2"],
    "h2c6": [0, "50141d55e9754aabea467779e71532baee6824648d9b2e8cdd54a6c5988ab24a"],
    "h3raw": [0, "1efd52e2673fbf3bc9204ab4a107d582e68e1b4040910ade6f6f396c03cdc03b"],
    "h3": [0, "352beed92c04835ac7f5e15fe3ea0ad2ffe5e4b8f7fa9045618b75c3964eba41"],
    "h3s2": [0, "80393072f6aa9fc67a7af9df35da40a04bfc9742448a230b4027b4ff3853769e"],
    "h3c32": [0, "d3c74b701edc70977d014dfb90c2a287bb50673780f1f2d1c1fa4fd2fc9f0258"],
    "h4c6": [0, "28c375a3fe6786f4d639052a06e505f4ccaebc82a3d08be973717eb383c9dbd0"],
    "paste-h3s2": [0, "9bc5a7ae5e95227e33e0e1a386d7d812ba3a99de17177b8600fb04f289e450c2"],
    "girth-h2-cap": [0, "088d5b278a990e552b8841b32e2e3484278596720747ddcb86cc979bdabb2301"],
    "girth-h3raw": [0, "fe3fdcda62e605a74d94f158e68d79b104a07b2f5aff72b9d0853b6f15aa8915"],
    "girth-h3": [0, "bbb9dffcef1c95742b0f76caecd9482b864c9412555c61c61151b6548fa2e61e"],
    "girth-h3c32": [0, "088d5b278a990e552b8841b32e2e3484278596720747ddcb86cc979bdabb2301"],
    "adversary": [1, "aa8428cfb9a48a56e0ae4621e94343d1a202c4dc2b0c52374b30f2629ecf3ce8"],
    "adversary-survives": [0, "9541bd48d8fcdc6026d91a60fdd80a2711683186f67843e19158f78cf4bd7fc4"],
    "girth-shuffled": [0, "bbb9dffcef1c95742b0f76caecd9482b864c9412555c61c61151b6548fa2e61e"],
    "adversary-shuffled": [1, "f3911fa6adcf8597fadd27bce3672df9957bf30f90c2824acedcde7ec132212f"],
    "paste-shuffled": [0, "4428066c73ea22f863f598d7690ad9b090f36977af6e9f42582ef23daa0be0b5"],
    "chain-graphs": [0, "22a737dfa0029daef6e9d43b03e1e0612641a231f4e772d28cbb8df410ca57b8"],
    "chain-pure": [0, "c81bec69a6303d9f138a4bdc845247e6b95de778ecf8fdee8d4c1a33c123ae7c"],
    "extract-disjoint": [0, "7c3490907ed5a936a0f15b4e6bb8e3cfff9bab61e81667c70ec3f84807b4c216"],
    "extract-shared": [0, "ae9089356756198d744fc9d62027589286d907e84e3f7fb790624fdf4bb2205b"],
    "trace-shared": [0, "eb79e4966bf87304e356bd7f64e71158360a7f75e91ce6f34f7449f27d2cc141"],
    "graph6": [0, "0bdf0977fb852ca6ebc85820db882448ecb124d30a6eec81439cbf67b3f0b7dc"],
    "open-set": [0, "5d46683cf24ff9ec5f2810662ec8850a46a6ddaef3ef7fba1db73bf4bdfdca31"],
    "gen-knfree": [0, "740f7ebbc69948edbffbefdb48d7698e776d03f84c280104be2fc617575ac169"],
    "gen-named-knfree": [0, "a09bb3b32e881e7b0e3dd6bebf9ca63d5e601c4b85d66464876f968fc1e95c08"],
    "gen-named-rb": [0, "00d117ef575dd2f2bb29b9878e57cfdcf24e3757419634da8af6506f47e17adf"],
    "gen-named-poset": [0, "7033316abcfe50af4ac6cda51088e0ec5bdba49c0a2a51a77224c547dbcd82c6"],
    "gen-oriented": [0, "d100835f854b3b08ec9647351717bc94502c03b38f767e77291dfe5312fc2406"],
    "gen-f-free": [0, "09db7ca4d7a324107da06c45407412e64d48c67d2c68984071c8493a6c25a0ae"],
    "gen-two-colour": [0, "079945e5928a2aaada9e32a0d997b1752fa4debf194e4d0e580704c67cd95b53"],
    "partition-knfree": [0, "bd14f2f28ee71d90436e18f5acd587867982d0623af76efca7bfeba80974f1ec"],
    "partition-f-free": [0, "03f1ede0e4ed5cc2feda797d17fee1dec465cd185c19b5e0a458f39971522a61"],
    "partition-csv": [0, "5eb182d2f0b8c41a0a28e1cd72b18ce0c3a0b87665b9d517094e6969eca24edb"],
    "gen-named-knfree-200": [0, "b45ab80d9875e8feaf522d87e7e89791ac661d2ba55aa15e30c7621abf5065f7"],
    "partition-knfree-200": [0, "104600d5d2479552abdbdaa1c991bcf88b4594a5b859d2fe39013fbf25fa2669"],
    "partition-knfree-b2": [0, "3297ee2a5a0c1e2fc7bdeac300c4a5183230b4dca8fc52b435e0e688a6a979c0"],
    "min-colouring": [0, "1d07bd60d82b1370e6b84527e5ba4f7d2532f06700ba3b4cc4bc66f503842e94"],
    "gen-equivalence": [0, "ad55e66d6262480fe4933dfefd6f4a0f281332ee68e36f258d1bfe0ed042bd4c"],
    "partition-class-minus-point": [0, "158337dbdafb811ec1730e8d6777ae11d3958b43c47e2b713296471eafaeafa2"],
    "3dap-graphs": [0, "d4910e28fd25681ce349c392c0549bb558e27a95ca4a2e2f95e77a21a07f944b"],
    "3dap-knfree": [1, "bcb34b8c1ca64d194afa21ceec91961e6f05f9e7a629a9e684ed5c1f3eb723f3"],
    "3dap-rb": [1, "0bbebc5d90a2f4a932fac7ba8779ecb71e01c1d01ff1cd4df8c92730275e2f13"],
    "3dap-oriented": [0, "52551f576dbd9b511ea3159afe64ef9616714ed36a44e253f5585ec6147ab2c7"],
    "3dap-k4h3free": [0, "711b6f9c04a3a0dfe8d010010e3dee534e6f37cb67965b1a86bd122b677524bd"],
    "3dap-budget": [3, "58423592f9694cb655716b62be98694637c560b448b43b10dbf2e4f5e914419d"],
    "3dap-k4h3free-budget": [3, "ee590f1850650b719d7127d8a22331fc972ef061fce37c4c7b09f370ca23f7b7"],
    "witness-7-3": [0, "6f7e123e078d2a1f9c787547f4407b805752ae2b707e94832954667893ae36a2"],
    "witness-6-3": [1, "66b251003edbc5c0009a62a9c720c43febb5ba5e1f69f0c8635702cd4fb34f29"],
    "witness-6-3-random": [1, "4d16db515227459217c37f14a772daf54c1e6b8201592f90aa39b1820ced5058"],
    "witness-10-4-random": [0, "779db68d982fac8362371e010cef95a711b9ec380e18c731e7adbe8f8270c48e"],
    "witness-p3": [0, "38005ecac8478813a3fa9e66097551e60e60692117400e98dca2a6c7162bfac0"],
    "witness-p3-minus-8": [1, "f3fbb93cc750393c203050e414457bcd3d3a0fc5265b4b0de563b683dba42e52"],
    "enumerate": [0, "96fee7e46d0fd484bb7e9d6530ff58af939d2586587ae2ba981b9e0bcfdf50df"],
    "enumerate-0-2": [0, "ee6d3ac7b2a332911b08f26e82bf2e8bdfb11bc785253ccbde636f6b421157f2"],
    "enumerate-3-1": [0, "a144f7d14d2d7e0028b30c22215d9b1702b3ffa9dbad8fc8d6eb1745312e565a"],
    "enumerate-5-2": [0, "7139695690fbd6bdce5829209fe1bf41db3dadff836e8733e7ae681442ec01e9"],
}

_RUNNER = "import sys; from sunlab.cli import run; sys.exit(run(sys.argv[1:]))"


def _write_presentations(tmp: Path) -> None:
    chain = json.loads((tmp / "chain-graphs" / "chain.json").read_text())
    top_size = chain["levels"][-1]["structure"]["size"]
    disjoint = [[2 * v, 2 * v + 1] for v in range(top_size)]
    shared = [[v % 3, 10 + v] for v in range(top_size)]
    for name, sets in (("disjoint", disjoint), ("shared", shared)):
        (tmp / f"{name}.json").write_text(json.dumps({"k": 2, "sets": sets}))


def _two_colour_class() -> dict:
    """Graphs with a unary colour P and no edge between the colours, as a
    class file: E symmetric and loop-free, and no edge from a P vertex to
    a vertex outside P."""
    sig = [{"name": "P", "arity": 1}, {"name": "E", "arity": 2}]

    def forbid(size, P, E):
        return {"signature": sig, "size": size, "relations": {"P": P, "E": E}}

    forbidden = [forbid(1, [], [[0, 0]]), forbid(1, [[0]], [[0, 0]])]
    forbidden += [forbid(2, P, [[0, 1]]) for P in ([], [[0]], [[1]], [[0], [1]])]
    forbidden.append(forbid(2, [[0]], [[0, 1], [1, 0]]))
    return {"signature": sig, "forbidden": forbidden, "name": "two-colour-graphs"}


def _graph(size: int, edges) -> dict:
    """A graph file: E symmetric on `edges`."""
    return {"signature": [{"name": "E", "arity": 2}], "size": size,
            "relations": {"E": [[u, v] for a, b in edges for u, v in ((a, b), (b, a))]}}


def _p3_witness(size: int) -> dict:
    """The 9-vertex triangle-free witness for P3 at k = 2, with edges
    {0,1}x{4,5,6,7}, {2,3}x{4,5,8}, 68 and 78, cut to its first `size`
    vertices."""
    edges = [(u, v) for u in (0, 1) for v in (4, 5, 6, 7)]
    edges += [(u, v) for u in (2, 3) for v in (4, 5, 8)] + [(6, 8), (7, 8)]
    return _graph(size, [(u, v) for u, v in edges if v < size])


def _shuffled_hypergraph() -> dict:
    """A triangle-free graph on parts {0..3} and {4..7} as a 2-uniform
    hypergraph file (girth 4: 0-1-5-4 and 2-3-7-6 are its 4-cycles), its
    edges in no order, some written high vertex first and {1, 5} twice."""
    edges = [[5, 1], [2, 6], [0, 1], [7, 3], [4, 0], [1, 6], [5, 4], [3, 2],
             [1, 5], [6, 7]]
    return {"n": 2, "parts": [[0, 1, 2, 3], [4, 5, 6, 7]], "edges": edges}


def _digest(out: Path) -> str:
    h = hashlib.sha256()
    for path in sorted(out.iterdir()):
        if path.name.endswith("-manifest.json"):
            continue
        h.update(path.name.encode() + b"\0")
        h.update(hashlib.sha256(path.read_bytes()).digest())
    return h.hexdigest()


def run_all(tmp: Path, hash_seed: str) -> dict:
    """Run every command in a fresh interpreter; label -> [exit, digest]."""
    env = dict(os.environ, PYTHONHASHSEED=hash_seed, PYTHONPATH=str(SRC))
    qtype = {"parameters": [0], "positives": [["E", [-1, 0]], ["E", [0, -1]]]}
    (tmp / "type.json").write_text(json.dumps(qtype))
    (tmp / "k2.json").write_text(json.dumps(_graph(2, [(0, 1)])))
    (tmp / "k2-type.json").write_text(json.dumps(dict(qtype, parameters=[0, 1])))
    (tmp / "two-colour.json").write_text(json.dumps(_two_colour_class()))
    # P3 with its middle vertex last: Aut(B) pins depths 0 and 2
    (tmp / "p3.json").write_text(json.dumps(_graph(3, [(0, 2), (2, 1)])))
    (tmp / "p3-witness.json").write_text(json.dumps(_p3_witness(9)))
    (tmp / "p3-witness-minus-8.json").write_text(json.dumps(_p3_witness(8)))
    (tmp / "h-shuffled.json").write_text(json.dumps(_shuffled_hypergraph()))
    dirs = {"tmp": str(tmp)}
    results = {}
    for label, argv in COMMANDS:
        out = tmp / label
        dirs[label] = str(out)
        args = [a.format(**dirs) for a in argv] + ["--out", str(out)]
        proc = subprocess.run([sys.executable, "-c", _RUNNER, *args], env=env,
                              capture_output=True, text=True, timeout=300)
        assert "Traceback" not in proc.stderr, (label, proc.stderr)
        results[label] = [proc.returncode, _digest(out)]
        if label == "chain-graphs":
            _write_presentations(tmp)
    return results


@pytest.mark.parametrize("hash_seed", ["1", "2"])
def test_golden_outputs(tmp_path, hash_seed):
    got = run_all(tmp_path, hash_seed)
    wrong = {label: (got[label], EXPECTED.get(label)) for label in got
             if got[label] != EXPECTED.get(label)}
    assert not wrong, wrong


# class jobs that run in one process, as the benchmark runs them, must give
# what they give in fresh interpreters; "{tmp}" holds the partition's input
CLASS_JOBS = [
    ("gen-knfree", ["gen", "--klass", "knfree:3", "--size", "14", "--seed", "3"]),
    ("gen-oriented", ["gen", "--klass", "oriented", "--size", "12", "--seed", "3"]),
    ("gen-k4h3free", ["gen", "--klass", "k4h3free", "--size", "7", "--seed", "3"]),
    ("gen-f-free", ["gen", "--klass", "f-free-3hyper", "--size", "6", "--seed", "3"]),
    ("3dap-graphs", ["check-3dap", "--klass", "graphs", "--bound", "2"]),
    ("3dap-knfree", ["check-3dap", "--klass", "knfree:3", "--bound", "1"]),
    ("partition", ["partition", "--structure", "{tmp}/structure.json",
                   "--scheme", "neighbourhood", "--anchor", "0",
                   "--klass", "knfree:3", "--probes", "k2", "--base-bound", "1"]),
]


def test_class_jobs_do_not_depend_on_what_ran_before_in_the_process(tmp_path):
    from sunlab.cli import run  # imported here so the re-baseline script needs no PYTHONPATH
    env = dict(os.environ, PYTHONPATH=str(SRC))
    assert run(["gen", "--id", "knfree:3", "--size", "30", "--seed", "2",
                "--out", str(tmp_path)]) == 0
    fresh = {}
    for label, argv in CLASS_JOBS:
        out = tmp_path / "fresh" / label
        args = [a.format(tmp=tmp_path) for a in argv] + ["--out", str(out)]
        proc = subprocess.run([sys.executable, "-c", _RUNNER, *args], env=env,
                              capture_output=True, text=True, timeout=300)
        fresh[label] = [proc.returncode, _digest(out)]
    for order, jobs in (("forward", CLASS_JOBS), ("backward", CLASS_JOBS[::-1])):
        got = {}
        for label, argv in jobs:
            out = tmp_path / order / label
            code = run([a.format(tmp=tmp_path) for a in argv] + ["--out", str(out)])
            got[label] = [code, _digest(out)]
        assert got == fresh, order


if __name__ == "__main__":
    import tempfile
    with tempfile.TemporaryDirectory() as d:
        print(json.dumps(run_all(Path(d), "1"), indent=1))
