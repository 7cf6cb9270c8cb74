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

# (label, argv); "{x}" is replaced by the output directory of command x
# and "{tmp}" by the scratch directory holding the input files.  The two
# presentations of the 2-chain's top level use disjoint 2-sets
# (transversal case) and 2-sets sharing small elements (monochromatic case).
COMMANDS = [
    ("h2", ["hypergraph", "generate", "--n", "2", "--s", "1", "--g", "4",
            "--seed", "7"]),
    ("h2c5", ["hypergraph", "generate", "--n", "2", "--c", "5", "--seed", "3"]),
    ("h3raw", ["hypergraph", "generate", "--n", "3", "--g", "2", "--c", "6",
               "--seed", "3"]),
    ("h3", ["hypergraph", "generate", "--n", "3", "--s", "1", "--c", "16",
            "--seed", "3"]),
    ("girth-h2-cap", ["hypergraph", "girth", "--input", "{h2}/hypergraph.json",
                      "--cap", "3"]),
    ("girth-h3raw", ["hypergraph", "girth", "--input", "{h3raw}/hypergraph.json"]),
    ("girth-h3", ["hypergraph", "girth", "--input", "{h3}/hypergraph.json"]),
    ("adversary", ["hypergraph", "adversary", "--input",
                   "{h2c5}/hypergraph.json", "--s", "2"]),
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
    ("enumerate", ["enumerate-presentations", "--size", "4", "--k", "3"]),
]

EXPECTED = {
    "h2": [0, "6d58e93abccad5992120c710c4c4f472ae4bf15c7be964b022618fde07140195"],
    "h2c5": [0, "0b0e31a2740193695492fb1caae1ab45da8c43aac438576cb509fa9c3c1b30d2"],
    "h3raw": [0, "1efd52e2673fbf3bc9204ab4a107d582e68e1b4040910ade6f6f396c03cdc03b"],
    "h3": [0, "352beed92c04835ac7f5e15fe3ea0ad2ffe5e4b8f7fa9045618b75c3964eba41"],
    "girth-h2-cap": [0, "088d5b278a990e552b8841b32e2e3484278596720747ddcb86cc979bdabb2301"],
    "girth-h3raw": [0, "fe3fdcda62e605a74d94f158e68d79b104a07b2f5aff72b9d0853b6f15aa8915"],
    "girth-h3": [0, "bbb9dffcef1c95742b0f76caecd9482b864c9412555c61c61151b6548fa2e61e"],
    "adversary": [1, "ac4baaa44a3ae7ec2d26b9a5a8a05e76e41bf213ead752423c44d440bf516903"],
    "chain-graphs": [0, "22a737dfa0029daef6e9d43b03e1e0612641a231f4e772d28cbb8df410ca57b8"],
    "chain-pure": [0, "c81bec69a6303d9f138a4bdc845247e6b95de778ecf8fdee8d4c1a33c123ae7c"],
    "extract-disjoint": [0, "7c3490907ed5a936a0f15b4e6bb8e3cfff9bab61e81667c70ec3f84807b4c216"],
    "extract-shared": [0, "ae9089356756198d744fc9d62027589286d907e84e3f7fb790624fdf4bb2205b"],
    "trace-shared": [0, "eb79e4966bf87304e356bd7f64e71158360a7f75e91ce6f34f7449f27d2cc141"],
    "graph6": [0, "0bdf0977fb852ca6ebc85820db882448ecb124d30a6eec81439cbf67b3f0b7dc"],
    "open-set": [0, "5d46683cf24ff9ec5f2810662ec8850a46a6ddaef3ef7fba1db73bf4bdfdca31"],
    "gen-knfree": [0, "740f7ebbc69948edbffbefdb48d7698e776d03f84c280104be2fc617575ac169"],
    "gen-named-knfree": [0, "a09bb3b32e881e7b0e3dd6bebf9ca63d5e601c4b85d66464876f968fc1e95c08"],
    "gen-oriented": [0, "d100835f854b3b08ec9647351717bc94502c03b38f767e77291dfe5312fc2406"],
    "gen-f-free": [0, "09db7ca4d7a324107da06c45407412e64d48c67d2c68984071c8493a6c25a0ae"],
    "gen-two-colour": [0, "079945e5928a2aaada9e32a0d997b1752fa4debf194e4d0e580704c67cd95b53"],
    "partition-knfree": [0, "bd14f2f28ee71d90436e18f5acd587867982d0623af76efca7bfeba80974f1ec"],
    "partition-f-free": [0, "03f1ede0e4ed5cc2feda797d17fee1dec465cd185c19b5e0a458f39971522a61"],
    "partition-csv": [0, "5eb182d2f0b8c41a0a28e1cd72b18ce0c3a0b87665b9d517094e6969eca24edb"],
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
    "enumerate": [0, "96fee7e46d0fd484bb7e9d6530ff58af939d2586587ae2ba981b9e0bcfdf50df"],
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
    (tmp / "two-colour.json").write_text(json.dumps(_two_colour_class()))
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
