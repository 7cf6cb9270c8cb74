"""The four benchmark workloads and the output checks behind `failed`.

Every workload is a closed loop with one caller: the next op starts when
the previous one has returned.  A workload's ops form one cycle whose
inputs are made from the workload seed, off the op clock; run.py repeats
the cycle with fresh input objects and checks the outputs off the clock.
`cycle_s` is the typical wall time of one cycle, checks included, on the
reference machine (a 2-vCPU x86-64 VM shared with other tenants, CPython
3.11); run.py runs --seconds over it cycles.  `setup_repeats` is the
number of set-ups whose median is setup_s.

All library calls go through module attributes (`witness.paste`, not a
name imported from it), so that the traced run's wrappers see them.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import random
import shutil
from pathlib import Path

from sunlab import catalog, cli, jsonio, ksets, ramsey, structures, witness


def _sha(*chunks: bytes) -> str:
    h = hashlib.sha256()
    for c in chunks:
        h.update(len(c).to_bytes(8, "little"))
        h.update(c)
    return h.hexdigest()


# ---------------------------------------------------------------------------
# Independent output checks (brute force, no library search code)


def hypergraph_is_valid(data: dict) -> bool:
    """Equal disjoint parts, n-uniform edges over them, no two edges sharing
    two vertices (no Berge 2-cycle) and no Berge 3-cycle."""
    n, parts = data["n"], [frozenset(p) for p in data["parts"]]
    if len(parts) != n or len({len(p) for p in parts}) != 1:
        return False
    universe = frozenset().union(*parts)
    if len(universe) != sum(len(p) for p in parts):
        return False
    edges = [frozenset(e) for e in data["edges"]]
    if len(set(edges)) != len(edges):
        return False
    if any(len(e) != n or not e <= universe for e in edges):
        return False
    meets = {}
    for i, j in itertools.combinations(range(len(edges)), 2):
        common = edges[i] & edges[j]
        if len(common) >= 2:
            return False
        if common:
            meets[i, j] = next(iter(common))
    for (i, j), x in meets.items():
        for k in range(j + 1, len(edges)):
            y, z = meets.get((i, k)), meets.get((j, k))
            if y is not None and z is not None and len({x, y, z}) == 3:
                return False
    return True


def has_sunflower_copy(C: dict, B: dict, sets: list) -> bool:
    """Whether some induced copy of B in C carries sets that pairwise meet in
    one common centre.  C and B are structure JSON; every |B|-subset of C's
    vertices is tried in every order."""
    rels_b = {n: {tuple(t) for t in ts} for n, ts in B["relations"].items()}
    fam = [frozenset(x) for x in sets]
    for subset in itertools.combinations(range(C["size"]), B["size"]):
        centres = {fam[a] & fam[b] for a, b in itertools.combinations(subset, 2)}
        if len(centres) > 1:
            continue
        for image in itertools.permutations(subset):
            pos = {v: i for i, v in enumerate(image)}
            if all({tuple(pos[x] for x in t) for t in C["relations"][n]
                    if all(x in pos for x in t)} == rels_b[n] for n in rels_b):
                return True
    return False


# ---------------------------------------------------------------------------
# extract: library calls on one witness chain


class Extract:
    """Certificate extraction on the pure-set chain (target pure:3, k=2)."""

    name = "extract"
    cycle_s = 5.0
    setup_repeats = 3
    # enough extractions that the tail percentile (p99) has 20 ops beyond it
    per_cycle = 2000
    # The chain's shape sets the whole op-latency distribution, whose median
    # sits on a steep slope and moves by several per cent between chain
    # seeds; every run uses the chain of one seed (96 vertices at the top)
    # and the workload seed picks the presentations.
    chain_seed = 2

    def setup(self, seed: int, work: Path):
        chain = witness.build_witness_chain(catalog.pure_sets(),
                                            catalog.pure_set(3), 2, self.chain_seed)
        rng = random.Random(f"extract-warmup|{seed}")
        witness.extract_sunflower(chain, ksets.random_presentation(chain.top(), 2, rng))
        return chain

    def jobs(self, chain, seed: int):
        rng = random.Random(f"extract|{seed}")
        for _ in range(self.per_cycle):
            yield ksets.random_presentation(chain.top(), 2, rng)

    def run(self, chain, P):
        cert, trace = witness.extract_sunflower(chain, P)
        return cert, trace, witness.verify_certificate(cert, chain.target, P)

    def check(self, chain, P, result) -> bool:
        cert, trace, verified = result
        return verified and witness.replay_trace(chain, P, trace)

    def digest(self, chain, P, result) -> str:
        cert, trace, _ = result
        steps = [(s.level, s.case, s.part, s.f, s.shared, s.copy)
                 for s in trace.steps]
        return _sha(repr((cert.petals, sorted(cert.centre), cert.iso.map,
                          cert.degenerate, steps)).encode())

    def cleanup(self, chain) -> None:
        pass


# ---------------------------------------------------------------------------
# CLI workloads: jobs through cli.run, in process


class Job:
    __slots__ = ("label", "argv", "out", "expect", "check")

    def __init__(self, label, argv, out, expect, check):
        self.label = label
        self.argv = argv
        self.out = out
        self.expect = expect
        self.check = check


def _load(path: Path):
    return json.loads(path.read_text())


class _CliWorkload:
    name = ""
    cycle_s: float
    # a set-up takes about 50 ms, so more samples are cheap and steady the
    # median
    setup_repeats = 11

    warmup: list  # argv of one CLI job run at the end of set-up

    def setup(self, seed: int, work: Path) -> Path:
        shutil.rmtree(work, ignore_errors=True)
        work.mkdir(parents=True)
        self.write_inputs(work)
        cli.run(self.warmup + ["--out", str(work / "warmup")])
        shutil.rmtree(work / "warmup")
        return work

    def write_inputs(self, work: Path) -> None:
        pass

    def run(self, work: Path, job: Job) -> int:
        return cli.run(job.argv + ["--out", str(job.out)])

    def check(self, work: Path, job: Job, rc: int) -> bool:
        return rc in job.expect and job.check(job.out, rc)

    def digest(self, work: Path, job: Job, rc: int) -> str:
        files = sorted(p for p in job.out.iterdir()
                       if not p.name.endswith("-manifest.json"))
        return _sha(str(rc).encode(),
                    *(p.name.encode() + b"\0" + p.read_bytes() for p in files))

    def cleanup(self, work: Path) -> None:
        shutil.rmtree(work / "cycle", ignore_errors=True)


ADVERSARY_INSTANCE = "adversary-instance.json"


class Hypergraph(_CliWorkload):
    """Witness-hypergraph generation, girth, pasting and the adversary."""

    name = "hypergraph"
    cycle_s = 1.8

    def write_inputs(self, work: Path) -> None:
        # The adversary's running time swings 30-fold between 10-vertex
        # instances (it stops at the first covering partition), so it runs
        # on one fixed instance whose search also reaches the cover phase.
        H = ramsey.gen_witness_hypergraph(2, 1, 4, 5, c_override=5)
        (work / ADVERSARY_INSTANCE).write_text(
            jsonio.dumps(jsonio.hypergraph_to_json(H)))

    warmup = ["hypergraph", "generate", "--n", "2", "--c", "5", "--seed", "0"]

    def jobs(self, work: Path, seed: int) -> list:
        rng = random.Random(f"hypergraph|{seed}")
        base = work / "cycle"
        out = []

        def add(label, argv, expect, check):
            job = Job(label, argv, base / f"{len(out):02d}-{label}", expect, check)
            out.append(job)
            return job

        # n=3 at part size 16 rather than the default 32: the same
        # restart-per-removed-edge cycle search, a tenth of the time, so
        # every job repeats often enough in a run to time it steadily
        gens = [add(label, ["hypergraph", "generate", *argv,
                            "--seed", str(rng.randrange(1 << 30))],
                    {0}, self._check_generated)
                for label, argv in (
                    ("gen-n3-s1", ["--n", "3", "--s", "1", "--c", "16"]),
                    ("gen-n3-s1", ["--n", "3", "--s", "1", "--c", "16"]),
                    ("gen-n3-s2", ["--n", "3", "--s", "2", "--c", "16"]),
                    ("gen-n3-s2", ["--n", "3", "--s", "2", "--c", "16"]),
                    ("gen-n2-c5", ["--n", "2", "--c", "5"]))]
        for g in gens:
            add("girth", ["hypergraph", "girth", "--input",
                          str(g.out / "hypergraph.json"), "--cap", "3"],
                {0}, self._check_girth)
        for g, target, klass in ((gens[0], "p3", "knfree:3"),
                                 (gens[2], "pure:3", "pure")):
            add("paste", ["paste", "--hypergraph", str(g.out / "hypergraph.json"),
                          "--target", target, "--klass", klass],
                {0}, self._check_paste(g.out / "hypergraph.json", klass))
        small = work / ADVERSARY_INSTANCE
        for s in (1, 2):
            add(f"adversary-s{s}", ["hypergraph", "adversary", "--input",
                                    str(small), "--s", str(s)],
                {0, 1}, self._check_adversary(small))
        return out

    @staticmethod
    def _check_generated(out: Path, rc: int) -> bool:
        return hypergraph_is_valid(_load(out / "hypergraph.json"))

    @staticmethod
    def _check_girth(out: Path, rc: int) -> bool:
        # generation guarantees girth >= 4, so nothing below the cap of 3
        return _load(out / "girth.json") == {"girth": None, "cap": 3}

    @staticmethod
    def _check_paste(source: Path, klass: str):
        def check(out: Path, rc: int) -> bool:
            data = _load(out / "pasted.json")
            S = jsonio.structure_from_json(data["structure"])
            H = _load(source)
            return (S.size == sum(len(p) for p in H["parts"])
                    and structures.satisfies_class(S, catalog.class_by_name(klass)))
        return check

    @staticmethod
    def _check_adversary(source: Path):
        def check(out: Path, rc: int) -> bool:
            found = _load(out / "adversary.json")["counterexample"]
            if rc == 0:
                return found is None
            H = jsonio.hypergraph_from_json(_load(source))
            tup = [[tuple(block) for block in p] for p in found]
            return ramsey.is_counterexample_tuple(H, tup)
        return check


K6_MINUS_EDGE = "k6-minus-edge.json"


class Verify(_CliWorkload):
    """Exhaustive witness verdicts and the canonical presentation walk."""

    name = "verify"
    cycle_s = 1.6

    def write_inputs(self, work: Path) -> None:
        k6 = catalog.complete_graph(6)
        minus_edge = [t for t in k6.relations["E"] if set(t) != {0, 1}]
        W = structures.Structure(k6.signature, 6, {"E": minus_edge})
        (work / K6_MINUS_EDGE).write_text(jsonio.dumps(jsonio.structure_to_json(W)))

    warmup = ["verify-witness", "--c-size", "6", "--b-size", "3", "--k", "2"]

    def jobs(self, work: Path, seed: int) -> list:
        rng = random.Random(f"verify|{seed}")
        base = work / "cycle"
        witness_file = work / K6_MINUS_EDGE
        k3 = jsonio.structure_to_json(catalog.structure_by_name("k3"))
        specs = [
            # (label, arguments, exit codes, witness JSON, target JSON)
            ("k6e-k3", ["--target", "k3", "--witness", str(witness_file)], {1},
             _load(witness_file), k3),
            ("pure-7-3", ["--c-size", "7", "--b-size", "3"], {0}, None, None),
            ("pure-6-3", ["--c-size", "6", "--b-size", "3"], {1},
             *self._pure(6, 3)),
            ("pure-10-4", ["--c-size", "10", "--b-size", "4", "--budget", "22"],
             {1}, *self._pure(10, 4)),
            ("pure-10-4-random", ["--c-size", "10", "--b-size", "4", "--mode",
                                  "random", "--seed", str(rng.randrange(1 << 30))],
             {0, 1}, *self._pure(10, 4)),
        ]
        out = [Job(label, ["verify-witness", *argv, "--k", "2"],
                   base / f"{i:02d}-{label}", expect, self._check_verdict(C, B))
               for i, (label, argv, expect, C, B) in enumerate(specs)]
        out.append(Job("enumerate", ["enumerate-presentations", "--size", "4",
                                     "--k", "3"],
                       base / f"{len(out):02d}-enumerate", {0},
                       self._check_enumeration))
        return out

    @staticmethod
    def _pure(c: int, b: int) -> tuple:
        return tuple(jsonio.structure_to_json(catalog.pure_set(n)) for n in (c, b))

    @staticmethod
    def _check_verdict(C, B):
        def check(out: Path, rc: int) -> bool:
            verdict = _load(out / "verdict.json")
            if verdict["passed"] != (rc == 0):
                return False
            if rc == 0:
                return True
            sets = _load(out / "counterexample.json")["sets"]
            return C is not None and not has_sunflower_copy(C, B, sets)
        return check

    @staticmethod
    def _check_enumeration(out: Path, rc: int) -> bool:
        data = _load(out / "presentations.json")
        return data["count"] == 666 and len(data["presentations"]) == 666


TWO_COLOUR = "two-colour.json"


class Classes(_CliWorkload):
    """Class-generic and named generation, partition reports and 3-DAP."""

    name = "classes"
    cycle_s = 2.4
    generic = (("knfree:3", 20), ("oriented", 20), ("k4h3free", 8),
               ("f-free-3hyper", 6))

    def write_inputs(self, work: Path) -> None:
        # graphs with a unary colour P: E symmetric and loop-free (the graph
        # windows), and no edge between a P vertex and a non-P vertex
        sig = structures.Signature([("P", 1), ("E", 2)])
        S = structures.Structure
        forbidden = [S(sig, 1, {"E": [(0, 0)]}),
                     S(sig, 1, {"P": [(0,)], "E": [(0, 0)]})]
        for colour in ([], [(0,)], [(1,)], [(0,), (1,)]):
            forbidden.append(S(sig, 2, {"P": colour, "E": [(0, 1)]}))
        forbidden.append(S(sig, 2, {"P": [(0,)], "E": [(0, 1), (1, 0)]}))
        K = structures.ClassSpec(sig, forbidden, name="two-colour-graphs")
        (work / TWO_COLOUR).write_text(jsonio.dumps(jsonio.classspec_to_json(K)))

    warmup = ["check-3dap", "--klass", "knfree:3", "--bound", "1"]

    def jobs(self, work: Path, seed: int) -> list:
        rng = random.Random(f"classes|{seed}")
        base = work / "cycle"
        out = []

        def add(label, argv, expect, check):
            out.append(Job(label, argv, base / f"{len(out):02d}-{label}",
                           expect, check))

        for klass, size in self.generic:
            add(f"gen-{klass}", ["gen", "--klass", klass, "--size", str(size),
                                 "--seed", str(rng.randrange(1 << 30))],
                {0}, self._check_member(klass, size))
        add("gen-named", ["gen", "--id", "knfree:3", "--size", "200",
                          "--seed", str(rng.randrange(1 << 30))],
            {0}, self._check_member("knfree:3", 200))
        add("partition", ["partition", "--structure",
                          str(out[-1].out / "structure.json"),
                          "--scheme", "neighbourhood", "--anchor", "0",
                          "--klass", "knfree:3", "--probes", "k2",
                          "--base-bound", "1"],
            {0}, self._check_partition)
        for label, klass, bound, rc, families in (
                ("3dap-graphs", "graphs", 2, 0, 1605),
                ("3dap-two-colour", "@" + str(work / TWO_COLOUR), 1, 0, 20),
                ("3dap-knfree3", "knfree:3", 1, 1, 8)):
            add(label, ["check-3dap", "--klass", klass, "--bound", str(bound)],
                {rc}, self._check_3dap(rc == 0, families))
        return out

    @staticmethod
    def _check_member(klass: str, size: int):
        def check(out: Path, rc: int) -> bool:
            S = jsonio.structure_from_json(_load(out / "structure.json"))
            return (S.size == size
                    and structures.satisfies_class(S, catalog.class_by_name(klass)))
        return check

    @staticmethod
    def _check_partition(out: Path, rc: int) -> bool:
        # acceptance 7a: the neighbourhood block carries no edge, and the
        # anchor-adjacent type missing from the complement block is realised
        # only outside it
        blocks = _load(out / "report.json")["blocks"]
        adjacent = [["E", [-1, 0]], ["E", [0, -1]]]
        hits = [w for w in blocks[0]["open_sets"]
                if w["base"] == [0] and w["type"]["positives"] == adjacent]
        rest = set(blocks[0]["vertices"])
        return (blocks[1]["probe_embeds"] == [False] and bool(hits)
                and all(not set(w["realisations"]) & rest for w in hits))

    @staticmethod
    def _check_3dap(passed: bool, families: int):
        def check(out: Path, rc: int) -> bool:
            data = _load(out / "3dap.json")
            return data["passed"] == passed and data["families_checked"] == families
        return check


WORKLOADS = {w.name: w for w in (Extract(), Hypergraph(), Verify(), Classes())}
