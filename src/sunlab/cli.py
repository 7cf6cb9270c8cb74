"""Command-line surface.

Every run writes its outputs plus a `<command>-manifest.json` recording
the command, parameters, seed, input hashes, output files, versions,
timings and exit code, which is enough to reproduce the run bit for bit.

Exit codes: 0 success or pass, 1 verified counterexample found, 2 usage
error, 3 budget exceeded, 4 pipeline failure (extraction failed,
generation gave up or hit a dead end, or pasting left the class), all
chosen so CI can tell a genuine counterexample from a breakdown.  Exits 3
and 4 print one `error:` line on stderr and leave `error.json` and the
manifest in `--out`; a usage error (exit 2) prints its `error:` line and
writes nothing.  An input path that cannot be read and an `--out` that is
not a directory are usage errors.  `run` alone decides the exit: handlers
return 0 or 1 and raise on failure.  It builds the parser entry of the
named command (and action) only; the top-level usage line, help and
errors still list every command.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
import time
from pathlib import Path

from . import __version__, catalog, jsonio, ksets, ramsey, structures
from .generators import NoAdmissibleExtension, gen_generic, gen_named
from .ksets import (
    canonical_families,
    encode_colouring,
    find_sunflower_copies,
    refute_witness,
    verify_witness,
)
from .partitionlab import min_embedding_colouring, named_partition, partition_report
from .ramsey import (
    GenerationError,
    gen_witness_hypergraph,
    hypergraph_girth,
    is_counterexample_tuple,
    witness_adversary,
)
from .structures import BudgetExceeded, check_3dap_over_empty, realisation_set
from .witness import (
    ExtractionFailed,
    InternalConsistencyError,
    build_witness_chain,
    extract_sunflower,
    paste,
    replay_trace,
    verify_certificate,
)

EXIT_OK = 0
EXIT_COUNTEREXAMPLE = 1
EXIT_USAGE = 2
EXIT_BUDGET = 3
EXIT_PIPELINE = 4


class _Run:
    """Collects manifest data and writes output files; `--out` is created
    at the first write."""

    def __init__(self, command: str, args: argparse.Namespace):
        self.command = command
        self.out = Path(args.out)
        self.params = {k: v for k, v in vars(args).items()
                       if k != "out" and v is not None}
        self.inputs = []
        self.outputs = []
        self.t0 = time.time()

    def load(self, decode, path: str, *extra):
        """Read a JSON input, record its hash and decode it; a document of
        the wrong shape is bad input, reported as a ValueError."""
        data = Path(path).read_bytes()
        self.inputs.append({"path": str(path),
                            "sha256": hashlib.sha256(data).hexdigest()})
        try:
            return decode(json.loads(data), *extra)
        except (TypeError, AttributeError, KeyError, IndexError) as e:
            raise ValueError(
                f"{path}: malformed JSON ({type(e).__name__}: {e})") from e

    def _path(self, name: str) -> Path:
        self.out.mkdir(parents=True, exist_ok=True)
        return self.out / name

    def write(self, name: str, payload) -> Path:
        path = self._path(name)
        if isinstance(payload, str):
            path.write_text(payload)
        else:
            path.write_text(jsonio.dumps(payload))
        self.outputs.append(str(path))
        return path

    def finish(self, exit_code: int) -> int:
        manifest = {
            "command": self.command,
            "parameters": self.params,
            "seed": self.params.get("seed"),
            "inputs": self.inputs,
            "outputs": self.outputs,
            "versions": {"sunlab": __version__,
                         "python": sys.version.split()[0]},
            "timings": {"wall_seconds": round(time.time() - self.t0, 6)},
            "exit_code": exit_code,
        }
        self._path(f"{self.command}-manifest.json").write_text(jsonio.dumps(manifest))
        return exit_code

    def fail(self, exit_code: int, error) -> int:
        """Print one `error:` line, write it to error.json and finish."""
        print(f"error: {error}", file=sys.stderr)
        self.write("error.json", {"error": str(error)})
        return self.finish(exit_code)


def _load_class(run: _Run, spec: str):
    if spec.startswith("@"):
        return run.load(jsonio.classspec_from_json, spec[1:])
    return catalog.class_by_name(spec)


def _load_structure(run: _Run, spec: str):
    if spec.startswith("@"):
        return run.load(jsonio.structure_from_json, spec[1:])
    return catalog.structure_by_name(spec)


# ---------------------------------------------------------------------------
# Command handlers


def _reject_unread(args, names, reason: str) -> None:
    """A usage error naming the options in `names` that were given."""
    if given := [f"--{n.replace('_', '-')}" for n in names if getattr(args, n) is not None]:
        raise ValueError(f"{reason} reads no {' or '.join(given)}")


def _cmd_gen(run: _Run, args) -> int:
    if args.klass:
        K = _load_class(run, args.klass)
        S = gen_generic(K, args.size, args.seed)
    else:
        S = gen_named(args.id, args.size, args.seed)
    run.write("structure.json", jsonio.structure_to_json(S))
    return EXIT_OK


def _cmd_partition(run: _Run, args) -> int:
    _reject_unread(args, () if args.klass else ("probes", "base_bound", "format"),
                   "partition without --klass")
    if args.klass:
        args.base_bound = run.params.setdefault("base_bound", 1)
        args.format = run.params.setdefault("format", "json")
    S = run.load(jsonio.structure_from_json, args.structure)
    P = named_partition(S, args.scheme, args.anchor)
    if args.klass:  # every input is read and the report made before the first write
        K = _load_class(run, args.klass)
        probes = [_load_structure(run, p) for p in (args.probes or [])]
        report = partition_report(S, P, K, probes, args.base_bound)
    run.write("partition.json", jsonio.partition_to_json(P))
    if args.klass:
        if args.format == "csv":
            run.write("report.csv", jsonio.partition_report_to_csv(report))
        else:
            run.write("report.json", jsonio.partition_report_to_json(report))
    return EXIT_OK


def _cmd_open_set(run: _Run, args) -> int:
    S = run.load(jsonio.structure_from_json, args.structure)
    p = run.load(jsonio.qftype_from_json, args.type)
    params = [int(x) for x in args.params.split(",")] if args.params else []
    vertices = realisation_set(S, params, p)
    run.write("open_set.json", {"vertices": vertices})
    return EXIT_OK


def _cmd_min_colouring(run: _Run, args) -> int:
    S = run.load(jsonio.structure_from_json, args.structure)
    A = run.load(jsonio.structure_from_json, args.pattern)
    p = run.load(jsonio.qftype_from_json, args.type)
    res = min_embedding_colouring(S, A, p)
    run.write("colouring.json", jsonio.colouring_to_json(res.colouring))
    run.write("min_colouring.json", {
        "sentinel": res.sentinel,
        "flagged": list(res.flagged),
        "embedding_count": res.embedding_count,
    })
    return EXIT_OK


def _cmd_encode(run: _Run, args) -> int:
    S = run.load(jsonio.structure_from_json, args.structure)
    chi = run.load(jsonio.colouring_from_json, args.colouring)
    P = encode_colouring(S, chi)
    run.write("presentation.json", jsonio.presentation_to_json(P))
    return EXIT_OK


def _cmd_sunflower_check(run: _Run, args) -> int:
    S = run.load(jsonio.structure_from_json, args.structure)
    P = run.load(jsonio.presentation_from_json, args.presentation, S)
    B = _load_structure(run, args.target)
    certs = find_sunflower_copies(P, B, limit=args.limit)
    run.write("certificates.json",
              {"count": len(certs), "certificates": [jsonio.cert_to_json(c) for c in certs]})
    return EXIT_OK


def _cmd_enumerate(run: _Run, args) -> int:
    if args.structure:
        C = run.load(jsonio.structure_from_json, args.structure)
    else:
        C = catalog.pure_set(args.size)
    families = list(canonical_families(C, args.k, args.budget))
    run.write("presentations.json", {"count": len(families), "presentations": families})
    return EXIT_OK


def _cmd_verify_witness(run: _Run, args) -> int:
    exhaustive = args.mode == "exhaustive"
    name, default, unread = (("budget", ksets.DEFAULT_GROUND_BUDGET, ("trials", "seed"))
                             if exhaustive else ("trials", 1000, ("budget",)))
    _reject_unread(args, unread, f"{args.mode} mode")
    setattr(args, name, run.params.setdefault(name, default))
    if args.b_size is not None:
        B = catalog.pure_set(args.b_size)
    else:
        B = _load_structure(run, args.target)
    if args.c_size is not None:
        C = catalog.pure_set(args.c_size)
    else:
        C = run.load(jsonio.structure_from_json, args.witness)
    if exhaustive:
        verdict = verify_witness(C, B, args.k, args.budget)
        counterexample, checked = verdict.counterexample, verdict.checked
    else:
        counterexample, checked = refute_witness(C, B, args.k, args.trials, args.seed or 0)
    # an unrefuted random run proves nothing yet writes "passed": true (ROADMAP item 26)
    run.write("verdict.json", {"passed": counterexample is None, "checked": checked})
    if counterexample is None:
        return EXIT_OK
    run.write("counterexample.json", jsonio.presentation_to_json(counterexample))
    return EXIT_COUNTEREXAMPLE


def _cmd_hypergraph(run: _Run, args) -> int:
    if args.action == "generate":
        H = gen_witness_hypergraph(args.n, args.s, args.g, args.seed, c_override=args.c)
        run.write("hypergraph.json", jsonio.hypergraph_to_json(H))
        return EXIT_OK
    H = run.load(jsonio.hypergraph_from_json, args.input)
    if args.action == "girth":
        g = hypergraph_girth(H, cap=args.cap)
        run.write("girth.json", {"girth": None if g == float("inf") else g,
                                 "cap": args.cap})
        return EXIT_OK
    result = witness_adversary(H, args.s, budget=args.budget)
    if result is None:
        run.write("adversary.json", {"counterexample": None})
        return EXIT_OK
    if not is_counterexample_tuple(H, result):
        raise InternalConsistencyError("adversary result failed re-validation")
    payload = [[list(block) for block in partition] for partition in result]
    run.write("adversary.json", {"counterexample": payload})
    return EXIT_COUNTEREXAMPLE


def _cmd_paste(run: _Run, args) -> int:
    H = run.load(jsonio.hypergraph_from_json, args.hypergraph)
    B = _load_structure(run, args.target)
    K = _load_class(run, args.klass)
    pasted = paste(H, B, K)
    out = jsonio.structure_to_json(pasted.structure)
    run.write("pasted.json", {"structure": out,
                              "parts": [list(p) for p in pasted.parts]})
    return EXIT_OK


def _cmd_build_witness(run: _Run, args) -> int:
    _reject_unread(args, ("c",) if args.k == 1 else (), "--k 1")
    B = _load_structure(run, args.target)
    K = _load_class(run, args.klass)
    chain = build_witness_chain(K, B, args.k, args.seed, c_override=args.c)
    run.write("chain.json", jsonio.chain_to_json(chain))
    return EXIT_OK


def _cmd_extract(run: _Run, args) -> int:
    chain = run.load(jsonio.chain_from_json, args.chain)
    level = chain.k if args.level is None else args.level
    if not 1 <= level <= chain.k:
        raise ValueError(f"--level must be in 1..{chain.k}, got {level}")
    base = chain.levels[level - 1].structure
    P = run.load(jsonio.presentation_from_json, args.presentation, base)
    try:
        cert, trace = extract_sunflower(chain, P, level)
    except ExtractionFailed as e:
        run.write("counterexample.json",
                  jsonio.presentation_to_json(e.presentation))
        raise
    run.write("certificate.json", jsonio.cert_to_json(cert))
    run.write("trace.json", jsonio.trace_to_json(trace))
    if not verify_certificate(cert, chain.target, P):
        raise InternalConsistencyError("certificate failed re-validation")
    return EXIT_OK


def _cmd_verify_trace(run: _Run, args) -> int:
    chain = run.load(jsonio.chain_from_json, args.chain)
    base = chain.top()
    P = run.load(jsonio.presentation_from_json, args.presentation, base)
    trace = run.load(jsonio.trace_from_json, args.trace)
    ok = replay_trace(chain, P, trace)
    run.write("trace_verdict.json", {"replay_ok": ok})
    return EXIT_OK if ok else EXIT_COUNTEREXAMPLE


def _cmd_verify_cert(run: _Run, args) -> int:
    S = run.load(jsonio.structure_from_json, args.structure)
    P = run.load(jsonio.presentation_from_json, args.presentation, S)
    B = _load_structure(run, args.target)
    cert = run.load(jsonio.cert_from_json, args.cert, B, S)
    ok = verify_certificate(cert, B, P)
    run.write("cert_verdict.json", {"valid": ok})
    return EXIT_OK if ok else EXIT_COUNTEREXAMPLE


def _cmd_check_3dap(run: _Run, args) -> int:
    K = _load_class(run, args.klass)
    report = check_3dap_over_empty(K, args.bound, budget=args.budget)
    if report.passed:
        run.write("3dap.json", {"passed": True,
                                "families_checked": report.families_checked})
        return EXIT_OK
    fam = report.counterexample
    run.write("3dap.json", {
        "passed": False,
        "families_checked": report.families_checked,
        "sides": [jsonio.structure_to_json(s) for s in fam.sides],
        "pair_amalgams": {f"{i}{j}": jsonio.structure_to_json(a)
                          for (i, j), a in sorted(fam.amalgams.items())},
    })
    return EXIT_COUNTEREXAMPLE


# ---------------------------------------------------------------------------
# Parser


def _command_table() -> dict:
    """name -> (handler, function adding its arguments but `--out`, help
    text), in the order of the top-level help; a command with actions has,
    in place of the function, action name -> (function, help text)."""

    def gen_args(p):
        one = p.add_mutually_exclusive_group(required=True)
        one.add_argument("--id", help="generator name, e.g. knfree:3 or local-order")
        one.add_argument("--klass", "--class", dest="klass",
                         help="class name or @file for the generic builder")
        p.add_argument("--size", type=int, required=True)
        p.add_argument("--seed", type=int, required=True)

    def partition_args(p):
        p.add_argument("--structure", required=True)
        p.add_argument("--scheme", required=True)
        p.add_argument("--anchor", type=int)
        p.add_argument("--klass", "--class", dest="klass")
        p.add_argument("--probes", nargs="*", help="--klass only")
        p.add_argument("--base-bound", type=int, help="--klass only (default 1)")
        p.add_argument("--format", choices=("json", "csv"),
                       help="--klass only (default json)")

    def open_set_args(p):
        p.add_argument("--structure", required=True)
        p.add_argument("--params", default="")
        p.add_argument("--type", required=True)

    def min_colouring_args(p):
        p.add_argument("--structure", required=True)
        p.add_argument("--pattern", required=True)
        p.add_argument("--type", required=True)

    def encode_args(p):
        p.add_argument("--structure", required=True)
        p.add_argument("--colouring", required=True)

    def sunflower_check_args(p):
        p.add_argument("--structure", required=True)
        p.add_argument("--presentation", required=True)
        p.add_argument("--target", required=True)
        p.add_argument("--limit", type=int)

    def enumerate_presentations_args(p):
        one = p.add_mutually_exclusive_group(required=True)
        one.add_argument("--structure")
        one.add_argument("--size", type=int, help="pure-set size shortcut")
        p.add_argument("--k", type=int, required=True)
        p.add_argument("--budget", type=int, default=ksets.DEFAULT_GROUND_BUDGET)

    def verify_witness_args(p):
        one = p.add_mutually_exclusive_group(required=True)
        one.add_argument("--target", help="target structure name or @file")
        one.add_argument("--b-size", type=int, help="pure-set target size shortcut")
        one = p.add_mutually_exclusive_group(required=True)
        one.add_argument("--witness", help="witness structure @file")
        one.add_argument("--c-size", type=int, help="pure-set witness size shortcut")
        p.add_argument("--k", type=int, required=True)
        p.add_argument("--mode", choices=("exhaustive", "random"), default="exhaustive")
        p.add_argument("--trials", type=int, help="random mode only (default 1000)")
        p.add_argument("--seed", type=int, help="random mode only")
        p.add_argument("--budget", type=int,
                       help=f"exhaustive mode only (default {ksets.DEFAULT_GROUND_BUDGET})")

    def generate_args(p):
        p.add_argument("--n", type=int, required=True)
        p.add_argument("--s", type=int, default=1)
        p.add_argument("--g", type=int, default=4)
        p.add_argument("--c", type=int)
        p.add_argument("--seed", type=int, required=True)

    def girth_args(p):
        p.add_argument("--input", required=True)
        p.add_argument("--cap", type=int)

    def adversary_args(p):
        p.add_argument("--input", required=True)
        p.add_argument("--s", type=int, default=1)
        p.add_argument("--budget", type=int, default=ramsey.DEFAULT_ADVERSARY_BUDGET,
                       help="search nodes")

    def paste_args(p):
        p.add_argument("--hypergraph", required=True)
        p.add_argument("--target", required=True)
        p.add_argument("--klass", "--class", dest="klass", required=True)

    def build_witness_args(p):
        p.add_argument("--klass", "--class", dest="klass", required=True)
        p.add_argument("--target", required=True)
        p.add_argument("--k", type=int, required=True)
        p.add_argument("--seed", type=int, required=True)
        p.add_argument("--c", type=int, help="--k 2 or more only")

    def extract_args(p):
        p.add_argument("--chain", required=True)
        p.add_argument("--presentation", required=True)
        p.add_argument("--level", type=int)

    def verify_trace_args(p):
        p.add_argument("--chain", required=True)
        p.add_argument("--presentation", required=True)
        p.add_argument("--trace", required=True)

    def verify_cert_args(p):
        p.add_argument("--cert", required=True)
        p.add_argument("--target", required=True)
        p.add_argument("--structure", required=True)
        p.add_argument("--presentation", required=True)

    def check_3dap_args(p):
        p.add_argument("--klass", "--class", dest="klass", required=True)
        p.add_argument("--bound", type=int, required=True)
        p.add_argument("--budget", type=int, default=structures.DEFAULT_3DAP_BUDGET)

    return {
        "gen": (_cmd_gen, gen_args, "generate a named or class-generic structure"),
        "partition": (_cmd_partition, partition_args, "apply a named partition scheme"),
        "open-set": (_cmd_open_set, open_set_args,
                     "realisations of a type over parameters"),
        "min-colouring": (_cmd_min_colouring, min_colouring_args,
                          "least-embedding colouring for a pattern and type"),
        "encode": (_cmd_encode, encode_args, "encode a colouring as 2-sets"),
        "sunflower-check": (_cmd_sunflower_check, sunflower_check_args,
                            "search sunflower copies of a target in a presentation"),
        "enumerate-presentations": (_cmd_enumerate, enumerate_presentations_args,
                                    "canonical presentations of a structure on k-sets"),
        "verify-witness": (_cmd_verify_witness, verify_witness_args,
                           "check that every presentation carries a sunflower copy"),
        "hypergraph": (_cmd_hypergraph, {
            "generate": (generate_args, "sample a witness hypergraph"),
            "girth": (girth_args, "Berge girth of a hypergraph"),
            "adversary": (adversary_args, "search colourings defeating a hypergraph"),
        }, "generate / measure / adversarially test witness hypergraphs"),
        "paste": (_cmd_paste, paste_args, "paste a structure into hypergraph edges"),
        "build-witness": (_cmd_build_witness, build_witness_args,
                          "build a witness chain"),
        "extract": (_cmd_extract, extract_args, "extract a sunflower certificate"),
        "verify-trace": (_cmd_verify_trace, verify_trace_args,
                         "replay an extraction trace"),
        "verify-cert": (_cmd_verify_cert, verify_cert_args,
                        "re-validate a certificate"),
        "check-3dap": (_cmd_check_3dap, check_3dap_args,
                       "exhaustive disjoint 3-amalgamation check over the empty base"),
    }


COMMANDS = _command_table()


def build_parser(argv=()) -> argparse.ArgumentParser:
    """The parser for `argv`: with a subparser for every command or, when
    argv names one, for that command alone and, if it has actions, for the
    action argv names (for all of them when it names none)."""
    top = argparse.ArgumentParser(
        prog="sunlab",
        description="sunflower search workbench for finite relational structures")
    # A partial parser lists every command in its usage line through the
    # metavar.  The full parser leaves it unset: argparse would name the
    # command argument by it in the errors only the full parser raises.
    # An action's parser is named by its command alone, so its errors and
    # usage do not depend on which other actions were built.
    named = list(argv[:1]) if argv[:1] and argv[0] in COMMANDS else []
    listed = "{" + ",".join(COMMANDS) + "}" if named else None
    sub = top.add_subparsers(dest="command", required=True, metavar=listed)
    for name in named or COMMANDS:
        _, add_arguments, help_text = COMMANDS[name]
        p = sub.add_parser(name, help=help_text)
        if isinstance(add_arguments, dict):  # one parser per action
            actions = p.add_subparsers(dest="action", required=True)
            chosen = [a for a in argv[1:2] if a in add_arguments]
            leaves = [(actions.add_parser(a, help=add_arguments[a][1]), add_arguments[a][0])
                      for a in chosen or add_arguments]
        else:
            leaves = [(p, add_arguments)]
        for leaf, add in leaves:
            leaf.add_argument("--out", default=".", help="output directory")
            add(leaf)
    return top


def run(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    parser = build_parser(argv)
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return EXIT_USAGE if e.code not in (0, None) else 0
    current = _Run(f"hypergraph-{args.action}" if args.command == "hypergraph"
                   else args.command, args)
    try:
        existing = next(p for p in (current.out, *current.out.parents) if p.exists())
        if not existing.is_dir():
            raise NotADirectoryError(f"--out {current.out}: {existing} is not a directory")
        return current.finish(COMMANDS[args.command][0](current, args))
    except BudgetExceeded as e:
        return current.fail(EXIT_BUDGET, e)
    except (ExtractionFailed, GenerationError, NoAdmissibleExtension,
            InternalConsistencyError) as e:
        return current.fail(EXIT_PIPELINE, e)
    except (ValueError, KeyError, OSError) as e:
        # str() of a KeyError is the repr of its message
        print(f"error: {e.args[0] if isinstance(e, KeyError) and e.args else e}",
              file=sys.stderr)
        return EXIT_USAGE


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
