"""JSON serialisation for every artifact the CLI reads or writes.

All emitters sort keys so identical inputs give byte-identical files.
Relations are stored as explicit tuple lists with no symmetry closure,
exactly as held in memory.
"""

from __future__ import annotations

import json
from itertools import chain
from json.encoder import encode_basestring_ascii as _quote
from typing import Optional

from .ksets import Presentation, SunflowerCert
from .partitionlab import Colouring, Partition, PartitionReport
from .ramsey import PartitionedHypergraph
from .structures import ClassSpec, Embedding, QfType, Signature, Structure
from .witness import ExtractionTrace, TraceStep, WitnessChain, WitnessLevel


def dumps(obj) -> str:
    """Exactly `json.dumps(obj, sort_keys=True, indent=2)` plus a newline,
    without the pure-Python encoder that `indent` selects in CPython: plain
    ints (not bools) are written with `str` and lists of them joined in one
    step.  A rectangular array of plain ints of depth 2 or more (every
    level lists or tuples of one length, the last level all `int`), such as
    a relation table or a list of families of k-sets, is written through
    one `%d` template built for its shape, after one type pass per level;
    other lists go item by item, so bools stay `true`/`false`.  Strings are
    escaped by `json`'s C escaper and other scalars go through
    `json.dumps`.  Keys must be strings; any other key raises TypeError."""
    return _dump(obj, "\n") + "\n"


def _dump(obj, nl: str) -> str:
    if isinstance(obj, str):
        return _quote(obj)
    inner = nl + "  "
    if isinstance(obj, (list, tuple)):
        brackets = "[]"
        types = set(map(type, obj))
        if types <= {list, tuple}:  # a rectangular int array? one type pass per level
            shape, level, leaves = [len(obj)], obj, types
            while leaves <= {list, tuple} and len(lengths := set(map(len, level))) == 1:
                shape += lengths
                level = tuple(chain.from_iterable(level))
                leaves = set(map(type, level))
            if leaves == {int}:
                template = "%d"
                for depth in reversed(range(len(shape))):
                    end = nl + "  " * depth
                    item = end + "  "
                    rows = ("," + item).join([template] * shape[depth])
                    template = "[" + item + rows + end + "]"
                return template % level
        items = map(str, obj) if types <= {int} else [_dump(x, inner) for x in obj]
    elif isinstance(obj, dict):
        brackets = "{}"
        items = [_quote(key) + ": " + _dump(x, inner) for key, x in sorted(obj.items())]
    else:
        return str(obj) if type(obj) is int else json.dumps(obj)
    if not obj:
        return brackets
    return brackets[0] + inner + ("," + inner).join(items) + nl + brackets[1]


def _ints(x, depth: int = 0):
    """x, checked to be a JSON integer or, at depth d > 0, a JSON list of
    depth d - 1, in one type pass per level; the walk only names a bad value
    (a non-list above depth 0 raises TypeError, a non-integer ValueError)."""
    if not depth:
        if type(x) is not int:
            raise ValueError(f"expected a JSON integer, got {x!r}")
        return x
    level = [x]
    for _ in range(depth):
        level = list(chain.from_iterable(level)) if set(map(type, level)) <= {list} else [None]
    if not set(map(type, level)) <= {int}:
        for y in _list(x):
            _ints(y, depth - 1)
    return x


def _list(x) -> list:
    if type(x) is not list:
        raise TypeError(f"expected a JSON list, got {x!r}")
    return x


def _name(x) -> str:
    if type(x) is not str:
        raise ValueError(f"expected a JSON string, got {x!r}")
    return x


def signature_to_json(sig: Signature) -> list:
    return [{"name": n, "arity": a} for n, a in sig.relations]


def signature_from_json(data) -> Signature:
    return Signature((_name(d["name"]), _ints(d["arity"])) for d in _list(data))


def structure_to_json(S: Structure) -> dict:
    out = {
        "signature": signature_to_json(S.signature),
        "size": S.size,
        "relations": {n: list(map(list, sorted(S.relations[n])))
                      for n in S.signature.names},
    }
    if S.meta:
        out["meta"] = S.meta
    return out


def structure_from_json(data) -> Structure:
    rels = {n: _ints(ts, 2) for n, ts in data.get("relations", {}).items()}
    return Structure(signature_from_json(data["signature"]), _ints(data["size"]),
                     rels, data.get("meta"))


def classspec_to_json(K: ClassSpec) -> dict:
    return {
        "signature": signature_to_json(K.signature),
        "forbidden": [structure_to_json(F) for F in K.forbidden],
        "name": K.name,
    }


def classspec_from_json(data) -> ClassSpec:
    return ClassSpec(signature_from_json(data["signature"]),
                     [structure_from_json(d) for d in data["forbidden"]],
                     name=data.get("name", ""))


def partition_to_json(P: Partition) -> dict:
    return {"blocks": [sorted(b) for b in P.blocks]}


def colouring_to_json(chi: Colouring) -> dict:
    return {"values": list(chi.values)}


def colouring_from_json(data) -> Colouring:
    return Colouring(_ints(data["values"], 1))


def qftype_to_json(p: QfType) -> dict:
    return {
        "parameters": list(p.parameters),
        "positives": sorted([n, list(pat)] for n, pat in p.positives),
    }


def qftype_from_json(data) -> QfType:
    return QfType(_ints(data["parameters"], 1),
                  [(_name(n), tuple(_ints(pat, 1))) for n, pat in data["positives"]])


def presentation_to_json(P: Presentation) -> dict:
    return {"k": P.k, "sets": list(map(list, P._sorted))}


def presentation_from_json(data, base: Structure) -> Presentation:
    return Presentation(base, _ints(data["k"]), _ints(data["sets"], 2))


def cert_to_json(cert: SunflowerCert) -> dict:
    return {
        "petals": list(cert.petals),
        "centre": sorted(cert.centre),
        "iso": list(cert.iso.map),
        "degenerate": cert.degenerate,
    }


def cert_from_json(data, B: Structure, base: Structure) -> SunflowerCert:
    iso = Embedding(B, base, _ints(data["iso"], 1), validate=False)
    return SunflowerCert(_ints(data["petals"], 1), _ints(data["centre"], 1), iso,
                         data.get("degenerate", False))


def hypergraph_to_json(H: PartitionedHypergraph) -> dict:
    return {
        "n": H.n,
        "parts": [list(p) for p in H.parts],
        "edges": list(map(list, H.edges)),
        "meta": H.meta,
    }


def hypergraph_from_json(data) -> PartitionedHypergraph:
    return PartitionedHypergraph(_ints(data["n"]), _ints(data["parts"], 2),
                                 _ints(data["edges"], 2), data.get("meta"))


def chain_to_json(chain: WitnessChain) -> dict:
    levels = []
    for lvl in chain.levels:
        levels.append({
            "structure": structure_to_json(lvl.structure),
            "parts": None if lvl.parts is None else [list(p) for p in lvl.parts],
            "colourings": lvl.colourings,
            "hypergraph_meta": lvl.hypergraph_meta,
        })
    return {"class": classspec_to_json(chain.klass), "levels": levels,
            "seed": chain.seed}


def chain_from_json(data) -> WitnessChain:
    levels = []
    for i, d in enumerate(data["levels"]):
        S, parts, s = structure_from_json(d["structure"]), d.get("parts"), d.get("colourings")
        if not i and parts is not None:
            raise ValueError("chain level 1: parts must be null")
        if i and (len(_ints(parts, 2)) != levels[-1].structure.size
                  or sorted(v for p in parts for v in p) != list(range(S.size))):
            raise ValueError(f"chain level {i + 1}: parts must split its vertices, "
                             f"one part per vertex of level {i}")
        levels.append(WitnessLevel(S, parts, None if s is None else _ints(s),
                                   d.get("hypergraph_meta")))
    if not levels:
        raise ValueError("a chain needs at least one level")
    return WitnessChain(classspec_from_json(data["class"]), levels,
                        data.get("seed"))


def trace_to_json(trace: ExtractionTrace) -> dict:
    steps = []
    for st in trace.steps:
        steps.append({"level": st.level, "case": st.case, "part": st.part,
                      "f": None if st.f is None else list(st.f),
                      "shared": st.shared, "copy": list(st.copy)})
    return {"steps": steps}


def trace_from_json(data) -> ExtractionTrace:
    steps = [TraceStep(_ints(d["level"]), d["case"], d.get("part"), d.get("f"),
                       None if d.get("shared") is None else _ints(d["shared"]),
                       _ints(d.get("copy", []), 1))
             for d in data["steps"]]
    return ExtractionTrace(steps)


def partition_report_to_json(report: PartitionReport) -> dict:
    blocks = []
    for b in report.blocks:
        blocks.append({
            "index": b.index,
            "vertices": list(b.vertices),
            "probe_embeds": list(b.probe_embeds),
            "defects": [{"base": list(w.base),
                         "type": qftype_to_json(w.qftype)} for w in b.open_sets],
            "open_sets": [{"base": list(w.base),
                           "type": qftype_to_json(w.qftype),
                           "realisations": list(w.realisations),
                           "contained_outside_block":
                               not (set(w.realisations) & set(b.vertices))}
                          for w in b.open_sets],
        })
    return {"blocks": blocks, "reverify_with": "partition_report"}


def partition_report_to_csv(report: PartitionReport) -> str:
    lines = ["block,kind,detail,value"]
    for b in report.blocks:
        lines.append(f"{b.index},size,,{len(b.vertices)}")
        for i, flag in enumerate(b.probe_embeds):
            lines.append(f"{b.index},probe,{i},{flag}")
        for w in b.open_sets:
            base = " ".join(map(str, w.base))
            lines.append(f"{b.index},defect,{base},missing")
    return "\n".join(lines) + "\n"
