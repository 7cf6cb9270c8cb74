"""Finite-scale vertex-partition experiments.

The classical partition properties (pigeonhole, indivisibility and their
one-sided variants) quantify over infinite structures; on a finite chunk
the honest proxies are (a) which probe structures embed into each block
and (b) which admissible one-point types over small bases a block fails
to realise.  A failed type (A, p) pins down a basic open set whose
realisations all live outside the block, which is exactly the shape of
witness the counterexample partitions are built from.

Named schemes reproduce the textbook counterexample partitions:
neighbourhood of a vertex, out-neighbourhood in a tournament, an
equivalence class minus a point, a cut in a rationally-labelled order,
and the first-earlier-edge-colour rule for two-coloured graphs.
"""

from __future__ import annotations

import functools
import math
from fractions import Fraction
from typing import Iterable, Optional, Sequence

from .generators import extension_defects
from .structures import (
    BudgetExceeded,
    ClassSpec,
    QfType,
    SignatureMismatch,
    Structure,
    _adjacency_bits,
    _iter_embedding_maps,
    _own_types,
    _type_classes,
    colour_classes,
    embeds,
    find_embeddings,
    qf_type,
)


class Partition:
    """Disjoint blocks covering the vertices of a structure of given size."""

    __slots__ = ("size", "blocks")

    def __init__(self, size: int, blocks: Iterable[Iterable[int]]):
        bl = tuple(frozenset(b) for b in blocks)
        seen = set()
        for b in bl:
            if b & seen:
                raise ValueError("blocks must be disjoint")
            seen |= b
        if seen != set(range(size)):
            raise ValueError("blocks must cover 0..size-1")
        self.size = size
        self.blocks = bl

    def block_of(self, v: int) -> int:
        for i, b in enumerate(self.blocks):
            if v in b:
                return i
        raise KeyError(v)

    def __eq__(self, other):
        return (isinstance(other, Partition) and self.size == other.size
                and self.blocks == other.blocks)

    def __repr__(self):
        return f"Partition({[sorted(b) for b in self.blocks]})"


class Colouring:
    """A total assignment of natural-number colours to 0..size-1."""

    __slots__ = ("values",)

    def __init__(self, values: Iterable[int]):
        self.values = tuple(int(x) for x in values)
        if any(x < 0 for x in self.values):
            raise ValueError("colours are naturals")

    def __call__(self, v: int) -> int:
        return self.values[v]

    def __getitem__(self, v: int) -> int:
        return self.values[v]

    def __len__(self):
        return len(self.values)

    def __eq__(self, other):
        return isinstance(other, Colouring) and self.values == other.values

    def __repr__(self):
        return f"Colouring({list(self.values)})"


# ---------------------------------------------------------------------------
# Named partitions


def named_partition(S: Structure, scheme: str, anchor: Optional[int] = None) -> Partition:
    """Build one of the named counterexample partitions on a finite input."""
    if scheme == "neighbourhood":
        v = _need_anchor(S, anchor)
        nbrs = _adjacency_bits(S)[0][v]
        rest = [u for u in S.vertices if not nbrs >> u & 1]
        return Partition(S.size, [rest, [u for u in S.vertices if nbrs >> u & 1]])
    if scheme == "out-neighbourhood":
        v = _need_anchor(S, anchor)
        arcs, = _binary_relations(S, scheme, "E")
        out = {w for (u, w) in arcs if u == v}
        rest = [u for u in S.vertices if u not in out]
        return Partition(S.size, [sorted(out), rest])
    if scheme == "class-minus-point":
        v = _need_anchor(S, anchor)
        # the first relation, E on an equivalence structure
        name = S.signature.names[0] if S.signature.names else "E"
        equiv, = _binary_relations(S, scheme, name)
        # an equivalence iff related points share one closed neighbourhood
        cls_of: dict = {}
        for u, w in equiv:
            cls_of.setdefault(u, {u}).add(w)
        if any(cls_of[u] != cls_of.get(w) for u, w in equiv):
            raise ValueError(f"scheme {scheme} needs {name} to be an equivalence")
        cls = cls_of.get(v, {v})
        c_block = [u for u in S.vertices if u not in cls or u == v]
        d_block = sorted(cls - {v})
        return Partition(S.size, [c_block, d_block])
    if scheme == "first-edge-colour":
        return _first_edge_colour_partition(S)
    if scheme == "rational-cut":
        labels = S.meta.get("rational_labels")
        if labels is None:
            raise ValueError("rational-cut needs meta['rational_labels']")
        fr = [Fraction(x) for x in labels]
        c_block = [v for v in S.vertices if fr[v] < 0 or fr[v] == 1]
        d_block = [v for v in S.vertices if v not in set(c_block)]
        return Partition(S.size, [c_block, d_block])
    raise ValueError(f"unknown scheme {scheme!r}")


def _binary_relations(S: Structure, scheme: str, *names: str) -> list[frozenset]:
    """The tuples of the binary relations a scheme reads, in order."""
    sig = S.signature
    if not all(n in sig.names and sig.arity(n) == 2 for n in names):
        raise ValueError(f"scheme {scheme} needs the binary relation"
                         f"{'s' if len(names) > 1 else ''} {' and '.join(names)}")
    return [S.relations[n] for n in names]


def _need_anchor(S: Structure, anchor: Optional[int]) -> int:
    if anchor is None:
        raise ValueError("this scheme needs an anchor vertex")
    if not 0 <= anchor < S.size:
        raise ValueError("anchor out of range")
    return anchor


def _first_edge_colour_partition(S: Structure) -> Partition:
    """Blocks [C, D, E] in enumeration order: a vertex joins C or D
    according to the colour of its edge to the least earlier neighbour,
    and E collects the vertices with no earlier edge at all.  Two vertices
    of E can never be adjacent: the later one would have an earlier edge.
    """
    red, blue = _binary_relations(S, "first-edge-colour", "R", "B")
    c_block, d_block, e_block = [], [], []
    for v in range(S.size):
        first = None
        for u in range(v):
            if (u, v) in red or (u, v) in blue:
                first = u
                break
        if first is None:
            e_block.append(v)
        elif (first, v) in red:
            c_block.append(v)
        else:
            d_block.append(v)
    return Partition(S.size, [c_block, d_block, e_block])


# ---------------------------------------------------------------------------
# Block reports


class OpenSetWitness:
    """A defect (base, type) together with where its realisations live."""

    __slots__ = ("base", "qftype", "realisations")

    def __init__(self, base, qftype: QfType, realisations):
        self.base = tuple(base)
        self.qftype = qftype
        self.realisations = tuple(realisations)

    def __repr__(self):
        return f"OpenSetWitness(base={self.base}, realised_at={self.realisations})"


class BlockReport:
    __slots__ = ("index", "vertices", "probe_embeds", "open_sets")

    def __init__(self, index, vertices, probe_embeds, open_sets):
        self.index = index
        self.vertices = tuple(vertices)
        self.probe_embeds = tuple(probe_embeds)
        self.open_sets = tuple(open_sets)


class PartitionReport:
    __slots__ = ("blocks",)

    def __init__(self, blocks):
        self.blocks = tuple(blocks)

    def block(self, i) -> BlockReport:
        return self.blocks[i]


# bases over all blocks: at about 0.1 ms a knfree:3 base (CPython 3.11), 6 s
BASE_CAP = 50_000


def partition_report(S: Structure, P: Partition, K: ClassSpec,
                     probes: Sequence[Structure], base_bound: int) -> PartitionReport:
    """Per block: embedding verdict for each probe, the extension defects of
    the induced substructure up to base_bound, and for each defect the basic
    open set it pins down (all realisations lie outside the block).  Raises
    BudgetExceeded when the blocks have more than BASE_CAP bases."""
    if P.size != S.size:
        raise ValueError("partition does not fit the structure")
    for probe in probes:
        if probe.signature != S.signature:
            raise SignatureMismatch("probe signature mismatch")
    bases = sum(math.comb(len(b), j) for b in P.blocks for j in range(base_bound + 1))
    if bases > BASE_CAP:
        raise BudgetExceeded(f"{bases} bases exceed budget {BASE_CAP}")
    # each base's type classes over S, the empty base shared by all blocks
    own = _own_types(S)
    classes = functools.cache(lambda A: _type_classes(S, A, own))
    reports = []
    for i, block in enumerate(P.blocks):
        vs = sorted(block)
        sub = S.induced(vs)
        probe_flags = [embeds(probe, sub) for probe in probes]
        open_sets = []
        for d in extension_defects(sub, K, base_bound):
            p = d.transport(vs)
            open_sets.append(OpenSetWitness(p.parameters, p,
                                            classes(p.parameters).get(p.positives, ())))
        reports.append(BlockReport(i, vs, probe_flags, open_sets))
    return PartitionReport(reports)


# ---------------------------------------------------------------------------
# Colour-constrained copy search


class CopySearchReport:
    __slots__ = ("mono_count", "hetero_count", "mono_witness", "hetero_witness")

    def __init__(self, mono_count, hetero_count, mono_witness, hetero_witness):
        self.mono_count = mono_count
        self.hetero_count = hetero_count
        self.mono_witness = mono_witness
        self.hetero_witness = hetero_witness

    def __repr__(self):
        return f"CopySearchReport(mono={self.mono_count}, hetero={self.hetero_count})"


def colour_copy_search(S: Structure, chi: Colouring, B: Structure) -> CopySearchReport:
    """Count induced copies of B that are constant-coloured or injectively
    coloured under chi; a copy is a vertex set, not an embedding."""
    if len(chi) != S.size:
        raise ValueError("colouring does not fit the structure")
    if B.signature != S.signature:
        raise SignatureMismatch("copy search needs matching signatures")

    def hetero_filter(depth, v, partial):
        cv = chi(v)
        return all(chi(u) != cv for u in partial)

    mono_images = set()
    mono_witness = None
    # the empty copy is monochromatic even when S has no colour classes
    for cls in colour_classes(range(S.size), chi, B.size) or [[]]:
        for m in _iter_embedding_maps(B, S, candidates=[cls] * B.size):
            if mono_witness is None or m < mono_witness:
                mono_witness = m
            mono_images.add(frozenset(m))
    hetero_images = set()
    hetero_witness = None
    for m in _iter_embedding_maps(B, S, candidate_filter=hetero_filter):
        if hetero_witness is None:
            hetero_witness = m
        hetero_images.add(frozenset(m))
    return CopySearchReport(len(mono_images), len(hetero_images),
                            mono_witness, hetero_witness)


# ---------------------------------------------------------------------------
# The least-embedding colouring


class MinColouringResult:
    """chi(v) = least index of an embedding of the pattern under which v
    realises the transported type; vertices realising it nowhere get the
    sentinel colour (the number of embeddings) and are flagged."""

    __slots__ = ("colouring", "sentinel", "flagged", "embedding_count")

    def __init__(self, colouring, sentinel, flagged, embedding_count):
        self.colouring = colouring
        self.sentinel = sentinel
        self.flagged = tuple(flagged)
        self.embedding_count = embedding_count


def min_embedding_colouring(S: Structure, A: Structure, p: QfType) -> MinColouringResult:
    """Colour each vertex by the least embedding of A into S under which it
    realises p (embeddings in the deterministic search order)."""
    if len(p.parameters) != A.size:
        raise ValueError("type is not over the pattern structure")
    p.check_signature(S.signature)
    embs = find_embeddings(A, S)
    if not embs:
        raise ValueError("pattern does not embed into the structure")
    transported = []
    for f in embs:
        params = tuple(f.map[j] for j in p.parameters)
        transported.append((params, p.positives))
    sentinel = len(embs)
    values = []
    flagged = []
    for v in range(S.size):
        colour = sentinel
        for i, (params, want) in enumerate(transported):
            if v in params:
                continue
            if qf_type(S, v, params).positives == want:
                colour = i
                break
        if colour == sentinel:
            flagged.append(v)
        values.append(colour)
    return MinColouringResult(Colouring(values), sentinel, flagged, len(embs))
