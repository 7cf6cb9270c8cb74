"""The constructive pipeline: paste a structure into the edges of a
high-girth hypergraph, stack pasted levels into a witness chain, and pull
sunflower certificates out of presentations of the top level.

The extraction walks the chain downwards.  At level k it reads the k-sets
of a presentation, derives one colouring per function assigning a
coordinate to each part, and looks for either a monochromatic copy of the
previous level inside a single part (then all its sets share one ground
element, which joins the centre and the recursion continues on the
stripped (k-1)-sets) or a transversal copy whose sets are pairwise
disjoint (then any copy of the target inside it is an empty-centre
sunflower).  When both searches fail the instance's dichotomy property is
refuted by this very presentation; a brute-force sweep still tries to
rescue a certificate, so a reported failure is a genuine counterexample
presentation with no sunflower copy at all.
"""

from __future__ import annotations

import itertools
import random
from typing import Optional

from .ksets import (
    Presentation,
    SunflowerCert,
    find_sunflower_copies,
    sunflower_centre,
    verify_sunflower_cert,
)
from .ramsey import find_short_cycle, gen_witness_hypergraph, PartitionedHypergraph
from .structures import (
    ClassSpec,
    Embedding,
    Structure,
    _iter_embedding_maps,
    are_isomorphic,
    colour_classes,
    embedding_defect,
    enumerate_class_members,
    find_embeddings,
    qf_type,
    satisfies_class,
    vertex_mask,
)


class PastingError(ValueError):
    """Preconditions of the pasting construction are violated."""


class InternalConsistencyError(RuntimeError):
    """The pasted structure left its class; the construction forbids this,
    so reaching it signals a bug rather than bad input."""


class NonTransitiveClass(ValueError):
    """The chain construction needs a class with a single vertex type."""


class ExtractionFailed(RuntimeError):
    """Both extraction cases failed and brute force found no sunflower copy:
    the presentation is a counterexample to this instance's witness
    property."""

    def __init__(self, presentation: Presentation, level: int, message: str):
        super().__init__(message)
        self.presentation = presentation
        self.level = level


class PastedStructure:
    __slots__ = ("structure", "parts")

    def __init__(self, structure: Structure, parts):
        self.structure = structure
        self.parts = tuple(tuple(p) for p in parts)


class WitnessLevel:
    """One chain level: the structure, its part assignment (indexed by the
    vertices of the previous level) and the colouring count it absorbs."""

    __slots__ = ("structure", "parts", "colourings", "hypergraph_meta")

    def __init__(self, structure: Structure, parts=None,
                 colourings: Optional[int] = None, hypergraph_meta=None):
        self.structure = structure
        self.parts = None if parts is None else tuple(tuple(p) for p in parts)
        self.colourings = colourings
        self.hypergraph_meta = dict(hypergraph_meta or {})


class WitnessChain:
    __slots__ = ("klass", "levels", "seed")

    def __init__(self, klass: ClassSpec, levels, seed: Optional[int] = None):
        self.klass = klass
        self.levels = tuple(levels)
        self.seed = seed

    @property
    def target(self) -> Structure:
        return self.levels[0].structure

    @property
    def k(self) -> int:
        return len(self.levels)

    def top(self) -> Structure:
        return self.levels[-1].structure

    def __repr__(self):
        sizes = [lvl.structure.size for lvl in self.levels]
        return f"WitnessChain(k={self.k}, sizes={sizes})"


class TraceStep:
    __slots__ = ("level", "case", "part", "f", "shared", "copy")

    def __init__(self, level, case, part=None, f=None, shared=None, copy=()):
        self.level = level
        self.case = case
        self.part = part
        self.f = None if f is None else tuple(f)
        self.shared = shared
        self.copy = tuple(copy)

    def __repr__(self):
        return f"TraceStep(level={self.level}, case={self.case!r})"


class ExtractionTrace:
    __slots__ = ("steps",)

    def __init__(self, steps):
        self.steps = tuple(steps)


# ---------------------------------------------------------------------------
# Pasting


def paste(H: PartitionedHypergraph, B: Structure, K: ClassSpec) -> PastedStructure:
    """Replace every edge of H by a copy of B (edge vertices in ascending
    order carry B's vertices in index order) and nothing else.

    Needs girth >= 4, |B| = uniformity, and a single vertex type in B over
    the empty set, which is what makes overlapping copies agree.  The
    result is checked against the class: a failure here cannot come from
    the inputs and is raised as an internal inconsistency.
    """
    if B.signature != K.signature:
        raise PastingError("target and class signatures differ")
    if H.n != B.size:
        raise PastingError("hypergraph uniformity must equal the target size")
    if len({qf_type(B, v, ()).positives for v in B.vertices}) > 1:
        raise PastingError("all target vertices must share one empty-base type")
    if find_short_cycle(H, 4) is not None:
        raise PastingError("hypergraph girth must be at least 4")
    if not satisfies_class(B, K):
        raise PastingError("target is not in the class")

    verts = H.vertices
    pos = {v: i for i, v in enumerate(verts)}
    rels = {name: set() for name in B.signature.names}
    for e in H.edges:
        evs = [pos[v] for v in e]
        for name in B.signature.names:
            for t in B.relations[name]:
                rels[name].add(tuple(evs[x] for x in t))
    out = Structure(B.signature, len(verts), rels)
    if not satisfies_class(out, K):
        raise InternalConsistencyError("pasted structure left the class")
    parts = tuple(tuple(pos[v] for v in p) for p in H.parts)
    return PastedStructure(out, parts)


# ---------------------------------------------------------------------------
# Chain construction


def class_is_transitive(K: ClassSpec) -> bool:
    """A forbidden-substructure class has one vertex type iff it admits
    exactly one one-vertex structure."""
    return len(enumerate_class_members(K, 1)) == 1


def build_witness_chain(K: ClassSpec, B: Structure, k: int, seed: int,
                        c_override: Optional[int] = None) -> WitnessChain:
    """Stack k levels: level 1 is the target itself (distinct 1-sets are
    pairwise disjoint, so any copy is a sunflower), and level j pastes
    level j-1 into a girth-4 hypergraph sized for j^(size of level j-1)
    colourings."""
    if k < 1:
        raise ValueError("k must be >= 1")
    if B.size < 1:
        raise ValueError("target must have at least one vertex")
    if not satisfies_class(B, K):
        raise ValueError("target is not in the class")
    if not class_is_transitive(K):
        raise NonTransitiveClass("witness chains require a transitive class")
    levels = [WitnessLevel(B)]
    seed_rng = random.Random(f"chain|{seed}")
    for j in range(2, k + 1):
        prev = levels[-1].structure
        s_j = j ** prev.size
        level_seed = seed_rng.getrandbits(63)
        H = gen_witness_hypergraph(prev.size, s_j, 4, level_seed, c_override=c_override)
        pasted = paste(H, prev, K)
        levels.append(WitnessLevel(pasted.structure, pasted.parts, s_j, H.meta))
    return WitnessChain(K, levels, seed)


# ---------------------------------------------------------------------------
# Extraction


def _find_part_mono_copy(P: Presentation, D: Structure, part_vertices,
                         colour) -> Optional[tuple[int, ...]]:
    # a copy lies in a colour class of at least |D| part vertices; the least
    # of the classes' first copies wins, and a later class can only win
    # below the first vertex of the best copy so far
    n = D.size
    best = None
    for cls in colour_classes(part_vertices, colour, n):
        head = cls if best is None else cls & (1 << best[0]) - 1
        pools = [head] + [cls] * (n - 1)
        best = next(_iter_embedding_maps(D, P.base, candidates=pools), best)
    return best


def _find_disjoint_transversal_copy(P: Presentation, D: Structure,
                                    part_of) -> Optional[tuple[int, ...]]:
    sets = P.sets

    def flt(depth, v, partial):
        i, s = part_of[v], sets[v]
        for u in partial:
            if part_of[u] == i or not s.isdisjoint(sets[u]):
                return False
        return True

    for vmap in _iter_embedding_maps(D, P.base, candidate_filter=flt):
        return vmap
    return None


def extract_sunflower(chain: WitnessChain, P: Presentation,
                      level: Optional[int] = None,
                      ) -> tuple[SunflowerCert, ExtractionTrace]:
    """Extract a sunflower copy of the chain's target from a presentation of
    the chain's level-`level` structure on level-sets.

    Search order is deterministic: parts ascending, coordinate choices in
    lexicographic order, embeddings in canonical order; the first hit wins.
    Raises ExtractionFailed only after a brute-force sweep confirms the
    presentation contains no sunflower copy at all.
    """
    if level is None:
        level = chain.k
    if not 1 <= level <= chain.k:
        raise ValueError("level out of range")
    if P.k != level:
        raise ValueError(f"presentation must use {level}-sets at level {level}")
    C, parts = chain.levels[level - 1].structure, chain.levels[level - 1].parts
    if C != P.base:
        iso = are_isomorphic(C, P.base)
        if iso is None:
            raise ValueError("presentation base is not isomorphic to the level")
        parts = parts and [[iso.map[v] for v in part] for part in parts]

    B = chain.target
    steps: list[TraceStep] = []
    cert = _extract(chain, P, level, parts, steps)
    if cert is not None:
        return cert, ExtractionTrace(steps)
    rescue = find_sunflower_copies(P, B, limit=1)
    if rescue:
        steps.append(TraceStep(level, "fallback", copy=rescue[0].petals))
        return rescue[0], ExtractionTrace(steps)
    raise ExtractionFailed(P, level,
                           "no extraction case applies and no sunflower copy "
                           "exists: the presentation refutes this instance's "
                           "witness property")


def _extract(chain: WitnessChain, P: Presentation, level: int,
             parts, steps: list) -> Optional[SunflowerCert]:
    """`parts` are the level's parts as vertex lists of P.base."""
    B = chain.target
    if level == 1:
        embs = find_embeddings(B, P.base, limit=1)
        if not embs:
            return None
        petals = embs[0].map
        steps.append(TraceStep(1, "base", copy=petals))
        return SunflowerCert(petals, frozenset(), embs[0],
                             degenerate=len(petals) < 2)

    D = chain.levels[level - 2].structure
    n = D.size
    coords = list(zip(*P._sorted))

    # A copy inside part i is monochromatic under the coordinate colouring
    # keyed by f iff it is so under f restricted to i, so the search over
    # coordinate functions collapses to one coordinate per part.
    for i, part_vertices in enumerate(parts):
        for t, colour in enumerate(coords):
            vmap = _find_part_mono_copy(P, D, part_vertices, colour)
            if vmap is None:
                continue
            shared = colour[vmap[0]]
            stripped = [P.sets[v] - {shared} for v in vmap]
            # vmap is an induced copy of D: the stripped sets present D itself
            sub = Presentation(D, level - 1, stripped)
            f = tuple(t if j == i else 0 for j in range(n))
            steps.append(TraceStep(level, "mono", part=i, f=f,
                                   shared=shared, copy=vmap))
            rec = _extract(chain, sub, level - 1, chain.levels[level - 2].parts, steps)
            if rec is None:
                steps.pop()
                continue
            petals = tuple(vmap[x] for x in rec.petals)
            emb = Embedding(B, P.base, petals, validate=False)
            return SunflowerCert(petals, rec.centre | {shared}, emb,
                                 degenerate=rec.degenerate)

    part_of = [0] * P.base.size
    for i, part in enumerate(parts):
        for v in part:
            part_of[v] = i
    vmap = _find_disjoint_transversal_copy(P, D, part_of)
    if vmap is not None:
        for bmap in _iter_embedding_maps(B, P.base, candidates=[vertex_mask(vmap)] * B.size):
            steps.append(TraceStep(level, "transversal", copy=vmap))
            emb = Embedding(B, P.base, bmap, validate=False)
            return SunflowerCert(bmap, frozenset(), emb,
                                 degenerate=len(bmap) < 2)
    return None


# The extraction pipeline's certificate check, under the name its callers use.
verify_certificate = verify_sunflower_cert


def replay_trace(chain: WitnessChain, P: Presentation,
                 trace: ExtractionTrace) -> bool:
    """Re-run the checks recorded at every step of an extraction trace.

    Each step must sit at the level of the presentation it reads: a
    `mono` step strips one shared element and goes one level down, and a
    `base` step is accepted only on 1-sets.  The trace must end in a
    `base`, `transversal` or `fallback` step, which proves a sunflower; a
    `fallback` step's copy must itself be a copy of the target whose sets
    form a sunflower."""
    B = chain.target
    cur = P
    for step in trace.steps:
        copy = step.copy
        if step.level != cur.k or len(set(copy)) != len(copy) \
                or not all(0 <= v < cur.base.size for v in copy):
            return False
        if step.case == "fallback":
            return embedding_defect(B, cur.base, copy) is None and \
                sunflower_centre(cur.sets[v] for v in copy) is not None
        if step.case == "base":
            return cur.k == 1 and are_isomorphic(B, cur.base.induced(copy)) is not None
        if step.case not in ("mono", "transversal") or not 2 <= cur.k <= chain.k:
            return False
        D = chain.levels[cur.k - 2].structure
        if are_isomorphic(D, cur.base.induced(copy)) is None:
            return False
        if step.case == "transversal":
            sets = [cur.sets[v] for v in copy]
            return not any(a & b for a, b in itertools.combinations(sets, 2))
        if step.shared is None or any(step.shared not in cur.sets[v] for v in copy):
            return False
        stripped = [cur.sets[v] - {step.shared} for v in copy]
        cur = Presentation(cur.base.induced(copy), cur.k - 1, stripped)
    return False
