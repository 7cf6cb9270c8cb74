"""Seeded generators of finite stand-ins for the classical generic structures,
plus a generic class-constrained random-extension builder and an
extension-property defect scanner.

Everything is deterministic in (name, size, seed): generators draw from a
``random.Random`` seeded with a string made of the three, and string
seeding is stable across platforms and runs.  knfree:n and rb-bichrome
share one greedy sampler whose colour classes are K_n-free: one colour,
or two with n = 3.

A finite chunk can only approximate a homogeneous limit; the defect
scanner reports which one-point extensions over small bases are missing,
which is the proxy the partition experiments work with.
"""

from __future__ import annotations

import itertools
import math
import random
from fractions import Fraction
from typing import Optional

from . import catalog
from .structures import (
    ClassSpec,
    QfType,
    SignatureMismatch,
    Structure,
    _atoms_through,
    _by_support,
    _class_tests,
    _completions,
    _diagram,
    _iter_embedding_maps,
    _realisers,
    admissible_extensions,
    qf_type,
)


class NoAdmissibleExtension(RuntimeError):
    """The class admits no one-point extension of the current structure."""


# ---------------------------------------------------------------------------
# One-point extensions within a class, decided support by support:
# structures.admissible_extensions lists them all, gen_generic samples one.


def extension_defects(S: Structure, K: ClassSpec, base_bound: int,
                      block: int) -> list[QfType]:
    """Every one-point type over an ascending base A of at most base_bound
    vertices of the vertex mask `block` of S (the type's parameters) that K
    admits over A but no block vertex realises, as admissible_extensions
    lists them all.  The block is read in S, not copied: it is in K iff no
    forbidden F embeds in S inside the mask.  Reordered bases are left out,
    as their types only permute.  The admissible extensions are found once
    per base structure, keyed by |A| and the atoms that hold on A, as bases
    repeat a few structures.  Each, its point last, is the pattern of one
    kernel search pinned on A and pooled on the block, which stops at the
    type's first realisation."""
    if base_bound < 0:
        raise ValueError("base_bound must be >= 0")
    if S.signature != K.signature:
        raise SignatureMismatch("structure/class signature mismatch")
    if any(next(_iter_embedding_maps(F, S, candidates=[block] * F.size), None)
           for F in K.forbidden):
        raise ValueError("structure is not in the class")
    admissible: dict = {}
    defects = []
    vs = [v for v in S.vertices if block >> v & 1]
    for b in range(base_bound + 1):
        for A in itertools.combinations(vs, b):
            diagram = (b, _diagram(S, A))
            if diagram not in admissible:
                base = Structure(S.signature, b)._grown(b, diagram[1])
                admissible[diagram] = sorted(
                    ((qf_type(T, b, range(b)).positives, T)
                     for T in admissible_extensions(base, K)), key=lambda pT: sorted(pT[0]))
            defects.extend(QfType(A, p) for p, T in admissible[diagram]
                           if next(_realisers(T, S, A, block), None) is None)
    return defects


# ---------------------------------------------------------------------------
# Generic class-constrained generator


def gen_generic(K: ClassSpec, size: int, seed: int,
                rng: Optional[random.Random] = None) -> Structure:
    """Grow a structure in K by `size` random one-point extensions.

    Each new vertex's atoms are decided support by support in the order
    of structures._completions, each by a uniform pick among the options
    that keep the structure in K.  The picks are uniform given the
    supports before, not over whole one-point diagrams, and an extension
    in K is drawn iff its prefix up to each support is in K.  Raises
    NoAdmissibleExtension when a support has no option left.
    """
    if size < 1:
        raise ValueError("size must be >= 1")
    if rng is None:
        rng = random.Random(f"generic|{K.name}|{size}|{seed}")
    *_, point = _class_tests(K)
    S = Structure(K.signature, 0)
    for v in range(size):
        S = S._grown(v + 1)
        # a signature without relations gets its bare vertex from no supports
        for sup, group in _by_support(_atoms_through(S.signature, v)) or [((v,), [])]:
            options = [T for chosen, T in _completions(S, [(sup, group)] if group else [], K)
                       if chosen or point or sup != (v,)]
            if not options:
                raise NoAdmissibleExtension(f"no admissible vertex {v}")
            S = options[rng.randrange(len(options))]
    return S.with_meta(generator="generic", klass=K.name, size=size, seed=seed)


# ---------------------------------------------------------------------------
# Named generators


def _clique_exists(adj: list[int], inside: int, size: int) -> bool:
    """Whether the vertex bitmask `inside` holds a clique on `size` vertices."""
    if size <= 1:
        return inside.bit_count() >= size
    while inside.bit_count() >= size:
        u = inside.bit_length() - 1
        inside ^= 1 << u
        if _clique_exists(adj, inside & adj[u], size - 1):
            return True
    return False


def _gen_random_graph(size, rng):
    edges = [(i, j) for i, j in itertools.combinations(range(size), 2)
             if rng.random() < 0.5]
    return catalog.graph(size, edges)


def _greedy_edges(n, colours, size, rng):
    """Edge lists, one per colour, of a graph whose colour classes are K_n-free.

    Each pair uv, u in a shuffled order of the vertices before v, gets no
    edge or an edge of a colour in which it closes no K_n (its common
    neighbourhood, a bitmask, holds no clique on n-2 vertices: at n = 3, is
    empty), uniformly among those options in that order, drawn as
    rng.randrange(m) draws: getrandbits(m.bit_length()) until the value is
    below m.  The order is rng.shuffle's, with its draws inline."""
    adj = [[0] * size for _ in range(colours)]
    getrandbits = rng.getrandbits
    for v in range(size):
        order = list(range(v))
        for i in range(v - 1, 0, -1):
            k = (i + 1).bit_length()
            j = getrandbits(k)
            while j > i:
                j = getrandbits(k)
            order[i], order[j] = order[j], order[i]
        for u in order:
            free = []
            for bits in adj:
                common = bits[u] & bits[v]
                if not (common if n == 3 else _clique_exists(bits, common, n - 2)):
                    free.append(bits)
            m = len(free) + 1
            k = m.bit_length()
            r = getrandbits(k)
            while r >= m:
                r = getrandbits(k)
            if r:
                bits = free[r - 1]
                bits[u] |= 1 << v
                bits[v] |= 1 << u
    return [[(u, v) for v in range(size) for u in range(v) if bits[v] >> u & 1]
            for bits in adj]


def _gen_tournament(size, rng):
    arcs = []
    for i, j in itertools.combinations(range(size), 2):
        arcs.append((i, j) if rng.random() < 0.5 else (j, i))
    return Structure(catalog.ARC_SIG, size, {"E": arcs})


def _gen_oriented(size, rng):
    arcs = []
    for i, j in itertools.combinations(range(size), 2):
        pick = rng.randrange(3)
        if pick == 1:
            arcs.append((i, j))
        elif pick == 2:
            arcs.append((j, i))
    return Structure(catalog.ARC_SIG, size, {"E": arcs})


def _gen_poset(size, rng):
    """One-point random extensions of a strict partial order.

    Each existing vertex u, ascending, is placed below, incomparable to or
    above the new point, uniformly among the labels that keep the order
    transitive given those placed before.  All sets are bitmasks: lo[u] and
    hi[u] the vertices below and above u, below, incomp and above each label's."""
    lo, hi, less = [], [], []
    for v in range(size):
        below = incomp = above = 0
        for u in range(v):
            ok = []
            if not (above & ~hi[u] | incomp & lo[u]):
                ok.append(0)  # below: all of `above` over u, no `incomp` under
            if not (below & hi[u] | above & lo[u]):
                ok.append(1)  # incomparable: no `below` over u, no `above` under
            if not (below & ~lo[u] | incomp & hi[u]):
                ok.append(2)  # above: all of `below` under u, no `incomp` over
            label = ok[rng.randrange(len(ok))]
            if label == 0:
                below |= 1 << u
                hi[u] |= 1 << v
                less.append((u, v))
            elif label == 1:
                incomp |= 1 << u
            else:
                above |= 1 << u
                lo[u] |= 1 << v
                less.append((v, u))
        lo.append(below)
        hi.append(above)
    return Structure(catalog.ORDER_SIG, size, {"<": less})


def _gen_ordered_graph(size, rng):
    rels = {"<": [(i, j) for i in range(size) for j in range(i + 1, size)],
            "E": catalog.sym_tuples((i, j) for i, j in itertools.combinations(range(size), 2)
                                    if rng.random() < 0.5)}
    return Structure(catalog.ORDERED_GRAPH_SIG, size, rels)


def _gen_equivalence(size, rng):
    nclasses = max(1, math.isqrt(size - 1) + 1) if size > 1 else 1
    cls = [i % nclasses for i in range(size)]
    pairs = [(u, v) for u in range(size) for v in range(size)
             if u != v and cls[u] == cls[v]]
    S = Structure(catalog.EQ_SIG, size, {"E": pairs})
    return S.with_meta(classes=cls, nclasses=nclasses)


def _gen_double_equivalence(size, rng):
    side = max(1, round(size ** (1 / 3)))
    triples = list(itertools.product(range(side), repeat=3))
    n = len(triples)
    e0 = [(i, j) for i in range(n) for j in range(n)
          if i != j and triples[i][0] == triples[j][0]]
    e1 = [(i, j) for i in range(n) for j in range(n)
          if i != j and triples[i][1] == triples[j][1]]
    S = Structure(catalog.DOUBLE_EQ_SIG, n, {"E0": e0, "E1": e1})
    return S.with_meta(side=side, triples=[list(t) for t in triples],
                       requested_size=size)


def _gen_local_order(size, rng):
    # Distinct rational fractions of a full turn with an odd denominator,
    # so no two points are antipodal and the arc comparison never ties.
    d = size if size % 2 == 1 else size + 1
    fracs = [Fraction(i, d) for i in range(size)]
    rng.shuffle(fracs)
    half = Fraction(1, 2)
    arcs = []
    for u in range(size):
        for v in range(size):
            if u != v and Fraction(0) < (fracs[v] - fracs[u]) % 1 < half:
                arcs.append((u, v))
    S = Structure(catalog.ARC_SIG, size, {"E": arcs})
    return S.with_meta(angles=[str(f) for f in fracs], denominator=d)


def parse_generator_id(name: str) -> tuple[str, Optional[int]]:
    head, colon, arg = name.partition(":")
    return head, catalog.decimal_parameter(name, arg) if colon else None


def gen_named(name: str, size: int, seed: int) -> Structure:
    """Generate a named structure deterministically in (name, size, seed)."""
    if size < 1:
        raise ValueError("size must be >= 1")
    head, arg = parse_generator_id(name)
    if arg is not None and head != "knfree":
        raise ValueError(f"unknown generator {name!r}: only knfree takes a parameter")
    rng = random.Random(f"{head}:{arg}|{size}|{seed}")
    if head == "random-graph":
        S = _gen_random_graph(size, rng)
    elif head == "knfree":
        if arg is None or arg < 3:
            raise ValueError("knfree needs a parameter n >= 3, e.g. knfree:3")
        S = catalog.graph(size, _greedy_edges(arg, 1, size, rng)[0])
    elif head == "random-tournament":
        S = _gen_tournament(size, rng)
    elif head == "random-oriented":
        S = _gen_oriented(size, rng)
    elif head == "generic-poset":
        S = _gen_poset(size, rng)
    elif head == "generic-ordered-graph":
        S = _gen_ordered_graph(size, rng)
    elif head == "equivalence-omega":
        S = _gen_equivalence(size, rng)
    elif head == "double-equivalence":
        S = _gen_double_equivalence(size, rng)
    elif head == "local-order":
        S = _gen_local_order(size, rng)
    elif head == "rb-bichrome":
        S = catalog.rb_structure(size, *_greedy_edges(3, 2, size, rng))
    elif head == "f-free-3hyper":
        S = gen_generic(catalog.f_free_3hypergraphs(), size, seed,
                        rng=random.Random(f"f-free-3hyper|{size}|{seed}"))
    elif head == "pure-set":
        S = Structure(catalog.PURE_SIG, size)
    else:
        raise ValueError(f"unknown generator {name!r}")
    return S.with_meta(generator=name, size=size, seed=seed)
