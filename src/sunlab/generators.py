"""Seeded generators of finite stand-ins for the classical generic structures,
plus a generic class-constrained random-extension builder and an
extension-property defect scanner.

Everything is deterministic in (name, size, seed): generators draw from
``random.Random(f"{name}|{size}|{seed}")``, whose string seeding is stable
across platforms and runs.

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
    Structure,
    _atoms_through,
    _by_support,
    _class_tests,
    _completions,
    _diagram,
    _own_types,
    _types_over,
    admissible_extensions,
    qf_type,
    satisfies_class,
)


class NoAdmissibleExtension(RuntimeError):
    """The class admits no one-point extension of the current structure."""


# ---------------------------------------------------------------------------
# One-point extensions within a class, decided support by support:
# structures.admissible_extensions lists them all, gen_generic samples one.


def admissible_point_types(base: Structure, K: ClassSpec) -> list[QfType]:
    """All class-admissible one-point types over the whole of `base`
    (parameters 0..|base|-1), in deterministic order."""
    b = base.size
    return [qf_type(ext, b, range(b)) for ext in admissible_extensions(base, K)]


def extension_defects(S: Structure, K: ClassSpec, base_bound: int) -> list[QfType]:
    """Every one-point type over an ascending base A of at most base_bound
    vertices (the type's parameters) that K admits over A but no vertex of
    S realises, as admissible_extensions lists them all.  Reordered bases
    are left out, as their types only permute.  The admissible types are
    found once per base structure, keyed by |A| and the atoms that hold on
    A, as bases repeat a few structures.  The empty-base types are read
    once per structure; per base, the vertices' types over it are read in
    ascending order only until each admissible type has been seen."""
    if base_bound < 0:
        raise ValueError("base_bound must be >= 0")
    if not satisfies_class(S, K):
        raise ValueError("structure is not in the class")
    own = _own_types(S)
    admissible: dict = {}
    defects = []
    for b in range(base_bound + 1):
        for A in itertools.combinations(S.vertices, b):
            diagram = (b, _diagram(S, A))
            if diagram not in admissible:
                base = Structure(S.signature, b)._grown(b, diagram[1])
                types = admissible_point_types(base, K)
                admissible[diagram] = sorted((t.positives for t in types), key=sorted)
            missing = set(admissible[diagram])
            for _, p in _types_over(S, A, own):
                missing.discard(p)
                if not missing:
                    break
            defects.extend(QfType(A, p) for p in admissible[diagram] if p in missing)
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
    in K is drawn iff each of its support prefixes is in K.  Raises
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
        # a signature without relations still has the vertex's own support
        for sup, group in _by_support(_atoms_through(S.signature, v)) or [((v,), [])]:
            options = [T for chosen, T in _completions(S, group, K)
                       if chosen or point or sup != (v,)]
            if not options:
                raise NoAdmissibleExtension(f"no admissible vertex {v}")
            S = options[rng.randrange(len(options))]
    return S.with_meta(generator="generic", klass=K.name, size=size, seed=seed)


# ---------------------------------------------------------------------------
# Named generators


def _clique_exists(adj: list[int], inside: int, size: int) -> bool:
    """Whether the vertex bitmask `inside` holds a clique on `size` vertices."""
    while inside.bit_count() >= size > 0:
        u = inside.bit_length() - 1
        inside ^= 1 << u
        if _clique_exists(adj, inside & adj[u], size - 1):
            return True
    return size <= 0


def _gen_random_graph(size, rng):
    edges = [(i, j) for i, j in itertools.combinations(range(size), 2)
             if rng.random() < 0.5]
    return catalog.graph(size, edges)


def _gen_knfree(n, size, rng):
    adj = [0] * size  # neighbourhoods as bitmasks
    edges = []
    for v in range(size):
        order = list(range(v))
        rng.shuffle(order)
        for u in order:
            # an edge uv closes a K_n iff the common neighbourhood already
            # holds a clique on n-2 vertices; the draws are rng.choice's
            # among m = 1 or 2 values: getrandbits(m) until it is below m
            m = 1 if _clique_exists(adj, adj[u] & adj[v], n - 2) else 2
            r = rng.getrandbits(m)
            while r >= m:
                r = rng.getrandbits(m)
            if r:
                adj[u] |= 1 << v
                adj[v] |= 1 << u
                edges.append((u, v))
    return catalog.graph(size, edges)


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

    Each existing vertex is placed below, incomparable to, or above the
    new point, uniformly among the labels compatible with the labels
    already assigned; the pairwise compatibility conditions are exactly
    what keeps the extended relation transitive.
    """
    less: set[tuple[int, int]] = set()
    for v in range(size):
        label = {}
        for u in range(v):
            ok = []
            for cand in ("below", "incomp", "above"):
                good = True
                for w, lw in label.items():
                    pair = {cand, lw}
                    if pair == {"below", "above"}:
                        lo, hi = (u, w) if cand == "below" else (w, u)
                        if (lo, hi) not in less:
                            good = False
                    elif pair == {"below", "incomp"}:
                        c = u if cand == "below" else w
                        d = w if cand == "below" else u
                        if (d, c) in less:  # c > d would force d below the point
                            good = False
                    elif pair == {"above", "incomp"}:
                        e = u if cand == "above" else w
                        d = w if cand == "above" else u
                        if (e, d) in less:  # e < d would force d above the point
                            good = False
                    if not good:
                        break
                if good:
                    ok.append(cand)
            label[u] = ok[rng.randrange(len(ok))]
        for u, lu in label.items():
            if lu == "below":
                less.add((u, v))
            elif lu == "above":
                less.add((v, u))
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


def _gen_rb(size, rng):
    red = [set() for _ in range(size)]
    blue = [set() for _ in range(size)]
    for v in range(size):
        order = list(range(v))
        rng.shuffle(order)
        for u in order:
            choices = ["none"]
            if not (red[u] & red[v]):
                choices.append("R")
            if not (blue[u] & blue[v]):
                choices.append("B")
            pick = choices[rng.randrange(len(choices))]
            if pick == "R":
                red[u].add(v)
                red[v].add(u)
            elif pick == "B":
                blue[u].add(v)
                blue[v].add(u)
    r_edges = [(u, v) for u in range(size) for v in red[u] if u < v]
    b_edges = [(u, v) for u in range(size) for v in blue[u] if u < v]
    return catalog.rb_structure(size, r_edges, b_edges)


def parse_generator_id(name: str) -> tuple[str, Optional[int]]:
    if ":" in name:
        head, arg = name.split(":", 1)
        return head, int(arg)
    if name.endswith(")") and "(" in name:
        head, arg = name[:-1].split("(", 1)
        return head, int(arg)
    return name, None


def gen_named(name: str, size: int, seed: int) -> Structure:
    """Generate a named structure deterministically in (name, size, seed)."""
    if size < 1:
        raise ValueError("size must be >= 1")
    head, arg = parse_generator_id(name)
    rng = random.Random(f"{head}:{arg}|{size}|{seed}")
    if head == "random-graph":
        S = _gen_random_graph(size, rng)
    elif head == "knfree":
        if arg is None or arg < 3:
            raise ValueError("knfree needs a parameter n >= 3, e.g. knfree:3")
        S = _gen_knfree(arg, size, rng)
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
        S = _gen_rb(size, rng)
    elif head == "f-free-3hyper":
        S = gen_generic(catalog.f_free_3hypergraphs(), size, seed,
                        rng=random.Random(f"f-free-3hyper|{size}|{seed}"))
    elif head == "pure-set":
        S = Structure(catalog.PURE_SIG, size)
    else:
        raise ValueError(f"unknown generator {name!r}")
    return S.with_meta(generator=name, size=size, seed=seed)
