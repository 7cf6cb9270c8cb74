"""Named signatures, example structures and forbidden-substructure classes.

Relations are stored with no implicit closure, so "being a graph" is itself
enforced through forbidden windows: the class of simple graphs forbids the
one-vertex loop and the single directed edge, both of which are irreducible
(their Gaifman graphs are cliques).  The same window trick handles
uniform hypergraphs, oriented graphs and the two-colour edge classes, so
every class here is closed under free amalgams by construction.
"""

from __future__ import annotations

import itertools
import math
from contextlib import suppress
from typing import Callable, Iterable

from .structures import (
    BudgetExceeded,
    ClassSpec,
    Signature,
    Structure,
)

GRAPH_SIG = Signature((("E", 2),))
ARC_SIG = Signature((("E", 2),))          # tournaments / oriented graphs / local orders
ORDER_SIG = Signature((("<", 2),))
ORDERED_GRAPH_SIG = Signature((("<", 2), ("E", 2)))
EQ_SIG = Signature((("E", 2),))
DOUBLE_EQ_SIG = Signature((("E0", 2), ("E1", 2)))
RB_SIG = Signature((("R", 2), ("B", 2)))
HYPER3_SIG = Signature((("E", 3),))
PURE_SIG = Signature(())

# The most tuples of a complete graph or 3-hypergraph, checked before it is
# built: knfree:256 and k41h3free are the largest classes forbidding one.
COMPLETE_TUPLE_CAP = 1 << 16


def _check_complete(n: int, arity: int) -> None:
    if math.perm(max(n, 0), arity) > COMPLETE_TUPLE_CAP:
        raise BudgetExceeded(f"complete structure on {n} vertices: over {COMPLETE_TUPLE_CAP} tuples")


def sym_tuples(base: Iterable[tuple]) -> set:
    """All permutations of each tuple (symmetric storage of an edge set)."""
    out = set()
    for t in base:
        out.update(itertools.permutations(t))
    return out


def graph(size: int, edges: Iterable[tuple]) -> Structure:
    return Structure(GRAPH_SIG, size, {"E": sym_tuples(edges)})


def pure_set(size: int) -> Structure:
    return Structure(PURE_SIG, size)


def complete_graph(n: int) -> Structure:
    _check_complete(n, 2)
    return graph(n, itertools.combinations(range(n), 2))


def path_graph(n: int) -> Structure:
    return graph(n, ((i, i + 1) for i in range(n - 1)))


def cycle_graph(n: int) -> Structure:
    return graph(n, [(i, (i + 1) % n) for i in range(n)])


def hypergraph3(size: int, triples: Iterable[tuple]) -> Structure:
    return Structure(HYPER3_SIG, size, {"E": sym_tuples(triples)})


def complete_hypergraph3(n: int) -> Structure:
    _check_complete(n, 3)
    return hypergraph3(n, itertools.combinations(range(n), 3))


def f_hypergraph() -> Structure:
    """The five-vertex 3-hypergraph: complete on {0,1,2,3} plus the two
    extra edges 014 and 234.  Every pair of its vertices shares an edge."""
    edges = list(itertools.combinations(range(4), 3)) + [(0, 1, 4), (2, 3, 4)]
    return hypergraph3(5, edges)


def rb_structure(size: int, red: Iterable[tuple], blue: Iterable[tuple]) -> Structure:
    return Structure(RB_SIG, size, {"R": sym_tuples(red), "B": sym_tuples(blue)})


def mono_triangle(colour: str) -> Structure:
    red = itertools.combinations(range(3), 2) if colour == "R" else ()
    blue = itertools.combinations(range(3), 2) if colour == "B" else ()
    return rb_structure(3, red, blue)


# ---------------------------------------------------------------------------
# Validity windows
#
# A structure stored tuple-by-tuple is a simple graph / uniform hypergraph /
# oriented graph only if every "window" (the induced substructure on the
# support of any tuple) looks right.  Windows always contain a tuple
# spanning all their vertices, so they are irreducible and legal as
# forbidden structures.  Enumerating every invalid window type up to
# isomorphism yields a forbidden set whose class is exactly the valid
# structures: a bad tuple in any structure exposes a bad window, and a
# minimal bad window of top size carries injective tuples only (repeats
# would make a smaller window bad first).


def _window_forbidden(sig: Signature, is_valid: Callable[[Structure], bool]) -> list[Structure]:
    max_arity = max(a for _, a in sig.relations)
    out = []
    seen = set()
    for m in range(1, max_arity + 1):
        slots = []
        for name, arity in sig.relations:
            for t in itertools.product(range(m), repeat=arity):
                if m == max_arity and arity == max_arity and len(set(t)) != arity:
                    continue  # repeats at top size are caught by smaller windows
                slots.append((name, t))
        for r in range(1, len(slots) + 1):
            for chosen in itertools.combinations(slots, r):
                if not any(len(set(t)) == m for _, t in chosen) or frozenset(chosen) in seen:
                    continue
                W = Structure(sig, m)._grown(m, chosen)
                if is_valid(W):
                    continue
                # W's relabellings are the windows isomorphic to it, and invalid
                seen.update(frozenset((n, tuple(p[x] for x in t)) for n, t in chosen)
                            for p in itertools.permutations(range(m)))
                out.append(W)
    return out


def _tuples_symmetric_irreflexive(S: Structure, name: str) -> bool:
    arity = S.signature.arity(name)
    ts = S.relations[name]
    for t in ts:
        if len(set(t)) != arity:
            return False
        if any(p not in ts for p in itertools.permutations(t)):
            return False
    return True


def _valid_graphlike(S: Structure) -> bool:
    return all(_tuples_symmetric_irreflexive(S, n) for n in S.signature.names)


def _valid_rb(S: Structure) -> bool:
    if not _valid_graphlike(S):
        return False
    return not (S.relations["R"] & S.relations["B"])


def _valid_oriented(S: Structure) -> bool:
    ts = S.relations["E"]
    for u, v in ts:
        if u == v or (v, u) in ts:
            return False
    return True


# ---------------------------------------------------------------------------
# The class catalog


def pure_sets() -> ClassSpec:
    return ClassSpec(PURE_SIG, (), name="pure")


def all_graphs() -> ClassSpec:
    return ClassSpec(GRAPH_SIG, _window_forbidden(GRAPH_SIG, _valid_graphlike),
                     name="graphs")


def kn_free(n: int) -> ClassSpec:
    if n < 3:
        raise ValueError("kn_free needs n >= 3")
    top = complete_graph(n)  # first, so an n over the cap builds nothing
    return ClassSpec(GRAPH_SIG, _window_forbidden(GRAPH_SIG, _valid_graphlike) + [top],
                     name=f"knfree:{n}")


def oriented_graphs() -> ClassSpec:
    return ClassSpec(ARC_SIG, _window_forbidden(ARC_SIG, _valid_oriented),
                     name="oriented")


def hypergraphs3() -> ClassSpec:
    return ClassSpec(HYPER3_SIG, _window_forbidden(HYPER3_SIG, _valid_graphlike),
                     name="3hypergraphs")


def knr_free_hypergraphs3(n: int) -> ClassSpec:
    """Finite 3-hypergraphs omitting the complete 3-hypergraph on n vertices."""
    if n < 4:
        raise ValueError("needs n >= 4")
    top = complete_hypergraph3(n)  # first, so an n over the cap builds nothing
    return ClassSpec(HYPER3_SIG, _window_forbidden(HYPER3_SIG, _valid_graphlike) + [top],
                     name=f"k{n}h3free")


def rb_bichrome() -> ClassSpec:
    """Red/blue edge-coloured graphs with no monochromatic triangle and no
    doubly-coloured edge."""
    forb = (_window_forbidden(RB_SIG, _valid_rb)
            + [mono_triangle("R"), mono_triangle("B")])
    return ClassSpec(RB_SIG, forb, name="rb-bichrome")


# The edges that F's edge-supersets on its five vertices add to F: one
# superset per isomorphism class, the first in order of size and then
# lexicographically, the classes sorted by canonical form.  The table
# spares every class build 120-permutation canonical forms; a test in
# tests/test_catalog.py derives it by brute force.
F_EXTENSIONS = (((0, 2, 4), (0, 3, 4), (1, 2, 4), (1, 3, 4)),
                ((0, 2, 4), (0, 3, 4), (1, 2, 4)),
                ((0, 2, 4), (0, 3, 4)),
                ((0, 2, 4), (1, 3, 4)),
                ((0, 2, 4),),
                ())


def f_free_3hypergraphs() -> ClassSpec:
    """3-hypergraphs with no copy of the five-vertex hypergraph F, not even
    non-induced: the forbidden list holds every edge-superset of F on its
    five vertices, so the induced test captures the subgraph condition."""
    base_edges = {tuple(sorted(t)) for t in f_hypergraph().relations["E"]}
    forb = (_window_forbidden(HYPER3_SIG, _valid_graphlike)
            + [hypergraph3(5, list(base_edges) + list(extra)) for extra in F_EXTENSIONS])
    return ClassSpec(HYPER3_SIG, forb, name="f-free-3hyper")


_CLASS_BUILDERS = {
    "pure": pure_sets,
    "graphs": all_graphs,
    "oriented": oriented_graphs,
    "3hypergraphs": hypergraphs3,
    "rb-bichrome": rb_bichrome,
    "f-free-3hyper": f_free_3hypergraphs,
}


def decimal_parameter(name: str, text: str) -> int:
    """The parameter `text` of `name`: decimal digits, no sign, space or leading zero."""
    with suppress(ValueError):  # int() refuses more than 4,300 digits
        if text.isascii() and text.isdigit() and (len(text) == 1 or text[0] != "0"):
            return int(text)
    raise ValueError(f"bad parameter in {name!r}: digits only, no sign or leading zero")


def class_by_name(name: str) -> ClassSpec:
    """Resolve catalog class names, including parameterised ones like
    'knfree:3' and 'k4h3free'.  Each call builds a fresh class."""
    if name in _CLASS_BUILDERS:
        return _CLASS_BUILDERS[name]()
    if name.startswith("knfree:"):
        return kn_free(decimal_parameter(name, name[7:]))
    if name.endswith("h3free") and name.startswith("k"):
        return knr_free_hypergraphs3(decimal_parameter(name, name[1:-6]))
    raise KeyError(f"unknown class {name!r}")


_STRUCTURE_BUILDERS: dict[str, Callable[[], Structure]] = {
    "point": lambda: pure_set(1),
    "edge": lambda: complete_graph(2),
    "k2": lambda: complete_graph(2),
    "k3": lambda: complete_graph(3),
    "k4": lambda: complete_graph(4),
    "p3": lambda: path_graph(3),
    "c5": lambda: cycle_graph(5),
    "f": f_hypergraph,
    "hyperedge3": lambda: complete_hypergraph3(3),
    "r-edge": lambda: rb_structure(2, [(0, 1)], []),
    "b-edge": lambda: rb_structure(2, [], [(0, 1)]),
}


def structure_by_name(name: str) -> Structure:
    """Resolve small named probe structures ('k3', 'p3', 'pure:4', ...)."""
    if name in _STRUCTURE_BUILDERS:
        return _STRUCTURE_BUILDERS[name]()
    head, colon, arg = name.partition(":")
    if colon and head in ("pure", "kn"):
        return (pure_set if head == "pure" else complete_graph)(decimal_parameter(name, arg))
    raise KeyError(f"unknown structure {name!r}")
