"""Named classes: the forbidden windows must carve out exactly the valid
structures, and the parameterised builders must resolve."""

import itertools
import math

import pytest

from sunlab import catalog
from sunlab.structures import (
    BudgetExceeded,
    Signature,
    Structure,
    are_isomorphic,
    canonical_form,
    is_irreducible,
    satisfies_class,
)


def test_validity_windows_are_irreducible():
    for K in [catalog.all_graphs(), catalog.oriented_graphs(),
              catalog.hypergraphs3(), catalog.rb_bichrome(),
              catalog.f_free_3hypergraphs()]:
        assert all(is_irreducible(F) for F in K.forbidden)


def test_graph_class_rejects_malformed_storage():
    K = catalog.all_graphs()
    loop = Structure(catalog.GRAPH_SIG, 1, {"E": [(0, 0)]})
    oneway = Structure(catalog.GRAPH_SIG, 2, {"E": [(0, 1)]})
    assert not satisfies_class(loop, K)
    assert not satisfies_class(oneway, K)
    assert satisfies_class(catalog.complete_graph(4), K)


def test_graph_class_membership_matches_predicate():
    K = catalog.all_graphs()
    sig = catalog.GRAPH_SIG
    pairs = [(0, 0), (0, 1), (1, 0), (1, 1), (0, 2), (2, 0), (1, 2), (2, 1), (2, 2)]
    for bits in range(2 ** len(pairs)):
        rel = [pairs[i] for i in range(len(pairs)) if bits >> i & 1]
        S = Structure(sig, 3, {"E": rel})
        valid = (all(u != v for u, v in rel)
                 and all((v, u) in rel for u, v in rel))
        assert satisfies_class(S, K) == valid


def test_oriented_class():
    K = catalog.oriented_graphs()
    ok = Structure(catalog.ARC_SIG, 2, {"E": [(0, 1)]})
    double = Structure(catalog.ARC_SIG, 2, {"E": [(0, 1), (1, 0)]})
    assert satisfies_class(ok, K)
    assert not satisfies_class(double, K)


def test_hypergraph_class_membership_matches_predicate():
    K = catalog.hypergraphs3()
    sig = catalog.HYPER3_SIG
    import random
    rng = random.Random(4)
    for _ in range(60):
        size = rng.randint(1, 4)
        all_t = list(itertools.product(range(size), repeat=3))
        rel = [t for t in all_t if rng.random() < 0.12]
        S = Structure(sig, size, {"E": rel})
        valid = all(len(set(t)) == 3 for t in rel) and \
            all(p in set(rel) for t in rel for p in itertools.permutations(t))
        assert satisfies_class(S, K) == valid


def test_rb_class():
    K = catalog.rb_bichrome()
    assert not satisfies_class(catalog.mono_triangle("R"), K)
    assert not satisfies_class(catalog.mono_triangle("B"), K)
    bichromatic = catalog.rb_structure(3, [(0, 1), (1, 2)], [(0, 2)])
    assert satisfies_class(bichromatic, K)
    doubled = Structure(catalog.RB_SIG, 2,
                        {"R": [(0, 1), (1, 0)], "B": [(0, 1), (1, 0)]})
    assert not satisfies_class(doubled, K)


def test_f_free_class_blocks_non_induced_copies():
    K = catalog.f_free_3hypergraphs()
    F = catalog.f_hypergraph()
    assert not satisfies_class(F, K)
    # a proper edge-superset of F contains it only non-induced
    extra = [tuple(sorted(t)) for t in F.relations["E"]]
    fat = catalog.hypergraph3(5, set(extra) | {(0, 2, 4)})
    assert not satisfies_class(fat, K)
    # the complete hypergraph on 4 vertices misses F entirely
    assert satisfies_class(catalog.complete_hypergraph3(4), K)


def test_class_by_name():
    assert catalog.class_by_name("knfree:3").name == "knfree:3"
    assert catalog.class_by_name("k4h3free").name == "k4h3free"
    assert catalog.class_by_name("pure").signature == catalog.PURE_SIG
    with pytest.raises(KeyError):
        catalog.class_by_name("nope")
    # each call builds a fresh class, so a process keeps none it has resolved
    assert catalog.class_by_name("knfree:3") is not catalog.class_by_name("knfree:3")


def f_extensions_by_definition() -> list:
    """The edge-supersets of F on its five vertices, one per isomorphism
    class (the first in order of size, then lexicographically), sorted by
    canonical form, as the edges each adds to F."""
    F = catalog.f_hypergraph()
    base = {tuple(sorted(t)) for t in F.relations["E"]}
    missing = [t for t in itertools.combinations(range(5), 3) if t not in base]
    kept = []
    for r in range(len(missing) + 1):
        for extra in itertools.combinations(missing, r):
            C = catalog.hypergraph3(5, list(base) + list(extra))
            if not any(are_isomorphic(C, D) for D, _ in kept):
                kept.append((C, extra))
    return [extra for _, extra in sorted(kept, key=lambda k: canonical_form(k[0]))]


def test_f_extension_table_is_derived_by_brute_force():
    assert list(catalog.F_EXTENSIONS) == f_extensions_by_definition()
    forbidden = catalog.f_free_3hypergraphs().forbidden
    assert len(forbidden) == len(catalog.hypergraphs3().forbidden) + len(catalog.F_EXTENSIONS)


def window_forbidden_by_definition(sig, is_valid) -> list:
    """Every invalid window of _window_forbidden's enumeration whose
    canonical form is new, in enumeration order."""
    max_arity = max(a for _, a in sig.relations)
    out, seen = [], set()
    for m in range(1, max_arity + 1):
        slots = [(name, t) for name, arity in sig.relations
                 for t in itertools.product(range(m), repeat=arity)
                 if not (m == max_arity == arity and len(set(t)) != arity)]
        for r in range(1, len(slots) + 1):
            for chosen in itertools.combinations(slots, r):
                if any(len(set(t)) == m for _, t in chosen):
                    W = Structure(sig, m, {n: [t for k, t in chosen if k == n]
                                           for n in sig.names})
                    if not is_valid(W) and canonical_form(W) not in seen:
                        seen.add(canonical_form(W))
                        out.append(W)
    return out


@pytest.mark.parametrize("sig, is_valid", [
    (catalog.GRAPH_SIG, catalog._valid_graphlike),
    (catalog.ARC_SIG, catalog._valid_oriented),
    (catalog.HYPER3_SIG, catalog._valid_graphlike),
    (catalog.RB_SIG, catalog._valid_rb),
    (Signature((("P", 1), ("E", 2))), catalog._valid_graphlike),
])
def test_window_forbidden_keeps_the_first_window_of_each_isomorphism_class(sig, is_valid):
    assert (catalog._window_forbidden(sig, is_valid)
            == window_forbidden_by_definition(sig, is_valid))


# each family's largest parameter whose complete structure fits the cap, and
# the smallest that does not
CAPPED_FAMILIES = [("knfree:256", "knfree:257", 2), ("k41h3free", "k42h3free", 3)]


@pytest.mark.parametrize("largest, rejected, arity", CAPPED_FAMILIES)
def test_complete_forbidden_structure_is_capped_before_it_is_built(
        largest, rejected, arity, monkeypatch):
    top = catalog.class_by_name(largest).forbidden[-1]
    n = top.size
    assert len(top.relations["E"]) == math.perm(n, arity) <= catalog.COMPLETE_TUPLE_CAP
    assert math.perm(n + 1, arity) > catalog.COMPLETE_TUPLE_CAP

    def refuse(*args, **kwargs):
        raise AssertionError("a structure was built")

    monkeypatch.setattr(catalog, "Structure", refuse)
    for name in (rejected, "k1000h3free", "knfree:100000"):
        with pytest.raises(BudgetExceeded):
            catalog.class_by_name(name)
    with pytest.raises(BudgetExceeded):
        catalog.structure_by_name("kn:257")


def test_structure_by_name():
    assert catalog.structure_by_name("k3") == catalog.complete_graph(3)
    assert catalog.structure_by_name("pure:4").size == 4
    with pytest.raises(KeyError):
        catalog.structure_by_name("nope")
