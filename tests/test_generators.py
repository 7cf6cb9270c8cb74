"""Seeded generators: determinism, defining-class conformance, and the
extension-defect scanner."""

import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from test_golden import _two_colour_class
from test_structures import COLOUR_SIG, irreducible_structures, structures

from sunlab import catalog, jsonio
from sunlab.generators import (
    NoAdmissibleExtension,
    _gen_knfree,
    admissible_point_types,
    extension_defects,
    gen_generic,
    gen_named,
    parse_generator_id,
)
from sunlab.structures import (
    ClassSpec,
    Signature,
    Structure,
    admissible_extensions,
    canonical_form,
    embeds,
    enumerate_class_members,
    find_embeddings,
    qf_type,
    satisfies_class,
)


# ---------------------------------------------------------------------------
# Defining-property checks for generator outputs


def _is_strict_poset(S: Structure) -> bool:
    less = S.relations["<"]
    for u, v in less:
        if u == v or (v, u) in less:
            return False
    for (a, b), (c, d) in itertools.product(less, less):
        if b == c and (a, d) not in less:
            return False
    return True


def _is_tournament(S: Structure) -> bool:
    arcs = S.relations["E"]
    for u, v in itertools.combinations(range(S.size), 2):
        if ((u, v) in arcs) == ((v, u) in arcs):
            return False
    return not any(u == v for u, v in arcs)


def _is_equivalence(S: Structure, name: str) -> bool:
    rel = S.relations[name]
    if any(u == v for u, v in rel):
        return False
    # union-find the classes, then demand the relation is exactly
    # "same class, distinct" (gives symmetry and transitivity in one go)
    parent = list(range(S.size))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for u, v in rel:
        parent[find(u)] = find(v)
    expected = {(u, v) for u in range(S.size) for v in range(S.size)
                if u != v and find(u) == find(v)}
    return rel == frozenset(expected)


def validate_named_output(name: str, S: Structure) -> bool:
    """Check that a generated structure satisfies its defining class."""
    head, arg = parse_generator_id(name)
    if head == "random-graph":
        return satisfies_class(S, catalog.all_graphs())
    if head == "knfree":
        return satisfies_class(S, catalog.kn_free(arg))
    if head in ("random-tournament", "local-order"):
        return _is_tournament(S)
    if head == "random-oriented":
        return satisfies_class(S, catalog.oriented_graphs())
    if head == "generic-poset":
        return _is_strict_poset(S)
    if head == "generic-ordered-graph":
        order_ok = all(((u, v) in S.relations["<"]) == (u < v)
                       for u in range(S.size) for v in range(S.size) if u != v)
        graph_part = Structure(catalog.GRAPH_SIG, S.size, {"E": S.relations["E"]})
        return order_ok and satisfies_class(graph_part, catalog.all_graphs())
    if head == "equivalence-omega":
        return _is_equivalence(S, "E")
    if head == "double-equivalence":
        return _is_equivalence(S, "E0") and _is_equivalence(S, "E1")
    if head == "rb-bichrome":
        return satisfies_class(S, catalog.rb_bichrome())
    if head == "f-free-3hyper":
        return satisfies_class(S, catalog.f_free_3hypergraphs())
    if head == "pure-set":
        return S.signature == catalog.PURE_SIG
    raise ValueError(f"unknown generator {name!r}")


SMALL_CASES = [
    ("random-graph", 18), ("knfree:3", 30), ("knfree:4", 18),
    ("random-tournament", 15), ("random-oriented", 15),
    ("generic-poset", 15), ("generic-ordered-graph", 12),
    ("equivalence-omega", 20), ("double-equivalence", 27),
    ("local-order", 21), ("rb-bichrome", 24), ("pure-set", 6),
]


@pytest.mark.parametrize("name,size", SMALL_CASES)
def test_named_generator_satisfies_defining_class(name, size):
    S = gen_named(name, size, 12345)
    assert validate_named_output(name, S)
    assert S.meta["generator"] == name


def test_determinism():
    for name, size in [("knfree:3", 20), ("local-order", 15), ("rb-bichrome", 15)]:
        assert gen_named(name, size, 9) == gen_named(name, size, 9)
        assert gen_named(name, size, 9) != gen_named(name, size, 10)


def test_knfree_triangle_free_spec_example():
    S = gen_named("knfree:3", 30, 77)
    assert satisfies_class(S, catalog.kn_free(3))


def _clique_in_sets(adj, inside, size):
    if size <= 0:
        return True
    if len(inside) < size:
        return False
    return any(_clique_in_sets(adj, {w for w in inside & adj[u] if w > u}, size - 1)
               for u in inside)


def knfree_by_choice(n, size, rng):
    """Oracle: the knfree:n draw on neighbour sets, each edge decided by
    rng.choice among the values that keep the graph K_n-free."""
    adj = [set() for _ in range(size)]
    for v in range(size):
        order = list(range(v))
        rng.shuffle(order)
        for u in order:
            choices = [False]
            if not _clique_in_sets(adj, adj[u] & adj[v], n - 2):
                choices.append(True)
            if rng.choice(choices):
                adj[u].add(v)
                adj[v].add(u)
    return catalog.graph(size, [(u, v) for u in range(size) for v in adj[u] if u < v])


@pytest.mark.parametrize("n", [3, 4, 5])
def test_knfree_matches_the_choice_draw_and_leaves_the_same_state(n):
    for size in (1, 2, 7, 25, 60):
        for seed in range(3):
            ours, theirs = (random.Random(f"{n}|{size}|{seed}") for _ in range(2))
            assert _gen_knfree(n, size, ours) == knfree_by_choice(n, size, theirs)
            assert ours.getstate() == theirs.getstate()


def test_double_equivalence_side_two():
    S = gen_named("double-equivalence", 8, 0)
    assert S.size == 8 and S.meta["side"] == 2
    # each first-coordinate class has exactly 4 members
    for v in range(8):
        cls = sum(1 for u in range(8) if u == v or (u, v) in S.relations["E0"])
        assert cls == 4


def test_local_order_out_neighbourhoods_are_transitive():
    S = gen_named("local-order", 50, 3)
    c3 = Structure(catalog.ARC_SIG, 3, {"E": [(0, 1), (1, 2), (2, 0)]})
    arcs = S.relations["E"]
    for v in range(S.size):
        out = sorted(w for (u, w) in arcs if u == v)
        sub = S.induced(out)
        assert not embeds(c3, sub)


def test_local_order_odd_denominator():
    S = gen_named("local-order", 10, 1)
    assert S.meta["denominator"] == 11
    assert validate_named_output("local-order", S)


def test_generator_rejects_bad_parameters():
    with pytest.raises(ValueError):
        gen_named("knfree", 10, 0)
    with pytest.raises(ValueError):
        gen_named("knfree:2", 10, 0)
    with pytest.raises(ValueError):
        gen_named("pure-set", 0, 0)
    with pytest.raises(ValueError):
        gen_named("no-such-generator", 5, 0)


# ---------------------------------------------------------------------------
# Generic class-constrained generation


def test_gen_generic_stays_in_class():
    cases = [
        (catalog.all_graphs(), 10),
        (catalog.kn_free(3), 12),
        (catalog.rb_bichrome(), 12),
        (catalog.oriented_graphs(), 10),
    ]
    for K, size in cases:
        for seed in (0, 1, 2):
            S = gen_generic(K, size, seed)
            assert satisfies_class(S, K)
            assert S.size == size


def test_gen_generic_f_free_spec_example():
    K = catalog.f_free_3hypergraphs()
    S = gen_generic(K, 12, 5)
    assert satisfies_class(S, K)


def test_gen_generic_deterministic():
    K = catalog.kn_free(3)
    assert gen_generic(K, 8, 4) == gen_generic(K, 8, 4)


def test_gen_generic_edge_frequency_is_balanced():
    # for unrestricted graphs the two admissible choices on a pair (edge or
    # not) are picked uniformly, so a fixed pair carries an edge in about
    # half the seeds
    K = catalog.all_graphs()
    hits = sum((0, 1) in gen_generic(K, 2, seed).relations["E"]
               for seed in range(200))
    assert 70 <= hits <= 130


def test_gen_generic_reports_dead_end():
    # forbidding both one-vertex structures leaves no admissible vertex
    loop = Structure(catalog.GRAPH_SIG, 1, {"E": [(0, 0)]})
    bare = Structure(catalog.GRAPH_SIG, 1)
    K = ClassSpec(catalog.GRAPH_SIG, [loop, bare])
    with pytest.raises(NoAdmissibleExtension):
        gen_generic(K, 1, 0)
    # so does forbidding the bare point where no atom lies on a vertex alone
    with pytest.raises(NoAdmissibleExtension):
        gen_generic(bare_point_forbidden(catalog.pure_sets()), 1, 0)


def gen_generic_by_rebuild(K, size, seed):
    """Reference: gen_generic building every option of each support afresh
    with the constructor, as it did before structures grew from their
    parents, and keeping those a full class check accepts.  The supports of
    the atoms through the new vertex v come smaller first, ties by the
    sorted support, with v's own support even when no atom lies on v alone;
    a support's options come in the order of all its subsets, by size, then
    lexicographically, so the draws are the same.  The full check drops the
    bare option of v's own support when K forbids the bare point."""
    rng = random.Random(f"generic|{K.name}|{size}|{seed}")
    S = Structure(K.signature, 0)
    for v in range(size):
        S = Structure(S.signature, v + 1, S.relations)
        by_support = {(v,): []}
        for name, arity in K.signature.relations:
            for t in itertools.product(range(v + 1), repeat=arity):
                if v in t:
                    by_support.setdefault(tuple(sorted(set(t))), []).append((name, t))
        for sup in sorted(by_support, key=lambda sup: (len(sup), sup)):
            atoms = sorted(by_support[sup])
            options = []
            for r in range(len(atoms) + 1):
                for chosen in itertools.combinations(atoms, r):
                    rels = {n: set(ts) for n, ts in S.relations.items()}
                    for name, t in chosen:
                        rels[name].add(t)
                    T = Structure(S.signature, S.size, rels)
                    if satisfies_class(T, K):
                        options.append(T)
            if not options:
                raise NoAdmissibleExtension(f"no admissible vertex {v}")
            S = options[rng.randrange(len(options))]
    return S


@pytest.mark.parametrize("name, size", [
    ("pure", 4), ("graphs", 7), ("oriented", 7), ("knfree:3", 7), ("knfree:4", 7),
    ("rb-bichrome", 6), ("3hypergraphs", 4), ("k4h3free", 5), ("f-free-3hyper", 5)])
def test_gen_generic_matches_a_rebuild_of_every_option(name, size):
    K = catalog.class_by_name(name)
    for seed in range(3):
        S = gen_generic(K, size, seed)
        assert S == gen_generic_by_rebuild(K, size, seed) and S.size == size


@settings(max_examples=80, deadline=None, derandomize=True)
@given(st.data())
def test_gen_generic_matches_a_rebuild_of_every_option_on_random_classes(data):
    sig = data.draw(st.sampled_from([catalog.GRAPH_SIG, COLOUR_SIG, TWO_UNARY_SIG]))
    K = ClassSpec(sig, data.draw(st.lists(irreducible_structures(sig, False), max_size=3)))
    size, seed = data.draw(st.integers(1, 5)), data.draw(st.integers(0, 3))
    try:
        expected = gen_generic_by_rebuild(K, size, seed)
    except NoAdmissibleExtension:
        with pytest.raises(NoAdmissibleExtension):
            gen_generic(K, size, seed)
    else:
        assert gen_generic(K, size, seed) == expected


def all_one_point_extensions(S, K):
    """Oracle: every extension of S by a fresh vertex that lies in K, from
    every subset of the atoms through the new vertex, whatever their order.

    The subsets grow by the atoms of one support at a time, smaller
    supports first.  A subset is dropped once the full class check fails
    on the support just completed: the structure it induces there is
    induced in every completion of the subset, and K is hereditary."""
    v = S.size
    by_support = {}
    for name, arity in K.signature.relations:
        for t in itertools.product(range(v + 1), repeat=arity):
            if v in t:
                by_support.setdefault(tuple(sorted(set(t))), []).append((name, t))
    partial = [Structure(K.signature, v + 1, S.relations)]
    for sup in sorted(by_support, key=lambda sup: (len(sup), sup)):
        atoms = by_support[sup]
        grown = []
        for cur in partial:
            for r in range(len(atoms) + 1):
                for chosen in itertools.combinations(atoms, r):
                    rels = {n: set(ts) for n, ts in cur.relations.items()}
                    for name, t in chosen:
                        rels[name].add(t)
                    T = Structure(K.signature, v + 1, rels)
                    if satisfies_class(T.induced(sup), K):
                        grown.append(T)
        partial = grown
    return {T for T in partial if satisfies_class(T, K)}


def _assert_extensions_match(K, bases):
    for S in [Structure(K.signature, 0)] + bases:
        assert set(admissible_extensions(S, K)) == all_one_point_extensions(S, K)


@pytest.mark.parametrize("name, max_size", [
    ("pure", 3), ("graphs", 3), ("oriented", 3), ("knfree:3", 3),
    ("rb-bichrome", 3), ("3hypergraphs", 3), ("k4h3free", 3),
    ("f-free-3hyper", 3)])
def test_admissible_extensions_match_brute_force(name, max_size):
    K = catalog.class_by_name(name)
    _assert_extensions_match(K, enumerate_class_members(K, max_size))


TWO_UNARY_SIG = Signature([("P", 1), ("Q", 1), ("E", 2)])


@settings(max_examples=40, deadline=None, derandomize=True)
@given(st.data())
def test_admissible_extensions_match_brute_force_on_random_classes(data):
    sig = data.draw(st.sampled_from([catalog.GRAPH_SIG, COLOUR_SIG, TWO_UNARY_SIG]))
    forbidden = data.draw(st.lists(irreducible_structures(sig, False), max_size=3))
    if data.draw(st.booleans()):
        forbidden.append(Structure(sig, 1))
    K = ClassSpec(sig, forbidden)
    # two unary relations give up to 144 members on two vertices, so their
    # bases stop at one vertex, where a P point meets a new Q vertex
    _assert_extensions_match(K, enumerate_class_members(K, 1 if sig == TWO_UNARY_SIG else 2))


@pytest.mark.parametrize("name, max_size", [
    ("pure", 3), ("graphs", 3), ("oriented", 3), ("knfree:3", 3),
    ("rb-bichrome", 2), ("3hypergraphs", 1), ("k4h3free", 1),
    ("f-free-3hyper", 1)])
def test_orbit_walk_lists_every_extension_in_catalog_classes(name, max_size):
    K = catalog.class_by_name(name)
    _assert_extensions_match(K, enumerate_class_members(K, max_size))


def test_orbit_walk_lists_every_extension_in_the_two_colour_class():
    K = jsonio.classspec_from_json(_two_colour_class())
    P_point = Structure(K.signature, 1, {"P": [(0,)]})
    # a P point extends by a bare vertex, a P vertex, or a P vertex joined
    # to it; the orbit walk used to drop the edge before colouring the
    # new vertex
    assert len(all_one_point_extensions(P_point, K)) == 3
    assert set(admissible_extensions(P_point, K)) == all_one_point_extensions(P_point, K)


def three_of_four_triples():
    """3-hypergraphs in which no four vertices carry exactly three of their
    four triples: a fourth triple undoes a forbidden copy."""
    three = catalog.hypergraph3(4, [(0, 1, 2), (0, 1, 3), (0, 2, 3)])
    return ClassSpec(catalog.HYPER3_SIG,
                     catalog._window_forbidden(catalog.HYPER3_SIG,
                                               catalog._valid_graphlike) + [three],
                     name="three-of-four")


def bare_point_forbidden(K):
    return ClassSpec(K.signature, K.forbidden + (Structure(K.signature, 1),),
                     name=f"{K.name}-no-bare-point")


@pytest.mark.parametrize("make, max_size", [
    (lambda: jsonio.classspec_from_json(_two_colour_class()), 3),
    (lambda: bare_point_forbidden(jsonio.classspec_from_json(_two_colour_class())), 3),
    (lambda: bare_point_forbidden(ClassSpec(catalog.GRAPH_SIG)), 2),
    (three_of_four_triples, 3)],
    ids=["two-colour", "two-colour-no-bare-point", "graphs-with-loops-no-bare-point",
         "three-of-four"])
def test_admissible_extensions_match_brute_force_where_orbits_fall_short(make, max_size):
    # the orbit walk missed extensions in each of these classes
    K = make()
    _assert_extensions_match(K, enumerate_class_members(K, max_size))


def test_members_reach_the_complete_hypergraph_when_a_triple_undoes_a_copy():
    # listing 4-vertex members of a ternary class used to exceed its budget,
    # and the orbit walk never added the fourth triple
    K = three_of_four_triples()
    K4 = catalog.complete_hypergraph3(4)
    assert satisfies_class(K4, K)
    members = enumerate_class_members(K, 4)
    assert canonical_form(K4) in {canonical_form(M) for M in members}
    base = catalog.complete_hypergraph3(3)
    assert K4 in set(admissible_extensions(base, K))


def test_gen_generic_joins_two_p_vertices_in_the_two_colour_class():
    K = jsonio.classspec_from_json(_two_colour_class())
    joined = 0
    for seed in range(20):
        S = gen_generic(K, 10, seed)
        joined += any(((u,) in S.relations["P"]) and ((w,) in S.relations["P"])
                      for u, w in S.relations["E"])
    assert joined


def test_gen_generic_grows_a_class_that_forbids_the_bare_point():
    K = bare_point_forbidden(jsonio.classspec_from_json(_two_colour_class()))
    assert enumerate_class_members(K, 2)
    S = gen_generic(K, 3, 0)
    assert S.size == 3 and satisfies_class(S, K)


@pytest.mark.parametrize("name", [
    "pure", "graphs", "oriented", "knfree:3", "knfree:4", "rb-bichrome",
    "3hypergraphs", "k4h3free", "f-free-3hyper", "two-colour"])
def test_gen_generic_reaches_every_two_vertex_member(name):
    # orbit-by-orbit sampling never joined two P vertices of the two-colour
    # class, so it reached 4 of its 5 members on two vertices
    if name == "two-colour":
        K = jsonio.classspec_from_json(_two_colour_class())
    else:
        K = catalog.class_by_name(name)
    members = {canonical_form(M) for M in enumerate_class_members(K, 2) if M.size == 2}
    drawn = {canonical_form(gen_generic(K, 2, seed)) for seed in range(120)}
    assert drawn == members


# ---------------------------------------------------------------------------
# Extension defects


def adjacent_both():
    return frozenset({("E", (-1, 0)), ("E", (0, -1)),
                      ("E", (-1, 1)), ("E", (1, -1))})


def test_defects_single_edge_all_graphs():
    S = catalog.complete_graph(2)
    defects = extension_defects(S, catalog.all_graphs(), 2)
    assert any(d.positives == adjacent_both() and len(d.parameters) == 2
               for d in defects)


def test_defects_k3_misses_nonneighbour():
    defects = extension_defects(catalog.complete_graph(3), catalog.all_graphs(), 1)
    assert any(len(d.parameters) == 1 and d.positives == frozenset()
               for d in defects)


def test_defects_respect_class_admissibility():
    S = catalog.complete_graph(2)
    defects = extension_defects(S, catalog.kn_free(3), 2)
    assert not any(d.positives == adjacent_both() for d in defects)


def test_defects_require_membership():
    with pytest.raises(ValueError):
        extension_defects(catalog.complete_graph(3), catalog.kn_free(3), 1)


def test_no_defects_means_all_types_realised():
    # brute re-check of the defect scanner on small structures
    for klass, generator, size, bound in [
            ("graphs", "random-graph", 7, 1), ("graphs", "random-graph", 7, 2),
            ("f-free-3hyper", "f-free-3hyper", 6, 2)]:
        K = catalog.class_by_name(klass)
        S = gen_named(generator, size, 9)
        expected = set()
        for b in range(bound + 1):
            for A in itertools.combinations(range(S.size), b):
                for t in admissible_point_types(S.induced(A), K):
                    if not any(qf_type(S, v, A).positives == t.positives
                               for v in range(S.size) if v not in A):
                        expected.add((A, t.positives))
        defects = extension_defects(S, K, bound)
        assert {(d.parameters, d.positives) for d in defects} == expected
        assert len(defects) == len(expected)


def defects_by_rebuild(S, K, bound):
    """Oracle: each base rebuilt as S.induced(A), its admissible types
    listed afresh and looked for among the types of S's vertices."""
    out = []
    for b in range(bound + 1):
        for A in itertools.combinations(S.vertices, b):
            realised = {qf_type(S, v, A).positives for v in S.vertices if v not in A}
            types = sorted(admissible_point_types(S.induced(A), K),
                           key=lambda t: sorted(t.positives))
            out += [(A, t.positives) for t in types if t.positives not in realised]
    return out


def loop_graphs():
    """Every structure with one binary relation, loops included."""
    return ClassSpec(catalog.GRAPH_SIG, [], name="loop-graphs")


@pytest.mark.parametrize("name, size", [
    ("graphs", 7), ("knfree:3", 7), ("oriented", 6), ("rb-bichrome", 6),
    ("3hypergraphs", 5), ("two-colour", 7), ("loop-graphs", 5)])
def test_defects_match_a_rebuild_of_every_base(name, size):
    if name == "two-colour":
        K = jsonio.classspec_from_json(_two_colour_class())
    elif name == "loop-graphs":
        K = loop_graphs()
    else:
        K = catalog.class_by_name(name)
    for seed in range(2):
        S = gen_generic(K, size, seed)
        got = [(d.parameters, d.positives) for d in extension_defects(S, K, 2)]
        assert got == defects_by_rebuild(S, K, 2)


def test_defects_tell_the_empty_base_from_a_bare_vertex():
    # the empty base and a one-vertex base without a loop hold the same (no)
    # atoms; a memo keyed by those atoms alone, not by the base size too,
    # reuses the empty base's types and reports no defect here
    defects = extension_defects(catalog.graph(3, []), catalog.all_graphs(), 1)
    assert [(d.parameters, d.positives) for d in defects] == [
        ((a,), adjacent_both() - {("E", (-1, 1)), ("E", (1, -1))}) for a in range(3)]


@settings(max_examples=40, deadline=None, derandomize=True)
@given(st.data())
def test_defects_match_a_rebuild_of_every_base_on_random_classes(data):
    # S with loops and colours, in a class of what S omits
    sig = data.draw(st.sampled_from([catalog.GRAPH_SIG, COLOUR_SIG]))
    S = data.draw(structures(sig, 0, 5))
    forbidden = data.draw(st.lists(irreducible_structures(sig, False), max_size=3))
    K = ClassSpec(sig, [F for F in forbidden if not embeds(F, S)])
    got = [(d.parameters, d.positives) for d in extension_defects(S, K, 2)]
    assert got == defects_by_rebuild(S, K, 2)


@pytest.mark.parametrize("size, bound", [(40, 1), (25, 2)])
def test_defects_stopping_early_match_a_rebuild_on_knfree(size, bound):
    # most bases see every admissible type within a few vertices, and the
    # scan of such a base stops there
    K = catalog.kn_free(3)
    for seed in range(2):
        S = gen_named("knfree:3", size, seed)
        got = [(d.parameters, d.positives) for d in extension_defects(S, K, bound)]
        assert got == defects_by_rebuild(S, K, bound)


def test_defects_reject_negative_base_bound():
    # used to return no defects
    with pytest.raises(ValueError, match="base_bound must be >= 0"):
        extension_defects(catalog.complete_graph(2), catalog.all_graphs(), -1)


def test_defect_order_deterministic():
    S = catalog.complete_graph(2)
    a = extension_defects(S, catalog.all_graphs(), 2)
    b = extension_defects(S, catalog.all_graphs(), 2)
    assert [(d.parameters, sorted(d.positives)) for d in a] == \
        [(d.parameters, sorted(d.positives)) for d in b]
