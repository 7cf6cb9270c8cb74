"""Named partitions, block reports, colour-constrained copy search, basic
open sets and the least-embedding colouring."""

import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from test_generators import defects_by_rebuild
from test_structures import ORACLE, SIGNATURES, structures, type_classes_by_vertex

from sunlab import catalog
from sunlab.generators import gen_generic, gen_named
from sunlab.partitionlab import (
    Colouring,
    Partition,
    colour_copy_search,
    min_embedding_colouring,
    named_partition,
    partition_report,
)
from sunlab.structures import (
    QfType,
    Structure,
    _iter_embedding_maps,
    embeds,
    find_embeddings,
    qf_type,
    realisation_set,
    satisfies_class,
)


def test_partition_validation():
    with pytest.raises(ValueError):
        Partition(3, [[0, 1], [1, 2]])
    with pytest.raises(ValueError):
        Partition(3, [[0], [2]])
    assert Partition(3, [[0, 2], [1]]).blocks == (frozenset({0, 2}), frozenset({1}))


# ---------------------------------------------------------------------------
# Named schemes


def test_neighbourhood_scheme():
    S = catalog.path_graph(4)
    P = named_partition(S, "neighbourhood", anchor=1)
    assert set(P.blocks[1]) == {0, 2}
    assert set(P.blocks[0]) == {1, 3}


def test_out_neighbourhood_scheme():
    S = gen_named("local-order", 11, 4)
    P = named_partition(S, "out-neighbourhood", anchor=0)
    out = {w for (u, w) in S.relations["E"] if u == 0}
    assert set(P.blocks[0]) == out
    assert 0 in P.blocks[1]


def test_class_minus_point_scheme():
    # the class under the first relation, E0 for two equivalences
    for generator, size, first in [("equivalence-omega", 12, "E"),
                                   ("double-equivalence", 27, "E0")]:
        S = gen_named(generator, size, 0)
        v = 0
        P = named_partition(S, "class-minus-point", anchor=v)
        cls = {u for (u, w) in S.relations[first] if w == v} | {v}
        assert set(P.blocks[1]) == cls - {v}
        assert v in P.blocks[0]
        assert set(P.blocks[0]) == (set(range(size)) - cls) | {v}


def test_first_edge_colour_scheme_blocks():
    S = catalog.rb_structure(5, red=[(0, 1)], blue=[(0, 2), (1, 3)])
    P = named_partition(S, "first-edge-colour", None)
    # 0 and 4 have no earlier edge; 1 sees a red edge to 0; 2 and 3 see blue first
    assert set(P.blocks[0]) == {1}
    assert set(P.blocks[1]) == {2, 3}
    assert set(P.blocks[2]) == {0, 4}


def test_first_edge_colour_e_block_is_edge_free():
    for seed in range(5):
        S = gen_named("rb-bichrome", 40, seed)
        P = named_partition(S, "first-edge-colour", None)
        e_block = P.blocks[2]
        for u in e_block:
            for v in e_block:
                assert (u, v) not in S.relations["R"]
                assert (u, v) not in S.relations["B"]


def test_rational_cut_scheme():
    S = catalog.pure_set(5).with_meta(
        rational_labels=["-3/2", "-1/7", "0", "1", "5/2"])
    P = named_partition(S, "rational-cut", None)
    assert set(P.blocks[0]) == {0, 1, 3}
    assert set(P.blocks[1]) == {2, 4}


def test_schemes_partition_everything():
    cases = [
        (gen_named("knfree:3", 25, 1), "neighbourhood", 3),
        (gen_named("local-order", 15, 1), "out-neighbourhood", 2),
        (gen_named("equivalence-omega", 16, 1), "class-minus-point", 5),
        (gen_named("rb-bichrome", 25, 1), "first-edge-colour", None),
    ]
    for S, scheme, anchor in cases:
        P = named_partition(S, scheme, anchor)
        seen = sorted(v for b in P.blocks for v in b)
        assert seen == list(range(S.size))


def test_scheme_errors():
    S = catalog.path_graph(3)
    with pytest.raises(ValueError):
        named_partition(S, "no-such-scheme", None)
    with pytest.raises(ValueError):
        named_partition(S, "neighbourhood", None)


def test_class_minus_point_needs_an_equivalence():
    # a path is symmetric but not transitive, an order is not symmetric
    for S in (catalog.path_graph(3), gen_named("generic-poset", 6, 1)):
        name = S.signature.names[0]
        with pytest.raises(ValueError, match=f"needs {name} to be an equivalence"):
            named_partition(S, "class-minus-point", 1)


def test_neighbourhood_block_edge_free_in_triangle_free():
    for seed in (0, 1):
        S = gen_named("knfree:3", 40, seed)
        P = named_partition(S, "neighbourhood", anchor=0)
        nbrs = S.induced(sorted(P.blocks[1]))
        assert nbrs.relations["E"] == frozenset()


# ---------------------------------------------------------------------------
# Partition reports


def test_partition_report_neighbourhood_case():
    S = gen_named("knfree:3", 60, 5)
    anchor = 0
    P = named_partition(S, "neighbourhood", anchor)
    K = catalog.kn_free(3)
    report = partition_report(S, P, K, [catalog.complete_graph(2)], 1)
    d_block = report.blocks[1]
    assert d_block.probe_embeds == (False,)            # neighbourhood edge-free
    c_block = report.blocks[0]
    anchor_pos = c_block.vertices.index(anchor)
    adjacent = frozenset({("E", (-1, 0)), ("E", (0, -1))})
    hits = [w for w in c_block.open_sets
            if w.base == (anchor,) and w.qftype.positives == adjacent]
    assert hits, "the missing type 'adjacent to the anchor' must be reported"
    for w in hits:
        assert not set(w.realisations) & set(c_block.vertices)
        assert set(w.realisations) == set(P.blocks[1])


def test_partition_report_pure_set():
    S = catalog.pure_set(6)
    P = Partition(6, [[0, 1, 2], [3, 4, 5]])
    report = partition_report(S, P, catalog.pure_sets(), [catalog.pure_set(1)], 0)
    assert report.blocks[0].probe_embeds == (True,)
    assert report.blocks[1].probe_embeds == (True,)


def report_by_induced_copies(S, P, K, probes, base_bound):
    """Oracle: each block rebuilt as S.induced(block), its probes searched
    and its defects rebuilt base by base on the copy, transported to S,
    and each defect's realisations read from every vertex's type in S."""
    out = []
    for i, block in enumerate(P.blocks):
        vs = sorted(block)
        sub = S.induced(vs)
        assert satisfies_class(sub, K)
        open_sets = []
        for A, positives in defects_by_rebuild(sub, K, base_bound):
            p = QfType([vs[a] for a in A], positives)
            realised = type_classes_by_vertex(S, p.parameters).get(positives, [])
            open_sets.append((p.parameters, p, tuple(realised)))
        out.append((i, tuple(vs), tuple(embeds(q, sub) for q in probes), open_sets))
    return out


CLASS_NAMES = ["graphs", "knfree:3", "oriented", "rb-bichrome", "3hypergraphs"]


@settings(max_examples=40, deadline=None, derandomize=True)
@given(st.data())
def test_partition_report_matches_a_report_by_induced_copies(data):
    # 1-3 blocks, some of them empty, and probes that embed into S (copies
    # of some of its vertices) or need not (drawn freely)
    K = catalog.class_by_name(data.draw(st.sampled_from(CLASS_NAMES)))
    S = gen_generic(K, data.draw(st.integers(1, 6)), data.draw(st.integers(0, 99)))
    nblocks = data.draw(st.integers(1, 3))
    label = data.draw(st.lists(st.integers(0, nblocks - 1), min_size=S.size,
                               max_size=S.size))
    P = Partition(S.size, [[v for v in S.vertices if label[v] == j] for j in range(nblocks)])
    probes = [S.induced(data.draw(st.lists(st.sampled_from(range(S.size)), max_size=3,
                                           unique=True))),
              data.draw(structures(K.signature, 0, 3))]
    bound = data.draw(st.integers(0, 2))
    report = partition_report(S, P, K, probes, bound)
    got = [(b.index, b.vertices, b.probe_embeds,
            [(w.base, w.qftype, w.realisations) for w in b.open_sets]) for b in report.blocks]
    assert got == report_by_induced_copies(S, P, K, probes, bound)


def test_partition_report_checks_the_class_inside_each_block():
    # a triangle beside a point: blocks that split the triangle are
    # triangle-free, the block holding all of it is not
    S = catalog.graph(4, [(0, 1), (1, 2), (0, 2)])
    K = catalog.kn_free(3)
    report = partition_report(S, Partition(4, [[0, 1, 3], [2], []]), K, [], 0)
    assert [b.vertices for b in report.blocks] == [(0, 1, 3), (2,), ()]
    with pytest.raises(ValueError, match="structure is not in the class"):
        partition_report(S, Partition(4, [[3], [0, 1, 2]]), K, [], 0)


def test_partition_report_signature_mismatch():
    S = catalog.pure_set(4)
    P = Partition(4, [[0, 1], [2, 3]])
    from sunlab.structures import SignatureMismatch
    with pytest.raises(SignatureMismatch):
        partition_report(S, P, catalog.pure_sets(), [catalog.complete_graph(2)], 0)


# ---------------------------------------------------------------------------
# Colour-constrained copy search


def test_colour_copy_search_k3_constant():
    k3 = catalog.complete_graph(3)
    rep = colour_copy_search(k3, Colouring([0, 0, 0]), k3)
    assert rep.mono_count >= 1 and rep.hetero_count == 0


def test_colour_copy_search_equivalence_classes():
    S = gen_named("equivalence-omega", 16, 2)
    chi = Colouring([S.meta["classes"][v] for v in range(S.size)])
    two_inequivalent = Structure(catalog.EQ_SIG, 2)
    rep = colour_copy_search(S, chi, two_inequivalent)
    assert rep.mono_count == 0
    assert rep.hetero_count > 0


def test_colour_copy_search_counts_pairs_inside_a_hyperedge():
    # every pair of K_3^(3) is an edgeless copy: its hyperedge has a third
    # vertex outside the pair
    S = catalog.complete_hypergraph3(3)
    rep = colour_copy_search(S, Colouring([0, 0, 0]), Structure(catalog.HYPER3_SIG, 2))
    assert rep.mono_count == 3
    assert rep.mono_witness == (0, 1)


def test_two_colours_never_heterochromatic_for_triples():
    rng = random.Random(6)
    S = gen_named("random-graph", 12, 8)
    chi = Colouring([rng.randrange(2) for _ in range(S.size)])
    for B in (catalog.complete_graph(3), catalog.path_graph(3)):
        rep = colour_copy_search(S, chi, B)
        assert rep.hetero_count == 0


def _filter_mono_search(S, chi, B):
    """The reference: one search over S, a candidate filter rejecting every
    vertex whose colour differs from the first image's."""
    def flt(depth, v, partial):
        return depth == 0 or chi(v) == chi(partial[0])

    maps = list(_iter_embedding_maps(B, S, candidate_filter=flt))
    return len({frozenset(m) for m in maps}), (maps[0] if maps else None)


def test_mono_copy_search_matches_filter_search():
    rng = random.Random(11)
    targets = [catalog.complete_graph(1), catalog.complete_graph(2),
               catalog.path_graph(3), catalog.complete_graph(3),
               catalog.graph(2, ()), catalog.graph(0, ())]
    # the empty structure, and a least copy (1, 2) outside the class of 0
    cases = [(catalog.graph(0, ()), Colouring([])),
             (catalog.graph(5, [(3, 4), (1, 2)]), Colouring([0, 1, 1, 0, 0]))]
    for seed in range(12):
        S = gen_named("random-graph", 11, seed)
        colours = rng.randrange(1, 4)
        cases.append((S, Colouring([rng.randrange(colours) for _ in range(S.size)])))
    for S, chi in cases:
        for B in targets:
            rep = colour_copy_search(S, chi, B)
            assert (rep.mono_count, rep.mono_witness) == _filter_mono_search(S, chi, B)


def test_double_equivalence_negative_example():
    S = gen_named("double-equivalence", 27, 0)
    triples = [tuple(t) for t in S.meta["triples"]]
    chi = Colouring([t[0] for t in triples])
    wanted = [(0, 0, 0), (1, 0, 0), (1, 1, 0), (0, 1, 0)]
    B = S.induced([triples.index(t) for t in wanted])
    rep = colour_copy_search(S, chi, B)
    assert rep.mono_count == 0 and rep.hetero_count == 0


# ---------------------------------------------------------------------------
# Basic open sets


def test_basic_open_set_k3():
    k3 = catalog.complete_graph(3)
    p = qf_type(k3, 1, (0,))
    assert realisation_set(k3, (0,), p) == [1, 2]


@ORACLE
@given(st.data())
def test_basic_open_set_partitions_complement(data):
    # every catalog signature, ternary relations and tuples repeating a
    # vertex included, over bases of 0-2 vertices
    sig = data.draw(st.sampled_from(SIGNATURES))
    S = data.draw(structures(sig))
    order = data.draw(st.permutations(range(S.size)))
    A = tuple(order[:data.draw(st.integers(0, min(2, S.size)))])
    seen = {}
    for v in range(S.size):
        if v not in A:
            seen.setdefault(qf_type(S, v, A).positives, []).append(v)
    covered = []
    for positives, members in seen.items():
        got = realisation_set(S, A, QfType(A, positives))
        assert got == members
        covered.extend(got)
    assert sorted(covered) == [v for v in range(S.size) if v not in A]
    # a type drawn from all atoms over A, realised or not
    patterns = [(name, p) for name, arity in sig.relations
                for p in itertools.product(range(-1, len(A)), repeat=arity) if -1 in p]
    drawn = frozenset(data.draw(st.sets(st.sampled_from(patterns)))) if patterns else frozenset()
    assert realisation_set(S, A, QfType(A, drawn)) == seen.get(drawn, [])
    # parameters are range-checked even when no vertex lies outside them
    outside = A + (S.size,)
    with pytest.raises(ValueError, match="vertex out of range"):
        realisation_set(S, outside, QfType(outside, ()))


def test_basic_open_set_out_neighbourhood():
    S = gen_named("local-order", 9, 5)
    arcs = S.relations["E"]
    p = QfType((0,), [("E", (0, -1))])
    got = realisation_set(S, (0,), p)
    assert got == sorted(w for (u, w) in arcs if u == 0)


def test_basic_open_set_rejects_malformed():
    k3 = catalog.complete_graph(3)
    p = qf_type(k3, 1, (0,))
    with pytest.raises(ValueError):
        realisation_set(k3, (0, 2), p)
    # a pinned search cannot place one vertex at two depths
    with pytest.raises(ValueError, match="parameters must not repeat"):
        realisation_set(k3, (0, 0), qf_type(k3, 1, (0, 2)))


# ---------------------------------------------------------------------------
# Least-embedding colouring


def test_min_colouring_k3():
    k3 = catalog.complete_graph(3)
    A = Structure(catalog.GRAPH_SIG, 1)
    p = QfType((0,), [("E", (-1, 0)), ("E", (0, -1))])
    res = min_embedding_colouring(k3, A, p)
    assert res.colouring.values == (1, 0, 0)
    assert res.flagged == ()


def test_min_colouring_single_edge():
    S = catalog.complete_graph(2)
    A = Structure(catalog.GRAPH_SIG, 1)
    p = QfType((0,), [("E", (-1, 0)), ("E", (0, -1))])
    res = min_embedding_colouring(S, A, p)
    assert res.colouring.values == (1, 0)


def test_min_colouring_empty_pattern():
    S = catalog.pure_set(4)
    A = catalog.pure_set(0)
    p = QfType((), [])
    res = min_embedding_colouring(S, A, p)
    assert res.colouring.values == (0, 0, 0, 0)


def test_min_colouring_sentinel():
    # nothing is adjacent in an edgeless graph, so the adjacency type is
    # realised under no embedding and every vertex gets the sentinel
    S = catalog.graph(3, ())
    A = Structure(catalog.GRAPH_SIG, 1)
    p = QfType((0,), [("E", (-1, 0)), ("E", (0, -1))])
    res = min_embedding_colouring(S, A, p)
    assert res.flagged == (0, 1, 2)
    assert set(res.colouring.values) == {res.sentinel}


def min_colouring_by_types(S, A, p):
    """Oracle: the least-embedding colouring with one qf_type read per
    (vertex, embedding); (values, flagged vertices)."""
    embs = find_embeddings(A, S)
    values = []
    for v in range(S.size):
        colour = len(embs)
        for i, f in enumerate(embs):
            params = tuple(f[j] for j in p.parameters)
            if v not in params and qf_type(S, v, params).positives == p.positives:
                colour = i
                break
        values.append(colour)
    return tuple(values), tuple(v for v, c in enumerate(values) if c == len(embs))


def _pattern_and_type(S, order, b, params, realised, rng_pick):
    """The pattern S.induced(order[:b]) and a type over it: the type of
    order[b] over the pattern's copy in S, or one drawn from all atoms."""
    A = S.induced(order[:b])
    if realised:
        positives = qf_type(S, order[b], [order[j] for j in params]).positives
    else:
        patterns = [(name, q) for name, arity in S.signature.relations
                    for q in itertools.product(range(-1, b), repeat=arity) if -1 in q]
        positives = rng_pick(patterns)
    return A, QfType(params, positives)


@ORACLE
@given(st.data())
def test_min_colouring_matches_the_type_by_type_oracle(data):
    # every catalog signature, ternary relations and tuples repeating a
    # vertex included, over patterns of 0-2 vertices
    sig = data.draw(st.sampled_from(SIGNATURES))
    S = data.draw(structures(sig, 1, 6))
    order = data.draw(st.permutations(range(S.size)))
    b = data.draw(st.integers(0, min(2, S.size - 1)))
    params = tuple(data.draw(st.permutations(range(b))))
    A, p = _pattern_and_type(S, order, b, params, data.draw(st.booleans()),
                             lambda pats: data.draw(st.sets(st.sampled_from(pats)))
                             if pats else ())
    res = min_embedding_colouring(S, A, p)
    assert (res.colouring.values, res.flagged) == min_colouring_by_types(S, A, p)
    assert res.sentinel == res.embedding_count == len(find_embeddings(A, S))


def test_min_colouring_matches_the_oracle_on_seeded_named_structures():
    rng = random.Random(27)
    for name, size in [("random-graph", 12), ("generic-poset", 12),
                       ("rb-bichrome", 10), ("local-order", 9), ("knfree:3", 14)]:
        for seed in range(3):
            S = gen_named(name, size, seed)
            order = rng.sample(range(S.size), S.size)
            b = rng.randrange(3)
            params = tuple(rng.sample(range(b), b))
            A, p = _pattern_and_type(
                S, order, b, params, rng.random() < 0.7,
                lambda pats: [q for q in pats if rng.random() < 0.3])
            res = min_embedding_colouring(S, A, p)
            assert (res.colouring.values, res.flagged) == min_colouring_by_types(S, A, p)
