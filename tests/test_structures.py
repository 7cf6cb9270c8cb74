"""Core structure model: validation, Gaifman graphs, embedding search,
class membership and its closure under free amalgams, types and the
3-amalgamation checker."""

import hashlib
import itertools
import random
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sunlab import catalog
from sunlab.generators import gen_generic
from sunlab.structures import (
    BudgetExceeded,
    ClassSpec,
    Embedding,
    MalformedEmbedding,
    QfType,
    Signature,
    SignatureMismatch,
    Structure,
    ThreeDapFamily,
    ThreeDapReport,
    _adjacency_bits,
    _atom_key,
    _atoms_through,
    _class_tests,
    _colour_pools,
    _iter_embedding_maps,
    _pair_amalgams,
    _pinned_copy,
    _support_pins,
    _three_dap_amalgam_exists,
    _window_options,
    are_isomorphic,
    automorphisms,
    canonical_form,
    check_3dap_over_empty,
    embedding_defect,
    enumerate_class_members,
    find_embeddings,
    is_irreducible,
    qf_type,
    realisation_set,
    satisfies_class,
    satisfies_class_at,
)


def brute_embeddings(A, B):
    """Oracle: all induced embeddings by scanning every injection."""
    out = []
    for img in itertools.permutations(range(B.size), A.size):
        if embedding_defect(A, B, img) is None:
            out.append(img)
    return sorted(out)


def gaifman(S):
    """Oracle: the Gaifman graph, which joins every two vertices of a tuple,
    as a set of 2-element frozensets."""
    return frozenset(frozenset(e) for ts in S.relations.values() for t in ts
                     for e in itertools.combinations(set(t), 2))


def random_structure(sig, size, rng, density=0.3):
    rels = {}
    for name, arity in sig.relations:
        rels[name] = [t for t in itertools.product(range(size), repeat=arity)
                      if rng.random() < density]
    return Structure(sig, size, rels)


# ---------------------------------------------------------------------------
# Validation


def test_signature_validation():
    with pytest.raises(ValueError):
        Signature((("E", 2), ("E", 3)))
    with pytest.raises(ValueError):
        Signature((("E", 0),))
    assert Signature(()).names == ()


def test_structure_validation():
    sig = catalog.GRAPH_SIG
    with pytest.raises(ValueError):
        Structure(sig, 2, {"E": [(0, 2)]})
    with pytest.raises(ValueError):
        Structure(sig, 2, {"E": [(0,)]})
    with pytest.raises(ValueError):
        Structure(sig, 2, {"F": [(0, 1)]})


def test_structure_equality_ignores_meta():
    a = catalog.complete_graph(3)
    b = a.with_meta(note="x")
    assert a == b and hash(a) == hash(b)


def test_with_meta_leaves_the_parent_meta_unchanged():
    a = Structure(catalog.GRAPH_SIG, 2, {"E": [(0, 1), (1, 0)]}, meta={"seed": 1})
    b = a.with_meta(note="x")
    assert b.meta == {"seed": 1, "note": "x"} and a.meta == {"seed": 1}
    assert b == a and b.relations == a.relations


# ---------------------------------------------------------------------------
# Gaifman graphs and irreducibility


def test_gaifman_single_hyperedge_is_triangle():
    S = catalog.hypergraph3(3, [(0, 1, 2)])
    assert gaifman(S) == frozenset({frozenset({0, 1}), frozenset({0, 2}),
                                    frozenset({1, 2})})


def test_gaifman_of_graph_is_its_edges():
    S = catalog.path_graph(4)
    assert gaifman(S) == frozenset({frozenset({0, 1}), frozenset({1, 2}),
                                    frozenset({2, 3})})


def test_gaifman_pure_set_edgeless():
    assert gaifman(catalog.pure_set(4)) == frozenset()


def test_irreducible_examples():
    assert is_irreducible(catalog.complete_graph(3))
    assert not is_irreducible(catalog.path_graph(3))
    assert is_irreducible(catalog.f_hypergraph())
    assert is_irreducible(catalog.pure_set(1))
    assert is_irreducible(Structure(catalog.PURE_SIG, 0))


def has_amalgam_decomposition(S):
    """Oracle: S is the free amalgam of two proper induced substructures
    over their intersection iff some pair of vertices shares no tuple
    (take the two sides to be the complements of the two vertices)."""
    tuples = [t for n in S.signature.names for t in S.relations[n]]
    for a, b in itertools.combinations(range(S.size), 2):
        if not any(a in t and b in t for t in tuples):
            return True
    return False


def test_irreducible_iff_no_decomposition():
    rng = random.Random(5)
    sigs = [catalog.GRAPH_SIG, catalog.HYPER3_SIG, catalog.RB_SIG]
    for _ in range(60):
        sig = rng.choice(sigs)
        S = random_structure(sig, rng.randint(1, 5), rng, density=rng.random())
        assert is_irreducible(S) == (not has_amalgam_decomposition(S))


# ---------------------------------------------------------------------------
# Embedding search


def test_embedding_counts_examples():
    assert len(find_embeddings(catalog.complete_graph(2), catalog.complete_graph(3))) == 6
    assert find_embeddings(catalog.complete_graph(3), catalog.cycle_graph(5)) == []
    assert find_embeddings(catalog.path_graph(3), catalog.complete_graph(3)) == []


def test_embeddings_match_brute_force():
    rng = random.Random(11)
    for _ in range(40):
        sig = rng.choice([catalog.GRAPH_SIG, catalog.HYPER3_SIG, catalog.RB_SIG])
        A = random_structure(sig, rng.randint(1, 3), rng, 0.4)
        B = random_structure(sig, rng.randint(1, 5), rng, 0.4)
        got = [e.map for e in find_embeddings(A, B)]
        assert got == brute_embeddings(A, B)
        assert got == sorted(got)


def test_ternary_tuple_through_an_outside_vertex_does_not_block_a_copy():
    # the two vertices of the edgeless source are joined in the target only
    # by hyperedges through the third vertex, which no copy holds
    maps = [e.map for e in find_embeddings(Structure(catalog.HYPER3_SIG, 2),
                                           catalog.complete_hypergraph3(3))]
    assert maps == [(0, 1), (0, 2), (1, 0), (1, 2), (2, 0), (2, 1)]


def test_embeddings_limit_and_signature_mismatch():
    with pytest.raises(SignatureMismatch):
        find_embeddings(catalog.pure_set(1), catalog.complete_graph(2))
    assert len(find_embeddings(catalog.pure_set(2), catalog.pure_set(4), limit=3)) == 3


@pytest.mark.parametrize("limit", [0, -1])
def test_embeddings_reject_limit_below_one(limit):
    # both used to return one embedding
    with pytest.raises(ValueError, match="limit must be >= 1"):
        find_embeddings(catalog.pure_set(1), catalog.pure_set(3), limit=limit)


def test_embedding_count_invariant_under_relabelling():
    rng = random.Random(3)
    A = catalog.path_graph(3)
    B = random_structure(catalog.GRAPH_SIG, 6, rng, 0.4)
    base = len(find_embeddings(A, B))
    for _ in range(5):
        perm = list(range(6))
        rng.shuffle(perm)
        rel = {"E": [(perm[u], perm[v]) for u, v in B.relations["E"]]}
        assert len(find_embeddings(A, Structure(B.signature, 6, rel))) == base


def test_are_isomorphic():
    c5 = catalog.cycle_graph(5)
    perm = [3, 0, 4, 1, 2]
    c5b = catalog.graph(5, [(perm[u], perm[v])
                            for u, v in [(i, (i + 1) % 5) for i in range(5)]])
    iso = are_isomorphic(c5, c5b)
    assert iso is not None and embedding_defect(c5, c5b, iso.map) is None
    assert are_isomorphic(c5, catalog.path_graph(5)) is None
    ident = are_isomorphic(catalog.pure_set(4), catalog.pure_set(4))
    assert ident.map == (0, 1, 2, 3)


# Every distinct signature of the catalog, pure sets included.
SIGNATURES = sorted({getattr(catalog, n) for n in dir(catalog) if n.endswith("_SIG")},
                    key=repr)
ORACLE = settings(max_examples=150, deadline=None, derandomize=True)


@st.composite
def structures(draw, sig, min_size=0, max_size=5):
    size = draw(st.integers(min_size, max_size))
    rels = {}
    for name, arity in sig.relations:
        slots = list(itertools.product(range(size), repeat=arity))
        rels[name] = draw(st.sets(st.sampled_from(slots))) if slots else ()
    return Structure(sig, size, rels)


@st.composite
def structure_pairs(draw):
    """Two structures of one size over a catalog signature; half the time
    the second is a relabelled copy of the first."""
    sig = draw(st.sampled_from(SIGNATURES))
    A = draw(structures(sig))
    if draw(st.booleans()):
        perm = draw(st.permutations(range(A.size)))
        rels = {n: [tuple(perm[x] for x in t) for t in A.relations[n]]
                for n in sig.names}
        return A, Structure(sig, A.size, rels)
    return A, draw(structures(sig, A.size, A.size))


def brute_isomorphisms(A, B):
    return [p for p in itertools.permutations(range(B.size))
            if embedding_defect(A, B, p) is None]


@ORACLE
@given(st.data())
def test_grown_structure_is_the_structure_the_constructor_builds(data):
    sig = data.draw(st.sampled_from(SIGNATURES + [COLOUR_SIG]))
    S = data.draw(structures(sig, 0, 4))
    if data.draw(st.booleans()):
        _adjacency_bits(S)  # a parent with a Gaifman view passes it on
    parent_adj = None if S._adj is None else list(S._adj)
    size = S.size + data.draw(st.integers(0, 2))
    slots = [(n, t) for n, arity in sig.relations
             for t in itertools.product(range(size), repeat=arity)]
    added = data.draw(st.lists(st.sampled_from(slots))) if slots else []
    T = S._grown(size, added)
    rels = {n: set(ts) for n, ts in S.relations.items()}
    for name, t in added:
        rels[name].add(t)
    fresh = Structure(sig, size, rels)
    assert T == fresh and fresh == T and hash(T) == hash(fresh)
    assert T.relations == fresh.relations and T.size == size and T.meta == {}
    assert all(T.relations[n] is S.relations[n] for n in sig.names
               if n not in {name for name, _ in added})
    assert _adjacency_bits(T) == _adjacency_bits(Structure(sig, size, rels))
    # the parent is untouched
    assert S == Structure(sig, S.size, S.relations)
    assert parent_adj is None or S._adj == parent_adj


@pytest.mark.parametrize("t", [(0, 3), (3, 0), (-1, 0), (0,), (0, 1, 2)])
def test_grown_structure_rejects_what_the_constructor_rejects(t):
    S = catalog.path_graph(3)
    with pytest.raises(ValueError) as fresh:
        Structure(S.signature, 3, {"E": set(S.relations["E"]) | {t}})
    with pytest.raises(ValueError) as grown:
        S._grown(3, [("E", t)])
    assert str(grown.value) == str(fresh.value)


# Per-tuple references for the constructor, `induced` and the Gaifman view,
# which take each relation table in a few bulk passes.


def per_tuple_relations(sig, size, relations):
    """Reference: the relation frozensets the constructor builds, converting
    and checking one tuple at a time."""
    if size < 0:
        raise ValueError("size must be >= 0")
    rels, given = {}, dict(relations or {})
    for name, arity in sig.relations:
        tuples = frozenset(tuple(int(x) for x in t) for t in given.pop(name, ()))
        for t in tuples:
            if len(t) != arity:
                raise ValueError(f"tuple {t} has wrong length for {name!r}/{arity}")
            if any(x < 0 or x >= size for x in t):
                raise ValueError(f"tuple {t} of {name!r} out of range 0..{size - 1}")
        rels[name] = tuples
    if given:
        raise ValueError(f"tuples for undeclared relations: {sorted(given)}")
    return rels


def comprehension_induced(S, vertices):
    """Reference: the induced substructure by comprehension, through the
    checked constructor."""
    vs = list(vertices)
    if len(set(vs)) != len(vs):
        raise ValueError("vertex list must not repeat")
    pos = {v: i for i, v in enumerate(vs)}
    keep = set(vs)
    return Structure(S.signature, len(vs),
                     {name: [tuple(pos[x] for x in t) for t in S.relations[name]
                             if set(t) <= keep] for name in S.signature.names})


def permutation_view(S):
    """Reference: the Gaifman view, joining every ordered pair of distinct
    vertices of every tuple."""
    bits = [0] * S.size
    for t in itertools.chain.from_iterable(S.relations.values()):
        for u, v in itertools.permutations(set(t), 2):
            bits[u] |= 1 << v
    return bits


class Int(int):
    """An int subclass, which the constructor stores as a plain int."""


# every catalog signature, plus arities 1 and 4
BULK_SIGNATURES = SIGNATURES + [Signature([("P", 1), ("E", 2)]),
                                Signature([("Q", 4), ("U", 1)])]


def outcome(f, *args):
    """f(*args), or the type and message of what it raised."""
    try:
        return f(*args)
    except (ValueError, TypeError) as e:
        return type(e), str(e)


@ORACLE
@given(st.data())
def test_bulk_constructor_matches_the_per_tuple_reference(data):
    """Tables with repeated entries, duplicate tuples and rows of every
    shape the constructor converts or rejects: wrong length, negative or
    too large entries, bools, floats and an int subclass."""
    sig = data.draw(st.sampled_from(BULK_SIGNATURES))
    size = data.draw(st.integers(0, 4))
    malformed = data.draw(st.booleans())
    entry = (st.integers(-1, size) | st.sampled_from([True, False, 1.0, Int(1), Int(0)])
             if malformed else st.integers(0, max(size - 1, 0)))
    rows = {}
    for name, arity in sig.relations:
        lengths = st.integers(max(arity - 1, 0), arity + 1) if malformed else st.just(arity)
        row = lengths.flatmap(lambda k: st.lists(entry, min_size=k, max_size=k))
        if size or malformed:
            rows[name] = data.draw(st.lists(row | row.map(tuple), max_size=8))
    form = data.draw(st.sampled_from([list, tuple, iter]))
    expected = outcome(per_tuple_relations, sig, size,
                       {name: form(ts) for name, ts in rows.items()})
    got = outcome(Structure, sig, size, {name: form(ts) for name, ts in rows.items()})
    if isinstance(expected, dict):
        assert got.relations == expected
        assert all(type(x) is int for ts in got.relations.values()
                   for t in ts for x in t)
    else:
        assert got == expected


@pytest.mark.parametrize("rows, error", [
    ([(0, 1), 5], TypeError), ([("a", 0), 5], ValueError), ([(0, 1), [[0], [1]]], TypeError),
    ([("a", 0), (0, 5)], ValueError), ([(0, 5), (None, 0)], TypeError),
    ([(0, 1), (0, None)], TypeError), ([(0, 1), "01", (1, "x")], ValueError),
    ([lambda: iter((0, 1)), lambda: iter((1, 0))], None), ([{1, 0}, {1: "a", 0: "b"}], None)])
def test_constructor_names_the_fault_the_per_tuple_reference_names(rows, error):
    # a row that is not a tuple or list, or an entry that is not an int,
    # takes the per-tuple path, which converts one-shot rows once and
    # raises at the first fault in input order
    def table():
        return {"E": [r() if callable(r) else r for r in rows]}
    expected = outcome(per_tuple_relations, catalog.GRAPH_SIG, 2, table())
    assert expected[0] is error if error else expected["E"]
    assert outcome(Structure, catalog.GRAPH_SIG, 2, table()) == (
        expected if error else Structure(catalog.GRAPH_SIG, 2, expected))


@ORACLE
@given(st.data())
def test_induced_and_views_match_the_per_tuple_references(data):
    sig = data.draw(st.sampled_from(BULK_SIGNATURES))
    S = data.draw(structures(sig, 0, 5))
    if data.draw(st.booleans()):
        _adjacency_bits(S)
    assert _adjacency_bits(S) == permutation_view(S)
    vs = data.draw(st.permutations(range(S.size)))[:data.draw(st.integers(0, S.size))]
    sub = S.induced(vs)
    assert sub == comprehension_induced(S, vs) and sub.meta == {}
    assert _adjacency_bits(sub) == permutation_view(sub)
    # a view that was already built, extended by _grown
    size = S.size + data.draw(st.integers(0, 2))
    slots = [(n, t) for n, arity in sig.relations
             for t in itertools.product(range(size), repeat=arity)]
    T = S._grown(size, data.draw(st.lists(st.sampled_from(slots))) if slots else [])
    assert _adjacency_bits(T) == permutation_view(T)


@pytest.mark.parametrize("vs", [[0, 99], [-1, 0], [3], [0, 1, 2, 3]])
def test_induced_rejects_vertices_outside_the_structure(vs):
    # [0, 99] and [-1, 0] gave a 2-vertex structure with a phantom vertex
    with pytest.raises(ValueError, match="vertex out of range"):
        catalog.complete_graph(3).induced(vs)


@ORACLE
@given(st.sampled_from(SIGNATURES).flatmap(structures))
def test_automorphisms_match_brute_force(S):
    assert [a.map for a in automorphisms(S)] == brute_isomorphisms(S, S)


@ORACLE
@given(st.sampled_from(SIGNATURES).flatmap(structures))
def test_gaifman_bits_match_their_definition(S):
    # a vertex's Gaifman bits are its neighbours in the Gaifman graph
    G = gaifman(S)
    assert _adjacency_bits(S) == [sum(1 << u for u in S.vertices if frozenset((u, v)) in G)
                                  for v in S.vertices]


@ORACLE
@given(st.data())
def test_colour_pools_hold_every_isomorphism(data):
    # every isomorphism of A onto a random relabelling of A, found by brute
    # force, maps each vertex into its pool
    sig = data.draw(st.sampled_from(SIGNATURES))
    A = data.draw(structures(sig))
    perm = data.draw(st.permutations(range(A.size)))
    B = Structure(sig, A.size, {n: [tuple(perm[x] for x in t) for t in A.relations[n]]
                                for n in sig.names})
    pools = _colour_pools(A, B)
    isos = brute_isomorphisms(A, B)
    assert isos and pools is not None
    assert all(pools[v] >> f[v] & 1 for f in isos for v in A.vertices)


def test_colour_pools_split_what_degrees_do_not():
    # a path on 6 vertices, and a triangle beside a path on 3, have the same
    # degrees, but only the first has a vertex of degree 2 next to one of
    # degree 1 and one of degree 2; on a relabelled path each pool is the
    # pair of vertices at one distance from the nearer end
    path = catalog.path_graph(6)
    assert _colour_pools(path, catalog.graph(6, [(0, 1), (1, 2), (2, 0), (3, 4),
                                                 (4, 5)])) is None
    order = [3, 0, 5, 1, 4, 2]
    pools = _colour_pools(path, path.induced(order))
    at = {v: i for i, v in enumerate(order)}
    assert pools == [(1 << at[v]) | (1 << at[5 - v]) for v in path.vertices]


@ORACLE
@given(structure_pairs())
def test_are_isomorphic_finds_the_least_isomorphism(pair):
    A, B = pair
    brute = brute_isomorphisms(A, B)
    iso = are_isomorphic(A, B)
    assert (iso is None) == (not brute)
    if brute:
        assert iso.map == brute[0]


@pytest.mark.parametrize("sig", SIGNATURES, ids=repr)
@ORACLE
@given(st.data())
def test_embeddings_match_brute_force_on_every_signature(sig, data):
    """Sources of every density down to 0, half of them pieces of the
    target, so that a tuple of arity 3 often joins two vertices of a copy
    through a vertex outside it."""
    rng = data.draw(st.randoms(use_true_random=False))
    B = random_structure(sig, data.draw(st.integers(0, 5)), rng,
                         data.draw(st.sampled_from([0.1, 0.2, 0.4, 0.7])))
    density = data.draw(st.sampled_from([0.0, 0.2, 0.5, 1.0]))
    if B.size and data.draw(st.booleans()):
        piece = B.induced(rng.sample(range(B.size), rng.randint(1, min(3, B.size))))
        A = Structure(sig, piece.size, {n: [t for t in ts if rng.random() < density]
                                        for n, ts in piece.relations.items()})
    else:
        A = random_structure(sig, data.draw(st.integers(0, 3)), rng, density)
    assert [e.map for e in find_embeddings(A, B)] == brute_embeddings(A, B)


def recursive_embedding_maps(A, B, candidate_filter=None, candidates=None):
    """Oracle: the kernel as a recursive generator, one frame per search
    node, with the same pools, filter calls and atom test."""
    if A.size == 0:
        yield ()
        return
    if A.size > B.size:
        return
    bits_a, adj_bits = _adjacency_bits(A), _adjacency_bits(B)
    src = [([(name, p, p in A.relations[name]) for name, p in _atoms_through(A.signature, d)],
            [u for u in range(d) if bits_a[d] >> u & 1])
           for d in range(A.size)]
    partial = []

    def consistent(atoms, v):
        trial = partial + [v]
        return all((tuple(trial[x] for x in p) in B.relations[name]) == held
                   for name, p, held in atoms)

    def rec(depth, used_mask):
        if depth == A.size:
            yield tuple(partial)
            return
        atoms, nbrs = src[depth]
        m = (1 << B.size) - 1 & ~used_mask
        if candidates is not None and candidates[depth] is not None:
            m &= candidates[depth]
        for u in nbrs:
            m &= adj_bits[partial[u]]
        while m:
            low = m & -m
            m ^= low
            v = low.bit_length() - 1
            if candidate_filter is not None and not candidate_filter(depth, v, partial):
                continue
            if not consistent(atoms, v):
                continue
            partial.append(v)
            yield from rec(depth + 1, used_mask | low)
            partial.pop()

    yield from rec(0, 0)


def seeded_veto(seed):
    """A filter verdict that is a pure function of (depth, v, prefix): int
    tuples hash the same under every PYTHONHASHSEED."""
    return lambda depth, v, prefix: hash((seed, depth, v, prefix)) % 4 != 0


def logged(veto, log):
    def flt(depth, v, partial):
        log.append((depth, v, tuple(partial)))
        return veto(depth, v, tuple(partial))
    return flt


def assert_kernel_matches_oracles(A, B, veto, pools, brute=True):
    """The kernel yields the recursive oracle's tuples after the same filter
    calls, and those tuples are the injections that embed, lie in the pools
    and pass the filter on every prefix."""
    got_log, want_log = [], []
    got = list(_iter_embedding_maps(A, B, veto and logged(veto, got_log), pools))
    want = list(recursive_embedding_maps(A, B, veto and logged(veto, want_log), pools))
    assert got == want
    assert got_log == want_log
    if brute:
        assert got == [img for img in brute_embeddings(A, B)
                       if all(pools is None or pools[d] is None or pools[d] >> v & 1
                              for d, v in enumerate(img))
                       and all(veto is None or veto(d, img[d], img[:d])
                               for d in range(len(img)))]


@pytest.mark.parametrize("sig", SIGNATURES, ids=repr)
@ORACLE
@given(st.data())
def test_kernel_with_pools_and_filter_matches_the_recursive_oracle_and_brute_force(sig, data):
    rng = data.draw(st.randoms(use_true_random=False))
    B = random_structure(sig, data.draw(st.integers(0, 6)), rng,
                         data.draw(st.sampled_from([0.1, 0.3, 0.6])))
    density = data.draw(st.sampled_from([0.0, 0.2, 0.5]))
    if B.size and data.draw(st.booleans()):
        piece = B.induced(rng.sample(range(B.size), rng.randint(1, min(4, B.size))))
        A = Structure(sig, piece.size, {n: [t for t in ts if rng.random() < density]
                                        for n, ts in piece.relations.items()})
    else:
        A = random_structure(sig, data.draw(st.integers(0, 3)), rng, density)
    pools = None
    if data.draw(st.booleans()):
        pools = [None if rng.random() < 0.3 else
                 sum(1 << v for v in range(B.size) if rng.random() < 0.8)
                 for _ in range(A.size)]
    veto = seeded_veto(data.draw(st.integers(0, 1 << 16))) if data.draw(st.booleans()) else None
    assert_kernel_matches_oracles(A, B, veto, pools)


def test_kernel_matches_the_recursive_oracle_on_larger_targets():
    rng = random.Random(30)
    for sig in SIGNATURES:
        for _ in range(4):
            B = random_structure(sig, rng.randint(8, 12), rng, rng.choice([0.1, 0.3]))
            A = B.induced(rng.sample(range(B.size), 4))
            pools = [None if rng.random() < 0.5 else rng.getrandbits(B.size)
                     for _ in range(A.size)]
            assert_kernel_matches_oracles(A, B, seeded_veto(rng.getrandbits(16)), pools,
                                          brute=False)


@ORACLE
@given(st.data())
def test_satisfies_class_at_matches_brute_force(data):
    sig = data.draw(st.sampled_from(SIGNATURES))
    S = data.draw(structures(sig, min_size=1))
    v = data.draw(st.integers(0, S.size - 1))
    # induced pieces of S embed somewhere, not always through v
    pieces = data.draw(st.lists(st.lists(st.integers(0, S.size - 1), min_size=1,
                                         max_size=3, unique=True), max_size=3))
    drawn = [S.induced(vs) for vs in pieces]
    drawn += data.draw(st.lists(structures(sig, 1, 3), max_size=2))
    K = ClassSpec(sig, [F for F in drawn if is_irreducible(F)])
    through_v = any(v in img for F in K.forbidden for img in brute_embeddings(F, S))
    assert satisfies_class_at(S, K, v) == (not through_v)


def test_canonical_form_invariant():
    rng = random.Random(9)
    for _ in range(25):
        S = random_structure(catalog.GRAPH_SIG, rng.randint(1, 5), rng, 0.5)
        perm = list(range(S.size))
        rng.shuffle(perm)
        rel = {"E": [(perm[u], perm[v]) for u, v in S.relations["E"]]}
        T = Structure(S.signature, S.size, rel)
        assert canonical_form(S) == canonical_form(T)


# ---------------------------------------------------------------------------
# Free amalgams


def free_amalgam(A, f0, f1):
    """The free amalgam of f0 : A -> B0 and f1 : A -> B1: B0's vertex labels,
    then the vertices of B1 outside the image of f1 in ascending order, and
    exactly the two transported relation sets."""
    if f0.source != A or f1.source != A:
        raise MalformedEmbedding("both embeddings must have source A")
    B0, B1 = f0.target, f1.target
    inv1 = {f1.map[a]: f0.map[a] for a in range(A.size)}
    to_c, fresh = {}, B0.size
    for v in range(B1.size):
        if v in inv1:
            to_c[v] = inv1[v]
        else:
            to_c[v], fresh = fresh, fresh + 1
    rels = {name: set(B0.relations[name]) | {tuple(to_c[x] for x in t) for t in ts}
            for name, ts in B1.relations.items()}
    return Structure(B0.signature, fresh, rels)


def test_free_amalgam_glued_edges():
    sig = catalog.GRAPH_SIG
    A = Structure(sig, 1)
    B = catalog.complete_graph(2)
    out = free_amalgam(A, Embedding(A, B, [0]), Embedding(A, B, [0]))
    assert out.size == 3
    assert out.relations["E"] == frozenset({(0, 1), (1, 0), (0, 2), (2, 0)})


def test_free_amalgam_disjoint_union():
    A = Structure(catalog.GRAPH_SIG, 0)
    B = catalog.complete_graph(2)
    out = free_amalgam(A, Embedding(A, B, []), Embedding(A, B, []))
    assert out.size == 4
    assert len(out.relations["E"]) == 4


def test_free_amalgam_hyperedges_over_pair():
    A = Structure(catalog.HYPER3_SIG, 2)
    B = catalog.complete_hypergraph3(3)
    f = Embedding(A, B, [0, 1])
    out = free_amalgam(A, f, f)
    assert out.size == 4
    assert len({tuple(sorted(t)) for t in out.relations["E"]}) == 2


def test_free_amalgam_gaifman_union():
    rng = random.Random(21)
    checked = 0
    while checked < 25:
        B0 = random_structure(catalog.GRAPH_SIG, rng.randint(1, 4), rng, 0.5)
        B1 = random_structure(catalog.GRAPH_SIG, rng.randint(1, 4), rng, 0.5)
        k = rng.randint(0, min(B0.size, B1.size))
        img0 = rng.sample(range(B0.size), k)
        img1 = rng.sample(range(B1.size), k)
        A = B0.induced(img0)
        if embedding_defect(A, B1, tuple(img1)) is not None:
            continue
        checked += 1
        f0 = Embedding(A, B0, img0)
        f1 = Embedding(A, B1, img1)
        out = free_amalgam(A, f0, f1)
        assert out.size == B0.size + B1.size - k
        # the Gaifman graph is exactly the union of the transported sides
        to_c = {}
        fresh = B0.size
        inv1 = {img1[i]: img0[i] for i in range(k)}
        for v in range(B1.size):
            if v in inv1:
                to_c[v] = inv1[v]
            else:
                to_c[v] = fresh
                fresh += 1
        side0 = gaifman(B0)
        side1 = {frozenset({to_c[u], to_c[v]}) for e in gaifman(B1)
                 for u, v in [tuple(e)]}
        assert gaifman(out) == frozenset(side0 | side1)
        # in particular no cross edge joins the two private sides
        private0 = set(range(B0.size)) - set(img0)
        private1 = set(range(B0.size, out.size))
        for e in gaifman(out):
            u, v = tuple(e)
            assert not ({u, v} & private0 and {u, v} & private1)


@pytest.mark.parametrize("name, counts", [
    ("graphs", [1, 2, 4, 11, 34]),               # OEIS A000088
    ("knfree:3", [1, 2, 3, 7, 14, 38]),          # A006785, triangle-free graphs
    ("oriented", [1, 2, 7, 42]),                 # A001174
    ("3hypergraphs", [1, 1, 2, 5, 34])])         # A000665, 3-uniform hypergraphs
def test_class_member_counts_match_oeis(name, counts):
    members = enumerate_class_members(catalog.class_by_name(name), len(counts))
    sizes = Counter(S.size for S in members)
    assert [sizes[n] for n in range(1, len(counts) + 1)] == counts


def test_free_amalgam_stays_in_class_exhaustively():
    K = catalog.kn_free(3)
    members = []
    from sunlab.structures import enumerate_class_members
    members = enumerate_class_members(K, 3)
    for B0, B1 in itertools.product(members, repeat=2):
        for k in range(0, min(B0.size, B1.size) + 1):
            for img0 in itertools.permutations(range(B0.size), k):
                A = B0.induced(img0)
                for img1 in itertools.permutations(range(B1.size), k):
                    if embedding_defect(A, B1, img1) is not None:
                        continue
                    out = free_amalgam(A, Embedding(A, B0, img0),
                                       Embedding(A, B1, img1))
                    assert satisfies_class(out, K)


def test_free_amalgam_rejects_wrong_source():
    A = Structure(catalog.GRAPH_SIG, 1)
    A2 = Structure(catalog.GRAPH_SIG, 2)
    B = catalog.complete_graph(2)
    with pytest.raises(MalformedEmbedding):
        free_amalgam(A2, Embedding(A, B, [0]), Embedding(A, B, [0]))


# ---------------------------------------------------------------------------
# Class membership


def test_satisfies_class_examples():
    K3free = catalog.kn_free(3)
    assert not satisfies_class(catalog.complete_graph(3), K3free)
    assert satisfies_class(catalog.cycle_graph(5), K3free)
    F = catalog.f_hypergraph()
    assert not satisfies_class(F, catalog.f_free_3hypergraphs())


def test_satisfies_class_is_hereditary():
    rng = random.Random(17)
    K = catalog.kn_free(3)
    from sunlab.generators import gen_named
    S = gen_named("knfree:3", 25, 2)
    for _ in range(10):
        sub = rng.sample(range(S.size), rng.randint(1, S.size))
        assert satisfies_class(S.induced(sub), K)


def test_classspec_rejects_reducible_forbidden():
    with pytest.raises(ValueError):
        ClassSpec(catalog.GRAPH_SIG, [catalog.path_graph(3)])


def test_classspec_rejects_forbidden_without_vertices():
    # it embeds everywhere, so the class would be empty, yet an anchored
    # check has no vertex of it to pin and lets one-vertex structures in
    with pytest.raises(ValueError, match="^forbidden structures must have a vertex$"):
        ClassSpec(catalog.GRAPH_SIG, [Structure(catalog.GRAPH_SIG, 0)])


# ---------------------------------------------------------------------------
# Quantifier-free types


def test_qf_type_examples():
    k3 = catalog.complete_graph(3)
    t = qf_type(k3, 2, (0,))
    assert t.positives == frozenset({("E", (-1, 0)), ("E", (0, -1))})
    assert qf_type(catalog.pure_set(3), 1, ()).positives == frozenset()
    # two crossed equivalence relations: same first class, different second
    de = Structure(catalog.DOUBLE_EQ_SIG, 3,
                   {"E0": [(0, 1), (1, 0)], "E1": [(1, 2), (2, 1)]})
    t2 = qf_type(de, 1, (0,))
    assert ("E0", (-1, 0)) in t2.positives
    assert ("E1", (-1, 0)) not in t2.positives


@ORACLE
@given(st.data())
def test_qf_type_is_the_tuples_through_the_point_inside_the_parameters(data):
    sig = data.draw(st.sampled_from(SIGNATURES + [COLOUR_SIG]))
    S = data.draw(structures(sig, min_size=1))
    v = data.draw(st.integers(0, S.size - 1))
    others = [u for u in range(S.size) if u != v]
    A = data.draw(st.permutations(others).flatmap(
        lambda p: st.integers(0, len(p)).map(lambda n: tuple(p[:n]))))
    index = {a: j for j, a in enumerate(A)}
    index[v] = -1
    expected = {(name, tuple(index[x] for x in t))
                for name in sig.names for t in S.relations[name]
                if v in t and set(t) <= set(index)}
    p = qf_type(S, v, A)
    assert p.parameters == A
    assert p.positives == expected


def test_qf_type_rejects_parameter_point():
    k3 = catalog.complete_graph(3)
    with pytest.raises(ValueError):
        qf_type(k3, 0, (0, 1))


@pytest.mark.parametrize("pattern", [(-2, -1), (-1, -2)])
def test_qftype_rejects_atom_entries_below_minus_one(pattern):
    # an entry -2 is neither the point nor a parameter
    with pytest.raises(ValueError, match="type atom references a missing parameter"):
        QfType((0,), [("E", pattern)])


def type_classes_by_vertex(S, A):
    """Oracle: every vertex outside A grouped by its full type over A."""
    classes = {}
    for v in S.vertices:
        if v not in A:
            classes.setdefault(qf_type(S, v, A).positives, []).append(v)
    return classes


def check_realisations(S, A):
    """realisation_set against the oracle over the base A: every realised
    type gives its class, and a type realised nowhere, if one of the
    empty type, the one-atom types and the all-atom type is, gives []."""
    classes = type_classes_by_vertex(S, A)
    for positives, members in classes.items():
        assert realisation_set(S, A, QfType(A, positives)) == members
    patterns = [(name, p) for name, arity in S.signature.relations
                for p in itertools.product(range(-1, len(A)), repeat=arity) if -1 in p]
    types = [frozenset(), frozenset(patterns), *(frozenset([p]) for p in patterns)]
    unrealised = next((t for t in types if t not in classes), None)
    if unrealised is not None:
        assert realisation_set(S, A, QfType(A, unrealised)) == []


@ORACLE
@given(st.data())
def test_type_classes_match_the_type_of_every_vertex(data):
    # loops, unary P, arity 3 and bases of 0-2 vertices in any order
    sig = data.draw(st.sampled_from(SIGNATURES + [COLOUR_SIG]))
    S = data.draw(structures(sig, max_size=6))
    A = tuple(data.draw(st.lists(st.integers(0, S.size - 1), max_size=min(2, S.size),
                                 unique=True))) if S.size else ()
    check_realisations(S, A)


@pytest.mark.parametrize("name", ["knfree:3", "rb-bichrome", "oriented", "3hypergraphs",
                                  "two-colour"])
def test_type_classes_match_the_type_of_every_vertex_on_class_members(name):
    K = two_colour_graphs() if name == "two-colour" else catalog.class_by_name(name)
    S = gen_generic(K, 9, 4)
    for b in range(3):
        for A in itertools.permutations(range(S.size), b):
            check_realisations(S, A)


# ---------------------------------------------------------------------------
# Pins of the incremental class test


def loose_supports(F):
    """(key, support) for each tuple of F not spanning F: its relation and
    pattern of repeated entries, and the set of vertices it mentions."""
    return {((n, tuple(map(t.index, t))), frozenset(t))
            for n, ts in F.relations.items() for t in ts if len(set(t)) < F.size}


def pinned_copy_by_definition(T, chosen, K):
    """Oracle: whether some forbidden F embeds into T mapping the support of
    a tuple of F not spanning F onto the support of a chosen (relation,
    tuple) pair of the same relation and pattern of repeated entries."""
    targets = {((n, tuple(map(t.index, t))), frozenset(t)) for n, t in chosen}
    return any((key, frozenset(e.map[x] for x in sup)) in targets
               for F in K.forbidden for e in find_embeddings(F, T)
               for key, sup in loose_supports(F))


def pinned_tuple_by_definition(T, chosen, K):
    """Oracle: whether some forbidden F embeds into T with a tuple of F not
    spanning F, any of them, on a chosen (relation, tuple) pair."""
    chosen = set(chosen)
    return any((name, tuple(e.map[x] for x in tF)) in chosen
               for F in K.forbidden for e in find_embeddings(F, T)
               for name, ts in F.relations.items() for tF in ts if len(set(tF)) < F.size)


def random_completion(S, rng):
    """S plus a vertex v and (chosen, T): random tuples through v, mostly
    closed under permutation and injective, all of them chosen."""
    sig, v = S.signature, S.size
    rels = {n: set(ts) for n, ts in S.relations.items()}
    chosen = set()
    for name, arity in sig.relations:
        for others in itertools.combinations(range(v), arity - 1):
            if rng.random() < 0.5:
                chosen.update((name, t) for t in itertools.permutations(others + (v,)))
        for t in itertools.product(range(v + 1), repeat=arity):
            if v in t and rng.random() < 0.03:
                chosen.add((name, t))
    for name, t in chosen:
        rels[name].add(t)
    return sorted(chosen), Structure(sig, v + 1, rels)


@pytest.mark.parametrize("name", ["knfree:3", "k4h3free", "f-free-3hyper", "rb-bichrome"])
def test_orbit_pins_find_what_every_loose_tuple_finds(name):
    # the pinned supports, which meet every Aut(F) orbit, decide as every
    # loose support does, and as every loose tuple does where T minus the
    # chosen tuples and each chosen tuple's window are in K
    K = catalog.class_by_name(name)
    rng = random.Random(name)
    verdicts, exact = [], []
    for seed in range(3):
        S = gen_generic(K, 5, seed)
        for _ in range(12):
            chosen, T = random_completion(S, rng)
            verdicts.append(_pinned_copy(T, chosen, K))
            assert verdicts[-1] == pinned_copy_by_definition(T, chosen, K)
            rest = Structure(T.signature, T.size, {n: ts - {t for m, t in chosen if m == n}
                                                   for n, ts in T.relations.items()})
            if satisfies_class(rest, K) and all(satisfies_class(T.induced(sorted(set(t))), K)
                                                for _, t in chosen):
                exact.append(verdicts[-1])
                assert verdicts[-1] == pinned_tuple_by_definition(T, chosen, K)
    assert any(verdicts) and not all(verdicts)
    assert any(exact) and not all(exact)
    # each forbidden structure keeps one pin per distinct relabelling that
    # puts a loose support of a relation and pattern of repeated entries
    # first, which is at least one per Aut(F) orbit of those supports
    for F in K.forbidden:
        auts = brute_isomorphisms(F, F)
        orbits = {(key, frozenset(frozenset(p[x] for x in sup) for p in auts))
                  for key, sup in loose_supports(F)}
        pins = {(key, pin_at(F, sup)) for key, sup in loose_supports(F)}
        assert sum(map(len, _support_pins(F).values())) == len(pins) >= len(orbits)


def pin_at(F, sup):
    """F relabelled with the support `sup` first, then its other vertices,
    both ascending."""
    return F.induced(sorted(sup) + [v for v in F.vertices if v not in sup])


@pytest.mark.parametrize("name", ["graphs", "oriented", "3hypergraphs", "rb-bichrome",
                                  "f-free-3hyper", "knfree:3", "knfree:4", "k4h3free"])
def test_support_pins_are_the_distinct_relabellings(name):
    # per relation and pattern of repeated entries, the pins are F relabelled
    # at each loose support, in the order of the supports, each kept once
    for F in catalog.class_by_name(name).forbidden:
        pins = {}
        for key, sup in sorted((key, sorted(sup)) for key, sup in loose_supports(F)):
            pins.setdefault(key, {}).setdefault(pin_at(F, sup))
        assert _support_pins(F) == {key: list(Gs) for key, Gs in pins.items()}


@ORACLE
@given(st.data())
def test_orbit_pins_find_what_every_loose_tuple_finds_on_random_classes(data):
    sig = data.draw(st.sampled_from([catalog.GRAPH_SIG, COLOUR_SIG, catalog.HYPER3_SIG]))
    if sig == catalog.HYPER3_SIG:
        forbidden = data.draw(st.lists(structures(sig, 1, 4), max_size=3))
        forbidden = [F for F in forbidden if is_irreducible(F)]
    else:
        forbidden = data.draw(st.lists(irreducible_structures(sig, False), max_size=3))
    K = ClassSpec(sig, forbidden)
    T = data.draw(structures(sig, 1, 5))
    v = data.draw(st.integers(0, T.size - 1))
    through = sorted((n, t) for n, ts in T.relations.items() for t in ts if v in t)
    chosen = data.draw(st.lists(st.sampled_from(through), unique=True)) if through else []
    assert (_pinned_copy(T, chosen, K)
            == pinned_copy_by_definition(T, chosen, K))


def test_pinned_copy_skips_forbidden_structures_without_room(monkeypatch):
    # the red triangle has 6 R tuples; a T with 4 cannot hold it, however
    # many B tuples it has, so no search is made in T.  Nor is one where
    # the chosen support {0, 1} has no common neighbour for the third
    # vertex, and one with both gets one search for the support, which
    # both chosen tuples share
    searched = []

    def counting(A, B, *args, **kwargs):
        searched.append(B)
        return _iter_embedding_maps(A, B, *args, **kwargs)

    monkeypatch.setattr("sunlab.structures._iter_embedding_maps", counting)
    K = catalog.rb_bichrome()
    cross = [(0, 2), (0, 3), (1, 3)]
    chosen = [("R", (0, 1)), ("R", (1, 0))]
    for red, blue, searches in (([(0, 1), (1, 2)], cross, 0), ([(0, 1), (1, 2), (2, 3)], [], 0),
                                ([(0, 1), (1, 2), (2, 3)], cross, 1)):
        T = catalog.rb_structure(4, red, blue)
        searched.clear()
        assert not _pinned_copy(T, chosen, K)
        assert sum(B is T for B in searched) == searches
        assert not pinned_copy_by_definition(T, chosen, K)


def test_gen_generic_makes_few_kernel_searches(monkeypatch):
    # a chosen 3-hyperedge is its six orderings on one support: one search
    # per pin of each forbidden F with room, 38-102 per job on these seeds,
    # where a search per pinned ordering of each F with no more vertices
    # than T, and one per F for the bare point's verdict, make 531-1,077
    searched = []

    def counting(A, B, *args, **kwargs):
        searched.append(B)
        return _iter_embedding_maps(A, B, *args, **kwargs)

    monkeypatch.setattr("sunlab.structures._iter_embedding_maps", counting)
    for seed in range(8):
        searched.clear()
        gen_generic(catalog.f_free_3hypergraphs(), 6, seed)
        assert 0 < len(searched) <= 300


@pytest.mark.parametrize("name", ["pure", "graphs", "oriented", "3hypergraphs", "rb-bichrome",
                                  "f-free-3hyper", "knfree:3", "knfree:4", "k4h3free"])
def test_window_keys_agree_with_canonical_forms(name, monkeypatch):
    # each window and sub-window _window_options looks up by atom key is in
    # `small` iff its canonical form is that of a forbidden structure no
    # larger than the widest relation
    seen = []

    def recording(*args):
        seen.append(args)
        return _window_options(*args)

    monkeypatch.setattr("sunlab.structures._window_options", recording)
    K = catalog.class_by_name(name)
    for seed in range(4):
        gen_generic(K, 6, seed)
    enumerate_class_members(K, 3)
    width = max((a for _, a in K.signature.relations), default=0)
    forms = {canonical_form(F) for F in K.forbidden if F.size <= width}
    assert bool(seen) == bool(width)
    found = set()
    for sig, small, frame, group in seen:
        m = len(set(group[0][1]))
        W = Structure(sig, m)._grown(m, frame)
        for r in range(1, m):
            for sub in itertools.combinations(range(m), r):
                hit = _atom_key(W.induced(sub), range(r)) in small
                assert hit == (canonical_form(W.induced(sub)) in forms)
                found.add(hit)
        for r in range(len(group) + 1):
            for idx in itertools.combinations(group, r):
                hit = (m, frame.union(idx)) in small
                assert hit == (canonical_form(W._grown(m, idx)) in forms)
                found.add(hit)
    assert found == ({True, False} if width else set())


WINDOW_CLASSES = ["knfree:3", "oriented", "k4h3free", "f-free-3hyper"]


def _window_cache_outputs(K):
    report = check_3dap_over_empty(K, 2 if K.signature == catalog.GRAPH_SIG else 1)
    return ([gen_generic(K, 5, seed) for seed in range(4)],
            [canonical_form(S) for S in enumerate_class_members(K, 3)],
            (report.passed, report.families_checked), _class_tests(K)[2].cache_info())


def test_window_options_are_listed_once_per_frame(monkeypatch):
    # a support's options are one cache entry per window frame: 16 draws
    # of k4h3free fill 3 entries, where a memo of single windows held 127
    K = catalog.class_by_name("k4h3free")
    for seed in range(16):
        gen_generic(K, 8, seed)
    assert _class_tests(K)[2].cache_info().currsize <= 3
    # a cap of one entry evicts and recomputes, changing no output
    full = [_window_cache_outputs(catalog.class_by_name(name)) for name in WINDOW_CLASSES]
    monkeypatch.setattr("sunlab.structures._WINDOW_MEMO", 1)
    capped = [_window_cache_outputs(catalog.class_by_name(name)) for name in WINDOW_CLASSES]
    for (*outputs, info), (*outputs_capped, info_capped) in zip(full, capped):
        assert outputs == outputs_capped
        assert info_capped.maxsize == 1 and info_capped.misses > info.misses


@pytest.mark.parametrize("name", WINDOW_CLASSES)
def test_a_class_that_served_other_jobs_gives_what_a_fresh_one_gives(name):
    # a class keeps its pins and window options from job to job; serving
    # other jobs first must change no output
    used = catalog.class_by_name(name)
    gen_generic(used, 8, 101)
    enumerate_class_members(used, 4)
    assert (_window_cache_outputs(used)[:-1]
            == _window_cache_outputs(catalog.class_by_name(name))[:-1])


# ---------------------------------------------------------------------------
# 3-disjoint amalgamation over the empty base


def test_3dap_k3free_counterexample_at_bound_one():
    report = check_3dap_over_empty(catalog.kn_free(3), 1)
    assert not report.passed
    fam = report.counterexample
    assert all(s.size == 1 for s in fam.sides)
    for amal in fam.amalgams.values():
        assert len(amal.relations["E"]) == 2  # every pairwise amalgam an edge


def test_3dap_k4_hypergraphs_pass_at_bound_one(monkeypatch):
    # K4^(3) has four vertices and every 3-vertex window a tuple meeting
    # all three of its vertices, so nothing splits into three points and
    # no family has to be built
    def build(*args):
        raise AssertionError("family built")

    monkeypatch.setattr("sunlab.structures.ThreeDapFamily", build)
    report = check_3dap_over_empty(catalog.knr_free_hypergraphs3(4), 1)
    assert report.passed and report.families_checked == 1


def test_3dap_all_graphs_pass_at_bound_two():
    report = check_3dap_over_empty(catalog.all_graphs(), 2)
    assert report.passed


def test_3dap_oriented_graphs_pass_at_bound_one():
    # any pattern of pairwise arcs over three disjoint points is itself an
    # oriented graph, so the union of the pairwise amalgams always works
    report = check_3dap_over_empty(catalog.oriented_graphs(), 1)
    assert report.passed


def brute_class_members(K, max_size):
    """Oracle: grow members one vertex at a time by every atom set through
    the new vertex, checked by the anchored search, deduplicated by
    canonical form."""
    by_size = [[Structure(K.signature, 0)]]
    for v in range(max_size):
        slots = sorted((name, t) for name, arity in K.signature.relations
                       for t in itertools.product(range(v + 1), repeat=arity) if v in t)
        nxt = {}
        for S in by_size[-1]:
            for r in range(len(slots) + 1):
                for chosen in itertools.combinations(slots, r):
                    rels = {n: set(ts) for n, ts in S.relations.items()}
                    for name, t in chosen:
                        rels[name].add(t)
                    T = Structure(K.signature, v + 1, rels)
                    if satisfies_class_at(T, K, v):
                        nxt.setdefault(canonical_form(T), T)
        by_size.append([nxt[k] for k in sorted(nxt)])
    return [S for size_list in by_size[1:] for S in size_list]


def brute_pair_amalgams(A, B, K):
    """Oracle: every set of cross tuples on A + B, in order of size and then
    lexicographically, keeping the first set of each Aut(A) x Aut(B) orbit
    whose completion is in K."""
    sig = K.signature
    na = A.size
    size = na + B.size
    base = {name: set(A.relations[name]) for name in sig.names}
    for name in sig.names:
        base[name].update(tuple(x + na for x in t) for t in B.relations[name])
    cross = sorted((name, t) for name, arity in sig.relations
                   for t in itertools.product(range(size), repeat=arity)
                   if any(x < na for x in t) and any(x >= na for x in t))
    auts = [list(pa.map) + [x + na for x in pb.map]
            for pa in automorphisms(A) for pb in automorphisms(B)]
    seen = set()
    out = []
    for r in range(len(cross) + 1):
        for chosen in itertools.combinations(cross, r):
            orbit_min = min(
                tuple(sorted((name, tuple(perm[x] for x in t)) for name, t in chosen))
                for perm in auts)
            if orbit_min in seen:
                continue
            seen.add(orbit_min)
            rels = {n: set(ts) for n, ts in base.items()}
            for name, t in chosen:
                rels[name].add(t)
            C = Structure(sig, size, rels)
            if satisfies_class(C, K):
                out.append(C)
    return out


def _family_by_family_3dap(K, size_bound, budget=1 << 20):
    """Oracle: the checker before the split rule, which builds and decides
    every family and recomputes the pair amalgams, by brute force, for
    every side triple."""
    reps = enumerate_class_members(K, size_bound)
    checked = 0
    for i0 in range(len(reps)):
        for i1 in range(i0, len(reps)):
            for i2 in range(i1, len(reps)):
                sides = (reps[i0], reps[i1], reps[i2])
                pair_opts = {
                    (0, 1): brute_pair_amalgams(sides[0], sides[1], K),
                    (0, 2): brute_pair_amalgams(sides[0], sides[2], K),
                    (1, 2): brute_pair_amalgams(sides[1], sides[2], K),
                }
                for a01 in pair_opts[(0, 1)]:
                    for a02 in pair_opts[(0, 2)]:
                        for a12 in pair_opts[(1, 2)]:
                            family = ThreeDapFamily(
                                sides, {(0, 1): a01, (0, 2): a02, (1, 2): a12})
                            checked += 1
                            if not _three_dap_amalgam_exists(family, K, budget):
                                return ThreeDapReport(False, family, checked)
    return ThreeDapReport(True, None, checked)


def _keys(structures):
    """What equality compares, each relation's tuples sorted, so that the
    list has a stable repr to hash."""
    return [(S.signature.relations, S.size,
             tuple((n, tuple(sorted(ts))) for n, ts in S.relations.items()))
            for S in structures]


_ORACLE_3DAP: dict = {}


def _assert_same_3dap(K, size_bound):
    reps = enumerate_class_members(K, size_bound)
    assert _keys(reps) == _keys(brute_class_members(K, size_bound))
    for A, B in itertools.combinations_with_replacement(reps, 2):
        assert (_keys(_pair_amalgams(A, B, K, 1 << 20))
                == _keys(brute_pair_amalgams(A, B, K)))
    # the verdict does not depend on the order of the forbidden structures
    key = (K.signature, frozenset(K.forbidden), size_bound)
    if key not in _ORACLE_3DAP:
        _ORACLE_3DAP[key] = _family_by_family_3dap(K, size_bound)
    want = _ORACLE_3DAP[key]
    got = check_3dap_over_empty(K, size_bound)
    assert (got.passed, got.families_checked) == (want.passed, want.families_checked)
    if not want.passed:
        assert got.counterexample.sides == want.counterexample.sides
        assert got.counterexample.amalgams == want.counterexample.amalgams


COLOUR_SIG = Signature([("P", 1), ("E", 2)])


def two_colour_graphs():
    """Graphs with a unary colour P and no edge between the colours."""
    forbidden = [Structure(COLOUR_SIG, 1, {"E": [(0, 0)]}),
                 Structure(COLOUR_SIG, 1, {"P": [(0,)], "E": [(0, 0)]})]
    for colour in ([], [(0,)], [(1,)], [(0,), (1,)]):
        forbidden.append(Structure(COLOUR_SIG, 2, {"P": colour, "E": [(0, 1)]}))
    forbidden.append(Structure(COLOUR_SIG, 2, {"P": [(0,)], "E": [(0, 1), (1, 0)]}))
    return ClassSpec(COLOUR_SIG, forbidden, name="two-colour-graphs")


@pytest.mark.parametrize("make, bound", [
    (catalog.all_graphs, 1), (catalog.all_graphs, 2), (catalog.oriented_graphs, 1),
    (lambda: catalog.kn_free(3), 1), (lambda: catalog.kn_free(3), 2),
    (catalog.rb_bichrome, 1), (catalog.pure_sets, 1), (catalog.pure_sets, 2),
    (catalog.pure_sets, 3), (lambda: catalog.knr_free_hypergraphs3(4), 1),
    (catalog.hypergraphs3, 1), (catalog.f_free_3hypergraphs, 1),
    (two_colour_graphs, 1)])
def test_3dap_matches_family_by_family(make, bound):
    _assert_same_3dap(make(), bound)


@st.composite
def irreducible_structures(draw, sig, simple):
    """A structure on 1-3 vertices, each pair of vertices sharing a tuple;
    if `simple`, a complete graph with coloured vertices."""
    if simple:
        n = draw(st.integers(1, 3))
        rels = {"E": [(u, v) for u in range(n) for v in range(n) if u != v]}
        if "P" in sig.names:
            rels["P"] = [(v,) for v in draw(st.sets(st.integers(0, n - 1)))]
        return Structure(sig, n, rels)
    F = draw(structures(sig, 1, 3))
    rels = {n: set(F.relations[n]) for n in sig.names}
    for u, v in itertools.combinations(range(F.size), 2):
        if (u, v) not in rels["E"] and (v, u) not in rels["E"]:
            rels["E"].add(draw(st.sampled_from([(u, v), (v, u)])))
    return Structure(sig, F.size, rels)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(st.data())
def test_3dap_matches_family_by_family_on_random_classes(data):
    sig = data.draw(st.sampled_from([catalog.GRAPH_SIG, COLOUR_SIG]))
    bound = data.draw(st.integers(1, 2))
    forbidden = data.draw(st.lists(irreducible_structures(sig, bound == 2),
                                   max_size=3))
    if bound == 2:
        # simple graphs, and on the coloured signature a single colour,
        # so the oracle builds at most a few thousand families
        forbidden += catalog._window_forbidden(sig, catalog._valid_graphlike)
        if sig == COLOUR_SIG:
            colour = data.draw(st.sampled_from([[], [(0,)]]))
            forbidden.append(Structure(sig, 1, {"P": colour}))
    _assert_same_3dap(ClassSpec(sig, forbidden), bound)


def test_3dap_oriented_graphs_pass_at_bound_two():
    report = check_3dap_over_empty(catalog.oriented_graphs(), 2)
    assert report.passed and report.families_checked == 780_165


def test_3dap_graphs_pass_and_k3free_fails_at_bound_three():
    graphs = check_3dap_over_empty(catalog.all_graphs(), 3)
    assert graphs.passed and graphs.families_checked == 26_720_023
    k3free = check_3dap_over_empty(catalog.kn_free(3), 3)
    assert not k3free.passed and k3free.families_checked == 8


def test_pair_amalgams_of_the_largest_oriented_sides_are_pinned():
    # the last two 3-vertex oriented members: each of the nine cross pairs
    # carries no arc or one of two, so 3^9 = 19,683 completions are in the
    # class, 3,414 of them up to the sides' automorphisms
    reps = enumerate_class_members(catalog.oriented_graphs(), 3)
    out = _pair_amalgams(reps[-2], reps[-1], catalog.oriented_graphs(), 1 << 20)
    assert len(out) == 3414
    assert (hashlib.sha256(repr(_keys(out)).encode()).hexdigest()
            == "8883435bc8e409c68b77560c3dfd76a38c96e26e6f09c505b9f0b3e0ff7f82f7")


def test_3dap_pair_amalgam_budget():
    # the largest pair, two 2-vertex graphs, has 8 cross tuples
    assert check_3dap_over_empty(catalog.all_graphs(), 2, budget=256).passed
    with pytest.raises(BudgetExceeded, match="^256 pair amalgams exceed budget$"):
        check_3dap_over_empty(catalog.all_graphs(), 2, budget=255)


def test_3dap_completion_budget_on_counted_triples():
    # a 4-ary relation has 14 cross tuples on two points but 36 tuples
    # spanning three, so the completion budget trips before any pair's,
    # on a side triple that no forbidden structure splits
    K = ClassSpec(Signature([("Q", 4)]), ())
    with pytest.raises(BudgetExceeded,
                       match="^68719476736 completions exceed budget$"):
        check_3dap_over_empty(K, 1, budget=1 << 14)
