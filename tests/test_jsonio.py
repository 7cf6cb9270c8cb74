"""Round trips for every serialised artifact."""

import itertools
import json

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sunlab import catalog, jsonio
from sunlab.generators import gen_named
from sunlab.ksets import Presentation, find_sunflower_copies, random_presentation
from sunlab.partitionlab import Colouring, Partition
from sunlab.ramsey import PartitionedHypergraph, gen_witness_hypergraph
from sunlab.structures import ClassSpec, QfType, Structure, qf_type
from sunlab.witness import build_witness_chain, extract_sunflower

from test_structures import SIGNATURES, gaifman, outcome, structures

import random


def test_structure_roundtrip():
    S = gen_named("rb-bichrome", 10, 1)
    data = jsonio.structure_to_json(S)
    T = jsonio.structure_from_json(json.loads(jsonio.dumps(data)))
    assert S == T and T.meta["generator"] == "rb-bichrome"


def test_spec_shaped_structure_json():
    raw = {"signature": [{"name": "E", "arity": 2}], "size": 5,
           "relations": {"E": [[0, 1], [1, 0], [1, 2], [2, 1]]}}
    S = jsonio.structure_from_json(raw)
    assert S.size == 5 and ("E", 2) in S.signature.relations
    back = jsonio.structure_to_json(S)
    assert back["relations"]["E"] == [[0, 1], [1, 0], [1, 2], [2, 1]]


def test_classspec_roundtrip():
    K = catalog.kn_free(4)
    K2 = jsonio.classspec_from_json(jsonio.classspec_to_json(K))
    assert K == K2


def partition_from_json(data, size: int) -> Partition:
    return Partition(size, data["blocks"])


def test_partition_colouring_qftype_roundtrip():
    P = Partition(5, [[0, 2], [1, 3, 4]])
    assert partition_from_json(jsonio.partition_to_json(P), 5) == P
    chi = Colouring([0, 1, 1, 2, 0])
    assert jsonio.colouring_from_json(jsonio.colouring_to_json(chi)) == chi
    k3 = catalog.complete_graph(3)
    t = qf_type(k3, 2, (0,))
    assert jsonio.qftype_from_json(jsonio.qftype_to_json(t)) == t


def test_presentation_and_cert_roundtrip():
    pure3 = catalog.pure_set(3)
    P = Presentation(pure3, 2, [(1, 2), (1, 3), (1, 4)])
    data = jsonio.presentation_to_json(P)
    P2 = jsonio.presentation_from_json(data, pure3)
    assert P == P2
    cert = find_sunflower_copies(P, pure3)[0]
    c2 = jsonio.cert_from_json(jsonio.cert_to_json(cert), pure3, pure3)
    assert c2.petals == cert.petals and c2.centre == cert.centre


def test_hypergraph_roundtrip():
    H = gen_witness_hypergraph(2, 1, 4, 3)
    H2 = jsonio.hypergraph_from_json(jsonio.hypergraph_to_json(H))
    assert H2.edges == H.edges and H2.parts == H.parts
    assert H2.meta["c"] == H.meta["c"]


def test_chain_and_trace_roundtrip():
    chain = build_witness_chain(catalog.all_graphs(), catalog.complete_graph(2),
                                2, seed=2)
    data = jsonio.chain_to_json(chain)
    chain2 = jsonio.chain_from_json(json.loads(jsonio.dumps(data)))
    assert chain2.k == 2
    assert chain2.top() == chain.top()
    assert chain2.levels[1].parts == chain.levels[1].parts
    P = random_presentation(chain2.top(), 2, random.Random(0))
    cert, trace = extract_sunflower(chain2, P)
    t2 = jsonio.trace_from_json(jsonio.trace_to_json(trace))
    assert [s.case for s in t2.steps] == [s.case for s in trace.steps]


def test_dumps_sorted_and_stable():
    S = catalog.complete_graph(3)
    a = jsonio.dumps(jsonio.structure_to_json(S))
    b = jsonio.dumps(jsonio.structure_to_json(catalog.complete_graph(3)))
    assert a == b
    assert a.index('"relations"') < a.index('"signature"') < a.index('"size"')


# ---------------------------------------------------------------------------
# Property round trips: x -> dumps -> loads -> from_json gives x back

ROUND_TRIP = settings(max_examples=60, deadline=None, derandomize=True)
signatures = st.sampled_from(SIGNATURES)
metas = st.dictionaries(
    st.text(max_size=4),
    st.integers() | st.text(max_size=4) | st.lists(st.integers(), max_size=3),
    max_size=3)


def through_text(data):
    return json.loads(jsonio.dumps(data))


def same(a, b) -> bool:
    """Equal with equal types, field by field through the public slots, so
    that meta, names and the classes without __eq__ are compared too."""
    if type(a) is not type(b):
        return False
    if isinstance(a, (tuple, list)):
        return len(a) == len(b) and all(map(same, a, b))
    if isinstance(a, dict):
        return a.keys() == b.keys() and all(same(a[k], b[k]) for k in a)
    slots = [f for f in getattr(type(a), "__slots__", ()) if not f.startswith("_")]
    if slots:
        return all(same(getattr(a, f), getattr(b, f)) for f in slots)
    return a == b


@st.composite
def structures_with_meta(draw, sig, min_size=0, max_size=5):
    S = draw(structures(sig, min_size, max_size))
    return S.with_meta(**draw(metas))


@st.composite
def class_specs(draw, sig):
    """A class over `sig`: each drawn forbidden structure is made
    irreducible by a tuple of the first relation of arity >= 2 on every
    pair of vertices sharing no tuple."""
    joins = [(n, a) for n, a in sig.relations if a >= 2]
    forbidden = []
    for F in draw(st.lists(structures(sig, 1, 3 if joins else 1), max_size=3)):
        rels = {n: set(F.relations[n]) for n in sig.names}
        edges = gaifman(F)
        for u, v in itertools.combinations(F.vertices, 2):
            if frozenset((u, v)) not in edges:
                name, arity = joins[0]
                rels[name].add((u,) + (v,) * (arity - 1))
        forbidden.append(Structure(sig, F.size, rels))
    return ClassSpec(sig, forbidden, name=draw(st.text(max_size=8)))


@ROUND_TRIP
@given(signatures.flatmap(structures_with_meta))
def test_structure_round_trip_on_every_signature(S):
    assert same(jsonio.structure_from_json(through_text(jsonio.structure_to_json(S))), S)


@ROUND_TRIP
@given(signatures.flatmap(class_specs))
def test_classspec_round_trip_on_every_signature(K):
    assert same(jsonio.classspec_from_json(through_text(jsonio.classspec_to_json(K))), K)


@ROUND_TRIP
@given(st.data())
def test_qftype_round_trip(data):
    S = data.draw(signatures.flatmap(lambda sig: structures(sig, 1, 4)))
    v = data.draw(st.integers(0, S.size - 1))
    others = data.draw(st.permutations([u for u in S.vertices if u != v]))
    p = qf_type(S, v, others[:data.draw(st.integers(0, len(others)))])
    assert same(jsonio.qftype_from_json(through_text(jsonio.qftype_to_json(p))), p)


@ROUND_TRIP
@given(st.lists(st.integers(0, 9), max_size=8).map(Colouring))
def test_colouring_round_trip(chi):
    assert same(jsonio.colouring_from_json(through_text(jsonio.colouring_to_json(chi))), chi)


@ROUND_TRIP
@given(st.data())
def test_presentation_and_certificate_round_trip(data):
    S = data.draw(signatures.flatmap(lambda sig: structures(sig, 1, 4)))
    P = random_presentation(S, data.draw(st.integers(1, 3)),
                            random.Random(data.draw(st.integers(0, 2 ** 32))))
    P2 = jsonio.presentation_from_json(through_text(jsonio.presentation_to_json(P)), S)
    assert same(P2, P)
    # one or two petals always form a sunflower, so a copy exists
    B = S.induced(sorted(data.draw(st.sets(st.sampled_from(S.vertices),
                                           min_size=1, max_size=2))))
    cert = find_sunflower_copies(P, B, limit=1)[0]
    back = jsonio.cert_from_json(through_text(jsonio.cert_to_json(cert)), B, S)
    assert same(back, cert)


@st.composite
def hypergraphs(draw):
    n, m = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    edge = st.frozensets(st.integers(0, n * m - 1), min_size=n, max_size=n)
    return PartitionedHypergraph(n, [range(i * m, (i + 1) * m) for i in range(n)],
                                 draw(st.sets(edge, max_size=6)), draw(metas))


@ROUND_TRIP
@given(hypergraphs())
def test_hypergraph_round_trip(H):
    assert same(jsonio.hypergraph_from_json(through_text(jsonio.hypergraph_to_json(H))), H)


@ROUND_TRIP
@given(hypergraphs(), st.data())
def test_edge_order_and_repeats_do_not_change_a_hypergraph(H, data):
    # the edges are sorted tuples in lexicographic order, however given
    repeats = data.draw(st.lists(st.sampled_from(H.edges), max_size=3)) if H.edges else []
    given_edges = [data.draw(st.permutations(e)) for e in [*H.edges, *repeats]]
    given_edges = data.draw(st.permutations(given_edges))
    H2 = PartitionedHypergraph(H.n, H.parts, given_edges, H.meta)
    assert H2.edges == tuple(sorted(tuple(sorted(e)) for e in set(map(frozenset, given_edges))))
    assert H2.edges == H.edges
    assert (jsonio.dumps(jsonio.hypergraph_to_json(H2))
            == jsonio.dumps(jsonio.hypergraph_to_json(H)))
    if H.n >= 2 and H.edges:
        e = data.draw(st.sampled_from(given_edges))
        with pytest.raises(ValueError, match="exactly n vertices"):
            PartitionedHypergraph(H.n, H.parts, [*given_edges, [e[0], *e[:-1]]])


@settings(max_examples=20, deadline=None, derandomize=True)
@given(st.integers(1, 2), st.integers(0, 2 ** 32), st.integers(0, 2 ** 32))
def test_chain_and_trace_round_trip(k, seed, draw_seed):
    chain = build_witness_chain(catalog.all_graphs(), catalog.complete_graph(2), k, seed)
    chain2 = jsonio.chain_from_json(through_text(jsonio.chain_to_json(chain)))
    assert same(chain2, chain)
    P = random_presentation(chain.top(), k, random.Random(draw_seed))
    _, trace = extract_sunflower(chain, P)
    assert same(jsonio.trace_from_json(through_text(jsonio.trace_to_json(trace))), trace)


json_scalars = (st.none() | st.booleans() | st.integers()
                | st.integers(-2 ** 80, 2 ** 80) | st.floats()
                | st.text(st.characters(), max_size=6)
                | st.sampled_from(['"', "\\", "\n", "\t", "\x00", "\x7f", "é", " ", "😀"]))
# int tables, which dumps writes through one row template when every row is
# a list or tuple of plain ints of one length, and item by item otherwise
table_ints = st.integers() | st.integers(-2 ** 80, 2 ** 80)


def rows(entries, lengths):
    row = lengths.flatmap(lambda k: st.lists(entries, min_size=k, max_size=k))
    return row | row.map(tuple)


int_tables = (st.integers(0, 3).flatmap(lambda k: st.lists(rows(table_ints, st.just(k)),
                                                           max_size=5))
              | st.lists(rows(table_ints | st.booleans(), st.integers(0, 3)), max_size=5))


@st.composite
def int_arrays(draw):
    """A rectangular array of depth 3 or 4 of table ints, each level lists
    or tuples, which dumps writes through one template for its shape; or a
    near miss, written item by item: one row ragged, one leaf a bool or
    one leaf not an int."""
    shape = draw(st.lists(st.integers(1, 3), min_size=3, max_size=4))
    if draw(st.integers(0, 3)) == 0:  # a zero-length dimension
        shape[draw(st.integers(0, len(shape) - 1))] = 0
    as_tuples = draw(st.lists(st.booleans(), min_size=len(shape), max_size=len(shape)))

    def build(depth):
        if depth == len(shape):
            return draw(table_ints)
        return [build(depth + 1) for _ in range(shape[depth])]

    array = build(0)
    defect = draw(st.sampled_from(["none", "ragged", "bool", "leaf"]))
    if defect != "none" and all(shape):
        rows = array
        for n in shape[:-2]:
            rows = rows[draw(st.integers(0, n - 1))]
        i, j = draw(st.integers(0, shape[-2] - 1)), draw(st.integers(0, shape[-1] - 1))
        if defect == "ragged":
            rows[i] = rows[i][1:] if draw(st.booleans()) else rows[i] + [draw(table_ints)]
        else:
            rows[i][j] = draw(st.booleans() if defect == "bool" else json_scalars.filter(
                lambda x: type(x) is not int))

    def freeze(x, depth):
        if depth == len(shape):
            return x
        items = [freeze(y, depth + 1) for y in x]
        return tuple(items) if as_tuples[depth] else items

    return freeze(array, 0)


json_documents = st.recursive(
    json_scalars | int_tables | int_arrays(),
    lambda inner: (st.lists(inner, max_size=4) | st.lists(inner, max_size=4).map(tuple)
                   | st.lists(st.integers(), max_size=4)
                   | st.dictionaries(st.text(st.characters(), max_size=4), inner, max_size=4)),
    max_leaves=20)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(json_documents)
@example([[]])
@example([[], []])
@example([[[0] * 3] * 4] * 666)
@example([[[]] * 2] * 3)
def test_dumps_gives_the_bytes_of_json_dumps(doc):
    assert jsonio.dumps(doc) == json.dumps(doc, sort_keys=True, indent=2) + "\n"


@settings(max_examples=40, deadline=None, derandomize=True)
@given(st.dictionaries(st.integers() | st.booleans() | st.none() | st.floats(allow_nan=False),
                       json_scalars, min_size=1, max_size=3))
def test_dumps_rejects_non_string_keys(doc):
    # json.dumps would write these keys as strings; every file this
    # library writes has string keys only
    with pytest.raises(TypeError):
        jsonio.dumps({"nested": doc})


def walked_ints(x, depth=0):
    """Reference: the integer check as a walk over every value, each
    level above the integers a JSON list."""
    if depth:
        if type(x) is not list:
            raise TypeError(f"expected a JSON list, got {x!r}")
        for y in x:
            walked_ints(y, depth - 1)
    elif type(x) is not int:
        raise ValueError(f"expected a JSON integer, got {x!r}")
    return x


# decoded JSON: mostly int tables, with a bool, a float, a string, null or
# an object somewhere in some of them
odd_values = st.sampled_from([True, False, 1.0, "1", None, {}, {"a": 1}, ""])
int_lists = st.lists(st.integers() | odd_values, max_size=4).filter(
    lambda xs: sum(type(x) is not int for x in xs) <= 1)
decoded_tables = st.one_of(st.integers(), odd_values, int_lists,
                           st.lists(int_lists | odd_values, max_size=4))


@settings(max_examples=300, deadline=None, derandomize=True)
@given(decoded_tables, st.integers(0, 2))
def test_bulk_int_check_matches_the_walk(doc, depth):
    assert outcome(jsonio._ints, doc, depth) == outcome(walked_ints, doc, depth)
