"""Round trips for every serialised artifact."""

import json

from sunlab import catalog, jsonio
from sunlab.generators import gen_named
from sunlab.ksets import Presentation, find_sunflower_copies, random_presentation
from sunlab.partitionlab import Colouring, Partition
from sunlab.ramsey import gen_witness_hypergraph
from sunlab.structures import QfType, qf_type
from sunlab.witness import build_witness_chain, extract_sunflower

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
