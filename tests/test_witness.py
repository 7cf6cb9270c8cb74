"""Pasting, witness chains, extraction and certificate verification."""

import collections
import functools
import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from test_golden import run_on_clock

from sunlab import catalog
from sunlab.jsonio import structure_from_json, structure_to_json
from sunlab.ksets import Presentation, find_sunflower_copies, random_presentation
from sunlab.ramsey import PartitionedHypergraph, gen_witness_hypergraph
from sunlab.structures import (
    ClassSpec,
    Signature,
    Structure,
    _iter_embedding_maps,
    are_isomorphic,
    colour_classes,
    satisfies_class,
)
from sunlab.witness import (
    ExtractionFailed,
    ExtractionTrace,
    NonTransitiveClass,
    PastingError,
    TraceStep,
    _find_part_mono_copy,
    build_witness_chain,
    extract_sunflower,
    paste,
    replay_trace,
    verify_certificate,
)


# ---------------------------------------------------------------------------
# Pasting


def test_paste_single_hyperedge_is_the_target():
    H = PartitionedHypergraph(3, [[0], [1], [2]], [(0, 1, 2)])
    p3 = catalog.path_graph(3)
    out = paste(H, p3, catalog.kn_free(3))
    assert out.structure == p3


def test_paste_two_uniform_rereads_the_graph():
    H = PartitionedHypergraph(2, [[0, 1], [2, 3]], [(0, 2), (1, 3), (0, 3)])
    k2 = catalog.complete_graph(2)
    out = paste(H, k2, catalog.all_graphs())
    assert out.structure.relations["E"] == frozenset(
        {(0, 2), (2, 0), (1, 3), (3, 1), (0, 3), (3, 0)})


def test_paste_triangle_free():
    K = catalog.kn_free(3)
    p3 = catalog.path_graph(3)
    for seed in range(6):
        H = gen_witness_hypergraph(3, 1, 4, seed, c_override=6)
        out = paste(H, p3, K)
        assert satisfies_class(out.structure, K)
        # every tuple lies inside some pasted edge copy
        edges = [frozenset(e) for e in H.edges]
        pos = {v: i for i, v in enumerate(H.vertices)}
        copies = [frozenset(pos[v] for v in e) for e in edges]
        for t in out.structure.relations["E"]:
            assert any(set(t) <= c for c in copies)


def test_paste_rejects_bad_girth():
    H = PartitionedHypergraph(3, [[0, 1], [2, 3], [4, 5]],
                              [(0, 2, 4), (0, 2, 5)])
    with pytest.raises(PastingError):
        paste(H, catalog.path_graph(3), catalog.kn_free(3))


def test_paste_rejects_mixed_point_types():
    B = Structure(catalog.GRAPH_SIG, 2, {"E": [(0, 0)]})
    H = PartitionedHypergraph(2, [[0], [1]], [(0, 1)])
    with pytest.raises(PastingError):
        paste(H, B, catalog.all_graphs())


def test_paste_rejects_wrong_uniformity():
    H = PartitionedHypergraph(2, [[0], [1]], [(0, 1)])
    with pytest.raises(PastingError):
        paste(H, catalog.path_graph(3), catalog.kn_free(3))


# ---------------------------------------------------------------------------
# Chains


def test_chain_level_one_is_target():
    K = catalog.all_graphs()
    B = catalog.complete_graph(2)
    chain = build_witness_chain(K, B, 1, seed=0)
    assert chain.k == 1 and chain.top() == B


def test_chain_level_two_shape():
    K = catalog.all_graphs()
    B = catalog.complete_graph(2)
    chain = build_witness_chain(K, B, 2, seed=0)
    level = chain.levels[1]
    assert level.colourings == 4  # 2 ** |K_2|
    assert len(level.parts) == 2
    assert satisfies_class(level.structure, K)
    assert level.hypergraph_meta["g"] == 4


def test_chain_requires_transitive_class():
    sig = Signature((("U", 1),))
    K = ClassSpec(sig, ())  # both one-point types admitted
    B = Structure(sig, 1)
    with pytest.raises(NonTransitiveClass):
        build_witness_chain(K, B, 2, seed=0)


def test_chain_requires_membership():
    with pytest.raises(ValueError):
        build_witness_chain(catalog.kn_free(3), catalog.complete_graph(3), 1, 0)


# ---------------------------------------------------------------------------
# Extraction


def pure_chain(k, seed=0, c_override=None):
    return build_witness_chain(catalog.pure_sets(), catalog.pure_set(2), k,
                               seed, c_override=c_override)


def test_extract_base_case():
    chain = build_witness_chain(catalog.pure_sets(), catalog.pure_set(2), 1, 0)
    P = Presentation(catalog.pure_set(2), 1, [(4,), (9,)])
    cert, trace = extract_sunflower(chain, P)
    assert cert.centre == frozenset()
    assert len(cert.petals) == 2
    assert verify_certificate(cert, chain.target, P)
    assert trace.steps[-1].case == "base"


def test_extract_shared_element_joins_centre():
    K = catalog.all_graphs()
    B = catalog.complete_graph(2)
    chain = build_witness_chain(K, B, 2, seed=1)
    top = chain.top()
    # every 2-set contains 7; ground elements above 7 keep it in first place
    sets = [(7, 100 + v) for v in range(top.size)]
    P = Presentation(top, 2, sets)
    cert, trace = extract_sunflower(chain, P)
    assert 7 in cert.centre
    assert verify_certificate(cert, B, P)
    assert replay_trace(chain, P, trace)


def test_extract_disjoint_presentation_gives_empty_centre():
    K = catalog.all_graphs()
    B = catalog.complete_graph(2)
    chain = build_witness_chain(K, B, 2, seed=1)
    top = chain.top()
    sets = [(2 * v, 2 * v + 1) for v in range(top.size)]
    P = Presentation(top, 2, sets)
    cert, trace = extract_sunflower(chain, P)
    assert cert.centre == frozenset()
    assert verify_certificate(cert, B, P)
    assert replay_trace(chain, P, trace)


def test_extract_rejects_wrong_arity():
    chain = pure_chain(1)
    P = Presentation(catalog.pure_set(2), 2, [(0, 1), (2, 3)])
    with pytest.raises(ValueError):
        extract_sunflower(chain, P, level=1)


def test_extract_rejects_a_level_out_of_range():
    chain = pure_chain(2)
    P = random_presentation(chain.top(), 2, random.Random(0))
    for level in (0, 3):
        with pytest.raises(ValueError, match="level out of range"):
            extract_sunflower(chain, P, level=level)


def test_extract_rejects_a_base_that_is_not_the_level():
    # same vertex count, one edge fewer
    top = _graph_chain().top()
    u, v = min(top.relations["E"])
    edges = top.relations["E"] - {(u, v), (v, u)}
    base = Structure(top.signature, top.size, {"E": edges})
    P = random_presentation(base, 2, random.Random(0))
    with pytest.raises(ValueError, match="not isomorphic to the level"):
        extract_sunflower(_graph_chain(), P)


def test_extraction_soundness_over_random_presentations():
    K = catalog.all_graphs()
    B = catalog.complete_graph(2)
    chain = build_witness_chain(K, B, 2, seed=3)
    top = chain.top()
    rng = random.Random(99)
    for _ in range(300):
        P = random_presentation(top, 2, rng)
        cert, trace = extract_sunflower(chain, P)
        assert verify_certificate(cert, B, P)
        assert len(cert.centre) < 2  # centre of distinct 2-sets
        assert replay_trace(chain, P, trace)


def test_extraction_deterministic():
    chain = build_witness_chain(catalog.all_graphs(), catalog.complete_graph(2),
                                2, seed=3)
    P = random_presentation(chain.top(), 2, random.Random(1))
    c1, t1 = extract_sunflower(chain, P)
    c2, t2 = extract_sunflower(chain, P)
    assert c1.petals == c2.petals and c1.centre == c2.centre
    assert [s.case for s in t1.steps] == [s.case for s in t2.steps]


def test_extraction_las_vegas_contract_tiny_instance():
    """At tiny override sizes the built object may fail to be a witness:
    extraction must then hand back a presentation that genuinely carries
    no sunflower copy."""
    K = catalog.pure_sets()
    B = catalog.pure_set(3)
    # the 9-vertex top of c_override=3 is a real witness, as f(2, 3) = 7
    chain = build_witness_chain(K, B, 2, seed=5, c_override=3)
    top = chain.top()
    rng = random.Random(1)
    failures = 0
    for _ in range(300):
        P = random_presentation(top, 2, rng)
        try:
            cert, _ = extract_sunflower(chain, P)
        except ExtractionFailed as e:
            failures += 1
            assert not find_sunflower_copies(e.presentation, B, limit=1)
            continue
        assert verify_certificate(cert, B, P)
    assert failures == 0
    # the 6-vertex top of c_override=2 is not: two triangles of 2-sets
    # hold no sunflower of three
    chain = build_witness_chain(K, B, 2, seed=5, c_override=2)
    P = Presentation(chain.top(), 2, [(0, 1), (0, 2), (1, 2), (3, 4), (4, 5), (3, 5)])
    with pytest.raises(ExtractionFailed) as failed:
        extract_sunflower(chain, P)
    assert failed.value.presentation == P
    assert not find_sunflower_copies(failed.value.presentation, B, limit=1)


def test_pipeline_las_vegas_pure_sets_contract():
    """Ten thousand random presentations of a default-size pure-set witness
    must all yield a verifiable certificate (the top level has 96 vertices,
    far above the minimal witness size, so extraction never fails)."""
    chain = build_witness_chain(catalog.pure_sets(), catalog.pure_set(3), 2,
                                seed=2)
    top = chain.top()
    B = catalog.pure_set(3)
    rng = random.Random("las-vegas")
    for _ in range(10_000):
        P = random_presentation(top, 2, rng)
        cert, _ = extract_sunflower(chain, P)
        assert verify_certificate(cert, B, P)
        assert len(cert.centre) < 2


def test_hetero_all_colourings_iff_disjoint():
    K = catalog.all_graphs()
    B = catalog.complete_graph(2)
    chain = build_witness_chain(K, B, 2, seed=3)
    top = chain.top()
    parts = chain.levels[1].parts
    part_of = {}
    for i, part in enumerate(parts):
        for v in part:
            part_of[v] = i
    transversal_edges = [
        (u, v) for (u, v) in top.relations["E"]
        if u < v and part_of[u] != part_of[v]]
    rng = random.Random(5)
    for _ in range(20):
        P = random_presentation(top, 2, rng)
        for u, v in transversal_edges[:40]:
            disjoint = P.sets[u].isdisjoint(P.sets[v])
            su, sv = sorted(P.sets[u]), sorted(P.sets[v])
            hetero_all = all(su[f[part_of[u]]] != sv[f[part_of[v]]]
                             for f in itertools.product(range(2), repeat=2))
            assert disjoint == hetero_all


def test_certificate_verification_examples():
    pure3 = catalog.pure_set(3)
    P = Presentation(pure3, 2, [(1, 2), (1, 3), (1, 4)])
    cert = find_sunflower_copies(P, pure3)[0]
    assert verify_certificate(cert, pure3, P)
    from sunlab.ksets import SunflowerCert
    wrong_centre = SunflowerCert(cert.petals, cert.centre | {2}, cert.iso)
    assert not verify_certificate(wrong_centre, pure3, P)
    not_iso = catalog.complete_graph(3)
    assert not verify_certificate(cert, not_iso, P)


def test_extract_higher_level_with_overrides():
    """A k=3 chain on pure sets with tiny overrides exercises the recursion
    through the stripped presentations."""
    K = catalog.pure_sets()
    B = catalog.pure_set(2)
    chain = build_witness_chain(K, B, 3, seed=2, c_override=3)
    top = chain.top()
    rng = random.Random(7)
    outcomes = {"ok": 0, "failed": 0}
    for _ in range(60):
        P = random_presentation(top, 3, rng)
        try:
            cert, trace = extract_sunflower(chain, P)
        except ExtractionFailed as e:
            outcomes["failed"] += 1
            assert not find_sunflower_copies(e.presentation, B, limit=1)
            continue
        outcomes["ok"] += 1
        assert verify_certificate(cert, B, P)
        assert len(cert.centre) < 3
        assert replay_trace(chain, P, trace)
    assert outcomes["ok"] > 0


# ---------------------------------------------------------------------------
# Trace replay


@functools.cache
def _graph_chain():
    return build_witness_chain(catalog.all_graphs(), catalog.complete_graph(2), 2, seed=1)


def _graph_presentation(name):
    top = _graph_chain().top()
    if name == "shared":
        return Presentation(top, 2, [(v % 3, 10 + v) for v in range(top.size)])
    if name == "4-sets":
        return Presentation(top, 4, [range(4 * v, 4 * v + 4) for v in range(top.size)])
    return Presentation(top, 2, [(2 * v, 2 * v + 1) for v in range(top.size)])


def test_replay_accepts_the_extraction_traces():
    # the shared presentation strips element 1 from the edge 4-31, the
    # disjoint one finds the transversal edge 0-42
    for name, cases in (("shared", ["mono", "base"]), ("disjoint", ["transversal"])):
        P = _graph_presentation(name)
        _, trace = extract_sunflower(_graph_chain(), P)
        assert [s.case for s in trace.steps] == cases
        assert replay_trace(_graph_chain(), P, trace)


def test_extractions_build_no_structure(monkeypatch):
    # a mono step presents the level below on its stripped sets, and that
    # level is already built
    chains = [_graph_chain(), _chain("pure-3")]
    rng = random.Random("no-builds")
    presentations = [(chains[0], _graph_presentation("shared"))] + [
        (chain, random_presentation(chain.top(), 2, rng)) for chain in chains for _ in range(20)]
    built = []
    init = Structure.__init__

    def counting(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(Structure, "__init__", counting)
    cases = collections.Counter()
    for chain, P in presentations:
        _, trace = extract_sunflower(chain, P)
        assert built == []
        cases[trace.steps[0].case] += 1
    assert cases["mono"] > 0 and cases["transversal"] > 0


def _relabelled_top():
    """The graphs-k2 top with three transpositions, one across the parts."""
    top = _graph_chain().top()
    order = list(top.vertices)
    for a, b in [(62, 63), (50, 55), (31, 60)]:
        order[a], order[b] = order[b], order[a]
    return top.induced(order)


def test_extract_maps_the_parts_onto_a_relabelled_base():
    chain = _graph_chain()
    base = _relabelled_top()
    iso = are_isomorphic(chain.top(), base)
    assert iso != tuple(base.vertices)
    part_of = {iso[v]: i for i, part in enumerate(chain.levels[1].parts) for v in part}
    rng = random.Random("relabelled")
    cases = collections.Counter()
    for _ in range(40):
        P = random_presentation(base, 2, rng)
        cert, trace = extract_sunflower(chain, P)
        assert verify_certificate(cert, chain.target, P)
        assert replay_trace(chain, P, trace)
        step = trace.steps[0]
        cases[step.case] += 1
        # a mono copy lies inside the part it names, a transversal one
        # meets each part at most once
        parts = [part_of[v] for v in step.copy]
        if step.case == "mono":
            assert set(parts) == {step.part}
        else:
            assert step.case == "transversal" and len(set(parts)) == len(parts)
    assert cases["mono"] > 0 and cases["transversal"] > 0
    # the top's 31 and its neighbour 4 share part 0 and are the base's 60
    # and 4, so a shared element on just these two sets is a mono copy in
    # part 0, which the unmapped parts would miss
    assert (iso[31], iso[4]) == (60, 4)
    sets = [(2 * v, 2 * v + 1) for v in base.vertices]
    sets[60] = (8, 1000)
    P = Presentation(base, 2, sets)
    _, trace = extract_sunflower(chain, P)
    assert [(s.case, s.part, s.shared, s.copy) for s in trace.steps] == [
        ("mono", 0, 8, (4, 60)), ("base", None, None, (0, 1))]


_TRANSPOSED_TOP_RUN = """
from sunlab import catalog
from sunlab.ksets import Presentation
from sunlab.witness import build_witness_chain, extract_sunflower, replay_trace, verify_certificate
chain = build_witness_chain(catalog.all_graphs(), catalog.complete_graph(2), 2, seed=1)
order = list(chain.top().vertices)
for a, b in [(0, 40), (5, 17), (22, 63), (9, 10)]:
    order[a], order[b] = order[b], order[a]
base = chain.top().induced(order)
P = Presentation(base, 2, [(2 * v, 2 * v + 1) for v in base.vertices])
cert, trace = extract_sunflower(chain, P)
assert verify_certificate(cert, chain.target, P) and replay_trace(chain, P, trace)
"""


def test_extract_on_a_transposed_top_finishes_on_its_clock():
    # relabelling invariance on a clock: the run gets 2 s in its own
    # interpreter, where are_isomorphic maps the top onto the base
    run_on_clock(_TRANSPOSED_TOP_RUN, 2)


def _outcome(cert, trace):
    return (cert.petals, cert.centre, cert.iso.map, cert.degenerate,
            [(s.level, s.case, s.part, s.f, s.shared, s.copy) for s in trace.steps])


def test_extract_on_an_equal_base_matches_the_top():
    chain = _graph_chain()
    top = chain.top()
    rebuilt = structure_from_json(structure_to_json(top))
    assert rebuilt == top and rebuilt is not top
    rng = random.Random("equal-base")
    for _ in range(20):
        P = random_presentation(top, 2, rng)
        Q = Presentation(rebuilt, 2, P.sets)
        cert, trace = extract_sunflower(chain, Q)
        assert verify_certificate(cert, chain.target, Q) and replay_trace(chain, Q, trace)
        assert _outcome(cert, trace) == _outcome(*extract_sunflower(chain, P))


MONO = TraceStep(2, "mono", shared=1, copy=(4, 31))


@pytest.mark.parametrize("presentation, steps", [
    ("shared", []),
    ("shared", [MONO]),
    ("shared", [TraceStep(1, "mono", shared=1, copy=(4, 31))]),
    ("shared", [TraceStep(1, "base", copy=(4, 31))]),
    ("shared", [TraceStep(2, "base", copy=(4, 31))]),
    ("shared", [MONO, TraceStep(2, "base", copy=(0, 1))]),
    ("shared", [TraceStep(2, "mono", shared=1, copy=(4, 4))]),
    ("disjoint", [TraceStep(2, "transversal", copy=(0, 999))]),
    ("4-sets", [TraceStep(4, "transversal", copy=(4, 31))])],
    ids=["no-steps", "cut-after-mono", "mono-level", "base-level", "base-at-k2",
         "base-level-after-mono", "repeated-copy-vertex", "copy-out-of-range",
         "sets-wider-than-the-chain"])
def test_replay_rejects_traces_that_prove_nothing(presentation, steps):
    # each used to replay as true, or end in an exception
    assert not replay_trace(_graph_chain(), _graph_presentation(presentation),
                            ExtractionTrace(steps))


def test_replay_rejects_a_base_step_on_the_top_level_sets():
    # the sets {0,1}, {0,2}, {1,2} of three top vertices form no sunflower
    chain = build_witness_chain(catalog.pure_sets(), catalog.pure_set(3), 2, seed=0,
                                c_override=2)
    P = Presentation(chain.top(), 2, [(0, 1), (0, 2), (1, 2), (3, 4), (4, 5), (3, 5)])
    for level in (1, 2):
        assert not replay_trace(chain, P, ExtractionTrace(
            [TraceStep(level, "base", copy=(0, 1, 2))]))
    # no fallback rescues this presentation either
    assert not replay_trace(chain, P, ExtractionTrace([TraceStep(2, "fallback")]))


@pytest.mark.parametrize("presentation, step", [
    ("shared", TraceStep(2, "transversal", copy=(4, 31))),
    ("disjoint", TraceStep(2, "transversal", copy=(0, 1))),
    ("shared", TraceStep(2, "mono", shared=1, copy=(0, 1))),
    ("shared", TraceStep(2, "mono", shared=None, copy=(4, 31))),
    ("shared", TraceStep(2, "mono", shared=14, copy=(4, 31))),
    ("shared", TraceStep(2, "bogus", copy=(4, 31)))],
    ids=["transversal-sets-meet", "transversal-not-a-copy", "mono-not-a-copy",
         "mono-without-shared", "mono-shared-missing", "unknown-case"])
def test_replay_rejects_each_bad_step(presentation, step):
    P = _graph_presentation(presentation)
    assert step.copy[1] in P.base.vertices
    assert not replay_trace(_graph_chain(), P, ExtractionTrace([step]))


def test_replay_rejects_a_base_step_that_is_no_copy_of_the_target():
    chain = build_witness_chain(catalog.pure_sets(), catalog.pure_set(3), 1, 0)
    P = Presentation(catalog.pure_set(3), 1, [(4,), (9,), (7,)])
    assert replay_trace(chain, P, ExtractionTrace([TraceStep(1, "base", copy=(0, 1, 2))]))
    assert not replay_trace(chain, P, ExtractionTrace([TraceStep(1, "base", copy=(0, 1))]))


def test_replay_checks_the_recorded_fallback_copy():
    # both extraction cases fail on this presentation of a small chain, and
    # the fallback finds the one sunflower (0, 1, 3), with centre {0}
    small = build_witness_chain(catalog.pure_sets(), catalog.pure_set(3), 2, seed=0,
                                c_override=2)
    P = Presentation(small.top(), 2, [(0, 5), (0, 11), (8, 10), (0, 6), (3, 10), (3, 8)])
    _, trace = extract_sunflower(small, P)
    assert [(s.case, s.copy) for s in trace.steps] == [("fallback", (0, 1, 3))]
    assert replay_trace(small, P, trace)
    for copy in [(0, 1, 2), ()]:
        assert not replay_trace(small, P, ExtractionTrace([TraceStep(2, "fallback", copy=copy)]))
    # {60,151}, {33,139} and {40,151} share no centre, although the
    # presentation holds other sunflower copies
    chain = _chain("pure-3")
    P = random_presentation(chain.top(), 2, random.Random(3))
    assert find_sunflower_copies(P, chain.target, limit=1)
    for copy in [(0, 1, 17), ()]:
        assert not replay_trace(chain, P, ExtractionTrace([TraceStep(2, "fallback", copy=copy)]))


# ---------------------------------------------------------------------------
# Monochromatic part search against the filter-based reference


_CHAINS = {
    "graphs-k2": lambda: build_witness_chain(
        catalog.all_graphs(), catalog.complete_graph(2), 2, seed=3),
    "pure-3": lambda: build_witness_chain(
        catalog.pure_sets(), catalog.pure_set(3), 2, seed=2),
    "pure-2": lambda: pure_chain(2, seed=0),
    "pure-2-k3": lambda: pure_chain(3, seed=2, c_override=3),
}


@functools.cache
def _chain(name):
    return _CHAINS[name]()


def _filter_part_mono_copy(P, D, part_mask, colour):
    """The reference: one search over the whole part, given as a vertex
    mask, a candidate filter rejecting every vertex whose colour differs
    from the first image's."""

    def flt(depth, v, partial):
        return depth == 0 or colour[v] == colour[partial[0]]

    return next(_iter_embedding_maps(D, P.base, candidate_filter=flt,
                                     candidates=[part_mask] * D.size), None)


def _part_searches(chain, level, P):
    """(D, part images, colour) for every part of a level and every
    coordinate of the presentation's sets."""
    iso = are_isomorphic(chain.levels[level - 1].structure, P.base)
    D = chain.levels[level - 2].structure
    coords = list(zip(*(sorted(P.sets[v]) for v in P.base.vertices)))
    for part in chain.levels[level - 1].parts:
        images = [iso[v] for v in part]
        for colour in coords:
            yield D, images, colour


@pytest.mark.parametrize("name, k, rounds", [
    ("graphs-k2", 2, 300), ("pure-3", 2, 200),
    ("pure-2-k3", 2, 200), ("pure-2-k3", 3, 200),
])
def test_part_mono_copy_matches_filter_search(name, k, rounds):
    chain = _chain(name)
    rng = random.Random(f"mono-oracle|{k}")
    found = first_class_not_least = 0
    for _ in range(rounds):
        P = random_presentation(chain.levels[1].structure, k, rng)
        for D, images, colour in _part_searches(chain, 2, P):
            want = _filter_part_mono_copy(P, D, sum(1 << v for v in images), colour)
            assert _find_part_mono_copy(P, D, images, colour) == want
            found += want is not None
            hits = [h for h in (_filter_part_mono_copy(P, D, cls, colour)
                                for cls in colour_classes(images, colour, D.size))
                    if h is not None]
            first_class_not_least += bool(hits) and hits[0] != want
    assert found > 0
    if name == "graphs-k2":
        # on graphs the class holding the lowest vertex need not hold the
        # least copy, so returning the first class's hit would be caught
        assert first_class_not_least > 0


def test_part_mono_copy_edge_cases():
    chain = _chain("graphs-k2")
    top = chain.top()
    P = random_presentation(top, 2, random.Random(4))
    k1 = catalog.complete_graph(1)
    cases = []  # (presentation, target, part, colour, expected copy)
    for D, images, colour in _part_searches(chain, 2, P):
        cases.append((P, D, [], colour, None))  # an empty part
        cases.append((P, k1, images, colour, (min(images),)))
    # every colour class is a single vertex, smaller than the target
    spread = Presentation(top, 2, [(v, top.size + v) for v in range(top.size)])
    cases += [(spread, D, images, colour, None)
              for D, images, colour in _part_searches(chain, 2, spread)]
    # the top of a 3-level chain: parts of 3 vertices, a 6-vertex target
    deep = _chain("pure-2-k3")
    rng = random.Random(5)
    for _ in range(50):
        Q = random_presentation(deep.top(), 3, rng)
        cases += [(Q, D, images, colour, None)
                  for D, images, colour in _part_searches(deep, 3, Q)]
    # colours made to measure on a part of the pure-3 top, where any three
    # vertices are a copy of the target
    pure = _chain("pure-3")
    Q = random_presentation(pure.top(), 2, random.Random(6))
    D = pure.target
    part = sorted(pure.levels[1].parts[0])
    p0, a, b, c, d, e = (part[i] for i in (0, 3, 7, 11, 20, 30))

    def recoloured(*classes):
        colour = list(range(1000, 1000 + pure.top().size))
        for x, cls in enumerate(classes):
            for v in cls:
                colour[v] = x
        return colour

    cases += [
        # |D|-2 repeats: skipped outright
        (Q, D, part, recoloured([a, b]), None),
        # |D|-1 repeats over two classes: searched, no class big enough
        (Q, D, part, recoloured([a, b], [c, d]), None),
        (Q, D, part, recoloured([a, b, c]), (a, b, c)),
        # images in descending order, where the class met first does not
        # hold the least copy, and in shuffled order
        (Q, D, part[::-1], recoloured([c, d, e], [p0, a, b]), (p0, a, b)),
        (Q, D, random.Random(7).sample(part, len(part)),
         recoloured([c, d, e], [p0, a, b]), (p0, a, b)),
    ]
    for P, D, images, colour, expected in cases:
        assert _filter_part_mono_copy(P, D, sum(1 << v for v in images), colour) == expected
        assert _find_part_mono_copy(P, D, images, colour) == expected


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(["graphs-k2", "pure-2", "pure-2-k3"]),
       st.integers(0, 2**32 - 1))
def test_extracted_certificates_verify_and_traces_replay(name, seed):
    chain = _chain(name)
    P = random_presentation(chain.top(), chain.k, random.Random(seed))
    try:
        cert, trace = extract_sunflower(chain, P)
    except ExtractionFailed as e:
        # tiny overrides need not give a witness; the refutation must hold
        assert not find_sunflower_copies(e.presentation, chain.target, limit=1)
        return
    assert verify_certificate(cert, chain.target, P)
    assert replay_trace(chain, P, trace)
